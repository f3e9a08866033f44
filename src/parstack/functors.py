"""Direct image and pullback on both sides of the correspondence.

A cover profile records the local shape of a finite flat map over one
target point: branches (e, r, u) with the admissibility relation
r * e = s and local uniformizer relation w_y = u * t^e on each branch.
The parabolic direct image refines each branch chain to denominator
r*e and restricts scalars; the graded direct image distributes the
branch grades over grade m = r*l + k with a t^{-l} twist.  Both routes
restrict scalars with restrict_scalars, which writes down the stored
canonical form of res(L) (lattice) from that of L instead of
canonicalizing a generating set, and checks it exactly (the derivation
and the guards are in its docstring).  Each route restricts each
distinct member once and reads its twists t^l * L off res(L) with
twist_restricted.  With T = multiplication by t on restricted
coordinates, T^l * B spans res(t^l * L) for a basis B of res(L), because
T is K_Y-linear (span); and T moves each stored entry together with its
row's pivot, so the row bounds move with the rows and no entry needs
reducing (shape).  The two routes share this run rule but never read
each other's restrictions.  The parabolic pullback splits into lines and
applies the floor/fractional-part line formula at every e; the graded
pullback is base change of the root-stack module and uses no splitting,
so the two routes stay independent computations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InadmissibleProfile, InadmissibleWeight, ProfileMismatch
from .lattice import Lattice, direct_sum, map_runs
from .linalg import block_diag, transpose
from .localring import LocalElement
from .parabolic import ParabolicPoint, split_into_lines
from .rootstack import GradedModule

_Z = LocalElement.zero()


@dataclass(frozen=True)
class Branch:
    label: str
    e: int
    r: int
    unit: object  # nonzero field value: Fraction on Q, int residue on GF(p)


@dataclass(frozen=True)
class CoverProfile:
    target_order: int
    branches: tuple

    def __post_init__(self):
        s = self.target_order
        if s < 1:
            raise InadmissibleProfile("target order must be >= 1")
        if not self.branches:
            raise InadmissibleProfile("a cover needs at least one branch")
        seen = set()
        for br in self.branches:
            if br.e < 1 or br.r < 1:
                raise InadmissibleProfile("branch %r has nonpositive e or r" % br.label)
            if br.r * br.e != s:
                raise InadmissibleProfile(
                    "branch %r: s != r*e (s=%d, r=%d, e=%d)" % (br.label, s, br.r, br.e))
            if br.unit == 0:
                raise InadmissibleProfile("branch %r has zero unit" % br.label)
            if br.label in seen:
                raise InadmissibleProfile("duplicate branch label %r" % br.label)
            seen.add(br.label)

    def branch(self, label):
        for br in self.branches:
            if br.label == label:
                return br
        raise ProfileMismatch("no branch labelled %r" % label)


def make_profile(s, branch_specs):
    """branch_specs: iterable of (label, e, r, unit)."""
    return CoverProfile(s, tuple(Branch(l, e, r, u) for l, e, r, u in branch_specs))


# -- scalar restriction ----------------------------------------------------


def decompose_component(x, e, u, rho):
    """Component rho of x in K_Y * {1, t, ..., t^{e-1}} with w_y = u * t^e:
    the terms t^{q*e + rho} = t^rho * (w_y / u)^q, in the target
    uniformizer.  The offset rule holds for every integer rho: component
    rho2 of t^d * x is decompose_component(x, e, u, rho2 - d).  One call of
    the component kernel ``LocalElement.component``, which picks the terms
    and multiplies them by u^{-q} in one pass and one reduction."""
    return x.component(e, rho, u)


def substitute_element(x, e, u):
    """Substitute w_y = u * t^e: the inverse of taking the e components.
    One call of the substitution kernel ``LocalElement.substitute``."""
    return x.substitute(e, u)


def _restrict_columns(col, e, u):
    """The K_X-columns t^rho * col, rho < e, written over K_Y in the
    coordinates (i, rho2) -> i*e + rho2 of the K_Y-basis 1, t, ..., t^{e-1}.
    Entry (i, rho2) of column rho is component rho2 - rho of col[i], so
    each nonzero entry gives 2e-1 values, one per offset in (-e, e)."""
    outs = [[] for _ in range(e)]
    for x in col:
        vals = ([decompose_component(x, e, u, d) for d in range(1 - e, e)] if x.coeffs
                else [x] * (2 * e - 1))
        for rho, out in enumerate(outs):
            out.extend(vals[e - 1 - rho:2 * e - 1 - rho])
    return outs


def restrict_scalars(lattice, e, u):
    """View a branch lattice L as a target-chart lattice res(L) of rank n*e,
    built in canonical form from L's stored form, without canonicalizing.

    Write w for w_y, c_j for the canonical columns of L with pivots
    t^{a_j}, and (q_j, s_j) = divmod(a_j, e).  As an R_Y-module res(L) is
    spanned by the columns t^rho * c_j, rho < e (``_restrict_columns``):
    row i*e + k holds component k of entry i.  The only entry of
    t^rho * c_j in block j is t^{a_j + rho} = t^s * (w / u)^q with
    (q, s) = divmod(a_j + rho, e), so its pivot is u^{-q} * w^q at row
    j*e + s.  Over rho < e these rows cover block j once, with exponent
    b = q_j + 1 at k < s_j and b = q_j at k >= s_j; so the canonical pivots
    of block j are those w^b, and their exponents sum to a_j.  Each column
    j gives the canonical columns at rows j*e + s, rho = 0, ..., e - 1, in
    one pass over its stored entries:

    * the seed u^{q_j} * res(c_j) has pivot w^{q_j} at row j*e + s_j, and
      in a block i < j component k of c_j[i], whose terms lie below
      t^{a_i}, has w-degree below the pivot exponent of block i at row k:
      it is already reduced.  Its stored entries, a dict row -> entry, are
      the nonzero rows above block j of the generator res(c_j) times the
      constant u^{q_j}; a pivot-only column's dict is empty;
    * t times a column moves each stored entry one row down its e-block,
      an entry leaving the block wrapping to the block's first row times
      t^e = w / u.  When the pivot wraps (s = e - 1) it becomes
      w^{q+1} / u, and the column is rescaled by u;
    * after a move, a reduced entry at row i*e + k keeps its degree bound
      except at k = s_i, where the bound drops from q_i + 1 to q_i (or the
      wrap adds one at s_i = 0).  So only row i*e + s_i of block i can
      exceed its pivot, and only by its w^{q_i} term.  Bottom-up over the
      blocks i < j, that term is removed with a constant multiple of block
      i's seed (its stored entries plus its pivot), which leaves the
      w^{q_k} terms of the blocks k < i alone, because the seed's rows are
      reduced.  An empty column stays empty: it neither moves nor reduces.

    Every column lies in res(L), since L is a K_X-lattice and the seeds do.
    Guards, each raising AssertionError("internal: ..."): the pivot is
    implied, never computed, so the component kernel must give it exactly:
    decompose_component(t^{a_j}, e, u, s - rho) equals the claimed pivot
    u^{-q} * w^q, built once per q as the twist of t^q and not by the
    kernel, for every rho; every reduction quotient is a constant, and a row holding
    zero is not reduced; the pivot exponents sum to sum(a_j), the colength
    of res(L); the result has canonical shape (``Lattice.from_canonical``);
    and every generator t^rho * c_j of a column with entries is a member.  The
    generators then span a sublattice of the result of equal colength, so
    they span the result.  The pivot state (q, s) and the checked component
    depend on (a_j, rho) alone, so the component check makes one kernel
    call per distinct exponent and step, and nothing is cached across
    calls.  It is an equality, and it is the guard of the pivot-only
    columns: any unit multiple of a pivot-only generator is a member, so a
    member test cannot see a component kernel that returns the wrong unit,
    while the equality refuses it whenever the unit differs at some q.
    """
    if e == 1 and u == 1:
        return lattice
    field, n = lattice.field, lattice.n
    entries, diag = [None] * (n * e), [None] * (n * e)
    seeds = []  # per block: (pivot row, pivot exponent, stored entries of the seed)
    gens = []  # the restricted generators of the columns with entries
    checked = set()  # the pivot exponents whose components are checked
    claims = {}  # q -> the claimed pivot u^-q * w^q, built without the kernel
    w_over_u = unit = None  # built when a column with entries first moves
    for j, (ent, a) in enumerate(zip(lattice.entries, lattice.diag)):
        q, s = divmod(a, e)
        power = None if a in checked else LocalElement.t_power(field, a)
        checked.add(a)
        col = {}
        if ent:
            outs = _restrict_columns(lattice.column(j), e, u)
            gens.extend(outs)
            scale = LocalElement.t_power(field, q).twist(u).shift(-q)  # the constant u^q
            col = {k: x * scale for k, x in enumerate(outs[0][:j * e]) if x.coeffs}
        for rho in range(e):
            if rho:
                wraps = s == e - 1
                if stored and unit is None:
                    w_over_u = LocalElement.t_power(field, 1).twist(u, -1)
                    unit = LocalElement.const(field, u)
                col = {}
                for row, x in stored:
                    if row % e == e - 1:
                        col[row + 1 - e] = x.shift(1) if wraps else x * w_over_u
                    else:
                        col[row + 1] = x * unit if wraps else x
                q, s = (q + 1, 0) if wraps else (q, s + 1)
            if power is not None:
                claim = claims.get(q)
                if claim is None:
                    claim = claims[q] = LocalElement.t_power(field, q).twist(u, -1)
                if decompose_component(power, e, u, s - rho) != claim:
                    raise AssertionError("internal: component %d of t^%d is not u^-%d * w^%d"
                                         % (s, a + rho, q, q))
            for i in range(max(col) // e if col else -1, -1, -1):
                prow, qi, seed = seeds[i]
                x = col.get(prow, _Z)
                if x.coeffs and x.ord + len(x.coeffs) > qi:
                    lam = x.high_div(qi)
                    if lam.ord or len(lam.coeffs) != 1:
                        raise AssertionError("internal: reduction quotient %r at row %d "
                                             "is not a constant" % (lam, prow))
                    for k, y in seed + ((prow, LocalElement.t_power(field, qi)),):
                        col[k] = col.get(k, _Z) - lam * y
            stored = tuple(sorted([(k, x) for k, x in col.items() if x.coeffs])) if col else ()
            row = j * e + s
            entries[row] = stored
            diag[row] = q
            if not rho:
                seeds.append((row, q, stored))
    if sum(diag) != sum(lattice.diag):
        raise AssertionError("internal: restricted colength %d, expected %d"
                             % (sum(diag), sum(lattice.diag)))
    out = Lattice.from_canonical(field, tuple(entries), tuple(diag))
    for g in gens:
        if not out.member(g):
            raise AssertionError("internal: restriction misses a generator")
    return out


def twist_restricted(res_lattice, e, u, l):
    """res(t^l * L) from the stored form of res_lattice = res(L), with no
    canonicalization and no member guard.

    Write w for w_y and l = q*e + l0 with 0 <= l0 < e.  In restricted
    coordinates t acts as T: each e-block moves down one row, the entry
    leaving the block wrapping to its first row times t^e = w / u.  So
    T^{l0} moves every entry of an e-block down l0 rows, and the l0 entries
    that leave the block wrap times w / u.  Then t^l * L restricts to
    w^q * T^{l0} * res(L), the remaining (w / u)^q being w^q up to a unit:

    * span: T is K_Y-linear, so T^{l0} applied to a basis of res(L) is a
      basis of T^{l0} * res(L) = res(t^{l0} * L);
    * shape: each column's own block holds only its pivot, a pure power of
      w.  A column whose pivot wraps is rescaled by u, which makes that
      pivot w^{b+1} again; its wrapped entries become x * w (a shift) and
      its other entries x * u.  The entries above the pivots move with the
      rows they sit in, and so do those rows' pivots, gaining one degree
      exactly when they wrap, so every entry stays reduced.  The columns,
      reordered by pivot row, are canonical, and ``Lattice.from_canonical``
      checks that shape.

    The factor w^q is applied in the same pass: every moved entry is
    shifted by q as well, and so is every pivot exponent, which keeps the
    shape (``Lattice.scale``).  Pivots are implied, so a column's pivot
    moves as its ``diag`` entry alone: to the new row, with exponent b + q
    + 1 when it wraps and b + q when it does not.  Only the stored entries
    move one by one, and a pivot-only column, which stores none, moves with
    no arithmetic.  Within a block the wrapped entries land above the kept
    ones, so each column's moved entries are sorted back into row order.
    """
    q, l0 = divmod(l, e)
    if not l0:
        return res_lattice.scale(q)
    field, n = res_lattice.field, res_lattice.n
    wrap_factor = unit_factor = None  # (w / u) * w^q and u * w^q, built when first needed
    cut = e - l0  # rows k >= cut of each block wrap
    entries, diag = [None] * n, [None] * n
    for j, (ent, b) in enumerate(zip(res_lattice.entries, res_lattice.diag)):
        wraps = j % e >= cut
        row = j + l0 - e if wraps else j + l0
        d = q + 1 if wraps else q  # the pivot's gain in degree
        diag[row] = b + d
        if not ent:
            entries[row] = ent
            continue
        if unit_factor is None:
            wrap_factor = LocalElement.t_power(field, 1).twist(u, -1).shift(q)
            unit_factor = LocalElement.const(field, u).shift(q)
        # rows are distinct, so sorting compares no two entries
        entries[row] = tuple(sorted(
            (i + l0 - e, x.shift(d) if wraps else x * wrap_factor) if i % e >= cut
            else (i + l0, x * unit_factor if wraps else x.shift(q)) for i, x in ent))
    return Lattice.from_canonical(field, tuple(entries), tuple(diag))


def restrict_matrix(rows, e, u):
    """Restriction of scalars of a K_X-linear map, as an (n_out*e) x (n_in*e)
    matrix over K_Y with the same coordinate convention: column i*e + sigma
    is the restricted image of t^sigma times basis vector i."""
    return transpose([out for col in transpose(rows) for out in _restrict_columns(col, e, u)])


def substitute_matrix(rows, e, u):
    return [[substitute_element(x, e, u) for x in row] for row in rows]


# -- direct image ----------------------------------------------------------


def _check_branches(profile, branch_objects):
    if len(branch_objects) != len(profile.branches):
        raise ProfileMismatch("expected %d branch objects, got %d"
                              % (len(profile.branches), len(branch_objects)))
    for br, obj in zip(profile.branches, branch_objects):
        if obj.order != br.r:
            raise ProfileMismatch("branch %r: object order %d, profile r=%d"
                                  % (br.label, obj.order, br.r))


def pushforward_parabolic(profile, branches):
    """Parabolic direct image over one target point.

    Each branch chain is refined to denominator s = r*e, member r*l + k
    being t^l * E^k (ParabolicPoint.lattice) for l < e.  Each run of equal
    members of chain[:r] is restricted once (restrict_scalars), and member
    r*l + k is read off res(E^k) by twist_restricted: T^l on restricted
    coordinates spans res(t^l * E^k) because T is K_Y-linear, and keeps the
    canonical shape because the row bounds move with the rows.  A run of
    equal members or of equal direct sums is built once (map_runs).
    """
    _check_branches(profile, branches)
    restricted = []
    for br, pt in zip(profile.branches, branches):
        e, r, u = br.e, br.r, br.unit
        res = map_runs(lambda lat: restrict_scalars(lat, e, u), pt.chain[:r])
        restricted.append(map_runs(lambda p: twist_restricted(p[0], e, u, p[1]),
                                   [(res[k], l) for l in range(e) for k in range(r)]))
    chain = map_runs(direct_sum, list(zip(*restricted)))
    return ParabolicPoint(profile.target_order, chain + [chain[0].scale(1)])


def pushforward_graded(profile, branches):
    """Invariant direct image on the graded side, grade m = r*l + k.

    Each run of equal pieces M_k is restricted once (restrict_scalars), and
    grade m reads t^{-l} * M_k off res(M_k) by
    twist_restricted(res(M_k), e, u, -l): T^{-l} on restricted coordinates
    spans res(t^{-l} * M_k) because T is K_Y-linear, and keeps the
    canonical shape because the row bounds move with the rows.  A run of
    equal twists or of equal direct sums is built once (map_runs).
    The rule is the parabolic route's, but each route restricts only its
    own lattices and neither reads the other's restrictions, so that a
    fault in one, or one that depends on the twist, shows up as a
    disagreement between the routes.
    """
    _check_branches(profile, branches)
    restricted = []
    for br, mod in zip(profile.branches, branches):
        e, r, u = br.e, br.r, br.unit
        res = map_runs(lambda lat: restrict_scalars(lat, e, u), mod.pieces)
        restricted.append(map_runs(lambda p: twist_restricted(p[0], e, u, -p[1]),
                                   [(res[k], l) for l in range(e) for k in range(r)]))
    return GradedModule(profile.target_order, map_runs(direct_sum, list(zip(*restricted))))


def pushforward_matrix(profile, branch_mats):
    """Block direct sum of restricted branch matrices."""
    return block_diag([restrict_matrix(mat, br.e, br.unit)
                       for br, mat in zip(profile.branches, branch_mats)])


# -- pullback --------------------------------------------------------------


def pullback_parabolic_line(alpha, e, r):
    """Line formula: twist floor(alpha*e), new weight frac(alpha*e)."""
    alpha = Fraction(alpha)
    if not 0 <= alpha < 1:
        raise InadmissibleWeight("weight %s outside [0,1)" % alpha)
    if (r * e) % alpha.denominator != 0:
        raise InadmissibleWeight("weight %s has denominator not dividing %d"
                                 % (alpha, r * e))
    scaled = alpha * e
    twist = scaled.numerator // scaled.denominator
    return twist, scaled - twist


def pullback_parabolic(profile, point, label, lines=None):
    """Pullback of an order-s chain to the branch chart, order r = s/e.

    The line formula on the splitting ``lines = (jumps, lifts)`` of the
    point, else on split_into_lines(point), at every e: each lift is
    substituted entry by entry.  Only the identity chart, e = 1 with unit
    1, returns the point itself.
    """
    br = profile.branch(label)
    if point.order != profile.target_order:
        raise ProfileMismatch("point order %d, profile s=%d"
                              % (point.order, profile.target_order))
    e, r = br.e, br.r
    if e == 1 and br.unit == 1:
        return point
    jumps, lifts = lines or split_into_lines(point)
    return ParabolicPoint.from_lines(point.field, r, substitute_matrix(lifts, e, br.unit),
                                     [-(c // r) for c in jumps], [c % r for c in jumps])


def pullback_graded(profile, module, label):
    """Graded-side pullback: base change of the root-stack module.

    On the target chart with root T^s = t_y the module is
    M~ = sum_m T^m M_m, over all m in Z with M_{m+s} = t_y^{-1} M_m.  The
    branch chart has root S^r = t_x, so S^s = t_x^e = t_y / u and T pulls
    back to a constant multiple of S, which changes no lattice.  Base change
    thus turns T^m M_m into S^m bc(M_m), where bc substitutes
    t_y = u * t_x^e in every entry.  Multiplied into grade k (mod r), the
    term first lands there as S^k t_x^q bc(M_m) with q = ceil((m-k)/r), so
    piece k is

        N_k = sum_{0 <= m < s} t_x^{ceil((m-k)/r)} * bc(M_m),

    the grades outside [0, s) repeating these terms.  Within a run of equal
    pieces M_m = M_{m0} the exponent ceil((m-k)/r) does not decrease with m,
    so the run's first grade m0 gives the largest term and alone is kept.
    The exponents of the first grades do not increase with k, so equal keys
    are neighbours and each distinct piece is built once (map_runs).
    For e = 1 (r = s) the exponent is 0 for m <= k and 1 for m > k: the
    first terms sum to bc(M_k) because the chain ascends, and each later
    term t_x * bc(M_m) lies in t_x * bc(t_y^{-1} M_0) = bc(M_0), so
    N_k = bc(M_k).  No line splitting is used, so this route stays
    independent of pullback_parabolic.
    """
    br = profile.branch(label)
    if module.order != profile.target_order:
        raise ProfileMismatch("module order %d, profile s=%d"
                              % (module.order, profile.target_order))
    r, pieces = br.r, module.pieces
    firsts = [m for m in range(module.order) if m == 0 or pieces[m] != pieces[m - 1]]
    bc = {m: substitute_matrix(pieces[m].cols, br.e, br.unit) for m in firsts}

    def piece(key):
        # of the grades sharing an exponent, the largest holds the others
        return Lattice.from_columns(module.field, module.n, [
            [x.shift(d) for x in col] for d, m in dict(zip(key, firsts)).items()
            for col in bc[m]])

    return GradedModule(r, map_runs(piece, [tuple(-((k - m) // r) for m in firsts)
                                            for k in range(r)]))


def pullback_matrix(profile, rows, label):
    br = profile.branch(label)
    return substitute_matrix(rows, br.e, br.unit)
