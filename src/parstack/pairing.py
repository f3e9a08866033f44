"""Parabolic symplectic and orthogonal structures and their transport.

A pairing on E valued in a parabolic line L is an (anti)symmetric matrix
F over K.  Perfection is a finite list of lattice equalities: at each
point, with L's local data (lattice exponent g, jump c) and the chain
extended by E^{m} = t * E^{m-r} for m > r (ParabolicPoint.lattice), the
induced map must satisfy

    F^T * E^a  =  t^{1+g} * (E^{r+c-a})^*        for all levels a.

For the trivial value line this couples the level-a subspace perfectly
against level r-a, which is exactly what the residue functional
(coefficient of t^{e-1}, scaled by 1/u) produces under direct image.

`check_pairing` tests each equality in the line coordinates of
``split_into_lines``, without building either side.  Write v = 1+g,
b = r+c-a, V for the lifts v_i and j_i for the jumps.  E^m has the basis
V * D_m, D_m = diag(t^{nu(m)}) with nu_i(q*r + k) = q + [k > j_i] for
0 <= k < r.  With H = V^T * F * V, once per point, the Gram matrix of
level a is G_a = D_a * H * D_b, and

    F^T * V * D_a  =  t^v * (V * D_b)^{-T} * (t^{-v} * G_a^T)

relates bases of the two sides, so level a holds iff t^{-v} * G_a lies
in GL_n(R): val(H_ik) + nu_i(a) + nu_k(b) >= v for every nonzero H_ik,
and val det G_a = n*v.  Over all a < r both are closed-form integer
facts; no level is visited.  With x = a + r - 1 - j_i and
d = 3r + c - 2 - j_i - j_k, nu_i(a) + nu_k(b) = floor(x/r) +
floor((d-x)/r) = floor(d/r) - [x mod r > d mod r], and x meets every
residue mod r, so entry (i, k) holds at every level iff
val(H_ik) + floor(d/r) - [d mod r < r-1] >= v.  As F^T = +-F, H^T = +-H:
H is summed on the triangle i <= k and mirrored (``_gram``), and since d
is symmetric in i and k, the bound is tested once per unordered pair.
Given the entries, level 0's determinant is a rank test: the constant
matrix of t^v-coefficients of H * D_{r+c}, nu_k(r+c) = 1 + [c > j_k],
has full rank over k, its rank over K (``lattice.triangularize`` raises
no SingularBasis; no canonical form is built, and a singular F fails).
That fixes val det H, so level a >= 1 holds iff f(a) = sum(nu(a)) +
sum(nu(b)) equals f(0).  As f(a+1) - f(a) = cnt(a) - cnt((c-1-a) mod r), cnt counting the jumps,
and the involution j -> (c-1-j) mod r maps r-1 to c (fixed or tested),
that is: the jump multiset is invariant under the involution.
`hom_chain` builds the right-hand side explicitly; it remains the
definition and the reference the check is tested against.

Transport reads the functors.  `pullback_bundle` pulls back every
bundle, the pairing's own and its value line, along the whole cover: the
target point through pullback_parabolic on each branch, so the parabolic
degree is multiplied by deg f.  `pullback_pairing` takes single-branch
profiles; the pulled form is pullback_matrix of F twisted by
u * t^{e-1}.  The pushed form is restrict_matrix of F/u with the rows of
each e-block reversed (``residue_push_form``), so the direct image of a
pairing shares its component kernel with the direct image of a map.

In characteristic 2 a symplectic form must be alternating (zero diagonal),
so the ANTISYMMETRIC kind requires a zero diagonal; elsewhere F^T = -F
implies it.
The residue push of an alternating form is alternating: its diagonal
entries are components of t^{2 rho} * F_ii (``residue_push_form``), so
`pushforward_pairing` labels the pushed pairing with the strongest kind
that every branch form has, antisymmetric first.
Orthogonal structures in characteristic 2 need quadratic forms; they are
out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (NotAPairing, ProfileMismatch, ShapeMismatch, SingularBasis,
                     ValueLineMismatch)
from .functors import (pullback_matrix, pullback_parabolic, pushforward_parabolic,
                       restrict_matrix)
from .lattice import triangularize
from .linalg import block_diag, mat_vec
from .localring import LocalElement
from .parabolic import ParabolicBundle, ParabolicPoint, parabolic_degree, split_into_lines

SYMMETRIC = "symmetric"
ANTISYMMETRIC = "antisymmetric"

_Z = LocalElement.zero()


def line_local_data(line_bundle, label, order):
    """(lattice exponent g, jump c) of a rank-1 bundle at a point.

    Unmarked points carry the trivial datum (0, 0); a marked point must
    have the stated order.
    """
    pt = line_bundle.points.get(label)
    if pt is None:
        return 0, 0
    if pt.order != order:
        raise ShapeMismatch("value line has order %d at %r, expected %d"
                            % (pt.order, label, order))
    # a rank-1 chain is E^0 up to its jump and t * E^0 after it
    return pt.chain[0].diag[0], pt.chain.index(pt.chain[pt.order]) - 1


def hom_chain(point, g, c):
    """The target chain T^a = t^{1+g} * (E^{r+c-a})^* of the induced map."""
    r = point.order
    chain = [point.lattice(r + c - a).dual().scale(1 + g) for a in range(r + 1)]
    return ParabolicPoint(r, chain)


@dataclass
class ParabolicPairing:
    kind: str
    form: list              # n x n rows over K
    value_line: ParabolicBundle

    def __post_init__(self):
        if self.kind not in (SYMMETRIC, ANTISYMMETRIC):
            raise NotAPairing("unknown kind %r" % self.kind)
        if self.value_line.rank != 1:
            raise NotAPairing("value line must have rank 1")
        if parabolic_degree(self.value_line) != 0:
            raise NotAPairing("value line must have parabolic degree 0")


def _symmetry_holds(kind, form):
    """F^T = +-F entry by entry; a form that is not square holds neither."""
    n = len(form)
    if any(len(row) != n for row in form):
        return False
    if kind == SYMMETRIC:
        return all(form[j][i] == form[i][j] for i in range(n) for j in range(i + 1, n))
    return all(form[i][i].is_zero() for i in range(n)) and \
        all(form[j][i] == -form[i][j] for i in range(n) for j in range(i + 1, n))


def _gram(form, lifts, kind):
    """H = V^T * F * V for a form F of the given kind, with V the matrix
    whose columns are ``lifts``.  As F^T = -F or F, H^T = -H or H, so row i
    of H is summed for k >= i only, from lift v_i against the columns
    F * v_k (``mat_vec``), and H_ki is its mirror, -H_ik for the
    antisymmetric kind (over GF(2), -x = x)."""
    neg = kind == ANTISYMMETRIC
    fv = [mat_vec(form, v) for v in lifts]
    n = len(lifts)
    gram = [[_Z] * n for _ in range(n)]
    for i, v in enumerate(lifts):
        for k, x in enumerate(mat_vec(fv[i:], v), i):
            gram[i][k] = x
            if k > i:
                gram[k][i] = -x if neg else x
    return gram


def check_pairing(pairing, bundle):
    """Kind, K-nondegeneracy and levelwise perfection at every point, all
    levels at once from the one Gram matrix H = V^T * F * V of the point in
    line coordinates (module docstring), computed on one triangle: the jump
    symmetry, one closed-form bound per unordered pair of lines with a
    nonzero entry, and level 0's constant matrix through ``triangularize``
    only, as a rank test: no lattice is built."""
    n = bundle.rank
    form = pairing.form
    if len(form) != n or (form and len(form[0]) != n):
        raise ShapeMismatch("form is %dx%d for a rank-%d bundle"
                            % (len(form), len(form[0]) if form else 0, n))
    if not _symmetry_holds(pairing.kind, form):
        return False
    for label in bundle.labels():
        pt = bundle.points[label]
        r = pt.order
        g, c = line_local_data(pairing.value_line, label, r)
        v = 1 + g
        jumps, lifts = split_into_lines(pt)
        if sorted(jumps) != sorted((c - 1 - j) % r for j in jumps):
            return False
        gram = _gram(form, lifts, pairing.kind)
        for i, row in enumerate(gram):
            for k in range(i, n):
                x = row[k]
                if x.coeffs:
                    q, m = divmod(3 * r + c - 2 - jumps[i] - jumps[k], r)
                    if x.ord + q - (m < r - 1) < v:
                        return False
        try:
            triangularize(n, [[row[k].shift(1 + (c > jumps[k]) - v).truncate(1)
                               for row in gram] for k in range(n)])
        except SingularBasis:
            return False
    return True


# -- transport -------------------------------------------------------------


def pullback_bundle(profile, bundle, target_label):
    """Pullback of a bundle of any rank along the whole cover.  The point at
    target_label goes through pullback_parabolic on every branch, labelled
    by the branch; every other point passes through once per sheet, as
    label@i for i < deg f.  With delta the determinant valuation, the degree
    is deg f * deg(E) + sum_b (e_b * delta(E^0) - delta(f_b^* E^0)); by the
    twist law each term is sum floor(e_b * alpha) * m over the target
    weights, so the parabolic degree is deg f times the input's."""
    deg_f = sum(br.e for br in profile.branches)
    degree = deg_f * bundle.underlying_degree
    pts = {}
    for label, pt in bundle.points.items():
        if label == target_label:
            for br in profile.branches:
                pulled = pts[br.label] = pullback_parabolic(profile, pt, br.label)
                degree += br.e * pt.chain[0].det_valuation() - pulled.chain[0].det_valuation()
        else:
            for i in range(deg_f):
                pts["%s@%d" % (label, i)] = pt
    return ParabolicBundle(bundle.rank, degree, pts)


def pullback_pairing(profile, pairing, bundle, target_label):
    """Pullback of a pairing: single-branch profile, substituted form.  The
    bundle must be marked at the target only, because the one form cannot
    serve the copies label@i that pullback_bundle makes of other points."""
    if list(bundle.points) != [target_label]:
        raise ProfileMismatch("bundle must be marked at %r only" % target_label)
    if len(profile.branches) != 1:
        raise ProfileMismatch("pairing pullback works on a single-branch chart")
    br = profile.branches[0]
    if not check_pairing(pairing, bundle):
        raise NotAPairing("input fails check_pairing")
    # Twist by w_y / t_x = u * t^{e-1}, dual to the residue's 1/u.  A tower
    # z -> x -> y (w_y = u1*t_x^{e1}, t_x = u2*t_z^{e2}) with constants c_1, c_2
    # and the composite's C composes iff c_1 * c_2 * u2^{e1-1} = C; for
    # c = u^k that reads u2^{k+e1-1} = u2^{k*e1}, so only k = 1 composes.
    twist = LocalElement.make(bundle.points[target_label].field, br.e - 1, [br.unit])
    pulled_form = [[x * twist for x in row]
                   for row in pullback_matrix(profile, pairing.form, br.label)]
    pulled_line = pullback_bundle(profile, pairing.value_line, target_label)
    return (ParabolicPairing(pairing.kind, pulled_form, pulled_line),
            pullback_bundle(profile, bundle, target_label))


def expected_branch_value_data(profile, branch, value_line, target_label):
    """Local (g, c) the branch pairing must be valued in: the pullback of
    the target value line along this branch."""
    g, c = line_local_data(value_line, target_label, profile.target_order)
    return branch.e * g - c // branch.r, c % branch.r


def residue_push_form(form, e, u, field):
    """Projection-formula pairing on restricted scalars: entry
    (i*e + rho, i2*e + sigma) is the component of t^{rho+sigma} * form[i][i2]
    along t^{e-1}, scaled by 1/u.  By the offset rule of
    decompose_component that is component e-1-rho of t^sigma * form[i][i2]/u,
    which is row i*e + e-1-rho of restrict_matrix(form/u): the restriction
    with the rows of each e-block reversed."""
    uinv = LocalElement.t_power(field, 1).twist(u, -1).shift(-1)
    rows = restrict_matrix([[x * uinv if x.coeffs else x for x in row] for row in form], e, u)
    return [rows[k + e - 1 - 2 * (k % e)] for k in range(len(rows))]


def pushforward_pairing(profile, value_line, target_label, branch_pairs):
    """Direct image of branch pairings valued in f^* value_line.

    branch_pairs: list of (ParabolicPoint, form rows, declared (g, c))
    aligned with profile.branches.  Returns (pairing, bundle) on the
    target chart.
    """
    if len(branch_pairs) != len(profile.branches):
        raise ProfileMismatch("need one branch pairing per branch")
    for br, (_, _, declared) in zip(profile.branches, branch_pairs):
        expected = expected_branch_value_data(profile, br, value_line, target_label)
        if declared != expected:
            raise ValueLineMismatch("branch %r pairing valued in %r, expected the "
                                    "pullback datum %r" % (br.label, declared, expected))
    kind = next((k for k in (ANTISYMMETRIC, SYMMETRIC)
                 if all(_symmetry_holds(k, form) for _, form, _ in branch_pairs)), None)
    if kind is None:
        raise NotAPairing("branch forms are neither all symmetric nor all antisymmetric")
    points = [pt for pt, _, _ in branch_pairs]
    blocks = [residue_push_form(form, br.e, br.unit, pt.field)
              for br, (pt, form, _) in zip(profile.branches, branch_pairs)]
    pushed_pt = pushforward_parabolic(profile, points)
    bundle = ParabolicBundle(pushed_pt.n, 0, {target_label: pushed_pt})
    return ParabolicPairing(kind, block_diag(blocks), value_line), bundle
