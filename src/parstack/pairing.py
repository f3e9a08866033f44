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

`check_pairing` tests each equality without building either side.  Write
v = 1+g, b = r+c-a, B_a and B_b for the canonical bases of E^a and E^b,
G_a = B_a^T * F * B_b for the Gram matrix, and delta for the determinant
valuation.  The columns of F^T * B_a span the left side, and those of
t^v * B_b^{-T} span the right side; they are related by

    F^T * B_a  =  t^v * B_b^{-T} * (t^{-v} * G_a^T),

so level a holds iff t^{-v} * G_a lies in GL_n(R): every entry of G_a
has valuation >= v and the t^v-coefficients of G_a form an invertible
matrix over k.  That matrix has constant entries, so its rank over k is
its rank over K: it is invertible iff its columns canonicalize to a
lattice, and a rank deficiency raises SingularBasis.  A singular F fails
this test.  The full test runs at level 0 only; it fixes
delta(F) = n*v - delta(E^0) - delta(E^{r+c}).
For a >= 1 the Gram valuations still give the containment
F^T * E^a <= t^v * (E^b)^*, and both sides have equal delta iff

    delta(E^a) + delta(E^b)  =  delta(E^0) + delta(E^{r+c}),

which is an integer comparison; a full-rank lattice inside another of
the same delta equals it.  `hom_chain` builds the right-hand side
explicitly; it remains the definition and the reference the check is
tested against.

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
entries are components of t^{2 rho} * F_ii (``residue_push_form``).
Orthogonal structures in characteristic 2 need quadratic forms; they are
out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (NotAPairing, ProfileMismatch, ShapeMismatch, SingularBasis,
                     ValueLineMismatch)
from .functors import (pullback_matrix, pullback_parabolic, pushforward_parabolic,
                       restrict_matrix)
from .lattice import Lattice, image_columns
from .linalg import block_diag, mat_vec, transpose
from .localring import LocalElement
from .parabolic import ParabolicBundle, ParabolicPoint, parabolic_degree

SYMMETRIC = "symmetric"
ANTISYMMETRIC = "antisymmetric"


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
    ft = transpose(form)
    if kind == SYMMETRIC:
        return ft == form
    return ft == [[-e for e in row] for row in form] and \
        all(row[i].is_zero() for i, row in enumerate(form))


def check_pairing(pairing, bundle):
    """Kind, K-nondegeneracy and levelwise perfection at every point.

    With v = 1+g and b = r+c-a, level a holds iff t^{-v} times the Gram
    matrix B_a^T * F * B_b is invertible over R (module docstring).  Level
    0 is tested that way: all entries of valuation >= v, and the constant
    matrix of their t^v-coefficients canonicalizes without SingularBasis.
    That pins delta(F), so each level a >= 1 only needs the index equality
    delta(E^a) + delta(E^b) = delta(E^0) + delta(E^{r+c}) and the entry
    valuations >= v.  A level
    whose pair (E^a, E^b) repeats the previous level's pair is skipped.

    Levels mirror each other: level b = r+c-a tests the pair (E^b, E^a),
    and G_b = B_b^T * F * B_a = (B_a^T * F^T * B_b)^T = +-G_a^T, because
    F^T = +-F once the kind test has passed.  Transposing and negating
    keep the valuations, and the index sum is symmetric in a and b, so the
    two levels run the same test.  For a > c the mirror b = r+c-a lies in
    [1, r), so the loop stops at the first a with a > c and 2a > r+c: each
    later level mirrors one below it, which was already tested.
    """
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
        top = pt.lattice(r + c)
        gram = _gram(pt.chain[0], form, top)
        if not _valuations_at_least(gram, v):
            return False
        try:
            Lattice.from_columns(pt.field, n, [[x.shift(-v).truncate(1) for x in col]
                                               for col in gram])
        except SingularBasis:
            return False
        index = pt.chain[0].det_valuation() + top.det_valuation()
        prev = (pt.chain[0], top)
        for a in range(1, r):
            if a > c and 2 * a > r + c:
                break  # from here on, level r+c-a < a mirrors level a
            pair = (pt.chain[a], pt.lattice(r + c - a))
            if pair == prev:
                continue  # the same test as the previous level
            prev = src, tgt = pair
            if src.det_valuation() + tgt.det_valuation() != index:
                return False
            if not _valuations_at_least(_gram(src, form, tgt), v):
                return False
    return True


def _gram(src, form, tgt):
    """Columns of the Gram matrix B_src^T * form * B_tgt."""
    return [mat_vec(src.cols, w) for w in image_columns(form, tgt)]


def _valuations_at_least(gram, v):
    return all(x.is_zero() or x.ord >= v for col in gram for x in col)


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
    kinds = set()
    blocks = []
    points = []
    for br, (pt, form, declared) in zip(profile.branches, branch_pairs):
        expected = expected_branch_value_data(profile, br, value_line, target_label)
        if declared != expected:
            raise ValueLineMismatch("branch %r pairing valued in %r, expected the "
                                    "pullback datum %r" % (br.label, declared, expected))
        kind = next((k for k in (SYMMETRIC, ANTISYMMETRIC) if _symmetry_holds(k, form)), None)
        if kind is None:
            raise NotAPairing("branch form is neither symmetric nor antisymmetric")
        kinds.add(kind)
        points.append(pt)
        blocks.append(residue_push_form(form, br.e, br.unit, pt.field))
    if len(kinds) != 1:
        raise NotAPairing("branch forms disagree in kind")
    kind = kinds.pop()
    pushed_pt = pushforward_parabolic(profile, points)
    bundle = ParabolicBundle(pushed_pt.n, 0, {target_label: pushed_pt})
    return ParabolicPairing(kind, block_diag(blocks), value_line), bundle
