"""Permutation representations, group-algebra elements, commutants, and the
constructive normalizer pipeline.

Everything here is exact.  The commutant of permutation matrices is spanned
by the indicators of the orbits on matrix cells; its dimension alone is
Burnside's orbital count ``PermGroup.orbital_count``.  The minimum-norm preimage
of a target matrix is Q^+ P^T t over the group's (i, sigma(i)) pair
incidence P, for t the target's cells and Q = P^T P, the convolution by the
fixed-point count chi.  One path serves every group: chi is central, so its
minimal polynomial mu has integer roots and no root has to be found, and
Q^+ is a polynomial in Q read off mu's coefficients (Serre, Linear
Representations of Finite Groups, 2.4 and 6.2).  The unitary produced for a
target permutation is verified algebraically with zero tolerance rather
than assumed.

Group-algebra elements are ``algebra.GroupAlgebraElement``, re-exported
here: integer numerators over one denominator, indexed by position in the
group's elements.  The integrated representation, ``phi`` and each product
by Q are sums over the pair incidence; none of them builds a ``Scalar`` per
group element.

The pipeline reads no Cayley table.  The kernel projection p multiplies
as x - r(Q) x, for r(Q) the projection onto the range of Q read off mu, so
p = p delta_e and p p = p are checked by round trips through the pair
incidence, and centrality is invariance under conjugation by the
generators, a relabelling of positions.  Unitarity is not checked by
products either: pi is injective on (1 - p) C[G], so an element w with
pi(w) unitary and p w = p is unitary.  That decides v in the group
algebra.  The normalizer u = phi(v) is not checked again: phi is a
*-homomorphism, so u is unitary once u is phi(v), which the builder checks
by comparing u's center with v and its strips with tau's pattern.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .algebra import (
    AlgebraElement,
    GroupAlgebraElement,
    _reduced,
    _support_point_map,
    embed_C0,
    is_bisection_support,
)
from .germs import GermGroupoid
from .linalg import Matrix
from .perms import PermGroup, Permutation
from .poly import PiecewisePoly, _scalar
from .sampling import random_ppfun
from .scalars import ONE, ZERO
from .starspace import act


class PreimageObstruction(ValueError):
    """The target operator is not in the image of the integrated representation."""


class InternalCheckError(AssertionError):
    """An exact runtime verification of a constructed object failed."""


def perm_rep(sigma: Permutation) -> Matrix:
    """The 0/1 matrix sending basis vector e_i to e_{sigma(i)}."""
    n = sigma.n
    rows = [[ZERO] * n for _ in range(n)]
    for i in range(1, n + 1):
        rows[sigma(i) - 1][i - 1] = ONE
    return Matrix(rows)


def integrated_rep(a: GroupAlgebraElement) -> Matrix:
    """Extend the permutation representation linearly; entry (j,i) is the sum
    of the coefficients of the elements sending i to j."""
    n, d = a.group.n, a.d
    rows = [[ZERO] * n for _ in range(n)]
    for (i, j), (re, im) in a.pair_sums().items():
        rows[j - 1][i - 1] = _scalar(re, im, d)
    return Matrix(rows)


# ---------------------------------------------------------------------------
# commutants; their dimension, and so bi-transitivity, is the closed form
# PermGroup.orbital_count, which the tests check against this walk


def commutant_basis(mats):
    """Exact basis of {X : XM = MX for all M}, for permutation matrices M,
    in reduced row echelon form (row-major vectorization), plus its dimension.

    X commutes with the matrix of sigma iff X[sigma(r), sigma(c)] = X[r, c],
    so the basis is the indicators of the orbits on cells (r, c), walked
    from the given matrices and sorted by first cell: disjoint 0/1 vectors
    in that order are already in reduced row echelon form."""
    if not mats:
        raise ValueError("need at least one matrix")
    n = mats[0].nrows
    for m in mats:
        if m.nrows != n or m.ncols != n:
            raise ValueError("matrices must be square and of equal size")
    perms = [_permutation_of(m) for m in mats]
    orbit_of = [None] * (n * n)
    basis = []
    for first in range(n * n):
        if orbit_of[first] is None:
            orbit_of[first] = len(basis)
            cells = [first]
            for cell in cells:  # the list grows while it is walked
                r, c = divmod(cell, n)
                for p in perms:
                    image = p[r] * n + p[c]
                    if orbit_of[image] is None:
                        orbit_of[image] = len(basis)
                        cells.append(image)
            rows = [[ZERO] * n for _ in range(n)]
            for cell in cells:
                rows[cell // n][cell % n] = ONE
            basis.append(Matrix(rows))
    return basis, len(basis)


def _permutation_of(m: Matrix):
    """The 0-based images of a permutation matrix: column c holds its one 1
    in row sigma(c)."""
    images = []
    for col in zip(*m.rows):
        hits = [r for r, x in enumerate(col) if not x.is_zero()]
        if len(hits) != 1 or col[hits[0]] != ONE:
            raise ValueError("commutant_basis takes permutation matrices")
        images.append(hits[0])
    if len(set(images)) != len(images):
        raise ValueError("commutant_basis takes permutation matrices")
    return images


# ---------------------------------------------------------------------------
# minimum-norm preimages and the constructive unitary


_OUTSIDE_THE_IMAGE = "target is not in the span of the group's permutation matrices"


def min_norm_preimage(target: Matrix, group: PermGroup) -> GroupAlgebraElement:
    """The unique preimage of target under the integrated representation that
    is orthogonal to its kernel in the coefficient inner product.

    With P the pair incidence (``group.pair_incidence``, n^2 x |G|) and t the
    target's entries (j, i) in P's row order, the preimage is Q^+ b for
    b = P^T t and Q = P^T P, the convolution by chi (``group.chi_times``).
    Write chi's minimal polynomial (``group.chi_minimal_polynomial``) as
    mu = x h when 0 is a root, that is when the representation has a
    kernel, and as mu = h otherwise, with h = h_0 + x g.  Then h(Q) vanishes
    on the range of Q, so -g(Q) / h_0 inverts Q there.  b lies in
    range(P^T) = range(Q), the orthogonal complement of ker Q = ker P, so
    the preimage is -g(Q) b / h_0 with no projection.  Raises
    PreimageObstruction when the target is outside the image, which is how
    the small-n obstruction shows up.
    """
    n = group.n
    if target.nrows != n or target.ncols != n:
        raise ValueError("target has the wrong shape")
    cells = [row[i] for i in range(n) for row in target.rows]
    b = GroupAlgebraElement.from_pair_values(group, cells)
    mu = group.chi_minimal_polynomial
    h = mu[1:] if mu[0] == 0 else mu
    result = _chi_polynomial(b, h[1:], -h[0])
    # P Q^+ P^T is the projection onto the image of P, so landing elsewhere
    # than the target means the target was never in it
    if integrated_rep(result) != target:
        raise PreimageObstruction(_OUTSIDE_THE_IMAGE)
    return result


def _chi_polynomial(x: GroupAlgebraElement, coeffs, den: int) -> GroupAlgebraElement:
    """g(Q) x / den for a monic g with integer coefficients, lowest first,
    by Horner's rule on x's integer numerators."""
    group = x.group
    m = len(group)
    parts = []
    for values in (x.re, x.im):
        v = [0] * m
        for k, a in zip(x.positions, values):
            v[k] = a
        acc = v
        if any(v):
            for c in reversed(coeffs[:-1]):
                acc = [y + c * a for y, a in zip(group.chi_times(acc), v)]
        parts.append(acc)
    if den < 0:
        parts = [[-a for a in part] for part in parts]
    return _reduced(group, range(m), *parts, x.d * abs(den))


def _kernel_part(x: GroupAlgebraElement) -> GroupAlgebraElement:
    """p x, for p the kernel projection of x's group, by round trips through
    the pair incidence rather than a product with p.

    Write mu = x (h_0 + x g) when 0 is a root of mu.  Then r(Q) =
    -Q g(Q) / h_0 is the orthogonal projection onto range(Q), as in
    ``min_norm_preimage``, and E = 1 - r(Q) is the orthogonal projection
    onto ker Q = ker P, the kernel of the integrated representation; E x
    takes deg mu - 1 products by Q.  E is a polynomial in Q, the left
    multiplication by chi, so it is the left multiplication by E delta_e,
    and that is p (``kernel_projection`` checks it).  When 0 is not a root
    the representation is injective and p = 0.
    """
    mu = x.group.chi_minimal_polynomial
    if mu[0]:
        return GroupAlgebraElement.zero(x.group)
    return x - _chi_polynomial(x, (0, *mu[2:]), -mu[1])


def kernel_projection(group: PermGroup) -> GroupAlgebraElement:
    """The central projection p with: ker of the integrated representation
    equal to p times the group algebra.  Built as delta_id minus the
    minimum-norm preimage of the identity matrix, then verified exactly by
    ``_is_kernel_projection``."""
    q = min_norm_preimage(Matrix.identity(group.n), group)
    p = GroupAlgebraElement.unit(group) - q
    if not _is_kernel_projection(p):
        raise InternalCheckError("kernel projection fails its exact checks")
    return p


def _is_kernel_projection(p: GroupAlgebraElement) -> bool:
    """Whether p is the central projection onto the kernel of the integrated
    representation, with no product in the group algebra.

    p = p delta_e by ``_kernel_part`` makes multiplying by p the round trips
    of ``_kernel_part``, so p p = p is one more round trip.  Then p* = p,
    centrality (``_is_central``) and pi(p) = 0 are checked as they are.
    """
    unit = GroupAlgebraElement.unit(p.group)
    return (
        _kernel_part(unit) == p
        and _kernel_part(p) == p
        and p.adjoint() == p
        and _is_central(p)
        and integrated_rep(p).is_zero()
    )


def _is_central(x: GroupAlgebraElement) -> bool:
    """Whether x commutes with every delta_s, that is whether x is invariant
    under conjugation: x(s t s^-1) = x(t).  The deltas of a generating set
    generate the group algebra, so those of the generators decide it; a
    group built without recorded generators is checked on all its elements.
    Conjugation by s relabels the positions of x's support, read from the
    image arrays."""
    group = x.group
    support = group._images[list(x.positions)]
    values = list(zip(x.positions, x.re, x.im))
    for s in group.generators or group.elements:
        images = np.array(s.images) - 1
        inverse = np.argsort(images)
        # (s t s^-1)(i) = s(t(s^-1(i))), on 0-based image rows
        moved = group._positions(images[support[:, inverse]]).tolist()
        if sorted(zip(moved, x.re, x.im)) != values:
            return False
    return True


def _is_unitary_lift(w: GroupAlgebraElement) -> bool:
    """Whether p w = p, for p the kernel projection of w's group, which
    makes w unitary once pi(w) is unitary.  Both sides are round trips
    (``_kernel_part``): p is p delta_e, as ``kernel_projection`` verifies.

    p is central, so w = p + (1 - p) w and w* w = p + (1 - p) w* w.  The
    second term lies in (1 - p) C[G], where pi is injective since p C[G] is
    its kernel, and maps to pi(w)* pi(w) = I = pi(1 - p).  So it is 1 - p,
    and w* w = 1; likewise w w* = 1.
    """
    return _kernel_part(w) == _kernel_part(GroupAlgebraElement.unit(w.group))


def build_unitary_v(group: PermGroup, tau: Permutation) -> GroupAlgebraElement:
    """A unitary group-algebra element mapping to the permutation matrix of tau.

    The minimum-norm preimage v_0 of pi(tau) lies in the corner
    complementary to the kernel, where the representation is injective;
    adding the kernel projection p makes v = v_0 + p unitary.  Both facts
    it rests on are verified exactly, pi(v) = pi(tau) and p v_0 = 0 (as
    p v = p), and unitarity follows by ``_is_unitary_lift``, with no
    product in the group algebra; failures are hard errors.
    """
    if tau.n != group.n:
        raise ValueError("tau acts on the wrong number of points")
    p = kernel_projection(group)
    target = perm_rep(tau)
    v = min_norm_preimage(target, group) + p
    if integrated_rep(v) != target:
        raise InternalCheckError("constructed element misses the target")
    if not _is_unitary_lift(v):
        raise InternalCheckError("constructed element is not unitary")
    return v


# ---------------------------------------------------------------------------
# integration into the convolution algebra


def phi(a: GroupAlgebraElement, groupoid: GermGroupoid) -> AlgebraElement:
    """Send sum a_s delta_s to sum a_s (indicator of s's sheet).

    The strip over (i,j) is the constant sum of a_s over s(i)=j, which is
    exactly the (j,i) entry of the integrated representation.  Each strip's
    limit at 0 is then its pair sum of a, so the gluing law holds by
    construction and the element takes the trusted path.
    """
    if groupoid.group != a.group:
        raise ValueError("group algebra and groupoid do not match")
    strips = {
        pair: PiecewisePoly.const(_scalar(re, im, a.d))
        for pair, (re, im) in a.pair_sums().items()
    }
    return AlgebraElement(groupoid, strips, a, _checked=True)


@dataclass
class NormalizerReport:
    """What the constructive normalizer pipeline verified about u, exactly.
    u is unitary whenever a report exists: the builder raises otherwise."""

    tau_in_group: bool
    center_support: list          # (Permutation, Scalar) pairs
    strips_match_tau: bool
    conjugation_ok: bool
    bisection_flag: bool
    bisection_witness: object
    point_map: object
    point_map_is_tau: bool

    @property
    def ok(self) -> bool:
        # a tau outside the group lifts to no single delta, so at least two
        # center coefficients are nonzero and the open support must fail the
        # bisection test; a tau in the group may lift either way
        return (
            self.strips_match_tau
            and self.conjugation_ok
            and self.point_map_is_tau
            and (self.tau_in_group or not self.bisection_flag)
        )


def build_strange_normalizer(
    groupoid: GermGroupoid, tau: Permutation, trials: int = 8, seed: int = 0
):
    """Unitary u in the algebra of a star groupoid whose strips are the 0/1
    pattern of tau, conjugating diagonal elements to their tau-translates.

    Needs pi(tau) in the image of the integrated representation and raises
    PreimageObstruction otherwise.  For tau outside the acting group the open
    support of u is not a bisection, though on the alternating star the
    groupoid is essentially principal.  Returns (u, report).
    """
    G = groupoid
    n = G.n
    if tau.n != n:
        raise ValueError("tau acts on the wrong number of edges")
    v = build_unitary_v(G.group, tau)
    u = phi(v, G)
    expected_strips = {
        (i, tau(i)): PiecewisePoly.const(1) for i in range(1, n + 1)
    }
    # v is verified unitary with pi(v) = pi(tau), and phi is a
    # *-homomorphism, so u is unitary once it is phi(v): its center is v and
    # its strips are tau's pattern.  A failure is an internal error, caught
    # before any trial runs
    strips_match_tau = u.strips == expected_strips
    if u.center != v or not strips_match_tau:
        raise InternalCheckError("constructed normalizer is not phi(v)")

    # each trial checks u* h u = h o tau in the form h u = u (h o tau): with
    # u* u = u u* = 1, multiplying on the left by u (or by u*) turns each
    # identity into the other.  Both center products then have the operand
    # h(0) delta_e, so each is a scaling that reads no table, and every
    # strip product has u's constant-1 strip as a factor.
    rng = random.Random(seed)
    tau_inv = tau.inverse()
    conj_ok = True
    for _ in range(trials):
        h = random_ppfun(n, rng)
        # act(tau^-1, h) is h composed with the tau action
        if embed_C0(G, h) * u != u * embed_C0(G, act(tau_inv, h)):
            conj_ok = False
            break

    bis_flag, bis_witness = is_bisection_support(u)
    pm = _support_point_map(u)
    report = NormalizerReport(
        tau_in_group=tau in G.group,
        center_support=u.center.items(),
        strips_match_tau=strips_match_tau,
        conjugation_ok=conj_ok,
        bisection_flag=bis_flag,
        bisection_witness=bis_witness,
        point_map=pm,
        point_map_is_tau=pm.as_permutation() == tau and pm.center_fixed,
    )
    return u, report
