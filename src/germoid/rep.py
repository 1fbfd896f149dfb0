"""Permutation representations, group-algebra elements, commutants, and the
constructive normalizer pipeline.

Everything here is exact.  The commutant of permutation matrices is spanned
by the indicators of the orbits on matrix cells.  The minimum-norm preimage
of a target matrix is a = P^T y over the group's (i, sigma(i)) pair
incidence P, where (P P^T) y is the target's cells: y comes in closed form
(Fourier inversion) when the group acts 2-transitively, and from one exact
n^2 x n^2 solve otherwise.  The unitary produced for a target permutation is
verified algebraically with zero tolerance rather than assumed.

Group-algebra elements are ``algebra.GroupAlgebraElement``, re-exported
here: integer numerators over one denominator, indexed by position in the
group's elements, with the product ``algebra.group_convolve`` over the
Cayley table.  The integrated representation, ``phi`` and the step
a = P^T y are sums over the pair incidence, and the centrality check
multiplies by the generators' deltas, one table gather per product; none of
them builds a ``Scalar`` per group element.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .algebra import (
    AlgebraElement,
    GroupAlgebraElement,
    _support_point_map,
    embed_C0,
    is_bisection_support,
)
from .germs import GermGroupoid
from .linalg import Matrix, solve
from .perms import PermGroup, Permutation
from .poly import PiecewisePoly, _scalar
from .sampling import random_ppfun
from .scalars import ONE, ZERO, Scalar
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
# commutants and bi-transitivity


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
    target's entries (j, i) in P's row order, the preimage is a = P^T y for
    any y with (P P^T) y = t: then P a = t, and a lies in the range of P^T,
    which is the orthogonal complement of ker P.  A 2-transitive group gets y
    in closed form from _fourier_preimage, any other group from one exact
    solve of the n^2 x n^2 Gram system in _gram_preimage.  Raises
    PreimageObstruction when the target is outside the image, which is how
    the small-n obstruction shows up.
    """
    n = group.n
    if target.nrows != n or target.ncols != n:
        raise ValueError("target has the wrong shape")
    cells = [row[i] for i in range(n) for row in target.rows]
    pair_values = _fourier_preimage if group.is_two_transitive else _gram_preimage
    result = GroupAlgebraElement.from_pair_values(group, pair_values(cells, group))
    # P P^T y = t makes P a = t; the closed form maps onto the image, so
    # landing elsewhere than the target means the target was never in it
    if integrated_rep(result) != target:
        raise PreimageObstruction(_OUTSIDE_THE_IMAGE)
    return result


def _fourier_preimage(cells, group: PermGroup) -> list:
    """y for a 2-transitive group, in closed form.  2-transitivity makes
    P P^T equal to |G|/n on the diagonal, |G|/(n(n-1)) between pairs
    (i, j), (k, l) with i != k and j != l, and 0 elsewhere.  On the image of
    P (the trivial representation plus one irreducible of degree n-1; Serre,
    Linear Representations of Finite Groups, 6.2) it is inverted by

        y_(i,j) = (n^2 (n-1) T[j, i] - (n-2) sum(T)) / (n^2 |G|),

    and P^T y is the Fourier inversion
    a_s = ((n-1) tr(pi(s)^T T) - (n-2) c) / |G| with c = sum(T) / n.
    """
    n = group.n
    shift = (n - 2) * sum(cells, ZERO)
    scale, den = n * n * (n - 1), n * n * len(group)
    return [(scale * t - shift) / den for t in cells]


def _gram_preimage(cells, group: PermGroup) -> list:
    """y for any group: one exact solve of (P P^T) y = t.  The Gram entry at
    pairs (i, j), (k, l) counts the elements sending i to j and k to l, which
    is |G| over the orbit size of (i, k), or 0."""
    inc = group.pair_incidence
    gram = [[Scalar(x) if x else ZERO for x in row] for row in (inc @ inc.T).tolist()]
    y = solve(gram, cells)
    if y is None:
        raise PreimageObstruction(_OUTSIDE_THE_IMAGE)
    return y


def kernel_projection(group: PermGroup) -> GroupAlgebraElement:
    """The central projection p with: ker of the integrated representation
    equal to p times the group algebra.  Built as delta_id minus the
    minimum-norm preimage of the identity matrix, then verified exactly."""
    q = min_norm_preimage(Matrix.identity(group.n), group)
    p = GroupAlgebraElement.unit(group) - q
    if p * p != p or p.adjoint() != p:
        raise InternalCheckError("kernel projection is not a self-adjoint idempotent")
    if not _is_central(p):
        raise InternalCheckError("kernel projection is not central")
    if not integrated_rep(p).is_zero():
        raise InternalCheckError("kernel projection is not killed by the representation")
    return p


def _is_central(x: GroupAlgebraElement) -> bool:
    """Whether x commutes with every delta_s.  The deltas of a generating set
    generate the group algebra, so those of the generators decide it; a group
    built without recorded generators is checked on all its elements.  Each
    product with a delta is one gather through a row or column of the
    Cayley table."""
    group = x.group
    for s in group.generators or group.elements:
        d = GroupAlgebraElement.delta(group, s)
        if x * d != d * x:
            return False
    return True


def build_unitary_v(group: PermGroup, tau: Permutation) -> GroupAlgebraElement:
    """A unitary group-algebra element mapping to the permutation matrix of tau.

    The minimum-norm preimage of pi(tau) is unitary in the corner complementary
    to the kernel (the representation is a *-isomorphism there and the target
    is unitary); adding the kernel projection makes it unitary outright.
    Every step is verified exactly and failures are hard errors.
    """
    if tau.n != group.n:
        raise ValueError("tau acts on the wrong number of points")
    p = kernel_projection(group)
    v0 = min_norm_preimage(perm_rep(tau), group)
    v = v0 + p
    unit = GroupAlgebraElement.unit(group)
    if v.adjoint() * v != unit or v * v.adjoint() != unit:
        raise InternalCheckError("constructed element is not unitary")
    if integrated_rep(v) != perm_rep(tau):
        raise InternalCheckError("constructed element misses the target")
    return v


# ---------------------------------------------------------------------------
# integration into the convolution algebra


def phi(a: GroupAlgebraElement, groupoid: GermGroupoid) -> AlgebraElement:
    """Send sum a_s delta_s to sum a_s (indicator of s's sheet).

    The strip over (i,j) is the constant sum of a_s over s(i)=j, which is
    exactly the (j,i) entry of the integrated representation.
    """
    if groupoid.group != a.group:
        raise ValueError("group algebra and groupoid do not match")
    strips = {
        pair: PiecewisePoly.const(_scalar(re, im, a.d))
        for pair, (re, im) in a.pair_sums().items()
    }
    return AlgebraElement(groupoid, strips, a)


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
    u = phi(build_unitary_v(G.group, tau), G)
    # phi is a *-homomorphism and v is verified unitary, so u is unitary by
    # construction; a failure here is an internal error, caught before any
    # trial runs
    one = AlgebraElement.unit(G)
    u_adj = u.adjoint()
    if u_adj * u != one or u * u_adj != one:
        raise InternalCheckError("constructed normalizer is not unitary")

    expected_strips = {
        (i, tau(i)): PiecewisePoly.const(1) for i in range(1, n + 1)
    }

    # each trial checks u* h u = h o tau in the form h u = u (h o tau): with
    # u* u = u u* = 1 verified above, multiplying on the left by u (or by u*)
    # turns each identity into the other.  Both center products then have the
    # one-element operand h(0) delta_e, so each is one Cayley-table translate,
    # and every strip product has u's constant-1 strip as a factor.
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
        strips_match_tau=u.strips == expected_strips,
        conjugation_ok=conj_ok,
        bisection_flag=bis_flag,
        bisection_witness=bis_witness,
        point_map=pm,
        point_map_is_tau=pm.as_permutation() == tau and pm.center_fixed,
    )
    return u, report
