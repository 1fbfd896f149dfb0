"""Finite (discrete, hence Hausdorff) etale groupoids and their convolution
algebras as explicit matrix algebras.

This module hosts every floating-point computation in the package: operator
norms, center splitting, and rank tests all carry explicit tolerances and
report their residuals.  The algebraic layer underneath (composition tables,
center, diagonal commutant) stays exact.

Each groupoid carries one integer composition index over its arrow order
``G.index``: the ``np.intp`` arrays ``ia, ib, ic`` with one row per entry of
the composition table (``ia[r] * ib[r] = ic[r]``), the same data as an m x m
table (-1 where undefined), the index of each arrow's inverse, and the arrow
indices of each source fiber.  Convolution is one scatter-add over the rows,
the adjoint one scatter, the regular representation one gather, and the
associativity axiom is checked on the table one unit at a time.

The center and the diagonal commutant come from closed forms.  A function on
the arrows is central iff it vanishes off the isotropy bundle and is
constant on each conjugacy class {g h g^-1}, so the class sums (one per orbit
and conjugacy class of its isotropy group) are a basis; the commutant of the
diagonal is spanned by the isotropy-arrow indicators.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .perms import (
    GroupTooLarge,
    PermGroup,
    Permutation,
    extend_homomorphism,
    parse_cycles,
)
from .scalars import ONE, ZERO

DEFAULT_TOL = 1e-9

# A transformation spec is refused before its table is built when
# max(points, group_degree) * |group|^2 exceeds this; for a faithful action
# that product is the number of composition entries.  S5 on 5 points needs
# 72,000, S6 on 6 points 3.1M.
MAX_COMPOSE_ENTRIES = 100_000

# The composition table and the centrality check hold m x m arrays.
MAX_ARROWS = 2000


class GroupoidAxiomError(ValueError):
    """A groupoid axiom failed; carries a concrete witness."""

    def __init__(self, message, witness=None):
        super().__init__(message if witness is None else f"{message}; witness: {witness}")
        self.witness = witness


class CenterSplitError(RuntimeError):
    """Numeric splitting of the center did not resolve within tolerance."""


def _check_arrow_count(m: int):
    if m > MAX_ARROWS:
        raise ValueError(f"{m} arrows: at most {MAX_ARROWS} are supported")


class FiniteGroupoid:
    """An explicit finite groupoid: arrows, source/range, composition, inverse.

    Units are identified with their identity arrows.  All axioms are checked
    at construction and violations point at a witness.
    """

    def __init__(self, units, arrows, src, rng, unit_arrow, compose, inv):
        self.units = tuple(units)
        self.arrows = tuple(sorted(arrows, key=repr))
        _check_arrow_count(len(self.arrows))
        self.src = dict(src)
        self.rng = dict(rng)
        self.unit_arrow = dict(unit_arrow)
        self.compose = dict(compose)
        self.inv = dict(inv)
        self.index = {a: k for k, a in enumerate(self.arrows)}
        self._splits = {}  # minimal_central_projections by (tol, seed, attempts)
        self._validate()

    # -- validation -----------------------------------------------------------

    def _validate(self):
        """Check the axioms, building the composition index on the way."""
        units = set(self.units)
        if len(units) != len(self.units):
            raise GroupoidAxiomError("repeated unit", self.units)
        index, src, rng = self.index, self.src, self.rng
        for a in self.arrows:
            if src.get(a) not in units or rng.get(a) not in units:
                raise GroupoidAxiomError("arrow without source/range in units", a)
        for x in self.units:
            u = self.unit_arrow.get(x)
            if u not in index or src[u] != x or rng[u] != x:
                raise GroupoidAxiomError("missing or misplaced unit arrow", x)
        extra = [
            (a, b)
            for (a, b) in self.compose
            if a not in index or b not in index or src[a] != rng[b]
        ]
        by_src = Counter(src[a] for a in self.arrows)
        by_rng = Counter(rng[a] for a in self.arrows)
        if extra or len(self.compose) != sum(by_src[x] * by_rng[x] for x in units):
            missing = next(
                (
                    (a, b)
                    for a in self.arrows
                    for b in self.arrows
                    if src[a] == rng[b] and (a, b) not in self.compose
                ),
                None,
            )
            raise GroupoidAxiomError("composition table domain mismatch", missing or extra[0])
        rows = []
        for (a, b), c in self.compose.items():
            k = index.get(c)
            if k is None:
                raise GroupoidAxiomError("composition lands outside arrows", (a, b, c))
            if src[c] != src[b] or rng[c] != rng[a]:
                raise GroupoidAxiomError(
                    "composition breaks source/range laws", (a, b, c)
                )
            rows.append((index[a], index[b], k))
        for a in self.arrows:
            if self.compose[(self.unit_arrow[rng[a]], a)] != a:
                raise GroupoidAxiomError("left unit law fails", a)
            if self.compose[(a, self.unit_arrow[src[a]])] != a:
                raise GroupoidAxiomError("right unit law fails", a)
        for a in self.arrows:
            ai = self.inv.get(a)
            if ai not in index:
                raise GroupoidAxiomError("missing inverse", a)
            if src[ai] != rng[a] or rng[ai] != src[a]:
                raise GroupoidAxiomError("inverse swaps source and range", a)
            if self.compose[(ai, a)] != self.unit_arrow[src[a]]:
                raise GroupoidAxiomError("inverse law a^-1 a fails", a)
            if self.compose[(a, ai)] != self.unit_arrow[rng[a]]:
                raise GroupoidAxiomError("inverse law a a^-1 fails", a)
        self._build_index(rows)
        # (ab)c == a(bc), one unit y = src(b) = rng(c) at a time: the rows
        # (a, b, ab) with src(b) = y against every c with rng(c) = y
        T = self.table
        row_unit = self.src_unit[self.ib]
        for y in range(len(self.units)):
            r = np.flatnonzero(row_unit == y)
            a, b, ab = self.ia[r, None], self.ib[r, None], self.ic[r, None]
            c = np.flatnonzero(self.rng_unit == y)
            bad = np.argwhere(T[ab, c] != T[a, T[b, c]])
            if bad.size:
                i, j = bad[0]
                raise GroupoidAxiomError(
                    "associativity fails",
                    (self.arrows[a[i, 0]], self.arrows[b[i, 0]], self.arrows[c[j]]),
                )

    def _build_index(self, rows):
        """The composition index of the (validated) table rows."""
        m = len(self.arrows)
        unit_pos = {x: k for k, x in enumerate(self.units)}
        self.ia, self.ib, self.ic = np.array(rows, dtype=np.intp).reshape(-1, 3).T.copy()
        self.table = np.full((m, m), -1, dtype=np.intp)
        self.table[self.ia, self.ib] = self.ic
        self.inv_index = np.array([self.index[self.inv[a]] for a in self.arrows], dtype=np.intp)
        self.src_unit = np.array([unit_pos[self.src[a]] for a in self.arrows], dtype=np.intp)
        self.rng_unit = np.array([unit_pos[self.rng[a]] for a in self.arrows], dtype=np.intp)
        self.fibers = {x: np.flatnonzero(self.src_unit == k) for x, k in unit_pos.items()}
        # the regular representation: the row (a, b, c) with src(b) = x puts
        # f(a) at (c, b) of the block of x, and every cell gets exactly one row
        pos = np.empty(m, dtype=np.intp)
        sizes = np.zeros(len(self.units), dtype=np.intp)
        for k, x in enumerate(self.units):
            fiber = self.fibers[x]
            pos[fiber] = np.arange(len(fiber))
            sizes[k] = len(fiber)
        offsets = np.concatenate(([0], np.cumsum(sizes * sizes)))
        x = self.src_unit[self.ib]
        cell = offsets[x] + pos[self.ic] * sizes[x] + pos[self.ib]
        self.rep_gather = np.empty(len(self.ia), dtype=np.intp)
        self.rep_gather[cell] = self.ia
        self.rep_blocks = [
            (x, int(offsets[k]), int(sizes[k])) for k, x in enumerate(self.units)
        ]

    # -- constructors -----------------------------------------------------------

    @classmethod
    def transformation(cls, points: int, group: PermGroup, action=None) -> "FiniteGroupoid":
        """Action groupoid of a group acting on {1..points}.

        By default the group must be a permutation group of the points
        themselves; an explicit ``action`` (a homomorphism, as a dict from
        group elements to permutations of the points) covers non-faithful
        cases such as a nontrivial group acting trivially.
        """
        _check_arrow_count(points * len(group))
        if action is None:
            if group.n != points:
                raise ValueError("group does not act on the given points")
            action = {g: g for g in group}
        else:
            for g in group:
                if g not in action or action[g].n != points:
                    raise ValueError("action must assign every group element a "
                                     "permutation of the points")
            for g in group:
                for h in group:
                    if action[g * h] != action[g] * action[h]:
                        raise ValueError("action is not a homomorphism")
        units = list(range(1, points + 1))
        label = {g: g.cycle_string() for g in group}
        arrows = []
        src, rng, inv = {}, {}, {}
        into = {x: [] for x in units}  # into[x]: the arrows with range x, as (h, y)
        for g in group:
            for y in units:
                a = (label[g], y)
                arrows.append(a)
                src[a] = y
                rng[a] = action[g](y)
                inv[a] = (label[g.inverse()], action[g](y))
                into[action[g](y)].append((g, y))
        unit_arrow = {x: ("()", x) for x in units}
        compose = {}
        for g in group:
            for x in units:
                for h, y in into[x]:
                    compose[((label[g], x), (label[h], y))] = (label[g * h], y)
        return cls(units, arrows, src, rng, unit_arrow, compose, inv)

    @classmethod
    def trivial_action(cls, points: int, group: PermGroup) -> "FiniteGroupoid":
        """Every group element acting as the identity on the points."""
        ident = Permutation.identity(points)
        return cls.transformation(points, group, {g: ident for g in group})

    @classmethod
    def equivalence(cls, blocks) -> "FiniteGroupoid":
        """Equivalence-relation groupoid: one arrow (x,y) per related pair y -> x."""
        units = sorted({p for blk in blocks for p in blk})
        if len(units) != sum(len(b) for b in blocks):
            raise ValueError("blocks are not disjoint")
        _check_arrow_count(sum(len(b) ** 2 for b in blocks))
        arrows, src, rng, inv = [], {}, {}, {}
        compose = {}
        for blk in blocks:
            for x in blk:
                for y in blk:
                    a = (x, y)
                    arrows.append(a)
                    src[a] = y
                    rng[a] = x
                    inv[a] = (y, x)
                    for z in blk:
                        compose[((x, y), (y, z))] = (x, z)
        unit_arrow = {x: (x, x) for x in units}
        return cls(units, arrows, src, rng, unit_arrow, compose, inv)

    @classmethod
    def full_equivalence(cls, k: int) -> "FiniteGroupoid":
        return cls.equivalence([list(range(1, k + 1))])

    @classmethod
    def units_only(cls, k: int) -> "FiniteGroupoid":
        return cls.equivalence([[x] for x in range(1, k + 1)])

    @classmethod
    def explicit(cls, units, arrow_specs, compose_triples, inverse=None) -> "FiniteGroupoid":
        """From raw data: arrow_specs maps id -> (src, rng); units must appear
        as their own identity arrows.  The inverse map is inferred when omitted."""
        arrows = list(arrow_specs)
        _check_arrow_count(len(arrows))
        src = {a: arrow_specs[a][0] for a in arrows}
        rng = {a: arrow_specs[a][1] for a in arrows}
        unit_arrow = {}
        for x in units:
            if x not in arrow_specs:
                raise GroupoidAxiomError("unit has no identity arrow", x)
            unit_arrow[x] = x
        compose = {(a, b): c for a, b, c in compose_triples}
        if inverse is None:
            inverse = {}
            for a in arrows:
                cands = [
                    b
                    for b in arrows
                    if compose.get((b, a)) == unit_arrow.get(src[a])
                    and compose.get((a, b)) == unit_arrow.get(rng[a])
                ]
                if len(cands) != 1:
                    raise GroupoidAxiomError("inverse is not determined", a)
                inverse[a] = cands[0]
        return cls(units, arrows, src, rng, unit_arrow, compose, inverse)

    # -- structure ---------------------------------------------------------------

    def isotropy_arrows(self, x):
        return [a for a in self.arrows if self.src[a] == x and self.rng[a] == x]

    def has_no_isotropy(self, x) -> bool:
        return self.isotropy_arrows(x) == [self.unit_arrow[x]]

    def orbits(self):
        parent = {x: x for x in self.units}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a in self.arrows:
            rx, ry = find(self.src[a]), find(self.rng[a])
            if rx != ry:
                parent[rx] = ry
        groups = {}
        for x in self.units:
            groups.setdefault(find(x), []).append(x)
        return sorted(groups.values())

    def source_fiber(self, x):
        return [a for a in self.arrows if self.src[a] == x]

    def describe(self) -> dict:
        return {
            "units": len(self.units),
            "arrows": len(self.arrows),
            "orbits": len(self.orbits()),
            "isotropy_orders": {
                str(x): len(self.isotropy_arrows(x)) for x in self.units
            },
        }

    def __repr__(self):
        return f"FiniteGroupoid({len(self.units)} units, {len(self.arrows)} arrows)"


@dataclass(frozen=True)
class PrincipalityFlags:
    principal: bool
    essentially_principal: bool
    witnesses: tuple


def principality(G: FiniteGroupoid) -> PrincipalityFlags:
    """Principal iff no non-unit arrow has equal source and range; in the
    discrete topology the isotropy bundle is its own interior, so the
    essentially-principal flag coincides."""
    witnesses = tuple(
        a
        for x in G.units
        for a in G.isotropy_arrows(x)
        if a != G.unit_arrow[x]
    )
    return PrincipalityFlags(not witnesses, not witnesses, witnesses)


# ---------------------------------------------------------------------------
# the convolution algebra, numerically


class FiniteAlgebraElement:
    """A complex function on the arrows, with convolution product."""

    __slots__ = ("groupoid", "coeffs")

    def __init__(self, groupoid: FiniteGroupoid, coeffs=None):
        self.groupoid = groupoid
        self.coeffs = {a: complex(c) for a, c in (coeffs or {}).items() if c != 0}

    @classmethod
    def delta(cls, G, arrow):
        return cls(G, {arrow: 1.0})

    @classmethod
    def unit(cls, G):
        return cls(G, {G.unit_arrow[x]: 1.0 for x in G.units})

    def coeff(self, a):
        return self.coeffs.get(a, 0j)

    def __add__(self, other):
        out = dict(self.coeffs)
        for a, c in other.coeffs.items():
            out[a] = out.get(a, 0j) + c
        return FiniteAlgebraElement(self.groupoid, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        return FiniteAlgebraElement(self.groupoid, {a: c * v for a, v in self.coeffs.items()})

    def __mul__(self, other):
        G = self.groupoid
        return FiniteAlgebraElement.from_vector(
            G, _vec_convolve(G, self.vector(), other.vector())
        )

    def adjoint(self):
        return FiniteAlgebraElement(
            self.groupoid,
            {self.groupoid.inv[a]: c.conjugate() for a, c in self.coeffs.items()},
        )

    def vector(self) -> np.ndarray:
        v = np.zeros(len(self.groupoid.arrows), dtype=complex)
        for a, c in self.coeffs.items():
            v[self.groupoid.index[a]] = c
        return v

    @classmethod
    def from_vector(cls, G, v):
        return cls(G, dict(zip(G.arrows, v.tolist())))

    def norm_inf(self) -> float:
        return max((abs(c) for c in self.coeffs.values()), default=0.0)

    def __repr__(self):
        return f"FiniteAlgebraElement({len(self.coeffs)} nonzero coeffs)"


def regular_rep(f: FiniteAlgebraElement) -> dict:
    """Block matrices of left convolution on the source fibers, one per unit.

    Rows and columns of the block of x follow ``G.fibers[x]``; the entry at
    (a b, b) is f(a), gathered in one step through the composition index."""
    G = f.groupoid
    flat = f.vector()[G.rep_gather]
    return {x: flat[off:off + n * n].reshape(n, n) for x, off, n in G.rep_blocks}


def operator_norm(f: FiniteAlgebraElement) -> float:
    """Largest singular value across the regular-representation blocks."""
    return max(
        (np.linalg.norm(M, 2) for M in regular_rep(f).values() if M.size),
        default=0.0,
    )


def restrict_to_units(f: FiniteAlgebraElement) -> dict:
    """Conditional expectation: the coefficients at the unit arrows."""
    return {x: f.coeff(f.groupoid.unit_arrow[x]) for x in f.groupoid.units}


def random_finite_element(G: FiniteGroupoid, rng: random.Random) -> FiniteAlgebraElement:
    return FiniteAlgebraElement(
        G, {a: complex(rng.gauss(0, 1), rng.gauss(0, 1)) for a in G.arrows}
    )


def algebra_image_rank(G: FiniteGroupoid) -> int:
    """Rank of the regular representation over the arrow basis (numeric)."""
    cols = []
    for a in G.arrows:
        blocks = regular_rep(FiniteAlgebraElement.delta(G, a))
        cols.append(np.concatenate([blocks[x].ravel() for x in G.units]))
    return int(np.linalg.matrix_rank(np.array(cols).T, tol=1e-9))


# ---------------------------------------------------------------------------
# exact structure: center and diagonal commutant


def center_basis_exact(G: FiniteGroupoid):
    """Exact rational basis of the center of the convolution algebra.

    f is central iff it vanishes off the isotropy bundle and is constant on
    each conjugacy class {g h g^-1}, so the basis is the class indicators.
    They come in the order of each class's last arrow index, the free-column
    order of row reduction on the commutation constraints."""
    T, inv = G.table, G.inv_index
    seen = np.zeros(len(G.arrows), dtype=bool)
    classes = []
    for h in np.flatnonzero(G.src_unit == G.rng_unit):
        if not seen[h]:
            g = G.fibers[G.src[G.arrows[h]]]  # every g with g h g^-1 defined
            in_class = np.zeros(len(G.arrows), dtype=bool)
            in_class[T[T[g, h], inv[g]]] = True
            seen |= in_class
            classes.append(np.flatnonzero(in_class))
    classes.sort(key=lambda members: members[-1])
    return [_indicator(len(G.arrows), members) for members in classes]


def diagonal_commutant_exact(G: FiniteGroupoid):
    """Exact basis of the commutant of the diagonal subalgebra.

    delta_x f = f delta_x for every unit x forces f to vanish off the
    isotropy bundle, so the basis is the isotropy-arrow indicators, in index
    order."""
    m = len(G.arrows)
    return [_indicator(m, [k]) for k in np.flatnonzero(G.src_unit == G.rng_unit)]


def _indicator(m, support):
    vec = [ZERO] * m
    for k in support:
        vec[k] = ONE
    return vec


@dataclass
class MasaReport:
    commutant_dim: int
    units: int
    is_masa: bool
    witness: object = None  # a non-diagonal commutant element, if any


def diagonal_masa_check(G: FiniteGroupoid) -> MasaReport:
    """Is the diagonal maximal abelian?  Exact verdict from the commutant."""
    basis = diagonal_commutant_exact(G)
    unit_arrow_idx = {G.index[G.unit_arrow[x]] for x in G.units}
    witness = None
    for vec in basis:
        bad = [k for k, c in enumerate(vec) if c and k not in unit_arrow_idx]
        if bad:
            witness = G.arrows[bad[0]]
            break
    is_masa = len(basis) == len(G.units) and witness is None
    return MasaReport(len(basis), len(G.units), is_masa, witness)


# ---------------------------------------------------------------------------
# numeric center splitting and the ideal checks


@dataclass
class CenterSplit:
    projections: list          # numpy vectors, one per minimal central projection
    idempotent_residual: float
    selfadjoint_residual: float
    partition_residual: float
    centrality_residual: float

    @property
    def blocks(self) -> int:
        return len(self.projections)


def _vec_adjoint(G, v):
    out = np.empty_like(v)
    out[G.inv_index] = np.conjugate(v)
    return out


def _vec_convolve(G, u, v):
    """Convolution of coefficient vectors: (u * v)(c) is the sum of
    u(a) v(b) over the table rows a b = c, one scatter-add."""
    out = np.zeros(len(G.arrows), dtype=complex)
    np.add.at(out, G.ic, u[G.ia] * v[G.ib])
    return out


def minimal_central_projections(
    G: FiniteGroupoid, tol: float = DEFAULT_TOL, seed: int = 0, attempts: int = 5
) -> CenterSplit:
    """Numeric splitting of the exactly computed center into its minimal
    projections: eigen-split a random self-adjoint central element, normalize
    the eigenvectors to idempotents, and report every residual.

    The split is memoized on the groupoid by (tol, seed, attempts), so the
    checks that need it share one; callers must not modify it."""
    key = (tol, seed, attempts)
    if key in G._splits:
        return G._splits[key]
    exact = center_basis_exact(G)
    k = len(exact)
    Zmat = np.array(
        [[complex(c) for c in vec] for vec in exact], dtype=complex
    ).T  # columns are central basis vectors
    rng = random.Random(seed)
    last_gap = None
    for _ in range(attempts):
        h = np.zeros(len(G.arrows), dtype=complex)
        for j in range(k):
            z = Zmat[:, j]
            zs = _vec_adjoint(G, z)
            h += rng.gauss(0, 1) * (z + zs) / 2 + rng.gauss(0, 1) * (z - zs) / 2j
        # matrix of multiplication by h on the center
        T = np.zeros((k, k), dtype=complex)
        max_res = 0.0
        for j in range(k):
            prod = _vec_convolve(G, h, Zmat[:, j])
            w, res, _, _ = np.linalg.lstsq(Zmat, prod, rcond=None)
            max_res = max(max_res, float(np.linalg.norm(Zmat @ w - prod)))
            T[:, j] = w
        if max_res > 1e-8:
            raise CenterSplitError(
                f"center is not closed under multiplication numerically (residual {max_res:.2e})"
            )
        eigvals, eigvecs = np.linalg.eig(T)
        order = np.argsort(eigvals.real)
        eigvals, eigvecs = eigvals[order], eigvecs[:, order]
        gaps = np.diff(eigvals.real)
        last_gap = float(gaps.min()) if len(gaps) else float("inf")
        if len(eigvals) > 1 and last_gap < 1e-6:
            continue  # retry with a new random central element
        projections = []
        idem_res = sa_res = central_res = 0.0
        for i in range(k):
            v = Zmat @ eigvecs[:, i]
            v2 = _vec_convolve(G, v, v)
            denom = np.vdot(v, v)
            c = np.vdot(v, v2) / denom
            if abs(c) < 1e-8:
                raise CenterSplitError("eigenvector squares to zero; cannot normalize")
            z = v / c
            projections.append(z)
            idem_res = max(idem_res, float(np.linalg.norm(_vec_convolve(G, z, z) - z)))
            sa_res = max(sa_res, float(np.linalg.norm(_vec_adjoint(G, z) - z)))
            # column a is z delta_a - delta_a z: the row (p, a, c) puts z(p)
            # at (c, a), the row (a, q, c) puts -z(q) there
            D = np.zeros((len(G.arrows), len(G.arrows)), dtype=complex)
            D[G.ic, G.ib] = z[G.ia]
            D[G.ic, G.ia] -= z[G.ib]
            central_res = max(central_res, float(np.linalg.norm(D, axis=0).max()))
        total = sum(projections)
        unit_vec = FiniteAlgebraElement.unit(G).vector()
        part_res = float(np.linalg.norm(total - unit_vec))
        split = CenterSplit(projections, idem_res, sa_res, part_res, central_res)
        worst = max(idem_res, sa_res, part_res, central_res)
        if worst > tol * 100 and worst > 1e-7:
            raise CenterSplitError(f"projection residual {worst:.2e} exceeds tolerance")
        G._splits[key] = split
        return split
    raise CenterSplitError(
        f"could not separate center eigenvalues (min gap {last_gap:.2e})"
    )


@dataclass
class BlockVerdict:
    block: int
    sv_min: float
    meets_diagonal: bool


@dataclass
class IntersectionReport:
    holds: bool
    blocks: list
    residuals: dict

    @property
    def witnesses(self):
        return [b for b in self.blocks if not b.meets_diagonal]


def _diagonal_meets(G, zvecs, tol):
    """Does {c diagonal : z c = c} have a nonzero solution, for z the sum of
    the given projections?  Rank test over the units."""
    z = sum(zvecs)
    # column x is z delta_x - delta_x, and z delta_x is z on the source fiber of x
    K = np.zeros((len(G.arrows), len(G.units)), dtype=complex)
    for j, x in enumerate(G.units):
        fiber = G.fibers[x]
        K[fiber, j] = z[fiber]
        K[G.index[G.unit_arrow[x]], j] -= 1
    sv = np.linalg.svd(K, compute_uv=False)
    sv_min = float(sv.min()) if sv.size else 0.0
    return sv_min < max(tol, 1e-9 * (float(sv.max()) if sv.size else 1.0)), sv_min


def intersection_property_check(
    G: FiniteGroupoid, tol: float = DEFAULT_TOL, seed: int = 0
) -> IntersectionReport:
    """Does every minimal ideal contain a nonzero diagonal element?"""
    split = minimal_central_projections(G, tol=tol, seed=seed)
    blocks = []
    for i, z in enumerate(split.projections):
        meets, sv_min = _diagonal_meets(G, [z], tol)
        blocks.append(BlockVerdict(i, sv_min, meets))
    residuals = {
        "idempotent": split.idempotent_residual,
        "selfadjoint": split.selfadjoint_residual,
        "partition": split.partition_residual,
        "centrality": split.centrality_residual,
    }
    return IntersectionReport(all(b.meets_diagonal for b in blocks), blocks, residuals)


@dataclass
class FaithfulnessReport:
    holds: bool
    kernels_checked: int
    failing_kernel: object = None
    exhaustive: bool = True


def faithfulness_check(
    G: FiniteGroupoid, tol: float = DEFAULT_TOL, seed: int = 0, subset_cap: int = 12
) -> FaithfulnessReport:
    """Representations are enumerated up to kernel, i.e. by the sums of
    minimal central blocks they kill.  Faithful-on-diagonal implies faithful
    exactly when every candidate kernel meets the diagonal."""
    split = minimal_central_projections(G, tol=tol, seed=seed)
    k = split.blocks
    exhaustive = k <= subset_cap
    if exhaustive:
        subsets = [
            [i for i in range(k) if mask >> i & 1]
            for mask in range(1, 1 << k)
        ]
    else:
        subsets = [[i] for i in range(k)]
    checked = 0
    for S in subsets:
        meets, _ = _diagonal_meets(G, [split.projections[i] for i in S], tol)
        checked += 1
        if not meets:
            return FaithfulnessReport(False, checked, tuple(S), exhaustive)
    return FaithfulnessReport(True, checked, None, exhaustive)


@dataclass
class KeyInequalityReport:
    trials: int
    units_tested: int
    violations: list
    max_excess: float
    pairing_exact: bool

    @property
    def holds(self) -> bool:
        return not self.violations and self.pairing_exact


def key_inequality_check(
    G: FiniteGroupoid, trials: int = 1000, seed: int = 0, tol: float = DEFAULT_TOL
) -> KeyInequalityReport:
    """At units with no isotropy, |f(x)| is bounded by the operator norm, and
    the diagonal matrix coefficient at the unit recovers f(x) on the nose."""
    rng = random.Random(seed)
    free_units = [x for x in G.units if G.has_no_isotropy(x)]
    # where the unit arrow of x sits in the block of x
    diag = {x: int(np.flatnonzero(G.fibers[x] == G.index[G.unit_arrow[x]])[0])
            for x in free_units}
    violations = []
    max_excess = 0.0
    pairing_exact = True
    for trial in range(trials):
        f = random_finite_element(G, rng)
        blocks = regular_rep(f)
        norm = max(
            (np.linalg.norm(M, 2) for M in blocks.values() if M.size), default=0.0
        )
        for x in free_units:
            val = f.coeff(G.unit_arrow[x])
            excess = abs(val) - norm
            max_excess = max(max_excess, excess)
            if excess > tol:
                violations.append((trial, x, abs(val), norm))
            if blocks[x][diag[x], diag[x]] != val:
                pairing_exact = False
    return KeyInequalityReport(trials, len(free_units), violations, max_excess, pairing_exact)


# ---------------------------------------------------------------------------
# JSON ingestion


def parse_finite_spec(spec: dict) -> FiniteGroupoid:
    """Build a finite groupoid from its JSON description.

    {"transformation": {"points": 3, "group_generators": ["(1 2 3)"]}}
    {"equivalence": {"blocks": [[1,2],[3]]}}
    {"units": [...], "arrows": [{"id":..,"src":..,"rng":..},...],
     "compose": [[a,b,c], ...], "inverse": {a: b}}   (inverse optional)

    A malformed spec raises ``ValueError``, and so does a transformation spec
    with max(points, group_degree) * |G|^2 > ``MAX_COMPOSE_ENTRIES``: its
    group build stops at that order, before any table is built.
    """
    try:
        return _parse_finite_spec(spec)
    except (KeyError, TypeError, AttributeError, IndexError, OverflowError) as exc:
        raise ValueError(f"malformed spec ({type(exc).__name__}: {exc})") from None


def _parse_finite_spec(spec):
    if "transformation" in spec:
        t = spec["transformation"]
        k = int(t["points"])
        degree = int(t.get("group_degree", k))
        if k < 1 or degree < 1:
            raise ValueError("points and group_degree must be positive")
        max_order = math.isqrt(MAX_COMPOSE_ENTRIES // max(k, degree))
        too_large = ValueError(
            f"too large: max(points, group_degree) * |group|^2 exceeds {MAX_COMPOSE_ENTRIES}"
        )
        if max_order < 1:
            raise too_large
        gens = [parse_cycles(s, degree) for s in t.get("group_generators", [])]
        try:
            group = PermGroup.generate(degree, gens, limit=max_order)
        except GroupTooLarge:
            raise too_large from None
        if "action" in t:
            images = [parse_cycles(s, k) for s in t["action"]]
            if gens:
                hom = extend_homomorphism(group, gens, images)
            else:
                hom = {group.identity: Permutation.identity(k)}
            return FiniteGroupoid.transformation(k, group, hom)
        if degree != k:
            raise ValueError("group_degree differs from points but no action given")
        return FiniteGroupoid.transformation(k, group)
    if "equivalence" in spec:
        return FiniteGroupoid.equivalence(spec["equivalence"]["blocks"])
    if "units" in spec and "arrows" in spec:
        arrow_specs = {a["id"]: (a["src"], a["rng"]) for a in spec["arrows"]}
        triples = [tuple(t) for t in spec.get("compose", [])]
        inverse = spec.get("inverse")
        if inverse is not None:
            inverse = dict(inverse.items()) if isinstance(inverse, dict) else dict(inverse)
        return FiniteGroupoid.explicit(spec["units"], arrow_specs, triples, inverse)
    raise ValueError("unrecognized finite-groupoid spec")
