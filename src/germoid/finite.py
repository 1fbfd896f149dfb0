"""Finite (discrete, hence Hausdorff) etale groupoids and their convolution
algebras as explicit matrix algebras.

This module hosts every floating-point computation in the package: operator
norms, center splitting, and rank tests all carry explicit tolerances and
report their residuals.  The algebraic layer underneath (composition tables,
center equations, diagonal commutants) stays exact.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .linalg import nullspace
from .perms import PermGroup, Permutation, extend_homomorphism, parse_cycles
from .scalars import ONE, ZERO, Scalar

DEFAULT_TOL = 1e-9


class GroupoidAxiomError(ValueError):
    """A groupoid axiom failed; carries a concrete witness."""

    def __init__(self, message, witness=None):
        super().__init__(message if witness is None else f"{message}; witness: {witness}")
        self.witness = witness


class CenterSplitError(RuntimeError):
    """Numeric splitting of the center did not resolve within tolerance."""


class FiniteGroupoid:
    """An explicit finite groupoid: arrows, source/range, composition, inverse.

    Units are identified with their identity arrows.  All axioms are checked
    at construction and violations point at a witness.
    """

    def __init__(self, units, arrows, src, rng, unit_arrow, compose, inv):
        self.units = tuple(units)
        self.arrows = tuple(sorted(arrows, key=repr))
        self.src = dict(src)
        self.rng = dict(rng)
        self.unit_arrow = dict(unit_arrow)
        self.compose = dict(compose)
        self.inv = dict(inv)
        self.index = {a: k for k, a in enumerate(self.arrows)}
        self._validate()

    # -- validation -----------------------------------------------------------

    def _validate(self):
        units = set(self.units)
        arrows = set(self.arrows)
        for a in self.arrows:
            if self.src.get(a) not in units or self.rng.get(a) not in units:
                raise GroupoidAxiomError("arrow without source/range in units", a)
        for x in self.units:
            u = self.unit_arrow.get(x)
            if u not in arrows or self.src[u] != x or self.rng[u] != x:
                raise GroupoidAxiomError("missing or misplaced unit arrow", x)
        composable = {
            (a, b)
            for a in self.arrows
            for b in self.arrows
            if self.src[a] == self.rng[b]
        }
        if set(self.compose) != composable:
            missing = composable - set(self.compose)
            extra = set(self.compose) - composable
            raise GroupoidAxiomError(
                "composition table domain mismatch",
                next(iter(missing or extra)),
            )
        for (a, b), c in self.compose.items():
            if c not in arrows:
                raise GroupoidAxiomError("composition lands outside arrows", (a, b, c))
            if self.src[c] != self.src[b] or self.rng[c] != self.rng[a]:
                raise GroupoidAxiomError(
                    "composition breaks source/range laws", (a, b, c)
                )
        for a in self.arrows:
            if self.compose[(self.unit_arrow[self.rng[a]], a)] != a:
                raise GroupoidAxiomError("left unit law fails", a)
            if self.compose[(a, self.unit_arrow[self.src[a]])] != a:
                raise GroupoidAxiomError("right unit law fails", a)
        for a in self.arrows:
            ai = self.inv.get(a)
            if ai not in arrows:
                raise GroupoidAxiomError("missing inverse", a)
            if self.src[ai] != self.rng[a] or self.rng[ai] != self.src[a]:
                raise GroupoidAxiomError("inverse swaps source and range", a)
            if self.compose[(ai, a)] != self.unit_arrow[self.src[a]]:
                raise GroupoidAxiomError("inverse law a^-1 a fails", a)
            if self.compose[(a, ai)] != self.unit_arrow[self.rng[a]]:
                raise GroupoidAxiomError("inverse law a a^-1 fails", a)
        for (a, b) in self.compose:
            for c in self.arrows:
                if self.src[b] == self.rng[c]:
                    left = self.compose[(self.compose[(a, b)], c)]
                    right = self.compose[(a, self.compose[(b, c)])]
                    if left != right:
                        raise GroupoidAxiomError("associativity fails", (a, b, c))

    # -- constructors -----------------------------------------------------------

    @classmethod
    def transformation(cls, points: int, group: PermGroup, action=None) -> "FiniteGroupoid":
        """Action groupoid of a group acting on {1..points}.

        By default the group must be a permutation group of the points
        themselves; an explicit ``action`` (a homomorphism, as a dict from
        group elements to permutations of the points) covers non-faithful
        cases such as a nontrivial group acting trivially.
        """
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
        arrows = []
        src, rng, inv = {}, {}, {}
        for g in group:
            gs = g.cycle_string()
            for x in units:
                a = (gs, x)
                arrows.append(a)
                src[a] = x
                rng[a] = action[g](x)
                inv[a] = (g.inverse().cycle_string(), action[g](x))
        unit_arrow = {x: ("()", x) for x in units}
        compose = {}
        by_label = {g.cycle_string(): g for g in group}
        for (gs, x) in arrows:
            g = by_label[gs]
            for (hs, y) in arrows:
                h = by_label[hs]
                if action[h](y) == x:  # src of first = rng of second
                    compose[((gs, x), (hs, y))] = ((g * h).cycle_string(), y)
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
        for (x, y) in arrows:
            for (y2, z) in arrows:
                if y == y2:
                    compose[((x, y), (y2, z))] = (x, z)
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
        out = {}
        for (a, b), c in self.groupoid.compose.items():
            fa = self.coeffs.get(a)
            gb = other.coeffs.get(b)
            if fa and gb:
                out[c] = out.get(c, 0j) + fa * gb
        return FiniteAlgebraElement(self.groupoid, out)

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
        return cls(G, {a: v[G.index[a]] for a in G.arrows})

    def norm_inf(self) -> float:
        return max((abs(c) for c in self.coeffs.values()), default=0.0)

    def __repr__(self):
        return f"FiniteAlgebraElement({len(self.coeffs)} nonzero coeffs)"


def regular_rep(f: FiniteAlgebraElement) -> dict:
    """Block matrices of left convolution on the source fibers, one per unit."""
    G = f.groupoid
    blocks = {}
    for x in G.units:
        fiber = G.source_fiber(x)
        pos = {a: k for k, a in enumerate(fiber)}
        M = np.zeros((len(fiber), len(fiber)), dtype=complex)
        for b in fiber:
            for a in G.arrows:
                if G.src[a] == G.rng[b]:
                    c = f.coeffs.get(a)
                    if c:
                        M[pos[G.compose[(a, b)]], pos[b]] += c
        blocks[x] = M
    return blocks


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


def _exact_nullspace_vectors(rows, ncols):
    basis = nullspace(rows, ncols)
    return basis


def center_basis_exact(G: FiniteGroupoid):
    """Exact rational basis of the center of the convolution algebra.

    Builds the commutation constraints against every arrow indicator from the
    structure constants and solves over the rationals.
    """
    m = len(G.arrows)
    rows = []
    for g in G.arrows:
        gi = G.inv[g]
        for w in G.arrows:
            row = [ZERO] * m
            nonzero = False
            if G.src[w] == G.src[g]:
                row[G.index[G.compose[(w, gi)]]] = row[G.index[G.compose[(w, gi)]]] + ONE
                nonzero = True
            if G.rng[w] == G.rng[g]:
                k = G.index[G.compose[(gi, w)]]
                row[k] = row[k] - ONE
                nonzero = True
            if nonzero and any(x for x in row):
                rows.append(row)
    return _exact_nullspace_vectors(rows, m)


def diagonal_commutant_exact(G: FiniteGroupoid):
    """Exact basis of the commutant of the diagonal subalgebra."""
    m = len(G.arrows)
    rows = []
    for x in G.units:
        for w in G.arrows:
            coeff = (1 if G.src[w] == x else 0) - (1 if G.rng[w] == x else 0)
            if coeff:
                row = [ZERO] * m
                row[G.index[w]] = Scalar(coeff)
                rows.append(row)
    return _exact_nullspace_vectors(rows, m)


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
    out = np.zeros_like(v)
    for a in G.arrows:
        out[G.index[G.inv[a]]] = np.conjugate(v[G.index[a]])
    return out


def _vec_convolve(G, u, v):
    out = np.zeros_like(u)
    for (a, b), c in G.compose.items():
        ua = u[G.index[a]]
        vb = v[G.index[b]]
        if ua != 0 and vb != 0:
            out[G.index[c]] += ua * vb
    return out


def minimal_central_projections(
    G: FiniteGroupoid, tol: float = DEFAULT_TOL, seed: int = 0, attempts: int = 5
) -> CenterSplit:
    """Numeric splitting of the exactly computed center into its minimal
    projections: eigen-split a random self-adjoint central element, normalize
    the eigenvectors to idempotents, and report every residual."""
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
            for a in G.arrows:
                da = FiniteAlgebraElement.delta(G, a).vector()
                central_res = max(
                    central_res,
                    float(
                        np.linalg.norm(
                            _vec_convolve(G, z, da) - _vec_convolve(G, da, z)
                        )
                    ),
                )
        total = sum(projections)
        unit_vec = FiniteAlgebraElement.unit(G).vector()
        part_res = float(np.linalg.norm(total - unit_vec))
        split = CenterSplit(projections, idem_res, sa_res, part_res, central_res)
        worst = max(idem_res, sa_res, part_res, central_res)
        if worst > tol * 100 and worst > 1e-7:
            raise CenterSplitError(f"projection residual {worst:.2e} exceeds tolerance")
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
    cols = []
    for x in G.units:
        dx = FiniteAlgebraElement.delta(G, G.unit_arrow[x]).vector()
        cols.append(_vec_convolve(G, z, dx) - dx)
    K = np.array(cols).T
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
            fiber = G.source_fiber(x)
            pos = fiber.index(G.unit_arrow[x])
            if blocks[x][pos, pos] != val:
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
    """
    if "transformation" in spec:
        t = spec["transformation"]
        k = int(t["points"])
        degree = int(t.get("group_degree", k))
        gens = [parse_cycles(s, degree) for s in t.get("group_generators", [])]
        group = PermGroup.generate(degree, gens)
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
