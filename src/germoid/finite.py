"""Finite (discrete, hence Hausdorff) etale groupoids and their convolution
algebras as explicit matrix algebras.

This module hosts every floating-point computation in the package: operator
norms, center splitting and rank tests report their residuals and share one
tolerance, ``TOL``.  The structure underneath stays exact: the composition
index, and the center and diagonal commutant as sets of arrow indices.

A groupoid is one integer index over its arrows, sorted by ``repr``: the
``np.intp`` arrays ``src_unit`` and ``rng_unit`` (unit positions),
``inv_index``, the m x m composition ``table`` (-1 where undefined) and its
rows ``ia[r] * ib[r] = ic[r]``.  ``transformation`` and ``equivalence`` build
it straight from a Cayley table or from blocks; the constructor checks
dict-form input axiom by axiom and keeps only the index.  An algebra element
is its complex coefficient vector in arrow order.  Convolution is one
scatter-add over the rows, the adjoint one scatter, the regular
representation one gather, and associativity is checked on the table one
unit at a time.

The source fibers are held in orbit-trivialized order.  The first unit x0 of
each orbit, its base, lists its fiber in arrow order; every other unit y of
the orbit lists b g^-1 for b in fiber(x0), where g is the first arrow of
fiber(x0) with range y.  As a b = c exactly when a (b g^-1) = c g^-1, every
unit of an orbit gathers the same cells: lambda_y(f) equals lambda_x0(f)
entry for entry, the closed form of the unitary equivalence of lambda_x and
lambda_y along an arrow from x to y.  So ``rep_stacks`` keeps one block per
orbit, its base's, and the operator norm is one batched SVD per block size
over those blocks; ``rep_blocks`` and ``rep_gather`` still cover every unit.

Random trials are batched.  A check stacks its trials' coefficient vectors
as the rows of a (trials, m) array, in chunks of at most ``CHUNK_CELLS``
regular-representation cells, and runs each kernel once per chunk: one
batched SVD per orbit block size for the operator norms, one scatter-add for
the products.  ``gaussians(rng, count)`` draws a chunk: ``count`` float64
values equal bit for bit to ``count`` successive ``rng.gauss(0, 1)`` calls,
leaving ``rng.getstate()`` as those calls would.  It inlines CPython's
Box-Muller pair: the two ``rng.random()`` values of each pair come from one
``getrandbits`` call, and ``cos``, ``sin`` and ``log`` are mapped from
``math`` so that every value goes through the libm calls ``gauss`` makes; a
pending ``gauss_next`` or an odd last value falls back to ``rng.gauss``.  So
every seeded report is the one the trial-by-trial loop gave.  |f(x)| is
taken as ``np.hypot`` of the real and imaginary parts, which is what
Python's ``abs`` of a complex computes; numpy's complex ``abs`` can differ
from it in the last bit.  The key-inequality trials draw nothing when no
unit is isotropy-free.

The center and the diagonal commutant come from closed forms.  A function on
the arrows is central iff it vanishes off the isotropy bundle and is
constant on each conjugacy class {g h g^-1}, so the classes (one per orbit
and conjugacy class of its isotropy group), as arrow-index arrays, give a
basis of class indicators; the commutant of the diagonal is spanned by the
indicators of the loops, the arrows from a unit to itself.
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
    action_table,
    parse_count,
    parse_cycles,
    refuse_unknown_keys,
)

# the rank cut of the diagonal test and the slack of the key inequality
TOL = 1e-9

# random central elements tried before the center split gives up
SPLIT_ATTEMPTS = 5

# A transformation spec is refused before its table is built when
# max(points, group_degree) * |group|^2 exceeds this; for a faithful action
# that product is the number of composition entries.  S5 on 5 points needs
# 72,000, S6 on 6 points 3.1M.
MAX_COMPOSE_ENTRIES = 100_000

# The composition table is an m x m array.
MAX_ARROWS = 2000

# A batch of random trials gathers at most this many regular-representation
# cells (complex, so 128 KiB), or one trial when a trial alone has more.
# Larger batches run no faster here, and at 2^16 cells the 20 stacked
# products of S4 on 4 points raised the peak RSS of ``finite`` by 2.5 MB.
CHUNK_CELLS = 1 << 13


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
    """An explicit finite groupoid, held as its integer composition index.

    Units are identified with their identity arrows.  The constructor takes
    source, range, composition and inverse as dicts, checks every axiom with
    a witness, and keeps only the index."""

    def __init__(self, units, arrows, src, rng, unit_arrow, compose, inv):
        self._set_arrows(units, sorted(arrows, key=repr), unit_arrow)
        self._validate(dict(src), dict(rng), dict(compose), dict(inv))

    def _set_arrows(self, units, arrows, unit_arrow):
        self.units = tuple(units)
        if not self.units:
            raise ValueError("a finite groupoid needs at least one unit")
        self.arrows = tuple(arrows)
        _check_arrow_count(len(self.arrows))
        self.unit_arrow = dict(unit_arrow)
        self.index = {a: k for k, a in enumerate(self.arrows)}
        self._splits = {}  # minimal_central_projections by seed

    @classmethod
    def _from_index(cls, units, arrows, unit_arrow, ia, ib, ic, inv, src, rng):
        """A groupoid by construction, from its arrows and index in raw order."""
        # sort the arrows by repr and relabel the index; the rows keep their
        # order, which fixes the summation order of every convolution
        order = sorted(range(len(arrows)), key=lambda k: repr(arrows[k]))
        pos = np.empty(len(arrows), dtype=np.intp)
        pos[order] = np.arange(len(arrows))
        G = cls.__new__(cls)
        G._set_arrows(units, [arrows[k] for k in order], unit_arrow)
        G._build_index(pos[ia], pos[ib], pos[ic], pos[inv[order]], src[order], rng[order])
        G._build_fibers()
        return G

    # -- validation -----------------------------------------------------------

    def _validate(self, src, rng, compose, inv):
        """Check the axioms on the dict form, building the index on the way."""
        units = set(self.units)
        if len(units) != len(self.units):
            raise GroupoidAxiomError("repeated unit", self.units)
        index = self.index
        for a in self.arrows:
            if src.get(a) not in units or rng.get(a) not in units:
                raise GroupoidAxiomError("arrow without source/range in units", a)
        for x in self.units:
            u = self.unit_arrow.get(x)
            if u not in index or src[u] != x or rng[u] != x:
                raise GroupoidAxiomError("missing or misplaced unit arrow", x)
        extra = [
            (a, b)
            for (a, b) in compose
            if a not in index or b not in index or src[a] != rng[b]
        ]
        by_src = Counter(src[a] for a in self.arrows)
        by_rng = Counter(rng[a] for a in self.arrows)
        if extra or len(compose) != sum(by_src[x] * by_rng[x] for x in units):
            missing = next(
                (
                    (a, b)
                    for a in self.arrows
                    for b in self.arrows
                    if src[a] == rng[b] and (a, b) not in compose
                ),
                None,
            )
            raise GroupoidAxiomError("composition table domain mismatch", missing or extra[0])
        rows = []
        for (a, b), c in compose.items():
            k = index.get(c)
            if k is None:
                raise GroupoidAxiomError("composition lands outside arrows", (a, b, c))
            if src[c] != src[b] or rng[c] != rng[a]:
                raise GroupoidAxiomError(
                    "composition breaks source/range laws", (a, b, c)
                )
            rows.append((index[a], index[b], k))
        for a in self.arrows:
            if compose[(self.unit_arrow[rng[a]], a)] != a:
                raise GroupoidAxiomError("left unit law fails", a)
            if compose[(a, self.unit_arrow[src[a]])] != a:
                raise GroupoidAxiomError("right unit law fails", a)
        for a in self.arrows:
            ai = inv.get(a)
            if ai not in index:
                raise GroupoidAxiomError("missing inverse", a)
            if src[ai] != rng[a] or rng[ai] != src[a]:
                raise GroupoidAxiomError("inverse swaps source and range", a)
            if compose[(ai, a)] != self.unit_arrow[src[a]]:
                raise GroupoidAxiomError("inverse law a^-1 a fails", a)
            if compose[(a, ai)] != self.unit_arrow[rng[a]]:
                raise GroupoidAxiomError("inverse law a a^-1 fails", a)
        unit_pos = {x: k for k, x in enumerate(self.units)}
        self._build_index(
            *np.array(rows, dtype=np.intp).reshape(-1, 3).T.copy(),
            np.array([index[inv[a]] for a in self.arrows], dtype=np.intp),
            np.array([unit_pos[src[a]] for a in self.arrows], dtype=np.intp),
            np.array([unit_pos[rng[a]] for a in self.arrows], dtype=np.intp),
        )
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
        # the fibers are trivialized only once the table is known associative
        self._build_fibers()

    def _build_index(self, ia, ib, ic, inv_index, src_unit, rng_unit):
        """Store the index and the composition table."""
        m = len(self.arrows)
        self.ia, self.ib, self.ic = ia, ib, ic
        self.inv_index, self.src_unit, self.rng_unit = inv_index, src_unit, rng_unit
        self.table = np.full((m, m), -1, dtype=np.intp)
        self.table[ia, ib] = ic

    def _build_fibers(self):
        """The orbit-trivialized source fibers and the regular-representation
        gather over them."""
        # the first unit x0 of each orbit, its base, keeps arrow order; every
        # other unit y of the orbit lists b g^-1 for b in fiber(x0), with g
        # the first arrow of fiber(x0) into y
        fibers = [None] * len(self.units)
        self.orbit_base = np.empty(len(self.units), dtype=np.intp)
        for k, fiber in enumerate(fibers):
            if fiber is None:
                fibers[k] = base = np.flatnonzero(self.src_unit == k)
                # the first arrow into each unit, by walking the fiber backwards
                first = dict(zip(self.rng_unit[base[::-1]].tolist(), base[::-1].tolist()))
                for y, g in first.items():
                    if y != k:
                        fibers[y] = self.table[base, self.inv_index[g]]
                self.orbit_base[list(first)] = k
        self.fibers = dict(zip(self.units, fibers))
        # the regular representation: the row (a, b, c) with src(b) = x puts
        # f(a) at (c, b) of the block of x, and every cell gets exactly one row
        pos = np.empty(len(self.arrows), dtype=np.intp)
        for fiber in fibers:
            pos[fiber] = np.arange(len(fiber))
        sizes = np.bincount(self.src_unit, minlength=len(self.units))
        offsets = np.concatenate(([0], np.cumsum(sizes * sizes)))
        x = self.src_unit[self.ib]
        cell = offsets[x] + pos[self.ic] * sizes[x] + pos[self.ib]
        self.rep_gather = np.empty(len(self.ia), dtype=np.intp)
        self.rep_gather[cell] = self.ia
        self.rep_blocks = [
            (x, int(offsets[k]), int(sizes[k])) for k, x in enumerate(self.units)
        ]
        # a b = c iff a (b g^-1) = c g^-1, so every unit of an orbit has its
        # base's cells: the bases' blocks, stacked by size, for one batched
        # SVD per size
        stacks = {}
        for k in dict.fromkeys(self.orbit_base.tolist()):
            off, n = int(offsets[k]), int(sizes[k])
            stacks.setdefault(n, []).append(self.rep_gather[off:off + n * n])
        self.rep_stacks = [np.concatenate(c).reshape(-1, n, n) for n, c in stacks.items()]

    # -- constructors -----------------------------------------------------------

    @classmethod
    def transformation(cls, points: int, group: PermGroup, images=None) -> "FiniteGroupoid":
        """Action groupoid of a group acting on {1..points}.

        By default the group permutes the points themselves.  Otherwise
        ``images`` holds one permutation of the points per entry of
        ``group.generators``, in order, checked by ``perms.action_table``;
        non-faithful actions, such as a group acting trivially, are given
        this way.  A group built without generators, ``PermGroup(n,
        elements)``, takes only the faithful action; nothing in the package,
        its tests or its demos builds one with another.
        """
        # the arrow (g, y): y -> g(y), labelled by g's cycle string, is raw
        # arrow k * points + y - 1 for g = elements[k]; (g, g'(y)) (g', y) =
        # (g g', y), and the rows run over composable pairs in raw order
        _check_arrow_count(points * len(group))
        els = group.elements
        n = len(els)
        # act[k, y]: the image of the point y + 1 under elements[k], 0-based
        if images is not None:
            act = action_table(group, images, points)
        elif group.n != points:
            raise ValueError("group does not act on the given points")
        else:
            act = np.array([g.images for g in els], dtype=np.intp) - 1
        table = group.table.astype(np.intp)
        rng = act.ravel()
        src = np.tile(np.arange(points), n)
        # the arrow (k, x) composes with every arrow of range x, in raw order
        into = np.argsort(rng, kind="stable")
        ia = np.repeat(np.arange(n * points), np.bincount(rng, minlength=points)[src])
        ib = np.tile(into, n)
        ic = table[ia // points, ib // points] * points + ib % points
        inv = group.inverse_index.astype(np.intp).repeat(points) * points + rng
        names = [g.cycle_string() for g in els]
        arrows = [(name, y) for name in names for y in range(1, points + 1)]
        units = list(range(1, points + 1))
        unit_arrow = {x: ("()", x) for x in units}
        return cls._from_index(units, arrows, unit_arrow, ia, ib, ic, inv, src, rng)

    @classmethod
    def trivial_action(cls, points: int, group: PermGroup) -> "FiniteGroupoid":
        """Every group element acting as the identity on the points."""
        ident = Permutation.identity(points)
        return cls.transformation(points, group, [ident] * len(group.generators))

    @classmethod
    def equivalence(cls, blocks) -> "FiniteGroupoid":
        """Equivalence-relation groupoid: one arrow (x,y) per related pair y -> x."""
        # in a block of size s at raw offset off, (blk[i], blk[j]) is raw arrow
        # off + i * s + j, and the rows (x, y) (y, z) = (x, z) run in block order
        units = sorted({p for blk in blocks for p in blk})
        if len(units) != sum(len(b) for b in blocks):
            raise ValueError("blocks are not disjoint")
        _check_arrow_count(sum(len(b) ** 2 for b in blocks))
        unit_pos = {x: k for k, x in enumerate(units)}
        arrows = []
        rows, ends = [np.zeros((3, 0), dtype=np.intp)], [np.zeros((3, 0), dtype=np.intp)]
        for blk in blocks:
            s, off = len(blk), len(arrows)
            arrows += [(x, y) for x in blk for y in blk]
            at = np.array([unit_pos[x] for x in blk], dtype=np.intp)
            i, j = np.indices((s, s)).reshape(2, -1)
            ends.append(np.stack([off + j * s + i, at[j], at[i]]))  # inverse, source, range
            i, j, k = np.indices((s, s, s)).reshape(3, -1)
            rows.append(off + np.stack([i * s + j, j * s + k, i * s + k]))
        return cls._from_index(units, arrows, {x: (x, x) for x in units},
                               *np.concatenate(rows, axis=1), *np.concatenate(ends, axis=1))

    @classmethod
    def full_equivalence(cls, k: int) -> "FiniteGroupoid":
        return cls.equivalence([list(range(1, k + 1))])

    @classmethod
    def units_only(cls, k: int) -> "FiniteGroupoid":
        return cls.equivalence([[x] for x in range(1, k + 1)])

    @classmethod
    def explicit(cls, units, arrow_specs, compose_triples, inverse=None) -> "FiniteGroupoid":
        """From raw data: arrow_specs maps id -> (src, rng); units must appear
        as their own identity arrows, and a pair composed twice must have one
        result.  The inverse map is inferred when omitted."""
        arrows = list(arrow_specs)
        _check_arrow_count(len(arrows))
        src = {a: arrow_specs[a][0] for a in arrows}
        rng = {a: arrow_specs[a][1] for a in arrows}
        unit_arrow = {}
        for x in units:
            if x not in arrow_specs:
                raise GroupoidAxiomError("unit has no identity arrow", x)
            unit_arrow[x] = x
        compose = {}
        for a, b, c in compose_triples:
            if compose.setdefault((a, b), c) != c:
                raise GroupoidAxiomError("conflicting compositions", (a, b))
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

    def isotropy_orders(self) -> np.ndarray:
        """The number of arrows from each unit to itself, by unit position."""
        loops = self.src_unit[self.src_unit == self.rng_unit]
        return np.bincount(loops, minlength=len(self.units))

    def orbits(self):
        groups = {}
        for x, k in zip(self.units, self.orbit_base.tolist()):
            groups.setdefault(k, []).append(x)
        return sorted(groups.values())

    def describe(self) -> dict:
        return {
            "units": len(self.units),
            "arrows": len(self.arrows),
            "orbits": len(self.orbits()),
            "isotropy_orders": {
                str(x): int(c) for x, c in zip(self.units, self.isotropy_orders())
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
    loops = _non_unit_loops(G)
    loops = loops[np.argsort(G.src_unit[loops], kind="stable")]  # by unit, then index
    witnesses = tuple(G.arrows[a] for a in loops)
    return PrincipalityFlags(not witnesses, not witnesses, witnesses)


def _non_unit_loops(G: FiniteGroupoid) -> np.ndarray:
    """Indices, ascending, of the arrows from a unit to itself other than
    the unit arrows."""
    loops = G.src_unit == G.rng_unit
    loops[[G.index[G.unit_arrow[x]] for x in G.units]] = False
    return np.flatnonzero(loops)


# ---------------------------------------------------------------------------
# the convolution algebra, numerically


class FiniteAlgebraElement:
    """A complex function on the arrows: its coefficient vector, in ``G.index`` order."""

    __slots__ = ("groupoid", "vec")

    def __init__(self, groupoid: FiniteGroupoid, vec: np.ndarray):
        self.groupoid = groupoid
        self.vec = vec

    @classmethod
    def delta(cls, G, arrow):
        vec = np.zeros(len(G.arrows), dtype=complex)
        vec[G.index[arrow]] = 1
        return cls(G, vec)

    @classmethod
    def unit(cls, G):
        vec = np.zeros(len(G.arrows), dtype=complex)
        vec[[G.index[G.unit_arrow[x]] for x in G.units]] = 1
        return cls(G, vec)

    def coeff(self, a):
        return complex(self.vec[self.groupoid.index[a]])

    def __add__(self, other):
        return FiniteAlgebraElement(self.groupoid, self.vec + other.vec)

    def __sub__(self, other):
        return FiniteAlgebraElement(self.groupoid, self.vec - other.vec)

    def scale(self, c):
        return FiniteAlgebraElement(self.groupoid, c * self.vec)

    def __mul__(self, other):
        G = self.groupoid
        return FiniteAlgebraElement(G, _vec_convolve(G, self.vec, other.vec))

    def adjoint(self):
        return FiniteAlgebraElement(self.groupoid, _vec_adjoint(self.groupoid, self.vec))

    def __repr__(self):
        return f"FiniteAlgebraElement({np.count_nonzero(self.vec)} nonzero coeffs)"


def regular_rep(f: FiniteAlgebraElement) -> dict:
    """Block matrices of left convolution on the source fibers, one per unit.

    Rows and columns of the block of x follow ``G.fibers[x]``, in
    orbit-trivialized order, so the blocks of one orbit are equal; the entry
    at (a b, b) is f(a), gathered in one step through the composition index."""
    G = f.groupoid
    flat = f.vec[G.rep_gather]
    return {x: flat[off:off + n * n].reshape(n, n) for x, off, n in G.rep_blocks}


def _operator_norms(G: FiniteGroupoid, V: np.ndarray) -> np.ndarray:
    """The operator norm of each row of V: its largest singular value across
    the regular-representation blocks.  The blocks of one orbit are equal in
    the trivialized fibers, so only each orbit's base block is factored, one
    batched SVD per block size."""
    return np.max([np.linalg.svd(V[:, cells], compute_uv=False).max(axis=(1, 2))
                   for cells in G.rep_stacks], axis=0)


def gaussians(rng: random.Random, count: int) -> np.ndarray:
    """``count`` successive ``rng.gauss(0, 1)`` values, bit for bit, with the
    same rng state after."""
    head = [rng.gauss(0, 1)] if count and rng.gauss_next is not None else []
    pairs = (count - len(head)) // 2
    # rng.random() is (a * 2^26 + b) / 2^53 for the top 27 and 26 bits a, b
    # of two successive 32-bit outputs, and getrandbits lays the outputs out
    # as little-endian words: per pair, the x of cos/sin, then the y of log
    words = np.frombuffer(rng.getrandbits(128 * pairs).to_bytes(16 * pairs, "little"),
                          dtype="<u4").reshape(pairs, 2, 2)
    u = ((words[..., 0] >> 5) * 67108864.0 + (words[..., 1] >> 6)) * (1.0 / 9007199254740992.0)
    # a memoryview hands math one Python float at a time, without a list
    x2pi = memoryview(u[:, 0] * (2.0 * math.pi))
    g2rad = np.sqrt(-2.0 * np.fromiter(map(math.log, memoryview(1.0 - u[:, 1])), float, pairs))
    body = np.empty(2 * pairs)
    body[0::2] = np.fromiter(map(math.cos, x2pi), float, pairs) * g2rad
    body[1::2] = np.fromiter(map(math.sin, x2pi), float, pairs) * g2rad
    tail = [rng.gauss(0, 1)] if len(head) + 2 * pairs < count else []
    # gauss returns mu + z * sigma, and 0.0 + z turns -0.0 into 0.0
    return np.concatenate([head, body, tail]) + 0.0


def _trial_chunks(G: FiniteGroupoid, trials: int):
    """(start, stop) ranges of trials gathering at most ``CHUNK_CELLS`` cells;
    a trial has one cell per composition row."""
    step = max(1, CHUNK_CELLS // len(G.ia))
    return [(start, min(start + step, trials)) for start in range(0, trials, step)]


def _random_vectors(G: FiniteGroupoid, rng: random.Random, count: int) -> np.ndarray:
    """The coefficient vectors of ``count`` random elements, as rows."""
    # real then imaginary part, arrow by arrow, trial by trial: this order
    # fixes every seeded report
    m = len(G.arrows)
    return gaussians(rng, 2 * m * count).view(complex).reshape(count, m)


# ---------------------------------------------------------------------------
# exact structure: center and diagonal commutant


def center_basis_exact(G: FiniteGroupoid):
    """The conjugacy classes of the isotropy bundle, as ascending arrow-index
    arrays: their indicators are an exact basis of the center.

    f is central iff it vanishes off the isotropy bundle and is constant on
    each conjugacy class {g h g^-1}.  The classes come in the order of their
    last arrow index, the free-column order of row reduction on the
    commutation constraints."""
    T, inv = G.table, G.inv_index
    seen = np.zeros(len(G.arrows), dtype=bool)
    classes = []
    for h in np.flatnonzero(G.src_unit == G.rng_unit):
        if not seen[h]:
            g = G.fibers[G.units[G.src_unit[h]]]  # every g with g h g^-1 defined
            in_class = np.zeros(len(G.arrows), dtype=bool)
            in_class[T[T[g, h], inv[g]]] = True
            seen |= in_class
            classes.append(np.flatnonzero(in_class))
    classes.sort(key=lambda members: members[-1])
    return classes


@dataclass
class MasaReport:
    commutant_dim: int
    units: int
    is_masa: bool
    witness: object = None  # a non-diagonal commutant element, if any


def diagonal_masa_check(G: FiniteGroupoid) -> MasaReport:
    """Is the diagonal maximal abelian?  Exact verdict from the commutant.

    delta_x f = f delta_x for every unit x forces f to vanish off the loops,
    so the loop indicators span the commutant: the unit arrows, which span
    the diagonal, and the non-unit loops, each a witness against maximality."""
    loops = _non_unit_loops(G)
    witness = G.arrows[loops[0]] if len(loops) else None
    return MasaReport(len(G.units) + len(loops), len(G.units), witness is None, witness)


# ---------------------------------------------------------------------------
# numeric center splitting and the ideal checks


@dataclass
class CenterSplit:
    projections: list          # numpy vectors, one per minimal central projection
    idempotent_residual: float
    selfadjoint_residual: float
    partition_residual: float

    @property
    def blocks(self) -> int:
        return len(self.projections)


def _vec_adjoint(G, v):
    """The adjoint of a coefficient vector, or of each row of a stack."""
    out = np.empty_like(v)
    out[..., G.inv_index] = np.conjugate(v)
    return out


def _vec_convolve(G, u, v):
    """Convolution of coefficient vectors, or of stacks of them row by row:
    (u * v)(c) is the sum of u(a) v(b) over the table rows a b = c, in row
    order, one scatter-add."""
    out = np.zeros(u.shape, dtype=complex)
    # row t of a stack scatters into t * m + c of the flat output
    offsets = np.arange(0, out.size, len(G.arrows))[:, None]
    # take along the last axis: a stack indexed as u[..., ia] takes numpy's
    # general fancy-indexing path, several times slower
    np.add.at(out.reshape(-1), (offsets + G.ic).reshape(-1),
              (u.take(G.ia, axis=-1) * v.take(G.ib, axis=-1)).reshape(-1))
    return out


def minimal_central_projections(G: FiniteGroupoid, seed: int = 0) -> CenterSplit:
    """Numeric splitting of the exactly computed center into its minimal
    projections: eigen-split a random self-adjoint central element, normalize
    the eigenvectors to idempotents, and report every residual.

    The split is memoized on the groupoid by seed, so the checks that need
    it share one; callers must not modify it."""
    if seed in G._splits:
        return G._splits[seed]
    classes = center_basis_exact(G)
    k = len(classes)
    Zmat = np.zeros((len(G.arrows), k), dtype=complex)  # columns: the class indicators
    for j, members in enumerate(classes):
        Zmat[members, j] = 1
    class_sizes = Zmat.real.sum(axis=0)
    rng = random.Random(seed)
    last_gap = None
    for _ in range(SPLIT_ATTEMPTS):
        coeffs = gaussians(rng, 2 * k).tolist()
        h = np.zeros(len(G.arrows), dtype=complex)
        for j in range(k):
            z = Zmat[:, j]
            zs = _vec_adjoint(G, z)
            h += coeffs[2 * j] * (z + zs) / 2 + coeffs[2 * j + 1] * (z - zs) / 2j
        # matrix of multiplication by h on the center, from h's products with
        # the class indicators in one stacked scatter-add: the basis columns
        # are disjoint 0/1 class indicators, so the least-squares coordinates
        # of each product are its means over the classes
        prods = np.ascontiguousarray(
            _vec_convolve(G, np.broadcast_to(h, (k, len(h))), Zmat.T).T)
        T = (Zmat.T @ prods) / class_sizes[:, None]
        max_res = float(np.linalg.norm(Zmat @ T - prods, axis=0).max())
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
        # the eigenvectors as rows, each its own matrix-vector product (a
        # matrix-matrix product may sum in another order), and their squares
        # in one stacked product
        V = np.stack([Zmat @ eigvecs[:, i] for i in range(k)])
        V2 = _vec_convolve(G, V, V)
        projections = []
        for v, v2 in zip(V, V2):
            c = np.vdot(v, v2) / np.vdot(v, v)
            if abs(c) < 1e-8:
                raise CenterSplitError("eigenvector squares to zero; cannot normalize")
            projections.append(v / c)
        Z = np.stack(projections)
        idem_res = sa_res = 0.0
        for z, zz in zip(Z, _vec_convolve(G, Z, Z)):
            idem_res = max(idem_res, float(np.linalg.norm(zz - z)))
            sa_res = max(sa_res, float(np.linalg.norm(_vec_adjoint(G, z) - z)))
        total = sum(projections)
        unit_vec = FiniteAlgebraElement.unit(G).vec
        part_res = float(np.linalg.norm(total - unit_vec))
        split = CenterSplit(projections, idem_res, sa_res, part_res)
        worst = max(idem_res, sa_res, part_res)
        if worst > 1e-7:
            raise CenterSplitError(f"projection residual {worst:.2e} exceeds tolerance")
        G._splits[seed] = split
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


def _diagonal_meets(G, z):
    """Does {c diagonal : z c = c} have a nonzero solution, for z a central
    projection?  Rank test over the units."""
    # column x is z delta_x - delta_x, and z delta_x is z on the source fiber of x
    K = np.zeros((len(G.arrows), len(G.units)), dtype=complex)
    for j, x in enumerate(G.units):
        fiber = G.fibers[x]
        K[fiber, j] = z[fiber]
        K[G.index[G.unit_arrow[x]], j] -= 1
    sv = np.linalg.svd(K, compute_uv=False)
    sv_min = float(sv.min())
    return sv_min < TOL * max(1.0, float(sv.max())), sv_min


def intersection_property_check(G: FiniteGroupoid, seed: int = 0) -> IntersectionReport:
    """Does every minimal ideal contain a nonzero diagonal element?"""
    split = minimal_central_projections(G, seed)
    blocks = []
    for i, z in enumerate(split.projections):
        meets, sv_min = _diagonal_meets(G, z)
        blocks.append(BlockVerdict(i, sv_min, meets))
    residuals = {
        "idempotent": split.idempotent_residual,
        "selfadjoint": split.selfadjoint_residual,
        "partition": split.partition_residual,
    }
    return IntersectionReport(all(b.meets_diagonal for b in blocks), blocks, residuals)


@dataclass
class FaithfulnessReport:
    holds: bool
    kernels_checked: int
    failing_kernel: object = None


def faithfulness_check(G: FiniteGroupoid, seed: int = 0) -> FaithfulnessReport:
    """Representations are enumerated up to kernel, i.e. by the sums of
    minimal central blocks they kill.  Faithful-on-diagonal implies faithful
    exactly when every candidate kernel meets the diagonal.

    Single blocks decide this.  Let z be a sum of blocks containing z_i, and
    let z_i meet the diagonal: z_i c = c for a nonzero diagonal c.  The
    blocks are orthogonal idempotents, so z z_i = z_i and z c = z z_i c = c:
    z meets the diagonal too.  So a sum misses the diagonal only if each of
    its blocks does, and the first of the 2^k - 1 sums in bitmask order to
    miss it is the lowest-index block that misses it.  Trying the k blocks in
    order gives the verdict and the failing kernel of the full enumeration."""
    split = minimal_central_projections(G, seed)
    for i, z in enumerate(split.projections):
        meets, _ = _diagonal_meets(G, z)
        if not meets:
            return FaithfulnessReport(False, i + 1, (i,))
    return FaithfulnessReport(True, split.blocks)


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
    G: FiniteGroupoid, trials: int = 1000, seed: int = 0
) -> KeyInequalityReport:
    """At units with no isotropy, |f(x)| is bounded by the operator norm, and
    the diagonal matrix coefficient at the unit recovers f(x) on the nose.
    Without such a unit nothing is compared, so no element is drawn."""
    # the unit arrow is always a loop, so a unit with one loop has no isotropy
    free_units = [x for x, c in zip(G.units, G.isotropy_orders()) if c == 1]
    report = KeyInequalityReport(trials, len(free_units), [], 0.0, True)
    if not free_units:
        return report
    free = [G.index[G.unit_arrow[x]] for x in free_units]
    # the regular representation puts f(x) at (x, x) of the block of x
    block = {x: (off, n) for x, off, n in G.rep_blocks}
    diag_cells = []
    for x, a in zip(free_units, free):
        off, n = block[x]
        d = int(np.flatnonzero(G.fibers[x] == a)[0])
        diag_cells.append(off + d * n + d)
    report.pairing_exact = bool(np.array_equal(G.rep_gather[diag_cells], free))
    rng = random.Random(seed)
    for start, stop in _trial_chunks(G, trials):
        V = _random_vectors(G, rng, stop - start)
        norms = _operator_norms(G, V)
        vals = V[:, free]
        sizes = np.hypot(vals.real, vals.imag)  # Python's abs, bit for bit
        excess = sizes - norms[:, None]
        report.max_excess = max(report.max_excess, float(excess.max()))
        # argwhere runs trial by trial, then unit by unit
        for t, j in np.argwhere(excess > TOL).tolist():
            report.violations.append(
                (start + t, free_units[j], float(sizes[t, j]), float(norms[t]))
            )
    return report


def _unit_values_of_squares(G: FiniteGroupoid, V: np.ndarray) -> np.ndarray:
    """(g* g)(x) at each unit arrow x, in ``G.units`` order, for each row g
    of V.  Only the composition rows a b = c with c a unit are scattered,
    in row order, so each cell sums the terms of the full ``_vec_convolve``
    in its order."""
    units = [G.index[G.unit_arrow[x]] for x in G.units]
    column = np.full(len(G.arrows), -1)
    column[units] = np.arange(len(units))
    rows = np.flatnonzero(column[G.ic] >= 0)
    out = np.zeros((len(V), len(units)), dtype=complex)
    # row t of the stack scatters into t * len(units) + column
    offsets = np.arange(0, out.size, len(units))[:, None]
    np.add.at(out.reshape(-1), (offsets + column[G.ic[rows]]).reshape(-1),
              (_vec_adjoint(G, V).take(G.ia[rows], axis=1) * V.take(G.ib[rows], axis=1))
              .reshape(-1))
    return out


def expectation_check(G: FiniteGroupoid, seed: int):
    """(positive, faithful) for the conditional expectation E(g* g) of 20
    random elements g: positive if every value at a unit is real and >= 0 up to
    1e-12, faithful if it is not all below 1e-15 for a nonzero g."""
    rng = random.Random(seed)
    positive = faithful = True
    for start, stop in _trial_chunks(G, 20):
        V = _random_vectors(G, rng, stop - start)
        e = _unit_values_of_squares(G, V)
        if np.any((e.real < -1e-12) | (np.abs(e.imag) > 1e-12)):
            positive = False
        if np.any(V.any(axis=1) & (np.hypot(e.real, e.imag) < 1e-15).all(axis=1)):
            faithful = False
    return positive, faithful


# ---------------------------------------------------------------------------
# JSON ingestion


def parse_finite_spec(spec: dict) -> FiniteGroupoid:
    """Build a finite groupoid from its JSON description.

    {"transformation": {"points": 3, "group_generators": ["(1 2 3)"]}}
    {"equivalence": {"blocks": [[1,2],[3]]}}
    {"units": [...], "arrows": [{"id":..,"src":..,"rng":..},...],
     "compose": [[a,b,c], ...], "inverse": {a: b}}   (inverse optional)

    A malformed spec raises ``ValueError``, one that is not a JSON object,
    a repeated arrow id, a spec naming more than one of the three forms, a
    key its form does not read and a groupoid without units included, and
    so does a transformation spec with max(points, group_degree) * |G|^2 >
    ``MAX_COMPOSE_ENTRIES``: its group build stops at that order, before any
    table is built.
    """
    if not isinstance(spec, dict):
        raise ValueError("finite spec must be a JSON object")
    try:
        return _parse_finite_spec(spec)
    except (KeyError, TypeError, AttributeError, IndexError, OverflowError) as exc:
        raise ValueError(f"malformed spec ({type(exc).__name__}: {exc})") from None


def _parse_finite_spec(spec):
    named = [key for key in ("transformation", "equivalence") if key in spec]
    if "units" in spec or "arrows" in spec:
        named.append("units/arrows")
    if len(named) > 1:
        raise ValueError(f"spec names {len(named)} constructions ({', '.join(named)}); "
                         "give exactly one")
    if "transformation" in spec:
        refuse_unknown_keys(spec, ("transformation",), "finite spec")
        t = spec["transformation"]
        refuse_unknown_keys(
            t, ("points", "group_degree", "group_generators", "action"), "transformation spec"
        )
        k = parse_count(t["points"], "points")
        degree = parse_count(t.get("group_degree", k), "group_degree")
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
            return FiniteGroupoid.transformation(k, group, images)
        if degree != k:
            raise ValueError("group_degree differs from points but no action given")
        return FiniteGroupoid.transformation(k, group)
    if "equivalence" in spec:
        refuse_unknown_keys(spec, ("equivalence",), "finite spec")
        refuse_unknown_keys(spec["equivalence"], ("blocks",), "equivalence spec")
        return FiniteGroupoid.equivalence(spec["equivalence"]["blocks"])
    if "units" in spec and "arrows" in spec:
        refuse_unknown_keys(spec, ("units", "arrows", "compose", "inverse"), "finite spec")
        arrow_specs = {}
        for a in spec["arrows"]:
            if a["id"] in arrow_specs:
                raise GroupoidAxiomError("repeated arrow id", a["id"])
            arrow_specs[a["id"]] = (a["src"], a["rng"])
        triples = [tuple(t) for t in spec.get("compose", [])]
        inverse = spec.get("inverse")
        if inverse is not None:
            inverse = dict(inverse.items()) if isinstance(inverse, dict) else dict(inverse)
        return FiniteGroupoid.explicit(spec["units"], arrow_specs, triples, inverse)
    raise ValueError("unrecognized finite-groupoid spec")
