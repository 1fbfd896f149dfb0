"""Brute-force oracles, and helpers that nothing in the package calls, shared
by several test modules."""

from fractions import Fraction
from math import gcd, lcm

import numpy as np

from germoid.algebra import (
    AlgebraElement,
    NotNormalizerError,
    _reduced,
    _support_point_map,
    from_sheet,
)
from germoid.finite import (
    FiniteAlgebraElement,
    _diagonal_meets,
    _operator_norms,
    minimal_central_projections,
)
from germoid.germs import CenterGerm, EdgeGerm, GermError
from germoid.linalg import Matrix, nullspace, rref, solve
from germoid.perms import Permutation, _int_array, parse_cycles
from germoid.poly import PiecewisePoly, _canon, _scalar, from_scalars
from germoid.rep import GroupAlgebraElement, InternalCheckError, PreimageObstruction
from germoid.sampling import _OVER_12, random_ppfun
from germoid.scalars import ONE, ZERO, Scalar, as_scalar
from germoid.starspace import CenterPoint, EdgePoint, OpenStarSet, PPFun, edge_index


def perm_rep(sigma: Permutation) -> Matrix:
    """The 0/1 matrix sending basis vector e_i to e_{sigma(i)}."""
    n = sigma.n
    rows = [[ZERO] * n for _ in range(n)]
    for i in range(1, n + 1):
        rows[sigma(i) - 1][i - 1] = ONE
    return Matrix(rows)


def integrated_rep(a: GroupAlgebraElement) -> Matrix:
    """The permutation representation extended linearly, as a ``Matrix``:
    entry (j, i) is the sum of the coefficients of the elements sending i
    to j, read off ``pair_sums``."""
    n, d = a.group.n, a.d
    rows = [[ZERO] * n for _ in range(n)]
    for (i, j), (re, im) in a.pair_sums().items():
        rows[j - 1][i - 1] = _scalar(re, im, d)
    return Matrix(rows)


def all_ones(n: int) -> Matrix:
    """The n x n matrix J with every entry 1."""
    return Matrix([[ONE] * n for _ in range(n)])


def conj_transpose(m: Matrix) -> Matrix:
    return Matrix([[x.conjugate() for x in row] for row in zip(*m.rows)])


def rank(rows) -> int:
    return len(rref([list(r) for r in rows]))


def reduce_basis(vectors):
    """Canonical (RREF) basis of the span of the given vectors."""
    if not vectors:
        return []
    work = [list(v) for v in vectors]
    rref(work)
    return [row for row in work if any(not x.is_zero() for x in row)]


def commutant_basis_by_rref(mats):
    """Exact basis of {X : XM = MX for all M} for any square matrices, in
    reduced row echelon form (row-major vectorization), plus its dimension:
    the n^2-column constraint system solved by rational row reduction."""
    n = mats[0].nrows

    def v(r, c):
        return r * n + c

    rows = []
    for m in mats:
        for r in range(n):
            for c in range(n):
                row = [ZERO] * (n * n)
                for k in range(n):
                    # (XM)[r,c] += X[r,k] M[k,c];  (MX)[r,c] += M[r,k] X[k,c]
                    row[v(r, k)] = row[v(r, k)] + m[k, c]
                    row[v(k, c)] = row[v(k, c)] - m[r, k]
                rows.append(row)
    basis_vecs = reduce_basis(nullspace(rows, n * n))
    basis = [
        Matrix([vec[r * n : (r + 1) * n] for r in range(n)]) for vec in basis_vecs
    ]
    return basis, len(basis)


def bitransitive_by_brute_force(group) -> bool:
    """Every ordered pair of distinct points reaches every other."""
    n = group.n
    pairs = [(i1, i2) for i1 in range(1, n + 1) for i2 in range(1, n + 1) if i1 != i2]
    for i1, i2 in pairs:
        reached = {(s(i1), s(i2)) for s in group}
        if any(p not in reached for p in pairs):
            return False
    return True


def abs2(x: Scalar) -> Fraction:
    """Squared modulus of a scalar, an exact nonnegative rational."""
    return Fraction(x._a * x._a + x._b * x._b, x._d * x._d)


def isotropy_arrows(G, x) -> list:
    """The arrows of a finite groupoid from the unit x to itself."""
    k = G.units.index(x)
    loops = (G.src_unit == k) & (G.rng_unit == k)
    return [G.arrows[a] for a in loops.nonzero()[0]]


def has_no_isotropy(G, x) -> bool:
    return isotropy_arrows(G, x) == [G.unit_arrow[x]]


def random_finite_element(G, rng) -> FiniteAlgebraElement:
    """A random element of the algebra of G, one ``rng.gauss`` call per real
    coefficient: a draw path apart from ``finite.gaussians``."""
    # real then imaginary part, arrow by arrow: the order the batched draw keeps
    draws = np.array([rng.gauss(0, 1) for _ in range(2 * len(G.arrows))])
    return FiniteAlgebraElement(G, draws.view(complex))


def restrict_to_units(f) -> dict:
    """Conditional expectation of a finite algebra element: its coefficients
    at the unit arrows, unit by unit."""
    return {x: f.coeff(f.groupoid.unit_arrow[x]) for x in f.groupoid.units}


def operator_norm(f: FiniteAlgebraElement) -> float:
    """Largest singular value across the regular-representation blocks."""
    return float(_operator_norms(f.groupoid, f.vec[None])[0])


# -- the unit space of a star groupoid: the conditional expectation and the
# -- point map of a unitary, checked to be unitary first


class UnitSpaceFunction:
    """A function on the star that may be discontinuous at the center.

    This is the codomain of the conditional expectation: restricting an
    algebra element to the unit space keeps the diagonal strips and the
    identity's center value, and on a non-Hausdorff groupoid those need not
    glue continuously.
    """

    __slots__ = ("n", "center", "edges")

    def __init__(self, n: int, center, edges):
        self.n = n
        self.center = as_scalar(center)
        self.edges = tuple(edges)

    def eval(self, p) -> Scalar:
        if isinstance(p, CenterPoint):
            return self.center
        if isinstance(p, EdgePoint):
            return self.edges[edge_index(p, self.n)](p.t)
        raise TypeError(f"not a star point: {p!r}")

    __call__ = eval

    def is_zero(self) -> bool:
        return self.center.is_zero() and all(e.is_zero() for e in self.edges)

    def __eq__(self, other):
        return (
            isinstance(other, UnitSpaceFunction)
            and (self.n, self.center, self.edges) == (other.n, other.center, other.edges)
        )

    def __repr__(self):
        return f"UnitSpaceFunction(n={self.n}, center={self.center})"


def conditional_expectation(f: AlgebraElement) -> UnitSpaceFunction:
    """Restriction to the unit space: diagonal strips plus the identity's value."""
    G = f.groupoid
    return UnitSpaceFunction(
        G.n,
        f.center_value(G.group.identity),
        [f.strip(i, i) for i in range(1, G.n + 1)],
    )


def induced_point_map(u: AlgebraElement):
    """The source-to-range map over the open support of a unitary u.

    Requires u*u = uu* = 1 and a single-valued map; a multi-valued support
    map means u does not implement a transformation of the star.
    """
    one = AlgebraElement.unit(u.groupoid)
    if u.adjoint() * u != one or u * u.adjoint() != one:
        raise NotNormalizerError("element is not unitary")
    return _support_point_map(u)


# -- the cross's central element as it was before the sign character: four
# -- sheet indicators summed by hand, and lambda read off four center values

def _cross_elements():
    sx, sy = parse_cycles("(1 2)", 4), parse_cycles("(3 4)", 4)
    return sx, sy, sx * sy


def cross_central_element_by_sheets(groupoid) -> AlgebraElement:
    sx, sy, sxy = _cross_elements()
    one = PPFun.one(4)
    return (
        from_sheet(groupoid, groupoid.group.identity, one)
        - from_sheet(groupoid, sx, one)
        - from_sheet(groupoid, sy, one)
        + from_sheet(groupoid, sxy, one)
    )


def lambda_scalar_by_four_values(g: AlgebraElement) -> Scalar:
    sx, sy, sxy = _cross_elements()
    return (
        g.center_value(g.groupoid.group.identity)
        - g.center_value(sx)
        - g.center_value(sy)
        + g.center_value(sxy)
    )


def evaluate_convolution_densely(f: AlgebraElement, g: AlgebraElement, germ) -> Scalar:
    """Sum f(a)g(b) over every factorization ab = germ, zero terms included:
    at a center germ one term per element of the group, at an edge germ
    (t, i, j) one per k with (i, k) and (k, j) admissible, each factor read
    through ``evaluate`` at a germ built for it."""
    G = f.groupoid
    if isinstance(germ, CenterGerm):
        total = ZERO
        for b in G.group:
            a = germ.sigma * b.inverse()
            total = total + f.evaluate(CenterGerm(a)) * g.evaluate(CenterGerm(b))
        return total
    total = ZERO
    for k in range(1, G.n + 1):
        if (germ.i, k) in G.admissible_pairs and (k, germ.j) in G.admissible_pairs:
            a = EdgeGerm(germ.t, k, germ.j)
            b = EdgeGerm(germ.t, germ.i, k)
            total = total + f.evaluate(a) * g.evaluate(b)
    return total


# -- group-algebra elements as {Permutation: Scalar} dicts with the zero
# -- values dropped: the operations as they were before the integer vector

def convolve_by_dict(f: dict, g: dict) -> dict:
    """Group-algebra convolution of {Permutation: Scalar} dicts straight
    from permutation products, zero values dropped."""
    out = {}
    for a, fa in f.items():
        for b, gb in g.items():
            ab = a * b
            prod = fa * gb
            out[ab] = out[ab] + prod if ab in out else prod
    return {s: c for s, c in out.items() if c}


def add_by_dict(f: dict, g: dict) -> dict:
    out = dict(f)
    for s, c in g.items():
        out[s] = out[s] + c if s in out else c
    return {s: c for s, c in out.items() if c}


def scale_by_dict(c, f: dict) -> dict:
    return {s: c * v for s, v in f.items() if c * v}


def adjoint_by_dict(f: dict) -> dict:
    return {s.inverse(): c.conjugate() for s, c in f.items()}


def pair_sums_by_dict(f: dict, n: int) -> dict:
    """{(i, j): sum of f(s) over s(i) = j}, zero sums dropped, by scanning
    every pair for every element."""
    out = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            total = ZERO
            for s, c in f.items():
                if s(i) == j:
                    total = total + c
            if total:
                out[(i, j)] = total
    return out


def is_canonical_vector(v) -> bool:
    """A GroupAlgebraElement's parts are canonical: positions ascending, no
    zero value, d > 0 and gcd(d, every numerator) == 1, zero over d = 1."""
    pos = v.positions
    return (
        list(pos) == sorted(set(pos)) and len(v.re) == len(v.im) == len(pos)
        and all(type(x) is int for x in (*pos, *v.re, *v.im, v.d))
        and all(a or b for a, b in zip(v.re, v.im))
        and v.d > 0 and gcd(v.d, *v.re, *v.im) == 1
        and (bool(pos) or v.d == 1)
    )


def inseparable_pairs(groupoid):
    """Every pair of group elements that agree on some edge, enumerated
    lazily: (a, b) with a before b in group order."""
    els = groupoid.group.elements
    for a in range(len(els)):
        for b in range(a + 1, len(els)):
            s, sp = els[a], els[b]
            if any(s(i) == sp(i) for i in range(1, groupoid.n + 1)):
                yield s, sp


# -- the star pipeline's checks as they were before it read no Cayley table:
# -- products in the group algebra and in the convolution algebra

def is_central_by_deltas(x) -> bool:
    """Whether x commutes with the delta of every generator (of every element
    for a group built without recorded generators), one product each way."""
    group = x.group
    for s in group.generators or group.elements:
        d = GroupAlgebraElement.delta(group, s)
        if x * d != d * x:
            return False
    return True


def is_kernel_projection_by_products(p) -> bool:
    """p p = p = p*, p central and pi(p) = 0, by products."""
    return (p * p == p == p.adjoint() and is_central_by_deltas(p)
            and integrated_rep(p).is_zero())


def is_unitary_by_products(x) -> bool:
    """x* x = x x* = 1 for a group-algebra or a convolution-algebra element."""
    if isinstance(x, GroupAlgebraElement):
        one = GroupAlgebraElement.unit(x.group)
    else:
        one = AlgebraElement.unit(x.groupoid)
    x_adj = x.adjoint()
    return x_adj * x == one and x * x_adj == one


# -- polynomials as trimmed tuples of Scalar coefficients, lowest degree first,
# -- zero as (): the kernels as they were before each piece became one integer
# -- tuple over one denominator (pmul as the schoolbook loop its integer form
# -- was checked against)

def scalar_ptrim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1].is_zero():
        coeffs.pop()
    return tuple(coeffs)


def scalar_pconst(c) -> tuple:
    return scalar_ptrim((as_scalar(c),))


def scalar_padd(p, q):
    n = max(len(p), len(q))
    return scalar_ptrim(
        (p[k] if k < len(p) else ZERO) + (q[k] if k < len(q) else ZERO)
        for k in range(n)
    )


def scalar_pmul(p, q):
    if not p or not q:
        return ()
    out = [ZERO] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return scalar_ptrim(out)


def scalar_pscale(c, p):
    c = as_scalar(c)
    if c.is_zero():
        return ()
    return scalar_ptrim(c * a for a in p)


def scalar_pconj(p):
    return tuple(a.conjugate() for a in p)


def scalar_peval(p, t) -> Scalar:
    t = as_scalar(t) if not isinstance(t, Fraction) else Scalar(t)
    acc = ZERO
    for c in reversed(p):
        acc = acc * t + c
    return acc


def _poly_entries(rng):
    """[12, a0, b0, a1, b1, ...]: a random polynomial of degree at most 2
    whose coefficients are drawn as random_scalar draws them, each put over
    12 = lcm(1, 2, 3, 4), a multiple of every denominator q, s drawn;
    neither trimmed nor reduced.  These are the getrandbits draws that
    ``random_piecewise`` makes for each piece, in the same order."""
    # _randint inlined: randint(0, 2) (3 values, 2 bits), then per coefficient
    # randint(-4, 4) (9 values, 4 bits) and randint(1, 4) (4 values, 3 bits)
    bits = rng.getrandbits
    deg = bits(2)
    while deg >= 3:
        deg = bits(2)
    out = [12]
    for _ in range(deg + 1):
        p = bits(4)
        while p >= 9:
            p = bits(4)
        q = bits(3)
        while q >= 4:
            q = bits(3)
        r = bits(4)
        while r >= 9:
            r = bits(4)
        s = bits(3)
        while s >= 4:
            s = bits(3)
        out += (_OVER_12[p << 2 | q], _OVER_12[r << 2 | s])
    return out


def random_poly(rng):
    """A random polynomial as a canonical ``poly`` piece, drawn as
    ``random_piecewise`` draws each piece before shifting it."""
    return _canon(_poly_entries(rng))


# -- the sampler over Fraction and Scalar arithmetic, as it was before it drew
# -- canonical triples; it makes the same rng calls in the same order

_BREAK_POOL = [Fraction(a, b) for b in (2, 3, 4, 5) for a in range(1, b)]


def fraction_scalar(rng, span: int = 4) -> Scalar:
    re = Fraction(rng.randint(-span, span), rng.randint(1, span))
    im = Fraction(rng.randint(-span, span), rng.randint(1, span))
    return Scalar(re, im)


def fraction_poly(rng, max_deg: int = 2):
    deg = rng.randint(0, max_deg)
    return scalar_ptrim(fraction_scalar(rng) for _ in range(deg + 1))


def fraction_piecewise(rng, value_at_0, max_interior: int = 2) -> PiecewisePoly:
    interior = rng.sample(_BREAK_POOL, rng.randint(0, max_interior))
    breaks = sorted({Fraction(0), Fraction(1), *interior})
    polys = []
    level = value_at_0
    for lo, hi in zip(breaks, breaks[1:]):
        p = fraction_poly(rng)
        p = scalar_padd(p, scalar_pconst(level - scalar_peval(p, lo)))
        polys.append(p)
        level = scalar_peval(p, hi)
    return PiecewisePoly(breaks, polys)


def fraction_ppfun(n: int, rng) -> PPFun:
    center = fraction_scalar(rng)
    return PPFun(n, center, [fraction_piecewise(rng, center) for _ in range(n)])


# -- the breakpoint, open-set and germ draws as they were before the index
# -- tables and the getrandbits draw kernel: rng.randint, rng.sample over the
# -- Fractions themselves, and a sort per call

def randint_breaks(rng, max_interior: int = 2):
    # the pool holds neither 0 nor 1, and 1/2 twice (from 1/2 and 2/4)
    interior = rng.sample(_BREAK_POOL, rng.randint(0, max_interior))
    return [Fraction(0), *sorted(set(interior)), Fraction(1)]


def randint_open_set(n: int, rng) -> OpenStarSet:
    edges = []
    for _ in range(n):
        ivs = []
        for _ in range(rng.randint(0, 2)):
            a, b = sorted(rng.sample(_BREAK_POOL + [Fraction(0), Fraction(1)], 2))
            if a < b:
                ivs.append((a, b, b == 1 and rng.random() < 0.5))
        edges.append(ivs)
    s = OpenStarSet(n, False, edges)
    if rng.random() < 0.3:
        eps = rng.choice(_BREAK_POOL)
        s = s.union(OpenStarSet(n, True, [[(Fraction(0), eps, False)]] * n))
    return s


def edge_interval(n: int, edge: int, a, b, include_b=False) -> OpenStarSet:
    """The open set of one interval on one edge of the n-star."""
    if not 1 <= edge <= n:
        raise ValueError(f"edge {edge} outside 1..{n}")
    edges = [[] for _ in range(n)]
    edges[edge - 1] = [(a, b, include_b)]
    return OpenStarSet(n, False, edges)


def germ_of(groupoid, sigma: Permutation, p):
    """The germ of the group element sigma at the star point p."""
    if sigma not in groupoid.group:
        raise GermError(f"{sigma} is not in the acting group")
    if isinstance(p, CenterPoint):
        return CenterGerm(sigma)
    if isinstance(p, EdgePoint):
        return EdgeGerm(p.t, p.edge, sigma(p.edge))
    raise TypeError(f"not a star point: {p!r}")


def randint_germ(groupoid, rng):
    if rng.random() < 0.3:
        return CenterGerm(rng.choice(groupoid.group.elements))
    pair = rng.choice(sorted(groupoid.admissible_pairs))
    t = Fraction(rng.randint(1, 24), 24)
    return EdgeGerm(t, pair[0], pair[1])


def validate_by_fractions(breaks, polys) -> PiecewisePoly:
    """The validating constructor's checks over Fraction and Scalar values,
    in the same order and with the same messages."""
    breaks = tuple(Fraction(b) for b in breaks)
    polys = tuple(scalar_ptrim(p) for p in polys)
    if len(breaks) < 2 or len(polys) != len(breaks) - 1:
        raise ValueError("breakpoint/piece count mismatch")
    if breaks[0] != 0 or breaks[-1] != 1:
        raise ValueError("breakpoints must run from 0 to 1")
    if any(a >= b for a, b in zip(breaks, breaks[1:])):
        raise ValueError("breakpoints must be strictly increasing")
    for k in range(1, len(polys)):
        if scalar_peval(polys[k - 1], breaks[k]) != scalar_peval(polys[k], breaks[k]):
            raise ValueError(f"discontinuity at t={breaks[k]}")
    return PiecewisePoly(breaks, [from_scalars(p) for p in polys], _checked=True)


def norm_intervals_by_wrapping(intervals):
    """Open edge intervals normalized with every endpoint wrapped in Fraction."""
    ivs = []
    for a, b, inc in intervals:
        a, b = Fraction(a), Fraction(b)
        if inc and b != 1:
            raise ValueError("a closed right endpoint is only allowed at 1")
        if not (0 <= a < b <= 1):
            raise ValueError(f"bad interval ({a},{b})")
        ivs.append((a, b, bool(inc)))
    ivs.sort()
    out = []
    for a, b, inc in ivs:
        if out and a < out[-1][1]:
            pa, pb, pinc = out[-1]
            if b > pb:
                out[-1] = (pa, b, inc)
            elif b == pb:
                out[-1] = (pa, pb, pinc or inc)
        else:
            out.append((a, b, inc))
    return tuple(out)


# -- the algebra-element sampler as it was before it built one element: the
# -- zero element plus one validated sheet element per draw, added one at a
# -- time; it makes the same rng calls in the same order

def random_algebra_element_by_sheets(groupoid, rng, sheets: int = 3) -> AlgebraElement:
    out = AlgebraElement.zero(groupoid)
    for _ in range(sheets):
        sigma = rng.choice(groupoid.group.elements)
        out = out + from_sheet(groupoid, sigma, random_ppfun(groupoid.n, rng))
    return out


# -- the open-set lattice as it was before the trusted path: every result is
# -- normalized twice (once by the operation, once by the constructor),
# -- comparing Fractions

def open_set_by_wrapping(n, contains_center, edges) -> OpenStarSet:
    """The validating constructor with every edge normalized by
    norm_intervals_by_wrapping."""
    edges = tuple(norm_intervals_by_wrapping(e) for e in edges)
    if len(edges) != n:
        raise ValueError(f"expected interval data for {n} edges")
    if contains_center:
        for i, ivs in enumerate(edges, start=1):
            if not ivs or ivs[0][0] != 0:
                raise ValueError(f"set contains the center but misses (0,eps) on edge {i}")
    return OpenStarSet(n, contains_center, edges, _checked=True)


def union_by_renormalizing(x, y) -> OpenStarSet:
    edges = [norm_intervals_by_wrapping(a + b) for a, b in zip(x.edges, y.edges)]
    return open_set_by_wrapping(x.n, x.contains_center or y.contains_center, edges)


def intersect_by_renormalizing(x, y) -> OpenStarSet:
    edges = []
    for xs, ys in zip(x.edges, y.edges):
        out = []
        for a1, b1, c1 in xs:
            for a2, b2, c2 in ys:
                a = max(a1, a2)
                if b1 < b2:
                    b, inc = b1, c1
                elif b2 < b1:
                    b, inc = b2, c2
                else:
                    b, inc = b1, c1 and c2
                if a < b:
                    out.append((a, b, inc))
        edges.append(norm_intervals_by_wrapping(out))
    return open_set_by_wrapping(x.n, x.contains_center and y.contains_center, edges)


def act_on_open_set_by_renormalizing(sigma, x) -> OpenStarSet:
    edges = [None] * x.n
    for i in range(1, x.n + 1):
        edges[sigma(i) - 1] = list(x.edges[i - 1])
    return open_set_by_wrapping(x.n, x.contains_center, edges)


# -- finite groupoids in dict form, as the constructors built them before the
# -- index came straight from the Cayley table: keyword arguments of the
# -- validating ``FiniteGroupoid`` constructor

def hom_by_table(group, gens, images):
    """The map the generator words assign (first word found wins), if it
    sends each generator to its image and respects every product of the
    Cayley table; else None."""
    hom = {group.identity: Permutation.identity(images[0].n if images else group.n)}
    frontier = [group.identity]
    while frontier:
        new = []
        for g in frontier:
            for s, img in zip(gens, images):
                if s * g not in hom:
                    hom[s * g] = img * hom[g]
                    new.append(s * g)
        frontier = new
    if any(hom[s] != img for s, img in zip(gens, images)):
        return None
    els = group.elements
    for a, row in enumerate(group.table.tolist()):
        for b, ab in enumerate(row):
            if hom[els[ab]] != hom[els[a]] * hom[els[b]]:
                return None
    return hom


def transformation_by_dicts(points, group, action=None) -> dict:
    """The action groupoid's arrows (g, y): y -> g(y), labelled by g's cycle
    string, with one composition entry per composable pair."""
    els = group.elements
    if action is None:
        action = {g: g for g in group}
    units = list(range(1, points + 1))
    label = [g.cycle_string() for g in els]
    inverse = group.inverse_index.tolist()
    arrows = []
    src, rng, inv = {}, {}, {}
    into = {x: [] for x in units}  # into[x]: the arrows with range x, as (position of h, y)
    for k, g in enumerate(els):
        for y in units:
            a = (label[k], y)
            arrows.append(a)
            src[a] = y
            rng[a] = action[g](y)
            inv[a] = (label[inverse[k]], action[g](y))
            into[action[g](y)].append((k, y))
    unit_arrow = {x: ("()", x) for x in units}
    compose = {}
    for k, row in enumerate(group.table):
        row = row.tolist()
        for x in units:
            for h, y in into[x]:
                compose[((label[k], x), (label[h], y))] = (label[row[h]], y)
    return dict(units=units, arrows=arrows, src=src, rng=rng, unit_arrow=unit_arrow,
                compose=compose, inv=inv)


def equivalence_by_dicts(blocks) -> dict:
    """The equivalence-relation groupoid: one arrow (x, y): y -> x per
    related pair, and (x, y) (y, z) = (x, z)."""
    units = sorted({p for blk in blocks for p in blk})
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
    return dict(units=units, arrows=arrows, src=src, rng=rng, unit_arrow=unit_arrow,
                compose=compose, inv=inv)


def faithfulness_by_subsets(G, seed: int = 0):
    """(holds, failing kernel): every one of the 2^k - 1 sums of minimal
    central blocks tried in bitmask order for a nonzero diagonal fixed point."""
    split = minimal_central_projections(G, seed)
    k = split.blocks
    for mask in range(1, 1 << k):
        S = [i for i in range(k) if mask >> i & 1]
        meets, _ = _diagonal_meets(G, sum(split.projections[i] for i in S))
        if not meets:
            return False, tuple(S)
    return True, None


# -- the minimum-norm preimage by rational row reduction over |G| columns, and
# -- in closed form for 2-transitive groups

def _integrated_system(group):
    """Matrix of the integrated representation as a linear map from group
    coefficients (columns, in group order) to matrix entries (rows)."""
    elems = list(group)
    n = group.n
    rows = []
    for r in range(n):
        for c in range(n):
            rows.append([ONE if s(c + 1) == r + 1 else ZERO for s in elems])
    return elems, rows


def rref_preimage(target: Matrix, group) -> GroupAlgebraElement:
    """min_norm_preimage for any group: solve the linear system exactly, then
    subtract the projection of the particular solution onto the kernel (Gram
    solve, all rational).  The oracle for min_norm_preimage while |G| is
    small."""
    elems, rows = _integrated_system(group)
    rhs = target.vec()
    x0 = solve(rows, rhs)
    if x0 is None:
        raise PreimageObstruction(
            "target is not in the span of the group's permutation matrices"
        )
    kernel = nullspace(rows, len(elems))
    if kernel:
        # Gram solve: coefficients of the projection of x0 onto the kernel;
        # the Gram matrix is hermitian, so compute the upper half only
        m = len(kernel)
        gram = [[None] * m for _ in range(m)]
        for r in range(m):
            for c in range(r, m):
                val = _hdot(kernel[c], kernel[r])
                gram[r][c] = val
                gram[c][r] = val.conjugate()
        proj_rhs = [_hdot(x0, kr) for kr in kernel]
        coefs = solve(gram, proj_rhs)
        if coefs is None:
            raise InternalCheckError("positive-definite Gram system failed to solve")
        for c, k in zip(coefs, kernel):
            x0 = [a - c * b for a, b in zip(x0, k)]
        for k in kernel:
            if _hdot(x0, k):
                raise InternalCheckError("projection left a kernel component")
    result = GroupAlgebraElement(group, dict(zip(elems, x0)))
    if integrated_rep(result) != target:
        raise InternalCheckError("preimage does not map to the target")
    return result


def pair_incidence(group) -> np.ndarray:
    """The dense (i, sigma(i)) incidence P, n^2 x |G|, read off the
    elements' images: entry [(i-1)*n + (j-1), k] is 1 when elements[k]
    sends i to j.  An object array, so products with it are exact."""
    n = group.n
    inc = np.zeros((n * n, len(group)), dtype=object)
    for k, s in enumerate(group.elements):
        for i, j in enumerate(s.images, 1):
            inc[(i - 1) * n + (j - 1), k] = 1
    return inc


def fourier_preimage(target: Matrix, group) -> GroupAlgebraElement:
    """min_norm_preimage for a 2-transitive group and a target in the image,
    in closed form, as P^T y over the pair incidence P.  2-transitivity
    makes P P^T equal to |G|/n on the diagonal, |G|/(n(n-1)) between pairs
    (i, j), (k, l) with i != k and j != l, and 0 elsewhere.  On the image of
    P (the trivial representation plus one irreducible of degree n-1; Serre,
    Linear Representations of Finite Groups, 6.2) it is inverted by

        y_(i,j) = (n^2 (n-1) T[j, i] - (n-2) sum(T)) / (n^2 |G|),

    and P^T y is the Fourier inversion
    a_s = ((n-1) tr(pi(s)^T T) - (n-2) c) / |G| with c = sum(T) / n.
    """
    assert group.is_two_transitive
    n = group.n
    cells = [row[i] for i in range(n) for row in target.rows]
    shift = (n - 2) * sum(cells, ZERO)
    scale, den = n * n * (n - 1), n * n * len(group)
    y = [(scale * t - shift) / den for t in cells]
    # P^T y over the lcm of y's denominators, in the row order of P
    d = lcm(*[x._d for x in y])
    inc = pair_incidence(group)
    re = (_int_array([x._a * (d // x._d) for x in y]) @ inc).tolist()
    im = (_int_array([x._b * (d // x._d) for x in y]) @ inc).tolist()
    return _reduced(group, range(len(group)), re, im, d)


def _hdot(xs, ys) -> Scalar:
    acc = ZERO
    for x, y in zip(xs, ys):
        if x and y:
            acc = acc + x * y.conjugate()
    return acc


def render_scalar_by_fractions(s: Scalar) -> str:
    """``render_scalar`` through the ``Fraction`` parts ``re`` and ``im``."""
    re, im = s.re, s.im
    if im == 0:
        return str(re)
    if re == 0:
        return f"{im}i"
    sign = "+" if im > 0 else "-"
    return f"{re}{sign}{abs(im)}i"


def cycles_by_set_walk(s: Permutation) -> list:
    """The nontrivial cycles of s from its minima, one set lookup per point."""
    seen = set()
    out = []
    for start in range(1, s.n + 1):
        if start in seen:
            continue
        cyc = [start]
        seen.add(start)
        j = s(start)
        while j != start:
            cyc.append(j)
            seen.add(j)
            j = s(j)
        if len(cyc) > 1:
            out.append(tuple(cyc))
    return out


def cycle_string_by_cycles(s: Permutation) -> str:
    cycs = cycles_by_set_walk(s)
    if not cycs:
        return "()"
    return "".join("(" + " ".join(str(i) for i in cyc) + ")" for cyc in cycs)


def sign_by_cycles(s: Permutation) -> int:
    sign = 1
    for cyc in cycles_by_set_walk(s):
        if len(cyc) % 2 == 0:
            sign = -sign
    return sign
