"""Permutations of edge indices {1..n} and finite permutation groups.

Groups are stored as explicit element sets closed under product and inverse,
built by breadth-first closure from generators; S_n and A_n are listed
straight from ``itertools.permutations`` instead.  Products compose like
functions: (sigma * tau)(i) = sigma(tau(i)).

Each group also carries an index over the positions of its elements in
``elements``, built lazily and cached on the group object: ``index`` (element
to position), ``inverse_index``, ``signs`` (each element's sign, the sign
character), ``fixed_counts`` (each element's number of fixed points),
``fixing`` (the non-identity elements with a fixed point), the
(i, sigma(i)) codes ``pair_codes``, the integer Cayley table
``table`` and ``chi_minimal_polynomial``, the integer minimal polynomial of
the fixed-point count as an element of the group algebra.  Every loop over
pairs of group elements reads its products from the table instead of
multiplying ``Permutation`` objects.

An action on other points is given by the generators' images, in order;
``action_table`` walks the Cayley table to the action array and checks it.
"""

from __future__ import annotations

import re as _re
from functools import cached_property
from itertools import compress, permutations

import numpy as np

from .linalg import solve
from .scalars import Scalar


class CycleParseError(ValueError):
    pass


class GroupTooLarge(ValueError):
    """A closure grew past its element limit."""


_new = object.__new__


class Permutation:
    """A bijection of {1..n}, stored as the tuple of images of 1..n."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        n = len(images)
        if sorted(images) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {images}")
        self.images = images

    @classmethod
    def _trusted(cls, images: tuple) -> "Permutation":
        """A permutation from an image tuple known to be valid, unchecked."""
        p = _new(cls)
        p.images = images
        return p

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls._trusted(tuple(range(1, n + 1)))

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if self.n != other.n:
            raise ValueError("size mismatch")
        images = self.images
        return Permutation._trusted(tuple([images[j - 1] for j in other.images]))

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, j in enumerate(self.images, start=1):
            inv[j - 1] = i
        return Permutation._trusted(tuple(inv))

    def is_identity(self) -> bool:
        return all(j == i for i, j in enumerate(self.images, start=1))

    def fixed_points(self):
        return [i for i, j in enumerate(self.images, start=1) if i == j]

    def cycles(self):
        """Nontrivial cycles, each rotated to start at its minimum, sorted:
        one walk over ``images``, which ``sign`` and ``cycle_string`` share."""
        images = self.images
        seen = [False] * len(images)
        out = []
        for start, j in enumerate(images, 1):
            # each cycle is met first at its minimum, so a start needs no
            # seen flag: the walk never comes back to it
            if j != start and not seen[start - 1]:
                cyc = [start]
                while j != start:
                    seen[j - 1] = True
                    cyc.append(j)
                    j = images[j - 1]
                out.append(tuple(cyc))
        return out

    def sign(self) -> int:
        # a k-cycle is a product of k - 1 transpositions
        cycs = self.cycles()
        return -1 if (sum(map(len, cycs)) - len(cycs)) & 1 else 1

    def is_even(self) -> bool:
        return self.sign() == 1

    def cycle_string(self) -> str:
        cycs = self.cycles()
        # a tuple of two or more ints prints as "(1, 2, ...)"
        return "".join(map(str, cycs)).replace(",", "") if cycs else "()"

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __lt__(self, other):
        return self.images < other.images

    def __str__(self):
        return self.cycle_string()

    def __repr__(self):
        return f"Permutation({self.images})"


_CYCLE_TOKEN = _re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str, n: int) -> Permutation:
    """Parse cycle notation like "(1 2)(3 4)" for a permutation of {1..n}.

    "()" is the identity.  A symbol may appear in at most one cycle; repeats
    are rejected rather than composed.
    """
    stripped = text.replace(",", " ")
    body = _CYCLE_TOKEN.sub("", stripped).strip()
    if body:
        raise CycleParseError(f"malformed cycle notation: {text!r}")
    images = list(range(1, n + 1))
    used = set()
    matched_any = False
    for m in _CYCLE_TOKEN.finditer(stripped):
        matched_any = True
        parts = m.group(1).split()
        if not parts:
            continue  # "()" term: identity
        try:
            entries = [int(p) for p in parts]
        except ValueError:
            raise CycleParseError(f"malformed cycle notation: {text!r}") from None
        for e in entries:
            if not 1 <= e <= n:
                raise CycleParseError(f"symbol {e} out of range 1..{n}")
            if e in used:
                raise CycleParseError(f"symbol {e} appears in more than one cycle")
            used.add(e)
        for a, b in zip(entries, entries[1:] + entries[:1]):
            images[a - 1] = b
    if not matched_any:
        raise CycleParseError(f"malformed cycle notation: {text!r}")
    return Permutation(images)


def parse_count(value, name: str) -> int:
    """A count from a JSON spec: an int, an integral float or a string of
    decimal digits.  Anything else, a bool, 4.5 or "1_0" among them, raises
    ``ValueError`` naming the count, rather than being read as 1, truncated
    or read by ``int``'s wider rules."""
    if not (isinstance(value, int) and not isinstance(value, bool)
            or isinstance(value, float) and value.is_integer()
            or isinstance(value, str) and value.strip().isdecimal()):
        raise ValueError(f"{name} must be an integer, not {value!r}")
    return int(value)


def parse_list(value, name: str):
    """A list from a JSON spec.  A string, which iteration would read
    character by character, or any other value that is not a list raises
    ``ValueError`` naming the key."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{name} must be a list, not {value!r}")
    return value


def refuse_unknown_keys(spec, known, what: str) -> None:
    """Raise ``ValueError`` naming the first key of a JSON spec object that
    its form does not read, rather than silently dropping it."""
    for key in spec:
        if key not in known:
            raise ValueError(f"unknown key {key!r} in {what}")


def mulclose(generators, limit=None):
    """Breadth-first closure of a generator set under products; raises
    ``GroupTooLarge`` once it holds more than ``limit`` elements."""
    gens = list(generators)
    els = set(gens)
    if limit is not None and len(els) > limit:
        raise GroupTooLarge(f"closure exceeded {limit} elements")
    boundary = list(els)
    while boundary:
        new = []
        for a in gens:
            for b in boundary:
                c = a * b
                if c not in els:
                    els.add(c)
                    new.append(c)
                    if limit is not None and len(els) > limit:
                        raise GroupTooLarge(f"closure exceeded {limit} elements")
        boundary = new
    return els


def _int_array(values) -> np.ndarray:
    """values as int64 when any sum of them fits, as Python ints otherwise."""
    bound = len(values) * max(map(abs, values), default=0)
    return np.array(values, dtype=np.int64 if bound < 1 << 63 else object)


def _row_keys(rows: np.ndarray, n: int) -> np.ndarray:
    """Each row of 0-based images of a permutation of n points as one
    fixed-width byte string: big-endian unsigned ints of the smallest width
    that holds n - 1, so that byte order is the lexicographic order of the
    rows."""
    width = 1 if n <= 1 << 8 else 2 if n <= 1 << 16 else 4
    rows = np.ascontiguousarray(rows, dtype=f">u{width}")
    return rows.view(np.dtype((np.void, n * width))).reshape(rows.shape[:-1])


class PermGroup:
    """A finite group of permutations of {1..n}, closed and with identity."""

    def __init__(self, n: int, elements, generators=()):
        for g in elements:
            if g.n != n:
                raise ValueError(f"element {g} does not act on 1..{n}")
        self._set(n, tuple(sorted(set(elements))), generators)
        if self.identity not in self._members:
            raise ValueError("group does not contain the identity")

    def _set(self, n: int, elements: tuple, generators):
        """Store sorted, distinct elements that act on 1..n."""
        self.n = n
        self.elements = elements
        self._members = frozenset(elements)
        self.generators = tuple(generators)
        self.identity = Permutation.identity(n)

    @classmethod
    def generate(cls, n: int, generators, limit=None) -> "PermGroup":
        """Closure of the generators; raises ``GroupTooLarge`` past ``limit``
        elements."""
        gens = list(generators)
        for g in gens:
            if not isinstance(g, Permutation):
                raise ValueError(f"not a permutation: {g!r}")
            if g.n != n:
                raise ValueError(f"generator {g} does not act on 1..{n}")
        ident = Permutation.identity(n)
        els = mulclose(gens + [ident], limit)
        return cls(n, els, gens)

    @classmethod
    def trivial(cls, n: int) -> "PermGroup":
        return cls.generate(n, [])

    @classmethod
    def symmetric(cls, n: int) -> "PermGroup":
        """All permutations, generated by the adjacent transpositions."""
        gens = []
        for i in range(1, n):
            images = list(range(1, n + 1))
            images[i - 1], images[i] = images[i], images[i - 1]
            gens.append(Permutation(images))
        return cls._enumerated(n, gens, even_only=False)

    @classmethod
    def alternating(cls, n: int) -> "PermGroup":
        """The even permutations, generated by the 3-cycles (1 2 k)."""
        gens = []
        for k in range(3, n + 1):
            images = list(range(1, n + 1))
            images[0], images[1], images[k - 1] = 2, k, 1
            gens.append(Permutation(images))
        return cls._enumerated(n, gens, even_only=True)

    @classmethod
    def _enumerated(cls, n: int, gens, even_only: bool) -> "PermGroup":
        """S_n, or A_n if ``even_only``, listed by ``itertools.permutations``
        in lexicographic order, which is the sorted order of ``elements``.

        The k-th permutation in that order has the parity of the digit sum
        of k in the factorial base (its Lehmer code), so A_n keeps the
        positions whose flag, built digit by digit, is even."""
        images = permutations(range(1, n + 1))
        if even_only:
            even = [1]
            for m in range(2, n + 1):
                even = [(i & 1) ^ e for i in range(m) for e in even]
            images = compress(images, even)
        G = cls.__new__(cls)
        G._set(n, tuple(map(Permutation._trusted, images)), gens)
        return G

    @classmethod
    def cyclic(cls, n: int) -> "PermGroup":
        if n == 1:
            return cls.trivial(1)
        shift = Permutation([i % n + 1 for i in range(1, n + 1)])
        return cls.generate(n, [shift])

    @classmethod
    def klein_cross(cls) -> "PermGroup":
        """The order-4 group on a 4-edge star: <(1 2), (3 4)>."""
        return cls.generate(4, [parse_cycles("(1 2)", 4), parse_cycles("(3 4)", 4)])

    @cached_property
    def orbital_count(self) -> int:
        """Burnside's count of the orbitals, the orbits on ordered pairs of
        points: sum_s fix(s)^2 / |G|.  It is the dimension of the commutant
        of the permutation representation, spanned by the orbital indicators."""
        return int((self.fixed_counts ** 2).sum()) // len(self)

    @property
    def is_two_transitive(self) -> bool:
        """Two orbitals, the diagonal and its complement."""
        return self.orbital_count == 2

    # -- the index over element positions -------------------------------------

    @cached_property
    def index(self) -> dict:
        """Position of each element in ``elements``."""
        return {s: k for k, s in enumerate(self.elements)}

    @cached_property
    def _images(self) -> np.ndarray:
        """Row k holds the images of elements[k], shifted to 0..n-1."""
        return np.array([s.images for s in self.elements], dtype=np.intp) - 1

    @cached_property
    def _image_keys(self) -> np.ndarray:
        """``_row_keys`` of the image rows, ascending: ``elements`` is sorted
        by its image tuples."""
        return _row_keys(self._images, self.n)

    def _positions(self, images: np.ndarray) -> np.ndarray:
        """Positions of the elements whose 0-based image rows are given, by
        one binary search over the row keys; raises ``KeyError`` on a row
        that is no element's."""
        pos = np.searchsorted(self._image_keys, _row_keys(images, self.n)).astype(np.int32)
        # a row past the last key, or between two, is no element's
        found = (self._images[np.minimum(pos, len(self) - 1)] == images).all(axis=1)
        if not found.all():
            raise KeyError(tuple(images[np.argmin(found)].tolist()))
        return pos

    @cached_property
    def inverse_index(self) -> np.ndarray:
        """inverse_index[k] is the position of elements[k]^-1."""
        img = self._images
        inv = np.empty_like(img)
        # elements[k] sends i to img[k, i], so its inverse sends img[k, i] to i
        inv[np.arange(len(img))[:, None], img] = np.arange(self.n)
        return self._positions(inv)

    @cached_property
    def signs(self) -> tuple:
        """signs[k] is the sign of elements[k], 1 or -1."""
        return tuple(s.sign() for s in self.elements)

    @cached_property
    def fixed_counts(self) -> np.ndarray:
        """fixed_counts[k] is the number of points elements[k] fixes; only
        the identity, elements[0], fixes all n."""
        return (self._images == np.arange(self.n)).sum(1)

    @cached_property
    def fixing(self) -> np.ndarray:
        """Positions, ascending, of the non-identity elements that fix a point."""
        counts = self.fixed_counts
        return np.flatnonzero((counts > 0) & (counts < self.n))

    @cached_property
    def pair_codes(self) -> np.ndarray:
        """The (i, sigma(i)) incidence as codes: row k holds the 0-based codes
        (i-1)*n + sigma(i)-1, i = 1..n, for sigma = elements[k]."""
        return np.arange(self.n) * self.n + self._images

    @cached_property
    def pair_code_rows(self) -> tuple:
        """``pair_codes`` as a tuple of int tuples, for Python loops."""
        return tuple(map(tuple, self.pair_codes.tolist()))

    def chi_times(self, x) -> list:
        """Q x for Q = P^T P, P the pair incidence, and x an integer vector
        over the element positions.  Q[s, t] = #{i : s(i) = t(i)}, so Q is
        the convolution by chi, the central element whose value at s is the
        number of points s fixes.  P x is one exact ``np.add.at`` scatter over
        ``pair_codes`` and P^T a gather-sum over them, in int64 while
        ``_int_array`` admits it and in Python ints past it."""
        codes = self.pair_codes
        x = _int_array(x)
        pairs = np.zeros(self.n * self.n, dtype=x.dtype)
        np.add.at(pairs, codes.ravel(), x.repeat(self.n))
        return _int_array(pairs.tolist())[codes].sum(1).tolist()

    @cached_property
    def chi_minimal_polynomial(self) -> tuple:
        """The coefficients, lowest first, of the minimal polynomial mu of
        chi (see ``chi_times``).

        chi acts on the isotypic block of an irreducible rho as the scalar
        |G| m / d, for m the multiplicity of rho in the permutation
        representation and d its degree (Serre, Linear Representations of
        Finite Groups, 2.4 and 6.2).  So mu is monic with simple integer
        roots, and no root has to be found: the Krylov vectors
        chi^k = Q^k delta_e are stacked until the first that depends on the
        ones before, and that dependency is mu.  They are class functions,
        so the exact solve runs on the few distinct rows of the stack.
        """
        e = self.index[self.identity]
        powers = [[int(k == e) for k in range(len(self))]]
        while True:
            powers.append(self.chi_times(powers[-1]))
            rows = set(zip(*powers))
            c = solve([[Scalar(x) for x in r[:-1]] for r in rows],
                      [Scalar(r[-1]) for r in rows])
            if c is not None:
                break
        if any(x._d != 1 or x._b for x in c):
            raise ArithmeticError("chi's minimal polynomial is not integral")
        return tuple(-x._a for x in c) + (1,)

    @cached_property
    def table(self) -> np.ndarray:
        """The Cayley table: table[a, b] is the position of
        elements[a] * elements[b], as int32.

        Row a is the left multiplication by elements[a].  A generator's row
        is looked up from its image array, and every other row a = g * a'
        is row a' relabelled through the row of the generator g, one gather
        per row, in breadth-first order from the identity.  Rows that the
        recorded generators do not reach (a group built without them) are
        looked up directly.
        """
        m = len(self)
        img = self._images
        table = np.empty((m, m), dtype=np.int32)
        done = [False] * m
        e = self.index[self.identity]
        table[e] = np.arange(m)
        done[e] = True
        gens = []
        frontier = [e]
        for g in self.generators:
            k = self.index[g]
            if not done[k]:
                table[k] = self._positions(img[k][img])
                done[k] = True
                frontier.append(k)
            gens.append(k)
        while frontier:
            new = []
            for b in frontier:
                for g in gens:
                    a = table.item(g, b)
                    if not done[a]:
                        table[a] = table[g][table[b]]
                        done[a] = True
                        new.append(a)
            frontier = new
        for a in range(m):
            if not done[a]:
                table[a] = self._positions(img[a][img])
        return table

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, g):
        return g in self._members

    def __eq__(self, other):
        return (
            isinstance(other, PermGroup)
            and self.n == other.n
            and self._members == other._members
        )

    def __hash__(self):
        return hash((self.n, self._members))

    def __repr__(self):
        return f"PermGroup(n={self.n}, order={len(self)})"


def action_table(group: PermGroup, images, points: int) -> np.ndarray:
    """The action on {1..points} in which generators[k] acts as images[k]:
    row j holds the 0-based images of the points under elements[j].

    A walk from the identity sets row g h to images[g] applied to row h, for
    each generator g and each h on the frontier, and a row reached twice must
    agree.  So hom(s h) = hom(s) hom(h) on every generator edge, and that
    proves the homomorphism: writing w as a word in the generators (positive
    words suffice in a finite group) gives hom(w h) = hom(w) hom(h) by
    induction on the word length.
    """
    if len(images) != len(group.generators):
        raise ValueError("one image per generator required")
    if any(p.n != points for p in images):
        raise ValueError(f"generator images must permute 1..{points}")
    img = np.array([p.images for p in images], dtype=np.intp).reshape(len(images), points) - 1
    # gen_rows[k, h] is the position of generators[k] * elements[h]
    gen_rows = group.table[[group.index[g] for g in group.generators]]
    act = np.empty((len(group), points), dtype=np.intp)
    reached = np.zeros(len(group), dtype=bool)
    frontier = [group.index[group.identity]]
    act[frontier] = np.arange(points)
    reached[frontier] = True
    while frontier:
        # g h for each generator g, then h; rows[i] = images[g] applied to row h
        targets = gen_rows[:, frontier].ravel()
        rows = img[:, act[frontier]].reshape(-1, points)
        new = ~reached[targets]
        act[targets[new]] = rows[new]
        reached[targets] = True
        if (act[targets] != rows).any():
            raise ValueError("generator images do not define a homomorphism")
        frontier = list(set(targets[new].tolist()))
    if not reached.all():
        raise ValueError("generators do not generate the group")
    return act
