import random
import re
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from germoid.perms import (
    CycleParseError,
    PermGroup,
    Permutation,
    action_table,
    parse_count,
    parse_cycles,
)
from oracles import (
    cycle_string_by_cycles,
    cycles_by_set_walk,
    hom_by_table,
    pair_incidence,
    sign_by_cycles,
)

perm4_st = st.permutations(range(1, 5)).map(Permutation)


def test_parse_and_print():
    s = parse_cycles("(1 2)(3 4)", 4)
    assert s.images == (2, 1, 4, 3)
    assert s.cycle_string() == "(1 2)(3 4)"
    assert parse_cycles("()", 4).is_identity()
    assert parse_cycles("(1 2 3)", 4).images == (2, 3, 1, 4)


@given(perm4_st)
def test_print_parse_roundtrip(s):
    assert parse_cycles(s.cycle_string(), 4) == s


@pytest.mark.parametrize("value, count", [
    (4, 4), (4.0, 4), (1e17, 10**17), ("4", 4), (" 12\n", 12), ("\u0663", 3),
])
def test_parse_count_reads_integers(value, count):
    got = parse_count(value, "k")
    assert got == count and type(got) is int


@pytest.mark.parametrize("value", [
    True, False, 4.5, float("nan"), float("inf"), "4.5", "1_0", "-3", "", "\u00b2", None, [4],
])
def test_parse_count_refuses_everything_else(value):
    with pytest.raises(ValueError, match="^k must be an integer, not "):
        parse_count(value, "k")


def test_parse_rejects_bad_input():
    with pytest.raises(CycleParseError):
        parse_cycles("(1 2 3)(1 2)", 4)  # repeated symbol across cycles
    with pytest.raises(CycleParseError):
        parse_cycles("(1 1)", 4)
    with pytest.raises(CycleParseError):
        parse_cycles("(1 5)", 4)  # out of range
    with pytest.raises(CycleParseError):
        parse_cycles("1 2", 4)
    with pytest.raises(CycleParseError):
        parse_cycles("", 4)
    with pytest.raises(CycleParseError):
        parse_cycles("(1 x)", 4)


@given(perm4_st, perm4_st, st.integers(min_value=1, max_value=4))
def test_product_composes_like_functions(s, t, i):
    assert (s * t)(i) == s(t(i))


@given(perm4_st)
def test_inverse(s):
    assert (s * s.inverse()).is_identity()
    assert s.inverse().inverse() == s


@pytest.mark.parametrize("images", [(1, 1, 3), (0, 1, 2), (2, 3, 4), (1, 2, 2, 5), (3, 1)])
def test_constructor_rejects_non_permutations(images):
    with pytest.raises(ValueError):
        Permutation(images)


@given(perm4_st, perm4_st)
def test_unchecked_products_and_inverses_are_permutations(s, t):
    # products and inverses skip validation; the checked constructor agrees
    for p in (s * t, s.inverse(), Permutation.identity(4)):
        assert type(p.images) is tuple
        assert Permutation(p.images) == p
        assert hash(Permutation(list(p.images))) == hash(p)


def test_sign():
    assert parse_cycles("(1 2)", 4).sign() == -1
    assert parse_cycles("(1 2 3)", 4).sign() == 1
    assert parse_cycles("(1 2)(3 4)", 4).sign() == 1
    assert Permutation.identity(4).sign() == 1


def test_cycle_walk_matches_the_set_walk():
    rng = random.Random(29)
    perms = list(map(Permutation, permutations(range(1, 6))))
    for n in (9, 12):
        for _ in range(200):
            images = list(range(1, n + 1))
            rng.shuffle(images)
            perms.append(Permutation(images))
    for s in perms:
        assert s.cycles() == cycles_by_set_walk(s)
        assert s.cycle_string() == cycle_string_by_cycles(s)
        assert s.sign() == sign_by_cycles(s)
        assert parse_cycles(s.cycle_string(), s.n) == s


@pytest.mark.parametrize("group", [
    PermGroup.symmetric(5), PermGroup.alternating(6), PermGroup.klein_cross(),
    PermGroup.trivial(1), PermGroup.cyclic(300),  # 300 points: two-byte keys
    PermGroup.generate(6, [parse_cycles("(1 2 3)(4 5 6)", 6), parse_cycles("(1 4)(2 5)", 6)]),
], ids=lambda G: f"{len(G)}_on_{G.n}")
def test_positions_search_the_image_rows(group):
    rng = random.Random(len(group))
    order = list(range(len(group)))
    rng.shuffle(order)
    images = group._images[order]
    assert group._positions(images).tolist() == order
    assert group._positions(images[:0]).tolist() == []
    # a row that is no element's, below, between or past the keys
    for row in ([group.n - 1 - i for i in range(group.n)],
                [0] * group.n, [group.n - 1] * group.n):
        if tuple(x + 1 for x in row) not in {s.images for s in group}:
            with pytest.raises(KeyError):
                group._positions(np.vstack([group._images[:1], [row]]))


def test_build_group_closures():
    klein = PermGroup.generate(4, [parse_cycles("(1 2)", 4), parse_cycles("(3 4)", 4)])
    assert len(klein) == 4
    assert len(PermGroup.generate(4, [])) == 1
    a4 = PermGroup.generate(4, [parse_cycles("(1 2 3)", 4), parse_cycles("(1 2 4)", 4)])
    assert len(a4) == 12
    assert a4 == PermGroup.alternating(4)


def test_build_group_rejects_bad_generators():
    with pytest.raises(ValueError):
        PermGroup.generate(4, [parse_cycles("(1 2 3)", 3)])  # wrong degree
    with pytest.raises(ValueError):
        PermGroup.generate(4, ["(1 2)"])  # not a Permutation


def test_named_groups():
    assert len(PermGroup.symmetric(4)) == 24
    assert len(PermGroup.alternating(5)) == 60
    assert len(PermGroup.cyclic(4)) == 4
    assert len(PermGroup.klein_cross()) == 4
    assert all(g.is_even() for g in PermGroup.alternating(4))
    assert PermGroup.trivial(3).elements == (Permutation.identity(3),)


@pytest.mark.parametrize("kind, n", [("A", n) for n in range(1, 8)]
                         + [("S", n) for n in range(1, 7)])
def test_enumerated_groups_equal_their_closures(kind, n):
    """A_n and S_n, listed by enumeration, are the closures of the 3-cycles
    (1 2 k) and of the adjacent transpositions, and keep those generators."""
    if kind == "A":
        G, cycles = PermGroup.alternating(n), [f"(1 2 {k})" for k in range(3, n + 1)]
    else:
        G, cycles = PermGroup.symmetric(n), [f"({i} {i + 1})" for i in range(1, n)]
    gens = [parse_cycles(c, n) for c in cycles]
    closure = PermGroup.generate(n, gens)
    assert G.elements == closure.elements
    assert G.generators == closure.generators == tuple(gens)
    assert G.identity == closure.identity and G == closure


def test_alternating_groups_keep_the_even_permutations_in_order():
    """The Lehmer-code parity flags keep what ``is_even`` keeps, in order."""
    for n in range(1, 9):
        listed = map(Permutation._trusted, permutations(range(1, n + 1)))
        assert PermGroup.alternating(n).elements == tuple(filter(Permutation.is_even, listed))


def test_mulclose_matches_group_axioms():
    g = PermGroup.alternating(4)
    for a in g:
        assert a.inverse() in g
        for b in g:
            assert a * b in g


def test_extend_homomorphism_trivial_action():
    z2 = PermGroup.generate(2, [parse_cycles("(1 2)", 2)])
    act = action_table(z2, [Permutation.identity(1)], 1)
    assert act.tolist() == [[0], [0]]


def test_extend_homomorphism_rejects_inconsistent():
    z2 = PermGroup.generate(2, [parse_cycles("(1 2)", 2)])
    # (1 2) has order 2 but a 3-cycle does not: no homomorphism
    with pytest.raises(ValueError, match="^generator images do not define a homomorphism$"):
        action_table(z2, [parse_cycles("(1 2 3)", 3)], 3)


@pytest.mark.parametrize("images, points, message", [
    ([], 2, "one image per generator required"),
    (["(1 2)", "()"], 2, "one image per generator required"),
    (["(1 2)"], 3, "generator images must permute 1..3"),
])
def test_action_table_refuses_a_malformed_image_list(images, points, message):
    z2 = PermGroup.generate(2, [parse_cycles("(1 2)", 2)])
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        action_table(z2, [parse_cycles(c, 2) for c in images], points)


def test_action_table_refuses_generators_that_miss_elements():
    s3 = PermGroup.symmetric(3)
    # S3's elements with generators that reach only a subgroup, or none at all
    for group in (PermGroup(3, s3.elements, [parse_cycles("(1 2)", 3)]),
                  PermGroup(3, s3.elements)):
        images = [Permutation.identity(1)] * len(group.generators)
        with pytest.raises(ValueError, match="^generators do not generate the group$"):
            action_table(group, images, 1)
    # the faithful action, given by the generators' own images
    assert action_table(s3, list(s3.generators), 3).tolist() == [
        [i - 1 for i in g.images] for g in s3.elements]


def _perms(n):
    return st.permutations(range(1, n + 1)).map(Permutation)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_extend_homomorphism_accepts_exactly_the_table_homomorphisms(data):
    n = data.draw(st.integers(1, 4), label="degree")
    gens = data.draw(st.lists(_perms(n), min_size=1, max_size=3), label="generators")
    group = PermGroup.generate(n, gens)
    kind = data.draw(st.sampled_from(["random", "random", "trivial", "sign", "conjugate"]))
    m = n if kind == "conjugate" else data.draw(st.integers(1, 4), label="target degree")
    if kind == "random":
        images = data.draw(st.lists(_perms(m), min_size=len(gens), max_size=len(gens)))
    elif kind == "trivial":
        images = [Permutation.identity(m)] * len(gens)
    elif kind == "sign":
        t = parse_cycles("(1 2)" if m > 1 else "()", m)
        images = [Permutation.identity(m) if s.is_even() else t for s in gens]
    else:
        c = data.draw(_perms(n), label="conjugator")
        images = [c * s * c.inverse() for s in gens]
    expected = hom_by_table(group, gens, images)
    try:
        act = action_table(group, images, m)
    except ValueError as exc:
        assert expected is None
        assert str(exc) == "generator images do not define a homomorphism"
    else:
        assert expected is not None
        assert act.dtype == np.intp
        assert act.tolist() == [[i - 1 for i in expected[g].images] for g in group.elements]


# -- the index over element positions --------------------------------------------

INDEXED_GROUPS = {
    "trivial": lambda: PermGroup.trivial(3),
    "klein_cross": PermGroup.klein_cross,
    "Z5": lambda: PermGroup.cyclic(5),
    "S3": lambda: PermGroup.symmetric(3),
    "S4": lambda: PermGroup.symmetric(4),
    "A4": lambda: PermGroup.alternating(4),
    "A5": lambda: PermGroup.alternating(5),
    "A6": lambda: PermGroup.alternating(6),
    "S4 without generators": lambda: PermGroup(4, PermGroup.symmetric(4).elements),
}


@pytest.mark.parametrize("make", INDEXED_GROUPS.values(), ids=INDEXED_GROUPS.keys())
def test_table_and_inverse_index_match_permutation_products(make):
    G = make()
    els = G.elements
    assert G.index == {s: k for k, s in enumerate(els)}
    table = G.table
    assert table.shape == (len(G), len(G))
    for a, row in zip(els, table.tolist()):
        assert [els[k] for k in row] == [a * b for b in els]
    assert [els[k] for k in G.inverse_index] == [s.inverse() for s in els]
    assert [els[k] for k in G.fixing] == [
        s for s in els if not s.is_identity() and s.fixed_points()
    ]
    assert G.fixed_counts.tolist() == [len(s.fixed_points()) for s in els]


def test_table_sampled_on_a7():
    G = PermGroup.alternating(7)
    els, table, inverse = G.elements, G.table, G.inverse_index
    rng = random.Random(7)
    for _ in range(3000):
        a, b = rng.randrange(len(els)), rng.randrange(len(els))
        assert els[table[a, b]] == els[a] * els[b]
        assert els[inverse[a]] == els[a].inverse()
    assert len(G.fixing) == 1589


def test_index_is_built_once_per_group():
    G = PermGroup.alternating(4)
    assert G.table is G.table
    assert G.inverse_index is G.inverse_index
    assert G.fixing is G.fixing


# values whose sums fit int64; whose P x fits but whose P^T P x may not, on
# the larger groups; whose P x does not; and values past int64 themselves
@pytest.mark.parametrize("span", [9, 2**53, 2**62, 2**70])
@pytest.mark.parametrize("group", [
    *(pytest.param(PermGroup.alternating(n), id=f"A{n}") for n in range(3, 7)),
    pytest.param(PermGroup(4, PermGroup.symmetric(4).elements), id="S4 without generators"),
    pytest.param(PermGroup.generate(3, [parse_cycles("(1 2)", 3)]), id="Z2 on 3 points"),
])
def test_chi_times_is_p_transpose_p_over_the_dense_incidence(group, span):
    rng = random.Random(span)
    x = [rng.randint(-span, span) for _ in group]
    inc = pair_incidence(group)
    got = group.chi_times(x)
    assert got == ((inc @ np.array(x, dtype=object)) @ inc).tolist()
    assert all(type(v) is int for v in got)
