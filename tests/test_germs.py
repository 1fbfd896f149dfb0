import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from germoid.germs import (
    MAX_STAR_EDGES,
    MAX_STAR_GROUP_ORDER,
    WITNESS_LIMIT,
    CenterGerm,
    EdgeGerm,
    GermError,
    GermGroupoid,
    parse_star_spec,
    require_star_group_order,
)
from germoid.perms import GroupTooLarge, PermGroup, Permutation, parse_cycles
from germoid.sampling import random_germ
from germoid.starspace import CENTER, EdgePoint, act
from oracles import inseparable_pairs


def unit_at(groupoid, p):
    return groupoid.germ_of(groupoid.group.identity, p)


@pytest.fixture
def cross():
    return GermGroupoid.cross()


@pytest.fixture
def star4():
    return GermGroupoid.star(4)


def test_germ_of_collapses_on_edges(cross):
    # (3 4) acts trivially on edge 1, so its germ there is the unit germ
    sy = parse_cycles("(3 4)", 4)
    p = EdgePoint(1, Fraction(1, 2))
    assert cross.germ_of(sy, p) == EdgeGerm(Fraction(1, 2), 1, 1)
    assert cross.germ_of(sy, p) == unit_at(cross, p)
    # but at the center the germs of distinct elements stay distinct
    assert cross.germ_of(sy, CENTER) != cross.germ_of(cross.group.identity, CENTER)


def test_germ_of_examples(cross):
    assert cross.germ_of(cross.group.identity, CENTER) == CenterGerm(
        Permutation.identity(4)
    )
    sx = parse_cycles("(1 2)", 4)
    assert cross.germ_of(sx, EdgePoint(1, Fraction(1, 3))) == EdgeGerm(Fraction(1, 3), 1, 2)
    with pytest.raises(GermError):
        cross.germ_of(parse_cycles("(1 3)", 4), CENTER)  # not in the group


def test_source_range_inverse(cross):
    g = EdgeGerm(Fraction(1, 2), 1, 2)
    assert cross.source(g) == EdgePoint(1, Fraction(1, 2))
    assert cross.range(g) == EdgePoint(2, Fraction(1, 2))
    assert cross.inverse(g) == EdgeGerm(Fraction(1, 2), 2, 1)
    c = CenterGerm(parse_cycles("(1 2)", 4))
    assert cross.source(c) == CENTER
    assert cross.range(c) == CENTER
    assert cross.inverse(c) == c  # an involution is its own inverse


def test_compose(star4):
    t = Fraction(1, 3)
    assert star4.compose(EdgeGerm(t, 2, 3), EdgeGerm(t, 1, 2)) == EdgeGerm(t, 1, 3)
    s = parse_cycles("(1 2 3)", 4)
    assert star4.compose(
        CenterGerm(s), CenterGerm(s.inverse())
    ) == CenterGerm(Permutation.identity(4))
    with pytest.raises(GermError):
        star4.compose(CenterGerm(s), EdgeGerm(t, 1, 2))
    with pytest.raises(GermError):
        star4.compose(EdgeGerm(t, 2, 3), EdgeGerm(t, 1, 3))  # sources do not match
    with pytest.raises(GermError):
        star4.compose(EdgeGerm(t, 2, 3), EdgeGerm(Fraction(1, 4), 1, 2))


def test_admissibility(cross):
    # the cross group never maps edge 1 to edge 3
    assert not cross.contains(EdgeGerm(Fraction(1, 2), 1, 3))
    with pytest.raises(GermError):
        cross.source(EdgeGerm(Fraction(1, 2), 1, 3))
    assert cross.contains(EdgeGerm(Fraction(1, 2), 1, 2))


def test_composition_associativity_random(star4, rng):
    done = 0
    while done < 60:
        x, y, z = (random_germ(star4, rng) for _ in range(3))
        try:
            lhs = star4.compose(x, star4.compose(y, z))
        except GermError:
            continue
        rhs = star4.compose(star4.compose(x, y), z)
        assert lhs == rhs
        done += 1


def test_inverse_laws_random(star4, rng):
    for _ in range(60):
        g = random_germ(star4, rng)
        assert star4.inverse(star4.inverse(g)) == g
        unit = unit_at(star4, star4.range(g))
        assert star4.compose(g, star4.inverse(g)) == unit


def test_germ_of_respects_products(star4, rng):
    for _ in range(60):
        s = rng.choice(star4.group.elements)
        t = rng.choice(star4.group.elements)
        p = rng.choice(
            [CENTER] + [EdgePoint(i, Fraction(1, 5)) for i in range(1, 5)]
        )
        lhs = star4.compose(star4.germ_of(s, act(t, p)), star4.germ_of(t, p))
        assert lhs == star4.germ_of(s * t, p)


def test_isotropy_description(cross, star4):
    iso = cross.isotropy_description()
    assert len(iso) == 3
    assert all(isinstance(g, CenterGerm) for g in iso)
    assert len(star4.isotropy_description()) == len(star4.group) - 1 == 11
    trivial = GermGroupoid(3, PermGroup.trivial(3))
    assert trivial.isotropy_description() == []


def test_essentially_principal(cross, star4):
    for G in (cross, star4, GermGroupoid.cyclic_star(4)):
        flag, witnesses = G.essentially_principal_check()
        assert flag is True
        assert witnesses == []


def test_set_up_and_diagnostics_match_the_per_element_walks():
    for G in (GermGroupoid.cross(), GermGroupoid.star(4), GermGroupoid.star(6),
              GermGroupoid.cyclic_star(5), GermGroupoid(3, PermGroup.trivial(3)),
              GermGroupoid(5, PermGroup.symmetric(5)),
              GermGroupoid(6, PermGroup.generate(6, [parse_cycles("(1 2)(3 4)", 6)]))):
        pairs = {(i, s(i)) for s in G.group for i in range(1, G.n + 1)}
        assert G.admissible_pairs == frozenset(pairs)
        assert all(x.__class__ is int for pair in G.admissible_pairs for x in pair)
        assert G.isotropy_description() == [
            CenterGerm(s) for s in G.group if not s.is_identity()]
        assert G.essentially_principal_check() == (True, [])


def test_hausdorff_cross(cross):
    result = cross.hausdorff_check()
    assert result.hausdorff is False
    ident = Permutation.identity(4)
    sy = parse_cycles("(3 4)", 4)
    assert any({a, b} == {ident, sy} for a, b in result.witnesses)  # (3 4) fixes edges 1,2


def test_hausdorff_free_actions():
    for G in (GermGroupoid.cyclic_star(4), GermGroupoid(3, PermGroup.trivial(3))):
        result = G.hausdorff_check()
        assert result.hausdorff is True and result.witnesses == [] and result.count == 0


def test_hausdorff_star4(star4):
    result = star4.hausdorff_check()
    assert result.hausdorff is False and len(result.witnesses) > 0
    # every reported pair really does agree on some edge
    for a, b in result.witnesses:
        assert any(a(i) == b(i) for i in range(1, 5))


@pytest.mark.parametrize(
    "groupoid",
    [
        GermGroupoid.cross(),
        GermGroupoid.star(4),
        GermGroupoid(4, PermGroup.symmetric(4)),
        GermGroupoid.star(5),
        GermGroupoid.cyclic_star(5),
        GermGroupoid.star(6),
        GermGroupoid(3, PermGroup.trivial(3)),
    ],
    ids=["cross", "A4", "S4", "A5", "Z5", "A6", "trivial"],
)
def test_hausdorff_count_and_witnesses_match_the_enumeration(groupoid):
    pairs = inseparable_pairs(groupoid)
    result = groupoid.hausdorff_check()
    assert result.count == len(pairs)
    assert result.witnesses == pairs[:WITNESS_LIMIT]
    assert result.exhaustive == (len(pairs) <= WITNESS_LIMIT)
    assert result.hausdorff == (not pairs)


def test_group_must_match_edge_count():
    with pytest.raises(ValueError):
        GermGroupoid(5, PermGroup.alternating(4))


def test_parse_star_spec():
    g = parse_star_spec({"n": 4, "group": "A4"})
    assert g == GermGroupoid.star(4)
    g = parse_star_spec({"n": 4, "generators": ["(1 2)", "(3 4)"]})
    assert g == GermGroupoid.cross()
    assert parse_star_spec({"n": 4, "group": "Z4"}) == GermGroupoid.cyclic_star(4)
    assert len(parse_star_spec({"n": 3, "group": "S3"}).group) == 6
    with pytest.raises(ValueError):
        parse_star_spec({"group": "A4"})
    with pytest.raises(ValueError):
        parse_star_spec({"n": 4, "group": "B4"})
    with pytest.raises(ValueError):
        parse_star_spec({"n": 3, "group": "A4"})


# -- the star-group order cap ---------------------------------------------------------

@pytest.mark.parametrize("n", range(1, 8))
def test_named_group_orders_match_the_built_groups(n):
    for kind, make in (("A", PermGroup.alternating), ("S", PermGroup.symmetric),
                       ("Z", PermGroup.cyclic)):
        if n == 7 and kind == "S":
            with pytest.raises(GroupTooLarge):
                require_star_group_order("S", 7)
            continue
        assert require_star_group_order(kind, n) == len(make(n))


def test_a7_is_the_largest_alternating_star_group_admitted():
    assert MAX_STAR_GROUP_ORDER == 2520
    assert require_star_group_order("A", 7) == 2520
    assert require_star_group_order("Z", 2520) == 2520
    for kind, n in (("A", 8), ("Z", 2521), ("S", 10**6)):
        with pytest.raises(GroupTooLarge, match="more than 2520"):
            require_star_group_order(kind, n)
    assert len(parse_star_spec({"n": 7, "group": "A7"}).group) == 2520


@pytest.mark.parametrize(
    "spec",
    [
        {"n": 9, "group": "S9"},
        {"n": 8, "group": "A8"},
        {"n": 7, "group": "S7"},
        {"n": 99, "group": "S99"},
        {"n": 100, "group": "A100"},
        {"n": 9, "generators": ["(1 2)", "(1 2 3 4 5 6 7 8 9)"]},
        {"n": 7, "generators": ["(1 2)", "(1 2 3 4 5 6 7)"]},
    ],
)
def test_oversized_star_groups_are_refused_fast(spec):
    started = time.monotonic()
    with pytest.raises(GroupTooLarge):
        parse_star_spec(spec)
    assert time.monotonic() - started < 1.0


@pytest.mark.parametrize("n", [MAX_STAR_EDGES + 1, 10**6, 1e17, "33660080802"])
def test_star_specs_past_the_edge_bound_are_refused_fast(n):
    started = time.monotonic()
    for spec in ({"n": n}, {"n": n, "group": "Z101"}, {"n": n, "generators": ["(1 2)"]}):
        with pytest.raises(ValueError, match="edge count"):
            parse_star_spec(spec)
    assert time.monotonic() - started < 1.0
    assert len(parse_star_spec({"n": MAX_STAR_EDGES}).group) == 1


_json = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 9) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                               max_size=3),
    max_leaves=6,
)
_cycle_texts = st.one_of(
    st.lists(st.lists(st.integers(-1, 7), max_size=4), max_size=3).map(
        lambda cycles: "".join("(" + " ".join(map(str, c)) + ")" for c in cycles)
    ),
    st.text(alphabet="()0123456789 ,-x", max_size=12),
)
_group_names = st.one_of(
    st.builds(lambda k, m: f"{k}{m}", st.sampled_from("ASZBa"), st.integers(-1, 9)),
    st.sampled_from(["trivial", "klein_cross", "", "A", "S٣", "Z²", "A04"]),
    _json,
)
_star_specs = st.one_of(
    st.fixed_dictionaries(
        {"n": st.integers(-1, 7) | _json},
        optional={"group": _group_names, "generators": st.lists(_cycle_texts, max_size=3) | _json},
    ),
    _json,
)


@settings(max_examples=300, deadline=None)
@given(_star_specs)
def test_parse_star_spec_parses_or_raises_value_error(spec):
    try:
        G = parse_star_spec(spec)
    except ValueError:
        return
    assert isinstance(G, GermGroupoid) and len(G.group) <= MAX_STAR_GROUP_ORDER
