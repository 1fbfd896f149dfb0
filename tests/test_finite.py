import json
import time
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import germoid.finite
from germoid.cli import main as cli_main
from germoid.experiments import finite_experiment
from germoid.finite import (
    FiniteAlgebraElement,
    FiniteGroupoid,
    GroupoidAxiomError,
    _vec_adjoint,
    algebra_image_rank,
    center_basis_exact,
    diagonal_commutant_exact,
    diagonal_masa_check,
    faithfulness_check,
    intersection_property_check,
    key_inequality_check,
    minimal_central_projections,
    operator_norm,
    parse_finite_spec,
    principality,
    random_finite_element,
    regular_rep,
    restrict_to_units,
)
from germoid.linalg import nullspace
from germoid.perms import PermGroup, Permutation, parse_cycles
from germoid.scalars import ONE, ZERO

TOL = 1e-9


@pytest.fixture
def z3_free():
    return FiniteGroupoid.transformation(3, PermGroup.cyclic(3))


@pytest.fixture
def z2_point():
    z2 = PermGroup.generate(2, [parse_cycles("(1 2)", 2)])
    return FiniteGroupoid.trivial_action(1, z2)


# -- construction -----------------------------------------------------------------

def test_free_action_arrow_count(z3_free):
    assert len(z3_free.arrows) == 9  # |X| * |group|
    assert len(z3_free.units) == 3
    assert z3_free.orbits() == [[1, 2, 3]]
    assert all(z3_free.has_no_isotropy(x) for x in z3_free.units)


def test_trivial_action_isotropy(z2_point):
    assert len(z2_point.arrows) == 2
    assert len(z2_point.isotropy_arrows(1)) == 2
    assert not z2_point.has_no_isotropy(1)


def test_equivalence_relation_groupoid():
    E = FiniteGroupoid.equivalence([[1, 2], [3]])
    assert len(E.arrows) == 5
    assert E.orbits() == [[1, 2], [3]]
    F = FiniteGroupoid.full_equivalence(4)
    assert len(F.arrows) == 16
    with pytest.raises(ValueError):
        FiniteGroupoid.equivalence([[1, 2], [2, 3]])


def test_broken_composition_table_is_rejected():
    # two points, one arrow each way plus units, but a*b deliberately wrong
    units = ["x", "y"]
    arrows = {
        "x": ("x", "x"),
        "y": ("y", "y"),
        "a": ("x", "y"),  # a: x -> y
        "b": ("y", "x"),  # b: y -> x
    }
    compose = [
        ("x", "x", "x"), ("y", "y", "y"),
        ("a", "x", "a"), ("y", "a", "a"),
        ("b", "y", "b"), ("x", "b", "b"),
        ("b", "a", "x"), ("a", "b", "x"),  # a*b should be y, not x
    ]
    with pytest.raises(GroupoidAxiomError) as err:
        FiniteGroupoid.explicit(units, arrows, compose)
    assert err.value.witness is not None


def test_axiom_witnesses_name_the_problem():
    units = ["x"]
    arrows = {"x": ("x", "x"), "a": ("x", "x")}
    # missing compositions involving a
    with pytest.raises(GroupoidAxiomError):
        FiniteGroupoid.explicit(units, arrows, [("x", "x", "x")])


def test_transformation_action_must_be_a_homomorphism():
    z2 = PermGroup.generate(2, [parse_cycles("(1 2)", 2)])
    swap3 = parse_cycles("(1 2 3)", 3)
    from germoid.perms import Permutation

    bad = {g: (swap3 if not g.is_identity() else Permutation.identity(3)) for g in z2}
    with pytest.raises(ValueError):
        FiniteGroupoid.transformation(3, z2, bad)


# -- the algebra -------------------------------------------------------------------

def test_unit_element_and_norm(z3_free):
    one = FiniteAlgebraElement.unit(z3_free)
    assert abs(operator_norm(one) - 1.0) < TOL
    blocks = regular_rep(one)
    for M in blocks.values():
        assert np.allclose(M, np.eye(M.shape[0]))


def test_convolution_associativity_numeric(z3_free, rng):
    for _ in range(20):
        f = random_finite_element(z3_free, rng)
        g = random_finite_element(z3_free, rng)
        h = random_finite_element(z3_free, rng)
        lhs = ((f * g) * h).vector()
        rhs = (f * (g * h)).vector()
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_regular_rep_is_multiplicative(z3_free, rng):
    for _ in range(10):
        f = random_finite_element(z3_free, rng)
        g = random_finite_element(z3_free, rng)
        bf, bg, bfg = regular_rep(f), regular_rep(g), regular_rep(f * g)
        for x in z3_free.units:
            assert np.allclose(bf[x] @ bg[x], bfg[x], atol=1e-10)


def test_cstar_identity_numeric(z3_free, rng):
    for _ in range(25):
        f = random_finite_element(z3_free, rng)
        lhs = operator_norm(f.adjoint() * f)
        rhs = operator_norm(f) ** 2
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, rhs)


def test_full_matrix_block(z3_free):
    # free Z/3 on 3 points is the full relation on the orbit: a 3x3 block
    assert algebra_image_rank(z3_free) == 9
    assert len(center_basis_exact(z3_free)) == 1


def test_two_blocks_for_the_point_group(z2_point):
    assert len(center_basis_exact(z2_point)) == 2
    split = minimal_central_projections(z2_point, seed=4)
    assert split.blocks == 2
    assert split.idempotent_residual < 1e-9


# -- principality and the three properties ---------------------------------------------

def test_principality(z3_free, z2_point):
    assert principality(z3_free).principal
    assert principality(FiniteGroupoid.full_equivalence(3)).principal
    flags = principality(z2_point)
    assert not flags.principal and not flags.essentially_principal
    assert flags.witnesses  # the nontrivial isotropy arrow
    assert principality(z3_free).essentially_principal == principality(z3_free).principal


def test_masa_check(z3_free, z2_point):
    assert diagonal_masa_check(z3_free).is_masa
    assert diagonal_masa_check(FiniteGroupoid.units_only(3)).is_masa
    report = diagonal_masa_check(z2_point)
    assert not report.is_masa
    assert report.commutant_dim == 2 and report.units == 1
    assert report.witness is not None


def test_intersection_property(z3_free, z2_point):
    assert intersection_property_check(z3_free, seed=1).holds
    assert intersection_property_check(FiniteGroupoid.full_equivalence(2), seed=1).holds
    rep = intersection_property_check(z2_point, seed=1)
    assert not rep.holds
    assert len(rep.witnesses) >= 1  # a block missing the diagonal entirely


def test_faithfulness_agrees_with_intersection(z3_free, z2_point):
    corpus = [
        z3_free,
        z2_point,
        FiniteGroupoid.full_equivalence(2),
        FiniteGroupoid.full_equivalence(4),
        FiniteGroupoid.units_only(2),
        FiniteGroupoid.transformation(4, PermGroup.klein_cross()),
        FiniteGroupoid.transformation(3, PermGroup.symmetric(3)),
    ]
    for G in corpus:
        assert faithfulness_check(G, seed=2).holds == intersection_property_check(G, seed=2).holds


def test_essentially_principal_implies_properties():
    corpus = [
        FiniteGroupoid.transformation(3, PermGroup.cyclic(3)),
        FiniteGroupoid.transformation(4, PermGroup.cyclic(4)),
        FiniteGroupoid.transformation(2, PermGroup.symmetric(2)),
        FiniteGroupoid.full_equivalence(2),
        FiniteGroupoid.full_equivalence(3),
        FiniteGroupoid.full_equivalence(4),
        FiniteGroupoid.equivalence([[1, 2], [3, 4]]),
        FiniteGroupoid.units_only(5),
        FiniteGroupoid.transformation(4, PermGroup.klein_cross()),
        FiniteGroupoid.transformation(4, PermGroup.alternating(4)),
        FiniteGroupoid.transformation(3, PermGroup.symmetric(3)),
    ]
    for G in corpus:
        assert len(G.arrows) <= 200
        if principality(G).essentially_principal:
            assert intersection_property_check(G, seed=3).holds, G
            assert diagonal_masa_check(G).is_masa, G


# -- the key inequality -----------------------------------------------------------------

def test_key_inequality_no_violations(z3_free):
    report = key_inequality_check(z3_free, trials=300, seed=9)
    assert report.holds
    assert report.violations == []
    assert report.units_tested == 3
    assert report.pairing_exact


def test_key_inequality_equality_case(z3_free):
    # the indicator of one unit has value 1 there and operator norm 1
    x = z3_free.units[0]
    f = FiniteAlgebraElement.delta(z3_free, z3_free.unit_arrow[x])
    assert abs(operator_norm(f) - 1.0) < TOL
    assert f.coeff(z3_free.unit_arrow[x]) == 1.0


def test_key_inequality_skips_isotropy_units(z2_point):
    report = key_inequality_check(z2_point, trials=10, seed=0)
    assert report.units_tested == 0  # the only unit has isotropy
    assert report.holds


# -- the conditional expectation ------------------------------------------------------------

def test_expectation_positive_and_faithful(z3_free, rng):
    for _ in range(25):
        f = random_finite_element(z3_free, rng)
        e = restrict_to_units(f.adjoint() * f)
        for x, v in e.items():
            assert v.real >= -1e-12 and abs(v.imag) < 1e-12
            # fiber sum oracle
            expected = sum(
                abs(f.coeff(a)) ** 2 for a in z3_free.source_fiber(x)
            )
            assert abs(v - expected) < 1e-9
        if f.coeffs:
            assert any(abs(v) > 1e-12 for v in e.values())


# -- JSON specs -------------------------------------------------------------------------------

def test_parse_transformation_spec():
    G = parse_finite_spec(
        {"transformation": {"points": 3, "group_generators": ["(1 2 3)"]}}
    )
    assert len(G.arrows) == 9


def test_parse_trivial_action_spec():
    G = parse_finite_spec(
        {
            "transformation": {
                "points": 1,
                "group_degree": 2,
                "group_generators": ["(1 2)"],
                "action": ["()"],
            }
        }
    )
    assert len(G.arrows) == 2
    assert not principality(G).principal


def test_parse_equivalence_spec():
    G = parse_finite_spec({"equivalence": {"blocks": [[1, 2, 3]]}})
    assert len(G.arrows) == 9
    assert principality(G).principal


def test_parse_explicit_spec():
    spec = {
        "units": ["x"],
        "arrows": [
            {"id": "x", "src": "x", "rng": "x"},
            {"id": "g", "src": "x", "rng": "x"},
        ],
        "compose": [
            ["x", "x", "x"], ["x", "g", "g"], ["g", "x", "g"], ["g", "g", "x"],
        ],
    }
    G = parse_finite_spec(spec)
    assert len(G.arrows) == 2
    assert not diagonal_masa_check(G).is_masa


def test_parse_rejects_unknown():
    with pytest.raises(ValueError):
        parse_finite_spec({"nonsense": 1})


def test_partial_faithfulness_verdict_is_reported():
    # 13 one-point blocks: more than subset_cap=12, so only single blocks are tried
    assert faithfulness_check(FiniteGroupoid.units_only(13)).exhaustive is False
    spec = {"equivalence": {"blocks": [[x] for x in range(1, 14)]}}
    report = finite_experiment(spec, trials=2, seed=1)
    check = report.checks[3]
    assert check.name.startswith("faithful-on-diagonal implies faithful")
    assert "(partial: single-block kernels only)" in report.render_text()
    assert check.witness == {"kernels_checked": 13, "exhaustive": False}
    full = finite_experiment({"equivalence": {"blocks": [[1, 2], [3]]}}, trials=2, seed=1)
    assert full.checks[3].name == (
        "faithful-on-diagonal implies faithful agrees with the ideal check"
    )
    assert full.checks[3].witness == {"kernels_checked": 3, "exhaustive": True}


# -- oracles: the dict loops and the rational row reduction that the composition
# -- index and the closed forms replaced

def _pointwise_mul(f, g):
    out = {}
    for (a, b), c in f.groupoid.compose.items():
        fa, gb = f.coeffs.get(a), g.coeffs.get(b)
        if fa and gb:
            out[c] = out.get(c, 0j) + fa * gb
    return FiniteAlgebraElement(f.groupoid, out)


def _loop_regular_rep(f):
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


def _rref_center(G):
    """Commutation with every arrow indicator, solved by row reduction.
    Rows are built sparse and repeats dropped: the reduced echelon form, hence
    the basis, depends only on the row space."""
    m = len(G.arrows)
    rows = set()
    for g in G.arrows:
        gi = G.inv[g]
        for w in G.arrows:
            row = {}
            if G.src[w] == G.src[g]:
                k = G.index[G.compose[(w, gi)]]
                row[k] = row.get(k, 0) + 1
            if G.rng[w] == G.rng[g]:
                k = G.index[G.compose[(gi, w)]]
                row[k] = row.get(k, 0) - 1
            rows.add(tuple(sorted((k, v) for k, v in row.items() if v)))
    rows.discard(())
    dense = []
    for row in sorted(rows):
        vec = [ZERO] * m
        for k, v in row:
            vec[k] = ONE * v
        dense.append(vec)
    return nullspace(dense, m)


def _rref_commutant(G):
    m = len(G.arrows)
    rows = []
    for x in G.units:
        for w in G.arrows:
            coeff = (G.src[w] == x) - (G.rng[w] == x)
            if coeff:
                row = [ZERO] * m
                row[G.index[w]] = ONE * coeff
                rows.append(row)
    return nullspace(rows, m)


ORACLE_SPECS = {
    "s4_on_4": {"transformation": {"points": 4, "group_generators": ["(1 2)", "(1 2 3 4)"]}},
    "z5_on_5": {"transformation": {"points": 5, "group_generators": ["(1 2 3 4 5)"]}},
    "klein_cross_on_4": {"transformation": {"points": 4, "group_generators": ["(1 2)", "(3 4)"]}},
    "equivalence": {"equivalence": {"blocks": [[1, 2, 3], [4, 5], [6]]}},
    "s3_trivial_on_1": {"transformation": {"points": 1, "group_degree": 3,
                                           "group_generators": ["(1 2)", "(1 2 3)"],
                                           "action": ["()", "()"]}},
    "explicit_z2": {"units": ["x"],
                    "arrows": [{"id": "x", "src": "x", "rng": "x"},
                               {"id": "g", "src": "x", "rng": "x"}],
                    "compose": [["x", "x", "x"], ["x", "g", "g"], ["g", "x", "g"],
                                ["g", "g", "x"]]},
    "s5_on_5": {"transformation": {"points": 5, "group_generators": ["(1 2)", "(1 2 3 4 5)"]}},
    "a5_on_5": {"transformation": {"points": 5, "group_generators": ["(1 2 3)", "(1 2 3 4 5)"]}},
}


@lru_cache(maxsize=None)
def _oracle_groupoid(name):
    return parse_finite_spec(ORACLE_SPECS[name])


@pytest.mark.parametrize("name", ORACLE_SPECS)
def test_convolution_and_adjoint_match_the_loops(name, rng):
    G = _oracle_groupoid(name)
    for _ in range(3):
        f, g = random_finite_element(G, rng), random_finite_element(G, rng)
        assert np.allclose((f * g).vector(), _pointwise_mul(f, g).vector(),
                           rtol=0, atol=1e-12 * len(G.arrows))
        assert np.array_equal(_vec_adjoint(G, f.vector()), f.adjoint().vector())


@pytest.mark.parametrize("name", ORACLE_SPECS)
def test_regular_rep_matches_the_loop(name, rng):
    G = _oracle_groupoid(name)
    f = random_finite_element(G, rng)
    new, old = regular_rep(f), _loop_regular_rep(f)
    assert list(new) == list(old)
    for x in G.units:
        assert np.array_equal(new[x], old[x])  # one coefficient per cell, exactly


@pytest.mark.parametrize("name", ORACLE_SPECS)
def test_center_and_commutant_equal_the_rref_bases(name):
    G = _oracle_groupoid(name)
    assert center_basis_exact(G) == _rref_center(G)
    assert diagonal_commutant_exact(G) == _rref_commutant(G)


def test_centrality_residual_matches_the_pointwise_products():
    G = _oracle_groupoid("s4_on_4")
    split = minimal_central_projections(G, seed=3)
    worst = 0.0
    for z in split.projections:
        ze = FiniteAlgebraElement.from_vector(G, z)
        for a in G.arrows:
            da = FiniteAlgebraElement.delta(G, a)
            diff = _pointwise_mul(ze, da).vector() - _pointwise_mul(da, ze).vector()
            worst = max(worst, float(np.linalg.norm(diff)))
    assert abs(split.centrality_residual - worst) < 1e-14


def test_one_center_split_serves_both_checks(monkeypatch):
    calls = []
    exact = germoid.finite.center_basis_exact
    monkeypatch.setattr(germoid.finite, "center_basis_exact",
                        lambda G: calls.append(G) or exact(G))
    G = FiniteGroupoid.transformation(4, PermGroup.klein_cross())
    intersection_property_check(G, seed=5)
    faithfulness_check(G, seed=5)
    assert len(calls) == 1
    assert minimal_central_projections(G, seed=5) is minimal_central_projections(G, seed=5)
    minimal_central_projections(G, seed=6)
    assert len(calls) == 2


# -- every axiom failure of the constructor, with its witness ---------------------

def _z2_point(**broken):
    """One unit x and one self-inverse arrow g, with pieces replaced."""
    data = {
        "units": ["x"],
        "arrows": ["x", "g"],
        "src": {"x": "x", "g": "x"},
        "rng": {"x": "x", "g": "x"},
        "unit_arrow": {"x": "x"},
        "compose": {("x", "x"): "x", ("x", "g"): "g", ("g", "x"): "g", ("g", "g"): "x"},
        "inv": {"x": "x", "g": "g"},
    }
    for key, change in broken.items():
        data[key] = change(data[key])
    return FiniteGroupoid(**data)


def _pair(**broken):
    """Units x, y and the arrows a: x -> y, b: y -> x, with pieces replaced."""
    data = {
        "units": ["x", "y"],
        "arrows": ["x", "y", "a", "b"],
        "src": {"x": "x", "y": "y", "a": "x", "b": "y"},
        "rng": {"x": "x", "y": "y", "a": "y", "b": "x"},
        "unit_arrow": {"x": "x", "y": "y"},
        "compose": {("x", "x"): "x", ("y", "y"): "y", ("a", "x"): "a", ("y", "a"): "a",
                    ("b", "y"): "b", ("x", "b"): "b", ("b", "a"): "x", ("a", "b"): "y"},
        "inv": {"x": "x", "y": "y", "a": "b", "b": "a"},
    }
    for key, change in broken.items():
        data[key] = change(data[key])
    return FiniteGroupoid(**data)


def _with(**entries):
    return lambda d: {**d, **entries}


def _set(key, value):
    return lambda d: {**d, key: value}


def _without(key):
    return lambda d: {k: v for k, v in d.items() if k != key}


def _one_unit_table(rows, inverse=None):
    """One unit e and arrows e, a, b, ... whose products follow the rows of a
    Cayley table over their positions."""
    names = "eabcd"[: len(rows)]
    triples = [(p, q, names[int(r[j])]) for p, r in zip(names, rows) for j, q in enumerate(names)]
    return FiniteGroupoid.explicit(["e"], {n: ("e", "e") for n in names}, triples, inverse)


AXIOM_FAILURES = [
    ("repeated unit", lambda: _z2_point(units=lambda u: u + u), ("x", "x")),
    ("arrow without source/range in units", lambda: _z2_point(src=_with(g="y")), "g"),
    ("missing or misplaced unit arrow", lambda: _z2_point(unit_arrow=lambda u: {}), "x"),
    ("missing or misplaced unit arrow", lambda: _pair(unit_arrow=_with(y="a")), "y"),
    ("composition table domain mismatch",
     lambda: _z2_point(compose=_without(("g", "g"))), ("g", "g")),
    ("composition table domain mismatch",
     lambda: _pair(compose=_set(("a", "a"), "a")), ("a", "a")),
    ("composition lands outside arrows",
     lambda: _z2_point(compose=_set(("g", "g"), "z")), ("g", "g", "z")),
    ("composition breaks source/range laws",
     lambda: _pair(compose=_set(("a", "b"), "x")), ("a", "b", "x")),
    ("left unit law fails", lambda: _z2_point(compose=_set(("x", "g"), "x")), "g"),
    ("right unit law fails", lambda: _z2_point(compose=_set(("g", "x"), "x")), "g"),
    ("missing inverse", lambda: _z2_point(inv=_without("g")), "g"),
    ("inverse swaps source and range", lambda: _pair(inv=_with(a="a")), "a"),
    # Z/3 with every arrow declared its own inverse
    ("inverse law a^-1 a fails",
     lambda: _one_unit_table(["012", "120", "201"], {"e": "e", "a": "a", "b": "b"}), "a"),
    # b a = e but a b = b
    ("inverse law a a^-1 fails",
     lambda: _one_unit_table(["012", "121", "201"], {"e": "e", "a": "b", "b": "a"}), "a"),
    # the order-5 loop: five self-inverse arrows, not associative
    ("associativity fails",
     lambda: _one_unit_table(["01234", "10342", "24013", "32401", "43120"]), ("a", "a", "b")),
]


@pytest.mark.parametrize("message, build, witness", AXIOM_FAILURES,
                         ids=[f"{m}-{k}" for k, (m, _, _) in enumerate(AXIOM_FAILURES)])
def test_every_axiom_failure_names_its_witness(message, build, witness):
    with pytest.raises(GroupoidAxiomError) as err:
        build()
    assert str(err.value).startswith(message + ";")
    assert err.value.witness == witness


# -- spec parsing: size bound and fuzzing ------------------------------------------

@pytest.mark.parametrize("n", [6, 8])
def test_symmetric_group_specs_past_the_bound_are_refused_fast(n, tmp_path, capsys):
    n_cycle = "(" + " ".join(str(i) for i in range(1, n + 1)) + ")"
    spec = {"transformation": {"points": n, "group_generators": ["(1 2)", n_cycle]}}
    started = time.monotonic()
    with pytest.raises(ValueError, match="too large"):
        parse_finite_spec(spec)
    path = tmp_path / "big.json"
    path.write_text(json.dumps(spec))
    assert cli_main(["finite", "--spec", str(path)]) == 1
    assert time.monotonic() - started < 1.0
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: bad finite spec: ") and "\n" not in err


def test_groupoids_past_the_arrow_bound_are_refused():
    with pytest.raises(ValueError, match="arrows"):
        FiniteGroupoid.units_only(germoid.finite.MAX_ARROWS + 1)
    with pytest.raises(ValueError, match="arrows"):
        parse_finite_spec({"equivalence": {"blocks": [list(range(1, 46))]}})  # 2025 arrows
    with pytest.raises(ValueError, match="arrows"):
        parse_finite_spec({"transformation": {"points": 2001}})


def test_s5_on_5_points_is_within_the_bound():
    G = _oracle_groupoid("s5_on_5")
    assert len(G.compose) == 72_000
    assert len(G.compose) <= germoid.finite.MAX_COMPOSE_ENTRIES


_cycle_texts = st.one_of(
    st.lists(st.lists(st.integers(-1, 7), max_size=4), max_size=3).map(
        lambda cycles: "".join("(" + " ".join(map(str, c)) + ")" for c in cycles)
    ),
    st.text(alphabet="()0123456789 ,-x", max_size=12),
    st.text(max_size=6),
)
_json = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 7) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                               max_size=3),
    max_leaves=6,
)
_names = st.sampled_from(["x", "y", "g"])
_finite_specs = st.one_of(
    st.fixed_dictionaries(
        {"points": st.integers(-1, 6) | _json},
        optional={
            "group_degree": st.integers(-1, 6) | _json,
            "group_generators": st.lists(_cycle_texts, max_size=3) | _json,
            "action": st.lists(_cycle_texts, max_size=3) | _json,
        },
    ).map(lambda t: {"transformation": t}),
    st.fixed_dictionaries(
        {"blocks": st.lists(st.lists(st.integers(1, 6) | _json, max_size=4), max_size=3) | _json}
    ).map(lambda e: {"equivalence": e}),
    st.fixed_dictionaries(
        {
            "units": st.lists(_names, max_size=3) | _json,
            "arrows": st.lists(
                st.fixed_dictionaries({"id": _names, "src": _names, "rng": _names}) | _json,
                max_size=4,
            ) | _json,
        },
        optional={
            "compose": st.lists(st.lists(_names, max_size=4) | _json, max_size=9) | _json,
            "inverse": st.dictionaries(_names, _names) | _json,
        },
    ),
    _json,
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_finite_specs)
def test_parse_finite_spec_parses_or_raises_value_error(spec):
    try:
        G = parse_finite_spec(spec)
    except ValueError:
        return
    assert isinstance(G, FiniteGroupoid)


@settings(max_examples=300, deadline=None)
@given(_cycle_texts, st.integers(0, 6))
def test_parse_cycles_parses_or_raises_value_error(text, n):
    try:
        p = parse_cycles(text, n)
    except ValueError:
        return
    assert isinstance(p, Permutation) and p.n == n
