import json
import math
import random
import time
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import germoid.finite
from germoid.cli import main as cli_main
from germoid.experiments import finite_experiment
from germoid.finite import (
    FaithfulnessReport,
    FiniteAlgebraElement,
    FiniteGroupoid,
    GroupoidAxiomError,
    _non_unit_loops,
    center_basis_exact,
    diagonal_masa_check,
    faithfulness_check,
    intersection_property_check,
    key_inequality_check,
    minimal_central_projections,
    parse_finite_spec,
    principality,
    regular_rep,
)
from germoid.linalg import nullspace
from germoid.perms import PermGroup, Permutation, parse_cycles
from germoid.scalars import ONE, ZERO
from oracles import (
    equivalence_by_dicts,
    faithfulness_by_subsets,
    has_no_isotropy,
    hom_by_table,
    isotropy_arrows,
    operator_norm,
    random_finite_element,
    restrict_to_units,
    transformation_by_dicts,
)

TOL = 1e-9


def algebra_image_rank(G: FiniteGroupoid) -> int:
    """Rank of the regular representation over the arrow basis (numeric)."""
    # column a is the gathered blocks of delta_a
    return int(np.linalg.matrix_rank(np.eye(len(G.arrows))[G.rep_gather], tol=1e-9))


def source_fiber(D: dict, x):
    """The arrows with source x, in arrow order, from a groupoid's dict form."""
    return sorted((a for a in D["arrows"] if D["src"][a] == x), key=repr)


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
    assert all(has_no_isotropy(z3_free, x) for x in z3_free.units)


def test_trivial_action_isotropy(z2_point):
    assert len(z2_point.arrows) == 2
    assert len(isotropy_arrows(z2_point, 1)) == 2
    assert not has_no_isotropy(z2_point, 1)


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
    # one image for the one generator, but (1 2 3) does not square to ()
    with pytest.raises(ValueError, match="^generator images do not define a homomorphism$"):
        FiniteGroupoid.transformation(3, z2, [swap3])


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
        lhs = ((f * g) * h).vec
        rhs = (f * (g * h)).vec
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
    D = transformation_by_dicts(3, PermGroup.cyclic(3))
    for _ in range(25):
        f = random_finite_element(z3_free, rng)
        e = restrict_to_units(f.adjoint() * f)
        for x, v in e.items():
            assert v.real >= -1e-12 and abs(v.imag) < 1e-12
            # fiber sum oracle
            expected = sum(
                abs(f.coeff(a)) ** 2 for a in source_fiber(D, x)
            )
            assert abs(v - expected) < 1e-9
        if f.vec.any():
            assert any(abs(v) > 1e-12 for v in e.values())


@pytest.mark.parametrize("name", ["z5_on_5", "s4_on_4", "units_only_13"])
def test_expectation_check_reads_each_trial(name, monkeypatch):
    """The batched verdicts: -g* makes E(g* g) negative, 0 makes it vanish
    for nonzero g, and each failure shows in one verdict only."""
    G = _oracle_groupoid(name)
    assert germoid.finite.expectation_check(G, 2) == (True, True)
    adjoint = germoid.finite._vec_adjoint
    monkeypatch.setattr(germoid.finite, "_vec_adjoint", lambda G, v: -adjoint(G, v))
    assert germoid.finite.expectation_check(G, 2) == (False, True)
    monkeypatch.setattr(germoid.finite, "_vec_adjoint", lambda G, v: 0 * v)
    assert germoid.finite.expectation_check(G, 2) == (True, False)


@pytest.mark.parametrize("name", ["s4_on_4", "z5_on_5", "equivalence", "explicit_z2",
                                  "units_only_13"])
def test_unit_values_of_squares_are_the_full_products_bit_for_bit(name):
    """The restricted scatter sums each unit cell's terms in the order of
    the full convolution, so the expectation's values do not move."""
    G = _oracle_groupoid(name)
    V = germoid.finite._random_vectors(G, random.Random(7), 5)
    units = [G.index[G.unit_arrow[x]] for x in G.units]
    full = germoid.finite._vec_convolve(G, germoid.finite._vec_adjoint(G, V), V)
    assert np.array_equal(germoid.finite._unit_values_of_squares(G, V), full[:, units])


@pytest.mark.parametrize("name", ["s4_on_4", "klein_cross_on_4", "s3_trivial_on_1",
                                  "equivalence"])
def test_stacked_convolutions_are_the_row_by_row_ones_bit_for_bit(name):
    """The center split stacks its products; each row keeps its cells'
    summation order, so its residuals do not move."""
    G = _oracle_groupoid(name)
    convolve = germoid.finite._vec_convolve
    U = germoid.finite._random_vectors(G, random.Random(3), 4)
    W = germoid.finite._random_vectors(G, random.Random(4), 4)
    assert np.array_equal(convolve(G, U, W),
                          np.stack([convolve(G, u, w) for u, w in zip(U, W)]))
    h = U[0]
    assert np.array_equal(convolve(G, np.broadcast_to(h, W.shape), W),
                          np.stack([convolve(G, h, w) for w in W]))


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


_Z2_ARROWS = [{"id": "x", "src": "x", "rng": "x"}, {"id": "g", "src": "x", "rng": "x"}]
_Z2_COMPOSE = [["x", "x", "x"], ["x", "g", "g"], ["g", "x", "g"], ["g", "g", "x"]]


@pytest.mark.parametrize("spec, message, witness", [
    ({"units": ["x"], "arrows": [_Z2_ARROWS[0]] + _Z2_ARROWS, "compose": _Z2_COMPOSE},
     "repeated arrow id", "x"),
    ({"units": ["x"], "arrows": _Z2_ARROWS, "compose": [["g", "g", "g"]] + _Z2_COMPOSE},
     "conflicting compositions", ("g", "g")),
], ids=["repeated-arrow-id", "conflicting-compositions"])
def test_explicit_spec_rejects_repeated_ids(spec, message, witness, tmp_path, capsys):
    with pytest.raises(GroupoidAxiomError) as err:
        parse_finite_spec(spec)
    assert str(err.value).startswith(message + ";")
    assert err.value.witness == witness
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps(spec))
    assert cli_main(["finite", "--spec", str(path)]) == 1
    line = capsys.readouterr().err.strip()
    assert line.startswith(f"error: bad finite spec: {message};") and "\n" not in line


_EXPLICIT_Z2 = {"units": ["x"], "arrows": _Z2_ARROWS, "compose": _Z2_COMPOSE}


# each string here used to be read character by character, or to fail as
# malformed cycle notation; a string (or any non-list) is refused by key
_STRINGS_FOR_LISTS = {
    "group_generators": {"transformation": {"points": 3, "group_generators": "(1 2 3)"}},
    "action": {"transformation": {"points": 1, "group_degree": 3,
                                  "group_generators": ["(1 2)"], "action": "()"}},
    "blocks": {"equivalence": {"blocks": "ab"}},
    "block": {"equivalence": {"blocks": ["ab"]}},
    "units": {**_EXPLICIT_Z2, "units": "x"},
    "arrows": {**_EXPLICIT_Z2, "arrows": "xg"},
    "compose": {**_EXPLICIT_Z2, "compose": "xxx"},
    "compose entry": {**_EXPLICIT_Z2, "compose": _Z2_COMPOSE[:3] + ["ggx"]},
    "inverse": {**_EXPLICIT_Z2, "inverse": "xxgg"},
    "inverse entry": {**_EXPLICIT_Z2, "inverse": ["xx", "gg"]},
}


@pytest.mark.parametrize("key", list(_STRINGS_FOR_LISTS))
def test_a_string_where_a_list_belongs_is_refused_by_key(key, tmp_path, capsys):
    spec = _STRINGS_FOR_LISTS[key]
    with pytest.raises(ValueError, match=f"^{key} must be a list, not '"):
        parse_finite_spec(spec)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert cli_main(["finite", "--spec", str(path)]) == 1
    line = capsys.readouterr().err.strip()
    assert line.startswith(f"error: bad finite spec: {key} must be a list") and "\n" not in line


def test_parse_rejects_unknown():
    with pytest.raises(ValueError):
        parse_finite_spec({"nonsense": 1})


def test_faithfulness_verdict_is_complete():
    # 13 one-point blocks: each block is tried once, and single blocks decide every sum
    spec = {"equivalence": {"blocks": [[x] for x in range(1, 14)]}}
    report = finite_experiment(spec, trials=2, seed=1)
    check = report.checks[3]
    assert check.name == "faithful-on-diagonal implies faithful agrees with the ideal check"
    assert "partial" not in report.render_text()
    assert check.witness == {"kernels_checked": 13}
    full = finite_experiment({"equivalence": {"blocks": [[1, 2], [3]]}}, trials=2, seed=1)
    assert full.checks[3].name == (
        "faithful-on-diagonal implies faithful agrees with the ideal check"
    )
    assert full.checks[3].witness == {"kernels_checked": 2}


# the six specs of the finite_controls benchmark workload
BENCH_CORPUS = [
    {"transformation": {"points": 4, "group_generators": ["(1 2)", "(1 2 3 4)"]}},
    {"transformation": {"points": 5, "group_generators": ["(1 2 3 4 5)"]}},
    {"transformation": {"points": 4, "group_generators": ["(1 2)", "(3 4)"]}},
    {"equivalence": {"blocks": [[1, 2, 3], [4, 5], [6]]}},
    {"transformation": {"points": 1, "group_degree": 3,
                        "group_generators": ["(1 2)", "(1 2 3)"], "action": ["()", "()"]}},
    {"units": ["x"],
     "arrows": [{"id": "x", "src": "x", "rng": "x"}, {"id": "g", "src": "x", "rng": "x"}],
     "compose": [["x", "x", "x"], ["x", "g", "g"], ["g", "x", "g"], ["g", "g", "x"]]},
]


def test_single_blocks_decide_faithfulness_like_every_subset(z2_point):
    groupoids = [parse_finite_spec(s) for s in BENCH_CORPUS]
    groupoids += [z2_point] + [FiniteGroupoid.units_only(k) for k in range(1, 11)]
    assert len(groupoids) == 17
    for G in groupoids:
        for seed in (0, 3):
            check = faithfulness_check(G, seed=seed)
            assert (check.holds, check.failing_kernel) == faithfulness_by_subsets(G, seed=seed)
    assert faithfulness_check(z2_point) == FaithfulnessReport(False, 1, (0,))


# -- oracles: the dict loops and the rational row reduction that the composition
# -- index and the closed forms replaced; each reads the groupoid's dict form D

def _pointwise_mul(f, g, D):
    G = f.groupoid
    out = np.zeros(len(G.arrows), dtype=complex)
    for (a, b), c in D["compose"].items():
        fa, gb = f.coeff(a), g.coeff(b)
        if fa and gb:
            out[G.index[c]] += fa * gb
    return FiniteAlgebraElement(G, out)


def _pointwise_adjoint(f, D):
    G = f.groupoid
    out = np.zeros(len(G.arrows), dtype=complex)
    for a in G.arrows:
        out[G.index[D["inv"][a]]] = f.coeff(a).conjugate()
    return FiniteAlgebraElement(G, out)


def _loop_regular_rep(f, D):
    G = f.groupoid
    src, rng, compose = D["src"], D["rng"], D["compose"]
    blocks = {}
    for x in G.units:
        fiber = source_fiber(D, x)
        pos = {a: k for k, a in enumerate(fiber)}
        M = np.zeros((len(fiber), len(fiber)), dtype=complex)
        for b in fiber:
            for a in G.arrows:
                if src[a] == rng[b]:
                    c = f.coeff(a)
                    if c:
                        M[pos[compose[(a, b)]], pos[b]] += c
        blocks[x] = M
    return blocks


def _rref_center(G, D):
    """Commutation with every arrow indicator, solved by row reduction.
    Rows are built sparse and repeats dropped: the reduced echelon form, hence
    the basis, depends only on the row space."""
    m = len(G.arrows)
    src, rng, compose = D["src"], D["rng"], D["compose"]
    rows = set()
    for g in G.arrows:
        gi = D["inv"][g]
        for w in G.arrows:
            row = {}
            if src[w] == src[g]:
                k = G.index[compose[(w, gi)]]
                row[k] = row.get(k, 0) + 1
            if rng[w] == rng[g]:
                k = G.index[compose[(gi, w)]]
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


def _rref_commutant(G, D):
    m = len(G.arrows)
    rows = []
    for x in G.units:
        for w in G.arrows:
            coeff = (D["src"][w] == x) - (D["rng"][w] == x)
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
    "units_only_13": {"equivalence": {"blocks": [[x] for x in range(1, 14)]}},
    # free units 1 and 2 beside the unit 3 with isotropy
    "z2_on_3": {"transformation": {"points": 3, "group_generators": ["(1 2)"]}},
    # non-faithful, non-trivial actions: S3 through its sign, Z4 through Z4/2Z4
    "s3_sign_on_2": {"transformation": {"points": 2, "group_degree": 3,
                                        "group_generators": ["(1 2)", "(1 2 3)"],
                                        "action": ["(1 2)", "()"]}},
    "z4_mod2_on_2": {"transformation": {"points": 2, "group_degree": 4,
                                        "group_generators": ["(1 2 3 4)"],
                                        "action": ["(1 2)"]}},
}


@lru_cache(maxsize=None)
def _oracle_groupoid(name):
    return parse_finite_spec(ORACLE_SPECS[name])


@lru_cache(maxsize=None)
def _oracle_dicts(name):
    """The dict form of an oracle groupoid, from the dict-building loops."""
    spec = ORACLE_SPECS[name]
    if "equivalence" in spec:
        return equivalence_by_dicts(spec["equivalence"]["blocks"])
    if "transformation" not in spec:
        return _Z2_POINT  # the one explicit spec is the Z/2 point below
    t = spec["transformation"]
    points = t["points"]
    gens = [parse_cycles(c, t.get("group_degree", points)) for c in t["group_generators"]]
    group = PermGroup.generate(t.get("group_degree", points), gens)
    action = None
    if "action" in t:
        action = hom_by_table(group, gens, [parse_cycles(c, points) for c in t["action"]])
    return transformation_by_dicts(points, group, action)


@pytest.mark.parametrize("name", ORACLE_SPECS)
def test_array_build_matches_the_validated_dicts(name):
    """The index built straight from the table or the blocks is the one the
    validating constructor builds from the dict form, row order included."""
    new, old = _oracle_groupoid(name), FiniteGroupoid(**_oracle_dicts(name))
    assert new.arrows == old.arrows and new.units == old.units
    assert new.unit_arrow == old.unit_arrow
    for attr in ("table", "ia", "ib", "ic", "inv_index", "src_unit", "rng_unit", "rep_gather"):
        assert np.array_equal(getattr(new, attr), getattr(old, attr)), attr


@pytest.mark.parametrize("name", ORACLE_SPECS)
def test_convolution_and_adjoint_match_the_loops(name, rng):
    G, D = _oracle_groupoid(name), _oracle_dicts(name)
    for _ in range(3):
        f, g = random_finite_element(G, rng), random_finite_element(G, rng)
        assert np.allclose((f * g).vec, _pointwise_mul(f, g, D).vec,
                           rtol=0, atol=1e-12 * len(G.arrows))
        assert np.array_equal(f.adjoint().vec, _pointwise_adjoint(f, D).vec)


@pytest.mark.parametrize("name", ORACLE_SPECS)
def test_regular_rep_matches_the_loop(name, rng):
    """The loop's blocks follow arrow order and ``regular_rep``'s follow the
    orbit-trivialized ``G.fibers``: the same cells up to that permutation."""
    G, D = _oracle_groupoid(name), _oracle_dicts(name)
    f = random_finite_element(G, rng)
    new, old = regular_rep(f), _loop_regular_rep(f, D)
    assert list(new) == list(old)
    for x in G.units:
        fiber = [G.arrows[a] for a in G.fibers[x]]
        assert sorted(fiber, key=repr) == source_fiber(D, x)
        pos = {a: k for k, a in enumerate(source_fiber(D, x))}
        p = [pos[a] for a in fiber]
        assert np.array_equal(new[x], old[x][np.ix_(p, p)])  # one coefficient per cell


@pytest.mark.parametrize("name", ORACLE_SPECS)
@pytest.mark.parametrize("build", ["arrays", "dicts"])
def test_units_of_an_orbit_share_one_block(name, build, rng):
    """Every unit of an orbit gathers its base's cells, so one block per
    orbit is stacked, and its norms are those of the arrow-order blocks."""
    G = _oracle_groupoid(name) if build == "arrays" else FiniteGroupoid(**_oracle_dicts(name))
    segments = {x: G.rep_gather[off:off + n * n] for x, off, n in G.rep_blocks}
    for orbit in G.orbits():
        assert all(np.array_equal(segments[x], segments[orbit[0]]) for x in orbit)
    assert sum(len(cells) for cells in G.rep_stacks) == len(G.orbits())
    for _ in range(3):
        f = random_finite_element(G, rng)
        expected = max(np.linalg.norm(M, 2)
                       for M in _loop_regular_rep(f, _oracle_dicts(name)).values())
        assert abs(operator_norm(f) - expected) <= 1e-12 * expected


def _indicators(m, index_sets):
    vecs = []
    for members in index_sets:
        vec = [ZERO] * m
        for k in members:
            vec[k] = ONE
        vecs.append(vec)
    return vecs


@pytest.mark.parametrize("name", ORACLE_SPECS)
def test_center_and_commutant_equal_the_rref_bases(name):
    """The conjugacy classes and the loops, as indicators, are the bases row
    reduction finds, in its order; the masa check counts the loops."""
    G, D = _oracle_groupoid(name), _oracle_dicts(name)
    m = len(G.arrows)
    classes = center_basis_exact(G)
    assert all(np.all(np.diff(members) > 0) for members in classes)
    assert _indicators(m, classes) == _rref_center(G, D)
    units = [G.index[G.unit_arrow[x]] for x in G.units]
    loops = sorted(units + _non_unit_loops(G).tolist())
    commutant = _rref_commutant(G, D)
    assert _indicators(m, [[k] for k in loops]) == commutant
    assert diagonal_masa_check(G).commutant_dim == len(commutant)


# per spec: the principal verdict, which the masa and ideal verdicts repeat,
# the number of isotropy-free units, and the masa witness (commutant_dim, units)
_FINITE_VERDICTS = {
    "s4_on_4": (False, 0, 24, 4),
    "z5_on_5": (True, 5, 5, 5),
    "klein_cross_on_4": (False, 0, 8, 4),
    "equivalence": (True, 6, 6, 6),
    "s3_trivial_on_1": (False, 0, 6, 1),
    "explicit_z2": (False, 0, 2, 1),
    "z2_on_3": (False, 2, 4, 3),
    "units_only_13": (True, 13, 13, 13),
    "s3_sign_on_2": (False, 0, 6, 2),
    "z4_mod2_on_2": (False, 0, 4, 2),
}


@pytest.mark.parametrize("name", _FINITE_VERDICTS)
@pytest.mark.parametrize("seed", [1, 7])
def test_finite_reports_keep_their_exact_fields(name, seed):
    """Check names, verdicts, exit code and masa witness; the residuals are
    left out, as their last digits depend on the BLAS build."""
    principal, free, commutant_dim, units = _FINITE_VERDICTS[name]
    report = finite_experiment(ORACLE_SPECS[name], 200, seed)
    assert [(c.name, c.passed) for c in report.checks] == [
        (f"principal: {principal} (= essentially principal, discrete case)", True),
        (f"diagonal is maximal abelian: {principal}", True),
        (f"every minimal ideal meets the diagonal: {principal}", True),
        ("faithful-on-diagonal implies faithful agrees with the ideal check", True),
        (f"|f(x)| <= ||f|| at the {free} isotropy-free units (200 trials)", True),
        ("conditional expectation is positive and faithful", True),
    ]
    assert report.exit_code == 0
    assert report.checks[1].witness == {"commutant_dim": commutant_dim, "units": units}


def _loop_key_inequality(G, trials, seed, tol=TOL):
    """One SVD per block per trial, every trial drawn whether or not a unit
    is isotropy-free."""
    rng = random.Random(seed)
    free_units = [x for x in G.units if has_no_isotropy(G, x)]
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
    return trials, len(free_units), violations, max_excess, pairing_exact


@pytest.mark.parametrize("name", ORACLE_SPECS)
@pytest.mark.parametrize("seed", [0, 5, 11])
def test_key_inequality_matches_the_per_block_loop(name, seed):
    G = _oracle_groupoid(name)
    report = key_inequality_check(G, trials=10, seed=seed)
    assert (report.trials, report.units_tested, report.violations, report.max_excess,
            report.pairing_exact) == _loop_key_inequality(G, 10, seed)


@pytest.mark.parametrize("name", ORACLE_SPECS)
def test_operator_norm_matches_the_per_block_loop(name, rng):
    G = _oracle_groupoid(name)
    for _ in range(3):
        f = random_finite_element(G, rng)
        expected = max(np.linalg.norm(M, 2)
                       for M in _loop_regular_rep(f, _oracle_dicts(name)).values())
        assert abs(operator_norm(f) - expected) <= 1e-12 * expected


@pytest.mark.parametrize("name", ["s4_on_4", "s5_on_5", "explicit_z2", "s3_trivial_on_1"])
def test_key_inequality_draws_nothing_without_a_free_unit(name, monkeypatch):
    def forbidden(*args):
        raise AssertionError("no element may be drawn or factored")

    for attr in ("gaussians", "_operator_norms"):
        monkeypatch.setattr(germoid.finite, attr, forbidden)
    monkeypatch.setattr(germoid.finite.np.linalg, "svd", forbidden)
    report = key_inequality_check(_oracle_groupoid(name), trials=200, seed=0)
    assert (report.trials, report.units_tested, report.violations, report.max_excess,
            report.pairing_exact) == (200, 0, [], 0.0, True)


def test_key_inequality_draws_through_the_batched_kernels(monkeypatch):
    """The check above would pass vacuously if the names it forbids were
    never called: with a free unit, both are."""
    calls = []
    for attr in ("gaussians", "_operator_norms"):
        real = getattr(germoid.finite, attr)
        monkeypatch.setattr(germoid.finite, attr,
                            lambda *args, _real=real, _attr=attr: calls.append(_attr)
                            or _real(*args))
    key_inequality_check(_oracle_groupoid("z5_on_5"), trials=10, seed=0)
    assert calls == ["gaussians", "_operator_norms"]


@pytest.mark.parametrize("count", [0, 1, 2, 7, 1000])
@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("pending", [False, True])
def test_gaussians_are_successive_gauss_calls(count, seed, pending):
    """Bit for bit, and the generator ends in the same state; ``pending``
    leaves a ``gauss_next`` behind with one prior call."""
    fast, slow = random.Random(seed), random.Random(seed)
    if pending:
        fast.gauss(0, 1)
        slow.gauss(0, 1)
    values = germoid.finite.gaussians(fast, count)
    assert values.dtype == np.float64 and values.shape == (count,)
    assert values.tobytes() == np.array([slow.gauss(0, 1) for _ in range(count)]).tobytes()
    assert fast.getstate() == slow.getstate()


def test_gaussians_keep_the_sign_of_zero_as_gauss_does():
    """At a uniform draw of 0.0 the Box-Muller radius is sqrt(-0.0) = -0.0,
    and gauss returns 0.0 + z, which is +0.0."""

    class Zeros(random.Random):
        # every 32-bit output is 0, so every random() is 0.0
        def random(self):
            return 0.0

        def getrandbits(self, k):
            return 0

    values = germoid.finite.gaussians(Zeros(), 3)
    assert values.tobytes() == np.array([Zeros().gauss(0, 1) for _ in range(3)]).tobytes()
    assert values.tobytes() == np.zeros(3).tobytes()


@pytest.mark.parametrize("name", ["z5_on_5", "equivalence", "units_only_13"])
def test_trial_chunks_do_not_change_the_report(name, monkeypatch):
    """The finite report, and the key inequality with every trial a
    violation, are the same in 2-trial chunks as in one."""
    G = parse_finite_spec(ORACLE_SPECS[name])

    def run():
        report = finite_experiment(ORACLE_SPECS[name], 200, 3).to_dict()
        with monkeypatch.context() as patch:
            patch.setattr(germoid.finite, "TOL", -math.inf)
            key = key_inequality_check(G, trials=200, seed=3)
        return {**report, "wall_time_s": 0}, key

    monkeypatch.setattr(germoid.finite, "CHUNK_CELLS", 200 * len(G.ia))
    assert len(germoid.finite._trial_chunks(G, 200)) == 1
    whole = run()
    monkeypatch.setattr(germoid.finite, "CHUNK_CELLS", 3 * len(G.ia) - 1)
    assert len(germoid.finite._trial_chunks(G, 200)) == 100
    assert run() == whole


@pytest.mark.parametrize("name", ["z5_on_5", "equivalence", "units_only_13", "z2_on_3"])
def test_every_trial_violates_below_zero_tolerance(name, monkeypatch):
    """With TOL = -inf every trial at every free unit is a violation (at
    TOL = -1 most are not: the excess is about -3 on z5_on_5): the list
    matches the per-block loop entry for entry, as Python numbers, and the
    report stays JSON."""
    monkeypatch.setattr(germoid.finite, "TOL", -math.inf)
    G = _oracle_groupoid(name)
    report = key_inequality_check(G, trials=10, seed=4)
    expected = _loop_key_inequality(G, 10, 4, tol=-math.inf)
    assert len(report.violations) == 10 * report.units_tested
    assert report.violations == expected[2]
    assert all(type(v) in (int, float) for entry in report.violations for v in entry)
    assert report.max_excess == expected[3] and type(report.max_excess) is float
    json.dumps(finite_experiment(ORACLE_SPECS[name], 10, 4).to_dict())


def test_key_inequality_memory_is_bounded_by_the_chunk(z3_free):
    """20 000 trials on free Z3 gather 20 000 x 27 complex cells, 8.6 MB in
    one stack; chunked, the peak stays well below that."""
    key_inequality_check(z3_free, trials=10, seed=0)  # warm numpy's lazy state
    tracemalloc.start()
    try:
        report = key_inequality_check(z3_free, trials=20_000, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.holds
    assert peak < 4 * 2**20


def test_centrality_residual_matches_the_pointwise_products():
    # each projection is a combination of class indicators, so it commutes
    # with every delta exactly and the split computes no centrality residual
    G, D = _oracle_groupoid("s4_on_4"), _oracle_dicts("s4_on_4")
    split = minimal_central_projections(G, seed=3)
    worst = 0.0
    for z in split.projections:
        ze = FiniteAlgebraElement(G, z)
        for a in G.arrows:
            da = FiniteAlgebraElement.delta(G, a)
            diff = _pointwise_mul(ze, da, D).vec - _pointwise_mul(da, ze, D).vec
            worst = max(worst, float(np.linalg.norm(diff)))
    assert worst == 0.0


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

# one unit x and one self-inverse arrow g: the explicit_z2 spec in dict form
_Z2_POINT = {
    "units": ["x"],
    "arrows": ["x", "g"],
    "src": {"x": "x", "g": "x"},
    "rng": {"x": "x", "g": "x"},
    "unit_arrow": {"x": "x"},
    "compose": {("x", "x"): "x", ("x", "g"): "g", ("g", "x"): "g", ("g", "g"): "x"},
    "inv": {"x": "x", "g": "g"},
}


def _z2_point(**broken):
    """The Z/2 point with pieces replaced."""
    data = dict(_Z2_POINT)
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
    compose = _oracle_dicts("s5_on_5")["compose"]
    assert len(compose) == len(_oracle_groupoid("s5_on_5").ia) == 72_000
    assert len(compose) <= germoid.finite.MAX_COMPOSE_ENTRIES


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
