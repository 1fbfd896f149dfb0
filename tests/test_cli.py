import hashlib
import json
import os
import subprocess
import sys
import time
from collections import Counter

import pytest

import germoid.cli
import germoid.experiments
import germoid.linalg
import germoid.sampling
from germoid.algebra import AlgebraElement, GroupAlgebraElement
from germoid.cli import main
from germoid.perms import PermGroup
from germoid.poly import PiecewisePoly
from germoid.reports import ExperimentReport
from germoid.starspace import OpenStarSet, PPFun, act
from oracles import (
    act_on_open_set_by_renormalizing,
    fraction_piecewise,
    fraction_ppfun,
    fraction_scalar,
    intersect_by_renormalizing,
    randint_germ,
    randint_open_set,
    union_by_renormalizing,
)


def run(args):
    return main(args)


def test_cross_passes(capsys):
    assert run(["cross", "--trials", "10", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out


def test_cross_generator_only_suite(capsys):
    assert run(["cross", "--trials", "0", "--seed", "3"]) == 0


class _CountedElement(AlgebraElement):
    """An AlgebraElement that counts its own deallocation."""

    __slots__ = ()
    dropped = 0

    def __del__(self):
        _CountedElement.dropped += 1


def test_cross_holds_one_trial_at_a_time(monkeypatch):
    # the trials are drawn as the check reaches them and dropped after it,
    # not built into one list first: before each draw, at most the trial
    # being checked is alive
    draw = germoid.experiments.random_algebra_element
    alive = []

    def counted(*args):
        # every earlier call made one element
        alive.append(len(alive) - _CountedElement.dropped)
        element = draw(*args)
        element.__class__ = _CountedElement
        return element

    monkeypatch.setattr(_CountedElement, "dropped", 0)
    monkeypatch.setattr(germoid.experiments, "random_algebra_element", counted)
    report = germoid.experiments.cross_experiment(60, 1)
    assert report.exit_code == 0
    assert "for 64 elements" in json.dumps(report.to_dict())
    assert len(alive) == 60 and max(alive) <= 1


def test_star_n4(capsys):
    assert run(["star", "--n", "4", "--tau", "(1 2)", "--trials", "5", "--seed", "2"]) == 0
    out = capsys.readouterr().out
    assert "not a bisection" in out


def test_star_identity_tau():
    assert run(["star", "--n", "4", "--tau", "()", "--trials", "2", "--seed", "2"]) == 0


def test_star_n3_obstruction(capsys):
    assert run(["star", "--n", "3", "--tau", "(1 2)"]) == 2
    out = capsys.readouterr().out
    assert "OBSTRUCTION" in out


def test_star_n2_obstruction():
    assert run(["star", "--n", "2", "--tau", "(1 2)"]) == 2


def test_malformed_tau_is_a_real_failure(capsys):
    assert run(["star", "--n", "4", "--tau", "(1 2"]) == 1
    assert run(["star", "--n", "4", "--tau", "(1 9)"]) == 1
    assert run(["star", "--n", "1", "--tau", "()"]) == 1
    assert run(["star", "--n", "4", "--tau", "(+1 2)"]) == 1
    assert capsys.readouterr().err.endswith("error: --tau: malformed cycle notation: '(+1 2)'\n")


@pytest.mark.parametrize("command", [
    ["cross"],
    ["star", "--n", "4"],
    ["finite", "--spec", "unread.json"],
])
def test_negative_trials_rejected(command, capsys):
    assert run(command + ["--trials", "-3"]) == 1
    err = capsys.readouterr().err
    assert err.strip() == "error: --trials must be nonnegative"


def test_failed_exact_verification_is_a_one_line_error(monkeypatch, capsys):
    from germoid.rep import GroupAlgebraElement

    # every exact equality in the group algebra now fails, so the
    # idempotence check on the kernel projection raises InternalCheckError
    monkeypatch.setattr(GroupAlgebraElement, "__eq__", lambda self, other: False)
    assert run(["star", "--n", "4", "--trials", "1"]) == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: verification failed: ")
    assert "\n" not in err and "Traceback" not in err


def test_failed_center_split_is_a_one_line_error(tmp_path, monkeypatch, capsys):
    import germoid.finite

    # the self-adjointness residual of every central projection blows up
    monkeypatch.setattr(germoid.finite, "_vec_adjoint", lambda G, v: 0 * v)
    spec = tmp_path / "z3.json"
    spec.write_text(
        json.dumps({"transformation": {"points": 3, "group_generators": ["(1 2 3)"]}})
    )
    assert run(["finite", "--spec", str(spec), "--trials", "2"]) == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: verification failed: ")
    assert "\n" not in err and "Traceback" not in err


@pytest.mark.parametrize("command", [["star", "--n", "4", "--trials", "1"], ["selftest"]])
def test_a_non_unitary_normalizer_is_a_one_line_error(command, monkeypatch, capsys):
    import germoid.rep
    from germoid.scalars import Scalar

    real_phi = germoid.rep.phi
    monkeypatch.setattr(germoid.rep, "phi", lambda v, G: real_phi(v, G).scale(Scalar(2)))
    assert run(command) == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: verification failed: ")
    assert "\n" not in err and "Traceback" not in err


def test_bad_flags_exit_one():
    with pytest.raises(SystemExit) as err:
        run(["star", "--n", "notanumber"])
    assert err.value.code == 1


def test_diagnose(tmp_path, capsys):
    spec = tmp_path / "star.json"
    spec.write_text(json.dumps({"n": 4, "group": "A4"}))
    assert run(["diagnose", "--spec", str(spec)]) == 0
    out = capsys.readouterr().out
    assert "hausdorff: False" in out
    spec.write_text(json.dumps({"n": 4, "group": "Z4"}))
    assert run(["diagnose", "--spec", str(spec)]) == 0
    out = capsys.readouterr().out
    assert "hausdorff: True" in out


def test_diagnose_bad_spec(tmp_path, capsys):
    spec = tmp_path / "bad.json"
    spec.write_text("{not json")
    assert run(["diagnose", "--spec", str(spec)]) == 1
    err = capsys.readouterr().err
    assert "line" in err
    spec.write_text(json.dumps({"n": 4, "group": "Q8"}))
    assert run(["diagnose", "--spec", str(spec)]) == 1


@pytest.mark.parametrize("command, spec, message", [
    ("diagnose", {"n": 4.5, "group": "A4"}, "edge count must be an integer, not 4.5"),
    ("diagnose", {"n": True}, "edge count must be an integer, not True"),
    ("diagnose", {"n": "1_0", "group": "Z10"}, "edge count must be an integer, not '1_0'"),
    ("finite", {"transformation": {"points": 4.5}}, "points must be an integer, not 4.5"),
    ("finite", {"transformation": {"points": 3, "group_degree": 3.7}},
     "group_degree must be an integer, not 3.7"),
    ("finite", {"transformation": {"points": True}}, "points must be an integer, not True"),
    ("finite", {"transformation": {"points": None}}, "points must be an integer, not None"),
])
def test_spec_counts_that_are_not_integers_are_refused(command, spec, message, tmp_path, capsys):
    _assert_refused(command, spec, message, tmp_path, capsys)


@pytest.mark.parametrize("command, spec, message", [
    ("diagnose", {"n": 10, "generators": ["(1_0 2)", "(1 2 3)"]},
     "malformed cycle notation: '(1_0 2)'"),
    ("finite", {"transformation": {"points": 3, "group_generators": ["(+1 2)"]}},
     "malformed cycle notation: '(+1 2)'"),
])
def test_cycle_symbols_that_are_not_decimal_digits_are_refused(
    command, spec, message, tmp_path, capsys
):
    _assert_refused(command, spec, message, tmp_path, capsys)


@pytest.mark.parametrize("transformation", [
    {"points": 2, "group_degree": 1, "action": ["(1 2)"]},
    {"points": 2, "group_degree": 2, "group_generators": ["(1 2)"], "action": ["(1 2)", "()"]},
], ids=["no generators", "two images for one generator"])
def test_an_action_needs_one_image_per_generator(transformation, tmp_path, capsys):
    _assert_refused("finite", {"transformation": transformation},
                    "one image per generator required", tmp_path, capsys)


def _assert_refused(command, spec, message, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert run([command, "--spec", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: bad {'star' if command == 'diagnose' else 'finite'} spec: {message}\n"
    assert captured.out == ""


_TWO_FORMS = "spec names 2 constructions ({}); give exactly one"


@pytest.mark.parametrize("command, spec, message", [
    ("finite", {"equivalence": {"blocks": []}}, "a finite groupoid needs at least one unit"),
    ("finite", {"equivalence": {"blocks": [[]]}}, "a finite groupoid needs at least one unit"),
    ("finite", {"units": [], "arrows": [], "compose": []},
     "a finite groupoid needs at least one unit"),
    ("diagnose", {"n": 4, "group": "klein_cross", "generators": ["(1 2 3 4)"]},
     "star spec names both a group and generators; give one"),
    ("finite", {"transformation": {"points": 3, "group_generators": ["(1 2 3)"]},
                "equivalence": {"blocks": [[1, 2, 3]]}},
     _TWO_FORMS.format("transformation, equivalence")),
    ("finite", {"equivalence": {"blocks": [["x"]]}, "units": ["x"],
                "arrows": [{"id": "x", "src": "x", "rng": "x"}], "compose": [["x", "x", "x"]]},
     _TWO_FORMS.format("equivalence, units/arrows")),
    ("finite", {"transformation": {"points": 1}, "units": ["x"],
                "arrows": [{"id": "x", "src": "x", "rng": "x"}], "compose": [["x", "x", "x"]]},
     _TWO_FORMS.format("transformation, units/arrows")),
])
def test_empty_groupoids_and_specs_naming_two_constructions_are_refused(
    command, spec, message, tmp_path, capsys
):
    _assert_refused(command, spec, message, tmp_path, capsys)


_EXPLICIT_Z1 = {"units": ["x"], "arrows": [{"id": "x", "src": "x", "rng": "x"}],
                "compose": [["x", "x", "x"]]}


@pytest.mark.parametrize("command, spec, message", [
    ("diagnose", {"n": 4, "grup": "A4"}, "unknown key 'grup' in star spec"),
    ("finite", {"transformation": {"points": 4, "group_generator": ["(1 2)", "(1 2 3 4)"]}},
     "unknown key 'group_generator' in transformation spec"),
    ("finite", {"transformation": {"points": 3}, "comment": "z3"},
     "unknown key 'comment' in finite spec"),
    ("finite", {"equivalence": {"blocks": [[1, 2]], "block": [[3]]}},
     "unknown key 'block' in equivalence spec"),
    ("finite", {**_EXPLICIT_Z1, "inverses": {"x": "x"}}, "unknown key 'inverses' in finite spec"),
])
def test_spec_keys_that_name_nothing_are_refused(command, spec, message, tmp_path, capsys):
    _assert_refused(command, spec, message, tmp_path, capsys)


@pytest.mark.parametrize("command", ["diagnose", "finite"])
@pytest.mark.parametrize("spec", ["A4", ["n", 4], [], 5, 4.5, True, None],
                         ids=["string", "list", "empty list", "int", "float", "bool", "null"])
def test_specs_that_are_not_json_objects_are_refused(command, spec, tmp_path, capsys):
    what = "star" if command == "diagnose" else "finite"
    _assert_refused(command, spec, f"{what} spec must be a JSON object", tmp_path, capsys)


@pytest.mark.parametrize("command, spec", [
    ("diagnose", {"n": 4.0, "group": "A4"}),
    ("diagnose", {"n": "4", "group": "A4"}),
    ("finite", {"transformation": {"points": 3.0, "group_generators": ["(1 2 3)"]}}),
    ("finite", {"transformation": {"points": "3", "group_degree": 3.0,
                                   "group_generators": ["(1 2 3)"]}}),
])
def test_integral_spec_counts_are_read_as_integers(command, spec, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert run([command, "--spec", str(path)]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["star", "--n", "10"],
        ["star", "--n", "9", "--trials", "1"],
        ["diagnose", {"n": 9, "group": "S9"}],
        ["diagnose", {"n": 9, "generators": ["(1 2)", "(1 2 3 4 5 6 7 8 9)"]}],
    ],
)
def test_oversized_star_groups_exit_one_fast(argv, tmp_path, capsys):
    if isinstance(argv[-1], dict):
        spec = tmp_path / "big.json"
        spec.write_text(json.dumps(argv[-1]))
        argv = [argv[0], "--spec", str(spec)]
    started = time.monotonic()
    assert run(argv) == 1
    assert time.monotonic() - started < 1.0
    captured = capsys.readouterr()
    err = captured.err.strip()
    assert err.startswith("error: ") and "\n" not in err
    assert "more than 20160" in err or "exceeded 20160" in err
    assert captured.out == ""


def test_oversized_star_is_refused_before_tau_is_built(monkeypatch, capsys):
    # parse_cycles allocates n images, so a huge --n must never reach it
    def refuse(text, n):
        raise AssertionError(f"parse_cycles called with n={n}")

    monkeypatch.setattr(germoid.cli, "parse_cycles", refuse)
    assert run(["star", "--n", "9"]) == 1
    captured = capsys.readouterr()
    assert captured.err.strip() == "error: --n: group A9 has more than 20160 elements"
    assert captured.out == ""


def test_diagnose_renders_each_pair_as_before(tmp_path):
    from germoid.experiments import diagnose_experiment
    from germoid.germs import WITNESS_LIMIT, parse_star_spec
    from oracles import inseparable_pairs

    spec = {"n": 5, "group": "A5"}
    pairs = list(inseparable_pairs(parse_star_spec(spec)))
    report = diagnose_experiment(spec)
    check = next(c for c in report.checks if c.name.startswith("hausdorff"))
    assert check.witness == [f"{{{a}, {b}}}" for a, b in pairs[:WITNESS_LIMIT]]
    assert report.inputs["inseparable_pairs"] == len(pairs)


def test_diagnose_a7_counts_its_pairs_in_a_small_report(tmp_path):
    spec = tmp_path / "a7.json"
    spec.write_text(json.dumps({"n": 7, "group": "A7"}))
    out = tmp_path / "a7-report.json"
    assert run(["diagnose", "--spec", str(spec), "--json", str(out)]) == 0
    assert out.stat().st_size < 10_000
    report = json.loads(out.read_text())
    assert report["inputs"]["group_order"] == 2520
    assert report["inputs"]["inseparable_pairs"] == 2_002_140
    check = next(c for c in report["checks"] if c["name"] == "hausdorff: False")
    assert check["passed"] and len(check["witness"]) == 64


def test_finite_positive_and_negative(tmp_path):
    pos = tmp_path / "z3.json"
    pos.write_text(
        json.dumps({"transformation": {"points": 3, "group_generators": ["(1 2 3)"]}})
    )
    assert run(["finite", "--spec", str(pos), "--trials", "20", "--seed", "1"]) == 0
    neg = tmp_path / "z2pt.json"
    neg.write_text(
        json.dumps(
            {
                "transformation": {
                    "points": 1,
                    "group_degree": 2,
                    "group_generators": ["(1 2)"],
                    "action": ["()"],
                }
            }
        )
    )
    # the negative control *reports* failing properties but the experiment
    # itself (consistency of the checks) passes
    assert run(["finite", "--spec", str(neg), "--trials", "20", "--seed", "1"]) == 0


def test_finite_s5_on_5_points(tmp_path, capsys):
    spec = tmp_path / "s5.json"
    spec.write_text(
        json.dumps({"transformation": {"points": 5, "group_generators": ["(1 2)", "(1 2 3 4 5)"]}})
    )
    assert run(["finite", "--spec", str(spec)]) == 0
    out = capsys.readouterr().out
    assert "principal: False" in out
    assert "diagonal is maximal abelian: False" in out
    assert "[FAIL]" not in out


def test_an_intersection_verdict_off_principality_fails(tmp_path, monkeypatch, capsys):
    import germoid.finite

    # Z3 acting freely on 3 points is principal with one central block,
    # which meets the diagonal; the flipped SVD verdict must not pass
    meets = germoid.finite._diagonal_meets

    def flipped(G, z):
        verdict, sv_min = meets(G, z)
        return not verdict, sv_min

    monkeypatch.setattr(germoid.finite, "_diagonal_meets", flipped)
    spec = tmp_path / "z3.json"
    spec.write_text(
        json.dumps({"transformation": {"points": 3, "group_generators": ["(1 2 3)"]}})
    )
    assert run(["finite", "--spec", str(spec), "--trials", "2"]) == 1
    failed = [line for line in capsys.readouterr().out.splitlines() if "[FAIL]" in line]
    assert len(failed) == 1 and "every minimal ideal meets the diagonal: False" in failed[0]


def test_selftest():
    assert run(["selftest", "--seed", "5"]) == 0


def test_what_the_program_builds_is_not_validated_again(monkeypatch):
    # validation is for outside input: of everything the experiments sample
    # and build, only the cross's sign element has its gluing checked
    counts = Counter()
    check, continuity = AlgebraElement.check_compatible, PPFun.check_continuous
    init = PiecewisePoly.__init__

    def counted_check(self):
        counts["gluing"] += 1
        check(self)

    def counted_continuity(self):
        counts["continuity"] += 1
        continuity(self)

    def counted_init(self, breaks, polys, _checked=False):
        counts["validating PiecewisePoly"] += not _checked
        init(self, breaks, polys, _checked)

    monkeypatch.setattr(AlgebraElement, "check_compatible", counted_check)
    monkeypatch.setattr(PPFun, "check_continuous", counted_continuity)
    monkeypatch.setattr(PiecewisePoly, "__init__", counted_init)
    for args, gluings in ((["cross", "--trials", "20"], 1),
                          (["star", "--n", "5", "--trials", "3"], 0),
                          (["selftest"], 0)):
        counts.clear()
        assert run(args) == 0
        assert (counts["gluing"], counts["continuity"], counts["validating PiecewisePoly"]) == (
            gluings, 0, 0), args


def test_json_report_roundtrip_and_determinism(tmp_path):
    p1 = tmp_path / "r1.json"
    p2 = tmp_path / "r2.json"
    assert run(["cross", "--trials", "5", "--seed", "9", "--json", str(p1)]) == 0
    assert run(["cross", "--trials", "5", "--seed", "9", "--json", str(p2)]) == 0
    d1 = json.loads(p1.read_text())
    d2 = json.loads(p2.read_text())
    # deterministic given the seed, up to wall time
    d1.pop("wall_time_s"), d2.pop("wall_time_s")
    assert d1 == d2
    # round-trips through the report type
    r = ExperimentReport.from_dict(json.loads(p1.read_text()))
    redumped = r.to_dict()
    redumped.pop("wall_time_s")
    assert redumped == d1


def _report_without_wall_time(args, path, exit_code=0):
    assert run(args + ["--json", str(path)]) == exit_code
    d = json.loads(path.read_text())
    d.pop("wall_time_s")
    return d


@pytest.mark.parametrize(
    "args",
    [["cross", "--trials", "20", "--seed", "3"], ["selftest", "--seed", "11"],
     ["star", "--n", "4"]],
)
def test_reports_equal_those_of_the_fraction_sampler(args, tmp_path, monkeypatch):
    mine = _report_without_wall_time(args, tmp_path / "mine.json")
    for name, oracle in [("random_scalar", fraction_scalar),
                         ("random_piecewise", fraction_piecewise),
                         ("random_ppfun", fraction_ppfun)]:
        monkeypatch.setattr(germoid.sampling, name, oracle)
    monkeypatch.setattr(germoid.experiments, "random_ppfun", fraction_ppfun)
    monkeypatch.setattr(germoid.rep, "random_ppfun", fraction_ppfun)
    # and the open-set and germ draws made with rng.randint and sorts
    monkeypatch.setattr(germoid.experiments, "random_open_set", randint_open_set)
    monkeypatch.setattr(germoid.experiments, "random_germ", randint_germ)
    # and the open-set lattice that normalizes every result twice
    monkeypatch.setattr(OpenStarSet, "union", union_by_renormalizing)
    monkeypatch.setattr(OpenStarSet, "intersect", intersect_by_renormalizing)
    monkeypatch.setattr(
        germoid.experiments, "act",
        lambda s, x: (act_on_open_set_by_renormalizing(s, x) if isinstance(x, OpenStarSet)
                      else act(s, x)),
    )
    assert _report_without_wall_time(args, tmp_path / "oracle.json") == mine


# sha256 of each report as canonical JSON (sorted keys, no whitespace), its
# wall_time_s removed, as the exact pipeline wrote it when each piece was a
# tuple of Scalar coefficients; the test above runs today's poly layer on
# both sides, so only these digests catch an exact value that drifts
_PINNED_REPORTS = {
    ("cross", "--trials", "20", "--seed", "3"):
        "5114874c5fe63f48741de5660aadf75c1632f80511bb927d5789a684a4201c04",
    ("cross", "--trials", "120", "--seed", "7"):
        "1eeb64c47e9293cb6539dabe695c9413a656ce7a0b9911f2b9bf27d7614c5826",
    ("selftest", "--seed", "11"):
        "a958015b36a414e03809f90e68fd66aed288a1575cb7e41b45433bad2f45f9b9",
    # the star digests were last taken after the orbital count became the
    # bi-transitivity line's witness; only their check lists changed then
    ("star", "--n", "4"):
        "9f8e14356305b2748cb0a8b197e71ed6986836cb258d160ccb7f36709b0f305d",
    ("star", "--n", "5", "--trials", "3"):
        "710284e7ecd4b837065d9cd7632da003855933e9d2b35bfb75af586106d89678",
    # computed before the getrandbits draw kernel and the breakpoint tables
    ("selftest", "--seed", "5"):
        "461488a80d6d0ded4cf44554fb9981e561a2a416cccb8bc30d5c2a91e70f003c",
    ("star", "--n", "4", "--tau", "(1 2 3)", "--trials", "20", "--seed", "9"):
        "cc288220bd5db5cbb34d09677a6080b444f919d7f3d7a86525e78b9047a9ca70",
    ("star", "--n", "3", "--tau", "(1 2)"):
        "31de3c2d2d6e3e9d091addb9205a581c8de51cf1c227f80cabb51a18a96a3545",
    ("star", "--n", "6", "--tau", "(1 2)(3 4 5 6)", "--trials", "5", "--seed", "2"):
        "4375436e60ab6a99623f2fe74ad1e319ca043e621689a72bc290d3b602af70d3",
    # taken when the star pipeline stopped reading the Cayley table and the
    # cap rose to |A8|
    ("star", "--n", "8", "--tau", "(1 2)", "--trials", "2", "--seed", "1"):
        "77c78608a11970a04fd615603d17ab70968ca7a9175d69ecfc3ae214e70f67be",
}
# the documented obstruction exits 2, every other pinned report 0
_PINNED_OBSTRUCTIONS = {("star", "--n", "3", "--tau", "(1 2)")}


@pytest.mark.parametrize("args", sorted(_PINNED_REPORTS), ids=" ".join)
def test_reports_match_their_pinned_digests(args, tmp_path):
    report = _report_without_wall_time(
        list(args), tmp_path / "report.json", 2 if args in _PINNED_OBSTRUCTIONS else 0
    )
    text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == _PINNED_REPORTS[args]
    # u's center is serialized in full, one entry per nonzero value
    for check in report["checks"]:
        if check["name"] == "constructed normalizer (exact serialized form)":
            assert len(check["witness"]["center"]) == report["inputs"]["center_support_size"]


def test_star_and_diagnose_read_no_cayley_table(tmp_path, monkeypatch):
    monkeypatch.setattr(PermGroup, "table",
                        property(lambda self: pytest.fail("the Cayley table was read")))
    for n in range(4, 8):
        for tau in ("(1 2)", "(1 2 3)"):  # odd, even
            assert run(["star", "--n", str(n), "--tau", tau, "--trials", "2"]) == 0
    assert run(["star", "--n", "3"]) == 2
    spec = tmp_path / "star.json"
    for group in ("A6", "S5", "A8"):
        spec.write_text(json.dumps({"n": int(group[1:]), "group": group}))
        assert run(["diagnose", "--spec", str(spec)]) == 0
    out = tmp_path / "a8.json"
    argv = ["star", "--n", "8", "--tau", "(1 2)", "--trials", "2", "--json", str(out)]
    assert run(argv) == 0
    report = json.loads(out.read_text())
    assert report["checks"] and all(c["passed"] and c["kind"] == "exact" for c in report["checks"])


def test_star_cross_and_selftest_build_no_matrix(monkeypatch):
    # pi is checked by its integer pair sums, never as a Matrix of Scalars
    monkeypatch.setattr(germoid.linalg.Matrix, "__init__",
                        lambda self, rows: pytest.fail("a Matrix was built"))
    for args, code in ((["star", "--n", "5"], 0), (["star", "--n", "3"], 2),
                       (["selftest"], 0), (["cross", "--trials", "5"], 0)):
        assert run(args) == code, args


def test_the_integration_line_of_selftest_can_fail(monkeypatch, capsys):
    # a group-algebra product off by delta_e breaks pi(ab) = pi(a) pi(b)
    mul = GroupAlgebraElement.__mul__
    monkeypatch.setattr(GroupAlgebraElement, "__mul__",
                        lambda a, b: mul(a, b) + GroupAlgebraElement.unit(a.group))
    assert run(["selftest"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] integration is multiplicative and matches sheet sums" in out


@pytest.mark.parametrize("seed", [5, 11, 12])
def test_selftest_computes_each_convolution_once(seed, monkeypatch):
    # per draw: f*g, (f*g)*h, g*h, f*(g*h) and the adjoint product, 12 draws;
    # the normalizer pipeline adds two per conjugation trial, 6, and checks
    # unitarity without a product
    calls = []
    mul = AlgebraElement.__mul__

    def counted(self, other):
        calls.append(None)
        return mul(self, other)

    monkeypatch.setattr(AlgebraElement, "__mul__", counted)
    assert germoid.experiments.selftest_experiment(seed).exit_code == 0
    assert len(calls) == 66


@pytest.mark.parametrize("args", [
    ["cross", "--trials", "2"],
    ["selftest"],
    ["star", "--n", "4", "--trials", "1"],
])
def test_unwritable_json_path_is_a_one_line_error(args, tmp_path, capsys):
    path = tmp_path / "missing" / "report.json"
    assert run(args + ["--seed", "3", "--json", str(path)]) == 1
    captured = capsys.readouterr()
    err = captured.err.strip()
    assert err.startswith("error: cannot write report: ")
    assert "\n" not in err and "Traceback" not in err
    assert str(path) in err
    assert "result:" in captured.out and "wrote" not in captured.out


def test_star_report_serializes_the_element(tmp_path):
    p = tmp_path / "star.json"
    assert run(
        ["star", "--n", "4", "--tau", "(1 2)", "--trials", "3", "--seed", "4",
         "--json", str(p)]
    ) == 0
    d = json.loads(p.read_text())
    element = next(
        c["witness"] for c in d["checks"] if "serialized" in c["name"]
    )
    # strips are the 0/1 pattern of tau = (1 2); scalars render as rationals
    strips = {(s["source"], s["range"]): s["pieces"] for s in element["strips"]}
    assert strips[(1, 2)] == [["1"]]
    assert (1, 1) not in strips
    assert len(element["center"]) >= 2
    assert all("/" in c["value"] or c["value"].lstrip("-").isdigit()
               for c in element["center"])
    r = ExperimentReport.from_dict(d)
    assert r.exit_code == 0


def test_env_seed(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("GERMOID_SEED", "123")
    assert run(["cross", "--trials", "2"]) == 0
    out = capsys.readouterr().out
    assert "seed: 123" in out
    monkeypatch.setenv("GERMOID_SEED", "xyz")
    assert run(["cross", "--trials", "2"]) == 0  # falls back with a warning


def _fresh_process_report(args, path):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run([sys.executable, "-m", "germoid.cli", *args, "--json", str(path)],
                          capture_output=True, text=True, timeout=300,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    d = json.loads(path.read_text())
    d.pop("wall_time_s")
    return d


def test_a_later_call_reports_as_a_fresh_process(tmp_path):
    # the parser is built once per process: a second call with another
    # subcommand and other options sees none of the first call's arguments
    first = ["star", "--n", "4", "--trials", "2", "--seed", "4"]
    second = ["cross", "--trials", "3", "--seed", "6"]
    assert _report_without_wall_time(first, tmp_path / "a.json") == _fresh_process_report(
        first, tmp_path / "fresh_a.json")
    assert _report_without_wall_time(second, tmp_path / "b.json") == _fresh_process_report(
        second, tmp_path / "fresh_b.json")


def test_a_usage_error_after_a_call_still_exits_one(capsys):
    assert run(["cross", "--trials", "1", "--seed", "2"]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as err:
        run(["cross", "--trials", "many"])
    assert err.value.code == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("usage: germoid cross")
    assert err.endswith("\nerror: argument --trials: invalid int value: 'many'")
    assert err.count("error") == 1 and "Traceback" not in err


def test_the_env_seed_is_read_on_every_call(monkeypatch, capsys):
    for seed in ("17", "18"):
        monkeypatch.setenv("GERMOID_SEED", seed)
        assert run(["cross", "--trials", "1"]) == 0
        assert f"seed: {seed}" in capsys.readouterr().out


def test_import_builds_no_parser():
    script = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting_init(self, *a, **k):\n"
        "    built.append(None)\n"
        "    init(self, *a, **k)\n"
        "argparse.ArgumentParser.__init__ = counting_init\n"
        "import germoid.cli\n"
        "print(len(built), germoid.cli._parser.cache_info().currsize)\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "0"]
