"""The benchmark's four workloads: seeded CLI invocations and their verdict oracles.

Every item is one call of ``germoid.cli.main(argv)``.  Each item carries the
exit code and the report facts the paper fixes, so a run can tell a fast
wrong answer from a right one.  Why each workload exists, and which layer it
loads, is recorded in ``bench/README.md``.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field

CROSS_TRIALS = (120, 120, 60, 60)   # trial counts of the cross items, fixed
SELFTESTS_PER_PASS = 8
STAR_N5_TRIALS = 10


@dataclass
class Item:
    """One CLI invocation plus what its report must say."""

    label: str
    argv: list
    expect_exit: int = 0
    # (check name, expected witness or a predicate on the witness)
    expect_checks: dict = field(default_factory=dict)
    expect_inputs: dict = field(default_factory=dict)


def _rng(workload: str, seed: int) -> random.Random:
    # str seeds hash with sha512, so each workload draws its own stream
    return random.Random(f"{workload}:{seed}")


def _seed(rng: random.Random) -> str:
    return str(rng.randrange(1, 10**6))


def _two_center_germs(witness) -> bool:
    # str(("center", (Permutation(...), ...))) from the bisection test
    return (
        isinstance(witness, str)
        and witness.startswith("('center'")
        and witness.count("Permutation(") >= 2
    )


def cross_ideal(seed: int, workdir: str):
    rng = _rng("cross_ideal", seed)
    return [
        Item(
            f"cross trials={t}",
            ["cross", "--trials", str(t), "--seed", _seed(rng)],
            expect_checks={"center value table is (1,-1,-1,1)": ["1", "-1", "-1", "1"]},
        )
        for t in CROSS_TRIALS
    ]


def star_normalizer(seed: int, workdir: str):
    rng = _rng("star_normalizer", seed)
    odd = "open support of u is not a bisection (odd tau)"
    even = "even tau: the sheet indicator of tau is a bisection normalizer"
    spec = os.path.join(workdir, "a6.json")
    with open(spec, "w") as fh:
        json.dump({"n": 6, "group": "A6"}, fh)
    return [
        Item(
            "star n=5 tau=(1 2)",
            ["star", "--n", "5", "--tau", "(1 2)", "--trials", str(STAR_N5_TRIALS),
             "--seed", _seed(rng)],
            expect_checks={odd: _two_center_germs},
        ),
        Item(
            "star n=4 tau=(1 2)",
            ["star", "--n", "4", "--tau", "(1 2)", "--seed", _seed(rng)],
            expect_checks={odd: _two_center_germs},
        ),
        Item(
            "star n=4 tau=(1 2 3)",
            ["star", "--n", "4", "--tau", "(1 2 3)", "--seed", _seed(rng)],
            expect_checks={even: None},
        ),
        Item(
            "star n=3 tau=(1 2)",
            ["star", "--n", "3", "--tau", "(1 2)", "--seed", _seed(rng)],
            expect_exit=2,
            expect_checks={"preimage obstruction signalled for odd tau": None},
        ),
        Item(
            "diagnose A6",
            ["diagnose", "--spec", spec],
            expect_checks={"hausdorff: False": None, "essentially principal": None},
            expect_inputs={"group_order": 360},
        ),
    ]


# name -> (spec, principal); the verdict is the paper's, not the program's
FINITE_CORPUS = {
    "s4_on_4": (
        {"transformation": {"points": 4, "group_generators": ["(1 2)", "(1 2 3 4)"]}},
        False,
    ),
    "z5_on_5": ({"transformation": {"points": 5, "group_generators": ["(1 2 3 4 5)"]}}, True),
    "klein_cross_on_4": (
        {"transformation": {"points": 4, "group_generators": ["(1 2)", "(3 4)"]}},
        False,
    ),
    "equivalence": ({"equivalence": {"blocks": [[1, 2, 3], [4, 5], [6]]}}, True),
    "s3_trivial_on_1": (
        {"transformation": {"points": 1, "group_degree": 3,
                            "group_generators": ["(1 2)", "(1 2 3)"],
                            "action": ["()", "()"]}},
        False,
    ),
    "explicit_z2": (
        {"units": ["x"],
         "arrows": [{"id": "x", "src": "x", "rng": "x"}, {"id": "g", "src": "x", "rng": "x"}],
         "compose": [["x", "x", "x"], ["x", "g", "g"], ["g", "x", "g"], ["g", "g", "x"]]},
        False,
    ),
}


def finite_controls(seed: int, workdir: str):
    rng = _rng("finite_controls", seed)
    items = []
    for name, (spec, principal) in FINITE_CORPUS.items():
        path = os.path.join(workdir, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(spec, fh)
        verdict = f"principal: {principal} (= essentially principal, discrete case)"
        items.append(
            Item(
                f"finite {name}",
                ["finite", "--spec", path, "--seed", _seed(rng)],
                expect_checks={verdict: None, f"diagonal is maximal abelian: {principal}": None},
            )
        )
    return items


def convolution_laws(seed: int, workdir: str):
    rng = _rng("convolution_laws", seed)
    return [
        Item(f"selftest #{k}", ["selftest", "--seed", _seed(rng)])
        for k in range(SELFTESTS_PER_PASS)
    ]


WORKLOADS = {
    "cross_ideal": cross_ideal,
    "star_normalizer": star_normalizer,
    "finite_controls": finite_controls,
    "convolution_laws": convolution_laws,
}


def verdict_error(item: Item, exit_code: int, report: dict, report_cls):
    """None when the item's report is the known answer, else the first mismatch."""
    if exit_code != item.expect_exit:
        return f"exit code {exit_code}, expected {item.expect_exit}"
    if report.get("exit_code") != exit_code:
        return f"report exit_code {report.get('exit_code')} differs from {exit_code}"
    if report_cls.from_dict(report).to_dict() != report:
        return "report does not round-trip through ExperimentReport"
    checks = {c["name"]: c for c in report["checks"]}
    failed = [name for name, c in checks.items() if not c["passed"]]
    if failed:
        return f"checks failed: {failed}"
    for name, expected in item.expect_checks.items():
        if name not in checks:
            return f"missing check {name!r}"
        witness = checks[name]["witness"]
        if callable(expected):
            if not expected(witness):
                return f"check {name!r} has witness {witness!r}"
        elif expected is not None and witness != expected:
            return f"check {name!r} has witness {witness!r}, expected {expected!r}"
    for key, expected in item.expect_inputs.items():
        if report["inputs"].get(key) != expected:
            return f"input {key} is {report['inputs'].get(key)!r}, expected {expected!r}"
    return None
