"""The benchmark's own verdict oracles hold on today's reports.

``bench/workloads.py`` lists the benchmark's items with the exit code and
report facts each must show, and its ``verdict_error`` names the first
mismatch.  This runs every item of the four workloads once, in-process, and
asks for no mismatch, so a change that drops a check the benchmark reads
fails here and not only in a benchmark run.
"""

import contextlib
import importlib.util
import io
import json
import os
import sys

import pytest

from germoid.cli import main
from germoid.reports import ExperimentReport

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_workloads():
    path = os.path.join(ROOT, "bench", "workloads.py")
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # its dataclass looks its own module up while it is being built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_item_gives_the_known_verdict(name, tmp_path):
    items = workloads.WORKLOADS[name](1, str(tmp_path))
    assert items
    for item in items:
        path = tmp_path / "report.json"
        with contextlib.redirect_stdout(io.StringIO()):
            exit_code = main(item.argv + ["--json", str(path)])
        report = json.loads(path.read_text())
        error = workloads.verdict_error(item, exit_code, report, ExperimentReport)
        assert error is None, f"{item.label}: {error}"


def test_the_star_items_read_the_paper_s_checks(tmp_path):
    # so the test above fails if any of these star lines is dropped or renamed
    read = {name for item in workloads.star_normalizer(1, str(tmp_path))
            for name in item.expect_checks}
    assert {
        "open support of u is not a bisection (odd tau)",
        "even tau: the sheet indicator of tau is a bisection normalizer",
        "preimage obstruction signalled for odd tau",
    } <= read
