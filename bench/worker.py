"""One benchmark worker process: set up a workload, run its items, report.

Started by ``bench/run.py``, which enforces the time cap from outside.  The
worker writes one JSON object per line to stdout: first ``setup``; then for
each pass a ``begin`` line, one ``item`` line per finished item and a
``warmup`` or ``pass`` line; and last ``done``.  A worker killed by the cap leaves the lines it got to, so the
parent can count the items that never finished.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402

from workloads import WORKLOADS, verdict_error  # noqa: E402

OUT = sys.stdout


def emit(**record):
    OUT.write(json.dumps(record) + "\n")
    OUT.flush()


def run_item(cli, report_cls, item, report_path, tracer):
    """Run one CLI invocation; returns (seconds, error or None)."""
    captured = io.StringIO()
    error = None
    if tracer is not None:
        tracer.enter("cli.main", "cli")
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            exit_code = cli.main(item.argv + ["--json", report_path])
    except SystemExit as exc:
        exit_code = exc.code
    except Exception:  # an item that crashes is a failed item, not a dead run
        error = traceback.format_exc(limit=3)
    seconds = time.perf_counter() - start
    if tracer is not None:
        tracer.exit()
    if error is not None:
        return seconds, error
    try:
        with open(report_path) as fh:
            report = json.load(fh)
        os.remove(report_path)
    except (OSError, ValueError) as exc:
        return seconds, f"no readable report: {exc}"
    return seconds, verdict_error(item, exit_code, report, report_cls)


REF_SHARE = 0.1  # reference time after an item, as a share of the item's time
# One reference unit takes this long at the fixed machine speed that times
# are rescaled to (about its time on a 2-vCPU Xeon VM with CPython 3.11,
# shared with other tenants).
REF_NOMINAL_S = 0.01


def reference():
    """One unit of fixed pure-Python work: exact rational arithmetic and dict
    inserts, the kind of work germoid does.  Its time measures how fast the
    machine runs this process at the moment."""
    start = time.perf_counter()
    for j in range(40):
        acc = Fraction(0)
        table = {}
        for i in range(1, 40):
            acc = acc + Fraction(i % 7 - 3, i % 5 + 1) * Fraction(j % 3 + 1, i % 4 + 2)
            table[(i, j)] = acc
    return time.perf_counter() - start


def sample_speed(seconds):
    """Mean time of reference units run for REF_SHARE of the given time, at
    least one unit."""
    gc.collect()  # the item's garbage is its own, not the reference's
    total = reference()
    units = 1
    while total < REF_SHARE * seconds:
        total += reference()
        units += 1
    return total / units


def run_pass(cli, report_cls, items, workdir, before, tracer=None, kind="pass"):
    """Run every item once; returns (seconds, rescaled seconds, last unit time).

    After each item, outside the timed call, the reference runs for a share
    of the item's time.  An item's time is rescaled to the fixed machine
    speed by the mean unit time just before it (``before`` for the first
    item) and just after it, which follows a machine whose speed drifts."""
    emit(kind="begin", items=len(items))
    total = rescaled = 0.0
    for k, item in enumerate(items):
        if tracer is not None:
            tracer.item = k
        seconds, error = run_item(
            cli, report_cls, item, os.path.join(workdir, f"report-{k}.json"), tracer
        )
        after = sample_speed(seconds)
        total += seconds
        rescaled += seconds * REF_NOMINAL_S / ((before + after) / 2)
        before = after
        emit(kind="item", label=item.label, s=seconds, error=error)
    emit(kind=kind, s=total, rescaled=rescaled)
    return total, rescaled, before


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--src", required=True, help="directory holding the germoid package")
    parser.add_argument("--workdir", required=True, help="scratch directory for specs and reports")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, args.src)
    import numpy  # noqa: F401  (part of what a user's first command pays for)

    import germoid.cli as cli
    from germoid.reports import ExperimentReport

    here = os.path.realpath(os.path.join(args.src, "germoid"))
    if os.path.dirname(os.path.realpath(cli.__file__)) != here:
        raise SystemExit(f"germoid imported from {cli.__file__}, not from {here}")
    items = WORKLOADS[args.workload](args.seed, args.workdir)
    setup_s = time.perf_counter() - T0
    unit = sample_speed(setup_s)
    emit(kind="setup", s=setup_s, rescaled=setup_s * REF_NOMINAL_S / unit)
    if args.setup_only:
        return

    # a trace run spends half its time untraced, for the overhead ratio
    untraced_budget = args.seconds / 2 if args.trace else args.seconds
    start = time.perf_counter()
    # run the first item once before timing: it pays for lazy imports and
    # first calls into numpy and germoid; it is checked but not timed
    *_, unit = run_pass(cli, ExperimentReport, items[:1], args.workdir, unit, kind="warmup")
    passes = []
    while True:
        raw, rescaled, unit = run_pass(cli, ExperimentReport, items, args.workdir, unit)
        passes.append((raw, rescaled))
        if time.perf_counter() - start + statistics.median(r for r, _ in passes) > untraced_budget:
            break

    done = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if args.trace:
        from tracer import Tracer, install, layer_metrics

        tracer = Tracer()
        install(tracer)
        traced, rescaled, _ = run_pass(cli, ExperimentReport, items, args.workdir, unit, tracer)
        overhead = rescaled / statistics.median(r for _, r in passes)
        done["layers"] = layer_metrics(tracer, traced, overhead)
        out = os.path.join(os.path.dirname(args.workdir),
                           f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.write_spans(out)
        done["spans"] = out
    emit(kind="done", **done)


if __name__ == "__main__":
    main()
