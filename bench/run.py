"""The germoid benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``, never from an installed copy.  Each item of the workload is one
call of ``germoid.cli.main(argv)``, and every item's report is checked
against the known verdict.  With ``--trace 0`` the run prints the end-to-end
metrics; with ``--trace 1`` it prints the per-layer metrics of a traced pass.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  ``--workload all`` runs the four workloads one after another and
prints a table of their end-to-end metrics.

The items run in worker subprocesses (``bench/worker.py``) with BLAS and
OpenMP pinned to one thread and a fixed hash seed.  A worker that outlives
the run's time cap is killed, and its unfinished items count as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, BENCH)

from tracer import LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 5      # set-up is timed in this many fresh processes
RUN_CAP_S = 165.0      # a run, set-up included, is cut after this long
WORKER_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class RunFailed(Exception):
    """The benchmark could not run at all (as opposed to items failing)."""


def run_worker(deadline, workload, seed, seconds, trace, setup_only):
    """Run one worker to completion or to the deadline; returns (records, timed_out)."""
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    cmd = [
        sys.executable, os.path.join(BENCH, "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--src", SRC, "--workdir", workdir,
    ] + (["--setup-only"] if setup_only else [])
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env={**os.environ, **WORKER_ENV},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    timed_out = False
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        timed_out = True
        proc.kill()
        out, err = proc.communicate()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)
    lines = out.splitlines()
    if timed_out and lines and not out.endswith("\n"):
        lines.pop()  # the worker was killed in the middle of a line
    records = [json.loads(line) for line in lines]
    if not timed_out and (proc.returncode != 0 or not records):
        raise RunFailed(f"worker exited with {proc.returncode}:\n{err.strip()}")
    if not records:
        raise RunFailed("worker was cut before it finished set-up")
    return records, timed_out


def run_workload(workload, seed, seconds, trace):
    """One run of a workload: set-up samples, then the timed (or traced) worker."""
    deadline = time.monotonic() + RUN_CAP_S
    setups = []
    for _ in range(0 if trace else SETUP_SAMPLES - 1):
        records, _ = run_worker(deadline, workload=workload, seed=seed, seconds=seconds,
                                trace=trace, setup_only=True)
        setups.append(records[0]["rescaled"])
    records, timed_out = run_worker(deadline, workload=workload, seed=seed,
                                    seconds=seconds, trace=trace, setup_only=False)
    by_kind = {}
    unfinished = 0  # items of the pass in progress that have not finished
    for r in records:
        by_kind.setdefault(r["kind"], []).append(r)
        if r["kind"] == "begin":
            unfinished = r["items"]
        elif r["kind"] == "item":
            unfinished -= 1
    setups.append(by_kind["setup"][0]["rescaled"])
    items = by_kind.get("item", [])
    errors = [f"{r['label']}: {r['error']}" for r in items if r["error"]]
    failed = len(errors)
    if timed_out:
        errors.append(f"cut after {RUN_CAP_S:.0f} s with {unfinished} item(s) unfinished")
    else:
        unfinished = 0
    done = by_kind.get("done", [{}])[0]
    return {
        "workload": workload,
        "attempted": len(items) + unfinished,
        "failed": failed + unfinished,
        "errors": errors,
        "setup_s": setups,
        "passes": by_kind.get("pass", []),
        "peak_rss_mb": done.get("peak_rss_mb", 0.0),
        "layers": done.get("layers", {}),
        "spans": done.get("spans"),
    }


def end_to_end(res):
    """The end-to-end metrics of one untraced run, as {name: (value, unit)}.

    Times are rescaled to a fixed machine speed, measured with a reference
    computation between the items (see worker.py).  A shared machine's speed
    drifts by tens of percent over minutes; the rescaled times do not, and a
    change in germoid's own cost shows in them in full.
    """
    passes = [p["rescaled"] for p in res["passes"]]
    return {
        "setup_s": (statistics.median(res["setup_s"]), "s"),
        "wall_s": (statistics.median(passes) if passes else RUN_CAP_S, "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }


def describe(res, trace):
    """Human-readable lines for one run."""
    lines = [f"workload {res['workload']}: {res['attempted']} items attempted, "
             f"{res['failed']} failed"]
    lines += [f"  FAILED {e}" for e in res["errors"]]
    if not trace:
        m = end_to_end(res)
        share = res["failed"] / res["attempted"] if res["attempted"] else 1.0
        raw = statistics.median(p["s"] for p in res["passes"]) if res["passes"] else RUN_CAP_S
        lines += [
            f"  setup_s      {m['setup_s'][0]:10.4f} s      median of {len(res['setup_s'])} set-ups",
            f"  wall_s       {m['wall_s'][0]:10.4f} s      median of {len(res['passes'])} passes "
            f"at the reference speed; as measured {raw:.4f} s",
            f"  peak_rss_mb  {m['peak_rss_mb'][0]:10.1f} MB",
            f"  failed_share {share:10.4f} ratio  {res['failed']} of {res['attempted']}",
        ]
    else:
        for layer in ("scalars", "trace") + LAYERS:
            for name, (value, unit) in res["layers"].items():
                if name.split(".", 1)[0] == layer:
                    lines.append(f"  {name:44s} {value:14.6g} {unit}")
        if res["spans"]:
            lines.append(f"  spans written to {os.path.relpath(res['spans'], ROOT)}")
    return lines


def result_line(results, metrics):
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "germoid", "cli.py")):
        print(f"error: no germoid sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 1
    os.makedirs(OUT, exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results, metrics = [], {}
    try:
        for name in names:
            res = run_workload(name, args.seed, args.seconds, args.trace)
            results.append(res)
            print("\n".join(describe(res, args.trace)), flush=True)
            m = res["layers"] if args.trace else end_to_end(res)
            if args.workload == "all":
                m = {f"{name}.{k}": v for k, v in m.items()}
            metrics.update(m)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(result_line(results, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
