"""Command-line front end.

Exit codes: 0 when every check comes out as expected, 2 when the documented
small-n obstruction path was taken, 1 for genuine failures (including bad
flags, malformed specs and failed internal verifications, each reported as a
one-line error).  GERMOID_SEED sets the default seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .experiments import (
    DEFAULT_SEED,
    cross_experiment,
    diagnose_experiment,
    finite_experiment,
    selftest_experiment,
    star_experiment,
)
from .finite import CenterSplitError
from .germs import require_star_group_order
from .perms import CycleParseError, GroupTooLarge, parse_cycles
from .rep import InternalCheckError
from .reports import EXIT_FAILURE


class _Parser(argparse.ArgumentParser):
    # usage errors are "real failures" in the exit-code contract, not
    # obstructions, so do not let argparse exit with status 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_FAILURE)


def _default_seed() -> int:
    env = os.environ.get("GERMOID_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            print(f"warning: ignoring non-integer GERMOID_SEED={env!r}", file=sys.stderr)
    return DEFAULT_SEED


def _emit(report, json_path):
    print(report.render_text())
    if json_path:
        try:
            with open(json_path, "w") as fh:
                fh.write(report.to_json())
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return EXIT_FAILURE
        print(f"wrote {json_path}")
    return report.exit_code


def _load_spec(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise SystemExit(
            f"error: {path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except OSError as exc:
        raise SystemExit(f"error: cannot read spec file: {exc}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="germoid", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cross", help="central element of the 4-edge cross algebra")
    p.add_argument("--trials", type=int, default=200, help="random test elements")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--json", metavar="PATH", default=None)

    p = sub.add_parser("star", help="normalizer pipeline on the alternating star")
    p.add_argument("--n", type=int, default=4, help="edge count (>= 2)")
    p.add_argument("--tau", default="(1 2)", help='target permutation, e.g. "(1 2)"')
    p.add_argument("--trials", type=int, default=50, help="random conjugation tests")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--json", metavar="PATH", default=None)

    p = sub.add_parser("diagnose", help="topology diagnostics for a germ groupoid")
    p.add_argument("--spec", required=True, metavar="FILE", help="star spec JSON")
    p.add_argument("--json", metavar="PATH", default=None)

    p = sub.add_parser("finite", help="full check suite on a finite groupoid")
    p.add_argument("--spec", required=True, metavar="FILE", help="groupoid spec JSON")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--json", metavar="PATH", default=None)

    p = sub.add_parser("selftest", help="condensed invariant suites, fixed seed")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--json", metavar="PATH", default=None)
    return parser


# built on the first main() call, then reused: parse_args keeps no state
# between calls, and the GERMOID_SEED default is read in main, not stored here
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    seed = getattr(args, "seed", None)
    if seed is None:
        seed = _default_seed()
    if getattr(args, "trials", 0) < 0:
        print("error: --trials must be nonnegative", file=sys.stderr)
        return EXIT_FAILURE
    try:
        if args.command == "cross":
            return _emit(cross_experiment(args.trials, seed), args.json)
        if args.command == "star":
            if args.n < 2:
                print("error: --n must be at least 2", file=sys.stderr)
                return EXIT_FAILURE
            # refuse an oversized A_n before tau allocates n images
            try:
                require_star_group_order("A", args.n)
            except GroupTooLarge as exc:
                print(f"error: --n: {exc}", file=sys.stderr)
                return EXIT_FAILURE
            try:
                tau = parse_cycles(args.tau, args.n)
            except CycleParseError as exc:
                print(f"error: --tau: {exc}", file=sys.stderr)
                return EXIT_FAILURE
            return _emit(star_experiment(args.n, tau, args.trials, seed), args.json)
        if args.command == "diagnose":
            try:
                return _emit(diagnose_experiment(_load_spec(args.spec)), args.json)
            except ValueError as exc:
                print(f"error: bad star spec: {exc}", file=sys.stderr)
                return EXIT_FAILURE
        if args.command == "finite":
            try:
                return _emit(
                    finite_experiment(_load_spec(args.spec), args.trials, seed),
                    args.json,
                )
            except ValueError as exc:
                print(f"error: bad finite spec: {exc}", file=sys.stderr)
                return EXIT_FAILURE
        if args.command == "selftest":
            return _emit(selftest_experiment(seed), args.json)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return EXIT_FAILURE
        raise
    except (InternalCheckError, CenterSplitError) as exc:
        print(f"error: verification failed: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
