"""Command line front end.

    adtxn run <file> [--seed N] [--trace PATH] [--metrics]
    adtxn check <file> [--seed N] [--runs K]
    adtxn verify-tables <adt> [--depth D]
    adtxn fuzz [--adts LIST] [--txns K] [--ops M] [--runs N] [--seed S] [--no-aborts]

`fuzz` checks a batch of N random workloads that end in commit, then their
abort twins: the same N workloads, each with one transaction's commit
turned into an abort. `--no-aborts` checks the commit batch alone.

Exit codes: 0 everything passed, 1 an oracle or table check failed,
2 the input was unusable: an unreadable workload, an unknown type, a
flag below the floor its subcommand sets, or a workload the simulator
cannot run.
"""

from __future__ import annotations

import argparse
import sys

from .adts import UnknownAdt, builtin_names, get_adt
from .fuzz import fuzz
from .history import render_trace
from .oracles import check_run
from .simulate import SimulationError, run_simulated
from .validate import validate_adt
from .workload import RandomSchedule, WorkloadError, parse_workload


def _unusable(message) -> int:
    """Report unusable input on one line of stderr; returns its exit code."""
    print(f"error: {message}", file=sys.stderr)
    return 2


def _load_workload(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SystemExit(_unusable(exc))
    try:
        return parse_workload(text)
    except WorkloadError as exc:
        raise SystemExit(_unusable(f"{path}: {exc}"))


def _cmd_run(args) -> int:
    workload = _load_workload(args.file)
    try:
        result = run_simulated(workload, seed=args.seed)
    except SimulationError as exc:
        return _unusable(exc)
    trace = render_trace(result.history)
    if args.trace:
        try:
            with open(args.trace, "w", encoding="utf-8") as fh:
                fh.write(trace)
        except OSError as exc:
            return _unusable(exc)
        for name, status in result.statuses.items():
            print(f"txn {name} {status.value}")
        for name, rendered in result.rendered_states().items():
            print(f"final {name} = {rendered}")
    else:
        sys.stdout.write(trace)
    if args.metrics:
        sys.stdout.write(result.metrics.render())
    return 0


def _cmd_check(args) -> int:
    workload = _load_workload(args.file)
    if isinstance(workload.schedule, RandomSchedule):
        base = args.seed if args.seed is not None else workload.schedule.seed
        seeds = [base + k for k in range(args.runs)]
    else:
        seeds = [None]   # an explicit schedule admits exactly one interleaving
    failures = 0
    for seed in seeds:
        try:
            stage, verdict = check_run(run_simulated(workload, seed=seed))
        except SimulationError as exc:
            return _unusable(exc)
        label = "seed=-" if seed is None else f"seed={seed}"
        if stage is not None:
            failures += 1
            print(f"FAIL {label} {stage}: {verdict.detail}")
        else:
            witness = ",".join(verdict.witness or ())
            print(f"PASS {label} serial_order={witness or '-'}")
    print(f"checked {len(seeds)} run(s), {failures} failure(s)")
    return 1 if failures else 0


def _cmd_verify_tables(args) -> int:
    if args.adt == "all":
        names = builtin_names()
    else:
        try:
            get_adt(args.adt)
        except UnknownAdt as exc:
            return _unusable(exc)
        names = [args.adt]
    failed = False
    for name in names:
        for report in validate_adt(get_adt(name), bound=args.depth):
            status = "PASS" if report.ok else "FAIL"
            print(f"{status} {name} {report.check} cases={report.cases} "
                  f"violations={len(report.violations)}")
            for v in report.violations[:10]:
                print(f"  {v.detail}")
            if len(report.violations) > 10:
                print(f"  ... {len(report.violations) - 10} more")
            failed = failed or not report.ok
    return 1 if failed else 0


def _cmd_fuzz(args) -> int:
    adts = args.adts.split(",") if args.adts else builtin_names()
    for name in adts:
        try:
            get_adt(name)
        except UnknownAdt as exc:
            return _unusable(exc)
    failures = 0
    for with_abort in ((False, True) if args.aborts else (False,)):
        report = fuzz(args.seed, args.runs, adts=adts,
                      txns_range=(2, args.txns), ops_range=(1, args.ops),
                      with_abort=with_abort)
        mode = "abort" if with_abort else "commit"
        for f in report.failures:
            print(f"FAIL mode={mode} run={f.run_index} seed={f.seed} "
                  f"stage={f.stage}: {f.detail}")
            print("  minimized workload:")
            for line in f.workload_text.splitlines():
                print(f"    {line}")
        print(f"mode={mode}: {report.runs - len(report.failures)}/"
              f"{report.runs} runs passed")
        failures += len(report.failures)
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adtxn",
        description="Concurrent recoverable data types: simulate, verify, fuzz.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="simulate one workload and print its trace")
    p.add_argument("file")
    p.add_argument("--seed", type=int, default=None,
                   help="override the workload's schedule seed")
    p.add_argument("--trace", default=None,
                   help="write the trace to this file instead of stdout")
    p.add_argument("--metrics", action="store_true",
                   help="also print run metrics")
    p.set_defaults(fn=_cmd_run, floors={})

    p = sub.add_parser("check", help="run a workload under the oracles")
    p.add_argument("file")
    p.add_argument("--seed", type=int, default=None,
                   help="base seed (default: the workload's own)")
    p.add_argument("--runs", type=int, default=20,
                   help="number of seeds to sweep (random schedules only)")
    p.set_defaults(fn=_cmd_check, floors={"runs": 1})

    p = sub.add_parser("verify-tables",
                       help="brute-force check one type's declarative surface")
    p.add_argument("adt", help="a built-in type name, or 'all'")
    p.add_argument("--depth", type=int, default=3,
                   help="state-space bound (stack depth, set universe, "
                        "rational grid size)")
    p.set_defaults(fn=_cmd_verify_tables, floors={"depth": 0})

    p = sub.add_parser("fuzz", help="random workloads through every oracle")
    p.add_argument("--adts", default=None,
                   help="comma-separated type names (default: all)")
    p.add_argument("--txns", type=int, default=4,
                   help="max transactions per workload")
    p.add_argument("--ops", type=int, default=5, help="max ops per transaction")
    p.add_argument("--runs", type=int, default=50, help="workloads per mode")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--no-aborts", dest="aborts", action="store_false",
                   help="skip the abort-transparency mode")
    p.set_defaults(fn=_cmd_fuzz, floors={"txns": 2, "ops": 1, "runs": 1})
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    for flag, floor in args.floors.items():
        if getattr(args, flag) < floor:
            return _unusable(f"--{flag} must be at least {floor}")
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
