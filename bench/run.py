"""Benchmark for the adtxn engine and its oracles.

Run from the root of a checkout:

    python3 bench/run.py --workload corpus --seed 20260816 --seconds 30 --trace 0

The workload's instances are generated from --seed (set-up, repeated and
timed), then run in passes: each pass simulates every instance with
`run_simulated` and judges the result with the workload's oracle stage.
Each workload runs a fixed number of passes, fewer only if the next would
overrun --seconds; at least one always runs. Every instance must pass its
checks and replay to the same trace bytes in every pass.

--trace 0 prints the end-to-end metrics: each instance's best time over the
passes, scaled to a reference host speed that a probe of pure Python,
timed between instances, measures (see host_scale). --trace 1 alternates untraced and
traced passes and prints the per-layer metrics instead, with the tracing
overhead; its spans and aggregates go to .bench_out/. The last line of
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
The exit code is 0 only when every check passed.

Everything runs in this one process, on one thread. The benchmark refuses
to run under `python -O`, which strips the program's correctness asserts.
See bench/NOTES.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Timings are scaled to the host speed at which a fixed probe of pure
# Python takes PROBE_REF_NS at its 5th percentile (see host_scale).
PROBE_REF_NS = 1_200_000
PROBES_PER_PASS = 32
# One block of set-ups lasts about this long, so that its best set-up
# usually falls in one of the host's fast spells, which come and go every
# 0.1-2 s (see NOTES.md).
SETUP_BLOCK_NS = 500_000_000
_now = time.perf_counter_ns


def import_adtxn():
    """Import adtxn from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "adtxn" / "__init__.py").is_file():
        sys.exit(f"bench: no adtxn sources under {src}")
    sys.path.insert(0, str(src))
    import adtxn
    if Path(adtxn.__file__).resolve().parent != (src / "adtxn").resolve():
        sys.exit(f"bench: imported adtxn from {adtxn.__file__}, not {src}")
    return adtxn


# -- one pass over the instances ----------------------------------------------


@dataclass
class PassResult:
    sim_ns: list[int] = field(default_factory=list)
    check_ns: list[int] = field(default_factory=list)
    digests: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    txns: int = 0
    victims: int = 0
    executions: int = 0
    useful_executions: int = 0
    wait_events: list[int] = field(default_factory=list)
    probe_ns: list[int] = field(default_factory=list)
    layers: dict | None = None


def digest(result) -> str:
    h = hashlib.sha256(result.trace.encode())
    for name, state in sorted(result.rendered_states().items()):
        h.update(f"\n{name}={state}".encode())
    return h.hexdigest()


def _history_stats(result, out: PassResult):
    """Deterministic scheduling facts read off the run's own history."""
    blocked_at = {}
    for ev in result.history:
        if ev.kind == "BLOCK":
            blocked_at[ev.inv_id] = ev.index
        elif ev.kind == "WAKE":
            out.wait_events.append(ev.index - blocked_at.pop(ev.inv_id))
        elif ev.kind == "EXEC":
            out.executions += 1
            if result.statuses[ev.txn].value == "committed":
                out.useful_executions += 1


def probe() -> int:
    """Time a fixed piece of pure-Python work, about 1 ms: the host's speed."""
    t0 = _now()
    table, acc = {}, 0
    for i in range(3000):
        k = (i * 7919) % 1013
        key = (k, i & 7)
        table[key] = table.get(key, 0) + k
        acc += len(table) if k & 1 else 0
    return _now() - t0


def run_pass(instances, kind, tracer=None) -> PassResult:
    from adtxn import simulate
    from adtxn.core import FrameworkError

    def stage(name, i):
        return tracer.stage_span(name, i) if tracer else nullcontext()

    gc.collect()
    out = PassResult()
    probe_every = max(1, len(instances) // PROBES_PER_PASS)
    for i, workload in enumerate(instances):
        out.txns += len(workload.txns)
        if i % probe_every == 0:
            out.probe_ns.append(probe())
        t0 = _now()
        try:
            with stage("sim", i):
                result = simulate.run_simulated(workload)
        except (FrameworkError, AssertionError) as exc:
            out.sim_ns.append(_now() - t0)
            out.check_ns.append(0)
            out.digests.append("")
            out.failures.append(f"instance {i}: run: {type(exc).__name__}: {exc}")
            continue
        t1 = _now()
        try:
            with stage("check", i):
                failure = kind.check(result)
        except (FrameworkError, AssertionError) as exc:
            failure = f"check: {type(exc).__name__}: {exc}"
        t2 = _now()
        out.sim_ns.append(t1 - t0)
        out.check_ns.append(t2 - t1)
        if failure is not None:
            out.failures.append(f"instance {i}: {failure}")
        out.victims += result.metrics.victims
        out.digests.append(digest(result))
        if tracer is not None:
            _history_stats(result, out)
    return out


# -- statistics ---------------------------------------------------------------


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile, q in [0, 1]."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _busy_ns(p: PassResult) -> int:
    return sum(p.sim_ns) + sum(p.check_ns)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def host_scale(passes) -> float:
    """The factor that takes this run's timings to the reference host speed.

    The host's speed drifts by up to a fifth over minutes, longer than a
    run (see NOTES.md), and the best of several passes cannot remove that.
    The probes, spread over the passes, see the same drift, and they are
    the benchmark's own code, the same on every commit of the program."""
    return PROBE_REF_NS / quantile([ns for p in passes for ns in p.probe_ns], 0.05)


def end_to_end(setup_ns, passes):
    """Each instance's time is its best over the passes: load from other
    tenants of the machine only ever slows a pass down. Every time is then
    scaled by `host_scale`."""
    scale = host_scale(passes)
    sim = [min(col) * scale for col in zip(*(p.sim_ns for p in passes))]
    check = [min(col) * scale for col in zip(*(p.check_ns for p in passes))]
    wl = [min(s + c for s, c in runs) * scale
          for runs in zip(*(zip(p.sim_ns, p.check_ns) for p in passes))]
    txns = passes[0].txns
    metrics = {
        "setup_s": (statistics.median(setup_ns) * scale / 1e9, "s"),
        "sim_txn_per_s": (txns / (sum(sim) / 1e9), "1/s"),
        "check_txn_per_s": (txns / (sum(check) / 1e9), "1/s"),
        "wl_ms_p50": (quantile(wl, 0.50) / 1e6, "ms"),
        "wl_ms_p99": (quantile(wl, 0.99) / 1e6, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    per = f"{len(wl)} instances, each the best of {len(passes)} passes"
    notes = {
        "setup_s": f"median over {len(setup_ns)} blocks of a block's best set-up",
        "sim_txn_per_s": f"{txns} txns; {per}",
        "check_txn_per_s": f"{txns} txns; {per}",
        "wl_ms_p50": f"{len(wl)} samples: {per}",
        "wl_ms_p99": f"{len(wl)} samples, {len(wl) / 100:.1f} beyond p99",
        "peak_rss_mb": "whole process",
    }
    return metrics, notes


# -- per-layer metrics from one traced pass -----------------------------------

_CHECK_SPANS = ("monitor.check", "monitor.admission_safety")
_TABLE_LEAVES = ("tables.in", "tables.out", "tables.deduce")

_COUNT_SUFFIXES = ("_calls", "steps", "_edges", "cycles", "admitted", "deduced",
                   "blocked", "_orders", "cases")


def _ratio(num, den):
    return num / den if den else 0.0


def _shared_layers(t, stage):
    """monitor, tables, core and adts: used by the engine and the replayer."""
    s = 1e-9
    admit_calls = t.calls(stage, "monitor.admit")
    deduce_calls = t.leaf_calls(stage, "tables.deduce")
    translate_calls = t.calls(stage, "core.translate")
    return {
        "monitor.admit_calls": admit_calls,
        "monitor.admit_self_s": t.self_ns(stage, "monitor.admit") * s,
        "monitor.admitted": t.counted(stage, "monitor.admitted"),
        "monitor.deduced": t.counted(stage, "monitor.deduced"),
        "monitor.blocked": t.counted(stage, "monitor.blocked"),
        "monitor.block_ratio": _ratio(t.counted(stage, "monitor.blocked"), admit_calls),
        "monitor.complete_s": t.self_ns(stage, "monitor.complete") * s,
        "monitor.finish_s": t.self_ns(stage, "monitor.finish") * s,
        "monitor.withdraw_s": t.self_ns(stage, "monitor.withdraw") * s,
        "monitor.find_invocation_calls": t.counted(stage, "monitor.find_invocation"),
        "monitor.check_s": sum(t.self_ns(stage, n) for n in _CHECK_SPANS) * s,
        "tables.in_calls": t.leaf_calls(stage, "tables.in"),
        "tables.out_calls": t.leaf_calls(stage, "tables.out"),
        "tables.deduce_calls": deduce_calls,
        "tables.deduce_hit_ratio": _ratio(t.counted(stage, "tables.deduce_hits"),
                                          deduce_calls),
        "tables.query_s": sum(t.leaf_ns(stage, n) for n in _TABLE_LEAVES) * s,
        "core.translate_calls": translate_calls,
        "core.translate_s": t.self_ns(stage, "core.translate") * s,
        "core.null_ratio": _ratio(t.counted(stage, "core.null"), translate_calls),
        "core.inverse_calls": t.calls(stage, "core.inverse"),
        "core.inverse_s": t.self_ns(stage, "core.inverse") * s,
        "adts.apply_calls": t.leaf_calls(stage, "adts.apply"),
        "adts.apply_s": t.leaf_ns(stage, "adts.apply") * s,
    }


def layer_metrics(t, p: PassResult) -> dict[str, float]:
    """Every per-layer metric of one traced pass, by name."""
    s = 1e-9
    sim = {
        "simulate.steps": t.counted("sim", "simulate.steps"),
        "simulate.self_s": t.self_ns("sim", "simulate.run") * s,
        "manager.waits_for_calls": t.calls("sim", "manager.waits_for"),
        "manager.waits_for_s": t.self_ns("sim", "manager.waits_for") * s,
        "manager.waits_for_edges": t.counted("sim", "manager.waits_for_edges"),
        "manager.find_cycle_s": t.self_ns("sim", "manager.find_cycle") * s,
        "manager.cycles": t.counted("sim", "manager.cycles"),
        "manager.abort_s": t.self_ns("sim", "manager.abort") * s,
        "manager.commit_s": t.self_ns("sim", "manager.commit") * s,
        "manager.perform_self_s": t.self_ns("sim", "manager.perform") * s,
        "manager.useful_exec_ratio": _ratio(p.useful_executions, p.executions),
        "monitor.wait_events_p50": quantile(p.wait_events, 0.50),
        "monitor.wait_events_p99": quantile(p.wait_events, 0.99),
        **_shared_layers(t, "sim"),
        "history.emit_calls": t.leaf_calls("sim", "history.emit"),
        "history.emit_s": t.leaf_ns("sim", "history.emit") * s,
        "stage_s": t.total_ns("sim", "sim") * s,
    }
    check = {
        **_shared_layers(t, "check"),
        "oracles.replay_s": t.self_ns("check", "oracles.replay") * s,
        "oracles.replay_waits_for_s":
            t.self_ns("check", "oracles.replay_waits_for") * s,
        "oracles.find_cycle_s": t.self_ns("check", "oracles.find_cycle") * s,
        "oracles.serial_s": t.self_ns("check", "oracles.serial") * s,
        "oracles.serial_orders": t.calls("check", "oracles.serial"),
        "stage_s": t.total_ns("check", "check") * s,
    }
    metrics = {f"sim.{k}": v for k, v in sim.items()}
    metrics.update({f"check.{k}": v for k, v in check.items()})
    sim_s, check_s = sim["stage_s"], check["stage_s"]
    metrics.update({
        "share.deadlock_of_sim_pct": 100 * _ratio(
            sim["manager.waits_for_s"] + sim["manager.find_cycle_s"], sim_s),
        "share.waits_for_of_sim_pct": 100 * _ratio(sim["manager.waits_for_s"], sim_s),
        "share.admission_of_sim_pct": 100 * _ratio(
            sim["monitor.admit_self_s"] + sim["tables.query_s"], sim_s),
        "share.check_of_instance_pct": 100 * _ratio(check_s, sim_s + check_s),
        "sched.victim_pct": 100 * _ratio(p.victims, p.txns),
    })
    return metrics


def is_count(name: str) -> bool:
    return name.endswith(_COUNT_SUFFIXES)


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_ratio"):
        return "ratio"
    if name.startswith("sim.monitor.wait_events"):
        return "events"
    return "count"


# -- the run ------------------------------------------------------------------


@contextmanager
def installed(tracer):
    from tracer import install
    patches = install(tracer)
    try:
        yield
    finally:
        patches.uninstall()


def set_up(kind, seed, tracer=None):
    gc.collect()    # not the garbage of the last set-up or pass
    t0 = _now()
    with tracer.stage_span("setup") if tracer else nullcontext():
        instances = kind.generate(seed)
    return instances, _now() - t0


def measure(instances, kind, seed, seconds, first_setup_ns, tracer=None):
    """`kind.rounds` rounds, fewer only if the next would overrun `seconds`
    (at least one always runs). A round is an untraced pass, then with a
    tracer a traced one.

    After each round comes one block of set-ups, as many as fill about
    SETUP_BLOCK_NS at the first set-up's pace, so that set-up timings are
    spread over the run as the passes are. Each set-up must rebuild the same
    instances. Returns the rounds and each block's best set-up time.
    """
    deadline = _now() + seconds * 1e9
    per_block = max(1, round(SETUP_BLOCK_NS / first_setup_ns))
    rounds, setup_ns = [], []
    while len(rounds) < kind.rounds:
        t0 = _now()
        plain = run_pass(instances, kind)
        traced = None
        if tracer is not None:
            tracer.reset()
            with installed(tracer):
                traced = run_pass(instances, kind, tracer)
            traced.layers = layer_metrics(tracer, traced)
        rounds.append((plain, traced))
        block = []
        for _ in range(per_block):
            again, ns = set_up(kind, seed)
            if again != instances:
                sys.exit("bench: set-up is not deterministic for one seed")
            block.append(ns)
        setup_ns.append(min(block))
        if _now() + (_now() - t0) > deadline:
            break
    return rounds, setup_ns


def determinism_failures(rounds) -> list[str]:
    """Every pass, traced or not, must reproduce the first pass's traces,
    and every traced pass the first traced pass's counts."""
    failures = []
    reference = rounds[0][0].digests
    passes = [p for r in rounds for p in r if p is not None]
    for n, p in enumerate(passes[1:], 1):
        for i, (a, b) in enumerate(zip(reference, p.digests)):
            if a != b:
                failures.append(f"instance {i}: pass {n} traced differently")
    traced = [t for _, t in rounds if t is not None]
    for n, p in enumerate(traced[1:], 1):
        for name, value in p.layers.items():
            if is_count(name) and value != traced[0].layers[name]:
                failures.append(f"traced pass {n}: count {name} is {value}, "
                                f"was {traced[0].layers[name]}")
    return failures


def validate_sweep(tracer) -> dict[str, float]:
    """validate_adt over all four types at depth 3: informational."""
    from adtxn import validate
    from adtxn.adts import builtin_names, get_adt
    with tracer.stage_span("validate"):
        reports = [r for adt in builtin_names()
                   for r in validate.validate_adt(get_adt(adt), 3)]
    return {"validate.sweep_s": tracer.total_ns("validate", "validate") * 1e-9,
            "validate.cases": sum(r.cases for r in reports)}


def write_trace(tracer, layers, workload, seed):
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    stem = f"{workload}-{seed}"
    with open(out / f"spans-{stem}.jsonl", "w") as f:
        for sid, parent, inst, stage, name, start, end in tracer.spans:
            f.write(json.dumps({"id": sid, "parent": parent, "instance": inst,
                                "stage": stage, "name": name,
                                "start_ns": start, "end_ns": end}) + "\n")
    with open(out / f"layers-{stem}.json", "w") as f:
        json.dump(layers, f, indent=1, sort_keys=True)


def main(argv=None) -> int:
    if not __debug__:
        sys.exit("bench: refusing to run under python -O: the program's "
                 "correctness asserts are stripped")
    import_adtxn()
    import workloads
    from tracer import Tracer

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.ACCEPTANCE_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    kind = workloads.WORKLOADS[args.workload]

    instances, first_setup_ns = set_up(kind, args.seed)
    gc.collect()
    gc.freeze()    # the instances live all run; keep them out of collections
    tracer = None
    if args.trace:
        tracer = Tracer()
        with installed(tracer):
            set_up(kind, args.seed, tracer)
            setup_layers = {"setup.fuzz.generate_s":
                            tracer.self_ns("setup", "fuzz.generate") * 1e-9}
            tracer.reset()
            setup_layers.update(validate_sweep(tracer))
    rounds, setup_ns = measure(instances, kind, args.seed, args.seconds,
                               first_setup_ns, tracer)

    plain = [p for p, _ in rounds]
    failures = [f for r in rounds for p in r if p is not None for f in p.failures]
    failures += determinism_failures(rounds)
    attempted = sum(len(p.sim_ns) for r in rounds for p in r if p is not None)
    failed = min(len(failures), attempted)
    first = plain[0]

    print(f"workload {args.workload} seed {args.seed}: {len(instances)} instances, "
          f"{first.txns} txns per pass, {len(rounds)} of {kind.rounds} rounds")
    if args.trace == 0:
        e2e, notes = end_to_end(setup_ns, plain)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
        for name, (value, unit) in e2e.items():
            print(f"{name} {value:.6g} {unit}  ({notes[name]})")
        scale = host_scale(plain)
        print(f"host probe p5 {PROBE_REF_NS / scale / 1e6:.4g} ms, reference "
              f"{PROBE_REF_NS / 1e6:g} ms: every time above is scaled by {scale:.4g}")
    else:
        traced = [t for _, t in rounds]
        layers = dict(setup_layers)
        for name in traced[0].layers:
            values = [t.layers[name] for t in traced]
            layers[name] = values[0] if is_count(name) else statistics.median(values)
        overhead = statistics.median(
            _busy_ns(t) / _busy_ns(p) - 1 for p, t in rounds)
        layers["bench.trace_overhead_pct"] = 100 * overhead
        write_trace(tracer, layers, args.workload, args.seed)
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in layers.items()}
        for name in ("share.deadlock_of_sim_pct", "share.admission_of_sim_pct",
                     "share.waits_for_of_sim_pct", "share.check_of_instance_pct",
                     "bench.trace_overhead_pct"):
            print(f"{name} {layers[name]:.4g} %")
    print(f"victim_pct {100 * first.victims / first.txns:.4g} %  "
          f"(deterministic; {first.victims} of {first.txns} txns per pass)")
    print(f"fail_pct {100 * failed / attempted:.4g} %  "
          f"({failed} failures in {attempted} instance runs)")
    for line in failures[:10]:
        print("FAIL " + line, file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
