"""Tests of the benchmark itself: determinism, tracing, strict/non-strict.

Run from the root of a checkout:

    python3 -m pytest -q bench

They use a few instances of each workload, not whole passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run as bench_run  # noqa: E402

bench_run.import_adtxn()

import tracer as bench_tracer  # noqa: E402
import workloads  # noqa: E402
from adtxn import monitor, oracles, simulate  # noqa: E402
from adtxn.workload import render_workload  # noqa: E402

SEED = 7
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def sample(name, seed=SEED):
    """A few instances of a workload: enough to reach every layer."""
    instances = workloads.WORKLOADS[name].generate(seed)
    return {"corpus": instances[:40], "hot_stack": instances[:2],
            "commuting": instances[:1]}[name]


def digests(instances, strict=True):
    return [bench_run.digest(simulate.run_simulated(w, strict=strict))
            for w in instances]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_workload_text(name):
    kind = workloads.WORKLOADS[name]
    first = [render_workload(w) for w in kind.generate(SEED)]
    second = [render_workload(w) for w in kind.generate(SEED)]
    assert first == second


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_another_seed_gives_other_workloads(name):
    kind = workloads.WORKLOADS[name]
    texts = {render_workload(w) for w in kind.generate(SEED)}
    assert texts.isdisjoint(render_workload(w) for w in kind.generate(SEED + 1))


def test_corpus_at_master_seed_is_the_acceptance_corpus():
    from adtxn.fuzz import derive_seed, flip_random_abort, generate_workload
    import random
    instances = workloads.corpus(workloads.ACCEPTANCE_SEED)
    assert len(instances) == 2 * workloads.CORPUS_PAIRS
    for i in (0, 1, 999):
        commit = generate_workload(random.Random(derive_seed(20260816, i)))
        rng = random.Random(derive_seed(20260816, i))
        abort = flip_random_abort(generate_workload(rng), rng)
        assert instances[2 * i] == commit and instances[2 * i + 1] == abort


_DIGEST_SCRIPT = """
import sys
sys.path.insert(0, {bench!r})
import run
run.import_adtxn()
import test_bench
for name in sorted(test_bench.workloads.WORKLOADS):
    print(name, *test_bench.digests(test_bench.sample(name)))
"""


def test_trace_digests_repeat_across_processes():
    # string hashing differs between processes; traces must not
    outputs = []
    for hashseed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        proc = subprocess.run(
            [sys.executable, "-c", _DIGEST_SCRIPT.format(bench=str(BENCH))],
            capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert len(outputs[0].splitlines()) == len(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tracing_does_not_perturb_traces(name):
    instances = sample(name)
    plain = digests(instances)
    t = bench_tracer.Tracer()
    with bench_run.installed(t):
        with t.stage_span("sim"):
            traced = digests(instances)
    assert traced == plain
    assert t.calls("sim", "monitor.admit") > 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_non_strict_runs_match_strict_runs(name):
    for w in sample(name):
        strict = simulate.run_simulated(w, strict=True)
        loose = simulate.run_simulated(w, strict=False)
        assert loose.trace == strict.trace
        assert loose.final_states == strict.final_states
        assert loose.statuses == strict.statuses


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_sample_instance_passes_its_checks(name):
    kind = workloads.WORKLOADS[name]
    for w in sample(name):
        assert kind.check(simulate.run_simulated(w)) is None


def test_install_patches_every_binding_and_uninstall_restores_them():
    originals = (monitor.commute_with_in, oracles.find_cycle,
                 oracles.translate_public, monitor.ManagedObject.admit)
    patches = bench_tracer.install(bench_tracer.Tracer())
    try:
        from adtxn import manager
        assert monitor.commute_with_in is not originals[0]
        assert oracles.find_cycle is not originals[1]
        assert manager.find_cycle is not oracles.find_cycle
        assert oracles.translate_public is not originals[2]
        assert manager.translate_public is not originals[2]
        assert monitor.ManagedObject.admit is not originals[3]
    finally:
        patches.uninstall()
    assert (monitor.commute_with_in, oracles.find_cycle,
            oracles.translate_public, monitor.ManagedObject.admit) == originals


def test_traced_counts_repeat_and_names_match_benchmark_json():
    kind = workloads.WORKLOADS["hot_stack"]
    instances = sample("hot_stack")
    layers = []
    for _ in range(2):
        t = bench_tracer.Tracer()
        with bench_run.installed(t):
            p = bench_run.run_pass(instances, kind, t)
        assert not p.failures
        layers.append(bench_run.layer_metrics(t, p))
    counts = {k: v for k, v in layers[0].items() if bench_run.is_count(k)}
    assert counts == {k: v for k, v in layers[1].items() if bench_run.is_count(k)}
    assert layers[0]["sim.manager.cycles"] > 0
    emitted = set(layers[0]) | {
        "setup.fuzz.generate_s", "validate.sweep_s",
        "validate.cases", "bench.trace_overhead_pct"}
    assert emitted == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert m["unit"] == bench_run.unit_of(m["name"]), m["name"]


def test_end_to_end_names_match_benchmark_json():
    p = bench_run.run_pass(sample("commuting"), workloads.WORKLOADS["commuting"])
    metrics, notes = bench_run.end_to_end([1, 2, 3], [p])
    assert {k: u for k, (v, u) in metrics.items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v > 0 for v, u in metrics.values())
    assert set(notes) == set(metrics)


def test_end_to_end_times_follow_the_host_probe():
    # the same work on a host twice as slow: every time and probe doubles
    def run_at(k):
        p = bench_run.PassResult(sim_ns=[3 * k, 5 * k], check_ns=[2 * k, 4 * k],
                                 txns=10, probe_ns=[1_000_000 * k] * 4)
        metrics, _ = bench_run.end_to_end([7 * k], [p])
        return {n: v for n, (v, u) in metrics.items() if n != "peak_rss_mb"}
    fast, slow = run_at(1), run_at(2)
    assert slow == pytest.approx(fast)
    assert fast["setup_s"] == pytest.approx(
        7 * bench_run.PROBE_REF_NS / 1_000_000 / 1e9)


def _bench(cwd, *flags):
    return subprocess.run(
        [sys.executable, *flags, "bench/run.py", "--workload", "commuting",
         "--seconds", "1"], cwd=cwd, capture_output=True, text=True, timeout=300)


def test_refuses_to_run_under_optimize():
    proc = _bench(BENCH.parent, "-O")
    assert proc.returncode != 0
    assert "python -O" in proc.stderr and proc.stdout == ""


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = _bench(tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
