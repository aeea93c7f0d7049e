"""Fuzz machinery: seed derivation, generation bounds, the shrinker, and a
small smoke batch through the full pipeline."""

import random

import pytest

from adtxn import fuzz as fuzz_module
from adtxn import manager
from adtxn.fuzz import (
    ShrinkError,
    derive_seed,
    flip_random_abort,
    fuzz,
    generate_workload,
    minimize,
    run_pipeline,
)
from adtxn.oracles import check_run
from adtxn.simulate import run_simulated
from adtxn.workload import RandomSchedule, parse_workload, render_workload
from helpers import undo_oldest_first


def test_derived_seeds_are_stable_and_distinct():
    assert derive_seed(20260816, 0) == 20260816 * 1000003
    seeds = [derive_seed(20260816, i) for i in range(100)]
    assert len(set(seeds)) == 100


def test_generation_is_reproducible_from_the_seed():
    a = generate_workload(random.Random(77))
    b = generate_workload(random.Random(77))
    assert a == b


def test_generated_workloads_respect_their_bounds():
    for i in range(30):
        w = generate_workload(random.Random(i), txns_range=(2, 4), ops_range=(1, 5))
        assert 1 <= len(w.objects) <= 3
        assert 2 <= len(w.txns) <= 4
        assert all(1 <= len(t.steps) <= 5 for t in w.txns)
        assert all(t.terminal == "commit" for t in w.txns)
        assert isinstance(w.schedule, RandomSchedule)


def test_flip_random_abort_changes_exactly_one_terminal():
    w = generate_workload(random.Random(5))
    flipped = flip_random_abort(w, random.Random(5))
    assert sum(t.terminal == "abort" for t in flipped.txns) == 1
    assert [t.steps for t in flipped.txns] == [t.steps for t in w.txns]


def test_the_abort_twin_shares_every_part_it_does_not_flip():
    for seed in range(20):
        w = generate_workload(random.Random(seed))
        flipped = flip_random_abort(w, random.Random(seed))
        assert flipped.objects is w.objects and flipped.schedule is w.schedule
        kept = [t is u for t, u in zip(flipped.txns, w.txns)]
        assert kept.count(False) == 1 and len(kept) == len(w.txns)


def test_the_acceptance_corpus_holds_one_step_object_per_distinct_step():
    # the commit and abort corpora at the acceptance seed, as the
    # benchmark's corpus workload builds them: 17,990 steps, 354 distinct
    steps = []
    for i in range(1000):
        rng = random.Random(derive_seed(20260816, i))
        w = generate_workload(rng)
        for workload in (w, flip_random_abort(w, rng)):
            steps += [s for t in workload.txns for s in t.steps]
    assert len(steps) == 17_990
    assert len({id(s) for s in steps}) == len({(s.obj, s.op, s.ins) for s in steps}) == 354


def test_run_pipeline_accepts_a_generated_workload():
    w = generate_workload(random.Random(3))
    ok, stage, detail = run_pipeline(w)
    assert ok, (stage, detail)


def test_run_pipeline_reports_a_run_stage_failure():
    w = parse_workload("""\
object s stack ()
txn T1
  op s PUSH a
  op s PUSH b
end commit
schedule seed 1 steps 1
""")
    ok, stage, detail = run_pipeline(w)
    assert not ok and stage == "run" and "StepLimitExceeded" in detail


def test_minimize_shrinks_to_the_essential_core():
    # predicate: workload still contains a POP on o1; everything else is fat
    w = parse_workload("""\
object o1 stack a,b
object o2 set
txn T1
  op o1 PUSH a
  op o1 EMPTY
end commit
txn T2
  op o1 POP
  op o1 PUSH c
  op o1 EMPTY
end commit
txn T3
  op o1 CLEAR
end commit
schedule seed 9 steps 100
""")

    def has_pop(candidate):
        return any(s.op == "POP" for t in candidate.txns for s in t.steps)

    small = minimize(w, has_pop)
    assert has_pop(small)
    assert [o.name for o in small.objects] == ["o1"]
    assert len(small.txns) == 1
    assert len(small.txns[0].steps) == 1
    assert small.txns[0].steps[0].op == "POP"


def test_fuzz_smoke_batches_pass():
    assert fuzz(1234, runs=40, with_abort=False).ok
    assert fuzz(1234, runs=40, with_abort=True).ok


def test_fuzz_failures_come_back_reproducible():
    # force failures by fuzzing with an absurdly low op budget: patch the
    # generated schedule through a tiny wrapper instead of reaching into fuzz
    w = generate_workload(random.Random(8))
    tiny = w.__class__(w.objects, w.txns, RandomSchedule(seed=1, max_steps=1))
    ok, stage, _ = run_pipeline(tiny)
    assert not ok and stage == "run"
    text = render_workload(tiny)
    ok2, stage2, _ = run_pipeline(parse_workload(text))
    assert not ok2 and stage2 == "run"


def test_fuzz_passes_at_six_to_twelve_txns():
    # no cap: the oracle judges a run of any size by one serial replay
    assert fuzz(1234, runs=20, txns_range=(6, 12), with_abort=False).ok
    assert fuzz(1234, runs=20, txns_range=(6, 12), with_abort=True).ok


def test_a_failure_that_passes_once_shrunk_is_refused(monkeypatch):
    verdicts = iter([(False, "run", "flaky"), (True, "", "")])
    monkeypatch.setattr(fuzz_module, "run_pipeline", lambda workload: next(verdicts))
    monkeypatch.setattr(fuzz_module, "minimize", lambda workload, still_fails: workload)
    with pytest.raises(ShrinkError, match="passed once shrunk"):
        fuzz(1, runs=1)


def test_fuzz_reports_a_planted_fault_with_a_workload_that_fails_alike(monkeypatch):
    monkeypatch.setattr(manager, "abort_plan", undo_oldest_first)
    report = fuzz(0, runs=50, with_abort=True)
    assert not report.ok and report.runs == 50
    assert [f.stage for f in report.failures] == ["serializability"] * 3
    for f in report.failures:
        assert f.seed == derive_seed(0, f.run_index)
        w = parse_workload(f.workload_text)
        # the shrinker drops every object that no step names
        assert [o.name for o in w.objects] == ["o1"]
        stage, verdict = check_run(run_simulated(w))
        assert (stage, verdict.detail) == (f.stage, f.detail)
