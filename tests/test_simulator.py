"""Cooperative simulator: quantum semantics, token schedules, determinism."""

import dataclasses
import gc
import random
import time

import pytest

from adtxn import manager
from adtxn.history import BEGIN, COMMIT, DEDUCE, EXEC, INVOKE
from adtxn.manager import TxnStatus
from adtxn.monitor import MonitorInvariantError
from adtxn.oracles import check_run
from adtxn.simulate import (SimulationError, StepLimitExceeded, _Simulation,
                            run_simulated)
from adtxn.values import UNIT, item, report
from adtxn.workload import parse_workload
from test_manager import _stack_instance
from test_oracles import _mixed_workloads

OK = report("Ok")


@pytest.fixture(autouse=True)
def picks_checked(monkeypatch):
    """Every test here runs with the kept READY list compared, at every
    step, against a rescan of all activities' records: same activities,
    same (declaration) order, since the seeded pick indexes the list. An
    activity is ready when it has not begun, or its txn is active and not
    blocked. Returns a one-item list counting the steps checked."""
    pick = _Simulation._pick
    steps = [0]

    def checked(sim, ready):
        assert ready == [a for a in sim.cursors.values()
                         if a.rec is None or a.rec.status is TxnStatus.ACTIVE
                         and a.rec.blocked_on is None]
        steps[0] += 1
        return pick(sim, ready)

    monkeypatch.setattr(_Simulation, "_pick", checked)
    return steps


def run_text(text, seed=None):
    return run_simulated(parse_workload(text), seed=seed)


def answers(res, txn, kind):
    """The outs of `txn`'s events of `kind`, in history order."""
    return [e.outs for e in res.history if e.txn == txn and e.kind == kind]


DEDUCTION = """\
object s stack ()
txn T1
  op s EMPTY
end commit
txn T2
  op s POP
end commit
schedule steps T1 T2 T2 T1 T2
"""

DEDUCTION_TRACE = """\
0 BEGIN txn=T1 obj=- op=- in=[] out=[]
1 INVOKE txn=T1 obj=s op=EMPTY in=[] out=[]
2 EXEC txn=T1 obj=s op=EMPTY in=[] out=[true]
3 BEGIN txn=T2 obj=- op=- in=[] out=[]
4 INVOKE txn=T2 obj=s op=POP in=[] out=[]
5 DEDUCE txn=T2 obj=s op=POP in=[] out=[_,EmptyStack]
6 COMMIT txn=T2 obj=- op=- in=[] out=[]
7 COMMIT txn=T1 obj=- op=- in=[] out=[]
"""


def test_token_schedule_replays_exactly():
    res = run_text(DEDUCTION)
    assert res.trace == DEDUCTION_TRACE
    assert res.metrics.invocations == 2
    assert res.metrics.executions == 1
    assert res.metrics.deductions == 1
    assert res.metrics.blocks == 0
    assert answers(res, "T2", DEDUCE) == [(UNIT, report("EmptyStack"))]


def test_tokens_for_waiting_txns_are_skipped():
    res = run_text("""\
object s stack ()
txn T1
  op s PUSH a
end commit
txn T2
  op s POP
end commit
schedule steps T1 T2 T2 T1 T1
""")
    # the second T2 token lands while T2 is parked, so T1 advances instead,
    # commits, and wakes T2
    want = [("BEGIN", "T1"), ("INVOKE", "T1"), ("EXEC", "T1"),
            ("BEGIN", "T2"), ("INVOKE", "T2"), ("BLOCK", "T2"),
            ("COMMIT", "T1"), ("WAKE", "T2"), ("EXEC", "T2"), ("COMMIT", "T2")]
    assert [(e.kind, e.txn) for e in res.history] == want
    assert answers(res, "T2", EXEC) == [(item("a"), OK)]
    assert res.final_states["s"] == ()


def test_exhausted_tokens_fall_back_to_declaration_order():
    res = run_text("""\
object s stack ()
txn T1
  op s EMPTY
end commit
txn T2
  op s EMPTY
end commit
schedule steps T2
""")
    order = [(e.kind, e.txn) for e in res.history]
    # T1's probe is answered from T2's executed one, hence DEDUCE not EXEC
    assert order == [("BEGIN", "T2"), ("INVOKE", "T2"), ("EXEC", "T2"),
                     ("BEGIN", "T1"), ("INVOKE", "T1"), ("DEDUCE", "T1"),
                     ("COMMIT", "T1"), ("COMMIT", "T2")]


def test_a_schedule_of_a_million_tokens_runs_in_linear_time():
    # the tokens are read front to back once per run, so the million tokens
    # naming T1 after it finished cost one pass; taking each off the front
    # of a list was quadratic, 3.4 s at 200,000 tokens on a 2-vCPU host
    text = """\
object s stack ()
txn T1
  op s PUSH a
end commit
txn T2
  op s POP
end commit
schedule steps T1 T1 {} T2 T2
"""
    short = run_text(text.format(""))
    workload = parse_workload(text.format(" ".join(["T1"] * 1_000_000)))
    t0 = time.perf_counter()
    res = run_simulated(workload)
    assert time.perf_counter() - t0 < 10
    assert res.trace == short.trace
    assert [(e.kind, e.txn) for e in res.history][3:5] == [("COMMIT", "T1"), ("BEGIN", "T2")]


def test_zero_step_transaction_is_one_quantum():
    res = run_text("object s stack\ntxn T\nend commit\nschedule steps T\n")
    assert [e.kind for e in res.history] == [BEGIN, COMMIT]
    assert res.statuses["T"] is TxnStatus.COMMITTED


def test_declared_abort_rolls_back():
    res = run_text("""\
object s stack a
txn T1
  op s PUSH b
  op s POP
end abort
schedule steps T1 T1 T1
""")
    assert res.statuses["T1"] is TxnStatus.ABORTED
    assert res.final_states["s"] == ("a",)
    assert res.rendered_states() == {"s": "a"}
    assert res.metrics.inverses == 2
    assert res.metrics.aborts == 1 and res.metrics.victims == 0


def test_deadlock_resolution_inside_a_token_schedule():
    res = run_text("""\
object A stack ()
object B stack ()
txn T1
  op A PUSH a
  op B PUSH x
end commit
txn T2
  op B PUSH b
  op A PUSH d
end commit
schedule steps T1 T2 T1 T2 T1 T1
""")
    assert res.statuses == {"T1": TxnStatus.COMMITTED, "T2": TxnStatus.ABORTED}
    assert res.metrics.victims == 1
    assert res.final_states == {"A": ("a",), "B": ("x",)}


def test_ready_list_matches_a_rescan_on_mixed_workloads(picks_checked):
    for workload in _mixed_workloads():
        run_simulated(workload)
    assert picks_checked[0] > 5_000


def test_a_deadlock_left_unresolved_fails_the_account(monkeypatch):
    # READY empties with T1 and T2 still blocked on each other; the run has
    # no end rule of its own, and its account refuses the monitors that
    # still hold their ops
    monkeypatch.setattr(manager.TransactionManager, "_resolve", lambda *args: None)
    with pytest.raises(MonitorInvariantError, match="^A still holds invocations$"):
        run_text("""\
object A stack ()
object B stack ()
txn T1
  op A PUSH a
  op B PUSH x
end commit
txn T2
  op B PUSH b
  op A PUSH d
end commit
schedule steps T1 T2 T1 T2
""")


def test_same_seed_same_bytes():
    text = """\
object s stack ()
object r real 4
txn T1
  op s PUSH a
  op r MULTIPLY 0
end commit
txn T2
  op s POP
  op r READ
end commit
txn T3
  op r ADD -2
  op s EMPTY
end abort
schedule seed 11 steps 100
"""
    first = run_text(text)
    second = run_text(text)
    assert first.trace == second.trace
    assert first.metrics == second.metrics
    assert first.final_states == second.final_states


def test_seed_parameter_overrides_the_schedule_seed():
    base = """\
object s stack ()
txn T1
  op s PUSH a
  op s PUSH b
end commit
txn T2
  op s POP
  op s EMPTY
end commit
schedule seed 1 steps 100
"""
    override = run_text(base, seed=2)
    rewritten = run_text(base.replace("seed 1", "seed 2"))
    assert override.trace == rewritten.trace


def test_step_cap_is_an_error_not_a_truncation():
    text = """\
object s stack ()
txn T1
  op s PUSH a
  op s PUSH b
  op s PUSH c
end commit
schedule seed 1 steps 2
"""
    with pytest.raises(StepLimitExceeded):
        run_text(text)


def test_an_unknown_schedule_is_refused():
    workload = dataclasses.replace(parse_workload(DEDUCTION), schedule=("T1", "T2"))
    with pytest.raises(SimulationError, match="unknown schedule"):
        run_simulated(workload)


def test_a_txn_name_declared_twice_has_no_run():
    # `engine` builds the one map of a run's txn names, so a workload built
    # in code with two txns named T1 is refused by the run and by the replay
    workload = parse_workload(DEDUCTION)
    twice = dataclasses.replace(workload, txns=tuple(
        dataclasses.replace(t, name="T1") for t in workload.txns))
    with pytest.raises(SimulationError, match="^txn T1 is declared twice$"):
        run_simulated(twice)
    forged = dataclasses.replace(run_simulated(workload), workload=twice)
    stage, verdict = check_run(forged)
    assert (stage, verdict.detail) == ("replay", "txn T1 is declared twice")


def test_a_run_and_its_replay_leave_no_cyclic_garbage():
    # nothing in a run points back at the simulation, and the replay holds
    # no cycle either, so each result is freed by reference counting alone
    # and the cyclic collector finds nothing; the contended instance loses
    # deadlocks, in the run and in its replay
    contended = _stack_instance(random.Random(5))
    gc.collect()
    gc.disable()
    try:
        for workload in _mixed_workloads() + [contended]:
            res = run_simulated(workload)
            assert check_run(res)[0] is None
        assert res.metrics.victims > 0      # the contended run, last
        del res
        assert gc.collect() == 0
    finally:
        gc.enable()
