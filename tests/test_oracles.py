"""Oracles judged from both sides: they must accept real runs and reject
doctored ones. Every rejection test here is a seam a regression could hide
in if the oracle went soft."""

import dataclasses
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from adtxn import history as hist
from adtxn import oracles
from adtxn.adts import get_adt
from adtxn.fuzz import derive_seed, flip_random_abort, generate_workload
from adtxn.history import History
from adtxn.manager import Observation, TxnStatus
from adtxn.monitor import ManagedObject
from adtxn.oracles import (
    HistoryReplayError,
    check_abort_transparency,
    check_run,
    check_serializable,
    replay_history,
    replay_serial,
    validate_run,
)
from adtxn.simulate import run_simulated
from adtxn.values import UNIT, item, report
from adtxn.workload import (ObjectDecl, RandomSchedule, TxnDecl, Workload,
                            make_step, parse_workload)
from test_manager import _stack_instance

OK = report("Ok")

CONTENTIOUS = """\
object s stack ()
txn T1
  op s PUSH a
end commit
txn T2
  op s POP
end commit
schedule steps T1 T2 T2 T1 T1
"""

DEADLOCK = """\
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
"""


def doctored(history, mutate):
    """Copy a history, applying `mutate(events) -> events`."""
    events = mutate(list(history.events))
    return History([dataclasses.replace(e, index=i) for i, e in enumerate(events)])


# ---------------------------------------------------------- serial replay

def test_replay_serial_is_order_sensitive():
    w = parse_workload(CONTENTIOUS)
    states, obs = replay_serial(w, [w.txn_decl("T1"), w.txn_decl("T2")])
    assert states == {"s": ()}
    assert obs["T2"] == [Observation("s", "POP", (), (item("a"), OK))]
    states, obs = replay_serial(w, [w.txn_decl("T2"), w.txn_decl("T1")])
    assert states == {"s": ("a",)}
    assert obs["T2"] == [Observation("s", "POP", (), (UNIT, report("EmptyStack")))]


def test_check_serializable_accepts_and_names_a_witness():
    res = run_simulated(parse_workload(CONTENTIOUS))
    verdict = check_serializable(res)
    assert verdict.ok and verdict.witness == ("T1", "T2")


def test_check_serializable_rejects_a_wrong_final_state():
    res = run_simulated(parse_workload(CONTENTIOUS))
    res.final_states["s"] = ("z",)
    assert not check_serializable(res).ok


def test_check_serializable_rejects_a_wrong_observation():
    res = run_simulated(parse_workload(CONTENTIOUS))
    res.observations["T2"] = [Observation("s", "POP", (), (item("b"), OK))]
    assert not check_serializable(res).ok


def test_transparency_accepts_a_real_rollback():
    res = run_simulated(parse_workload(DEADLOCK))
    assert res.statuses["T2"] is TxnStatus.ABORTED
    verdict = check_abort_transparency(res)
    assert verdict.ok and verdict.witness == ("T1",)


def test_transparency_requires_an_aborted_txn():
    res = run_simulated(parse_workload(CONTENTIOUS))
    with pytest.raises(AssertionError):
        check_abort_transparency(res)


def test_transparency_rejects_visible_residue():
    # claim T1 aborted even though its push committed and is visible
    res = run_simulated(parse_workload(CONTENTIOUS))
    res.statuses["T1"] = TxnStatus.ABORTED
    res.final_states["s"] = ("a",)
    verdict = check_abort_transparency(res)
    assert not verdict.ok and "residue" in verdict.detail


# --------------------------------------------------------- history replay

def test_replay_returns_the_final_states():
    res = run_simulated(parse_workload(DEADLOCK))
    assert replay_history(res.workload, res.history) == res.final_states


def test_replay_rejects_a_missing_block_line():
    res = run_simulated(parse_workload(CONTENTIOUS))
    bad = doctored(res.history, lambda ev: [e for e in ev if e.kind != hist.BLOCK])
    with pytest.raises(HistoryReplayError, match="admission outcome"):
        replay_history(res.workload, bad)


def test_replay_rejects_forged_execution_outs():
    res = run_simulated(parse_workload(CONTENTIOUS))

    def forge(ev):
        out = []
        for e in ev:
            if e.kind == hist.EXEC and e.op == "POP":
                e = dataclasses.replace(e, outs=(item("b"), OK))
            out.append(e)
        return out

    with pytest.raises(HistoryReplayError, match="execution produced"):
        replay_history(res.workload, doctored(res.history, forge))


def test_replay_rejects_a_phantom_wake():
    res = run_simulated(parse_workload(CONTENTIOUS))
    wake = next(e for e in res.history if e.kind == hist.WAKE)
    bad = doctored(res.history, lambda ev: ev + [wake])
    with pytest.raises(HistoryReplayError, match="thin air"):
        replay_history(res.workload, bad)


def test_replay_rejects_a_suppressed_wake():
    res = run_simulated(parse_workload(CONTENTIOUS))
    bad = doctored(res.history, lambda ev: [e for e in ev if e.kind != hist.WAKE])
    with pytest.raises(HistoryReplayError, match="due before"):
        replay_history(res.workload, bad)


def test_replay_rejects_exec_where_deduction_was_forced():
    # the deduction run, with its DEDUCE line rewritten as an EXEC
    res = run_simulated(parse_workload("""\
object s stack ()
txn T1
  op s EMPTY
end commit
txn T2
  op s POP
end commit
schedule steps T1 T2 T2 T1 T2
"""))

    def forge(ev):
        return [dataclasses.replace(e, kind=hist.EXEC)
                if e.kind == hist.DEDUCE else e for e in ev]

    with pytest.raises(HistoryReplayError, match="deduced"):
        replay_history(res.workload, doctored(res.history, forge))


def test_replay_rejects_reordered_inverses():
    res = run_simulated(parse_workload("""\
object s stack a
txn T1
  op s PUSH b
  op s POP
end abort
schedule steps T1 T1 T1
"""))

    def swap(ev):
        idx = [i for i, e in enumerate(ev) if e.kind == hist.INVERSE]
        assert len(idx) == 2
        ev[idx[0]], ev[idx[1]] = ev[idx[1]], ev[idx[0]]
        return ev

    with pytest.raises(HistoryReplayError, match="expected inverse"):
        replay_history(res.workload, doctored(res.history, swap))


@pytest.mark.parametrize("kind,message", [
    (hist.WITHDRAW, "inverse not due"),
    (hist.INVERSE, "wake out of thin air"),
])
def test_replay_rejects_a_dropped_abort_step(kind, message):
    # the victim T2 withdraws its blocked push, then undoes its executed one
    res = run_simulated(parse_workload(DEADLOCK))
    assert res.history.count(kind) == 1
    bad = doctored(res.history, lambda ev: [e for e in ev if e.kind != kind])
    with pytest.raises(HistoryReplayError, match=message):
        replay_history(res.workload, bad)


def test_replay_rejects_a_forged_victim():
    res = run_simulated(parse_workload(DEADLOCK))

    def forge(ev):
        out = []
        for e in ev:
            if e.kind == hist.VICTIM:
                e = dataclasses.replace(e, txn="T1")
            out.append(e)
        return out

    with pytest.raises(HistoryReplayError, match="victim"):
        replay_history(res.workload, doctored(res.history, forge))


def test_replay_rejects_a_truncated_history():
    res = run_simulated(parse_workload(CONTENTIOUS))
    bad = doctored(res.history, lambda ev: ev[:-1])   # drop T2's COMMIT
    with pytest.raises(HistoryReplayError, match="end of history"):
        replay_history(res.workload, bad)


def test_replay_rejects_a_truncated_history_under_optimization():
    # python -O strips asserts; the replay's own checks must not go with them
    script = textwrap.dedent("""\
        import sys
        sys.path.insert(0, "tests")
        from test_oracles import CONTENTIOUS, doctored
        from adtxn.oracles import HistoryReplayError, replay_history
        from adtxn.simulate import run_simulated
        from adtxn.workload import parse_workload
        assert False, "asserts are live: not running under -O"
        res = run_simulated(parse_workload(CONTENTIOUS))
        try:
            replay_history(res.workload, doctored(res.history, lambda ev: ev[:-1]))
        except HistoryReplayError as exc:
            print("rejected:", exc)
        """)
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-O", "-c", script], cwd=root, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "rejected: end of history" in proc.stdout


# ------------------------------- replay: each monitor checked once per change

def _sets_instance(rng, txns=50, sets=3):
    spec = get_adt("set")
    decls, total = [], 0
    for t in range(txns):
        steps = []
        for _ in range(rng.randint(2, 4)):
            op = rng.choice(("INSERT", "DELETE", "IN", "CARD"))
            ins = () if op == "CARD" else (item(rng.choice("abcd")),)
            steps.append(make_step(spec, f"s{rng.randint(1, sets)}", op, ins))
        total += len(steps)
        decls.append(TxnDecl(f"T{t + 1}", tuple(steps), "commit"))
    objects = tuple(ObjectDecl(f"s{i + 1}", "set", "{}") for i in range(sets))
    return Workload(objects, tuple(decls),
                    RandomSchedule(rng.randrange(2 ** 31), 20 * total + 20))


def _bookkeeping(obj):
    pools = tuple({i: (inv.lifecycle, inv.outs, inv.executions)
                   for i, inv in pool.items()}
                  for pool in (obj.blocked, obj.in_execution, obj.executed))
    return (pools, {b: set(w) for b, w in obj.blocks.items()},
            {w: set(b) for w, b in obj.blocked_by.items()})


def test_replay_leaves_every_monitor_as_it_was_last_checked(monkeypatch):
    # The replay runs no invariant sweep of its own: it relies on each strict
    # entry section ending with _check and on nothing else changing a
    # monitor's bookkeeping. Require that after every event.
    workloads = []
    for i in range(200):
        rng = random.Random(derive_seed(20260816, i))
        workload = generate_workload(rng)
        workloads += [workload, flip_random_abort(workload, rng)]
    rng = random.Random(11)
    workloads += [_stack_instance(rng) for _ in range(3)]
    workloads += [_sets_instance(rng) for _ in range(3)]
    results = [run_simulated(w) for w in workloads]

    empty = _bookkeeping(ManagedObject("x", 0, get_adt("set"), frozenset()))
    checked = {}
    events = 0
    check, step = ManagedObject._check, oracles._Replayer._step

    def recorded(obj):
        check(obj)
        checked[obj] = _bookkeeping(obj)

    def compared(replayer, event):
        nonlocal events
        step(replayer, event)
        events += 1
        for obj in replayer.objects.values():
            assert obj.strict
            assert _bookkeeping(obj) == checked.get(obj, empty), \
                f"event {event.index}: {obj.name} changed since its last check"

    monkeypatch.setattr(ManagedObject, "_check", recorded)
    monkeypatch.setattr(oracles._Replayer, "_step", compared)
    for res in results:
        assert replay_history(res.workload, res.history) == res.final_states
    assert events > 10_000 and len(checked) > 700


# -------------------------------------------------------------- validate_run

def test_validate_run_passes_and_catches_state_drift():
    res = run_simulated(parse_workload(DEADLOCK))
    assert validate_run(res).ok
    res.final_states["A"] = ("zzz",)
    assert not validate_run(res).ok


# ------------------------------------------------------------------ check_run

def test_check_run_searches_serial_orders_once_per_run(monkeypatch):
    calls = 0

    def counted(workload, order):
        nonlocal calls
        calls += 1
        return replay_serial(workload, order)

    monkeypatch.setattr(oracles, "replay_serial", counted)
    results = []
    for i in range(30):
        rng = random.Random(derive_seed(20260816, i))
        results.append(run_simulated(flip_random_abort(generate_workload(rng), rng)))
    for res in results:
        assert TxnStatus.ABORTED in res.statuses.values()
        assert check_serializable(res).ok
    alone, calls = calls, 0
    for res in results:
        assert check_run(res)[0] is None
    assert calls == alone
