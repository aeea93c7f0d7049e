"""Oracles judged from both sides: they must accept real runs and reject
doctored ones. Every rejection test here is a seam a regression could hide
in if the oracle went soft."""

import dataclasses
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from adtxn import history as hist
from adtxn.history import History
from adtxn.manager import Observation, TxnStatus
from adtxn.oracles import (
    HistoryReplayError,
    check_abort_transparency,
    check_serializable,
    replay_history,
    replay_serial,
    validate_run,
)
from adtxn.simulate import run_simulated
from adtxn.values import UNIT, item, report
from adtxn.workload import parse_workload

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


# -------------------------------------------------------------- validate_run

def test_validate_run_passes_and_catches_state_drift():
    res = run_simulated(parse_workload(DEADLOCK))
    assert validate_run(res).ok
    res.final_states["A"] = ("zzz",)
    assert not validate_run(res).ok
