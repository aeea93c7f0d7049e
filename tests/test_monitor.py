"""Monitor protocol, driven directly: admission outcomes, blocking edges,
wakeups at completion vs finish, withdrawal, and the invariant checker."""

import itertools
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from adtxn.adts import get_adt
from adtxn.core import Lifecycle, Origin, PrivateCall, PrivateInvocation
from adtxn.monitor import AdmitOutcome, ManagedObject, MonitorInvariantError
from adtxn.values import TRUE, UNIT, item, report

OK = report("Ok")


def make_object(adt="stack", state=None, name="s"):
    spec = get_adt(adt)
    return ManagedObject(name=name, index=0, spec=spec,
                         state=spec.initial_state if state is None else state)


class Ids:
    def __init__(self):
        self._c = itertools.count(1)

    def inv(self, txn, op, *ins, obj="s"):
        return PrivateInvocation(id=next(self._c), txn=txn, obj=obj,
                                 op=op, ins=tuple(ins))


def run_to_executed(obj, inv):
    assert obj.admit(inv) is AdmitOutcome.ADMITTED
    outs = obj.execute(inv)
    obj.complete(inv, outs)
    return outs


def test_plain_admit_execute_complete_finish():
    obj, ids = make_object(), Ids()
    inv = ids.inv(1, "PUSH", item("a"))
    assert obj.admit(inv) is AdmitOutcome.ADMITTED
    assert inv.lifecycle is Lifecycle.IN_EXECUTION
    outs = obj.execute(inv)
    assert outs == (OK,) and obj.state == ("a",)
    obj.complete(inv, outs)
    assert inv.lifecycle is Lifecycle.EXECUTED and inv.outs == (OK,)
    obj.finish(inv)
    assert inv.lifecycle is Lifecycle.FINISHED
    assert not obj.blocked and not obj.in_execution and not obj.executed


def test_execute_twice_trips_the_counter():
    obj, ids = make_object(), Ids()
    inv = ids.inv(1, "PUSH", item("a"))
    obj.admit(inv)
    obj.execute(inv)
    with pytest.raises(AssertionError):
        obj.execute(inv)


def test_conflict_blocks_until_finish():
    obj, ids = make_object(), Ids()
    pusher = ids.inv(1, "PUSH", item("a"))
    obj.admit(pusher)
    popper = ids.inv(2, "POP")
    assert obj.admit(popper) is AdmitOutcome.BLOCKED
    assert obj.blocked_by == {popper.id: {pusher.id}}
    assert obj.blocks == {pusher.id: {popper.id}}
    # results do not help here: a successful push still conflicts with POP
    assert obj.complete(pusher, obj.execute(pusher)) == []
    assert popper.lifecycle is Lifecycle.BLOCKED
    woken = obj.finish(pusher)
    assert woken == [popper]
    assert popper.lifecycle is Lifecycle.IN_EXECUTION
    assert obj.execute(popper) == (item("a"), OK)


def test_pseudo_conflict_sheds_at_completion():
    # INSERT vs IN on the same item conflict by in-params, but an insert that
    # reports AlreadyIn pins the membership and frees the reader early.
    obj, ids = make_object("set", state=frozenset({"a"})), Ids()
    ins = ids.inv(1, "INSERT", item("a"))
    obj.admit(ins)
    reader = ids.inv(2, "IN", item("a"))
    assert obj.admit(reader) is AdmitOutcome.BLOCKED
    outs = obj.execute(ins)
    assert outs == (report("AlreadyIn"),)
    assert obj.complete(ins, outs) == [reader]
    assert reader.lifecycle is Lifecycle.IN_EXECUTION


def test_same_transaction_never_conflicts_with_itself():
    obj, ids = make_object(), Ids()
    first = ids.inv(1, "PUSH", item("a"))
    obj.admit(first)
    second = ids.inv(1, "POP")
    assert obj.admit(second) is AdmitOutcome.ADMITTED


def test_deduction_from_an_executed_result():
    obj, ids = make_object(), Ids()
    probe = ids.inv(1, "EMPTY")
    run_to_executed(obj, probe)
    pop = ids.inv(2, "POP")
    assert obj.admit(pop) is AdmitOutcome.DEDUCED
    assert pop.origin is Origin.DEDUCED
    assert pop.outs == (UNIT, report("EmptyStack"))
    assert pop.executions == 0
    assert pop.id in obj.executed


def test_deduction_reads_own_transactions_results_too():
    obj, ids = make_object(), Ids()
    probe = ids.inv(1, "EMPTY")
    run_to_executed(obj, probe)
    pop = ids.inv(1, "POP")
    assert obj.admit(pop) is AdmitOutcome.DEDUCED


def test_deduction_withheld_while_a_writer_is_pending():
    obj, ids = make_object(), Ids()
    probe = ids.inv(1, "EMPTY")
    run_to_executed(obj, probe)
    pusher = ids.inv(2, "PUSH", item("a"))
    assert obj.admit(pusher) is AdmitOutcome.BLOCKED   # EMPTY true blocks PUSH
    pop = ids.inv(3, "POP")
    # the pending push could invalidate the answer, so no deduction; POP
    # blocks on the push (and on nothing else: probe's out-entry admits it)
    assert obj.admit(pop) is AdmitOutcome.BLOCKED
    assert obj.blocked_by[pop.id] == {pusher.id}
    assert pop.id in obj.blocks[pusher.id]


def test_withdraw_scrubs_both_edge_directions():
    obj, ids = make_object(), Ids()
    pusher = ids.inv(1, "PUSH", item("a"))
    obj.admit(pusher)
    popper = ids.inv(2, "POP")
    obj.admit(popper)
    probe = ids.inv(3, "EMPTY")
    assert obj.admit(probe) is AdmitOutcome.BLOCKED
    assert obj.blocked_by[probe.id] == {pusher.id, popper.id}
    woken = obj.withdraw(popper)
    assert woken == []                      # probe still waits on the push
    assert obj.blocked_by[probe.id] == {pusher.id}
    assert obj.blocks == {pusher.id: {probe.id}}
    assert popper.lifecycle is Lifecycle.FINISHED
    # withdrawing the last blocker admits the waiter
    obj.complete(pusher, obj.execute(pusher))
    assert obj.finish(pusher) == [probe]


def test_withdraw_requires_blocked():
    obj, ids = make_object(), Ids()
    inv = ids.inv(1, "PUSH", item("a"))
    obj.admit(inv)
    with pytest.raises(AssertionError):
        obj.withdraw(inv)


def test_commuting_ops_overlap_in_execution():
    obj, ids = make_object(), Ids()
    e1, e2 = ids.inv(1, "EMPTY"), ids.inv(2, "EMPTY")
    obj.admit(e1)
    obj.admit(e2)
    assert len(obj.in_execution) == 2 and obj.max_in_execution == 2
    obj.complete(e2, obj.execute(e2))
    obj.complete(e1, obj.execute(e1))


def test_apply_inverse_bypasses_admission():
    obj, ids = make_object(), Ids()
    inv = ids.inv(1, "PUSH", item("a"))
    run_to_executed(obj, inv)
    outs = obj.apply_inverse(PrivateCall("POP", ()))
    assert outs == (item("a"), OK) and obj.state == ()


def test_invariant_checker_notices_tampering():
    obj, ids = make_object(), Ids()
    inv = ids.inv(1, "PUSH", item("a"))
    obj.admit(inv)
    inv.lifecycle = Lifecycle.EXECUTED      # lie: still filed under in_execution
    with pytest.raises(MonitorInvariantError, match="misfiled"):
        obj._check()


def test_invariant_checker_notices_tampering_under_optimization():
    # python -O strips asserts; the strict checks must not go with them
    script = textwrap.dedent("""\
        import sys
        sys.path.insert(0, "tests")
        from test_monitor import Ids, make_object
        from adtxn.core import Lifecycle
        from adtxn.monitor import MonitorInvariantError
        from adtxn.values import item
        assert False, "asserts are live: not running under -O"
        obj, ids = make_object(), Ids()
        inv = ids.inv(1, "PUSH", item("a"))
        obj.admit(inv)
        inv.lifecycle = Lifecycle.EXECUTED
        try:
            obj._check()
        except MonitorInvariantError as exc:
            print("rejected:", exc)
        """)
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-O", "-c", script], cwd=root, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "rejected:" in proc.stdout and "misfiled" in proc.stdout
