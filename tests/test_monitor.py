"""Monitor protocol, driven directly: admission outcomes, blocking edges,
wakeups at completion vs finish, withdrawal, and the invariant checker."""

import dataclasses
import itertools
import os
import re
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

from adtxn import monitor
from adtxn.adts import get_adt
from adtxn.core import Lifecycle, Origin, PrivateCall, PrivateInvocation
from adtxn.monitor import AdmitOutcome, ManagedObject, MonitorInvariantError
from adtxn.tables import try_deduce as tables_try_deduce
from adtxn.values import TRUE, UNIT, item, rational, report

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
    assert not obj.live and obj.running == 0


def test_execute_twice_trips_the_counter():
    obj, ids = make_object(), Ids()
    inv = ids.inv(1, "PUSH", item("a"))
    obj.admit(inv)
    obj.execute(inv)
    with pytest.raises(MonitorInvariantError, match="executed more than once"):
        obj.execute(inv)


def test_entry_sections_check_the_lifecycle():
    obj, ids = make_object(), Ids()
    inv = ids.inv(1, "PUSH", item("a"))
    with pytest.raises(MonitorInvariantError, match="not in execution"):
        obj.execute(inv)
    with pytest.raises(MonitorInvariantError, match="completed outside execution"):
        obj.complete(inv, (OK,))
    with pytest.raises(MonitorInvariantError, match="cannot admit"):
        obj.admit(ids.inv(1, "POP", obj="elsewhere"))
    obj.admit(inv)
    with pytest.raises(MonitorInvariantError, match="cannot admit"):
        obj.admit(inv)
    with pytest.raises(MonitorInvariantError, match="finished before it executed"):
        obj.finish(inv)
    obj.complete(inv, obj.execute(inv))
    obj.finish(inv)
    assert not obj.live and inv.lifecycle is Lifecycle.FINISHED


def test_conflict_blocks_until_finish():
    obj, ids = make_object(), Ids()
    pusher = ids.inv(1, "PUSH", item("a"))
    obj.admit(pusher)
    popper = ids.inv(2, "POP")
    assert obj.admit(popper) is AdmitOutcome.BLOCKED
    assert obj.blocked_by == {popper.id: {pusher.id}}
    assert obj.blocks == {pusher.id: {popper.id}}
    # results do not help here: a successful push still conflicts with POP
    assert obj.complete(pusher, obj.execute(pusher)) == ((), ())
    assert popper.lifecycle is Lifecycle.BLOCKED
    woken, shed = obj.finish(pusher)
    assert woken == [popper] and shed == [popper.id]
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
    assert obj.complete(ins, outs) == ([reader], [reader.id])
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
    assert obj.live[pop.id] is pop and pop.lifecycle is Lifecycle.EXECUTED


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
    woken, shed = obj.withdraw(popper)
    assert woken == [] and shed == [probe.id]   # probe still waits on the push
    assert obj.blocked_by[probe.id] == {pusher.id}
    assert obj.blocks == {pusher.id: {probe.id}}
    assert popper.lifecycle is Lifecycle.FINISHED
    # withdrawing the last blocker admits the waiter
    obj.complete(pusher, obj.execute(pusher))
    assert obj.finish(pusher) == ([probe], [probe.id])


def test_withdraw_requires_blocked():
    obj, ids = make_object(), Ids()
    inv = ids.inv(1, "PUSH", item("a"))
    obj.admit(inv)
    with pytest.raises(MonitorInvariantError, match="withdrawn but not blocked"):
        obj.withdraw(inv)


def test_commuting_ops_overlap_in_execution():
    obj, ids = make_object(), Ids()
    e1, e2 = ids.inv(1, "EMPTY"), ids.inv(2, "EMPTY")
    obj.admit(e1)
    obj.admit(e2)
    assert obj.running == 2 and obj.max_in_execution == 2
    obj.complete(e2, obj.execute(e2))
    obj.complete(e1, obj.execute(e1))
    assert obj.running == 0 and obj.max_in_execution == 2


def test_apply_inverse_bypasses_admission():
    obj, ids = make_object(), Ids()
    inv = ids.inv(1, "PUSH", item("a"))
    run_to_executed(obj, inv)
    outs = obj.apply_inverse(PrivateCall("POP", ()))
    assert outs == (item("a"), OK) and obj.state == ()


def test_admission_and_out_control_evaluate_no_deduction(monkeypatch):
    # Only try_deduce reads a deduction. Count every deduce the set's
    # out-entries make while admit's conflict loop and complete query
    # executed ops whose matching entries carry one.
    calls = []

    def counted(entry):
        def deduce(*args):
            calls.append(entry.note)
            return entry.deduce(*args)
        return dataclasses.replace(entry, deduce=deduce)

    spec = get_adt("set")
    tables = dataclasses.replace(
        spec.tables, out_entries=tuple(counted(e) for e in spec.tables.out_entries))
    obj = ManagedObject("s", 0, dataclasses.replace(spec, tables=tables),
                        frozenset({"a"}))
    monkeypatch.setattr(monitor, "try_deduce", lambda *args: None)
    ids = Ids()
    first = ids.inv(1, "INSERT", item("a"))
    run_to_executed(obj, first)
    assert first.outs == (report("AlreadyIn"),)
    reader = ids.inv(2, "IN", item("a"))
    assert obj.admit(reader) is AdmitOutcome.ADMITTED     # INSERT/IN out-entry
    writer = ids.inv(3, "INSERT", item("a"))
    assert obj.admit(writer) is AdmitOutcome.BLOCKED      # on the running reader
    assert obj.complete(reader, obj.execute(reader))[0] == [writer]   # IN/INSERT
    assert calls == []
    # the entries do deduce, when asked
    assert tables_try_deduce(tables, ids.inv(4, "IN", item("a")), [first], []) == (TRUE,)
    assert len(calls) == 1


def test_keyed_admission_queries_only_what_can_conflict(monkeypatch):
    asked = []
    for name in ("commute_with_in", "commute_with_in_out"):
        query = getattr(monitor, name)
        monkeypatch.setattr(monitor, name,
                            lambda *args, q=query, n=name: asked.append(n) or q(*args))
    # a set: ops on other items are never queried, only the same item's
    sets, ids = make_object("set", state=frozenset({"a"})), Ids()
    for txn, x in enumerate("bcdefg"):
        run_to_executed(sets, ids.inv(txn, "INSERT", item(x)))
    assert asked == []
    assert sets.admit(ids.inv(10, "IN", item("a"))) is AdmitOutcome.ADMITTED
    assert asked == []
    assert sets.admit(ids.inv(11, "DELETE", item("a"))) is AdmitOutcome.BLOCKED
    assert asked == ["commute_with_in"]
    # CARD has no key: it queries every live op but the IN, an ALWAYS pair
    asked.clear()
    assert sets.admit(ids.inv(12, "CARD")) is AdmitOutcome.BLOCKED
    assert asked == ["commute_with_in_out"] * 6 + ["commute_with_in"]
    # a counter: ADDs pair through ALWAYS, so none is queried
    counter, asked[:] = make_object("real", state=Fraction(0), name="c"), []
    for txn in range(5):
        inv = PrivateInvocation(100 + txn, txn, "c", "ADD", (rational(Fraction(1)),))
        assert counter.admit(inv) is AdmitOutcome.ADMITTED
    assert asked == []


def test_keyed_deduction_asks_only_when_its_groups_hold_every_executed_op(monkeypatch):
    asked = []

    def recorded(tables, inv, executed, pending):
        executed, pending = list(executed), list(pending)
        asked.append(([o.id for o in executed], [o.id for o in pending]))
        return tables_try_deduce(tables, inv, executed, pending)

    monkeypatch.setattr(monitor, "try_deduce", recorded)
    sets, ids = make_object("set", state=frozenset({"a"})), Ids()
    insert_a, insert_b = ids.inv(1, "INSERT", item("a")), ids.inv(2, "INSERT", item("b"))
    run_to_executed(sets, insert_a)
    asked.clear()
    run_to_executed(sets, insert_b)
    assert insert_a.outs == (report("AlreadyIn"),) and sets.executed == 2
    # INSERT b cannot pin IN a, so nothing is asked; IN a runs
    reader = ids.inv(3, "IN", item("a"))
    assert sets.admit(reader) is AdmitOutcome.ADMITTED and asked == []
    # once INSERT b is gone, INSERT a pins the answer; the running IN a
    # and INSERT c are read as pending, whatever their keys
    sets.finish(insert_b)
    writer = ids.inv(4, "INSERT", item("c"))
    assert sets.admit(writer) is AdmitOutcome.ADMITTED and asked == []
    probe = ids.inv(5, "IN", item("a"))
    assert sets.admit(probe) is AdmitOutcome.DEDUCED and probe.outs == (TRUE,)
    assert asked == [([insert_a.id], [reader.id, writer.id])]
    assert sets.executed == 2
    # an unkeyed op reads every live op, as before
    asked.clear()
    assert sets.admit(ids.inv(6, "CARD")) is AdmitOutcome.BLOCKED
    assert asked == [([insert_a.id, probe.id], [reader.id, writer.id])]
    sets._check()


def test_invariant_checker_notices_tampering():
    obj, ids = make_object(), Ids()
    inv = ids.inv(1, "PUSH", item("a"))
    obj.admit(inv)
    inv.lifecycle = Lifecycle.EXECUTED      # lie: executed, yet it has no outs
    with pytest.raises(MonitorInvariantError, match="outs or execution count"):
        obj._check()
    inv.lifecycle = Lifecycle.FINISHED      # lie: finished, yet still live
    with pytest.raises(MonitorInvariantError, match="misfiled"):
        obj._check()
    inv.lifecycle = Lifecycle.IN_EXECUTION
    obj._check()
    obj.running = 0                         # lie: nothing in execution
    with pytest.raises(MonitorInvariantError, match="1 in execution"):
        obj._check()


def test_invariant_checker_notices_a_broken_index():
    obj, ids = make_object("set", state=frozenset({"a"})), Ids()
    first = ids.inv(1, "INSERT", item("a"))
    card = ids.inv(1, "CARD")
    run_to_executed(obj, first)
    run_to_executed(obj, card)
    assert obj.by_key == {"a": {first.id: first}, None: {card.id: card}}
    obj._check()
    obj.by_key["b"] = obj.by_key.pop("a")           # lie: filed under another key
    for scope in ((), (first,)):
        with pytest.raises(MonitorInvariantError, match="misfiled in the index"):
            obj._check(*scope)
    del obj.by_key["b"]                             # lie: live but not filed
    for scope in ((), (first,)):
        with pytest.raises(MonitorInvariantError, match="misfiled in the index|1 filed"):
            obj._check(*scope)
    obj.by_key["a"] = {first.id: first}
    obj._check()
    obj.finish(card)
    assert None not in obj.by_key
    obj.by_key[None] = {card.id: card}              # lie: dead, still filed
    for scope in ((), (card,)):
        with pytest.raises(MonitorInvariantError, match="misfiled in the index"):
            obj._check(*scope)
    # a type without keys files nothing
    stack, ids = make_object(), Ids()
    inv = ids.inv(1, "PUSH", item("a"))
    stack.admit(inv)
    stack.by_key[None] = {inv.id: inv}
    with pytest.raises(MonitorInvariantError, match="misfiled in the index"):
        stack._check()


def test_an_empty_group_fails_the_whole_check_under_none_as_under_any_key():
    # an op without a key is filed under None, a key like any other: its
    # group goes with its last op, and one left filed but empty is refused
    obj, ids = make_object("set", state=frozenset({"a"})), Ids()
    first = ids.inv(1, "INSERT", item("a"))
    card = ids.inv(1, "CARD")
    run_to_executed(obj, first)
    run_to_executed(obj, card)
    assert set(obj.by_key) == {"a", None}
    obj.finish(card)
    assert set(obj.by_key) == {"a"}
    obj._check()
    for key in (None, "b"):
        obj.by_key[key] = {}                        # lie: a group left filed but empty
        with pytest.raises(MonitorInvariantError, match=rf"empty key {key!r} filed"):
            obj._check()
        del obj.by_key[key]
    obj._check()


def test_woken_op_is_re_tested_against_the_ops_in_execution():
    # The engine never wakes an op into a conflict, so plant one: a push in
    # execution that no admission saw. Releasing the popper's last blocker
    # must trip the re-test of the woken op against the running ops.
    obj, ids = make_object(), Ids()
    pusher = ids.inv(1, "PUSH", item("a"))
    obj.admit(pusher)
    popper = ids.inv(2, "POP")
    assert obj.admit(popper) is AdmitOutcome.BLOCKED
    assert obj.complete(pusher, obj.execute(pusher)) == ((), ())
    planted = ids.inv(3, "PUSH", item("b"))
    planted.lifecycle = Lifecycle.IN_EXECUTION
    obj.live[planted.id] = planted
    obj.running += 1
    with pytest.raises(MonitorInvariantError,
                       match=r"admitted against conflicting (?!executed)"):
        obj.finish(pusher)


def test_woken_op_re_test_catches_a_false_key_claim():
    # keying pushes by item is a lie (pushes of distinct items conflict), so
    # admission skips the conflict; the full re-test of a woken op finds it
    liar = dataclasses.replace(
        get_adt("stack"), conflict_key=lambda op, ins: ins[0].payload if op == "PUSH" else None)
    obj, ids = ManagedObject("s", 0, liar, ()), Ids()
    popper = ids.inv(1, "POP")
    obj.admit(popper)
    first, second = ids.inv(2, "PUSH", item("a")), ids.inv(3, "PUSH", item("b"))
    assert obj.admit(first) is obj.admit(second) is AdmitOutcome.BLOCKED
    assert obj.blocked_by[second.id] == {popper.id}          # not first: another key
    obj.complete(popper, obj.execute(popper))
    with pytest.raises(MonitorInvariantError, match="under another key: the key claim is false"):
        obj.finish(popper)


def test_scoped_check_reads_an_edge_from_both_sides():
    obj, ids = make_object(), Ids()
    pusher = ids.inv(1, "PUSH", item("a"))
    obj.admit(pusher)
    popper = ids.inv(2, "POP")
    obj.admit(popper)
    obj._check(pusher, [popper.id])
    obj.blocks[pusher.id].discard(popper.id)     # lie: only blocked_by keeps it
    with pytest.raises(MonitorInvariantError, match="edge 1->2 broken"):
        obj._check(pusher, [popper.id])
    with pytest.raises(MonitorInvariantError, match="edge 1->2 broken"):
        obj._check(popper)
    obj.blocks[pusher.id].add(popper.id)
    obj.blocked_by[popper.id].clear()            # lie: only blocks keeps it
    with pytest.raises(MonitorInvariantError, match="2 blocked by nothing"):
        obj._check(pusher, [popper.id])


def _executed_and_blocked():
    """A stack where T1's PUSH a (inv 1) is executed and T2's POP (inv 2)
    is blocked on it."""
    obj, ids = make_object(), Ids()
    pusher = ids.inv(1, "PUSH", item("a"))
    obj.admit(pusher)
    obj.complete(pusher, obj.execute(pusher))
    obj.admit(ids.inv(2, "POP"))
    assert [inv.lifecycle for inv in obj.live.values()] == [
        Lifecycle.EXECUTED, Lifecycle.BLOCKED]
    return obj


def _one_in_execution():
    obj, ids = make_object(), Ids()
    obj.admit(ids.inv(1, "PUSH", item("a")))
    assert obj.live[1].lifecycle is Lifecycle.IN_EXECUTION
    return obj


# (start, one lie planted in its bookkeeping, what the whole-object check
# says). Misfiled comes first: only the stage check under the op's key in
# `live` reads the id, so a check that reached ops by `live.values()` alone
# would pass it
WHOLE_CHECK_LIES = [
    (_one_in_execution, lambda obj: obj.live.update({7: obj.live.pop(1)}), "misfiled"),
    (_executed_and_blocked, lambda obj: obj.blocked_by.update({99: {1}}),
     "s: 99 waits but is not blocked"),
    (_executed_and_blocked, lambda obj: obj.blocks.update({99: {2}}),
     "s: edges from dead op 99"),
    (_executed_and_blocked, lambda obj: setattr(obj.live[2], "outs", (OK,)),
     "blocked with outs or executions"),
    (_one_in_execution, lambda obj: setattr(obj.live[1], "outs", (OK,)),
     "in execution with outs"),
    (_executed_and_blocked, lambda obj: obj.blocks[1].add(1), "s: edge 1->1 broken"),
    (_executed_and_blocked, lambda obj: obj.blocks.pop(1), "s: edge 1->2 broken"),
]


def test_the_whole_check_catches_each_lie_with_its_own_message():
    for start, lie, message in WHOLE_CHECK_LIES:
        obj = start()
        obj._check()
        lie(obj)
        with pytest.raises(MonitorInvariantError, match=re.escape(message)):
            obj._check()
    # a scoped check given a report with no waiter behind it
    obj = _executed_and_blocked()
    with pytest.raises(MonitorInvariantError, match=re.escape("s: shed [2] with no waiter")):
        obj._check(obj.live[1], (), [2])


def run_optimized(body):
    """Run `body` under `python -O` after the imports every script here
    needs; returns its stdout."""
    script = textwrap.dedent("""\
        import sys
        sys.path.insert(0, "tests")
        from test_monitor import Ids, make_object
        from adtxn.core import Lifecycle
        from adtxn.monitor import MonitorInvariantError
        from adtxn.values import item
        assert False, "asserts are live: not running under -O"
        """) + textwrap.dedent(body)
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-O", "-c", script], cwd=root, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_invariant_checker_notices_tampering_under_optimization():
    # python -O strips asserts; the strict checks must not go with them
    out = run_optimized("""\
        obj, ids = make_object(), Ids()
        inv = ids.inv(1, "PUSH", item("a"))
        obj.admit(inv)
        for lie in (Lifecycle.EXECUTED, Lifecycle.FINISHED):
            inv.lifecycle = lie
            try:
                obj._check()
            except MonitorInvariantError as exc:
                print("rejected:", exc)
        """)
    assert out.count("rejected:") == 2
    assert "outs or execution count" in out and "misfiled" in out


def test_index_tampering_is_noticed_under_optimization():
    out = run_optimized("""\
        obj, ids = make_object("set", state=frozenset({"a"})), Ids()
        inv = ids.inv(1, "INSERT", item("a"))
        obj.admit(inv)
        obj.complete(inv, obj.execute(inv))
        def check():
            try:
                obj._check()
            except MonitorInvariantError as exc:
                print("rejected:", exc)
        obj.by_key["b"] = obj.by_key.pop("a")
        check()
        del obj.by_key["b"]
        check()
        """)
    assert out.count("rejected:") == 2
    assert "misfiled in the index" in out and "1 live, 0 filed" in out


def test_the_whole_check_catches_each_lie_under_optimization():
    out = run_optimized("""\
        from test_monitor import WHOLE_CHECK_LIES
        for start, lie, message in WHOLE_CHECK_LIES:
            obj = start()
            lie(obj)
            try:
                obj._check()
            except MonitorInvariantError as exc:
                print("rejected:", message in str(exc))
        """)
    assert out == "rejected: True\n" * len(WHOLE_CHECK_LIES)


def test_double_execution_is_refused_under_optimization():
    out = run_optimized("""\
        obj, ids = make_object(), Ids()
        inv = ids.inv(1, "PUSH", item("a"))
        obj.admit(inv)
        obj.execute(inv)
        try:
            obj.execute(inv)
        except MonitorInvariantError as exc:
            print("rejected:", exc)
        print("state:", obj.state)
        """)
    assert "rejected:" in out and "executed more than once" in out
    assert "state: ('a',)" in out


def test_each_stage_of_the_scoped_check_holds_under_optimization():
    # the scoped check branches on the op's stage after the section: in
    # execution, blocked, executed or dead; each branch must reject a
    # planted lie with asserts stripped
    out = run_optimized("""\
        def check(obj, op):
            try:
                obj._check(op)
            except MonitorInvariantError as exc:
                print("rejected:", exc)
        obj, ids = make_object(), Ids()
        pusher = ids.inv(1, "PUSH", item("a"))
        obj.admit(pusher)
        popper = ids.inv(2, "POP")
        obj.admit(popper)                    # blocked on the pusher
        pusher.outs = ()                     # lie: in execution with outs
        check(obj, pusher)
        pusher.outs = None
        obj.blocks[popper.id] = {pusher.id}  # lie: in execution, yet wait-listed
        check(obj, pusher)
        del obj.blocks[popper.id]
        popper.executions = 1                # lie: blocked, yet it ran
        check(obj, popper)
        popper.executions = 0
        obj.complete(pusher, obj.execute(pusher))
        pusher.executions = 2                # lie: executed twice
        check(obj, pusher)
        pusher.executions = 1
        woken, shed = obj.finish(pusher)     # wakes the popper
        print("woken:", [w.id for w in woken])
        obj.blocks[pusher.id] = {popper.id}  # lie: a dead op still blocks
        check(obj, pusher)
        """)
    assert out.count("rejected:") == 5 and "woken: [2]" in out
    for message in ("in execution with outs", "s: edge to non-blocked 1",
                    "blocked with outs or executions",
                    "outs or execution count", "s: edges from dead op 1"):
        assert message in out
