"""Commutativity table queries: unordered in-matching, out-entry deductions,
the in-table fallback, and the deduction rule; the per-pair index, one entry
per pair, against a linear scan of the entries; soundness checks that hold
under `python -O`."""

import dataclasses
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from adtxn.adts import builtin_names, get_adt
from adtxn.core import PrivateCall
from adtxn.tables import (CommutTables, InCommutEntry, OutCommutEntry,
                          _out_entry_for, commute_with_in, commute_with_in_out,
                          try_deduce)
from adtxn.values import FALSE, TRUE, UNIT, item, rational, report, seq


class Ex:
    """Minimal stand-in for an executed invocation (.op/.ins/.outs)."""

    def __init__(self, op, ins=(), outs=None):
        self.op = op
        self.ins = tuple(ins)
        self.outs = tuple(outs) if outs is not None else None

    def __repr__(self):
        return f"Ex({self.op})"


STACK = get_adt("stack").tables
SET = get_adt("set").tables
REAL = get_adt("real").tables

OK = report("Ok")
EMPTY_STACK = report("EmptyStack")
ALREADY_IN = report("AlreadyIn")
NOT_FOUND = report("NotFound")


def out_answer(tables, executed, incoming):
    """(commutes, deduced): the out-query, and the deduction `try_deduce`
    reads off `executed` alone."""
    return (commute_with_in_out(tables, executed, incoming),
            try_deduce(tables, incoming, [executed], []))


def test_in_table_is_order_insensitive():
    ins_a = Ex("INSERT", [item("a")])
    del_b = Ex("DELETE", [item("b")])
    assert commute_with_in(SET, ins_a, del_b)
    assert commute_with_in(SET, del_b, ins_a)
    # same item: conflict both ways
    del_a = Ex("DELETE", [item("a")])
    assert not commute_with_in(SET, ins_a, del_a)
    assert not commute_with_in(SET, del_a, ins_a)


def test_stack_in_table_is_deliberately_sparse():
    push_a = Ex("PUSH", [item("a")])
    assert commute_with_in(STACK, push_a, Ex("PUSH", [item("a")]))
    assert not commute_with_in(STACK, push_a, Ex("PUSH", [item("b")]))
    assert commute_with_in(STACK, Ex("EMPTY"), Ex("EMPTY"))
    # absence means conflict: PUSH vs EMPTY has no entry
    assert not commute_with_in(STACK, push_a, Ex("EMPTY"))
    assert not commute_with_in(STACK, push_a, Ex("POP"))


def test_card_conflicts_with_writers_but_not_readers():
    card = Ex("CARD")
    assert not commute_with_in(SET, card, Ex("INSERT", [item("a")]))
    assert not commute_with_in(SET, card, Ex("DELETE", [item("a")]))
    assert commute_with_in(SET, card, Ex("IN", [item("a")]))
    assert commute_with_in(SET, card, Ex("CARD"))


def test_out_entry_grants_commutativity_and_a_deduction():
    executed = Ex("POP", [], [UNIT, EMPTY_STACK])
    assert out_answer(STACK, executed, PrivateCall("POP", ())) \
        == (True, (UNIT, EMPTY_STACK))
    assert out_answer(STACK, executed, PrivateCall("EMPTY", ())) == (True, (TRUE,))
    assert out_answer(STACK, executed, PrivateCall("CLEAR", ())) \
        == (True, (report("AlreadyEmpty"), seq(())))


def test_out_entry_condition_gates_on_results():
    # a successful pop pins nothing useful: conflict
    executed = Ex("POP", [], [item("a"), OK])
    assert not commute_with_in_out(STACK, executed, PrivateCall("POP", ()))
    assert not commute_with_in_out(STACK, executed, PrivateCall("EMPTY", ()))


def test_out_query_falls_back_to_the_in_table_without_deducing():
    executed = Ex("PUSH", [item("a")], [OK])
    assert out_answer(STACK, executed, PrivateCall("PUSH", (item("a"),))) == (True, None)
    assert not commute_with_in_out(STACK, executed, PrivateCall("PUSH", (item("b"),)))


def test_set_out_entries():
    ins = Ex("INSERT", [item("a")], [ALREADY_IN])
    assert out_answer(SET, ins, PrivateCall("INSERT", (item("a"),))) \
        == (True, (ALREADY_IN,))
    assert out_answer(SET, ins, PrivateCall("IN", (item("a"),))) == (True, (TRUE,))
    # successful insert answers nothing, and same-item operations conflict
    ins_ok = Ex("INSERT", [item("a")], [OK])
    assert not commute_with_in_out(SET, ins_ok, PrivateCall("IN", (item("a"),)))
    dele = Ex("DELETE", [item("a")], [NOT_FOUND])
    assert out_answer(SET, dele, PrivateCall("IN", (item("a"),))) == (True, (FALSE,))
    card = Ex("CARD", [], [rational(2)])
    assert out_answer(SET, card, PrivateCall("CARD", ())) == (True, (rational(2),))


def test_real_read_deductions():
    setto = Ex("SETTO", [rational(7)], [rational(7)])
    assert out_answer(REAL, setto, PrivateCall("READ", ())) == (True, (rational(7),))
    # old != new: the write moved the state, a reader must wait
    moved = Ex("SETTO", [rational(7)], [rational(2)])
    assert not commute_with_in_out(REAL, moved, PrivateCall("READ", ()))
    read = Ex("READ", [], [rational(9)])
    assert out_answer(REAL, read, PrivateCall("READ", ())) == (True, (rational(9),))


def test_try_deduce_requires_executed_evidence():
    pop = PrivateCall("POP", ())
    assert try_deduce(STACK, pop, [], []) is None
    ex = Ex("EMPTY", [], [TRUE])
    assert try_deduce(STACK, pop, [ex], []) == (UNIT, EMPTY_STACK)


def test_try_deduce_needs_every_executed_op_to_answer():
    pop = PrivateCall("POP", ())
    empty_true = Ex("EMPTY", [], [TRUE])
    push_ok = Ex("PUSH", [item("a")], [OK])
    # the push's out-entry is absent, so the combined evidence is insufficient
    assert try_deduce(STACK, pop, [empty_true, push_ok], []) is None


def test_try_deduce_blocked_by_pending_conflicts():
    pop = PrivateCall("POP", ())
    empty_true = Ex("EMPTY", [], [TRUE])
    pending_push = Ex("PUSH", [item("a")])
    assert try_deduce(STACK, pop, [empty_true], [pending_push]) is None
    # a pending in-commuting op does not spoil it
    assert try_deduce(STACK, Ex("EMPTY"), [empty_true], [Ex("EMPTY")]) == (TRUE,)


# ------------------------------------------ the pair index vs a linear scan

def scan_commute_with_in(tables, a, b):
    """The pair's one in-entry decides, in its own argument order."""
    for e in tables.in_entries:
        if e.op_a == a.op and e.op_b == b.op:
            return e.when(a.ins, b.ins)
        if e.op_a == b.op and e.op_b == a.op:
            return e.when(b.ins, a.ins)
    return False


def scan_out_entry_for(tables, executed, incoming):
    for e in tables.out_entries:
        if (e.executed_op == executed.op and e.incoming_op == incoming.op
                and e.when(executed.ins, executed.outs, incoming.ins)):
            return e
    return None


def scan_commute_with_in_out(tables, executed, incoming):
    """(commutes, deduced) as the matching out-entry, else the in-table,
    decides."""
    e = scan_out_entry_for(tables, executed, incoming)
    if e is not None:
        return True, e.deduce(executed.ins, executed.outs, incoming.ins) if e.deduce else None
    return scan_commute_with_in(tables, executed, incoming), None


def assert_index_matches_scan(tables, p, q):
    """Every query on executed `p` (it carries outs) and incoming `q`, plus
    the in-query both ways, agrees with the scan. Returns the out answer."""
    assert commute_with_in(tables, p, q) == scan_commute_with_in(tables, p, q)
    assert commute_with_in(tables, q, p) == scan_commute_with_in(tables, q, p)
    assert _out_entry_for(tables, p, q) is scan_out_entry_for(tables, p, q)
    answer = out_answer(tables, p, q)
    assert answer == scan_commute_with_in_out(tables, p, q)
    return answer


@pytest.mark.parametrize("name", builtin_names())
def test_pair_index_answers_as_a_linear_scan(name):
    spec = get_adt(name)
    probes = spec.probe_calls(3)
    answers = set()
    for s in spec.enumerate_states(3):
        for p in probes:
            _, outs = spec.apply(s, p.op, p.ins)
            executed = Ex(p.op, p.ins, outs)
            answers |= {assert_index_matches_scan(spec.tables, executed, q)
                        for q in probes}
    # the sweep reaches all three answers: conflict, commute, deduce
    assert (False, None) in answers and (True, None) in answers
    assert any(deduced is not None for _, deduced in answers)


def _before(a, b):
    return a[0].payload < b[0].payload


# An asymmetric in-entry, an out-entry on executed A vs incoming B, and one
# on executed A vs incoming C whose deduction echoes the executed op's
# argument, so two executed As can disagree.
SYNTH = CommutTables(
    in_entries=(InCommutEntry("A", "B", when=_before),),
    out_entries=(
        OutCommutEntry("A", "B", when=lambda ei, eo, ii: ei[0] == ii[0],
                       deduce=lambda ei, eo, ii: (item("first"),)),
        OutCommutEntry("A", "C", when=lambda ei, eo, ii: True,
                       deduce=lambda ei, eo, ii: ei),
    ))


def test_pair_index_swaps_an_asymmetric_in_entry():
    a_a, a_b = Ex("A", [item("a")]), Ex("A", [item("b")])
    b_a, b_b = Ex("B", [item("a")]), Ex("B", [item("b")])
    # the entry's condition always sees A's ins first
    assert commute_with_in(SYNTH, a_a, b_b) and commute_with_in(SYNTH, b_b, a_a)
    assert not commute_with_in(SYNTH, a_b, b_a)
    assert not commute_with_in(SYNTH, b_a, a_b)
    # an A/B entry says nothing about A/A or B/B
    assert not commute_with_in(SYNTH, a_a, a_b)
    assert not commute_with_in(SYNTH, b_a, b_b)
    for x in (a_a, a_b, b_a, b_b):
        for y in (a_a, a_b, b_a, b_b):
            assert commute_with_in(SYNTH, x, y) == scan_commute_with_in(SYNTH, x, y)


def test_an_entry_on_one_op_twice_runs_once_per_query():
    calls = []

    def never(ins_a, ins_b):
        calls.append((ins_a, ins_b))
        return False

    tables = CommutTables((InCommutEntry("A", "A", when=never),), ())
    a, b = Ex("A", [item("a")]), Ex("A", [item("b")])
    assert not commute_with_in(tables, a, b)
    # once, with the arguments in query order
    assert calls == [(a.ins, b.ins)]


def test_pair_index_holds_one_out_entry_per_pair():
    assert SYNTH.out_by_pair == {("A", "B"): SYNTH.out_entries[0],
                                 ("A", "C"): SYNTH.out_entries[1]}
    executed = Ex("A", [item("a")], [OK])
    assert out_answer(SYNTH, executed, Ex("B", [item("a")])) == (True, (item("first"),))
    # the entry's condition fails: the in-table decides, and deduces nothing
    assert out_answer(SYNTH, executed, Ex("B", [item("b")])) == (True, None)
    # out-entries are ordered: executed B vs incoming A falls back to the in-table
    assert out_answer(SYNTH, Ex("B", [item("b")], [OK]), Ex("A", [item("a")])) \
        == (True, None)
    for ins in ("a", "b"):
        for incoming in (Ex("B", [item(ins)]), Ex("C", [item(ins)])):
            assert_index_matches_scan(SYNTH, executed, incoming)


def test_replace_rebuilds_the_pair_index():
    no_a_b = dataclasses.replace(SYNTH, out_entries=SYNTH.out_entries[1:])
    executed = Ex("A", [item("a")], [OK])
    assert out_answer(no_a_b, executed, Ex("B", [item("a")])) == (False, None)
    fewer = dataclasses.replace(SYNTH, in_entries=())
    assert not commute_with_in(fewer, Ex("A", [item("a")]), Ex("B", [item("b")]))
    # the index is derived: it takes no part in equality or the repr
    assert CommutTables(SYNTH.in_entries, SYNTH.out_entries) == SYNTH
    assert "by_pair" not in repr(fewer)


def test_always_pairs_and_deducible_ops_are_derived():
    # ALWAYS is recognised by identity, in both orders; a lambda that also
    # returns True is an ordinary condition
    assert SET.always == {"IN": {"IN", "CARD"}, "CARD": {"IN", "CARD"}}
    assert STACK.always == {"EMPTY": {"EMPTY"}}
    assert "SUB" in REAL.always["ADD"] and "ADD" in REAL.always["SUB"]
    lookalike = dataclasses.replace(STACK, in_entries=(
        InCommutEntry("EMPTY", "EMPTY", when=lambda a, b: True),))
    assert lookalike.always == {}
    assert commute_with_in(lookalike, Ex("EMPTY"), Ex("EMPTY"))
    # the incoming ops some out-entry can deduce; a push never is
    assert STACK.deducible == {"POP", "EMPTY", "CLEAR"}
    assert REAL.deducible == {"READ", "SETTO"}
    no_deduce = dataclasses.replace(STACK, out_entries=tuple(
        dataclasses.replace(e, deduce=None) for e in STACK.out_entries))
    assert no_deduce.deducible == frozenset()


# ------------------------------------- soundness checks that -O keeps

def test_soundness_checks_hold_under_optimization():
    # python -O strips asserts; the table soundness checks must not go with them
    script = textwrap.dedent("""\
        import sys
        sys.path.insert(0, "tests")
        from test_tables import OK, SET, SYNTH, Ex
        from adtxn.core import PrivateCall
        from adtxn.tables import TableSoundnessError, commute_with_in_out, try_deduce
        from adtxn.values import item
        assert False, "asserts are live: not running under -O"
        try:
            commute_with_in_out(SET, Ex("IN", [item("a")]),
                                PrivateCall("IN", (item("a"),)))
        except TableSoundnessError as exc:
            print("rejected:", exc)
        try:
            try_deduce(SYNTH, Ex("C", [item("a")]),
                       [Ex("A", [item("a")], [OK]), Ex("A", [item("b")], [OK])], [])
        except TableSoundnessError as exc:
            print("rejected:", exc)
        """)
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-O", "-c", script], cwd=root, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "has no outs" in proc.stdout
    assert "deduction disagreement" in proc.stdout

