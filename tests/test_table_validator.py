"""The brute-force sweeps must pass on the shipped types and, just as
importantly, must catch planted lies. A validator nobody has seen fail is
not evidence of anything."""

import dataclasses

import pytest

from adtxn.adts import get_adt
from adtxn.core import FrameworkError, InverseRule, PrivateCall, TranslationRule
from adtxn.tables import (ALWAYS, CommutTables, InCommutEntry, OutCommutEntry,
                          commute_with_in)
from adtxn.validate import (
    check_inverses,
    check_pairs,
    check_translation,
    validate_adt,
)
from adtxn.values import UNIT, item, report, seq

STACK = get_adt("stack")

BOUNDS = {"stack": 3, "set": 3, "real": 40, "boolean": 3}


@pytest.mark.parametrize("name", ["stack", "set", "real", "boolean"])
def test_builtin_types_sweep_clean(name):
    spec = get_adt(name)
    reports = validate_adt(spec, bound=BOUNDS[name])
    for rep in reports:
        assert rep.cases > 0, f"{name} {rep.check} swept nothing"
        assert rep.ok, f"{name} {rep.check}: {[v.detail for v in rep.violations[:3]]}"
    # only a type that declares conflict keys has a key claim to sweep
    assert ("keys" in [rep.check for rep in reports]) == (name == "set")


# ------------------------------------------------------- planted-lie checks

def with_in_entry(spec, entry):
    t = spec.tables
    return dataclasses.replace(spec, tables=CommutTables(t.in_entries + (entry,),
                                                         t.out_entries))


def with_out_entry(spec, entry):
    """`spec` with `entry` in place of its out-entry on the same pair, if any."""
    t = spec.tables
    pair = (entry.executed_op, entry.incoming_op)
    kept = tuple(e for e in t.out_entries if (e.executed_op, e.incoming_op) != pair)
    return dataclasses.replace(spec, tables=CommutTables(t.in_entries, kept + (entry,)))


def pair_report(spec, bound, check):
    """The `check_pairs` report named `check`."""
    return next(r for r in check_pairs(spec, bound) if r.check == check)


def test_in_table_sweep_catches_a_false_claim():
    liar = with_in_entry(STACK, InCommutEntry("PUSH", "POP", when=lambda a, b: True))
    rep = pair_report(liar, 3, "in-table")
    assert not rep.ok
    assert any("PUSH" in v.detail and "POP" in v.detail for v in rep.violations)


def test_key_sweep_catches_a_lying_key():
    # pushes of distinct items do not commute, so the item is no key for them
    liar = dataclasses.replace(
        STACK, conflict_key=lambda op, ins: ins[0].payload if op == "PUSH" else None)
    rep = pair_report(liar, 3, "keys")
    assert not rep.ok
    assert any("PUSH[a] (key 'a') vs PUSH[b] (key 'b'): the in-query says conflict"
               in v.detail for v in rep.violations)
    assert not any(r.ok for r in validate_adt(liar, bound=3) if r.check == "keys")


def test_key_sweep_catches_a_deduction_across_keys():
    # an IN that copies another item's answer from an executed IN: the pair
    # still commutes in both tables, but a deduction now reaches across keys
    liar = with_out_entry(get_adt("set"), OutCommutEntry(
        "IN", "IN", when=lambda ei, eo, ii: True, deduce=lambda ei, eo, ii: (eo[0],)))
    rep = pair_report(liar, 2, "keys")
    assert any("a deducing entry matches" in v.detail for v in rep.violations)


def test_out_table_sweep_catches_a_false_deduction():
    # claims a pop after a *false* emptiness test still finds nothing
    liar = with_out_entry(STACK, OutCommutEntry(
        "EMPTY", "POP",
        when=lambda ei, eo, ii: eo[0].payload is False,
        deduce=lambda ei, eo, ii: (UNIT, report("EmptyStack"))))
    rep = pair_report(liar, 3, "out-table")
    assert not rep.ok


def test_tables_refuse_a_second_entry_on_one_pair():
    t = STACK.tables
    dup = OutCommutEntry("EMPTY", "EMPTY", when=lambda ei, eo, ii: True,
                         deduce=lambda ei, eo, ii: (eo[0],))
    with pytest.raises(FrameworkError, match="^two out-entries on EMPTY/EMPTY$"):
        CommutTables(t.in_entries, t.out_entries + (dup,))
    # in-entries are unordered: B/A after A/B is a second entry on one pair
    with pytest.raises(FrameworkError, match="^two in-entries on B/A$"):
        CommutTables((InCommutEntry("A", "B", when=ALWAYS),
                      InCommutEntry("B", "A", when=ALWAYS)), ())


def test_inverse_sweep_catches_a_false_null():
    rules = tuple(r for r in STACK.inverses if r.op != "PUSH")
    rules += (InverseRule("PUSH", when=lambda i, o: True, null=True),)
    liar = dataclasses.replace(STACK, inverses=rules)
    rep = check_inverses(liar, bound=2)
    assert not rep.ok
    assert any("moved the state" in v.detail for v in rep.violations)


def test_inverse_sweep_catches_a_wrong_target():
    rules = tuple(r for r in STACK.inverses if r.op != "POP")
    rules += (InverseRule("POP", when=lambda i, o: True,
                          target=lambda i, o: PrivateCall("PUSH", (item("a"),))),)
    liar = dataclasses.replace(STACK, inverses=rules)
    rep = check_inverses(liar, bound=2)
    assert not rep.ok


def test_inverse_sweep_probes_restore_at_the_swept_depth():
    # a RESTORE inverse that is wrong only for content of three items or more
    def target(i, o):
        return PrivateCall("RESTORE", (o[0] if len(i[0].payload) < 3 else seq(()),))
    rules = tuple(r for r in STACK.inverses if r.op != "RESTORE")
    rules += (InverseRule("RESTORE", when=lambda i, o: True, target=target),)
    liar = dataclasses.replace(STACK, inverses=rules)
    assert [(r.check, len(r.violations)) for r in validate_adt(liar, 3) if not r.ok] \
        == [("inverses", 112)]


def test_translation_sweep_catches_overlapping_rules():
    extra = (TranslationRule("POP", when=lambda ins: True,
                             target=lambda ins: PrivateCall("POP", ins),
                             outs=lambda ins, pouts: pouts),)
    liar = dataclasses.replace(STACK, translation=STACK.translation + extra)
    rep = check_translation(liar, bound=2)
    assert not rep.ok
    assert any("overlap" in v.detail for v in rep.violations)


def test_translation_sweep_catches_a_gap():
    rules = tuple(r for r in STACK.translation if r.public_op != "EMPTY")
    liar = dataclasses.replace(STACK, translation=rules)
    rep = check_translation(liar, bound=2)
    assert not rep.ok


def test_translation_sweep_catches_null_outs_of_the_wrong_arity():
    rules = tuple(r for r in STACK.translation if r.public_op != "EMPTY")
    rules += (TranslationRule("EMPTY", when=lambda ins: True, null=True,
                              outs=lambda ins: ()),)
    rep = check_translation(dataclasses.replace(STACK, translation=rules), bound=2)
    assert [v.detail for v in rep.violations] == ["EMPTY[]: NULL outs have the wrong shape"]


def test_translation_sweep_catches_projected_outs_of_the_wrong_tag():
    # CLEAR answers its report; this rule projects the popped content instead
    rules = tuple(r for r in STACK.translation if r.public_op != "CLEAR")
    rules += (TranslationRule("CLEAR", when=lambda ins: True,
                              target=lambda ins: PrivateCall("CLEAR", ins),
                              outs=lambda ins, pouts: (pouts[1],)),)
    rep = check_translation(dataclasses.replace(STACK, translation=rules), bound=2)
    assert [v.detail for v in rep.violations] == [
        "CLEAR[] from (): projected outs [()] have the wrong shape"]


def test_inverse_sweep_reports_a_rule_error():
    rules = tuple(r for r in STACK.inverses if r.op != "EMPTY")
    rep = check_inverses(dataclasses.replace(STACK, inverses=rules), bound=1)
    assert rep.violations and all(v.detail.startswith("EMPTY[]: ") for v in rep.violations)
    assert len(rep.violations) == len(list(STACK.enumerate_states(1)))


def test_in_table_sweep_catches_the_first_calls_answer_moving_with_order():
    # EMPTY and PUSH leave one state in either order, but EMPTY's answer moves
    liar = with_in_entry(STACK, InCommutEntry("EMPTY", "PUSH", when=ALWAYS))
    details = [v.detail for v in pair_report(liar, 3, "in-table").violations]
    assert "EMPTY[] vs PUSH[a] from (): EMPTY answers depend on order: " \
        "[true] vs [false]" in details


def test_the_pair_sweep_applies_each_op_once():
    # each visited (pair, state) applies p from the state once, and each
    # swept case three more: q after p, q from the state and p after q
    calls = 0

    def apply(s, op, ins):
        nonlocal calls
        calls += 1
        return STACK.apply(s, op, ins)

    check_pairs(dataclasses.replace(STACK, apply=apply), 3)
    tables, probes = STACK.tables, STACK.probe_calls(3)
    visited = swept = 0
    for p in probes:
        for q in probes:
            in_open = commute_with_in(tables, p, q)
            entry = tables.out_by_pair.get((p.op, q.op))
            if not in_open and entry is None:
                continue
            for s in STACK.enumerate_states(3):
                visited += 1
                _, outs = STACK.apply(s, p.op, p.ins)
                swept += in_open or entry.when(p.ins, outs, q.ins)
    assert calls == visited + 3 * swept
    assert (visited, swept) == (165, 53)
