"""Public-to-private translation and inverse selection, pinned case by case.

Expected values here were derived by hand from the intended semantics before
being compared against the implementation; treat edits that weaken them with
suspicion.
"""

import dataclasses
from fractions import Fraction

import pytest

from adtxn.adts import builtin_names, get_adt
from adtxn.core import (
    ArityMismatch,
    FrameworkError,
    InverseRule,
    NoRuleMatches,
    PreconditionViolated,
    PrivateCall,
    PrivateInvocation,
    PublicCall,
    TagMismatch,
    TranslationRule,
    UnknownOp,
    determine_inverse,
    public_outs_from_private,
    translate_public,
)
from adtxn.manager import UndoEntry
from adtxn.monitor import ManagedObject
from adtxn.oracles import Observation
from adtxn.values import (FALSE, TRUE, UNIT, Value, boolean, item, rational,
                          render_rational, report, seq)

STACK = get_adt("stack")
SET = get_adt("set")
REAL = get_adt("real")
BOOLEAN = get_adt("boolean")

OK = report("Ok")


def tr(spec, op, *ins):
    return translate_public(spec, PublicCall(op, tuple(ins)))


# ---------------------------------------------------------------- translation

def test_real_multiply_translations():
    assert tr(REAL, "MULTIPLY", rational(0)).call == PrivateCall("SETTO", (rational(0),))
    assert tr(REAL, "MULTIPLY", rational(1)).null
    assert tr(REAL, "MULTIPLY", rational(-1)).call == PrivateCall("MULTIPLY", (rational(-1),))
    assert tr(REAL, "MULTIPLY", rational(5)).call == PrivateCall("MULTIPLY", (rational(5),))
    # |m| < 1 becomes a division so the private op's domain excludes shrinking
    assert tr(REAL, "MULTIPLY", rational(Fraction(1, 2))).call == \
        PrivateCall("DIVIDE", (rational(2),))
    assert tr(REAL, "MULTIPLY", rational(Fraction(-2, 3))).call == \
        PrivateCall("DIVIDE", (rational(Fraction(-3, 2)),))


def test_real_add_translations():
    assert tr(REAL, "ADD", rational(5)).call == PrivateCall("ADD", (rational(5),))
    assert tr(REAL, "ADD", rational(-5)).call == PrivateCall("SUB", (rational(5),))
    assert tr(REAL, "ADD", rational(0)).null


def test_real_null_multiply_has_no_public_outs():
    t = tr(REAL, "MULTIPLY", rational(1))
    assert t.null and t.public_outs == ()


def test_boolean_translations():
    assert tr(BOOLEAN, "AND", TRUE).null
    assert tr(BOOLEAN, "AND", FALSE).call == PrivateCall("SETTO", (FALSE,))
    assert tr(BOOLEAN, "OR", FALSE).null
    assert tr(BOOLEAN, "OR", TRUE).call == PrivateCall("SETTO", (TRUE,))
    assert tr(BOOLEAN, "XOR", FALSE).null
    assert tr(BOOLEAN, "XOR", TRUE).call == PrivateCall("NOT", ())
    assert tr(BOOLEAN, "NOT").call == PrivateCall("NOT", ())
    assert tr(BOOLEAN, "READ").call == PrivateCall("READ", ())


def test_stack_and_set_translate_identically():
    assert tr(STACK, "PUSH", item("a")).call == PrivateCall("PUSH", (item("a"),))
    assert tr(STACK, "POP").call == PrivateCall("POP", ())
    assert tr(SET, "INSERT", item("a")).call == PrivateCall("INSERT", (item("a"),))
    assert tr(SET, "CARD").call == PrivateCall("CARD", ())


def test_translate_rejects_malformed_calls():
    with pytest.raises(UnknownOp):
        tr(STACK, "SHOVE", item("a"))
    with pytest.raises(ArityMismatch):
        tr(STACK, "PUSH")
    with pytest.raises(TagMismatch):
        tr(STACK, "PUSH", rational(1))


def test_public_out_projection_hides_before_images():
    # CLEAR's second private out is the popped content; the caller only sees
    # the report.
    rule = tr(STACK, "CLEAR").rule
    outs = public_outs_from_private(rule, (), (OK, seq((item("a"),))))
    assert outs == (OK,)
    # SETTO's old value never reaches the caller.
    rule = tr(REAL, "SETTO", rational(7)).rule
    assert public_outs_from_private(rule, (rational(7),), (rational(2),)) == ()


# ------------------------------------------------------------------- inverses

def inv(spec, op, ins, outs):
    return determine_inverse(spec, op, tuple(ins), tuple(outs))


def test_stack_inverses():
    assert inv(STACK, "PUSH", [item("c")], [OK]) == PrivateCall("POP", ())
    assert inv(STACK, "POP", [], [item("c"), OK]) == PrivateCall("PUSH", (item("c"),))
    assert inv(STACK, "POP", [], [UNIT, report("EmptyStack")]) is None
    assert inv(STACK, "EMPTY", [], [TRUE]) is None
    assert inv(STACK, "EMPTY", [], [FALSE]) is None
    popped = seq((item("a"), item("b")))
    assert inv(STACK, "CLEAR", [], [OK, popped]) == PrivateCall("RESTORE", (popped,))
    assert inv(STACK, "CLEAR", [], [report("AlreadyEmpty"), seq(())]) is None
    prev = seq((item("x"),))
    assert inv(STACK, "RESTORE", [seq(())], [prev]) == PrivateCall("RESTORE", (prev,))


def test_set_inverses():
    a = item("a")
    assert inv(SET, "INSERT", [a], [OK]) == PrivateCall("DELETE", (a,))
    assert inv(SET, "INSERT", [a], [report("AlreadyIn")]) is None
    assert inv(SET, "DELETE", [a], [OK]) == PrivateCall("INSERT", (a,))
    assert inv(SET, "DELETE", [a], [report("NotFound")]) is None
    assert inv(SET, "IN", [a], [TRUE]) is None
    assert inv(SET, "CARD", [], [rational(2)]) is None


def test_real_inverses():
    assert inv(REAL, "MULTIPLY", [rational(3)], []) == PrivateCall("DIVIDE", (rational(3),))
    # dividing by -1 is outside DIVIDE's domain, so -1 inverts to itself
    assert inv(REAL, "MULTIPLY", [rational(-1)], []) == \
        PrivateCall("MULTIPLY", (rational(-1),))
    assert inv(REAL, "DIVIDE", [rational(2)], []) == PrivateCall("MULTIPLY", (rational(2),))
    assert inv(REAL, "ADD", [rational(3)], []) == PrivateCall("SUB", (rational(3),))
    assert inv(REAL, "SUB", [rational(3)], []) == PrivateCall("ADD", (rational(3),))
    assert inv(REAL, "SETTO", [rational(5)], [rational(2)]) == \
        PrivateCall("SETTO", (rational(2),))
    assert inv(REAL, "SETTO", [rational(5)], [rational(5)]) is None
    assert inv(REAL, "READ", [], [rational(9)]) is None


def test_boolean_inverses():
    assert inv(BOOLEAN, "NOT", [], []) == PrivateCall("NOT", ())
    assert inv(BOOLEAN, "SETTO", [TRUE], [FALSE]) == PrivateCall("SETTO", (FALSE,))
    assert inv(BOOLEAN, "SETTO", [TRUE], [TRUE]) is None
    assert inv(BOOLEAN, "READ", [], [boolean(True)]) is None


def test_inverse_requires_a_matching_rule():
    with pytest.raises(NoRuleMatches):
        inv(STACK, "POP", [], [item("c"), report("Bogus")])


# --------------------------------------------------- apply-level preconditions

def test_private_domains_are_enforced():
    with pytest.raises(PreconditionViolated):
        REAL.apply(Fraction(4), "DIVIDE", (rational(1),))
    with pytest.raises(PreconditionViolated):
        REAL.apply(Fraction(4), "MULTIPLY", (rational(Fraction(1, 2)),))
    with pytest.raises(PreconditionViolated):
        REAL.apply(Fraction(4), "ADD", (rational(0),))
    with pytest.raises(PreconditionViolated):
        REAL.apply(Fraction(4), "SUB", (rational(-1),))


@pytest.mark.parametrize("op,bad", [
    ("ADD", -10**5000), ("SUB", -10**5000 - 1),
    ("MULTIPLY", Fraction(1, 10**5000)), ("DIVIDE", Fraction(-7, 10**5000 + 1)),
], ids=["ADD", "SUB", "MULTIPLY", "DIVIDE"])
def test_a_precondition_names_its_number_at_any_length(op, bad):
    # `str` of an int past 4,300 digits raises ValueError, which must not
    # stand in for the refusal
    with pytest.raises(PreconditionViolated) as refused:
        REAL.apply(0, op, (rational(bad),))
    assert str(refused.value).startswith(op)
    assert str(refused.value).endswith(": " + render_rational(bad))
    assert len(str(refused.value)) > 5000


# ------------------------------------------------------- one form per rational

def _one_form(x):
    return type(x) is int or type(x) is Fraction and x.denominator != 1


def test_every_real_state_and_param_takes_its_one_form():
    # an int when integral, else a non-integral Fraction, never a float:
    # every state the sweep reaches, every in- and out-param, and every
    # translation and inverse target
    swept = []
    for state in REAL.enumerate_states(60):
        for call in REAL.probe_calls(3):
            new_state, outs = REAL.apply(state, call.op, call.ins)
            undo = determine_inverse(REAL, call.op, call.ins, outs)
            swept += [state, new_state]
            swept += [v.payload for v in (*call.ins, *outs, *(undo.ins if undo else ()))]
    for call in REAL.probe_public_calls(3):
        target = tr(REAL, call.op, *call.ins).call
        swept += [v.payload for v in (*call.ins, *(target.ins if target else ()))]
    bad = [x for x in swept if not _one_form(x)]
    assert bad == [] and len(swept) > 1000
    assert {type(x) for x in swept} == {int, Fraction}
    assert {x for x in swept if type(x) is int} >= {-2, -1, 0, 1, 2}


# --------------------------------------------------------- roundtrip property

@pytest.mark.parametrize("name,bound", [("stack", 3), ("set", 3), ("real", 60), ("boolean", 2)])
def test_every_inverse_restores_the_state(name, bound):
    """apply op, apply its chosen inverse, land exactly on the start state.

    NULL inverses must mean the op did not move the state at all.
    """
    spec = get_adt(name)
    cases = 0
    for state in spec.enumerate_states(bound):
        for call in spec.probe_calls(3):
            new_state, outs = spec.apply(state, call.op, call.ins)
            undo = determine_inverse(spec, call.op, call.ins, outs)
            if undo is None:
                assert new_state == state, (name, call, outs)
            else:
                back, _ = spec.apply(new_state, undo.op, undo.ins)
                assert back == state, (name, call, undo)
            cases += 1
    assert cases > 0


# ------------------------------------------------------------ rule index by op

def only_match(rules, matches):
    hits = [r for r in rules if matches(r)]
    assert len(hits) == 1, hits
    return hits[0]


@pytest.mark.parametrize("name", builtin_names())
def test_rule_index_selects_what_a_scan_of_every_rule_selects(name):
    spec = get_adt(name)
    for call in spec.probe_public_calls(3):
        want = only_match(spec.translation,
                          lambda r: r.public_op == call.op and r.when(call.ins))
        assert translate_public(spec, call).rule is want, call
    cases = 0
    for state in spec.enumerate_states(3):
        for call in spec.probe_calls(3):
            _, outs = spec.apply(state, call.op, call.ins)
            want = only_match(spec.inverses,
                              lambda r: r.op == call.op and r.when(call.ins, outs))
            assert only_match(spec.inverses_by_op[call.op],
                              lambda r: r.when(call.ins, outs)) is want
            undo = determine_inverse(spec, call.op, call.ins, outs)
            assert undo == (None if want.null else want.target(call.ins, outs))
            cases += 1
    assert cases > 0



# ------------------------------------------------------- translation memo

@pytest.mark.parametrize("name", builtin_names())
def test_memo_answers_as_a_cold_translation(name):
    spec = dataclasses.replace(get_adt(name))   # same rules, empty memo
    assert spec.translated == {}
    calls = spec.probe_public_calls(3)
    for call in calls:
        cold = translate_public(spec, call)
        assert spec.translated[call] is cold
        # an equal call built from new Value objects reads the kept answer
        equal = PublicCall(call.op, tuple(Value(v.tag, v.payload) for v in call.ins))
        warm = translate_public(spec, equal)
        fresh = translate_public(dataclasses.replace(spec), call)
        for got in (warm, fresh, translate_public(get_adt(name), call)):
            assert got.rule is cold.rule, call
            assert got.call == cold.call and got.public_outs == cold.public_outs, call
    assert len(spec.translated) == len(set(calls))


# ------------------------------------------------------- per-call records

def test_a_record_built_through_tuple_new_is_its_constructed_twin():
    # the per-operation paths build these through tuple.__new__ (see the
    # `core` docstring); each must be the record the constructor builds
    obj = ManagedObject("s", 0, STACK, STACK.initial_state)
    inv = PrivateInvocation(1, 1, "s", "PUSH", (item("a"),))
    cases = [(PublicCall, ("PUSH", (item("a"),))),
             (UndoEntry, (obj, inv, PrivateCall("POP", ()))),
             (Observation, ("s", "PUSH", (item("a"),), (OK,)))]
    for cls, fields in cases:
        fast, built = tuple.__new__(cls, fields), cls(*fields)
        assert type(fast) is cls
        assert fast == built and hash(fast) == hash(built)
        assert fast._asdict() == built._asdict()


@pytest.mark.parametrize("name", builtin_names())
def test_a_public_call_built_through_tuple_new_hits_the_kept_translation(name):
    spec = dataclasses.replace(get_adt(name))   # same rules, empty memo
    for call in spec.probe_public_calls(3):
        cold = translate_public(spec, PublicCall(call.op, call.ins))
        kept = len(spec.translated)
        fast = tuple.__new__(PublicCall, (call.op, tuple(Value(v.tag, v.payload)
                                                         for v in call.ins)))
        assert translate_public(spec, fast) is cold, call
        assert spec.translated[fast] is cold and len(spec.translated) == kept, call


def test_a_refused_call_is_never_kept():
    stack = dataclasses.replace(STACK)
    translate_public(stack, PublicCall("POP", ()))
    overlapping = dataclasses.replace(REAL, translation=REAL.translation + (
        TranslationRule("ADD", when=lambda ins: True, null=True, note="dup"),))
    uncovered = dataclasses.replace(REAL, translation=tuple(
        r for r in REAL.translation if not (r.public_op == "ADD" and r.null)))
    cases = [(stack, PublicCall("PUSH", (rational(1),)), TagMismatch, None),
             (stack, PublicCall("SHOVE", (item("a"),)), UnknownOp, None),
             (overlapping, PublicCall("ADD", (rational(5),)), FrameworkError, "overlap"),
             (uncovered, PublicCall("ADD", (rational(0),)), NoRuleMatches, None)]
    for spec, call, error, match in cases:
        before = dict(spec.translated)
        for _ in range(3):
            with pytest.raises(error, match=match):
                translate_public(spec, call)
            assert spec.translated == before, call
    assert list(stack.translated) == [PublicCall("POP", ())]


def test_a_rebuilt_spec_never_answers_from_the_old_memo():
    old = dataclasses.replace(REAL)
    calls = old.probe_public_calls(3)
    for call in calls:
        translate_public(old, call)
    kept = dict(old.translated)
    every_add = TranslationRule("ADD", when=lambda ins: True,
                                target=lambda ins: PrivateCall("ADD", ins))
    new = dataclasses.replace(old, translation=tuple(
        r for r in old.translation if r.public_op != "ADD") + (every_add,))
    assert new.translated == {}
    for call in calls:
        got = translate_public(new, call)
        assert got is not kept[call]
        assert any(got.rule is r for r in new.translation), call
        if call.op == "ADD":
            assert got.rule is every_add and got.call == PrivateCall("ADD", call.ins)
    assert old.translated == kept


@pytest.mark.parametrize("name", builtin_names())
def test_replace_rebuilds_every_derived_dict(name):
    # a derived index or memo shared by a copy would leak into an ablated or
    # fault-planted spec built with `dataclasses.replace`
    spec = get_adt(name)
    translate_public(spec, spec.probe_public_calls(3)[0])
    for obj in (spec, spec.tables):
        derived = [f.name for f in dataclasses.fields(obj)
                   if not f.init and isinstance(getattr(obj, f.name), dict)]
        assert derived, type(obj)
        copy = dataclasses.replace(obj)
        for field_name in derived:
            assert getattr(copy, field_name) is not getattr(obj, field_name), \
                (name, field_name)
    assert spec.translated and dataclasses.replace(spec).translated == {}
    call = spec.probe_calls(3)[0]
    determine_inverse(spec, call.op, call.ins,
                      spec.apply(spec.initial_state, call.op, call.ins)[1])
    assert spec.inverted and dataclasses.replace(spec).inverted == {}


# ---------------------------------------------------------- inverse memo

def _cold_inverse(spec, op, ins, outs):
    # what determine_inverse answers with nothing kept
    return determine_inverse(dataclasses.replace(spec), op, ins, outs)


@pytest.mark.parametrize("name", builtin_names())
def test_warm_inverses_answer_as_cold_ones(name):
    spec = dataclasses.replace(get_adt(name))   # same rules, empty memo
    assert spec.inverted == {}
    keys = set()
    for state in spec.enumerate_states(2):
        for call in spec.probe_calls(2):
            _, outs = spec.apply(state, call.op, call.ins)
            cold = _cold_inverse(spec, call.op, call.ins, outs)
            first = determine_inverse(spec, call.op, call.ins, outs)
            # an equal call built from new Value objects reads the kept answer
            copy = lambda vs: tuple(Value(v.tag, v.payload) for v in vs)
            warm = determine_inverse(spec, call.op, copy(call.ins), copy(outs))
            assert first == cold and warm is first, (call, outs)
            assert spec.inverted[(call.op, call.ins, outs)] is first
            keys.add((call.op, call.ins, outs))
    assert len(spec.inverted) == len(keys)
    # NULL inverses are kept too, as None
    assert None in spec.inverted.values()
    assert any(v is not None for v in spec.inverted.values())


def test_a_raising_inverse_is_never_kept():
    stack = dataclasses.replace(STACK)
    determine_inverse(stack, "PUSH", (item("a"),), (OK,))
    overlapping = dataclasses.replace(SET, inverses=SET.inverses + (
        InverseRule("IN", when=lambda i, o: True, null=True, note="dup"),))
    uncovered = dataclasses.replace(SET, inverses=tuple(
        r for r in SET.inverses if r.op != "CARD"))
    malformed = dataclasses.replace(SET, inverses=tuple(
        r for r in SET.inverses if r.op != "DELETE") + (
        InverseRule("DELETE", when=lambda i, o: True,
                    target=lambda i, o: PrivateCall("INSERT", (rational(1),))),))
    cases = [(stack, "POP", (), (UNIT, report("Lost")), NoRuleMatches, None),
             (overlapping, "IN", (item("a"),), (TRUE,), FrameworkError, "overlap"),
             (uncovered, "CARD", (), (rational(0),), NoRuleMatches, None),
             (malformed, "DELETE", (item("a"),), (OK,), TagMismatch, None)]
    for spec, op, ins, outs, error, match in cases:
        before = dict(spec.inverted)
        for _ in range(3):
            with pytest.raises(error, match=match):
                determine_inverse(spec, op, ins, outs)
            assert spec.inverted == before, op
    assert list(stack.inverted) == [("PUSH", (item("a"),), (OK,))]
