"""Value model: exact payloads, rendering, token parsing."""

import copy
import dataclasses
import importlib.util
import pickle
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from adtxn.adts import builtin_names, get_adt
from adtxn.values import (
    FALSE,
    TRUE,
    UNIT,
    Tag,
    Value,
    boolean,
    is_item_token,
    item,
    parse_rational,
    parse_token,
    rational,
    render,
    render_params,
    report,
    seq,
)


def test_tag_payload_types_are_enforced():
    assert item("a").payload == "a"
    assert rational(3).payload == 3
    assert boolean(True).payload is True
    assert report("Ok").payload == "Ok"
    assert UNIT.payload is None
    assert seq((item("a"), item("b"))).payload == (item("a"), item("b"))


def test_floats_are_rejected():
    with pytest.raises(TypeError):
        Value(Tag.RATIONAL, 0.5)
    with pytest.raises(TypeError):
        rational(0.5)


def test_bool_is_not_a_rational():
    # bool is an int subclass; the payload check must be exact-type
    with pytest.raises(TypeError):
        Value(Tag.RATIONAL, True)
    with pytest.raises(TypeError):
        Value(Tag.BOOLEAN, 1)
    for b in (True, False):
        with pytest.raises(TypeError):
            rational(b)


def test_seq_elements_must_be_values():
    with pytest.raises(TypeError):
        seq(("a", "b"))


def test_integral_rationals_are_ints():
    # one form per number: an int when integral, else a Fraction whose
    # denominator is not 1; either way one Value per number
    for x in (7, Fraction(7), Fraction(14, 2)):
        v = rational(x)
        assert type(v.payload) is int and v.payload == 7
        assert v is Value(Tag.RATIONAL, 7) and v == Value(Tag.RATIONAL, 7)
    half = rational(Fraction(2, 4))
    assert type(half.payload) is Fraction and half.payload == Fraction(1, 2)
    assert half is Value(Tag.RATIONAL, Fraction(1, 2))
    assert half == Value(Tag.RATIONAL, Fraction(1, 2))
    with pytest.raises(TypeError):
        Value(Tag.RATIONAL, Fraction(7))
    with pytest.raises(TypeError):
        rational("7")


def test_values_hash_and_compare_by_content():
    assert item("a") == item("a")
    assert item("a") != report("a")
    assert len({rational(2), rational(2), rational(3)}) == 2


def _probe_values():
    # every Value the four types' probes pass in or get back, plus a few
    # that share a payload across tags
    values = [UNIT, TRUE, FALSE, rational(1), rational(0), item("Ok"),
              report("Ok"), item("a"), report("a"), seq(()), seq((item("a"),))]
    for name in builtin_names():
        spec = get_adt(name)
        for call in spec.probe_public_calls(2):
            values += call.ins
        for state in spec.enumerate_states(2):
            for call in spec.probe_calls(2):
                values += call.ins
                values += spec.apply(state, call.op, call.ins)[1]
    return list({(v.tag, v.payload): v for v in values}.values())


def test_equality_and_hash_agree_with_tag_payload_pairs():
    values = _probe_values()
    assert {v.tag for v in values} == set(Tag)
    # built again from the pair: equal pairs give back the same object, so
    # == and hash, which are identity, agree with the pairs
    rebuilt = [Value(v.tag, v.payload) for v in values]
    for a, b in product(values, rebuilt):
        same = (a.tag, a.payload) == (b.tag, b.payload)
        assert (a is b) is same, (a, b)
        assert (a == b) is same and (a != b) is (not same), (a, b)
        assert (hash(a) == hash(b)) is same, (a, b)
    assert item("Ok") != report("Ok") and TRUE != rational(1)
    assert FALSE != rational(0) and UNIT != seq(())
    for v in values:
        assert v == v
        assert v != v.payload and not v == (v.tag, v.payload)
        assert v.__eq__(v.payload) is NotImplemented


def test_every_value_is_its_one_interned_object():
    # built again from its pair, a value comes back as the object its
    # tag's table holds
    for v in _probe_values():
        assert v.tag.interned[v.payload] is v
        assert Value(v.tag, v.payload) is v


def _fresh_values():
    # values of every tag whose payloads nothing else builds, so that none
    # of them has been hashed before the test that makes them
    a, b = item("fresh-a"), report("fresh-b")
    return [a, b, rational(10**30 + 1), rational(Fraction(1, 10**30 + 3)),
            seq((a, item("fresh-c"))), seq((b,)), UNIT, TRUE, FALSE]


def test_a_value_hashes_as_its_pair_before_and_after_the_first_hash():
    # the hash is the same from the first call on, and a value rebuilt
    # from the pair finds the first in a dict, whichever was hashed first
    for v in _probe_values() + _fresh_values():
        fresh = Value(v.tag, v.payload)
        assert hash(fresh) == hash(Value(v.tag, v.payload))
        assert hash(fresh) == hash(v)
        assert {fresh: 1}[Value(v.tag, v.payload)] == 1
        assert {Value(v.tag, v.payload): 1}[fresh] == 1


def test_a_value_copies_and_pickles_before_and_after_the_first_hash():
    # copies and pickles go back through the constructor, so they give
    # back the interned object whether or not it has been hashed
    for v in _fresh_values() + _probe_values():
        for hashed in (False, True):
            if hashed:
                hash(v)
            copies = (copy.copy(v), copy.deepcopy(v), pickle.loads(pickle.dumps(v)))
            for copied in copies:
                assert copied is v and copied == v
                assert hash(copied) == hash(Value(v.tag, v.payload))


def test_an_equal_payload_of_another_type_is_refused_once_its_value_is_interned():
    # True == 1 and Fraction(2) == 2, so a table hit must match the type too
    one, two = rational(1), rational(2)
    assert Value(Tag.BOOLEAN, True) is TRUE
    for tag, payload in ((Tag.BOOLEAN, 1), (Tag.RATIONAL, True), (Tag.RATIONAL, Fraction(2))):
        with pytest.raises(TypeError):
            Value(tag, payload)
    with pytest.raises(TypeError):
        seq(("a",))
    # nothing refused was filed
    assert Tag.BOOLEAN.interned[1] is TRUE and Tag.RATIONAL.interned[True] is one
    assert Tag.RATIONAL.interned[Fraction(2)] is two and rational(Fraction(4, 2)) is two


def test_the_module_constants_are_the_interned_objects():
    assert Value(Tag.UNIT, None) is UNIT and Tag.UNIT.interned[None] is UNIT
    assert Value(Tag.BOOLEAN, True) is TRUE and Tag.BOOLEAN.interned[True] is TRUE
    assert Value(Tag.BOOLEAN, False) is FALSE and Tag.BOOLEAN.interned[False] is FALSE
    assert boolean(True) is TRUE and boolean(False) is FALSE


def test_a_value_is_frozen_and_has_no_dict():
    v = item("a")
    assert not hasattr(v, "__dict__")
    for name in ("tag", "payload", "_hash", "other"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(v, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(v, name)
    assert v is item("a") and v == item("a") and (v.tag, v.payload) == (Tag.ITEM, "a")


def test_render_forms():
    assert render(UNIT) == "_"
    assert render(TRUE) == "true"
    assert render(FALSE) == "false"
    assert render(rational(Fraction(1, 2))) == "1/2"
    assert render(rational(-4)) == "-4"
    assert render(item("x")) == "x"
    assert render(report("EmptyStack")) == "EmptyStack"
    assert render(seq(())) == "()"
    assert render(seq((item("a"), item("b")))) == "(a,b)"


def test_render_params():
    assert render_params(()) == "[]"
    assert render_params((item("a"), rational(Fraction(-1, 3)))) == "[a,-1/3]"


def test_parse_token_round_trips():
    assert parse_token(Tag.ITEM, "a") == item("a")
    assert parse_token(Tag.RATIONAL, "-7/2") == rational(Fraction(-7, 2))
    for text, number in (("-3/2", Fraction(-3, 2)), ("4/2", 2), ("0", 0), ("-0", 0),
                         ("12/1", 12), ("-6/4", Fraction(-3, 2))):
        payload = parse_token(Tag.RATIONAL, text).payload
        assert payload == number and type(payload) is type(number), text
    assert parse_token(Tag.BOOLEAN, "true") == TRUE
    assert parse_token(Tag.BOOLEAN, "false") == FALSE


def test_rationals_past_the_int_digit_limit_render_and_parse():
    # str(int) refuses more than 4,300 digits; render and parse_rational do not
    big = 10**5000 + 7
    text = "1" + "0" * 4999 + "7"
    assert render(rational(big)) == text and render(rational(-big)) == "-" + text
    third = Fraction(10**5000 + 1, 3)
    assert render(rational(third)) == "1" + "0" * 4999 + "1/3"
    tiny = Fraction(3, 10**5000 + 1)
    assert render(rational(tiny)) == "3/1" + "0" * 4999 + "1"
    for number in (big, -big, third, -third, tiny):
        v = rational(number)
        back = parse_rational(render(v))
        assert back == number and type(back) is type(number)
        assert parse_token(Tag.RATIONAL, render(v)) is v
    assert get_adt("real").render_state(third) == render(rational(third))


def test_parse_token_rejects_garbage():
    # Fraction() reads most of these; render writes none of them
    for text in ("abc", "", "0.5", "1e3", "+4", "1_000", "1/0", "-3/-2", "3/+2",
                 " 3", "3/", "/2", "\u0663", "1/2/3"):
        with pytest.raises(ValueError, match="bad rational literal"):
            parse_token(Tag.RATIONAL, text)
    with pytest.raises(ValueError):
        parse_token(Tag.BOOLEAN, "yes")
    with pytest.raises(ValueError):
        parse_token(Tag.ITEM, "two words")
    with pytest.raises(ValueError):
        parse_token(Tag.REPORT, "Ok")


def _is_item_token_by_chars(text):
    # the character-by-character definition the regex replaced
    return bool(text) and all(c.isalnum() or c in "_.-" for c in text)


def test_item_token_regex_matches_the_character_test():
    for cp in range(0x10000):
        c = chr(cp)
        assert is_item_token(c) == _is_item_token_by_chars(c), hex(cp)
    for text in ("", "a", "item_12", "x.y-z", "Ω7", "٣٤", "a b", "a,b",
                 "(a)", "a\n", "\na", "-", "._-", "a\u00a0b", "a\u200bb"):
        assert is_item_token(text) == _is_item_token_by_chars(text), repr(text)


def _parse_by_item(adt, text):
    # the set and stack literal parsers as they tested one item at a time
    empty, kind = ("{}", "set") if adt == "set" else ("()", "stack")
    if text == empty:
        return frozenset() if adt == "set" else ()
    parts = text.split(",")
    if not all(is_item_token(p) for p in parts):
        raise ValueError(f"bad {kind} literal {text!r}")
    if adt == "stack":
        return tuple(parts)
    if len(set(parts)) != len(parts):
        raise ValueError(f"duplicate items in set literal {text!r}")
    return frozenset(parts)


def _bench_workloads(monkeypatch):
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the body runs
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_container_literals_parse_as_item_by_item(monkeypatch):
    # every set and stack literal of the bench instances at both seeds (the
    # corpus at 20260816 is the two acceptance corpora), then bad ones
    bench = _bench_workloads(monkeypatch)
    literals = set()
    for seed in (20260816, 4242):
        for kind in bench.WORKLOADS.values():
            for workload in kind.generate(seed):
                literals.update((o.adt, o.literal) for o in workload.objects
                                if o.adt in ("set", "stack"))
    assert {adt for adt, _ in literals} == {"set", "stack"}
    assert max(len(text) for _, text in literals) > 1000
    for adt, text in sorted(literals):
        assert get_adt(adt).parse_state(text) == _parse_by_item(adt, text), text
    for adt in ("set", "stack"):
        for text in ("", "a,,b", "a,b,a", "a b", "{a}", ",a", "a,", "a,b", "()", "{}"):
            try:
                expect = _parse_by_item(adt, text)
            except ValueError as exc:
                with pytest.raises(ValueError) as got:
                    get_adt(adt).parse_state(text)
                assert str(got.value) == str(exc)
            else:
                assert get_adt(adt).parse_state(text) == expect
