"""Workload file format: parsing, validation, exact round-trips."""

import random
from fractions import Fraction

import pytest

from adtxn.fuzz import generate_workload
from adtxn.simulate import run_simulated
from adtxn.workload import (
    ExplicitSchedule,
    RandomSchedule,
    WorkloadError,
    initial_state,
    parse_workload,
    render_workload,
)
from adtxn.values import item, rational
from helpers import object_decl, txn_decl

GOOD = """\
# two writers, one probe
object s stack a,b
object r real 3/2

txn T1
  op s PUSH c
  op r ADD -5
end commit

txn T2
  op s POP
end abort

schedule seed 7 steps 40
"""


def test_parse_good_workload():
    w = parse_workload(GOOD)
    assert [o.name for o in w.objects] == ["s", "r"]
    assert object_decl(w, "r").literal == "3/2"
    assert initial_state(object_decl(w, "s")) == ("a", "b")
    assert initial_state(object_decl(w, "r")) == Fraction(3, 2)
    t1 = txn_decl(w, "T1")
    assert t1.terminal == "commit"
    assert t1.steps[0].ins == (item("c"),)
    assert t1.steps[1].ins == (rational(-5),)
    assert txn_decl(w, "T2").terminal == "abort"
    assert w.schedule == RandomSchedule(7, 40)


def test_default_initial_state_when_literal_omitted():
    w = parse_workload("object s stack\ntxn T\n op s POP\nend commit\n"
                       "schedule steps T\n")
    assert object_decl(w, "s").literal is None
    assert initial_state(object_decl(w, "s")) == ()


def test_explicit_schedule():
    w = parse_workload("object s stack\ntxn T\n op s EMPTY\nend commit\n"
                       "schedule steps T T T\n")
    assert w.schedule == ExplicitSchedule(("T", "T", "T"))


def test_render_parse_round_trip_is_exact():
    text = render_workload(parse_workload(GOOD))
    assert render_workload(parse_workload(text)) == text


@pytest.mark.parametrize("bad,line,hint", [
    ("object s bogus\nschedule seed 1 steps 1\n", 1, "bogus"),
    ("object s stack\nobject s stack\nschedule seed 1 steps 1\n", 2, "twice"),
    ("object s stack ,,\nschedule seed 1 steps 1\n", 1, "literal"),
    ("op s POP\nschedule seed 1 steps 1\n", 1, "outside"),
    ("object s stack\ntxn T\n op s SHOVE a\nend commit\nschedule seed 1 steps 1\n",
     3, "SHOVE"),
    ("object s stack\ntxn T\n op s PUSH\nend commit\nschedule seed 1 steps 1\n",
     3, "argument"),
    ("object s stack\ntxn T\n op s PUSH 1,2\nend commit\nschedule seed 1 steps 1\n",
     3, "item"),
    ("object s stack\ntxn T\n op q POP\nend commit\nschedule seed 1 steps 1\n",
     3, "unknown object"),
    ("object s stack\ntxn T\n op s POP\nend maybe\nschedule seed 1 steps 1\n",
     4, "commit"),
    ("object s stack\ntxn T\n op s POP\nend commit\ntxn T\n op s POP\nend commit\n"
     "schedule seed 1 steps 1\n", 5, "twice"),
    ("object s stack\ntxn T\n op s POP\nend commit\n"
     "schedule seed 1 steps 1\nschedule seed 2 steps 1\n", 6, "schedule"),
    ("object s stack\ntxn T\n op s POP\nend commit\nschedule seed x steps 1\n",
     5, "integer"),
    ("object s stack\ntxn T\n op s POP\nend commit\nschedule seed 1 steps 0\n",
     5, "positive"),
    ("object s stack\ntxn T\n op s POP\nend commit\nschedule later\n", 5, "expected"),
    ("object s stack\nfrobnicate\nschedule seed 1 steps 1\n", 2, "unrecognized"),
])
def test_errors_carry_line_numbers(bad, line, hint):
    with pytest.raises(WorkloadError) as exc:
        parse_workload(bad)
    assert exc.value.line_no == line
    assert hint in str(exc.value)


def test_a_duplicate_txn_after_many_is_refused_at_its_line():
    # names are kept in a set, so this parse is linear in the txns
    block = "txn T{}\n op s EMPTY\nend commit\n"
    text = ("object s stack\n" + "".join(block.format(i) for i in range(20_000))
            + block.format(7) + "schedule seed 1 steps 1\n")
    with pytest.raises(WorkloadError) as exc:
        parse_workload(text)
    assert exc.value.line_no == 2 + 3 * 20_000
    assert "txn 'T7' declared twice" in str(exc.value)


COUNTER = "object c real {literal}\ntxn T\n op c ADD {arg}\nend commit\nschedule seed 1 steps 9\n"


@pytest.mark.parametrize("token", ["0.5", "1e3", "+4", "1_000"])
def test_rational_literals_follow_the_rendered_syntax(token):
    # Fraction() reads each of these, but render would never write it back
    for text, line in ((COUNTER.format(literal=token, arg="1"), 1),
                       (COUNTER.format(literal="1", arg=token), 3)):
        with pytest.raises(WorkloadError) as exc:
            parse_workload(text)
        assert exc.value.line_no == line
        assert f"bad rational literal {token!r}" in str(exc.value)


def test_rational_literals_in_the_rendered_syntax_parse():
    for token, number in (("-3/2", Fraction(-3, 2)), ("4/2", 2), ("0", 0)):
        w = parse_workload(COUNTER.format(literal=token, arg=token))
        state = initial_state(object_decl(w, "c"))
        assert state == number and type(state) is type(number)
        assert txn_decl(w, "T").steps[0].ins == (rational(number),)


def test_unterminated_txn_block():
    with pytest.raises(WorkloadError):
        parse_workload("object s stack\ntxn T\n op s POP\n")


def test_missing_schedule():
    with pytest.raises(WorkloadError) as exc:
        parse_workload("object s stack\ntxn T\n op s POP\nend commit\n")
    assert "schedule" in str(exc.value)


def test_schedule_must_name_declared_txns():
    with pytest.raises(WorkloadError) as exc:
        parse_workload("object s stack\ntxn T\n op s POP\nend commit\n"
                       "schedule steps T U\n")
    assert "unknown txn" in str(exc.value)


def test_generated_workloads_round_trip():
    rng = random.Random(424242)
    for _ in range(50):
        w = generate_workload(rng, ["stack", "set", "real", "boolean"])
        text = render_workload(w)
        assert parse_workload(text) == w


def test_a_rational_past_the_int_digit_limit_renders_in_the_trace_and_states():
    # 44 multiplications by 10**100 make a 4,401-digit state, past the
    # 4,300 digits str(int) converts
    text = ("object c real 1\ntxn T\n" + f"  op c MULTIPLY 1{'0' * 100}\n" * 44
            + "  op c READ\nend commit\nschedule steps T\n")
    result = run_simulated(parse_workload(text))
    state = result.rendered_states()["c"]
    assert len(state) == 4401 and state == "1" + "0" * 4400
    assert f"[{state}]" in result.trace


def test_an_object_literal_past_the_int_digit_limit_parses():
    digits, sevens = "7" * 5000, 7 * (10**5000 - 1) // 9
    for literal, number in ((digits, sevens), ("-" + digits, -sevens),
                            (digits + "/3", Fraction(sevens, 3))):
        text = f"object c real {literal}\nschedule seed 1 steps 1\n"
        w = parse_workload(text)
        assert initial_state(object_decl(w, "c")) == number
        assert render_workload(w) == text
        assert run_simulated(w).rendered_states()["c"] == literal
