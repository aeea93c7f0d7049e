"""Exact rational cell: public MULTIPLY, ADD, READ, SETTO.

The private level is chosen for invertibility, and translation does real
work here. Multiplying by zero destroys information, so it becomes an
assignment (undoable via the hidden before-image); multiplying by one is
NULL; a factor of magnitude less than one becomes a division so that every
private MULTIPLY has magnitude at least one and every private DIVIDE
strictly more than one, keeping both exactly invertible without growing
denominators on undo. Additions are split into strictly positive ADD and SUB
for the same reason: each private op's inverse is syntactically in-domain.

Every state and every answer is a rational in its one form (see
`values.canonical`): an int when integral, else a Fraction. The arithmetic
is exact either way, so undo restores states bit-exactly and the oracles
can compare with ==; an integral counter runs on ints, in C. No float
exists anywhere: `int / int` would make one, so the one division takes a
Fraction operand.

SETTO and READ are the shared cell's (see `cell`): their translation and
inverse rules, their READ/READ in-entry, the whole out-table and their
signatures. This module adds the arithmetic's rules and in-entries.
"""

from __future__ import annotations

import random
from fractions import Fraction

from ..core import (AdtSpec, InverseRule, OpSig, PreconditionViolated, PrivateCall,
                    PublicCall, TranslationRule)
from ..tables import ALWAYS, CommutTables, InCommutEntry
from ..values import Tag, canonical, parse_rational, rational, render_rational
from . import cell


def _apply(state, op, ins):
    if op == "MULTIPLY":
        m = ins[0].payload
        if abs(m) < 1:
            raise PreconditionViolated(
                f"MULTIPLY factor magnitude below one: {render_rational(m)}")
        return canonical(state * m), ()
    if op == "DIVIDE":
        d = ins[0].payload
        if abs(d) <= 1:
            raise PreconditionViolated(
                f"DIVIDE divisor magnitude not above one: {render_rational(d)}")
        return canonical(Fraction(state) / d), ()
    if op == "ADD":
        a = ins[0].payload
        if a <= 0:
            raise PreconditionViolated(f"ADD amount not positive: {render_rational(a)}")
        return canonical(state + a), ()
    if op == "SUB":
        a = ins[0].payload
        if a <= 0:
            raise PreconditionViolated(f"SUB amount not positive: {render_rational(a)}")
        return canonical(state - a), ()
    if op == "SETTO":
        return ins[0].payload, (rational(state),)
    if op == "READ":
        return state, (rational(state),)
    raise AssertionError(op)


_BOUNDARY = (0, 1, -1, Fraction(1, 2), Fraction(-1, 2), 2, -2)


def _enumerate_states(bound):
    seen = list(_BOUNDARY)
    have = set(seen)
    rng = random.Random(90210)
    while len(seen) < bound:
        f = canonical(Fraction(rng.randint(-999, 999), rng.randint(1, 99)))
        if f not in have:
            have.add(f)
            seen.append(f)
    return seen


_MUL_ARGS = (-1, 2, Fraction(-3, 2), 5)
_DIV_ARGS = (2, Fraction(-3, 2), Fraction(7, 2))
_POS_ARGS = (1, Fraction(1, 2), Fraction(7, 3))
_SET_ARGS = (0, 1, Fraction(-1, 2), 3)


def _probe_calls(bound):
    calls = [PrivateCall("MULTIPLY", (rational(m),)) for m in _MUL_ARGS]
    calls += [PrivateCall("DIVIDE", (rational(d),)) for d in _DIV_ARGS]
    calls += [PrivateCall("ADD", (rational(a),)) for a in _POS_ARGS]
    calls += [PrivateCall("SUB", (rational(a),)) for a in _POS_ARGS]
    calls += [PrivateCall("SETTO", (rational(v),)) for v in _SET_ARGS]
    calls.append(PrivateCall("READ", ()))
    return calls


def _probe_public_calls(bound):
    muls = (0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3), -5)
    adds = (0, 3, Fraction(-7, 2))
    calls = [PublicCall("MULTIPLY", (rational(m),)) for m in muls]
    calls += [PublicCall("ADD", (rational(a),)) for a in adds]
    calls += [PublicCall("SETTO", (rational(v),)) for v in _SET_ARGS]
    calls.append(PublicCall("READ", ()))
    return calls


_TRANSLATION = (
    TranslationRule("MULTIPLY", when=lambda ins: ins[0].payload == 0,
                    target=lambda ins: PrivateCall("SETTO", (rational(0),)),
                    note="zero factor is an assignment"),
    TranslationRule("MULTIPLY", when=lambda ins: ins[0].payload == 1,
                    null=True, note="unit factor changes nothing"),
    TranslationRule("MULTIPLY",
                    when=lambda ins: abs(ins[0].payload) >= 1
                    and ins[0].payload not in (0, 1),
                    target=lambda ins: PrivateCall("MULTIPLY", ins)),
    TranslationRule("MULTIPLY",
                    when=lambda ins: 0 < abs(ins[0].payload) < 1,
                    target=lambda ins: PrivateCall(
                        "DIVIDE", (rational(Fraction(1) / ins[0].payload),)),
                    note="small factor becomes a large divisor"),
    TranslationRule("ADD", when=lambda ins: ins[0].payload > 0,
                    target=lambda ins: PrivateCall("ADD", ins)),
    TranslationRule("ADD", when=lambda ins: ins[0].payload < 0,
                    target=lambda ins: PrivateCall("SUB", (rational(-ins[0].payload),))),
    TranslationRule("ADD", when=lambda ins: ins[0].payload == 0, null=True),
) + cell.TRANSLATION

_INVERSES = (
    # DIVIDE(-1) would be out of domain, so inverting by -1 multiplies again.
    InverseRule("MULTIPLY", when=lambda i, o: i[0].payload == -1,
                target=lambda i, o: PrivateCall("MULTIPLY", i)),
    InverseRule("MULTIPLY", when=lambda i, o: i[0].payload != -1,
                target=lambda i, o: PrivateCall("DIVIDE", i)),
    InverseRule("DIVIDE", when=lambda i, o: True,
                target=lambda i, o: PrivateCall("MULTIPLY", i)),
    InverseRule("ADD", when=lambda i, o: True,
                target=lambda i, o: PrivateCall("SUB", i)),
    InverseRule("SUB", when=lambda i, o: True,
                target=lambda i, o: PrivateCall("ADD", i)),
) + cell.INVERSES


# Additions commute with additions and multiplications with multiplications,
# unconditionally and exactly; nothing commutes across the two families.
_IN_ENTRIES = (
    InCommutEntry("ADD", "ADD", when=ALWAYS),
    InCommutEntry("ADD", "SUB", when=ALWAYS),
    InCommutEntry("SUB", "SUB", when=ALWAYS),
    InCommutEntry("MULTIPLY", "MULTIPLY", when=ALWAYS),
    InCommutEntry("MULTIPLY", "DIVIDE", when=ALWAYS),
    InCommutEntry("DIVIDE", "DIVIDE", when=ALWAYS),
) + cell.IN_ENTRIES

_RAT = OpSig((Tag.RATIONAL,), ())
_CELL_PUBLIC, _CELL_PRIVATE = cell.signatures(Tag.RATIONAL)

REAL = AdtSpec(
    name="real",
    public_ops={
        "MULTIPLY": _RAT,
        "ADD": _RAT,
        **_CELL_PUBLIC,
    },
    private_ops={
        "MULTIPLY": _RAT,
        "DIVIDE": _RAT,
        "ADD": _RAT,
        "SUB": _RAT,
        **_CELL_PRIVATE,
    },
    translation=_TRANSLATION,
    inverses=_INVERSES,
    tables=CommutTables(_IN_ENTRIES, cell.OUT_ENTRIES),
    apply=_apply,
    initial_state=0,
    parse_state=parse_rational,
    render_state=render_rational,
    enumerate_states=_enumerate_states,
    probe_calls=_probe_calls,
    probe_public_calls=_probe_public_calls,
)
