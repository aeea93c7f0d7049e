"""Stack of items: PUSH, POP, EMPTY, CLEAR.

Public and private levels coincide except for RESTORE, a private-only op
that exists to undo CLEAR: CLEAR smuggles the popped content out through a
hidden sequence out-param, and RESTORE puts it back. RESTORE has no
commutativity entries (absence = conflict), which is safely conservative
since it only ever runs during aborts.
"""

from __future__ import annotations

from itertools import product
from sys import intern

from ..core import (AdtSpec, InverseRule, OpSig, PrivateCall, PublicCall,
                    TranslationRule, identity_rule)
from ..tables import ALWAYS, CommutTables, InCommutEntry, OutCommutEntry
from ..values import TRUE, Tag, UNIT, boolean, is_item_list, item, report, seq

OK = report("Ok")
EMPTY_STACK = report("EmptyStack")
ALREADY_EMPTY = report("AlreadyEmpty")

_ALPHABET = ("a", "b")


def _apply(state, op, ins):
    if op == "PUSH":
        return state + (ins[0].payload,), (OK,)
    if op == "POP":
        if not state:
            return state, (UNIT, EMPTY_STACK)
        return state[:-1], (item(state[-1]), OK)
    if op == "EMPTY":
        return state, (boolean(not state),)
    if op == "CLEAR":
        if not state:
            return state, (ALREADY_EMPTY, seq(()))
        return (), (OK, seq(item(x) for x in state))
    if op == "RESTORE":
        new = tuple(v.payload for v in ins[0].payload)
        return new, (seq(item(x) for x in state),)
    raise AssertionError(op)


def _parse_state(text):
    if text == "()":
        return ()
    if not is_item_list(text):
        raise ValueError(f"bad stack literal {text!r}")
    return tuple(map(intern, text.split(",")))


def _render_state(state):
    return ",".join(state) if state else "()"


def _enumerate_states(bound):
    for depth in range(bound + 1):
        for combo in product(_ALPHABET, repeat=depth):
            yield combo


def _probe_calls(bound):
    calls = [PrivateCall("PUSH", (item(x),)) for x in _ALPHABET]
    calls += [PrivateCall("POP", ()), PrivateCall("EMPTY", ()), PrivateCall("CLEAR", ())]
    calls += [PrivateCall("RESTORE", (seq(item(x) for x in s),))
              for s in _enumerate_states(bound)]
    return calls


def _probe_public_calls(bound):
    return ([PublicCall("PUSH", (item(x),)) for x in _ALPHABET]
            + [PublicCall("POP", ()), PublicCall("EMPTY", ()), PublicCall("CLEAR", ())])


_TRANSLATION = (
    identity_rule("PUSH"),
    identity_rule("POP"),
    identity_rule("EMPTY"),
    TranslationRule("CLEAR", when=lambda ins: True,
                    target=lambda ins: PrivateCall("CLEAR", ins),
                    outs=lambda ins, pouts: (pouts[0],),
                    note="popped content stays hidden"),
)

_INVERSES = (
    InverseRule("PUSH", when=lambda i, o: True,
                target=lambda i, o: PrivateCall("POP", ())),
    InverseRule("POP", when=lambda i, o: o[1] == OK,
                target=lambda i, o: PrivateCall("PUSH", (o[0],))),
    InverseRule("POP", when=lambda i, o: o[1] == EMPTY_STACK, null=True),
    InverseRule("EMPTY", when=lambda i, o: True, null=True),
    InverseRule("CLEAR", when=lambda i, o: o[0] == OK,
                target=lambda i, o: PrivateCall("RESTORE", (o[1],))),
    InverseRule("CLEAR", when=lambda i, o: o[0] == ALREADY_EMPTY, null=True),
    InverseRule("RESTORE", when=lambda i, o: True,
                target=lambda i, o: PrivateCall("RESTORE", (o[0],))),
)

# In-table: two entries. Equal pushes commute (same final content, same Ok
# reports either way); emptiness tests never interfere with each other.
_IN_ENTRIES = (
    InCommutEntry("PUSH", "PUSH", when=lambda a, b: a[0] == b[0]),
    InCommutEntry("EMPTY", "EMPTY", when=ALWAYS),
)

# Out-table: nine entries, each keyed on the executed op having observed an
# empty stack, each able to answer the incoming op outright.
_OUT_ENTRIES = (
    OutCommutEntry("POP", "POP",
                   when=lambda ei, eo, ii: eo[1] == EMPTY_STACK,
                   deduce=lambda ei, eo, ii: (UNIT, EMPTY_STACK)),
    OutCommutEntry("POP", "EMPTY",
                   when=lambda ei, eo, ii: eo[1] == EMPTY_STACK,
                   deduce=lambda ei, eo, ii: (TRUE,)),
    OutCommutEntry("POP", "CLEAR",
                   when=lambda ei, eo, ii: eo[1] == EMPTY_STACK,
                   deduce=lambda ei, eo, ii: (ALREADY_EMPTY, seq(()))),
    OutCommutEntry("EMPTY", "POP",
                   when=lambda ei, eo, ii: eo[0] == TRUE,
                   deduce=lambda ei, eo, ii: (UNIT, EMPTY_STACK)),
    OutCommutEntry("EMPTY", "EMPTY",
                   when=lambda ei, eo, ii: True,
                   deduce=lambda ei, eo, ii: (eo[0],),
                   note="second test repeats the first answer"),
    OutCommutEntry("EMPTY", "CLEAR",
                   when=lambda ei, eo, ii: eo[0] == TRUE,
                   deduce=lambda ei, eo, ii: (ALREADY_EMPTY, seq(()))),
    OutCommutEntry("CLEAR", "POP",
                   when=lambda ei, eo, ii: eo[0] == ALREADY_EMPTY,
                   deduce=lambda ei, eo, ii: (UNIT, EMPTY_STACK)),
    OutCommutEntry("CLEAR", "EMPTY",
                   when=lambda ei, eo, ii: eo[0] == ALREADY_EMPTY,
                   deduce=lambda ei, eo, ii: (TRUE,)),
    OutCommutEntry("CLEAR", "CLEAR",
                   when=lambda ei, eo, ii: eo[0] == ALREADY_EMPTY,
                   deduce=lambda ei, eo, ii: (ALREADY_EMPTY, seq(()))),
)

# the signatures public and private levels share; CLEAR hides its content
_BOTH_LEVELS = {
    "PUSH": OpSig((Tag.ITEM,), (Tag.REPORT,)),
    "POP": OpSig((), (Tag.ITEM, Tag.REPORT)),
    "EMPTY": OpSig((), (Tag.BOOLEAN,)),
}

STACK = AdtSpec(
    name="stack",
    public_ops={**_BOTH_LEVELS, "CLEAR": OpSig((), (Tag.REPORT,))},
    private_ops={
        **_BOTH_LEVELS,
        "CLEAR": OpSig((), (Tag.REPORT, Tag.SEQ)),
        "RESTORE": OpSig((Tag.SEQ,), (Tag.SEQ,)),
    },
    translation=_TRANSLATION,
    inverses=_INVERSES,
    tables=CommutTables(_IN_ENTRIES, _OUT_ENTRIES),
    apply=_apply,
    initial_state=(),
    parse_state=_parse_state,
    render_state=_render_state,
    enumerate_states=_enumerate_states,
    probe_calls=_probe_calls,
    probe_public_calls=_probe_public_calls,
)
