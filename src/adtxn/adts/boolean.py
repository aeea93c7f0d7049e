"""Boolean cell: public AND, OR, XOR, NOT, SETTO, READ.

Translation collapses the whole public surface onto three private ops. An
AND with true, OR with false or XOR with false is NULL outright; AND with
false and OR with true become assignments; XOR with true is a NOT. Only READ
returns anything publicly; the assignment's before-image is a hidden
out-param.

SETTO and READ are the shared cell's (see `cell`): their translation and
inverse rules, their READ/READ in-entry, the whole out-table and their
signatures. This module adds only NOT's rules and its in-entry.
"""

from __future__ import annotations

from ..core import AdtSpec, InverseRule, OpSig, PrivateCall, PublicCall, TranslationRule
from ..tables import ALWAYS, CommutTables, InCommutEntry
from ..values import FALSE, TRUE, Tag, boolean, parse_token, render
from . import cell

# the enum member as a global (see the `core` docstring)
_BOOLEAN = Tag.BOOLEAN


def _apply(state, op, ins):
    if op == "NOT":
        return not state, ()
    if op == "SETTO":
        return ins[0].payload, (boolean(state),)
    if op == "READ":
        return state, (boolean(state),)
    raise AssertionError(op)


def _parse_state(text):
    return parse_token(_BOOLEAN, text).payload


def _render_state(state):
    return render(boolean(state))


def _enumerate_states(bound):
    return [False, True]


def _probe_calls(bound):
    return [PrivateCall("NOT", ()),
            PrivateCall("SETTO", (TRUE,)),
            PrivateCall("SETTO", (FALSE,)),
            PrivateCall("READ", ())]


def _probe_public_calls(bound):
    calls = []
    for op in ("AND", "OR", "XOR", "SETTO"):
        calls += [PublicCall(op, (TRUE,)), PublicCall(op, (FALSE,))]
    calls += [PublicCall("NOT", ()), PublicCall("READ", ())]
    return calls


def _to(value):
    return lambda ins: PrivateCall("SETTO", (value,))


_TRANSLATION = (
    TranslationRule("AND", when=lambda ins: ins[0] == TRUE, null=True),
    TranslationRule("AND", when=lambda ins: ins[0] == FALSE,
                    target=_to(FALSE)),
    TranslationRule("OR", when=lambda ins: ins[0] == FALSE, null=True),
    TranslationRule("OR", when=lambda ins: ins[0] == TRUE,
                    target=_to(TRUE)),
    TranslationRule("XOR", when=lambda ins: ins[0] == FALSE, null=True),
    TranslationRule("XOR", when=lambda ins: ins[0] == TRUE,
                    target=lambda ins: PrivateCall("NOT", ())),
    TranslationRule("NOT", when=lambda ins: True,
                    target=lambda ins: PrivateCall("NOT", ())),
) + cell.TRANSLATION

_INVERSES = (
    InverseRule("NOT", when=lambda i, o: True,
                target=lambda i, o: PrivateCall("NOT", ())),
) + cell.INVERSES

_IN_ENTRIES = (
    InCommutEntry("NOT", "NOT", when=ALWAYS),
) + cell.IN_ENTRIES

_BOOL_IN = OpSig((_BOOLEAN,), ())
_CELL_PUBLIC, _CELL_PRIVATE = cell.signatures(_BOOLEAN)

BOOLEAN = AdtSpec(
    name="boolean",
    public_ops={
        "AND": _BOOL_IN,
        "OR": _BOOL_IN,
        "XOR": _BOOL_IN,
        "NOT": OpSig((), ()),
        **_CELL_PUBLIC,
    },
    private_ops={
        "NOT": OpSig((), ()),
        **_CELL_PRIVATE,
    },
    translation=_TRANSLATION,
    inverses=_INVERSES,
    tables=CommutTables(_IN_ENTRIES, cell.OUT_ENTRIES),
    apply=_apply,
    initial_state=False,
    parse_state=_parse_state,
    render_state=_render_state,
    enumerate_states=_enumerate_states,
    probe_calls=_probe_calls,
    probe_public_calls=_probe_public_calls,
)
