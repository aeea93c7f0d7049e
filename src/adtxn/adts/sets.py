"""Set of items: INSERT, DELETE, IN, CARD.

Result-dependent behavior is the whole point here. An INSERT that reports
AlreadyIn changed nothing, so it undoes to NULL and can admit (indeed answer)
a second identical INSERT or an IN test. CARD's answer depends on the entire
membership, so it has no entry against INSERT or DELETE in either table:
cardinality readers block membership writers and vice versa.
"""

from __future__ import annotations

from itertools import combinations
from sys import intern

from ..core import AdtSpec, InverseRule, OpSig, PrivateCall, PublicCall, identity_rule
from ..tables import ALWAYS, CommutTables, InCommutEntry, OutCommutEntry
from ..values import FALSE, TRUE, Tag, boolean, is_item_list, item, rational, report

OK = report("Ok")
ALREADY_IN = report("AlreadyIn")
NOT_FOUND = report("NotFound")

_UNIVERSE = ("a", "b", "c")


def _apply(state, op, ins):
    if op == "INSERT":
        x = ins[0].payload
        if x in state:
            return state, (ALREADY_IN,)
        return state | {x}, (OK,)
    if op == "DELETE":
        x = ins[0].payload
        if x in state:
            return state - {x}, (OK,)
        return state, (NOT_FOUND,)
    if op == "IN":
        return state, (boolean(ins[0].payload in state),)
    if op == "CARD":
        return state, (rational(len(state)),)
    raise AssertionError(op)


def _parse_state(text):
    if text == "{}":
        return frozenset()
    if not is_item_list(text):
        raise ValueError(f"bad set literal {text!r}")
    parts = text.split(",")
    state = frozenset(map(intern, parts))
    if len(state) != len(parts):
        raise ValueError(f"duplicate items in set literal {text!r}")
    return state


def _render_state(state):
    return ",".join(sorted(state)) if state else "{}"


def _enumerate_states(bound):
    universe = _UNIVERSE[:bound] if bound <= len(_UNIVERSE) else _UNIVERSE
    for k in range(len(universe) + 1):
        for combo in combinations(universe, k):
            yield frozenset(combo)


def _probe_calls(bound):
    universe = _UNIVERSE[:bound] if bound <= len(_UNIVERSE) else _UNIVERSE
    calls = []
    for x in universe:
        calls += [PrivateCall("INSERT", (item(x),)),
                  PrivateCall("DELETE", (item(x),)),
                  PrivateCall("IN", (item(x),))]
    calls.append(PrivateCall("CARD", ()))
    return calls


def _probe_public_calls(bound):
    return [PublicCall(c.op, c.ins) for c in _probe_calls(bound)]


_TRANSLATION = tuple(identity_rule(op) for op in ("INSERT", "DELETE", "IN", "CARD"))

_INVERSES = (
    InverseRule("INSERT", when=lambda i, o: o[0] == OK,
                target=lambda i, o: PrivateCall("DELETE", i)),
    InverseRule("INSERT", when=lambda i, o: o[0] == ALREADY_IN, null=True),
    InverseRule("DELETE", when=lambda i, o: o[0] == OK,
                target=lambda i, o: PrivateCall("INSERT", i)),
    InverseRule("DELETE", when=lambda i, o: o[0] == NOT_FOUND, null=True),
    InverseRule("IN", when=lambda i, o: True, null=True),
    InverseRule("CARD", when=lambda i, o: True, null=True),
)


def _distinct(a, b):
    return a[0] != b[0]


_IN_ENTRIES = (
    InCommutEntry("INSERT", "INSERT", when=_distinct),
    InCommutEntry("INSERT", "DELETE", when=_distinct),
    InCommutEntry("INSERT", "IN", when=_distinct),
    InCommutEntry("DELETE", "DELETE", when=_distinct),
    InCommutEntry("DELETE", "IN", when=_distinct),
    InCommutEntry("IN", "IN", when=ALWAYS),
    InCommutEntry("IN", "CARD", when=ALWAYS),
    InCommutEntry("CARD", "CARD", when=ALWAYS),
)


def _same_item(ei, eo, ii):
    return ei[0] == ii[0]


_OUT_ENTRIES = (
    OutCommutEntry("INSERT", "INSERT",
                   when=lambda ei, eo, ii: eo[0] == ALREADY_IN and ei[0] == ii[0],
                   deduce=lambda ei, eo, ii: (ALREADY_IN,),
                   note="failed insert proves membership"),
    OutCommutEntry("INSERT", "IN",
                   when=lambda ei, eo, ii: eo[0] == ALREADY_IN and ei[0] == ii[0],
                   deduce=lambda ei, eo, ii: (TRUE,)),
    OutCommutEntry("DELETE", "DELETE",
                   when=lambda ei, eo, ii: eo[0] == NOT_FOUND and ei[0] == ii[0],
                   deduce=lambda ei, eo, ii: (NOT_FOUND,)),
    OutCommutEntry("DELETE", "IN",
                   when=lambda ei, eo, ii: eo[0] == NOT_FOUND and ei[0] == ii[0],
                   deduce=lambda ei, eo, ii: (FALSE,)),
    OutCommutEntry("IN", "IN",
                   when=_same_item,
                   deduce=lambda ei, eo, ii: (eo[0],)),
    OutCommutEntry("IN", "INSERT",
                   when=lambda ei, eo, ii: eo[0] == TRUE and ei[0] == ii[0],
                   deduce=lambda ei, eo, ii: (ALREADY_IN,)),
    OutCommutEntry("IN", "DELETE",
                   when=lambda ei, eo, ii: eo[0] == FALSE and ei[0] == ii[0],
                   deduce=lambda ei, eo, ii: (NOT_FOUND,)),
    OutCommutEntry("CARD", "CARD",
                   when=lambda ei, eo, ii: True,
                   deduce=lambda ei, eo, ii: (eo[0],)),
)


def _conflict_key(op, ins):
    # every table entry between two membership ops on distinct items says
    # they commute, and none deduces across items; CARD reads them all
    return None if op == "CARD" else ins[0].payload


_ITEM_SIG = OpSig((Tag.ITEM,), (Tag.REPORT,))

# every public op is its own private op
_OPS = {
    "INSERT": _ITEM_SIG,
    "DELETE": _ITEM_SIG,
    "IN": OpSig((Tag.ITEM,), (Tag.BOOLEAN,)),
    "CARD": OpSig((), (Tag.RATIONAL,)),
}

SET = AdtSpec(
    name="set",
    public_ops=_OPS,
    private_ops=_OPS,
    translation=_TRANSLATION,
    inverses=_INVERSES,
    tables=CommutTables(_IN_ENTRIES, _OUT_ENTRIES),
    apply=_apply,
    initial_state=frozenset(),
    parse_state=_parse_state,
    render_state=_render_state,
    enumerate_states=_enumerate_states,
    probe_calls=_probe_calls,
    probe_public_calls=_probe_public_calls,
    conflict_key=_conflict_key,
)
