"""Cell: an object that holds one value, overwritten by SETTO and read by READ.

`real` and `boolean` are both cells. Each appends these rules and entries
to its own, so the two types share the very same rule and entry objects,
and declares the two ops' signatures through `signatures` over its value
tag. Each type's `apply` runs SETTO and READ itself: it is the one
semantics of all its private ops.

SETTO answers nothing publicly; its before-image is a hidden out-param,
which is what makes it undoable. READ is its own private op.
"""

from __future__ import annotations

from ..core import InverseRule, OpSig, PrivateCall, TranslationRule, identity_rule
from ..tables import ALWAYS, InCommutEntry, OutCommutEntry
from ..values import Tag

TRANSLATION = (
    TranslationRule("SETTO", when=lambda ins: True,
                    target=lambda ins: PrivateCall("SETTO", ins),
                    note="before-image stays hidden"),
    identity_rule("READ"),
)

INVERSES = (
    InverseRule("SETTO", when=lambda i, o: i[0] == o[0], null=True,
                note="wrote the value already there"),
    InverseRule("SETTO", when=lambda i, o: i[0] != o[0],
                target=lambda i, o: PrivateCall("SETTO", (o[0],))),
    InverseRule("READ", when=lambda i, o: True, null=True),
)

IN_ENTRIES = (
    InCommutEntry("READ", "READ", when=ALWAYS),
)

# Each entry deduces. They come last in a type's out-table, in this order,
# and no type has another entry on their pairs.
OUT_ENTRIES = (
    OutCommutEntry("READ", "READ", when=lambda ei, eo, ii: True,
                   deduce=lambda ei, eo, ii: (eo[0],)),
    OutCommutEntry("SETTO", "READ",
                   when=lambda ei, eo, ii: eo[0] == ei[0],
                   deduce=lambda ei, eo, ii: (ei[0],),
                   note="assignment that changed nothing acts as a read"),
    OutCommutEntry("SETTO", "SETTO",
                   when=lambda ei, eo, ii: eo[0] == ei[0] and ii[0] == ei[0],
                   deduce=lambda ei, eo, ii: (ei[0],)),
    OutCommutEntry("READ", "SETTO",
                   when=lambda ei, eo, ii: ii[0] == eo[0],
                   deduce=lambda ei, eo, ii: (eo[0],),
                   note="writing back the value just read"),
)


def signatures(tag: Tag) -> tuple[dict[str, OpSig], dict[str, OpSig]]:
    """(public, private) signatures of SETTO and READ on a cell of `tag`
    values."""
    read = OpSig((), (tag,))
    return ({"SETTO": OpSig((tag,), ()), "READ": read},
            {"SETTO": OpSig((tag,), (tag,)), "READ": read})
