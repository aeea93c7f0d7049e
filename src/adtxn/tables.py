"""Conditional commutativity tables and the queries the monitor runs.

Two tables per data type, one policy: absence means conflict.

The in-table answers from in-parameters alone and is consulted against
operations whose results are not yet known (blocked or executing). Entries
are unordered: storing PUSH/PUSH once covers both argument orders.

The out-table is consulted against *executed* operations, whose
out-parameters exist, so its entries are ordered (executed first) and its
conditions may read the executed op's results. An entry may also carry a
deduction: a closed form for the incoming op's out-parameters, valid exactly
when the entry's condition holds. Deducing lets the monitor answer an
operation without running it, which is what makes reading past an
uncommitted writer safe: the answer provably does not depend on whether that
writer commits.

In-commutativity is the stronger claim (it holds whatever the results turn
out to be), so the out-query falls back to the in-table when no out-entry
matches; the fallback never deduces.

The out-query answers only whether the pair commutes. Admission and
out-control need nothing more, so no deduction is evaluated for them; the
deduction is read only by `try_deduce`, from the same entry.

Each table is a matrix over op pairs with one condition in each cell:
`CommutTables` refuses a second in-entry on one unordered pair, and a second
out-entry on one ordered pair, when it is built. A cell that needs a case
split writes it inside its one condition. Every query names one op pair, so
the tables index their entries by pair once, when built (and rebuilt with
them, as by `dataclasses.replace`), and a query reads only its own cell:

* `in_by_pair[(x, y)]` holds `(when, swapped)` for the in-entry on ops x
  and y, stored under both orders: an X/Y entry sits under (x, y) as is and
  under (y, x) swapped, so the query calls `when` with the arguments in the
  entry's order. An entry on one op twice (X/X) sits under (x, x) once, as
  is, so its condition runs once per query, on the arguments in query
  order; `verify-tables` sweeps both orders.
* `out_by_pair[(executed, incoming)]` holds the out-entry for that pair.

Two more facts are derived at the same time, for the monitor's admission:

* `always[y]` holds every op x with an in-entry on x and y whose condition
  is the shared `ALWAYS` (and `always[x]` holds y). Those ops commute
  whatever their parameters and results, so no query between them can say
  otherwise. The condition is recognised by identity, so only `ALWAYS`
  itself counts;
* `deducible` holds every incoming op of an out-entry that carries a
  deduction: no other op can ever be deduced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .core import FrameworkError
from .values import Value

# Condition/deduction signatures:
#   in-entry   when(ins_a, ins_b) -> bool
#   out-entry  when(executed_ins, executed_outs, incoming_ins) -> bool
#   deduce(executed_ins, executed_outs, incoming_ins) -> incoming outs


def ALWAYS(ins_a, ins_b) -> bool:
    """The unconditional in-entry condition: the two ops commute whatever
    their parameters. Every such entry uses this one function, so the
    tables can tell it apart from a condition that merely returns True."""
    return True


class TableSoundnessError(AssertionError):
    """A table query met a case the tables cannot answer soundly. Raised
    rather than asserted so the check holds under `python -O`; an
    AssertionError so the oracles count it as a failed check."""


@dataclass(frozen=True)
class InCommutEntry:
    op_a: str
    op_b: str
    when: Callable[[tuple[Value, ...], tuple[Value, ...]], bool]
    note: str = ""


@dataclass(frozen=True)
class OutCommutEntry:
    executed_op: str
    incoming_op: str
    when: Callable[[tuple[Value, ...], tuple[Value, ...], tuple[Value, ...]], bool]
    deduce: Callable[[tuple[Value, ...], tuple[Value, ...], tuple[Value, ...]],
                     tuple[Value, ...]] | None = None
    note: str = ""


def _one_per_pair(by_pair: dict, pair: tuple[str, str], cell, kind: str) -> None:
    """Put `cell` under `pair`, refusing a second entry on one pair: each
    table cell holds one condition."""
    if pair in by_pair:
        raise FrameworkError(f"two {kind}-entries on {pair[0]}/{pair[1]}")
    by_pair[pair] = cell


@dataclass(frozen=True)
class CommutTables:
    in_entries: tuple[InCommutEntry, ...]
    out_entries: tuple[OutCommutEntry, ...]
    in_by_pair: dict[tuple[str, str], tuple[Callable, bool]] = field(
        init=False, repr=False, compare=False)
    out_by_pair: dict[tuple[str, str], OutCommutEntry] = field(
        init=False, repr=False, compare=False)
    always: dict[str, frozenset[str]] = field(init=False, repr=False, compare=False)
    deducible: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        in_by_pair: dict[tuple[str, str], tuple[Callable, bool]] = {}
        always: dict[str, set[str]] = {}
        for e in self.in_entries:
            _one_per_pair(in_by_pair, (e.op_a, e.op_b), (e.when, False), "in")
            if e.op_a != e.op_b:
                in_by_pair[(e.op_b, e.op_a)] = (e.when, True)
            if e.when is ALWAYS:
                always.setdefault(e.op_a, set()).add(e.op_b)
                always.setdefault(e.op_b, set()).add(e.op_a)
        out_by_pair: dict[tuple[str, str], OutCommutEntry] = {}
        for e in self.out_entries:
            _one_per_pair(out_by_pair, (e.executed_op, e.incoming_op), e, "out")
        object.__setattr__(self, "in_by_pair", in_by_pair)
        object.__setattr__(self, "out_by_pair", out_by_pair)
        object.__setattr__(self, "always",
                           {k: frozenset(v) for k, v in always.items()})
        object.__setattr__(self, "deducible", frozenset(
            e.incoming_op for e in self.out_entries if e.deduce is not None))


def commute_with_in(tables: CommutTables, a, b) -> bool:
    """Unordered in-parameter commutativity of two calls (.op/.ins duck type)."""
    when, swapped = tables.in_by_pair.get((a.op, b.op), (None, False))
    if when is None:
        return False
    return when(b.ins, a.ins) if swapped else when(a.ins, b.ins)


def _out_entry_for(tables: CommutTables, executed, incoming) -> OutCommutEntry | None:
    e = tables.out_by_pair.get((executed.op, incoming.op))
    if e is not None and e.when(executed.ins, executed.outs, incoming.ins):
        return e
    return None


def commute_with_in_out(tables: CommutTables, executed, incoming) -> bool:
    """Does `incoming` commute with the already-executed `executed`?

    `executed` must carry outs. A matching out-entry says yes; failing
    that, the in-table decides.
    """
    if executed.outs is None:
        raise TableSoundnessError(f"{executed!r} has no outs yet")
    return (_out_entry_for(tables, executed, incoming) is not None
            or commute_with_in(tables, executed, incoming))


def try_deduce(tables: CommutTables, incoming, executed_ops, pending_ops
               ) -> tuple[Value, ...] | None:
    """Attempt to answer `incoming` without executing it.

    Succeeds only when every executed op admits it through an out-entry that
    carries a deduction (the state's relevant aspect is then pinned by those
    results) and it in-commutes with every blocked or in-execution op (whose
    results could otherwise still shift the answer). With no executed ops
    there is nothing to pin the state, so no deduction.

    All executed ops must agree on the deduced value; a disagreement is a
    table soundness bug and raises `TableSoundnessError`.

    Either collection may be a lazy iterable: the executed ops are read up
    to the first that cannot pin the answer, the pending ones only after
    every executed op has pinned it.
    """
    deduced = []
    for ex in executed_ops:
        e = _out_entry_for(tables, ex, incoming)
        if e is None or e.deduce is None:
            return None
        deduced.append(e.deduce(ex.ins, ex.outs, incoming.ins))
    if not deduced:
        return None
    for p in pending_ops:
        if not commute_with_in(tables, p, incoming):
            return None
    first = deduced[0]
    if not all(d == first for d in deduced):
        raise TableSoundnessError(
            f"deduction disagreement for {incoming!r}: {deduced}")
    return first
