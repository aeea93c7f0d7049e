"""Run histories: the event stream a simulation produces.

The trace file format is one line per event,

    <index> <kind> txn=<name> obj=<name|-> op=<OP|-> in=[...] out=[...]

and is what the determinism checks compare byte for byte; the oracles
judge the in-memory `History`. Events additionally carry the invocation id
in memory (not in the file). The history replay's own engine numbers
invocations as the run's did, and the replay compares the id as one field
of every event; `bench/run.py` reads it at BLOCK and WAKE to time waits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import NamedTuple

from .values import Value, render_params

BEGIN = "BEGIN"
INVOKE = "INVOKE"
BLOCK = "BLOCK"
WAKE = "WAKE"
EXEC = "EXEC"
DEDUCE = "DEDUCE"
NULLOP = "NULLOP"
COMMIT = "COMMIT"
ABORT = "ABORT"
INVERSE = "INVERSE"
WITHDRAW = "WITHDRAW"
VICTIM = "VICTIM"

KINDS = frozenset((BEGIN, INVOKE, BLOCK, WAKE, EXEC, DEDUCE, NULLOP, COMMIT,
                   ABORT, INVERSE, WITHDRAW, VICTIM))


class EventKindError(AssertionError):
    """An event of a kind the trace format does not have. Raised rather than
    asserted so the check holds under `python -O`."""


class MetricIdentityError(AssertionError):
    """A run's event counts break an accounting identity. Raised rather than
    asserted so the check holds under `python -O`; an AssertionError so the
    oracles count it as a failed check."""


class Event(NamedTuple):
    index: int
    kind: str
    txn: str
    obj: str | None = None
    op: str | None = None
    ins: tuple[Value, ...] = ()
    outs: tuple[Value, ...] = ()
    inv_id: int | None = None

    def render(self) -> str:
        return (f"{self.index} {self.kind} txn={self.txn} obj={self.obj or '-'} "
                f"op={self.op or '-'} in={render_params(self.ins)} "
                f"out={render_params(self.outs)}")


_new_tuple = tuple.__new__


@dataclass
class History:
    events: list[Event] = field(default_factory=list)

    def emit(self, kind, txn, obj=None, op=None, ins=(), outs=(), inv_id=None) -> Event:
        if kind not in KINDS:
            raise EventKindError(f"unknown event kind {kind!r}")
        # every field in order, through tuple.__new__: the NamedTuple
        # constructor is a Python function, and every event of a run is
        # built here (the replay builds one more only to render a failure)
        ev = _new_tuple(Event, (len(self.events), kind, txn, obj, op,
                                tuple(ins), tuple(outs), inv_id))
        self.events.append(ev)
        return ev

    def __iter__(self):
        return iter(self.events)

    def __len__(self):
        return len(self.events)


def render_trace(history: History) -> str:
    return "".join(e.render() + "\n" for e in history)


# (Metrics field, the event kind it counts), in the order `render` lists them
METRIC_COUNTS = (
    ("invocations", INVOKE), ("null_ops", NULLOP), ("executions", EXEC),
    ("deductions", DEDUCE), ("blocks", BLOCK), ("wakeups", WAKE),
    ("withdrawals", WITHDRAW), ("inverses", INVERSE), ("commits", COMMIT),
    ("aborts", ABORT), ("victims", VICTIM),
)


@dataclass(frozen=True)
class Metrics:
    invocations: int
    null_ops: int
    executions: int
    deductions: int
    blocks: int
    wakeups: int
    withdrawals: int
    inverses: int
    commits: int
    aborts: int
    victims: int
    max_in_execution: dict[str, int]

    def render(self) -> str:
        lines = [f"{name} {getattr(self, name)}" for name, _ in METRIC_COUNTS]
        for name in sorted(self.max_in_execution):
            lines.append(f"max_in_execution {name} {self.max_in_execution[name]}")
        return "".join(line + "\n" for line in lines)


_COUNTED_FIELDS = tuple(name for name, _ in METRIC_COUNTS)
_COUNTED_KINDS = tuple(kind for _, kind in METRIC_COUNTS)
_kind_of = itemgetter(1)        # Event.kind


def compute_metrics(history: History, high_water: dict[str, int] | None = None) -> Metrics:
    """The history's event counts, and `high_water` as `max_in_execution`.

    It runs twice per run, for the simulator's result and in `validate_run`,
    so it counts in one loop where `Counter` costs a microsecond to set up,
    and fills the fields straight into the instance dict, where the frozen
    dataclass's `__init__` would set each through `object.__setattr__`."""
    counts: dict[str, int] = {}
    for kind in map(_kind_of, history.events):
        counts[kind] = counts.get(kind, 0) + 1
    m = object.__new__(Metrics)
    m.__dict__.update(zip(_COUNTED_FIELDS, [counts.get(k, 0) for k in _COUNTED_KINDS]),
                      max_in_execution=dict(high_water or {}))
    check_metric_identities(m)
    return m


def check_metric_identities(m: Metrics):
    """Accounting identities every run must satisfy.

    Each invocation that reaches a monitor ends in exactly one of:
    executed, deduced, or withdrawn while still blocked; and each BLOCK
    ends in exactly one WAKE or one WITHDRAW.
    """
    if m.executions + m.deductions + m.withdrawals != m.invocations:
        raise MetricIdentityError(f"invocation accounting broken: {m}")
    if m.blocks != m.wakeups + m.withdrawals:
        raise MetricIdentityError(f"blocks are not wakeups plus withdrawals: {m}")
    if m.victims > m.aborts:
        raise MetricIdentityError(f"victims not a subset of aborts: {m}")
