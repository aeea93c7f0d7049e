"""Two-level operation interface for recoverable data types.

A data type exposes *public* operations to transactions but runs *private*
operations inside its object. The split does two jobs at once:

* translation can inspect the public in-parameters and pick a private
  operation whose commutativity is wider (multiply by zero is really an
  assignment; add zero is nothing at all), and
* every private operation is built to be undoable, either because it has an
  exact inverse or because it smuggles the before-image out through a hidden
  out-parameter.

Translation happens before any concurrency control and may decide the call
is a NULL operation: result known from in-parameters alone, no state touched,
so it bypasses the object entirely. That decision must therefore never look
at object state, which is why TranslationRule conditions receive only the
public in-parameters.

That purity is what lets each spec memoize its translations. The answer
reads only the spec's frozen rules and the call, and two equal calls have
the same op and equal in-parameters (same tag, equal payload), so every
check and every rule condition answers them alike. `translate_public`
therefore keeps each answer in `AdtSpec.translated`, keyed by the call,
and the engine, the history replay and the serial replays each translate
a distinct call once per spec.

Inverses are resolved *after* execution from the pair (in-params, out-params)
of the executed private operation. A rule may name an inverse call or declare
the inverse NULL (the operation turned out not to change state). NULL-inverse
operations are still concurrency-controlled; only NULL *direct* operations
escape the monitor.

Inverse selection is as pure: it reads the spec's frozen rules and the
executed call's op, in-parameters and out-parameters, and nothing else. So
`determine_inverse` keeps each answer in `AdtSpec.inverted`, keyed by
`(op, ins, outs)`, and the engine and the history replay each select the
inverse of a distinct executed call once per spec. A NULL inverse is kept
too, as None. A call that raises (no rule matches, rules overlap, or the
inverse call is malformed) is not kept, and raises every time. What the
manager checks about the answer, that a deduced op needs no undo, reads the
op as well as the call, so it stays outside the memo and runs on every
call. A memo lookup hashes the call's Values, which is why each `Value`
keeps its hash (see `values`).

Both memos are derived in `AdtSpec.__post_init__`, so `dataclasses.replace`
starts the copy with empty ones, and a spec rebuilt with other rules never
sees an answer of the old ones.

The records built once per call (`PublicCall`, `PrivateCall`,
`Translation`, the manager's `UndoEntry`, the history's `Event` and the
oracles' `Observation`) are `NamedTuple`s. They are immutable as a frozen
dataclass is, but a frozen dataclass fills itself one field at a time
through `object.__setattr__`, which costs two to four times what building
the tuple does, and the engine builds several per call. The `NamedTuple`
constructor is itself a generated Python function: on Python 3.11 it costs
about 0.4 us, where `tuple.__new__(Cls, (field, ...))` with every field in
order costs about 0.2 us and builds an equal record that hashes alike. So
the paths that build one per operation call `tuple.__new__`: `Event` in
`History.emit`, `PublicCall` for each step the simulator, the serial
replay and the history replay translate, `UndoEntry` in
`TransactionRecord.register` and `Observation` in the serial replay and
the history's answers. Every other caller uses the constructor. The same
paths test `tr.call is None` rather than the `Translation.null` property,
a Python call that costs three times the read. `PrivateInvocation` stays
the only mutable per-call record; it has slots, so a misspelt field raises
rather than adding an attribute. The engine and the history replay build
it with positional arguments, which its generated `__init__` takes in
under half the time it takes the same five as keywords.

Function bodies in the package read the members of `Lifecycle`, `Origin`,
`Tag`, `TxnStatus` and `AdmitOutcome` through module-level names bound
once (`_BLOCKED = Lifecycle.BLOCKED`), never as `Lifecycle.BLOCKED`: on
Python 3.11 the enum metaclass defines `__getattr__`, so every read of a
class attribute takes the slow path, about 0.11 us against 0.01 us for a
global, and the engine compares stages and statuses on every operation.
Class-level defaults and module-level declarations read them directly.
tests/test_lint.py holds every module to the rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from operator import attrgetter
from typing import Any, Callable, Hashable, Iterable, NamedTuple, Sequence

from .values import Tag, Value, render_params

_UNIT = Tag.UNIT


class FrameworkError(Exception):
    """Base for all errors raised by this package."""


class UnknownOp(FrameworkError):
    pass


class ArityMismatch(FrameworkError):
    pass


class TagMismatch(FrameworkError):
    pass


class NoRuleMatches(FrameworkError):
    pass


class PreconditionViolated(FrameworkError):
    """A private operation was applied outside its declared domain."""


class Lifecycle(Enum):
    NEW = "new"
    BLOCKED = "blocked"
    IN_EXECUTION = "in_execution"
    EXECUTED = "executed"
    FINISHED = "finished"


class Origin(Enum):
    EXECUTED = "executed"   # out-params produced by running the operation
    DEDUCED = "deduced"     # out-params inferred from executed predecessors


@dataclass(frozen=True)
class OpSig:
    """Parameter shape of one operation: in-tags and out-tags.

    An out slot may be filled by UNIT at runtime even when declared with a
    concrete tag (a pop of an empty stack returns no item), so out checking
    accepts UNIT anywhere.
    """
    ins: tuple[Tag, ...]
    outs: tuple[Tag, ...] = ()


class PublicCall(NamedTuple):
    op: str
    ins: tuple[Value, ...]

    def __repr__(self):
        return f"{self.op}{render_params(self.ins)}"


@dataclass(eq=False, slots=True)
class PrivateInvocation:
    """One private operation instance inside an object's monitor.

    The only mutable per-call record. lifecycle, outs and the execution
    counter are each written once, always inside the owning monitor's entry
    sections, as is `key`, the conflict key its type gives the op (None if
    none), at admission; everything else is fixed at creation. ids are
    assigned in monitor arrival order and are global across objects, which
    makes the blocking relation acyclic by construction (later ids wait on
    earlier).
    """
    id: int
    txn: int
    obj: str
    op: str
    ins: tuple[Value, ...]
    outs: tuple[Value, ...] | None = None
    origin: Origin = Origin.EXECUTED
    lifecycle: Lifecycle = Lifecycle.NEW
    executions: int = 0
    key: Hashable | None = None

    def __repr__(self):
        outs = render_params(self.outs) if self.outs is not None else "?"
        return (f"inv#{self.id}(txn={self.txn} {self.obj}.{self.op}"
                f"{render_params(self.ins)}->{outs} {self.lifecycle.value})")


class PrivateCall(NamedTuple):
    """An (op, ins) pair naming a private operation to run; used for
    translation targets and inverses before they become invocations."""
    op: str
    ins: tuple[Value, ...]

    def __repr__(self):
        return f"{self.op}{render_params(self.ins)}"


@dataclass(frozen=True)
class TranslationRule:
    """Maps a region of a public op's in-parameter space to a private call.

    null=True marks the NULL direct operation: public outs are computed by
    `outs` from the in-params and the object is never involved. Otherwise
    `target` builds the private call and `outs` (if the public op returns
    anything) projects the private out-params to the public ones.
    """
    public_op: str
    when: Callable[[tuple[Value, ...]], bool]
    null: bool = False
    target: Callable[[tuple[Value, ...]], PrivateCall] | None = None
    outs: Callable[..., tuple[Value, ...]] | None = None
    note: str = ""


def identity_rule(op: str) -> TranslationRule:
    """The rule of a public op that is its own private op: the same call,
    answered with its private outs."""
    return TranslationRule(op, when=lambda ins: True,
                           target=lambda ins, op=op: PrivateCall(op, ins),
                           outs=lambda ins, pouts: pouts)


@dataclass(frozen=True)
class InverseRule:
    """Selects the undo for one executed private operation.

    `when` sees (ins, outs) of the executed operation. null=True declares the
    inverse NULL (nothing to undo); otherwise `target` builds the inverse
    private call from the same (ins, outs).
    """
    op: str
    when: Callable[[tuple[Value, ...], tuple[Value, ...]], bool]
    null: bool = False
    target: Callable[[tuple[Value, ...], tuple[Value, ...]], PrivateCall] | None = None
    note: str = ""


class Translation(NamedTuple):
    """Result of translating one public call."""
    rule: TranslationRule
    call: PrivateCall | None          # None iff NULL direct
    public_outs: tuple[Value, ...] | None   # set iff NULL direct

    @property
    def null(self) -> bool:
        return self.call is None


# apply signature: (state, op, ins) -> (new_state, outs)
ApplyFn = Callable[[Any, str, tuple[Value, ...]], tuple[Any, tuple[Value, ...]]]


@dataclass(frozen=True)
class AdtSpec:
    """Complete description of one abstract data type.

    `apply` is the pure-functional reference semantics of the private
    operations; the monitor, the validator and the oracles all execute
    through it, so there is exactly one definition of what an op does.
    `enumerate_states` and `probe_calls` bound the domains the brute-force
    validator sweeps.

    `translation_by_op[public_op]` and `inverses_by_op[op]` hold the rules
    of one op, in rule order; only those can match a call of that op.
    `translated` is `translate_public`'s memo: each call translated so
    far, mapped to its `Translation`. `inverted` is `determine_inverse`'s:
    each executed call's `(op, ins, outs)` so far, mapped to its inverse
    call, or to None for a NULL inverse.

    `conflict_key(op, ins)`, if declared, names what a private call touches:
    two calls with distinct keys, neither None, commute whatever the state
    and their results, and neither can deduce the other's answer. The
    monitor then tests an incoming op only against live ops under its own
    key and under None; `validate.check_keys` sweeps the claim. A None key
    means the call may conflict with anything.
    """
    name: str
    public_ops: dict[str, OpSig]
    private_ops: dict[str, OpSig]
    translation: tuple[TranslationRule, ...]
    inverses: tuple[InverseRule, ...]
    tables: "Any"                      # CommutTables; kept loose to avoid an import cycle
    apply: ApplyFn
    initial_state: Any
    parse_state: Callable[[str], Any]
    render_state: Callable[[Any], str]
    enumerate_states: Callable[[int], Iterable[Any]]
    probe_calls: Callable[[int], Sequence[PrivateCall]]
    probe_public_calls: Callable[[int], Sequence[PublicCall]]
    conflict_key: Callable[[str, tuple[Value, ...]], Hashable | None] | None = None
    translation_by_op: dict[str, tuple[TranslationRule, ...]] = field(
        init=False, repr=False, compare=False)
    inverses_by_op: dict[str, tuple[InverseRule, ...]] = field(
        init=False, repr=False, compare=False)
    translated: dict[PublicCall, Translation] = field(
        init=False, repr=False, compare=False)
    inverted: dict[tuple, PrivateCall | None] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        # derived here, so `dataclasses.replace` rebuilds them with the rules
        # and starts empty memos
        object.__setattr__(self, "translation_by_op",
                           _by_op(self.translation, attrgetter("public_op")))
        object.__setattr__(self, "inverses_by_op",
                           _by_op(self.inverses, attrgetter("op")))
        object.__setattr__(self, "translated", {})
        object.__setattr__(self, "inverted", {})


def _by_op(rules, op_of) -> dict[str, tuple]:
    """The rules grouped by op, each group in rule order."""
    grouped: dict[str, list] = {}
    for r in rules:
        grouped.setdefault(op_of(r), []).append(r)
    return {op: tuple(rs) for op, rs in grouped.items()}


def _check_ins(spec: AdtSpec, op: str, ins: tuple[Value, ...], table: dict[str, OpSig]):
    if op not in table:
        raise UnknownOp(f"{spec.name} has no operation {op}")
    sig = table[op]
    if len(ins) != len(sig.ins):
        raise ArityMismatch(
            f"{spec.name}.{op} takes {len(sig.ins)} in-params, got {len(ins)}")
    for got, want in zip(ins, sig.ins):
        if got.tag is not want:
            raise TagMismatch(
                f"{spec.name}.{op} expects {want.value}, got {got.tag.value} "
                f"({got!r})")


def check_public_ins(spec: AdtSpec, call: PublicCall):
    _check_ins(spec, call.op, call.ins, spec.public_ops)


def check_private_ins(spec: AdtSpec, call: PrivateCall):
    _check_ins(spec, call.op, call.ins, spec.private_ops)


def check_outs(spec: AdtSpec, op: str, outs: tuple[Value, ...]):
    sig = spec.private_ops[op]
    if len(outs) != len(sig.outs):
        raise ArityMismatch(
            f"{spec.name}.{op} produces {len(sig.outs)} out-params, got {len(outs)}")
    for got, want in zip(outs, sig.outs):
        # UNIT stands for "no value in this slot" and is always admissible.
        if got.tag is not want and got.tag is not _UNIT:
            raise TagMismatch(
                f"{spec.name}.{op} out-param should be {want.value}, "
                f"got {got.tag.value}")


def translate_public(spec: AdtSpec, call: PublicCall) -> Translation:
    """Resolve a public call to its private call or to a NULL direct op.

    Exactly one rule may match any well-formed call; rule conditions must
    partition the in-parameter space (the validator sweeps this). State is
    deliberately unavailable here.

    The answer is a function of the spec's rules and the call alone, so it
    is kept in `spec.translated` under the call and computed once per
    distinct call. A call that raises is not kept, and raises every time.
    The call is a dict key, so its `ins` must be a tuple, as `PublicCall`
    declares; every caller in the package builds one.
    """
    tr = spec.translated.get(call)
    if tr is not None:
        return tr
    check_public_ins(spec, call)
    matches = [r for r in spec.translation_by_op.get(call.op, ())
               if r.when(call.ins)]
    if not matches:
        raise NoRuleMatches(f"no translation rule matches {spec.name}.{call!r}")
    if len(matches) > 1:
        notes = ", ".join(m.note or "?" for m in matches)
        raise FrameworkError(
            f"translation rules overlap for {spec.name}.{call!r}: {notes}")
    rule = matches[0]
    if rule.null:
        outs = rule.outs(call.ins) if rule.outs else ()
        tr = Translation(rule, None, outs)
    else:
        target = rule.target(call.ins)
        check_private_ins(spec, target)
        tr = Translation(rule, target, None)
    spec.translated[call] = tr
    return tr


def public_outs_from_private(rule: TranslationRule, ins: tuple[Value, ...],
                             private_outs: tuple[Value, ...]) -> tuple[Value, ...]:
    """Project an executed private op's outs to the public caller's view."""
    if rule.outs is None:
        return ()
    return rule.outs(ins, private_outs)


# what `inverted.get` returns for a call not yet kept; None is an answer
_MISS = object()


def determine_inverse(spec: AdtSpec, op: str, ins: tuple[Value, ...],
                      outs: tuple[Value, ...]) -> PrivateCall | None:
    """Pick the inverse of an executed private op; None means NULL inverse.

    Must be called only after outs are known: inverse selection is allowed to
    read results (an insert that reported AlreadyIn has nothing to undo).

    The answer is a function of the spec's rules and `(op, ins, outs)`
    alone, so it is kept in `spec.inverted` under that triple and selected
    once per distinct executed call. A call that raises is not kept.
    """
    key = (op, ins, outs)
    inverse = spec.inverted.get(key, _MISS)
    if inverse is not _MISS:
        return inverse
    matches = [r for r in spec.inverses_by_op.get(op, ()) if r.when(ins, outs)]
    if not matches:
        raise NoRuleMatches(
            f"no inverse rule matches {spec.name}.{op}{render_params(ins)}"
            f"->{render_params(outs)}")
    if len(matches) > 1:
        notes = ", ".join(m.note or "?" for m in matches)
        raise FrameworkError(f"inverse rules overlap for {spec.name}.{op}: {notes}")
    rule = matches[0]
    if rule.null:
        inverse = None
    else:
        inverse = rule.target(ins, outs)
        check_private_ins(spec, inverse)
    spec.inverted[key] = inverse
    return inverse
