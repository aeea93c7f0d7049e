"""Workload files: declarative inputs for the simulator.

Line-oriented, whitespace-tokenized, order-significant:

    object <name> <adt> [<literal>]
    txn <name>
      op <object> <OP> [<arg> ...]
    end <commit|abort>
    schedule seed <N> steps <M>
    schedule steps <txn> [<txn> ...]

Blank lines and lines starting with '#' are ignored. Initial-state literals
are single tokens in each type's own syntax (stack "a,b" bottom to top, set
"a,b", rationals "5" or "-3/2", booleans "true"/"false"); omitting the
literal means the type's default initial state. Exactly one schedule line is
required: seeded random interleaving with a step cap, or an explicit token
list naming which transaction advances one quantum at a time.

A workload's declarations are frozen, slotted dataclasses. Each distinct
step is one live object: `make_step` and `parse_workload` build every
`OpStep` through one table keyed by `(obj, op, ins)`, so the thousands of
steps a corpus holds share the few hundred distinct ones, and a copy or a
pickle of a step is rebuilt through that table too. Its `ins` are Values,
themselves one object per `(tag, payload)`, so a key hashes and compares by
identity. Like the Value tables, the step table never evicts. A step keeps
no argument text: `render_workload` renders each argument with
`values.render`, which is the canonical form (a parsed `4/2` is written
`2`, and `-0` is written `0`), so every generated workload renders as the
generator wrote it.

Each object literal is parsed once per type: `initial_state` and the
parser's validation go through `core.parse_literal`, which keeps the state
in `AdtSpec.parsed`, keyed by the literal. A parsed state is immutable (a
tuple, a frozenset, a number or a bool), so every run of the literal may
share it. The set and stack parsers intern each item string, so the
literals in the memo that share an item share one string object.
"""

from __future__ import annotations

from dataclasses import dataclass

from .adts import UnknownAdt, get_adt
from .core import FrameworkError, parse_literal
from .values import Value, parse_token, render


class WorkloadError(FrameworkError):
    def __init__(self, line_no: int, msg: str):
        super().__init__(f"line {line_no}: {msg}")
        self.line_no = line_no


@dataclass(frozen=True, slots=True)
class ObjectDecl:
    name: str
    adt: str
    literal: str | None = None


@dataclass(frozen=True, slots=True)
class OpStep:
    """One op of a txn; build it with `make_step`, which returns the one
    step for its fields."""
    obj: str
    op: str
    ins: tuple[Value, ...]

    def __reduce__(self):
        # rebuilt through the table, so a copy is the interned step
        return make_step, (None, self.obj, self.op, self.ins)


@dataclass(frozen=True, slots=True)
class TxnDecl:
    name: str
    steps: tuple[OpStep, ...]
    terminal: str   # "commit" | "abort"


@dataclass(frozen=True, slots=True)
class RandomSchedule:
    seed: int
    max_steps: int


@dataclass(frozen=True, slots=True)
class ExplicitSchedule:
    tokens: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class Workload:
    objects: tuple[ObjectDecl, ...]
    txns: tuple[TxnDecl, ...]
    schedule: RandomSchedule | ExplicitSchedule


# every step built so far, keyed by its fields (see the module docstring)
_STEPS: dict[tuple[str, str, tuple[Value, ...]], OpStep] = {}


def make_step(spec, obj_name: str, op: str, ins: tuple[Value, ...]) -> OpStep:
    """The one step for `(obj_name, op, ins)`; `ins` must be a tuple.
    `spec` is not read."""
    key = (obj_name, op, ins)
    step = _STEPS.get(key)
    if step is None:
        step = _STEPS[key] = OpStep(obj_name, op, ins)
    return step


def initial_state(decl: ObjectDecl):
    spec = get_adt(decl.adt)
    if decl.literal is None:
        return spec.initial_state
    return parse_literal(spec, decl.literal)


def parse_workload(text: str) -> Workload:
    objects: list[ObjectDecl] = []
    txns: list[TxnDecl] = []
    names: set[str] = set()       # the txns declared so far
    schedule, schedule_line = None, 0
    adts_by_obj = {}
    cur_name = None
    cur_steps: list[OpStep] = []
    cur_line = 0

    def fail(n, msg):
        raise WorkloadError(n, msg)

    for n, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tok = line.split()
        head = tok[0]

        if head == "op":
            if cur_name is None:
                fail(n, "op outside a txn block")
            if len(tok) < 3:
                fail(n, "op needs an object and an operation name")
            obj_name, op = tok[1], tok[2]
            if obj_name not in adts_by_obj:
                fail(n, f"unknown object {obj_name!r}")
            spec = adts_by_obj[obj_name]
            if op not in spec.public_ops:
                fail(n, f"{spec.name} has no public operation {op!r}")
            want = spec.public_ops[op].ins
            args = tok[3:]
            if len(args) != len(want):
                fail(n, f"{op} takes {len(want)} argument(s), got {len(args)}")
            try:
                ins = tuple(parse_token(tag, a) for tag, a in zip(want, args))
            except ValueError as exc:
                fail(n, str(exc))
            cur_steps.append(make_step(spec, obj_name, op, ins))
            continue

        if head == "end":
            if cur_name is None:
                fail(n, "end outside a txn block")
            if len(tok) != 2 or tok[1] not in ("commit", "abort"):
                fail(n, "end takes exactly one of: commit, abort")
            txns.append(TxnDecl(cur_name, tuple(cur_steps), tok[1]))
            cur_name, cur_steps = None, []
            continue

        if cur_name is not None:
            fail(n, f"expected op/end inside txn block, got {head!r}")

        if head == "object":
            if len(tok) not in (3, 4):
                fail(n, "object takes a name, a type and an optional literal")
            name, adt = tok[1], tok[2]
            if name in adts_by_obj:
                fail(n, f"object {name!r} declared twice")
            try:
                spec = get_adt(adt)
            except UnknownAdt as exc:
                fail(n, str(exc))
            literal = tok[3] if len(tok) == 4 else None
            if literal is not None:
                try:
                    parse_literal(spec, literal)
                except ValueError as exc:
                    fail(n, str(exc))
            objects.append(ObjectDecl(name, adt, literal))
            adts_by_obj[name] = spec
            continue

        if head == "txn":
            if len(tok) != 2:
                fail(n, "txn takes exactly a name")
            if tok[1] in names:
                fail(n, f"txn {tok[1]!r} declared twice")
            names.add(tok[1])
            cur_name, cur_steps, cur_line = tok[1], [], n
            continue

        if head == "schedule":
            if schedule is not None:
                fail(n, "more than one schedule line")
            schedule_line = n
            if len(tok) >= 2 and tok[1] == "seed":
                if len(tok) != 5 or tok[3] != "steps":
                    fail(n, "expected: schedule seed <N> steps <M>")
                try:
                    seed, steps = int(tok[2]), int(tok[4])
                except ValueError:
                    fail(n, "seed and steps must be integers")
                if steps <= 0:
                    fail(n, "steps must be positive")
                schedule = RandomSchedule(seed, steps)
            elif len(tok) >= 2 and tok[1] == "steps":
                if len(tok) < 3:
                    fail(n, "explicit schedule needs at least one txn name")
                schedule = ExplicitSchedule(tuple(tok[2:]))
            else:
                fail(n, "expected: schedule seed <N> steps <M> "
                        "or schedule steps <txn> ...")
            continue

        fail(n, f"unrecognized directive {head!r}")

    if cur_name is not None:
        raise WorkloadError(cur_line, f"txn {cur_name!r} never reached its end line")
    if schedule is None:
        raise WorkloadError(len(text.splitlines()) + 1, "missing schedule line")
    if isinstance(schedule, ExplicitSchedule):
        for name in schedule.tokens:
            if name not in names:
                raise WorkloadError(schedule_line, f"schedule names unknown txn {name!r}")
    return Workload(tuple(objects), tuple(txns), schedule)


def render_workload(w: Workload) -> str:
    lines = []
    for o in w.objects:
        lines.append(f"object {o.name} {o.adt}"
                     + (f" {o.literal}" if o.literal is not None else ""))
    for t in w.txns:
        lines.append(f"txn {t.name}")
        for s in t.steps:
            lines.append(f"  op {s.obj} {s.op}"
                         + "".join(" " + render(v) for v in s.ins))
        lines.append(f"end {t.terminal}")
    if isinstance(w.schedule, RandomSchedule):
        lines.append(f"schedule seed {w.schedule.seed} steps {w.schedule.max_steps}")
    else:
        lines.append("schedule steps " + " ".join(w.schedule.tokens))
    return "".join(line + "\n" for line in lines)
