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
"""

from __future__ import annotations

from dataclasses import dataclass

from .adts import UnknownAdt, get_adt
from .core import FrameworkError
from .values import Value, parse_token, render


class WorkloadError(FrameworkError):
    def __init__(self, line_no: int, msg: str):
        super().__init__(f"line {line_no}: {msg}")
        self.line_no = line_no


@dataclass(frozen=True)
class ObjectDecl:
    name: str
    adt: str
    literal: str | None = None


@dataclass(frozen=True)
class OpStep:
    obj: str
    op: str
    ins: tuple[Value, ...]
    arg_tokens: tuple[str, ...]


@dataclass(frozen=True)
class TxnDecl:
    name: str
    steps: tuple[OpStep, ...]
    terminal: str   # "commit" | "abort"


@dataclass(frozen=True)
class RandomSchedule:
    seed: int
    max_steps: int


@dataclass(frozen=True)
class ExplicitSchedule:
    tokens: tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    objects: tuple[ObjectDecl, ...]
    txns: tuple[TxnDecl, ...]
    schedule: RandomSchedule | ExplicitSchedule


def make_step(spec, obj_name: str, op: str, ins: tuple[Value, ...]) -> OpStep:
    """Build a step programmatically; tokens round-trip through the parser."""
    return OpStep(obj_name, op, ins, tuple(render(v) for v in ins))


def initial_state(decl: ObjectDecl):
    spec = get_adt(decl.adt)
    if decl.literal is None:
        return spec.initial_state
    return spec.parse_state(decl.literal)


def parse_workload(text: str) -> Workload:
    objects: list[ObjectDecl] = []
    txns: list[TxnDecl] = []
    names: set[str] = set()       # the txns declared so far
    schedule = None
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
            cur_steps.append(OpStep(obj_name, op, ins, tuple(args)))
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
                    spec.parse_state(literal)
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
                raise WorkloadError(len(text.splitlines()) + 1,
                                    f"schedule names unknown txn {name!r}")
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
                         + ("".join(" " + a for a in s.arg_tokens)))
        lines.append(f"end {t.terminal}")
    if isinstance(w.schedule, RandomSchedule):
        lines.append(f"schedule seed {w.schedule.seed} steps {w.schedule.max_steps}")
    else:
        lines.append("schedule steps " + " ".join(w.schedule.tokens))
    return "".join(line + "\n" for line in lines)
