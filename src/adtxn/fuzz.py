"""Randomized workloads driven through the full oracle pipeline.

Every run is reproducible: per-run seeds are derived from the master seed by
integer arithmetic, the workload is generated from that seed, and the seed
is printed with any failure together with a greedily minimized workload
text. Re-running the text through `check` reproduces the failure.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .adts import builtin_names, get_adt
from .simulate import run_simulated
from .oracles import check_run
from .values import Tag, Value, boolean, item, rational
from .workload import (ObjectDecl, OpStep, RandomSchedule, TxnDecl, Workload,
                       make_step, render_workload)

ITEMS = ("a", "b", "c")
_ITEM, _RATIONAL, _BOOLEAN = Tag.ITEM, Tag.RATIONAL, Tag.BOOLEAN


class ShrinkError(AssertionError):
    """A shrunk workload passed the pipeline that it failed while being
    shrunk, so the pipeline is not deterministic. Raised rather than
    asserted so the check holds under `python -O`."""


def _random_state(rng: random.Random, adt: str):
    if adt == "stack":
        return tuple(rng.choice(ITEMS[:2]) for _ in range(rng.randint(0, 3)))
    if adt == "set":
        return frozenset(x for x in ITEMS if rng.random() < 0.5)
    if adt == "real":
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    if adt == "boolean":
        return rng.random() < 0.5
    raise AssertionError(adt)


def _random_arg(rng: random.Random, tag: Tag) -> Value:
    if tag is _ITEM:
        return item(rng.choice(ITEMS))
    if tag is _RATIONAL:
        # includes 0 and 1 so NULL translations come up regularly
        return rational(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
    if tag is _BOOLEAN:
        return boolean(rng.random() < 0.5)
    raise AssertionError(tag)


def generate_workload(rng: random.Random, adts=None,
                      txns_range=(2, 4), ops_range=(1, 5)) -> Workload:
    adts = list(adts) if adts else builtin_names()
    objects = []
    for i in range(rng.randint(1, 3)):
        adt = rng.choice(adts)
        spec = get_adt(adt)
        state = _random_state(rng, adt)
        objects.append(ObjectDecl(f"o{i + 1}", adt, spec.render_state(state)))
    txns = []
    total_ops = 0
    for t in range(rng.randint(*txns_range)):
        steps = []
        for _ in range(rng.randint(*ops_range)):
            decl = rng.choice(objects)
            spec = get_adt(decl.adt)
            op = rng.choice(sorted(spec.public_ops))
            ins = tuple(_random_arg(rng, tag) for tag in spec.public_ops[op].ins)
            steps.append(make_step(spec, decl.name, op, ins))
            total_ops += 1
        txns.append(TxnDecl(f"T{t + 1}", tuple(steps), "commit"))
    schedule = RandomSchedule(seed=rng.randrange(2 ** 31),
                              max_steps=20 * total_ops + 20)
    return Workload(tuple(objects), tuple(txns), schedule)


def flip_random_abort(workload: Workload, rng: random.Random) -> Workload:
    """Turn one randomly chosen transaction's commit into an abort."""
    idx = rng.randrange(len(workload.txns))
    txns = tuple(
        TxnDecl(t.name, t.steps, "abort" if i == idx else t.terminal)
        for i, t in enumerate(workload.txns))
    return Workload(workload.objects, txns, workload.schedule)


def run_pipeline(workload: Workload, seed: int | None = None) -> tuple[bool, str, str]:
    """(ok, failing stage, detail). Stages: run, then those of
    `oracles.check_run` (replay, then serializability, which also covers
    abort transparency)."""
    try:
        result = run_simulated(workload, seed=seed)
    except Exception as exc:                      # noqa: BLE001 - oracle boundary
        return False, "run", f"{type(exc).__name__}: {exc}"
    stage, verdict = check_run(result)
    return (True, "", "") if stage is None else (False, stage, verdict.detail)


def minimize(workload: Workload, still_fails) -> Workload:
    """Greedy shrink: take the first of `_shrinks` for which the failure
    predicate holds, and start over from it, until none does or the
    predicate has been asked 200 times."""
    budget = 200
    while True:
        for candidate in _shrinks(workload):
            if budget == 0:
                return workload
            budget -= 1
            if still_fails(candidate):
                workload = candidate
                break
        else:
            return workload


def _shrinks(w: Workload):
    """`w` less one whole transaction, each in turn while more than one is
    left, then less one op, each in turn."""
    if len(w.txns) > 1:
        for i in range(len(w.txns)):
            yield Workload(w.objects, w.txns[:i] + w.txns[i + 1:], w.schedule)
    for ti, txn in enumerate(w.txns):
        for si in range(len(txn.steps)):
            shrunk = TxnDecl(txn.name, txn.steps[:si] + txn.steps[si + 1:], txn.terminal)
            yield Workload(w.objects, w.txns[:ti] + (shrunk,) + w.txns[ti + 1:],
                           w.schedule)


@dataclass
class FuzzFailure:
    run_index: int
    seed: int
    stage: str
    detail: str
    workload_text: str


@dataclass
class FuzzReport:
    runs: int
    failures: list[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def derive_seed(master: int, index: int) -> int:
    return master * 1000003 + index * 7919


def fuzz(master_seed: int, runs: int, adts=None, txns_range=(2, 4),
         ops_range=(1, 5), with_abort: bool = False) -> FuzzReport:
    report = FuzzReport(runs=runs)
    for i in range(runs):
        seed = derive_seed(master_seed, i)
        rng = random.Random(seed)
        workload = generate_workload(rng, adts, txns_range, ops_range)
        if with_abort:
            workload = flip_random_abort(workload, rng)
        ok, stage, detail = run_pipeline(workload)
        if ok:
            continue
        workload = minimize(workload, lambda w: not run_pipeline(w)[0])
        ok, stage, detail = run_pipeline(workload)
        if ok:
            raise ShrinkError(f"run {i} (seed {seed}) passed once shrunk")
        report.failures.append(FuzzFailure(
            i, seed, stage, detail, render_workload(workload)))
    return report
