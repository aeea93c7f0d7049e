"""The benchmark's workloads: instance generators and check stages.

Each generator turns the benchmark seed into a list of `Workload`s; the
program under test sees only those. Each check stage judges one
`RunResult` with the repository's own oracles and returns None when every
check passed, or a one-line reason.

* corpus: the acceptance corpus. Pair i is `fuzz.generate_workload` from
  `derive_seed(seed, i)` and its `flip_random_abort` twin, exactly as the
  acceptance tests build their commit and abort corpora; seed 20260816 gives
  those corpora. The check is `fuzz.run_pipeline`'s after the run stage.
* hot_stack: one stack that every transaction uses, all transactions live
  at once. Almost every operation conflicts, so the waits-for graph is large
  and nearly every transaction ends as a deadlock victim.
* commuting: set objects keyed over a wide item universe plus one rational
  counter taking ADDs. Almost every pair of operations commutes, so nearly
  nothing blocks and every admission is tested against the 30-40 executed
  operations each object holds.

hot_stack and commuting are checked by `validate_run` only:
`check_serializable` refuses more than `MAX_PERMUTED_TXNS` (8) committed
transactions, and these instances commit far more.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from adtxn import fuzz, oracles
from adtxn.adts import get_adt
from adtxn.simulate import RunResult
from adtxn.values import item, rational
from adtxn.workload import (ObjectDecl, RandomSchedule, TxnDecl, Workload,
                            make_step)

ACCEPTANCE_SEED = 20260816
CORPUS_PAIRS = 1000

HOT_STACK_INSTANCES = 64
HOT_STACK_TXNS = 50

COMMUTING_INSTANCES = 16
COMMUTING_TXNS = 120
COMMUTING_SETS = 4
COMMUTING_KEYS = 500

OPS_PER_TXN = (2, 4)


def _schedule(rng: random.Random, total_ops: int) -> RandomSchedule:
    # the same step cap fuzz.generate_workload uses
    return RandomSchedule(seed=rng.randrange(2 ** 31),
                          max_steps=20 * total_ops + 20)


def corpus(seed: int) -> list[Workload]:
    instances = []
    for i in range(CORPUS_PAIRS):
        rng = random.Random(fuzz.derive_seed(seed, i))
        workload = fuzz.generate_workload(rng)
        instances += [workload, fuzz.flip_random_abort(workload, rng)]
    return instances


def _hot_stack_instance(rng: random.Random) -> Workload:
    spec = get_adt("stack")
    initial = tuple(rng.choice("ab") for _ in range(rng.randint(0, 3)))
    txns, total = [], 0
    for t in range(HOT_STACK_TXNS):
        steps = []
        for _ in range(rng.randint(*OPS_PER_TXN)):
            op = rng.choice(("PUSH", "POP", "EMPTY", "CLEAR"))
            ins = (item(rng.choice("abc")),) if op == "PUSH" else ()
            steps.append(make_step(spec, "s", op, ins))
        total += len(steps)
        txns.append(TxnDecl(f"T{t + 1}", tuple(steps), "commit"))
    objects = (ObjectDecl("s", "stack", spec.render_state(initial)),)
    return Workload(objects, tuple(txns), _schedule(rng, total))


def hot_stack(seed: int) -> list[Workload]:
    rng = random.Random(f"hot_stack/{seed}")
    return [_hot_stack_instance(rng) for _ in range(HOT_STACK_INSTANCES)]


def _commuting_instance(rng: random.Random) -> Workload:
    sets, real = get_adt("set"), get_adt("real")
    keys = [f"k{i}" for i in range(COMMUTING_KEYS)]
    objects = tuple(
        ObjectDecl(f"s{i + 1}", "set",
                   sets.render_state(frozenset(k for k in keys if rng.random() < 0.5)))
        for i in range(COMMUTING_SETS)) + (ObjectDecl("c", "real", "0"),)
    txns, total = [], 0
    for t in range(COMMUTING_TXNS):
        steps = []
        for _ in range(rng.randint(*OPS_PER_TXN)):
            r = rng.random()
            if r < 0.2:
                amount = rng.choice((-3, -2, -1, 1, 2, 3, 4, 5))
                steps.append(make_step(real, "c", "ADD",
                                       (rational(Fraction(amount)),)))
                continue
            op = "IN" if r < 0.6 else "INSERT" if r < 0.85 else "DELETE"
            obj = f"s{rng.randint(1, COMMUTING_SETS)}"
            steps.append(make_step(sets, obj, op, (item(rng.choice(keys)),)))
        total += len(steps)
        txns.append(TxnDecl(f"T{t + 1}", tuple(steps), "commit"))
    return Workload(objects, tuple(txns), _schedule(rng, total))


def commuting(seed: int) -> list[Workload]:
    rng = random.Random(f"commuting/{seed}")
    return [_commuting_instance(rng) for _ in range(COMMUTING_INSTANCES)]


# -- check stages -------------------------------------------------------------


def check_pipeline(result: RunResult) -> str | None:
    """`fuzz.run_pipeline` from the replay stage on: replay, then
    serializability, then abort transparency where anything aborted."""
    verdict = oracles.validate_run(result)
    if not verdict.ok:
        return "replay: " + verdict.detail
    verdict = oracles.check_serializable(result)
    if not verdict.ok:
        return "serializability: " + verdict.detail
    if any(t.terminal == "abort" for t in result.workload.txns) or \
            result.metrics.victims:
        verdict = oracles.check_abort_transparency(result)
        if not verdict.ok:
            return "transparency: " + verdict.detail
    return None


def check_replay(result: RunResult) -> str | None:
    verdict = oracles.validate_run(result)
    return None if verdict.ok else "replay: " + verdict.detail


@dataclass(frozen=True)
class WorkloadKind:
    generate: Callable[[int], list[Workload]]
    check: Callable[[RunResult], str | None]
    # Rounds in a run: fixed, so that a faster program does not get more
    # passes to take its best times from. Sized so that an untraced run fits
    # in 40 s on a 2-vCPU host running at its slowest (see NOTES.md).
    rounds: int


WORKLOADS = {
    "corpus": WorkloadKind(corpus, check_pipeline, rounds=7),
    "hot_stack": WorkloadKind(hot_stack, check_replay, rounds=6),
    "commuting": WorkloadKind(commuting, check_replay, rounds=7),
}
