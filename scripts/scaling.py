"""Count the deadlock and admission work of two workload families as they grow.

Usage: python scripts/scaling.py [N]
       (default: N = 250; sizes N, 2N and 4N of each family)

The five-set family: objects o1..o5 of type set, and txns T1..TN, each of
three steps and ending `commit`. One `random.Random(3)` draws, for each
step in order, the object, then the op (INSERT, DELETE or IN), then the
item i0..i49. The schedule is `RandomSchedule(1, 60 * N + 20)`.

The push chain: one empty stack s, and one txn T1 of N steps `PUSH a`,
ending `abort`. The schedule is `RandomSchedule(1, 2 * N + 20)`. No op
ever waits, and each push is admitted against every push before it.

For each family and size the script simulates the workload and then judges
the run with `oracles.check_run`, and prints for each of the two stages:

* walked: the edges `TransactionManager.waits_for_edges` returns, plus one
  per walk;
* screened: `len(obj.live)` summed over the calls of `ManagedObject._screen`,
  the live ops admission reads;
* seconds: the stage's wall time, the wrappers' calls included.

The counts come from wrapping the two methods for the run; nothing under
src/ counts. They are exact and repeat on any host; the times do not.
Exits 1 if `check_run` fails.
"""

import argparse
import random
import sys
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src")]

from adtxn.manager import TransactionManager  # noqa: E402
from adtxn.monitor import ManagedObject  # noqa: E402
from adtxn.oracles import check_run  # noqa: E402
from adtxn.simulate import run_simulated  # noqa: E402
from adtxn.values import item  # noqa: E402
from adtxn.workload import (ObjectDecl, RandomSchedule, TxnDecl,  # noqa: E402
                            Workload, make_step)

OBJECTS = ("o1", "o2", "o3", "o4", "o5")
OPS = ("INSERT", "DELETE", "IN")


def five_sets(n: int) -> Workload:
    rng = random.Random(3)
    txns = []
    for t in range(1, n + 1):
        steps = []
        for _ in range(3):
            obj = rng.choice(OBJECTS)
            op = rng.choice(OPS)
            steps.append(make_step(None, obj, op, (item(f"i{rng.randrange(50)}"),)))
        txns.append(TxnDecl(f"T{t}", tuple(steps), "commit"))
    return Workload(tuple(ObjectDecl(name, "set") for name in OBJECTS), tuple(txns),
                    RandomSchedule(1, 60 * n + 20))


def push_chain(n: int) -> Workload:
    push = make_step(None, "s", "PUSH", (item("a"),))
    return Workload((ObjectDecl("s", "stack"),), (TxnDecl("T1", (push,) * n, "abort"),),
                    RandomSchedule(1, 2 * n + 20))


FAMILIES = {"five-set": five_sets, "push chain": push_chain}


@contextmanager
def counting():
    """Wrap the two counted methods; yields the [walked, screened] tally."""
    tally = [0, 0]
    walk, screen = TransactionManager.waits_for_edges, ManagedObject._screen

    def waits_for_edges(self, root):
        adj = walk(self, root)
        tally[0] += 1 + sum(len(waits) for waits in adj.values())
        return adj

    def _screen(self, inv):
        tally[1] += len(self.live)
        return screen(self, inv)

    TransactionManager.waits_for_edges, ManagedObject._screen = waits_for_edges, _screen
    try:
        yield tally
    finally:
        TransactionManager.waits_for_edges, ManagedObject._screen = walk, screen


def measure(workload: Workload) -> dict[str, tuple[int, int, float]]:
    """{stage: (walked, screened, seconds)} for simulate and check_run of
    `workload`. Raises RuntimeError if `check_run` fails."""
    with counting() as tally:
        t0 = time.perf_counter()
        result = run_simulated(workload)
        simulated = (*tally, time.perf_counter() - t0)
        tally[:] = [0, 0]
        t0 = time.perf_counter()
        stage, verdict = check_run(result)
        checked = (*tally, time.perf_counter() - t0)
    if stage is not None:
        raise RuntimeError(f"check_run fails at {stage}: {verdict.detail}")
    return {"simulate": simulated, "check_run": checked}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("n", nargs="?", type=int, default=250)
    args = parser.parse_args(argv)
    print(f"{'family':<10} {'N':>6} {'stage':<9} {'walked':>12} {'screened':>12} "
          f"{'seconds':>9}")
    for family, build in FAMILIES.items():
        for n in (args.n, 2 * args.n, 4 * args.n):
            try:
                stages = measure(build(n))
            except RuntimeError as exc:
                print(f"{family} N={n}: {exc}")
                return 1
            for stage, (walked, screened, seconds) in stages.items():
                print(f"{family:<10} {n:>6} {stage:<9} {walked:>12,} {screened:>12,} "
                      f"{seconds:>9.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
