"""Measure the memory that the benchmark's workloads hold, and the size of
every table the engine keeps for the life of the process.

Usage: python scripts/held_memory.py [--seed N] [WORKLOAD ...]
       (default: seed 20260816, every workload in bench/workloads.py)

For each workload, in an interpreter of its own so that no table starts
filled, prints:

* the bytes that tracemalloc counts as held by the instances of a first
  set-up (`bench/workloads.py`'s generator at the seed), and by those of a
  second set-up built while the first is still held, as the benchmark
  builds each repeated set-up;
* after one pass that simulates every instance and judges it with the
  workload's check stage, the size of each never-evicted table: the step
  table, each type's literal memo (`AdtSpec.parsed`) with the bytes its
  keys and states hold, each type's `translated` and `inverted` memos, and
  each tag's table of Values (`tag.interned`).

Held bytes count every allocation the set-up leaves alive, the entries it
adds to those tables included; they repeat exactly from run to run. The
literal memo's bytes are `sys.getsizeof` summed over the dict, its keys
and each state with its items, each object once. Exits 1 if a check fails.
"""

import argparse
import gc
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from adtxn.adts import builtin_names, get_adt  # noqa: E402
from adtxn.simulate import run_simulated  # noqa: E402
from adtxn.values import Tag  # noqa: E402
from adtxn.workload import _STEPS  # noqa: E402
from workloads import ACCEPTANCE_SEED, WORKLOADS  # noqa: E402


def held_bytes(build):
    """(what `build()` returns, the traced bytes it leaves held)."""
    gc.collect()
    before = tracemalloc.get_traced_memory()[0]
    built = build()
    gc.collect()
    return built, tracemalloc.get_traced_memory()[0] - before


def deep_size(obj, seen) -> int:
    """`sys.getsizeof` of `obj` and of the items of a tuple, frozenset or
    Fraction in it, each object counted once across `seen`."""
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    size = sys.getsizeof(obj)
    if isinstance(obj, (tuple, frozenset)):
        size += sum(deep_size(x, seen) for x in obj)
    elif isinstance(obj, Fraction):
        size += deep_size(obj.numerator, seen) + deep_size(obj.denominator, seen)
    return size


def measure(name: str, seed: int) -> int:
    kind = WORKLOADS[name]
    tracemalloc.start()
    instances, first = held_bytes(lambda: kind.generate(seed))
    again, second = held_bytes(lambda: kind.generate(seed))
    tracemalloc.stop()
    del again
    failures = 0
    for workload in instances:
        failures += kind.check(run_simulated(workload)) is not None
    steps = sum(len(t.steps) for w in instances for t in w.txns)
    print(f"{name} seed {seed}: {len(instances)} instances, {steps:,} steps")
    print(f"  first set-up holds   {first:12,} bytes")
    print(f"  second set-up holds  {second:12,} bytes")
    print(f"  after one simulate-and-check pass ({failures} failed):")
    print(f"    step table         {len(_STEPS):8,} steps")
    for adt in builtin_names():
        spec = get_adt(adt)
        seen = set()
        memo = sys.getsizeof(spec.parsed) + sum(
            deep_size(k, seen) + deep_size(v, seen) for k, v in spec.parsed.items())
        print(f"    {adt:8}  parsed {len(spec.parsed):5,} literals {memo:10,} bytes"
              f"  translated {len(spec.translated):6,}  inverted {len(spec.inverted):6,}")
    print("    interned  " + "  ".join(f"{tag.value} {len(tag.interned):,}" for tag in Tag))
    return 1 if failures else 0


def main(argv) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=ACCEPTANCE_SEED)
    ap.add_argument("workloads", nargs="*", metavar="WORKLOAD")
    args = ap.parse_args(argv[1:])
    args.workloads = args.workloads or list(WORKLOADS)
    for name in args.workloads:
        if name not in WORKLOADS:
            ap.error(f"unknown workload {name!r} (choose from {', '.join(WORKLOADS)})")
    if len(args.workloads) == 1:
        return measure(args.workloads[0], args.seed)
    status = 0
    for name in args.workloads:
        # a fresh interpreter each, so its first set-up starts from empty tables
        sys.stdout.flush()
        status |= subprocess.run([sys.executable, __file__, "--seed", str(args.seed),
                                  name]).returncode
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
