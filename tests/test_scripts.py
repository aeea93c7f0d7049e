"""The measuring scripts under scripts/ run and report consistent figures."""

import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(*args):
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_code_lines_total_is_the_sum_of_its_module_rows():
    *modules, (total, label) = [line.split()
                                for line in run_script("scripts/code_lines.py").splitlines()]
    assert label == "total"
    assert [name for _, name in modules] == sorted(
        str(p.relative_to(ROOT / "src/adtxn")) for p in (ROOT / "src/adtxn").rglob("*.py"))
    assert int(total) == sum(int(n) for n, _ in modules)


def test_held_memory_passes_every_hot_stack_instance():
    out = run_script("scripts/held_memory.py", "hot_stack")
    assert out.startswith("hot_stack seed 20260816: 64 instances")
    assert "after one simulate-and-check pass (0 failed):" in out


def _scaling():
    spec = importlib.util.spec_from_file_location("scaling", ROOT / "scripts/scaling.py")
    scaling = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scaling)
    return scaling


# per family: the sizes N and 2N it is counted at, and for each count the
# exact figures there and a ceiling on the doubling exponent log2(c(2N)/c(N))
LEDGER = json.loads((ROOT / "tests/scaling_ledger.json").read_text())
COUNTS = ("walked", "screened", "searched")


def doubling_exponent(small, large):
    """log2 of a count's growth from N to 2N; a count that stays 0 grows by 0."""
    if small == 0:
        return 0.0 if large == 0 else math.inf
    return math.log2(large / small)


def _check_family(family):
    # each count exact, equal in the run and in its replay, and under its
    # ceiling; a change that moves the deadlock or admission work updates
    # the ledger, and says why when it raises a ceiling
    scaling, entry = _scaling(), LEDGER[family]
    measured = {c: [] for c in COUNTS}
    for n in entry["sizes"]:
        simulated, checked = (s[:len(COUNTS)] for s in
                              scaling.measure(scaling.FAMILIES[family](n)).values())
        assert simulated == checked
        for count, figure in zip(COUNTS, simulated):
            measured[count].append(figure)
    for count in COUNTS:
        assert measured[count] == entry[count]["counts"], count
        assert doubling_exponent(*measured[count]) <= entry[count]["ceiling"], count


def test_scaling_counts_the_five_set_family_exactly():
    _check_family("five-set")


def test_scaling_counts_the_push_chain_exactly():
    # no op waits, and push i reads the i - 1 pushes before it: N(N-1)/2
    _check_family("push chain")


def test_scaling_counts_do_not_depend_on_the_hash_seed():
    script = textwrap.dedent("""\
        import json, sys
        from pathlib import Path
        sys.path.insert(0, "scripts")
        import scaling
        ledger = json.loads(Path("tests/scaling_ledger.json").read_text())
        print(json.dumps({family: [scaling.measure(scaling.FAMILIES[family](n))["simulate"][:3]
                                   for n in entry["sizes"]]
                          for family, entry in ledger.items()}))
        """)
    ledger = {family: [list(pair) for pair in zip(*(entry[c]["counts"] for c in COUNTS))]
              for family, entry in LEDGER.items()}
    for seed in ("0", "1"):
        proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, capture_output=True,
                              text=True, timeout=120, env=dict(os.environ, PYTHONHASHSEED=seed))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == ledger, seed


def test_unreached_lists_the_statements_a_test_file_never_ran():
    *unreached, total = run_script("scripts/unreached.py",
                                   "tests/test_values.py").splitlines()
    never, count = re.fullmatch(r"(\d+) of (\d+) function-body statements never ran",
                                total).groups()
    assert int(never) == len(unreached) < int(count)
    places = [(path, int(line)) for path, line in (u.split(":") for u in unreached)]
    assert places == sorted(places)
    for path, line in places:
        assert (ROOT / path).read_text().splitlines()[line - 1].strip()
    # the values tests never admit an op
    assert any(path == "src/adtxn/monitor.py" for path, _ in places)
