"""The measuring scripts under scripts/ run and report consistent figures."""

import importlib.util
import re
import subprocess
import sys
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


def test_scaling_counts_the_five_set_family_exactly():
    # (waits-for edges walked plus one per walk, live ops `_screen` read):
    # exact, equal in the run and in its replay, and unmoved by any change
    # that leaves the deadlock and admission work alone
    scaling = _scaling()
    for n, counts in ((250, (3_298, 35_779)), (500, (53_864, 127_919))):
        stages = scaling.measure(scaling.five_sets(n))
        assert [s[:2] for s in stages.values()] == [counts, counts]


def test_scaling_counts_the_push_chain_exactly():
    # no op waits, and push i reads the i - 1 pushes before it: N(N-1)/2
    scaling = _scaling()
    for n, counts in ((500, (0, 124_750)), (1_000, (0, 499_500))):
        stages = scaling.measure(scaling.push_chain(n))
        assert [s[:2] for s in stages.values()] == [counts, counts]


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
