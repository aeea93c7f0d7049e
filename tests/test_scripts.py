"""The measuring scripts under scripts/ run and report consistent figures."""

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
