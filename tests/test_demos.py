"""The demos tell their stories by asserting them: the victim choice, the
inverse walk, the deductions and the planted table lie. Each must run to
completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", ["deadlock_and_undo", "deduced_answers",
                                  "table_sweep"])
def test_demo_runs_clean(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{demo}.py")],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
