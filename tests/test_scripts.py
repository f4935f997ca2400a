"""Smoke runs of the scripts under scripts/."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_worked_examples_script_runs():
    assert "all worked examples verified" in run_script("worked_examples.py")


def test_poset_refinement_sweep_counts_the_labeled_posets():
    out = run_script("poset_refinement_sweep.py")
    # 1, 3, 19, 219 labeled posets on 1..4 points (OEIS A001035)
    for n, count in ((1, 1), (2, 3), (3, 19), (4, 219)):
        for q in (2, 3):
            assert f"n={n} q={q}: {count} labeled posets;" in out
