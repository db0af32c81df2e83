"""Smoke runs of the example scripts, which nothing else imports."""

import os
import subprocess
import sys
from pathlib import Path


REPO = Path(__file__).resolve().parents[1]


def _run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(REPO / "scripts" / name), *args],
        cwd=REPO,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_worked_instances_runs():
    done = _run_script("worked_instances.py")
    assert done.returncode == 0, done.stderr


def test_risk_utility_sweep_runs(tmp_path):
    done = _run_script(
        "risk_utility_sweep.py", "--n", "60", "--values", "2,3", "--trials", "2", "--outdir", str(tmp_path)
    )
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "sweep.json").exists()
