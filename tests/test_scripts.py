"""Smoke runs of the example scripts, which nothing else imports."""

import json
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


def test_linkage_scale_runs(tmp_path):
    done = _run_script(
        "linkage_scale.py", "--sizes", "60,120", "--repeats", "1", "--trials", "2", "--out", str(tmp_path)
    )
    assert done.returncode == 0, done.stderr
    result = json.loads((tmp_path / "BENCH_linkage.json").read_text(encoding="utf-8"))
    assert [(s["mechanism"], s["n"]) for s in result["searches"]] == [
        ("mdav", 60), ("dp_microdata", 60), ("mdav", 120), ("dp_microdata", 120)
    ]
    assert (result["run"]["n"], result["run"]["trials"]) == (120, 2)
    refused = _run_script("linkage_scale.py", "--sizes", "60", "--out", str(REPO / "bench_out"))
    assert refused.returncode == 2 and not (REPO / "bench_out").exists()
