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


def test_dp_audit_scale_runs(tmp_path):
    # 40000 samples make two sorted runs of 2**15 values and 70000 make three
    done = _run_script("dp_audit_scale.py", "--sizes", "40000,70000", "--repeats", "1", "--out", str(tmp_path))
    assert done.returncode == 0, done.stderr
    result = json.loads((tmp_path / "BENCH_dp_audit.json").read_text(encoding="utf-8"))
    assert [(c["query"], c["samples"]) for c in result["checks"]] == [
        ("count", 40000), ("sum", 40000), ("count", 70000), ("sum", 70000)
    ]
    for check in result["checks"]:
        assert check["epsilon"] == 1.0 and check["check_s"] > 0
        assert check["max_log_ratio"] >= 0 and len(check["per_bin_sha256"]) == 64
    refused = _run_script("dp_audit_scale.py", "--sizes", "40000", "--out", str(REPO / "bench_out"))
    assert refused.returncode == 2 and not (REPO / "bench_out").exists()
