"""Smoke runs of the example scripts, which nothing else imports."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

from sdckit.reporting import MECHANISMS


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


def test_scale_runs(tmp_path):
    # 40000 samples make two sorted runs of 2**15 values and 70000 make three
    done = _run_script("scale.py", *"--sizes 60,120 --samples 40000,70000 --repeats 1 --out".split(), str(tmp_path))
    assert done.returncode == 0, done.stderr
    result = json.loads((tmp_path / "BENCH_scale.json").read_text(encoding="utf-8"))
    names = list(dict.fromkeys(row["layer"] for row in result["layers"]))
    assert len(names) == 10
    assert [(row["layer"], row["n"]) for row in result["layers"]] == [(name, n) for n in (60, 120) for name in names]
    assert [row["distinct_vectors"] > 0 for row in result["layers"] if "distinct_vectors" in row] == [True] * 4
    assert [row["mechanism"] for row in result["runs"]] == list(MECHANISMS)
    assert result["runs"][-1]["data"] == "numeric-120.csv"
    for row in result["layers"] + result["runs"]:
        assert re.fullmatch("[0-9a-f]{64}", row["sha256"]), row
    checked = [(query, samples) for samples in (40000, 70000) for query in ("count", "sum")]
    assert [(c["query"], c["samples"]) for c in result["checks"]] == checked
    for check in result["checks"]:
        assert check["epsilon"] == 1.0 and check["check_s"] > 0
        assert check["max_log_ratio"] >= 0 and re.fullmatch("[0-9a-f]{64}", check["per_bin_sha256"])


def test_scale_refuses_an_out_inside_the_repo():
    refused = _run_script("scale.py", "--sizes", "60", "--out", str(REPO / "bench_out"))
    assert refused.returncode == 2 and not (REPO / "bench_out").exists()
