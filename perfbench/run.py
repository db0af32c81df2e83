"""sdckit benchmark: four seeded workloads over the library's public entry points.

    python3 perfbench/run.py                      # every workload, seed 0, 30 s each
    python3 perfbench/run.py --workload permute_verify --seed 3 --seconds 30 --trace 0

Each repetition of a workload runs in a fresh process (worker.py) on inputs
that gen.py wrote from the seed. Repetitions continue until ``--seconds`` is
used up (at least three). While its timed operations run, each worker samples
the host's speed on a timer (refspeed.py); the repetition's ``wall_s`` and
``setup_s`` are scaled by the mean slowdown of those samples to seconds on the
reference host. The end-to-end metrics are medians over the repetitions.
With ``--trace 1`` untraced and traced repetitions alternate; the traced ones
give per-layer metrics and the pairs give the tracing overhead. The last line
of standard output is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402

WORKLOADS = tuple(gen.PEOPLE_ROWS)
MIN_REPS = 3
MAX_REPS = 40
# no repetition starts, and none may run on, past this many seconds of a run,
# so that a run ends well inside three minutes even for a much slower program
LIMIT_S = 150
WORK = ROOT / ".perfbench_work"

END_TO_END = {  # name -> unit
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "ok_frac": "ratio",
    "right_verdict_frac": "ratio",
}


class WorkerFailed(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(workload: str, seed: int, inputs: Path, out: Path, trace_file: Path | None,
               timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--inputs", str(inputs), "--out", str(out)]
    if trace_file is not None:
        cmd += ["--trace-file", str(trace_file)]
    spawned = time.monotonic_ns()
    try:
        proc = subprocess.run(cmd + ["--spawned-ns", str(spawned)], capture_output=True, text=True,
                              env=_child_env(), timeout=timeout)
    except subprocess.TimeoutExpired as e:
        raise WorkerFailed(f"{workload} repetition did not end within {timeout:.0f} s") from e
    if proc.returncode != 0:
        raise WorkerFailed(f"{workload} worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """All repetitions of one workload; returns the result object for the last line."""
    work = WORK / f"{workload}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "inputs"
    gen.generate(workload, seed, inputs)
    plain, traced = [], []
    rep_times = []
    kinds = (False, True) if trace else (False,)
    start = time.monotonic()
    try:
        while len(rep_times) < MAX_REPS:
            enough = len(traced) >= 2 if trace else len(plain) >= MIN_REPS
            step = statistics.median(rep_times) * len(kinds) if rep_times else 0.0
            elapsed = time.monotonic() - start
            if (enough and elapsed + step > seconds) or (rep_times and elapsed + step > LIMIT_S):
                break
            for tracing in kinds:
                t0 = time.monotonic()
                out = work / f"rep{len(rep_times)}"
                trace_file = None
                if tracing:
                    (WORK / "trace").mkdir(parents=True, exist_ok=True)
                    trace_file = WORK / "trace" / f"{workload}-seed{seed}.jsonl"
                res = run_worker(workload, seed, inputs, out, trace_file,
                                 timeout=max(1.0, LIMIT_S - (time.monotonic() - start)))
                (traced if tracing else plain).append(res)
                shutil.rmtree(out, ignore_errors=True)
                rep_times.append(time.monotonic() - t0)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    (WORK / "digest").mkdir(parents=True, exist_ok=True)
    digest = {"workload": workload, "seed": seed, "outputs": plain[0]["digest"],
              "verdicts": plain[0]["verdicts"], "honest_checks": plain[0]["honest_checks"]}
    (WORK / "digest" / f"{workload}-seed{seed}.json").write_text(
        json.dumps(digest, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    reps = plain + traced
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    verdicts = [v for r in reps for v in r["verdicts"]]
    right = sum(1 for v in verdicts if v["passed"] == v["truth"])
    for r in reps:
        for f in r["failures"]:
            print(f"FAILED {workload}: {f}", file=sys.stderr)

    if trace:
        layers = {name: statistics.median(r["layers"][name] for r in traced) for name in traced[0]["layers"]}
        untraced_wall = statistics.median(at_reference_speed(r, "wall_s") for r in plain)
        traced_wall = statistics.median(at_reference_speed(r, "wall_s") for r in traced)
        layers["trace.overhead_frac"] = (traced_wall - untraced_wall) / untraced_wall
        metrics = {name: {"value": v, "unit": layer_unit(name)} for name, v in sorted(layers.items())}
    else:
        values = {
            "wall_s": statistics.median(at_reference_speed(r, "wall_s") for r in plain),
            "setup_s": statistics.median(at_reference_speed(r, "setup_s") for r in plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "ok_frac": 1.0 - failed / attempted,
            "right_verdict_frac": right / len(verdicts),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    wrong = len(verdicts) - right
    raw = {key: statistics.median(r[key] for r in plain)
           for key in ("wall_s", "setup_s", "probe_s", "probe_samples", "slowdown")}
    print(f"# {workload} seed={seed}: unscaled medians wall_s={raw['wall_s']:.4f} setup_s={raw['setup_s']:.4f}, "
          f"speed samples {raw['probe_samples']:.0f} taking {raw['probe_s']:.4f} s, slowdown {raw['slowdown']:.3f}")
    print(f"# {workload} seed={seed}: {len(plain)} untraced + {len(traced)} traced repetitions, "
          f"{failed} of {attempted} operations and checks failed, "
          f"{wrong} of {len(verdicts)} verdicts wrong ({wrong // len(reps)} per repetition)")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def at_reference_speed(rep: dict, key: str) -> float:
    """A repetition's time in seconds on the reference host.

    The shared host's speed changes by tens of percent within seconds. The
    speed samples ran between the timed operations, so their mean slowdown
    removes most of that change. The samples' own time is taken out of
    ``wall_s`` first. Set-up ran just before and is scaled by the same factor.
    """
    own = rep[key] - rep["probe_s"] if key == "wall_s" else rep[key]
    return own / rep["slowdown"]


def layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last == "self_s":
        return "s"
    if last.endswith("_per_s"):
        return "1/s"
    if last.endswith("_frac"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "sdckit" / "__init__.py").is_file():
        print(f"error: no sdckit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = measure(name, args.seed, args.seconds, bool(args.trace))
            for metric, m in results[name]["metrics"].items():
                print(f"{name} {metric} = {m['value']:.6g} {m['unit']}")
    except WorkerFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
