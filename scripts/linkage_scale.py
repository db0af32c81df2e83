"""Time the linkage search at several table sizes and write BENCH_linkage.json.

For each size n, builds the benchmark's people-like table (perfbench/gen.py)
with n rows, releases it by MDAV (k=5, every QI) and by dp_microdata
(epsilon=1 on the numeric QIs), and times ``attacks._nearest_vectors`` of each
release against its table: the best of --repeats calls. Then times one
``reporting.run`` of dp_microdata at the largest size with --trials linkage
draws, and records the sha256 of its attack_linkage.json. Inputs, run
artifacts and BENCH_linkage.json go to --out, which must lie outside the
repository.

    python3 scripts/linkage_scale.py --out /tmp/linkage_bench
    python3 scripts/linkage_scale.py --sizes 200 --repeats 1 --trials 2 --out /tmp/smoke
"""

import argparse
import hashlib
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "perfbench"))

import gen  # noqa: E402

from sdckit import RunConfig, dp_microdata_release, mdav_microaggregate, run  # noqa: E402
from sdckit.attacks import _nearest_vectors  # noqa: E402
from sdckit.microdata import read_table  # noqa: E402


def write_people(directory: Path, n: int, seed: int, numeric_only: bool) -> tuple[str, str]:
    """The people table with n rows as a csv and its schema; returns both paths."""
    directory.mkdir(parents=True, exist_ok=True)
    cols = gen.people_columns(np.random.default_rng([seed, n]), n)
    if numeric_only:
        cols = {c: cols[c] for c in ("pid", "age", "height", "income")}
    gen.write_csv(directory / "people.csv", cols)
    gen.write_json(directory / "people.schema.json", gen.people_schema(cols["pid"], numeric_only))
    return str(directory / "people.csv"), str(directory / "people.schema.json")


def time_search(release_table, table, repeats: int) -> tuple[float, int]:
    """Best wall time of ``repeats`` searches, and the release's distinct vectors."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        _, _, starts, _, _ = _nearest_vectors(release_table, table)
        best = min(best, time.perf_counter() - start)
    return best, int(starts.size - 1)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", default="1000,5000,20000", help="comma-separated table sizes")
    ap.add_argument("--repeats", type=int, default=3, help="searches timed per release (best kept)")
    ap.add_argument("--trials", type=int, default=20, help="linkage draws of the dp_microdata run()")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", required=True, help="output directory, outside the repository")
    args = ap.parse_args()

    out = Path(args.out).resolve()
    if out == REPO or REPO in out.parents:
        ap.error(f"--out must lie outside the repository ({REPO})")
    sizes = [int(v) for v in args.sizes.split(",")]

    searches = []
    for n in sizes:
        for mechanism, numeric_only in (("mdav", False), ("dp_microdata", True)):
            data, schema = write_people(out / "inputs" / f"{mechanism}-{n}", n, args.seed, numeric_only)
            table = read_table(data, schema)
            if mechanism == "mdav":
                release = mdav_microaggregate(table, list(table.qi_names), 5)[1]
            else:
                release = dp_microdata_release(table, 1.0, args.seed)
            seconds, vectors = time_search(release.table, table, args.repeats)
            searches.append({"mechanism": mechanism, "n": n, "distinct_vectors": vectors, "search_s": seconds})
            print(f"search {mechanism} n={n} vectors={vectors}: {seconds:.4f} s", flush=True)

    n = max(sizes)
    data, schema = write_people(out / "inputs" / f"dp_microdata-{n}", n, args.seed, True)
    config = RunConfig(
        data_csv=data, schema_json=schema, mechanism="dp_microdata", epsilon=1.0,
        attacks=("linkage",), attack_trials=args.trials, seed=args.seed,
    )
    start = time.perf_counter()
    run(config, out / "run")
    run_s = time.perf_counter() - start
    digest = hashlib.sha256((out / "run" / "attack_linkage.json").read_bytes()).hexdigest()
    print(f"run dp_microdata n={n} trials={args.trials}: {run_s:.3f} s", flush=True)

    result = {
        "host": {"python": platform.python_version(), "numpy": np.__version__, "cpus": os.cpu_count()},
        "seed": args.seed,
        "searches": searches,
        "run": {"mechanism": "dp_microdata", "n": n, "trials": args.trials, "run_s": run_s,
                "attack_linkage_sha256": digest},
    }
    (out / "BENCH_linkage.json").write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
