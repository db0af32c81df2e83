"""Time the empirical DP check at several sample sizes and write BENCH_dp_audit.json.

Builds the benchmark's neighbouring pair of tables (perfbench/gen.py: one
numeric column, the larger table holding one extra record at the top of the
domain) and, for each sample size, times one ``empirical_dp_check`` of the
honest Laplace count query (v >= 5) and one of the honest sum query, both at
epsilon=1 and each on its own check seed: the best of --repeats checks. For
each check it records the time, ``max_log_ratio`` and the sha256 of its
``per_bin``, so that runs of two versions of the code can be diffed: equal
hashes mean equal per-bin ratios and allowances. BENCH_dp_audit.json goes to
--out, which must lie outside the repository.

    python3 scripts/dp_audit_scale.py --out /tmp/dp_audit_bench
    python3 scripts/dp_audit_scale.py --sizes 40000 --repeats 1 --out /tmp/smoke
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

from sdckit import (  # noqa: E402
    AttributeSchema,
    NumericKind,
    Predicate,
    Query,
    empirical_dp_check,
    laplace_query_mechanism,
)
from sdckit.microdata import make_table  # noqa: E402

EPSILON = 1.0
QUERIES = {"count": Query("count", predicate=Predicate("v", ">=", 5.0)), "sum": Query("sum", "v")}


def neighbour_tables(seed: int):
    """The benchmark's pair of neighbouring tables, with and without the extra record."""
    schema = (AttributeSchema("v", "confidential", NumericKind(*gen.PAIR_DOMAIN)),)
    with_v, without_v = gen.neighbour_pair(np.random.default_rng(seed))
    return schema, make_table(schema, {"v": with_v}), make_table(schema, {"v": without_v})


def time_check(mechanism, t_with, t_without, size: int, seed: int, repeats: int):
    """Best wall time of ``repeats`` checks, and the last check's result."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        result = empirical_dp_check(mechanism, t_with, t_without, EPSILON, trials=size, seed=seed)
        best = min(best, time.perf_counter() - start)
    return best, result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", default="100000,1000000,4000000", help="comma-separated sample sizes")
    ap.add_argument("--repeats", type=int, default=3, help="checks timed per query and size (best kept)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", required=True, help="output directory, outside the repository")
    args = ap.parse_args()

    out = Path(args.out).resolve()
    if out == REPO or REPO in out.parents:
        ap.error(f"--out must lie outside the repository ({REPO})")
    sizes = [int(v) for v in args.sizes.split(",")]

    schema, t_with, t_without = neighbour_tables(args.seed)
    checks = []
    for size in sizes:
        # one check seed per query: the count and sum mechanisms differ only by an
        # affine map, so on one seed they would bin the same uniforms alike
        for check_seed, (kind, query) in enumerate(QUERIES.items(), start=args.seed * len(QUERIES)):
            mechanism = laplace_query_mechanism(query, schema, EPSILON, n=t_with.n_rows)
            seconds, result = time_check(mechanism, t_with, t_without, size, check_seed, args.repeats)
            digest = hashlib.sha256(json.dumps(result.per_bin).encode("utf-8")).hexdigest()
            checks.append({
                "query": kind, "epsilon": EPSILON, "samples": size, "seed": check_seed, "check_s": seconds,
                "passed": result.passed, "max_log_ratio": result.max_log_ratio, "per_bin_sha256": digest,
            })
            print(f"check {kind} samples={size}: {seconds:.4f} s, max_log_ratio={result.max_log_ratio:.6f}",
                  flush=True)

    result = {
        "host": {"python": platform.python_version(), "numpy": np.__version__, "cpus": os.cpu_count()},
        "seed": args.seed,
        "repeats": args.repeats,
        "checks": checks,
    }
    out.mkdir(parents=True, exist_ok=True)
    (out / "BENCH_dp_audit.json").write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
