"""Time every layer of sdckit at several table sizes and write BENCH_scale.json.

For each size n, writes the benchmark's people table (perfbench/gen.py) with n
rows and its numeric-only variant, and times each row of ``layers`` on them:
the best of --repeats calls, with a sha256 of the output, so that runs of two
versions of the code can be diffed. A layer that raises an SdcError is
recorded with the error's name. Then, on the benchmark's neighbouring tables,
times one ``empirical_dp_check`` of the honest Laplace count query (v >= 5)
and one of the honest sum query at epsilon=1 for each of --samples, each on
its own check seed, recording ``max_log_ratio`` and a sha256 of ``per_bin``.
Last, times one ``reporting.run`` per mechanism at the largest size (see
``runs``) and records the sha256 of its manifest.json. Inputs, run directories
and BENCH_scale.json go to --out, which must lie outside the repository.

    python3 scripts/scale.py --out /tmp/scale_bench
    python3 scripts/scale.py --sizes 60,120 --samples 40000,70000 --repeats 1 --out /tmp/smoke
"""

import argparse
import dataclasses
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
    AttributeSchema, NumericKind, Predicate, Query, RunConfig, SdcError, anonymize_generalization,
    cluster_and_permute, dp_microdata_release, empirical_dp_check, laplace_query_mechanism, load_hierarchies,
    load_table, make_table, mdav_microaggregate, mdav_partition, read_release, run, serialize_table,
    utility_report, verify_probabilistic_k, write_release,
)
from sdckit.attacks import _nearest_vectors  # noqa: E402
from sdckit.microdata import read_table  # noqa: E402
from sdckit.reporting import MECHANISMS  # noqa: E402

K = 5
EPSILON = 1.0
QUERIES = {"count": Query("count", predicate=Predicate("v", ">=", 5.0)), "sum": Query("sum", "v")}


def best_of(fn, repeats: int):
    """Best wall time of ``repeats`` calls of ``fn``, and the last call's output."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        output = fn()
        best = min(best, time.perf_counter() - start)
    return best, output


def digest(*parts, **fields) -> dict:
    """``fields`` plus the sha256 of ``parts``: bytes as they are, arrays by their bytes, the rest as JSON."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else part.tobytes() if isinstance(part, np.ndarray)
                 else json.dumps(part).encode("utf-8"))
    return {"sha256": h.hexdigest(), **fields}


def timed(fn, repeats: int, view) -> dict:
    """``best_of`` as a row: its time and ``view(output)``, or the name of the SdcError raised."""
    try:
        seconds, output = best_of(fn, repeats)
    except SdcError as e:
        return {"error": type(e).__name__}
    return {"seconds": seconds, **view(output)}


def people(n: int, seed: int, numeric_only: bool = False) -> tuple[str, str]:
    """Writes the people table with n rows as a csv and its schema; returns both paths."""
    stem = f"{'numeric' if numeric_only else 'people'}-{n}"
    gen._write_people(Path(), stem, np.random.default_rng([seed, n]), n, numeric_only)
    return f"{stem}.csv", f"{stem}.schema.json"


def layers(n: int, seed: int) -> dict:
    """Layer name -> (thunk, view of its output as row fields) at size n. Linkage is
    searched for an MDAV release (k=5, every QI) of the people table and for a
    dp_microdata release (epsilon=1) of the numeric one. ``verify_probabilistic_k``
    scores one draw of a per_attribute ``cluster_and_permute`` factory on the MDAV
    partition, ``verify_probabilistic_k_vector`` one of a vector-mode one, in which
    every record has an exact twin. ``read_release`` reads the generalization
    release, whose interval labels hold commas, through ``csv.reader``."""
    data, schema = people(n, seed)
    raw, descriptor = Path(data).read_bytes(), json.loads(Path(schema).read_text(encoding="utf-8"))
    table, dp_table = load_table(raw, descriptor), read_table(*people(n, seed, numeric_only=True))
    qi = list(table.qi_names)
    partition, mdav = mdav_microaggregate(table, qi, K)
    dp_release = dp_microdata_release(dp_table, EPSILON, seed)
    hierarchies = load_hierarchies(gen.hierarchies())
    write_release(anonymize_generalization(table, hierarchies, K)[0], f"release-{n}")
    permute = lambda s: cluster_and_permute(table, qi, K, s, mode="per_attribute", partition=partition)
    vector = lambda s: cluster_and_permute(table, qi, K, s, partition=partition)
    search = lambda found: digest(*found, distinct_vectors=int(found[2].size - 1))
    return {
        "load_table": (lambda: load_table(raw, descriptor), lambda t: digest(serialize_table(t))),
        "mdav_partition": (lambda: mdav_partition(table, qi, K), lambda p: digest(p.labels)),
        "nearest_vectors_mdav": (lambda: _nearest_vectors(mdav.table, table), search),
        "nearest_vectors_dp_microdata": (lambda: _nearest_vectors(dp_release.table, dp_table), search),
        "verify_probabilistic_k": (lambda: verify_probabilistic_k(permute, table, K, trials=1, rng_seed=seed),
                                   lambda report: digest(dataclasses.asdict(report))),
        "verify_probabilistic_k_vector": (lambda: verify_probabilistic_k(vector, table, K, trials=1, rng_seed=seed),
                                          lambda report: digest(dataclasses.asdict(report))),
        "anonymize_generalization": (lambda: anonymize_generalization(table, hierarchies, K),
                                     lambda got: digest(serialize_table(got[0].table), got[1].to_json())),
        "utility_report": (lambda: utility_report(table, mdav), lambda report: digest(report.to_json())),
        "serialize_table": (lambda: serialize_table(mdav.table), digest),
        "read_release": (lambda: read_release(f"release-{n}"),
                         lambda release: digest(serialize_table(release.table), release.partition.labels)),
    }


def dp_checks(samples: list[int], seed: int, repeats: int) -> list[dict]:
    schema = (AttributeSchema("v", "confidential", NumericKind(*gen.PAIR_DOMAIN)),)
    with_v, without_v = gen.neighbour_pair(np.random.default_rng(seed))
    t_with, t_without = make_table(schema, {"v": with_v}), make_table(schema, {"v": without_v})
    checks = []
    for size in samples:
        # one check seed per query: the count and sum mechanisms differ only by an
        # affine map, so on one seed they would bin the same uniforms alike
        for check_seed, (kind, query) in enumerate(QUERIES.items(), start=seed * len(QUERIES)):
            mechanism = laplace_query_mechanism(query, schema, EPSILON, n=t_with.n_rows)
            seconds, result = best_of(lambda: empirical_dp_check(
                mechanism, t_with, t_without, EPSILON, trials=size, seed=check_seed), repeats)
            checks.append({
                "query": kind, "epsilon": EPSILON, "samples": size, "seed": check_seed, "check_s": seconds,
                "passed": result.passed, "max_log_ratio": result.max_log_ratio,
                "per_bin_sha256": digest(result.per_bin)["sha256"],
            })
    return checks


def runs(n: int, seed: int) -> dict:
    """Mechanism -> the config of its one run(). The syntactic mechanisms run on the
    people table with linkage, attribute inference on diagnosis, l=2 and t=0.3;
    dp_microdata (epsilon=1) on the numeric table with linkage; the minimal recoder,
    whose budget refuses a people table before its set-up, on the benchmark's 10-row desk table."""
    data, schema = people(n, seed)
    gen.write_json(Path("people.hierarchies.json"), gen.hierarchies())
    gen.generate("recode_generalization", seed, Path("desk"))
    syntactic = dict(data_csv=data, schema_json=schema, hierarchies_json="people.hierarchies.json",
                     attacks=("linkage", "attribute_inference"), conf_attribute="diagnosis",
                     l_floor=2.0, t_ceiling=0.3, seed=seed)
    configs = {m: RunConfig(mechanism=m, **syntactic) for m in ("mdav", "cluster_and_permute", "anatomy",
                                                                  "generalization")}
    configs["minimal_generalization"] = RunConfig(
        "desk/desk.csv", "desk/desk.schema.json", "minimal_generalization",
        hierarchies_json="desk/desk.hierarchies.json", attacks=("linkage", "downcoding"), seed=seed)
    configs["dp_microdata"] = RunConfig(*people(n, seed, numeric_only=True), "dp_microdata", epsilon=EPSILON,
                                        attacks=("linkage",), seed=seed)
    return {mechanism: configs[mechanism] for mechanism in MECHANISMS}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", default="1000,5000,20000", help="comma-separated table sizes")
    ap.add_argument("--samples", default="100000,1000000,4000000", help="comma-separated DP check sample sizes")
    ap.add_argument("--repeats", type=int, default=3, help="calls timed per layer and check (best kept)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", required=True, help="output directory, outside the repository")
    args = ap.parse_args()

    out = Path(args.out).resolve()
    if out == REPO or REPO in out.parents:
        ap.error(f"--out must lie outside the repository ({REPO})")
    sizes = [int(v) for v in args.sizes.split(",")]
    out.mkdir(parents=True, exist_ok=True)
    os.chdir(out)  # the runs' config.json name inputs relative to --out, so manifests do not depend on it

    result = {
        "host": {"python": platform.python_version(), "numpy": np.__version__, "cpus": os.cpu_count()},
        "seed": args.seed, "repeats": args.repeats, "layers": [],
        "checks": dp_checks([int(v) for v in args.samples.split(",")], args.seed, args.repeats), "runs": [],
    }
    for n in sizes:
        for name, (fn, view) in layers(n, args.seed).items():
            result["layers"].append({"layer": name, "n": n, **timed(fn, args.repeats, view)})
            print(json.dumps(result["layers"][-1]), flush=True)
    for mechanism, config in runs(max(sizes), args.seed).items():
        manifest = lambda code: digest(Path(f"run-{mechanism}", "manifest.json").read_bytes(), passed=code == 0)
        row = timed(lambda: run(config, f"run-{mechanism}"), 1, manifest)
        result["runs"].append({"mechanism": mechanism, "data": config.data_csv, **row})
        print(json.dumps(result["runs"][-1]), flush=True)
    Path("BENCH_scale.json").write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
