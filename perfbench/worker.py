"""One repetition of one workload, in a fresh process.

Started by run.py with the checkout's ``src`` on PYTHONPATH. Set-up time runs
from the moment the parent spawned this process (``--spawned-ns``, read from
the system-wide monotonic clock) to the first timed operation, so it covers
interpreter start, ``import sdckit`` and loading of the generated inputs.
Prints one JSON line with timings, invariant results, verdicts and, when
traced, per-layer metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import time
from pathlib import Path

import checks
import refspeed

K = 5
SLACK = 0.02
MAX_SUPPRESSION = 0.02
VERIFY_TRIALS = 60
DP_SAMPLES = 1_000_000
DP_EPSILONS = (0.25, 0.5, 1.0, 2.0)


class Workload:
    """Timed operations plus the checks run on their outputs afterwards."""

    def __init__(self):
        self.ops = []  # (name, callable, op attributes)
        self.invariants = []  # (name, callable returning (ok, detail))
        self.verdicts = []  # (name, callable returning sdckit's PASS, truth PASS)
        self.honest = []  # (name, callable returning PASS): truth holds without margin
        self.digests = {}  # name -> callable returning what the digest records

    def op(self, name, fn, **attrs):
        self.ops.append((name, fn, attrs))


def _people(inp: Path) -> tuple[str, str, dict]:
    schema_path = inp / "people.schema.json"
    schema = json.loads(schema_path.read_text(encoding="utf-8"))
    return str(inp / "people.csv"), str(schema_path), schema


def _qi(schema: dict) -> list[str]:
    return [n for n, s in schema.items() if s["role"] == "quasi_identifier"]


def mdav_release(sd, inp: Path, out: Path, seed: int) -> Workload:
    w = Workload()
    data, schema_path, schema = _people(inp)
    cfg = sd.RunConfig(
        data_csv=data, schema_json=schema_path, mechanism="mdav", k=K,
        attacks=("linkage", "attribute_inference"), attack_trials=2,
        conf_attribute="diagnosis", l_floor=2.0, t_ceiling=0.3, seed=seed,
    )
    run_dir = out / "mdav"
    w.op("run.mdav", lambda: sd.run(cfg, run_dir))
    w.invariants += [
        ("manifest", lambda: checks.manifest_matches(run_dir)),
        ("k_anonymity_recount", lambda: checks.k_anonymous(run_dir / "release.csv", _qi(schema), K)),
        ("linkage_bound", lambda: checks.linkage_within_bound(run_dir / "attack_linkage.json", K, SLACK)),
    ]
    w.verdicts.append(("mdav.k_anonymity", lambda: checks.summary_verdicts(run_dir)["k_anonymity"], True))
    w.digests["mdav"] = lambda: checks.digest(run_dir)
    return w


def permute_verify(sd, inp: Path, out: Path, seed: int) -> Workload:
    w = Workload()
    data, schema_path, schema = _people(inp)
    external = sd.load_table(Path(data).read_bytes(), schema)
    qi = list(external.qi_names)
    identity = sd.AnonymizedRelease(
        external.drop_columns(external.identifier_names), None, sd.Provenance("identity")
    )
    cfg = sd.RunConfig(
        data_csv=data, schema_json=schema_path, mechanism="cluster_and_permute", k=K,
        verify_trials=VERIFY_TRIALS, attacks=("linkage",), attack_trials=20, seed=seed,
    )
    run_dir = out / "permute"
    reports = {}

    def verify_identity():
        reports["identity"] = sd.verify_probabilistic_k(
            identity, external, K, trials=VERIFY_TRIALS, rng_seed=seed + 1)

    def verify_small_groups():
        # true per-record linkage rate 1/(k-1) > 1/k + slack: a known-bad control
        partition = sd.mdav_partition(external, qi, K - 1)
        factory = lambda s: sd.cluster_and_permute(external, qi, K - 1, s, partition=partition)
        reports["k_minus_1"] = sd.verify_probabilistic_k(
            factory, external, K, trials=VERIFY_TRIALS, rng_seed=seed + 2)

    w.op("run.cluster_and_permute", lambda: sd.run(cfg, run_dir))
    w.op("verify.identity_control", verify_identity)
    w.op("verify.k_minus_1_control", verify_small_groups)
    w.invariants += [
        ("manifest", lambda: checks.manifest_matches(run_dir)),
        ("qi_multisets", lambda: checks.qi_multisets_preserved(data, run_dir / "release.csv", qi)),
        ("linkage_bound", lambda: checks.linkage_within_bound(run_dir / "attack_linkage.json", K, SLACK)),
    ]
    w.verdicts += [
        ("permute.probabilistic_k", lambda: checks.summary_verdicts(run_dir)["probabilistic_k"], True),
        ("identity_control", lambda: reports["identity"].passed, False),
        ("k_minus_1_control", lambda: reports["k_minus_1"].passed, False),
    ]
    w.digests["permute"] = lambda: checks.digest(run_dir)
    w.digests["controls"] = lambda: {
        name: {"passed": r.passed, "max_record_rate": r.max_record_rate, "ucb": r.wilson_interval[1]}
        for name, r in reports.items()
    }
    return w


def recode_generalization(sd, inp: Path, out: Path, seed: int) -> Workload:
    w = Workload()
    data, schema_path, schema = _people(inp)
    n_rows = len(schema["pid"]["values"])
    gen_cfg = sd.RunConfig(
        data_csv=data, schema_json=schema_path, mechanism="generalization", k=K,
        max_suppression_fraction=MAX_SUPPRESSION, hierarchies_json=str(inp / "people.hierarchies.json"),
        conf_attribute="diagnosis", l_floor=2.0, t_ceiling=0.3, attacks=(), seed=seed,
    )
    desk_k = 2
    desk_cfg = sd.RunConfig(
        data_csv=str(inp / "desk.csv"), schema_json=str(inp / "desk.schema.json"),
        mechanism="minimal_generalization", k=desk_k, hierarchies_json=str(inp / "desk.hierarchies.json"),
        attacks=("downcoding",), seed=seed,
    )
    gen_dir, desk_dir = out / "generalization", out / "minimal"
    w.op("run.generalization", lambda: sd.run(gen_cfg, gen_dir))
    w.op("run.minimal_generalization", lambda: sd.run(desk_cfg, desk_dir))
    w.invariants += [
        ("manifest.generalization", lambda: checks.manifest_matches(gen_dir)),
        ("manifest.minimal", lambda: checks.manifest_matches(desk_dir)),
        ("k_anonymity_recount.generalization",
         lambda: checks.k_anonymous(gen_dir / "release.csv", _qi(schema), K)),
        ("k_anonymity_recount.minimal", lambda: checks.k_anonymous(desk_dir / "release.csv", ["x"], desk_k)),
        ("released_rows", lambda: checks.enough_rows_released(gen_dir / "release.csv", n_rows, MAX_SUPPRESSION)),
        ("downcoding_sound",
         lambda: checks.downcoding_sound(desk_dir / "attack_downcoding.json", inp / "desk.csv")),
    ]
    w.verdicts += [
        ("generalization.k_anonymity", lambda: checks.summary_verdicts(gen_dir)["k_anonymity"], True),
        ("minimal.k_anonymity", lambda: checks.summary_verdicts(desk_dir)["k_anonymity"], True),
    ]
    w.digests["generalization"] = lambda: checks.digest(gen_dir)
    w.digests["minimal"] = lambda: checks.digest(desk_dir)
    return w


def dp_audit(sd, inp: Path, out: Path, seed: int) -> Workload:
    w = Workload()
    pair_schema = json.loads((inp / "pair.schema.json").read_text(encoding="utf-8"))
    t_with = sd.load_table((inp / "pair_with.csv").read_bytes(), pair_schema)
    t_without = sd.load_table((inp / "pair_without.csv").read_bytes(), pair_schema)
    schema = t_with.schema
    queries = {
        "count": sd.Query("count", predicate=sd.Predicate("v", ">=", 5.0)),
        "sum": sd.Query("sum", "v"),
        "mean": sd.Query("mean", "v"),
        "max": sd.Query("max", "v"),
    }
    results = {}

    def dp_check(name, kind, eps, scale_factor):
        check_seed = seed * 1000 + len(w.ops)

        def fn():
            mech = sd.laplace_query_mechanism(
                queries[kind], schema, eps, n=t_with.n_rows, scale_factor=scale_factor)
            results[name] = sd.empirical_dp_check(
                mech, t_with, t_without, eps, trials=DP_SAMPLES, seed=check_seed)
        return fn

    honest = [(kind, eps) for kind in ("count", "sum") for eps in DP_EPSILONS]
    for kind, eps in honest:
        for variant, factor in (("honest", 1.0), ("half_scale", 0.5)):
            name = f"dp_check.{kind}.{eps:g}.{variant}"
            w.op(name, dp_check(name, kind, eps, factor), honest=factor == 1.0)
            if factor == 1.0:
                w.honest.append((name, lambda name=name: results[name].passed))
            else:
                # true loss 2*eps, far beyond eps plus the sampling allowance
                w.verdicts.append((name, lambda name=name: results[name].passed, False))
    for kind in ("mean", "max"):
        name = f"dp_check.{kind}.1.honest"
        w.op(name, dp_check(name, kind, 1.0, 1.0), honest=True)
        w.honest.append((name, lambda name=name: results[name].passed))

    for i, (kind, eps) in enumerate(honest):
        def membership(kind=kind, eps=eps, i=i):
            mech = sd.laplace_query_mechanism(queries[kind], schema, eps)
            results[f"membership.{kind}.{eps:g}"] = sd.membership_inference_attack(
                mech, t_with, t_without, rng_seed=seed + i)
        w.op(f"membership.{kind}.{eps:g}", membership)

    def compose():
        ledger = sd.BudgetLedger()
        for kind, eps in honest:
            ledger.record_dp(f"{kind}@{eps:g}", eps)
        results["ledger"] = ledger.compose()
    w.op("ledger.compose", compose)

    data, schema_path, people_schema = _people(inp)
    cfg = sd.RunConfig(
        data_csv=data, schema_json=schema_path, mechanism="dp_microdata", epsilon=1.0,
        attacks=("linkage",), attack_trials=5, seed=seed,
    )
    run_dir = out / "dp_microdata"
    w.op("run.dp_microdata", lambda: sd.run(cfg, run_dir))

    def ledger_sums():
        got, want = results["ledger"].epsilon, sum(eps for _, eps in honest)
        return abs(got - want) <= 1e-9, f"composed epsilon={got:g} sum={want:g}"

    w.invariants += [
        ("manifest", lambda: checks.manifest_matches(run_dir)),
        ("dp_domains", lambda: checks.inside_domains(run_dir / "release.csv", people_schema)),
        ("ledger_sequential_sum", ledger_sums),
    ]
    w.digests["dp_microdata"] = lambda: checks.digest(run_dir)
    w.digests["dp_checks"] = lambda: {
        name: {"passed": r.passed, "max_log_ratio": r.max_log_ratio}
        for name, r in results.items() if name.startswith("dp_check.")
    }
    w.digests["membership_advantage"] = lambda: {
        name: r.details["advantage"] for name, r in results.items() if name.startswith("membership.")
    }
    return w


WORKLOADS = {
    "mdav_release": mdav_release,
    "permute_verify": permute_verify,
    "recode_generalization": recode_generalization,
    "dp_audit": dp_audit,
}

# The speed samples (refspeed.py) that stand for each workload's kind of work:
# the DP checks spend their time sampling Laplace noise into large arrays; the
# other workloads run Python loops over small numpy calls, dense distances and
# table text.
SPEED_SAMPLES = {
    "mdav_release": ("loop", "pairwise", "text"),
    "permute_verify": ("loop", "pairwise", "text"),
    "recode_generalization": ("loop", "pairwise", "text"),
    "dp_audit": ("laplace",),
}


def _evaluate(fn):
    try:
        return fn(), None
    except Exception as e:  # a check that cannot run counts as failed
        return None, f"{type(e).__name__}: {e}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spawned-ns", type=int, required=True)
    ap.add_argument("--trace-file")
    args = ap.parse_args(argv)

    sd = importlib.import_module("sdckit")
    src = Path(__file__).resolve().parents[1] / "src"
    if not Path(sd.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"sdckit was imported from {sd.__file__}, not from {src}")
    out = Path(args.out)
    workload = WORKLOADS[args.workload](sd, Path(args.inputs), out, args.seed)

    tracer = uninstall = None
    if args.trace_file:
        import spans

        tracer = spans.Tracer()
        uninstall = spans.install(tracer)

    failures = []
    setup_s = (time.monotonic_ns() - args.spawned_ns) / 1e9
    probe = refspeed.SpeedProbe(SPEED_SAMPLES[args.workload])
    start = time.perf_counter()
    with probe:
        for name, fn, attrs in workload.ops:
            idx = tracer.begin_op(name, **attrs) if tracer else None
            try:
                fn()
            except Exception as e:  # an unexpected exception is a failed operation
                failures.append(f"{name}: {type(e).__name__}: {e}")
            finally:
                if tracer:
                    tracer.end_op(idx)
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if uninstall:
        uninstall()

    for name, fn in workload.invariants:
        res, err = _evaluate(fn)
        if err or not res[0]:
            failures.append(f"invariant {name}: {err or res[1]}")
    verdicts = []
    for name, fn, truth in workload.verdicts:
        got, err = _evaluate(fn)
        if err:
            failures.append(f"verdict {name}: {err}")
        verdicts.append({"name": name, "passed": got, "truth": truth})
    honest = {}
    for name, fn in workload.honest:
        got, err = _evaluate(fn)
        if err:
            failures.append(f"honest check {name}: {err}")
        honest[name] = got
    digest = {}
    for name, fn in workload.digests.items():
        got, err = _evaluate(fn)
        digest[name] = got if err is None else {"error": err}

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "probe_s": probe.probe_s,
        "probe_samples": len(probe.samples),
        "slowdown": probe.slowdown(),
        "attempted": len(workload.ops) + len(workload.invariants) + len(verdicts) + len(honest),
        "failed": len(failures),
        "failures": failures,
        "verdicts": verdicts,
        "honest_checks": honest,
        "digest": digest,
    }
    if tracer:
        layers = spans.layer_metrics(tracer.spans)
        layers["trace.wrapped_self_frac"] = layers.pop("trace.wrapped_self_s") / wall_s
        # Self times are stated like wall_s: the speed samples ran inside the
        # spans in proportion to their length, and the host's speed is scaled out.
        scale = (1.0 - probe.probe_s / wall_s) / probe.slowdown()
        for name in layers:
            if name.endswith(".self_s"):
                layers[name] *= scale
            elif name.endswith("_per_s"):
                layers[name] /= scale
        result["layers"] = layers
        tracer.dump(Path(args.trace_file))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
