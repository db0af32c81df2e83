"""End-to-end orchestration: build a release from a config, verify the
guarantees it claims, attack it, score utility, account the privacy budget,
and write a deterministic artifact directory.

Artifacts carry no timestamps and all randomness descends from the config
seed, so identical configs produce byte-identical outputs.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .accounting import BudgetLedger
from .attacks import (
    AttackReport,
    attribute_inference_attack,
    downcoding_attack,
    linkage_attack,
)
from .confmodels import (
    CATEGORICAL_UNIFORM,
    ORDERED_NUMERIC,
    ClassValues,
    emd_rows,
    verify_t_closeness,
)
from .dp import Query, answer_query, dp_microdata_release
from .errors import NonNumeric, UnknownAttribute
from .kanon import (
    anonymize_generalization,
    mdav_microaggregate,
    mdav_partition,
    minimal_generalization,
    sse_totals,
    verify_k_anonymity,
)
from .microdata import (
    MicrodataTable,
    as_table,
    json_dumps,
    read_hierarchies,
    read_table,
    value_codes,
    write_release,
    write_text,
)
from .probkanon import PERMUTE_MODES, anatomize, cluster_and_permute, verify_probabilistic_k
from .seeds import derive_seed

MECHANISMS = (
    "mdav",
    "cluster_and_permute",
    "anatomy",
    "generalization",
    "minimal_generalization",
    "dp_microdata",
)


# --------------------------------------------------------------------------
# utility scoring
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class UtilityReport:
    sse_raw: float
    sse_standardized: float
    marginal_distances: Mapping[str, float]
    query_errors: Mapping[str, dict]
    n_original: int
    n_release: int

    def to_json(self) -> dict:
        return {
            "sse_raw": self.sse_raw,
            "sse_standardized": self.sse_standardized,
            "marginal_distances": dict(self.marginal_distances),
            "query_errors": dict(self.query_errors),
            "n_original": self.n_original,
            "n_release": self.n_release,
        }


def _marginal_distance(original: MicrodataTable, released: MicrodataTable, name: str) -> float:
    support, codes = value_codes([original, released], name)
    ground = ORDERED_NUMERIC if support.dtype == float else CATEGORICAL_UNIFORM
    m = len(support)
    counts = np.bincount(np.concatenate([codes[0], codes[1] + m]), minlength=2 * m)
    return float(emd_rows((counts[:m] / codes[0].size)[None], counts[m:] / codes[1].size, ground)[0])


def utility_report(
    original: MicrodataTable,
    release,
    qi_attributes: Sequence[str] | None = None,
    queries: Sequence[Query] | None = None,
) -> UtilityReport:
    """Information loss of a release relative to the original table.

    Reports squared masking error (raw and z-scored), one marginal distance
    per quasi-identifier (ordered transport distance for numeric columns,
    total variation otherwise), and errors on an optional query workload.
    Permutation-style releases preserve marginals exactly, so their marginal
    distances are exactly zero even when their squared error is large. An
    original table or a release without rows raises ValueError.
    """
    rel_table = as_table(release)
    for table, what in ((original, "the original table"), (rel_table, "the release")):
        if not table.n_rows:
            raise ValueError(f"{what} has no rows: there are no marginals to compare")
    qi = list(qi_attributes) if qi_attributes is not None else list(original.qi_names)
    for name in qi:  # raises UnknownAttribute
        original.attribute(name)
        rel_table.attribute(name)
    sse_raw, sse_std = sse_totals(original, rel_table, qi)
    marginals = {name: float(_marginal_distance(original, rel_table, name)) for name in qi}
    query_errors: dict[str, dict] = {}
    for q in queries or ():
        true = answer_query(original, q)
        entry: dict = {"true": true}
        try:
            got = answer_query(rel_table, q)
            entry["released"] = got
            entry["abs_error"] = abs(got - true)
            entry["rel_error"] = abs(got - true) / max(1.0, abs(true))
        except (TypeError, ValueError, NonNumeric, UnknownAttribute) as e:
            entry["released"] = None
            entry["note"] = f"query not answerable on the release: {e}"
        query_errors[q.describe()] = entry
    return UtilityReport(
        sse_raw=float(sse_raw),
        sse_standardized=float(sse_std),
        marginal_distances=marginals,
        query_errors=query_errors,
        n_original=original.n_rows,
        n_release=rel_table.n_rows,
    )


# --------------------------------------------------------------------------
# run configuration
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs. The output directory is deliberately not part
    of the config so that two runs of one config stay byte-comparable."""

    data_csv: str
    schema_json: str
    mechanism: str = "mdav"
    k: int = 5
    epsilon: float | None = None
    l_floor: float | None = None
    t_ceiling: float | None = None
    l_variant: str = "distinct"
    conf_attribute: str | None = None
    hierarchies_json: str | None = None
    attacks: tuple[str, ...] = ("linkage",)
    # Monte Carlo draws of the linkage attack and of the probabilistic-k check,
    # used only for dp_microdata and permute_mode="per_attribute" (other releases
    # are scored in closed form); the check bounds a per-record maximum, which
    # needs many draws before its Wilson band tightens below the allowed slack
    attack_trials: int = 20
    verify_trials: int = 12000
    permute_mode: str = "vector"
    max_suppression_fraction: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.mechanism not in MECHANISMS:
            raise ValueError(f"unknown mechanism {self.mechanism!r}; expected one of {MECHANISMS}")
        if self.permute_mode not in PERMUTE_MODES:
            raise ValueError(f"unknown permutation mode {self.permute_mode!r}; expected one of {PERMUTE_MODES}")

    def to_json(self) -> dict:
        doc = dataclasses.asdict(self)
        doc["attacks"] = list(self.attacks)
        return doc

    @staticmethod
    def from_json(doc: Mapping) -> "RunConfig":
        doc = dict(doc)
        doc["attacks"] = tuple(doc.get("attacks", ("linkage",)))
        return RunConfig(**doc)


def _load_inputs(config: RunConfig):
    table = read_table(config.data_csv, config.schema_json)
    hierarchies = read_hierarchies(config.hierarchies_json) if config.hierarchies_json else {}
    return table, hierarchies


def _build_release(config: RunConfig, table: MicrodataTable, hierarchies):
    """Returns (release, factory): a ``seed -> release`` factory where one release cannot
    price the mechanism's randomness (per-attribute permutation, DP noise), else None."""
    qi = list(table.qi_names)
    mech_seed = derive_seed(config.seed, "mechanism")
    if config.mechanism == "mdav":
        _, release = mdav_microaggregate(table, qi, config.k)
        return release, None
    if config.mechanism == "cluster_and_permute":
        partition = mdav_partition(table, qi, config.k)
        factory = lambda s: cluster_and_permute(
            table, qi, config.k, s, mode=config.permute_mode, partition=partition
        )
        return factory(mech_seed), factory if config.permute_mode == "per_attribute" else None
    if config.mechanism == "anatomy":
        partition = mdav_partition(table, qi, config.k)
        return anatomize(table, partition, config.k, mech_seed), None
    if config.mechanism == "generalization":
        release, _scheme = anonymize_generalization(
            table, hierarchies, config.k, max_suppression_fraction=config.max_suppression_fraction
        )
        return release, None
    if config.mechanism == "minimal_generalization":
        release, _scheme = minimal_generalization(table, hierarchies, config.k)
        return release, None
    if config.epsilon is None:
        raise ValueError("dp_microdata needs an epsilon")
    factory = lambda s: dp_microdata_release(table, config.epsilon, s)
    return factory(mech_seed), factory


def _run_checks(config: RunConfig, table, release, factory):
    checks: list[tuple[str, bool, str]] = []
    qi = list(table.qi_names)
    if config.mechanism in ("mdav", "generalization", "minimal_generalization"):
        rel_qi = [n for n in qi if n in release.table.names]
        holds, counts = verify_k_anonymity(release, rel_qi, config.k)
        min_class = min(counts.values()) if counts else 0
        checks.append(("k_anonymity", holds, f"min_class={min_class} k={config.k}"))
    elif config.mechanism == "cluster_and_permute":
        report = verify_probabilistic_k(
            factory or release,
            table,
            config.k,
            trials=config.verify_trials,
            rng_seed=derive_seed(config.seed, "attack", 1),
        )
        detail = (
            f"max_record_rate={report.max_record_rate:.6g}"
            f" ucb={report.wilson_interval[1]:.6g}"
            f" bound={report.bound + report.slack:.6g}"
        )
        checks.append(("probabilistic_k", report.passed, detail))
    elif config.mechanism == "anatomy":
        smallest = int(release.partition.sizes.min())
        checks.append(("group_size", smallest >= config.k, f"min_group={smallest} k={config.k}"))

    conf = config.conf_attribute
    if conf and (config.l_floor is not None or config.t_ceiling is not None):
        if release.partition is None:
            checks.append(("diversity", False, "release carries no class structure"))
        else:
            conf_table, classes = release.class_table(conf)
            if config.l_floor is not None:
                worst = float(ClassValues.of(conf_table, conf).l_diversities(classes, config.l_variant).min())
                checks.append(
                    ("l_diversity", worst >= config.l_floor, f"worst_l={worst:.6g} floor={config.l_floor:.6g}")
                )
            if config.t_ceiling is not None:
                holds, worst_t = verify_t_closeness(conf_table, classes, conf, config.t_ceiling)
                checks.append(
                    ("t_closeness", holds, f"worst_emd={worst_t:.6g} ceiling={config.t_ceiling:.6g}")
                )
    return checks


def run_attack(
    name: str, release, table: MicrodataTable, *, factory=None, trials: int = 1, seed: int = 0,
    conf_attribute: str | None = None, hierarchies=None,
) -> tuple[AttackReport | None, str | None]:
    """One attack on one release, as ``run()`` and ``sdckit attack`` run it: ``(report,
    remark or None)``, or ``(None, why it was skipped)``. Linkage attacks ``factory``
    (a ``seed -> release`` mechanism drawn ``trials`` times from streams of ``seed``)
    if given, else the release, whose rates are exact and need neither."""
    if name == "linkage":
        rng_seed = derive_seed(seed, "attack", 0)
        return linkage_attack(factory or release, table, trials=trials, rng_seed=rng_seed), None
    if name == "attribute_inference":
        if not conf_attribute:
            return None, "attribute_inference skipped: no confidential attribute configured"
        if release.partition is None:
            return None, "attribute_inference skipped: release carries no class structure"
        report = attribute_inference_attack(release, conf_attribute, table)
        unscored = table.n_rows - report.trials
        return report, f"attribute_inference: {unscored} suppressed records not scored" if unscored else None
    if name == "downcoding":
        if release.provenance.mechanism != "minimal_generalization":
            return None, "downcoding skipped: release did not come from the minimal recoder"
        if not hierarchies:
            return None, "downcoding skipped: no hierarchies given"
        return downcoding_attack(release, hierarchies), None
    return None, f"{name} skipped: not runnable in single-release mode"


def _evaluate(config: RunConfig, table: MicrodataTable, hierarchies):
    """Build, check, attack and score one release: everything ``run()`` writes
    and ``sweep`` tabulates. Returns (release, checks, attack reports, notes,
    utility report, ledger)."""
    release, factory = _build_release(config, table, hierarchies)
    checks = _run_checks(config, table, release, factory)
    attacked = [
        (name, *run_attack(name, release, table, trials=config.attack_trials, seed=config.seed, factory=factory,
                           conf_attribute=config.conf_attribute, hierarchies=hierarchies))
        for name in config.attacks
    ]
    reports = {name: report for name, report, _ in attacked if report is not None}
    notes = [note for _, _, note in attacked if note]
    utility = utility_report(table, release)

    ledger = BudgetLedger()
    if config.mechanism == "dp_microdata":
        ledger.record_dp("dp_microdata", config.epsilon, notes=f"seed={config.seed}")
    else:
        ledger.record_syntactic(config.mechanism, notes=f"k={config.k}")
    return release, checks, reports, notes, utility, ledger


def run(config: RunConfig, outdir: str | Path) -> int:
    """Execute one configured pipeline and write its artifact directory.

    Returns 0 when every verification check passes, 1 when at least one
    fails. Input problems raise (the CLI maps those to exit code 2).
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    table, hierarchies = _load_inputs(config)
    release, checks, attack_reports, attack_notes, utility, ledger = _evaluate(config, table, hierarchies)
    budget = ledger.compose()

    artifacts: list[Path] = []
    write_text(outdir / "config.json", json_dumps(config.to_json()))
    artifacts.append(outdir / "config.json")

    artifacts += write_release(release, outdir)

    for name, report in sorted(attack_reports.items()):
        path = outdir / f"attack_{name}.json"
        write_text(path, json_dumps(report.to_json()))
        artifacts.append(path)
    write_text(outdir / "utility.json", json_dumps(utility.to_json()))
    artifacts.append(outdir / "utility.json")
    write_text(outdir / "ledger.jsonl", ledger.to_jsonl())
    artifacts.append(outdir / "ledger.jsonl")

    all_passed = all(ok for _, ok, _ in checks)
    lines = [
        f"mechanism={config.mechanism} k={config.k} epsilon={config.epsilon} seed={config.seed}",
        f"rows={table.n_rows} qi={','.join(table.qi_names)}",
    ]
    for name, ok, detail in checks:
        lines.append(f"check {name}: {'PASS' if ok else 'FAIL'} {detail}")
    for name, report in sorted(attack_reports.items()):
        lines.append(
            f"attack {name}: rate={report.success_rate:.6g}"
            f" wilson=[{report.wilson[0]:.6g},{report.wilson[1]:.6g}]"
            f" baseline={report.baseline if report.baseline is None else format(report.baseline, '.6g')}"
        )
    for note in attack_notes:
        lines.append(f"note: {note}")
    max_marginal = max(utility.marginal_distances.values()) if utility.marginal_distances else 0.0
    lines.append(
        f"utility: sse_raw={utility.sse_raw:.6g}"
        f" sse_standardized={utility.sse_standardized:.6g}"
        f" max_marginal_distance={max_marginal:.6g}"
    )
    eps_text = "undefined" if budget.epsilon is None or not budget.defined else format(budget.epsilon, ".6g")
    warn_text = "; ".join(budget.warnings) if budget.warnings else "none"
    lines.append(f"budget: epsilon={eps_text} delta={budget.delta:.6g} warnings={warn_text}")
    lines.append(f"result: {'PASS' if all_passed else 'FAIL'}")
    write_text(outdir / "summary.txt", "\n".join(lines) + "\n")
    artifacts.append(outdir / "summary.txt")

    manifest = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(artifacts, key=lambda p: p.name)
    }
    write_text(outdir / "manifest.json", json_dumps(manifest))
    return 0 if all_passed else 1


# --------------------------------------------------------------------------
# parameter sweeps
# --------------------------------------------------------------------------


def sweep(
    config: RunConfig,
    parameter: str,
    values: Sequence,
    outdir: str | Path | None = None,
) -> list[dict]:
    """Risk-utility frontier: per parameter value, the numbers of a ``run()`` at that
    value (linkage added to its attacks if missing): linkage rate, bound and baseline,
    SSE, each other attack's rate, each check's PASS, composed epsilon and result."""
    if parameter not in ("k", "epsilon"):
        raise ValueError("sweep parameter must be 'k' or 'epsilon'")
    if "linkage" not in config.attacks:
        config = dataclasses.replace(config, attacks=("linkage", *config.attacks))
    table, hierarchies = _load_inputs(config)
    rows = []
    for value in values:
        cfg = dataclasses.replace(config, **{parameter: int(value) if parameter == "k" else float(value)})
        _, checks, reports, _, utility, ledger = _evaluate(cfg, table, hierarchies)
        linkage = reports["linkage"]
        row = {parameter: value, "linkage_rate": linkage.success_rate, "linkage_ucb": linkage.wilson[1],
               "baseline": linkage.baseline, "sse_raw": utility.sse_raw, "sse_standardized": utility.sse_standardized}
        row.update((f"{name}_rate", r.success_rate) for name, r in sorted(reports.items()) if name != "linkage")
        row.update((f"{name}_pass", ok) for name, ok, _ in checks)
        budget = ledger.compose()
        row["budget_epsilon"] = budget.epsilon if budget.defined else None
        row["result_pass"] = all(ok for _, ok, _ in checks)
        rows.append(row)
    if outdir is not None:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        write_text(outdir / "sweep.json", json_dumps(rows))
        header = list(dict.fromkeys(chain([parameter], *rows)))
        csv_lines = [",".join(header)]
        for row in rows:
            csv_lines.append(",".join("" if row.get(h) is None else format(row[h], ".10g") for h in header))
        write_text(outdir / "sweep.csv", "\r\n".join(csv_lines) + "\r\n")
    return rows
