"""Utility scoring and the end-to-end run/sweep pipeline with its artifact
directory contract."""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sdckit import (
    AttributeSchema,
    CategoricalKind,
    GeneralizationHierarchy,
    NumericKind,
    Query,
    RunConfig,
    UnknownAttribute,
    cluster_and_permute,
    mdav_microaggregate,
    run,
    sweep,
    utility_report,
)
from sdckit.microdata import (
    hierarchy_to_json,
    make_table,
    schema_to_descriptor,
    serialize_table,
)

from conftest import build_numeric_table, build_people_table


# -- utility report ---------------------------------------------------------------


def test_permutation_release_preserves_marginals_exactly(numeric_table):
    release = cluster_and_permute(numeric_table, ["a", "b", "c"], k=5, rng_seed=1)
    report = utility_report(
        numeric_table,
        release,
        queries=[Query("count", predicate=None), Query("mean", "a"), Query("sum", "b")],
    )
    assert all(d == 0.0 for d in report.marginal_distances.values())
    assert report.sse_raw > 0.0  # rows moved even though marginals did not
    for entry in report.query_errors.values():
        assert entry["abs_error"] == pytest.approx(0.0, abs=1e-9)


def test_microaggregation_sse_and_mean_preservation(numeric_table):
    _, release = mdav_microaggregate(numeric_table, ["a", "b", "c"], 5)
    report = utility_report(numeric_table, release, queries=[Query("mean", "a"), Query("max", "a")])
    assert report.sse_raw > 0.0
    assert report.n_original == report.n_release == 30
    # centroid replacement preserves each column's mean exactly
    assert report.query_errors["mean:a"]["abs_error"] == pytest.approx(0.0, abs=1e-12)
    assert report.query_errors["max:a"]["abs_error"] > 0.0


def test_utility_report_notes_unanswerable_queries():
    schema = (AttributeSchema("x", "quasi_identifier", NumericKind(1, 10)),)
    table = make_table(schema, {"x": [1.0, 1.0, 2.0, 6.0, 9.0]})
    from sdckit import minimal_generalization

    h = GeneralizationHierarchy.from_breakpoints("x", 1, 10, [[6]])
    release, _ = minimal_generalization(table, {"x": h}, k=2)
    report = utility_report(table, release, queries=[Query("sum", "x")])
    entry = report.query_errors["sum:x"]
    assert entry["released"] is None
    assert "not answerable" in entry["note"]
    # canonical text lets level-0 labels match their original numbers
    assert report.marginal_distances["x"] == pytest.approx(0.6, abs=1e-12)


def test_utility_report_notes_a_query_on_a_suppressed_identifier():
    schema = (AttributeSchema("pid", "identifier", NumericKind(0, 99)),
              AttributeSchema("x", "quasi_identifier", NumericKind(0, 10)))
    table = make_table(schema, {"pid": [float(i) for i in range(6)], "x": [1.0, 2.0, 2.0, 5.0, 7.0, 9.0]})
    release = cluster_and_permute(table, ["x"], k=3, rng_seed=0)
    entry = utility_report(table, release, queries=[Query("sum", "pid")]).query_errors["sum:pid"]
    assert entry["true"] == 15.0 and entry["released"] is None
    assert entry["note"] == "query not answerable on the release: attribute 'pid' is not in the table schema"


def test_utility_report_rejects_missing_columns(numeric_table):
    release = cluster_and_permute(numeric_table, ["a"], k=5, rng_seed=0)
    with pytest.raises(UnknownAttribute):
        utility_report(numeric_table, release, qi_attributes=["nope"])


def test_utility_report_names_an_empty_table(numeric_table):
    empty = numeric_table.take([])
    with pytest.raises(ValueError, match="the release has no rows"):
        utility_report(numeric_table, empty)
    with pytest.raises(ValueError, match="the original table has no rows"):
        utility_report(empty, empty)


# -- run config -------------------------------------------------------------------


def test_run_config_round_trip():
    cfg = RunConfig(
        data_csv="d.csv",
        schema_json="s.json",
        mechanism="anatomy",
        k=3,
        attacks=("linkage", "attribute_inference"),
        conf_attribute="diagnosis",
    )
    again = RunConfig.from_json(json.loads(json.dumps(cfg.to_json())))
    assert again == cfg
    with pytest.raises(ValueError):
        RunConfig(data_csv="d", schema_json="s", mechanism="magic")
    with pytest.raises(ValueError, match="unknown permutation mode 'bogus'"):
        RunConfig(data_csv="d", schema_json="s", permute_mode="bogus")


# -- full runs --------------------------------------------------------------------


def _write_inputs(tmp_path, table, name="data"):
    data = tmp_path / f"{name}.csv"
    data.write_bytes(serialize_table(table))
    schema = tmp_path / f"{name}.schema.json"
    schema.write_text(json.dumps(schema_to_descriptor(table.schema)), encoding="utf-8")
    return str(data), str(schema)


EXPECTED_ARTIFACTS = {
    "config.json",
    "release.csv",
    "release.provenance.json",
    "attack_linkage.json",
    "utility.json",
    "ledger.jsonl",
    "summary.txt",
    "manifest.json",
}


def test_run_mdav_writes_complete_artifact_directory(tmp_path):
    data, schema = _write_inputs(tmp_path, build_people_table(seed=4, n=30))
    cfg = RunConfig(data_csv=data, schema_json=schema, mechanism="mdav", k=5, attack_trials=5)
    rc = run(cfg, tmp_path / "out")
    assert rc == 0
    names = {p.name for p in (tmp_path / "out").iterdir()}
    assert names == EXPECTED_ARTIFACTS

    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert set(manifest) == EXPECTED_ARTIFACTS - {"manifest.json"}
    for name, digest in manifest.items():
        assert hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest() == digest

    summary = (tmp_path / "out" / "summary.txt").read_text()
    assert "check k_anonymity: PASS" in summary
    assert summary.rstrip().endswith("result: PASS")
    assert "budget: epsilon=undefined" in summary  # syntactic mechanism


def test_run_is_deterministic(tmp_path):
    data, schema = _write_inputs(tmp_path, build_people_table(seed=4, n=30))
    cfg = RunConfig(data_csv=data, schema_json=schema, mechanism="mdav", k=4, attack_trials=4)
    run(cfg, tmp_path / "one")
    run(cfg, tmp_path / "two")
    for p in sorted((tmp_path / "one").iterdir()):
        assert p.read_bytes() == (tmp_path / "two" / p.name).read_bytes(), p.name


def test_run_anatomy_artifacts_and_checks(tmp_path):
    data, schema = _write_inputs(tmp_path, build_people_table(seed=4, n=30))
    cfg = RunConfig(
        data_csv=data,
        schema_json=schema,
        mechanism="anatomy",
        k=5,
        conf_attribute="diagnosis",
        l_floor=2.0,
        attacks=("linkage", "attribute_inference"),
        attack_trials=3,
    )
    rc = run(cfg, tmp_path / "out")
    assert rc == 0
    names = {p.name for p in (tmp_path / "out").iterdir()}
    assert {"release_qi.csv", "release_conf.csv", "attack_attribute_inference.json"} <= names
    assert "release.csv" not in names
    summary = (tmp_path / "out" / "summary.txt").read_text()
    assert "check group_size: PASS" in summary
    assert "check l_diversity:" in summary


NO_NUMPY_MA = """
import json, sys
from pathlib import Path
from sdckit import RunConfig, load_table, read_release, run

data, schema, anatomy_dir, out = sys.argv[1:]
load_table(Path(data).read_bytes(), json.loads(Path(schema).read_text(encoding="utf-8")))
cfg = RunConfig(data_csv=data, schema_json=schema, mechanism="mdav", k=5, conf_attribute="diagnosis",
                attacks=("linkage", "attribute_inference"), attack_trials=3)
assert run(cfg, out) == 0
assert read_release(anatomy_dir).conf_table is not None
assert "numpy.ma" not in sys.modules, "numpy.ma was imported"
"""


def test_tables_runs_and_anatomy_reads_never_import_numpy_ma(tmp_path):
    # numpy 2.4's plain np.unique(x) imports numpy.ma, which costs every
    # process 13-23 ms; a fresh interpreter shows whether any path pays it
    data, schema = _write_inputs(tmp_path, build_people_table(seed=4, n=30))
    anatomy = RunConfig(data_csv=data, schema_json=schema, mechanism="anatomy", k=5,
                        conf_attribute="diagnosis", attack_trials=3)
    assert run(anatomy, tmp_path / "anatomy") == 0
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", NO_NUMPY_MA, data, schema, str(tmp_path / "anatomy"), str(tmp_path / "mdav")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_run_scores_attribute_inference_on_published_records_only(tmp_path):
    schema = (
        AttributeSchema("age", "quasi_identifier", NumericKind(0, 99)),
        AttributeSchema("diagnosis", "confidential", CategoricalKind(("flu", "cold"))),
    )
    ages = [21.0, 22.0, 23.0, 24.0, 25.0, 26.0, 27.0, 28.0, 95.0]
    table = make_table(schema, {"age": ages, "diagnosis": ["flu", "cold"] * 4 + ["flu"]})
    data, schema_path = _write_inputs(tmp_path, table)
    h = GeneralizationHierarchy.from_breakpoints("age", 0, 99, [[10, 20, 30, 40, 50, 60, 70, 80, 90]])
    hpath = tmp_path / "hier.json"
    hpath.write_text(json.dumps([hierarchy_to_json(h)]), encoding="utf-8")
    cfg = RunConfig(
        data_csv=data,
        schema_json=schema_path,
        mechanism="generalization",
        k=4,
        hierarchies_json=str(hpath),
        max_suppression_fraction=0.2,
        conf_attribute="diagnosis",
        attacks=("attribute_inference",),
    )
    assert run(cfg, tmp_path / "out") == 0
    report = json.loads((tmp_path / "out" / "attack_attribute_inference.json").read_text())
    assert report["trials"] == 8
    assert 8 not in {r["row_id"] for r in report["details"]["per_record"]}
    summary = (tmp_path / "out" / "summary.txt").read_text()
    assert "note: attribute_inference: 1 suppressed records not scored" in summary


def test_run_flags_failed_checks_with_exit_one(tmp_path):
    # constant secret: no class can reach two distinct values
    table = build_people_table(seed=4, n=20)
    constant = table.with_column("diagnosis", ["flu"] * 20)
    data, schema = _write_inputs(tmp_path, constant)
    cfg = RunConfig(
        data_csv=data,
        schema_json=schema,
        mechanism="mdav",
        k=5,
        conf_attribute="diagnosis",
        l_floor=2.0,
        attack_trials=2,
    )
    rc = run(cfg, tmp_path / "out")
    assert rc == 1
    summary = (tmp_path / "out" / "summary.txt").read_text()
    assert "check l_diversity: FAIL" in summary
    assert summary.rstrip().endswith("result: FAIL")


def test_run_dp_microdata_accounts_budget(tmp_path):
    data, schema = _write_inputs(tmp_path, build_numeric_table(seed=7, n=10))
    cfg = RunConfig(
        data_csv=data, schema_json=schema, mechanism="dp_microdata", epsilon=2.0, attack_trials=3
    )
    rc = run(cfg, tmp_path / "out")
    assert rc == 0
    summary = (tmp_path / "out" / "summary.txt").read_text()
    assert "budget: epsilon=2" in summary
    assert "empirical check required" in summary  # epsilon above 1
    ledger = (tmp_path / "out" / "ledger.jsonl").read_text()
    assert json.loads(ledger.splitlines()[0])["epsilon"] == 2.0

    with pytest.raises(ValueError):
        run(RunConfig(data_csv=data, schema_json=schema, mechanism="dp_microdata"), tmp_path / "x")


def test_run_minimal_generalization_with_downcoding(tmp_path):
    xs = (AttributeSchema("x", "quasi_identifier", NumericKind(1, 10)),)
    table = make_table(xs, {"x": [1.0, 1.0, 2.0, 6.0, 9.0]})
    data, schema = _write_inputs(tmp_path, table)
    h = GeneralizationHierarchy.from_breakpoints("x", 1, 10, [[6]])
    hpath = tmp_path / "hier.json"
    hpath.write_text(json.dumps([hierarchy_to_json(h)]), encoding="utf-8")
    cfg = RunConfig(
        data_csv=data,
        schema_json=schema,
        mechanism="minimal_generalization",
        k=2,
        hierarchies_json=str(hpath),
        attacks=("downcoding",),
    )
    rc = run(cfg, tmp_path / "out")
    assert rc == 0
    report = json.loads((tmp_path / "out" / "attack_downcoding.json").read_text())
    assert report["success_rate"] == 1.0


def test_run_notes_skipped_attacks(tmp_path):
    data, schema = _write_inputs(tmp_path, build_numeric_table(seed=1, n=8))
    cfg = RunConfig(
        data_csv=data,
        schema_json=schema,
        mechanism="mdav",
        k=4,
        attacks=("linkage", "downcoding", "membership_inference"),
        attack_trials=2,
    )
    rc = run(cfg, tmp_path / "out")
    assert rc == 0
    summary = (tmp_path / "out" / "summary.txt").read_text()
    assert "note: downcoding skipped" in summary
    assert "note: membership_inference skipped" in summary


def test_run_cluster_and_permute_verifies_probabilistic_k(tmp_path):
    data, schema = _write_inputs(tmp_path, build_numeric_table(seed=7, n=10))
    cfg = RunConfig(
        data_csv=data,
        schema_json=schema,
        mechanism="cluster_and_permute",
        k=5,
        attack_trials=5,
        verify_trials=8000,
    )
    rc = run(cfg, tmp_path / "out")
    assert rc == 0
    summary = (tmp_path / "out" / "summary.txt").read_text()
    assert "check probabilistic_k: PASS" in summary


# -- sweeps -----------------------------------------------------------------------


def test_sweep_over_k_writes_frontier(tmp_path):
    data, schema = _write_inputs(tmp_path, build_numeric_table(seed=3, n=24))
    cfg = RunConfig(data_csv=data, schema_json=schema, mechanism="mdav", attack_trials=4)
    rows = sweep(cfg, "k", [2, 6], outdir=tmp_path / "sweep")
    assert [r["k"] for r in rows] == [2, 6]
    assert all({"linkage_rate", "sse_raw", "baseline"} <= set(r) for r in rows)
    assert rows[0]["sse_raw"] <= rows[1]["sse_raw"]  # coarser groups mask more

    on_disk = json.loads((tmp_path / "sweep" / "sweep.json").read_text())
    assert on_disk == rows
    csv_bytes = (tmp_path / "sweep" / "sweep.csv").read_bytes()
    assert csv_bytes.count(b"\r\n") == 3  # header plus one line per value
    assert csv_bytes.startswith(b"k,linkage_rate,")

    with pytest.raises(ValueError):
        sweep(cfg, "l_floor", [1, 2])


def _summary_numbers(path):
    """Every number and verdict of a summary.txt, keyed as a sweep row keys them."""
    found = {}
    for line in path.read_text().splitlines():
        head, _, rest = line.partition(": ")
        fields = dict(f.split("=", 1) for f in rest.split() if "=" in f)
        if head.startswith("check "):
            found[f"{head[6:]}_pass"] = rest.startswith("PASS")
        elif head == "attack linkage":
            found["linkage_rate"] = fields["rate"]
            found["linkage_ucb"] = fields["wilson"].strip("[]").split(",")[1]
            found["baseline"] = fields["baseline"]
        elif head.startswith("attack "):
            found[f"{head[7:]}_rate"] = fields["rate"]
        elif head == "utility":
            found["sse_raw"], found["sse_standardized"] = fields["sse_raw"], fields["sse_standardized"]
        elif head == "budget":
            found["budget_epsilon"] = None if fields["epsilon"] == "undefined" else fields["epsilon"]
        elif head == "result":
            found["result_pass"] = rest == "PASS"
    return found


@pytest.mark.parametrize(
    "table, fields, parameter, values",
    [
        (
            build_people_table(seed=2, n=36),
            dict(mechanism="mdav", conf_attribute="diagnosis", l_floor=2.0, t_ceiling=0.4,
                 attacks=("linkage", "attribute_inference")),
            "k",
            [3, 5],
        ),
        (build_people_table(seed=2, n=36), dict(mechanism="cluster_and_permute"), "k", [2, 5]),
        (build_numeric_table(seed=2, n=36), dict(mechanism="dp_microdata", epsilon=1.0), "epsilon", [0.5, 4.0]),
    ],
    ids=["mdav", "cluster_and_permute", "dp_microdata"],
)
def test_each_sweep_row_is_the_summary_of_a_run_at_that_value(tmp_path, table, fields, parameter, values):
    data, schema = _write_inputs(tmp_path, table)
    cfg = RunConfig(data_csv=data, schema_json=schema, attack_trials=4, seed=3, **fields)
    rows = sweep(cfg, parameter, values)
    assert [row[parameter] for row in rows] == values
    for value, row in zip(values, rows):
        out = tmp_path / f"run_{value}"
        code = run(dataclasses.replace(cfg, **{parameter: value}), out)
        summary = _summary_numbers(out / "summary.txt")
        assert set(row) == {parameter, *summary}
        assert summary["result_pass"] == (code == 0)
        for key, expected in summary.items():
            got = row[key]
            assert (got if isinstance(got, bool) or got is None else format(got, ".6g")) == expected, key
