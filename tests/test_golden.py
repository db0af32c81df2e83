"""Golden artifacts: the sha256 of each ``run()`` directory's manifest on one
seeded table. The manifest hashes every artifact, so a change to any release,
check, attack report, utility figure or ledger line shows up here. A speed-up
that changes a partition, a tie draw or a random stream fails this test; a
deliberate change to outputs must update the pinned hashes and say why."""

import hashlib
import json

import numpy as np
import pytest

from sdckit import AttributeSchema, CategoricalKind, GeneralizationHierarchy, NumericKind, RunConfig, run
from sdckit.microdata import hierarchy_to_json, make_table, schema_to_descriptor, serialize_table

N = 300
ZIPS = ("43007", "43008", "08001", "08002")
SEXES = ("f", "m")
DIAGNOSES = ("flu", "cancer", "cold", "asthma")


def _golden_table():
    """Integer ages, few zips and two sexes, so QI vectors repeat; four ages
    above 94 sit alone in the finest age band and are the suppression candidates."""
    rng = np.random.default_rng(20240517)
    ages = rng.integers(18, 80, N).astype(float)
    ages[[11, 57, 158, 243]] = [95.0, 96.0, 97.0, 99.0]
    schema = (
        AttributeSchema("pid", "identifier", CategoricalKind(tuple(f"p{i}" for i in range(N)))),
        AttributeSchema("age", "quasi_identifier", NumericKind(0, 100)),
        AttributeSchema("zip", "quasi_identifier", CategoricalKind(ZIPS)),
        AttributeSchema("sex", "quasi_identifier", CategoricalKind(SEXES)),
        AttributeSchema("income", "non_confidential", NumericKind(0, 200000)),
        AttributeSchema("diagnosis", "confidential", CategoricalKind(DIAGNOSES)),
    )
    cols = {
        "pid": [f"p{i}" for i in range(N)],
        "age": ages,
        "zip": rng.choice(ZIPS, N),
        "sex": rng.choice(SEXES, N),
        "income": np.round(rng.uniform(10000, 150000, N), 2),
        "diagnosis": rng.choice(DIAGNOSES, N),
    }
    return make_table(schema, cols)


def _numeric_table(table):
    """pid, age and income, with income a quasi-identifier."""
    schema = (table.attribute("pid"), table.attribute("age"),
              AttributeSchema("income", "quasi_identifier", table.attribute("income").kind))
    return make_table(schema, {a.name: table.columns[a.name] for a in schema})


def _desk_table():
    """Six rows and two quasi-identifiers: small enough for the exhaustive
    minimal recoder, with repeats it can keep and outliers it must generalize."""
    schema = (
        AttributeSchema("pid", "identifier", CategoricalKind(tuple(f"d{i}" for i in range(6)))),
        AttributeSchema("x", "quasi_identifier", NumericKind(1, 10)),
        AttributeSchema("sex", "quasi_identifier", CategoricalKind(SEXES)),
        AttributeSchema("diagnosis", "confidential", CategoricalKind(DIAGNOSES)),
    )
    cols = {
        "pid": [f"d{i}" for i in range(6)],
        "x": [2.0, 2.0, 7.0, 3.0, 9.0, 6.0],
        "sex": ["f", "f", "m", "m", "f", "m"],
        "diagnosis": ["flu", "cold", "flu", "asthma", "cancer", "flu"],
    }
    return make_table(schema, cols)


def _desk_hierarchies():
    x = GeneralizationHierarchy.from_breakpoints("x", 1, 10, [[6]])
    sex = GeneralizationHierarchy.from_tree("sex", {"*": {"f": None, "m": None}})
    return [hierarchy_to_json(h) for h in (x, sex)]


def _hierarchies():
    age = GeneralizationHierarchy.from_breakpoints(
        "age", 0, 100, [[10, 20, 30, 40, 50, 60, 70, 80, 90], [30, 60, 90]]
    )
    zips = GeneralizationHierarchy.from_tree(
        "zip", {"*": {"430**": {"43007": None, "43008": None}, "080**": {"08001": None, "08002": None}}}
    )
    sex = GeneralizationHierarchy.from_tree("sex", {"*": {"f": None, "m": None}})
    return [hierarchy_to_json(h) for h in (age, zips, sex)]


CONFIGS = {
    "mdav": dict(mechanism="mdav", k=5),
    "cluster_and_permute": dict(mechanism="cluster_and_permute", k=5, verify_trials=30, attack_trials=5),
    "anatomy": dict(mechanism="anatomy", k=5, conf_attribute="diagnosis"),
    "generalization": dict(
        mechanism="generalization", k=5, hierarchies_json="hier.json", max_suppression_fraction=0.02
    ),
    "dp_microdata": dict(
        mechanism="dp_microdata", epsilon=1.5, attack_trials=5,
        data_csv="numeric.csv", schema_json="numeric.schema.json",
    ),
    "minimal_generalization": dict(
        mechanism="minimal_generalization", k=2, hierarchies_json="desk_hier.json",
        data_csv="desk.csv", schema_json="desk.schema.json", attacks=("linkage", "downcoding"),
    ),
}

GOLDEN = {
    "mdav": "8da6d73e4691f087d333a6427d61f83dfb3a2b4a4e64a1af880f06405e2af691",
    "cluster_and_permute": "47b50fd388717b7e4270190993968270e1541f409d3d273ef9f2f0e84670e9be",
    "anatomy": "72d831999477f14bba363cda752ebaed9378d22ea2327b25e124740935e95341",
    "generalization": "871a5b84347c6779e6fd4eae9fe86dd09f5559f8477dd5677ef9e8c79c986132",
    "dp_microdata": "ac5dd9dd8ffbc1bc278af72b6cf7086414f88dba6d82263b4f31457db616ec8d",
    "minimal_generalization": "1a7c963b1977ad090924696b8f632fc81920df54b089c4657ec8777792db6a61",
}


@pytest.fixture
def inputs(tmp_path, monkeypatch):
    # config.json records the input paths, so they are relative to a fixed cwd
    monkeypatch.chdir(tmp_path)
    table = _golden_table()
    # DP microdata noises every released attribute, so it gets the numeric columns only
    for stem, t in (("data", table), ("numeric", _numeric_table(table)), ("desk", _desk_table())):
        (tmp_path / f"{stem}.csv").write_bytes(serialize_table(t))
        (tmp_path / f"{stem}.schema.json").write_text(json.dumps(schema_to_descriptor(t.schema)), encoding="utf-8")
    (tmp_path / "hier.json").write_text(json.dumps(_hierarchies()), encoding="utf-8")
    (tmp_path / "desk_hier.json").write_text(json.dumps(_desk_hierarchies()), encoding="utf-8")
    return tmp_path


def _run(name, outdir):
    run(RunConfig(**{"data_csv": "data.csv", "schema_json": "data.schema.json", "attacks": ("linkage",),
                     "seed": 3, **CONFIGS[name]}), outdir)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_run_manifest_matches_golden_hash(inputs, name):
    _run(name, inputs / name)
    manifest = (inputs / name / "manifest.json").read_bytes()
    assert hashlib.sha256(manifest).hexdigest() == GOLDEN[name]


def test_generalization_run_suppresses_records(inputs):
    _run("generalization", inputs / "g")
    sidecar = json.loads((inputs / "g" / "release.provenance.json").read_text())
    assert 0 < len(sidecar["params"]["scheme"]["suppressed_row_ids"]) <= 0.02 * N
