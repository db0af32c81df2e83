"""Command line behavior: every subcommand, artifact round trips, exit codes."""

import hashlib
import json
from pathlib import Path

import pytest

from sdckit import AttributeSchema, CategoricalKind, GeneralizationHierarchy, NumericKind, cluster_and_permute
from sdckit.cli import build_parser, main
from sdckit.microdata import (
    hierarchy_to_json,
    make_table,
    read_table,
    schema_to_descriptor,
    serialize_table,
    write_release,
)

from sdckit.probkanon import PERMUTE_MODES
from sdckit.reporting import MECHANISMS

from conftest import build_numeric_table, build_people_table


@pytest.fixture
def people_inputs(tmp_path):
    table = build_people_table(seed=4, n=30)
    data = tmp_path / "people.csv"
    data.write_bytes(serialize_table(table))
    schema = tmp_path / "people.schema.json"
    schema.write_text(json.dumps(schema_to_descriptor(table.schema)), encoding="utf-8")
    return str(data), str(schema)


def _anonymize(data, schema, out, *extra):
    return main(
        [
            "anonymize",
            "--data",
            data,
            "--schema",
            schema,
            "--out",
            str(out),
            "--trials",
            "4",
            *extra,
        ]
    )


def test_anonymize_then_attack_then_report(people_inputs, tmp_path, capsys):
    data, schema = people_inputs
    release_dir = tmp_path / "rel"
    assert _anonymize(data, schema, release_dir, "--k", "5") == 0
    printed = capsys.readouterr().out
    assert "check k_anonymity: PASS" in printed
    assert (release_dir / "manifest.json").exists()

    rc = main(
        [
            "attack",
            "--data",
            data,
            "--schema",
            schema,
            "--release",
            str(release_dir),
            "--attack",
            "linkage",
        ]
    )
    assert rc == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("linkage: rate=")
    saved = json.loads((release_dir / "attack_linkage.json").read_text())
    assert saved["attack"] == "linkage"

    rc = main(
        ["report", "--data", data, "--schema", schema, "--release", str(release_dir), "--out", str(tmp_path / "rep")]
    )
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == json.loads((tmp_path / "rep" / "utility.json").read_text())
    assert doc["n_original"] == 30


def test_attack_and_report_read_an_anatomy_run_directory(people_inputs, tmp_path, capsys):
    data, schema = people_inputs
    rel = tmp_path / "anatomy"
    rc = _anonymize(
        data, schema, rel,
        "--mechanism", "anatomy", "--k", "5", "--conf", "diagnosis",
        "--attacks", "linkage,attribute_inference",
    )
    assert rc == 0
    saved = json.loads((rel / "attack_attribute_inference.json").read_text())
    capsys.readouterr()

    out = tmp_path / "again"
    rc = main(
        [
            "attack",
            "--data", data,
            "--schema", schema,
            "--release", str(rel),
            "--attack", "attribute_inference",
            "--conf", "diagnosis",
            "--out", str(out),
        ]
    )
    assert rc == 0
    assert f"attribute_inference: rate={saved['success_rate']:.6g}" in capsys.readouterr().out
    again = json.loads((out / "attack_attribute_inference.json").read_text())
    assert again["success_rate"] == saved["success_rate"]

    rc = main(["report", "--data", data, "--schema", schema, "--release", str(rel)])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["n_release"] == 30


def test_attack_on_anatomy_sides_with_different_classes_exits_two(people_inputs, tmp_path, capsys):
    data, schema = people_inputs
    rel = tmp_path / "anatomy"
    assert _anonymize(data, schema, rel, "--mechanism", "anatomy", "--k", "5", "--attacks", "") == 0
    conf = rel / "release_conf.csv"
    lines = conf.read_bytes().split(b"\r\n")
    # the first confidential row moves from group 0 to group 1
    assert lines[1].startswith(b"0,")
    lines[1] = b"1," + lines[1][2:]
    conf.write_bytes(b"\r\n".join(lines))
    capsys.readouterr()
    rc = main(
        [
            "attack",
            "--data", data,
            "--schema", schema,
            "--release", str(rel),
            "--attack", "attribute_inference",
            "--conf", "diagnosis",
        ]
    )
    assert rc == 2
    assert "confidential rows" in capsys.readouterr().err


def test_attack_scores_a_suppressed_generalization_run_like_the_run(tmp_path, capsys):
    schema = (
        AttributeSchema("age", "quasi_identifier", NumericKind(0, 99)),
        AttributeSchema("diagnosis", "confidential", CategoricalKind(("flu", "cold", "none"))),
    )
    # 77 ages that generalize into full decades, plus three outliers
    ages = [float(20 + i % 40) for i in range(77)] + [91.0, 95.0, 98.0]
    diagnoses = [("flu", "cold", "none")[i % 3] for i in range(80)]
    table = make_table(schema, {"age": ages, "diagnosis": diagnoses})
    data = tmp_path / "t.csv"
    data.write_bytes(serialize_table(table))
    schema_path = tmp_path / "t.schema.json"
    schema_path.write_text(json.dumps(schema_to_descriptor(table.schema)), encoding="utf-8")
    h = GeneralizationHierarchy.from_breakpoints("age", 0, 99, [[10, 20, 30, 40, 50, 60, 70, 80, 90]])
    hier = tmp_path / "hier.json"
    hier.write_text(json.dumps([hierarchy_to_json(h)]), encoding="utf-8")
    rel = tmp_path / "gen"
    rc = _anonymize(
        str(data), str(schema_path), rel,
        "--mechanism", "generalization", "--k", "4", "--max-suppression", "0.05",
        "--hierarchies", str(hier), "--conf", "diagnosis", "--attacks", "attribute_inference",
    )
    assert rc == 0
    assert "note: attribute_inference: 3 suppressed records not scored" in capsys.readouterr().out

    out = tmp_path / "again"
    rc = main(
        [
            "attack",
            "--data", str(data),
            "--schema", str(schema_path),
            "--release", str(rel),
            "--attack", "attribute_inference",
            "--conf", "diagnosis",
            "--out", str(out),
        ]
    )
    assert rc == 0
    again = (out / "attack_attribute_inference.json").read_bytes()
    assert again == (rel / "attack_attribute_inference.json").read_bytes()
    assert json.loads(again)["trials"] == 77


def test_attack_intersection_over_two_releases(people_inputs, tmp_path, capsys):
    data, schema = people_inputs
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert _anonymize(data, schema, a, "--k", "5", "--attacks", "linkage") == 0
    assert _anonymize(data, schema, b, "--k", "3", "--attacks", "linkage") == 0
    rc = main(
        [
            "attack",
            "--data",
            data,
            "--schema",
            schema,
            "--release",
            str(a),
            str(b),
            "--attack",
            "intersection",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "intersection: rate=" in out
    assert (a / "attack_intersection.json").exists()


def _minimal_recoding_run(tmp_path):
    """A minimal-recoder run directory over five rows; returns (data, schema, hierarchies, run) paths."""
    attrs = (
        AttributeSchema("x", "quasi_identifier", NumericKind(1, 10)),
        AttributeSchema("diagnosis", "confidential", CategoricalKind(("flu", "cold"))),
    )
    table = make_table(attrs, {"x": [1.0, 1.0, 2.0, 6.0, 9.0], "diagnosis": ["flu", "cold", "flu", "cold", "flu"]})
    data = tmp_path / "x.csv"
    data.write_bytes(serialize_table(table))
    schema = tmp_path / "x.schema.json"
    schema.write_text(json.dumps(schema_to_descriptor(table.schema)), encoding="utf-8")
    h = GeneralizationHierarchy.from_breakpoints("x", 1, 10, [[6]])
    hier = tmp_path / "h.json"
    hier.write_text(json.dumps([hierarchy_to_json(h)]), encoding="utf-8")

    rel = tmp_path / "rel"
    rc = _anonymize(
        str(data), str(schema), rel,
        "--mechanism", "minimal_generalization", "--k", "2", "--hierarchies", str(hier),
        "--attacks", "downcoding",
    )
    assert rc == 0
    return str(data), str(schema), str(hier), rel


def test_attack_downcoding_from_saved_release(tmp_path, capsys):
    data, schema, hier, rel = _minimal_recoding_run(tmp_path)
    capsys.readouterr()
    rc = main(
        [
            "attack",
            "--data", data,
            "--schema", schema,
            "--release", str(rel),
            "--attack", "downcoding",
            "--hierarchies", hier,
        ]
    )
    assert rc == 0
    assert "downcoding: rate=1" in capsys.readouterr().out


@pytest.mark.parametrize(
    "scheme, attack, field",
    [
        (5, "attribute_inference", "params.scheme"),
        ({"suppressed_row_ids": 5}, "attribute_inference", "params.scheme.suppressed_row_ids"),
        ({"qi_order": 5}, "downcoding", "params.scheme.qi_order"),
    ],
)
def test_attack_on_a_malformed_sidecar_scheme_exits_two(tmp_path, capsys, scheme, attack, field):
    data, schema, hier, rel = _minimal_recoding_run(tmp_path)
    sidecar = rel / "release.provenance.json"
    doc = json.loads(sidecar.read_text())
    doc["params"]["scheme"] = scheme
    sidecar.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    rc = main(
        [
            "attack",
            "--data", data,
            "--schema", schema,
            "--release", str(rel),
            "--attack", attack,
            "--conf", "diagnosis",
            "--hierarchies", hier,
        ]
    )
    assert rc == 2
    assert f"sidecar field '{field}'" in capsys.readouterr().err


def test_account_composes_and_persists(tmp_path, capsys):
    ledger = tmp_path / "ledger.jsonl"
    rc = main(
        [
            "account",
            "--ledger",
            str(ledger),
            "--add-dp",
            "counts:0.5",
            "--add-dp",
            "east:0.4::region",
            "--add-dp",
            "west:0.3:1e-9:region",
            "--add-syntactic",
            "mdav",
        ]
    )
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["epsilon"] == pytest.approx(0.9)  # 0.5 + max(0.4, 0.3)
    assert report["defined"] is False
    assert "composed guarantee undefined" in report["warnings"]
    assert len(ledger.read_text().splitlines()) == 4

    rc = main(["account", "--ledger", str(ledger)])
    assert rc == 0
    again = json.loads(capsys.readouterr().out)
    assert again == report


def test_account_rejects_an_invalid_ledger(tmp_path, capsys):
    ledger = tmp_path / "bad.jsonl"
    ledger.write_text('{"mechanism": "q", "kind": "dp", "epsilon": -1.0}\n', encoding="utf-8")
    assert main(["account", "--ledger", str(ledger)]) == 2
    assert "ledger line 1" in capsys.readouterr().err
    # a group that is not a string would fail only when the ledger composes
    ledger.write_text('{"mechanism": "q", "kind": "dp", "epsilon": 1.0, "group": ["a"]}\n', encoding="utf-8")
    assert main(["account", "--ledger", str(ledger)]) == 2
    assert "ledger line 1: field 'group' must be a string" in capsys.readouterr().err


def test_sweep_prints_frontier_rows(people_inputs, tmp_path, capsys):
    data, schema = people_inputs
    rc = main(
        [
            "sweep",
            "--data",
            data,
            "--schema",
            schema,
            "--parameter",
            "k",
            "--values",
            "2,5",
            "--trials",
            "3",
            "--out",
            str(tmp_path / "sw"),
        ]
    )
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0])["k"] == 2
    assert (tmp_path / "sw" / "sweep.csv").read_bytes().count(b"\r\n") == 3


def test_environment_seed_reaches_the_config(people_inputs, tmp_path, monkeypatch, capsys):
    data, schema = people_inputs
    monkeypatch.setenv("SDCKIT_SEED", "123")
    assert _anonymize(data, schema, tmp_path / "rel") == 0
    capsys.readouterr()
    cfg = json.loads((tmp_path / "rel" / "config.json").read_text())
    assert cfg["seed"] == 123


def test_cli_maps_errors_to_exit_two(people_inputs, tmp_path, capsys):
    data, schema = people_inputs
    rel = tmp_path / "rel"
    assert _anonymize(data, schema, rel) == 0
    capsys.readouterr()

    # attribute_inference without --conf
    rc = main(
        ["attack", "--data", data, "--schema", schema, "--release", str(rel), "--attack", "attribute_inference"]
    )
    assert rc == 2
    assert "error:" in capsys.readouterr().err

    # dp mechanism without epsilon
    rc = _anonymize(data, schema, tmp_path / "dp", "--mechanism", "dp_microdata")
    assert rc == 2

    # missing input file
    rc = main(
        ["anonymize", "--data", str(tmp_path / "nope.csv"), "--schema", schema, "--out", str(tmp_path / "x")]
    )
    assert rc == 2


def test_attack_on_a_malformed_sidecar_exits_two(people_inputs, tmp_path, capsys):
    data, schema = people_inputs
    rel = tmp_path / "rel"
    assert _anonymize(data, schema, rel, "--attacks", "") == 0
    sidecar = rel / "release.provenance.json"
    sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), "partition": 5}), encoding="utf-8")
    capsys.readouterr()
    rc = main(["attack", "--data", data, "--schema", schema, "--release", str(rel)])
    assert rc == 2
    assert "sidecar field 'partition'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "schema_doc, message",
    [(5, "schema descriptor must be an object"), ({"age": 5}, "attribute 'age': spec must be an object")],
)
def test_attack_on_a_sidecar_with_a_malformed_schema_exits_two(people_inputs, tmp_path, capsys, schema_doc, message):
    data, schema = people_inputs
    rel = tmp_path / "rel"
    assert _anonymize(data, schema, rel, "--attacks", "") == 0
    sidecar = rel / "release.provenance.json"
    sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), "schema": schema_doc}), encoding="utf-8")
    capsys.readouterr()
    rc = main(["attack", "--data", data, "--schema", schema, "--release", str(rel)])
    assert rc == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "schema_doc, message",
    [
        (5, "schema descriptor must be an object"),
        ([1, 2], "schema descriptor must be an object"),
        ({"age": 5}, "attribute 'age': spec must be an object"),
        ({"sex": {"role": "quasi_identifier", "kind": "categorical", "values": 5}}, "field 'values'"),
    ],
)
def test_malformed_schema_file_exits_two(people_inputs, tmp_path, capsys, schema_doc, message):
    data, _ = people_inputs
    bad = tmp_path / "bad.schema.json"
    bad.write_text(json.dumps(schema_doc), encoding="utf-8")
    assert _anonymize(data, str(bad), tmp_path / "out") == 2
    assert message in capsys.readouterr().err
    assert main(["report", "--data", data, "--schema", str(bad), "--release", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err


MALFORMED_HIERARCHIES = [
    ([1, 2], "hierarchy entry 0"),
    # each names the attribute and the field
    ({"attribute": "age", "intervals": 5}, "'age': field 'intervals'"),
    ({"attribute": "age", "intervals": [0, 100]}, "'age': field 'intervals'"),
    ({"attribute": "age", "intervals": {"max": 100}}, "'age': field 'min'"),
    ({"attribute": "age", "intervals": {"min": "0", "max": 100}}, "'age': field 'min'"),
    ({"attribute": "age", "intervals": {"min": 0, "max": True}}, "'age': field 'max'"),
    ({"attribute": "age", "intervals": {"min": 0, "max": 100, "cuts": [50]}}, "'age': field 'cuts'"),
    ({"attribute": "age", "intervals": {"min": 0, "max": 100, "cuts": {"a": 1}}}, "'age': field 'cuts'"),
    ({"attribute": "age", "intervals": {"min": 0, "max": 100, "cuts": [["50"]]}}, "'age': field 'cuts'"),
    ({"attribute": "age", "intervals": {"min": 0, "max": 100, "cuts": [[None]]}}, "'age': field 'cuts'"),
    ({"attribute": "zip", "tree": 5}, "'zip': field 'tree'"),
    ({"attribute": "zip", "tree": ["*"]}, "'zip': field 'tree'"),
    ({"attribute": "zip", "tree": {"*": None, "+": None}}, "'zip': field 'tree'"),
    ({"attribute": "zip", "tree": {"*": {"43007": 1}}}, "'zip': field 'tree'"),
    ({"attribute": "zip", "tree": {"*": ["43007"]}}, "'zip': field 'tree'"),
]


def test_malformed_hierarchy_file_exits_two(people_inputs, tmp_path, capsys):
    data, schema = people_inputs
    hier = tmp_path / "h.json"
    for i, (doc, message) in enumerate(MALFORMED_HIERARCHIES):
        hier.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / f"gen{i}"
        rc = _anonymize(data, schema, out, "--mechanism", "generalization", "--hierarchies", str(hier))
        assert rc == 2, doc
        assert message in capsys.readouterr().err, doc


def _choices(command: str, dest: str = "mechanism"):
    subcommands = next(a for a in build_parser()._actions if a.dest == "command")
    parser = subcommands.choices[command]
    return tuple(next(a for a in parser._actions if a.dest == dest).choices)


def test_mechanism_choices_are_the_run_mechanisms(people_inputs, capsys):
    assert _choices("anonymize") == MECHANISMS
    assert _choices("sweep") == MECHANISMS

    data, schema = people_inputs
    with pytest.raises(SystemExit) as exit_info:
        main(["sweep", "--data", data, "--schema", schema, "--values", "2", "--mechanism", "bogus"])
    assert exit_info.value.code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


def test_only_the_run_commands_take_seed_and_trials():
    # attack and report score a saved release: nothing of theirs draws
    subcommands = next(a for a in build_parser()._actions if a.dest == "command")
    for command, takes in [("anonymize", {"seed", "trials"}), ("sweep", {"seed", "trials"}), ("attack", set()),
                           ("report", set())]:
        assert {a.dest for a in subcommands.choices[command]._actions} & {"seed", "trials"} == takes


def test_permute_mode_choices_are_the_permutation_modes(people_inputs, tmp_path, capsys):
    assert _choices("anonymize", "permute_mode") == PERMUTE_MODES
    assert _choices("sweep", "permute_mode") == PERMUTE_MODES

    data, schema = people_inputs
    with pytest.raises(SystemExit) as exit_info:
        _anonymize(data, schema, tmp_path / "rel", "--mechanism", "mdav", "--permute-mode", "bogus")
    assert exit_info.value.code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err
    assert not (tmp_path / "rel").exists()


def test_empty_release_csv_exits_two(people_inputs, tmp_path, capsys):
    data, schema = people_inputs
    rel = tmp_path / "rel"
    assert _anonymize(data, schema, rel, "--attacks", "") == 0
    (rel / "release.csv").write_bytes(b"")
    capsys.readouterr()

    assert main(["report", "--data", data, "--schema", schema, "--release", str(rel)]) == 2
    assert "release.csv: empty input: no header row" in capsys.readouterr().err
    rc = main(["attack", "--data", data, "--schema", schema, "--release", str(rel)])
    assert rc == 2
    assert "empty input" in capsys.readouterr().err


def _write_inputs(tmp_path, table):
    data = tmp_path / "t.csv"
    data.write_bytes(serialize_table(table))
    schema = tmp_path / "t.schema.json"
    schema.write_text(json.dumps(schema_to_descriptor(table.schema)), encoding="utf-8")
    return str(data), str(schema)


def _write_hierarchy(tmp_path, h):
    path = tmp_path / "hier.json"
    path.write_text(json.dumps([hierarchy_to_json(h)]), encoding="utf-8")
    return str(path)


def _deterministic_run_case(tmp_path, mechanism):
    """(data, schema, anonymize arguments, attack arguments) of a run whose
    attacks are deterministic: a vector-mode permutation's linkage rate is
    exact over its permutation, so it does not depend on the published draw."""
    conf = ["--conf", "diagnosis"]
    if mechanism in ("mdav", "anatomy", "cluster_and_permute"):
        data, schema = _write_inputs(tmp_path, build_people_table(seed=4, n=30))
        return data, schema, ["--mechanism", mechanism, "--k", "5", *conf], conf
    if mechanism == "generalization":
        ages = [float(20 + i % 40) for i in range(77)] + [91.0, 95.0, 98.0]
        attrs = (
            AttributeSchema("age", "quasi_identifier", NumericKind(0, 99)),
            AttributeSchema("diagnosis", "confidential", CategoricalKind(("flu", "cold", "none"))),
        )
        table = make_table(attrs, {"age": ages, "diagnosis": [("flu", "cold", "none")[i % 3] for i in range(80)]})
        hier = _write_hierarchy(
            tmp_path, GeneralizationHierarchy.from_breakpoints("age", 0, 99, [list(range(10, 100, 10))])
        )
        extra = ["--k", "4", "--max-suppression", "0.05", "--hierarchies", hier, *conf]
        return (*_write_inputs(tmp_path, table), ["--mechanism", mechanism, *extra], ["--hierarchies", hier, *conf])
    attrs = (AttributeSchema("x", "quasi_identifier", NumericKind(1, 10)),)
    table = make_table(attrs, {"x": [1.0, 1.0, 2.0, 6.0, 9.0, 9.0]})
    hier = _write_hierarchy(tmp_path, GeneralizationHierarchy.from_breakpoints("x", 1, 10, [[6]]))
    return (*_write_inputs(tmp_path, table), ["--mechanism", mechanism, "--k", "2", "--hierarchies", hier],
            ["--hierarchies", hier])


@pytest.mark.parametrize(
    "mechanism, attacks",
    [
        ("mdav", ("linkage", "attribute_inference")),
        ("anatomy", ("linkage", "attribute_inference")),
        ("generalization", ("linkage", "attribute_inference")),
        ("minimal_generalization", ("linkage", "downcoding")),
        ("cluster_and_permute", ("linkage",)),
    ],
)
def test_attack_with_the_runs_seed_and_trials_rewrites_its_bytes(tmp_path, capsys, mechanism, attacks):
    data, schema, anonymize_args, attack_args = _deterministic_run_case(tmp_path, mechanism)
    rel = tmp_path / "run"
    common = ["--data", data, "--schema", schema]
    rc = main(["anonymize", *common, "--seed", "7", "--trials", "3", "--out", str(rel), "--attacks", ",".join(attacks),
               *anonymize_args])
    assert rc in (0, 1)
    before = {p.name: p.read_bytes() for p in rel.iterdir()}
    assert {f"attack_{name}.json" for name in attacks} <= set(before)
    for name in attacks:
        assert main(["attack", *common, "--release", str(rel), "--attack", name, *attack_args]) == 0
    assert {p.name: p.read_bytes() for p in rel.iterdir()} == before
    manifest = json.loads((rel / "manifest.json").read_text())
    for name, digest in manifest.items():
        assert hashlib.sha256((rel / name).read_bytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "attack, extra, reason",
    [
        ("attribute_inference", [], "attribute_inference skipped: no confidential attribute configured"),
        ("downcoding", [], "downcoding skipped: release did not come from the minimal recoder"),
    ],
)
def test_attack_skip_reasons_exit_two(people_inputs, tmp_path, capsys, attack, extra, reason):
    data, schema = people_inputs
    rel = tmp_path / "rel"
    assert _anonymize(data, schema, rel, "--k", "5") == 0
    capsys.readouterr()
    rc = main(["attack", "--data", data, "--schema", schema, "--release", str(rel), "--attack", attack, *extra])
    assert rc == 2
    assert reason in capsys.readouterr().err
    assert not (rel / f"attack_{attack}.json").exists()


def test_attack_refuses_to_rewrite_a_file_the_manifest_covers(tmp_path, capsys):
    # the run averages linkage over redrawn DP releases, the attack scores the
    # one published release: other bytes, so the run's report must stay
    data, schema = _write_inputs(tmp_path, build_numeric_table(seed=4, n=30))
    rel = tmp_path / "rel"
    assert _anonymize(data, schema, rel, "--mechanism", "dp_microdata", "--epsilon", "2") == 0
    saved = (rel / "attack_linkage.json").read_bytes()
    capsys.readouterr()
    attack = ["attack", "--data", data, "--schema", schema, "--release", str(rel)]
    assert main(attack) == 2
    err = capsys.readouterr().err
    assert "attack_linkage.json" in err and "--out" in err
    assert (rel / "attack_linkage.json").read_bytes() == saved

    assert main([*attack, "--out", str(tmp_path / "elsewhere")]) == 0
    assert json.loads(saved)["trials"] == 4 * 30
    assert json.loads((tmp_path / "elsewhere" / "attack_linkage.json").read_text())["trials"] == 30


def test_attack_on_a_per_attribute_run_exits_two(people_inputs, tmp_path, capsys):
    # a per-attribute permutation's linkage rates depend on its draw: the
    # published release alone cannot give them
    data, schema = people_inputs
    table = read_table(data, schema)
    release = cluster_and_permute(table, table.qi_names, 5, rng_seed=1, mode="per_attribute")
    rel = tmp_path / "rel"
    write_release(release, rel)
    assert main(["attack", "--data", data, "--schema", schema, "--release", str(rel)]) == 2
    assert "pass a seed -> release factory" in capsys.readouterr().err
    assert not (rel / "attack_linkage.json").exists()


def test_attack_with_an_empty_external_table_exits_two(people_inputs, tmp_path, capsys):
    data, schema = people_inputs
    rel = tmp_path / "rel"
    assert _anonymize(data, schema, rel, "--attacks", "") == 0
    header_only = tmp_path / "header.csv"
    header_only.write_text(Path(data).read_text(encoding="utf-8").splitlines()[0] + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["attack", "--data", str(header_only), "--schema", schema, "--release", str(rel)]) == 2
    assert "external table is empty" in capsys.readouterr().err
    inference = ["attack", "--attack", "attribute_inference", "--conf", "diagnosis", "--release", str(rel)]
    assert main([*inference, "--data", str(header_only), "--schema", schema]) == 2
    assert "the true table is empty: there is no record to score" in capsys.readouterr().err


def test_attack_on_a_directory_whose_manifest_is_not_an_object_exits_two(people_inputs, tmp_path, capsys):
    data, schema = people_inputs
    rel = tmp_path / "rel"
    assert _anonymize(data, schema, rel, "--k", "5") == 0
    (rel / "manifest.json").write_text("[]", encoding="utf-8")
    capsys.readouterr()
    assert main(["attack", "--data", data, "--schema", schema, "--release", str(rel)]) == 2
    assert "manifest.json is not a json object" in capsys.readouterr().err
