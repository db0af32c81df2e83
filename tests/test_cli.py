"""Command line behavior: every subcommand, artifact round trips, exit codes."""

import json

import pytest

from sdckit import AttributeSchema, CategoricalKind, GeneralizationHierarchy, NumericKind
from sdckit.cli import build_parser, main
from sdckit.microdata import (
    hierarchy_to_json,
    make_table,
    schema_to_descriptor,
    serialize_table,
)

from sdckit.probkanon import PERMUTE_MODES
from sdckit.reporting import MECHANISMS

from conftest import build_people_table


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
            "--trials",
            "4",
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


def test_attack_downcoding_from_saved_release(tmp_path, capsys):
    xs = (AttributeSchema("x", "quasi_identifier", NumericKind(1, 10)),)
    table = make_table(xs, {"x": [1.0, 1.0, 2.0, 6.0, 9.0]})
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
    capsys.readouterr()
    rc = main(
        [
            "attack",
            "--data", str(data),
            "--schema", str(schema),
            "--release", str(rel),
            "--attack", "downcoding",
            "--hierarchies", str(hier),
        ]
    )
    assert rc == 0
    assert "downcoding: rate=1" in capsys.readouterr().out


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
    rc = main(["attack", "--data", data, "--schema", schema, "--release", str(rel), "--trials", "1"])
    assert rc == 2
    assert "sidecar field 'partition'" in capsys.readouterr().err


def test_malformed_hierarchy_file_exits_two(people_inputs, tmp_path, capsys):
    data, schema = people_inputs
    hier = tmp_path / "h.json"
    hier.write_text("[1, 2]", encoding="utf-8")
    rc = _anonymize(data, schema, tmp_path / "gen", "--mechanism", "generalization", "--hierarchies", str(hier))
    assert rc == 2
    assert "hierarchy entry 0" in capsys.readouterr().err


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
    rc = main(["attack", "--data", data, "--schema", schema, "--release", str(rel), "--trials", "1"])
    assert rc == 2
    assert "empty input" in capsys.readouterr().err
