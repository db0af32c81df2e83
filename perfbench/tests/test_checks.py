import csv
import json
from collections import Counter

import pytest

import checks
import gen


def _write(path, header, rows):
    with path.open("w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)
    return path


@pytest.fixture(scope="module")
def mdav_run(tmp_path_factory):
    """A real mdav artifact directory on a small generated table."""
    import sdckit

    root = tmp_path_factory.mktemp("mdav")
    cols = gen.people_columns(gen.np.random.default_rng(1), 60)
    gen.write_csv(root / "people.csv", cols)
    gen.write_json(root / "people.schema.json", gen.people_schema(cols["pid"]))
    cfg = sdckit.RunConfig(
        data_csv=str(root / "people.csv"), schema_json=str(root / "people.schema.json"),
        mechanism="mdav", k=5, attacks=("linkage",), attack_trials=2,
    )
    sdckit.run(cfg, root / "out")
    return root


QI = ["age", "height", "income", "zip", "sex"]


def test_real_release_passes_and_a_group_of_k_minus_1_fails(mdav_run):
    out = mdav_run / "out"
    assert checks.manifest_matches(out)[0]
    assert checks.k_anonymous(out / "release.csv", QI, 5)[0]
    assert checks.linkage_within_bound(out / "attack_linkage.json", 5)[0]
    assert checks.summary_verdicts(out) == {"k_anonymity": True}
    header, rows = checks.read_csv(out / "release.csv")
    key = lambda r: tuple(r[header.index(q)] for q in QI)
    sizes = Counter(map(key, rows))
    victim = next(i for i, r in enumerate(rows) if sizes[key(r)] == 5)
    # drop one member of a class of exactly k: that class keeps k-1 records
    bad = _write(out.parent / "broken.csv", header, rows[:victim] + rows[victim + 1:])
    ok, detail = checks.k_anonymous(bad, QI, 5)
    assert not ok and "min_class=4" in detail


def test_manifest_rejects_edited_and_missing_files(mdav_run, tmp_path):
    out = tmp_path / "copy"
    out.mkdir()
    for p in (mdav_run / "out").iterdir():
        (out / p.name).write_bytes(p.read_bytes())
    (out / "summary.txt").write_text("edited\n", encoding="utf-8")
    ok, detail = checks.manifest_matches(out)
    assert not ok and "summary.txt" in detail
    (out / "summary.txt").unlink()
    assert "missing" in checks.manifest_matches(out)[1]


def test_group_of_size_k_minus_1_is_rejected(tmp_path):
    rows = [["30", "F"]] * 5 + [["40", "M"]] * 4
    assert not checks.k_anonymous(_write(tmp_path / "r.csv", ["age", "sex"], rows), ["age", "sex"], 5)[0]
    assert checks.k_anonymous(_write(tmp_path / "r.csv", ["age", "sex"], rows), ["age", "sex"], 4)[0]


def test_qi_multisets_reject_a_changed_value_but_not_a_reordering(tmp_path):
    original = _write(tmp_path / "in.csv", ["pid", "age"], [["P1", "30"], ["P2", "41"], ["P3", "52"]])
    shuffled = _write(tmp_path / "a.csv", ["age"], [["52"], ["30.0"], ["41"]])
    changed = _write(tmp_path / "b.csv", ["age"], [["52"], ["30"], ["42"]])
    assert checks.qi_multisets_preserved(original, shuffled, ["age"])[0]
    assert not checks.qi_multisets_preserved(original, changed, ["age"])[0]


def test_suppression_budget(tmp_path):
    release = _write(tmp_path / "r.csv", ["age"], [["[20,29]"]] * 97)
    assert checks.enough_rows_released(release, 98, 0.02)[0]
    assert not checks.enough_rows_released(release, 100, 0.02)[0]


def test_domains(tmp_path):
    schema = {"pid": {"role": "identifier", "kind": "categorical", "values": ["a"]},
              "age": {"role": "quasi_identifier", "kind": "numeric", "min": 18.0, "max": 90.0}}
    assert checks.inside_domains(_write(tmp_path / "r.csv", ["age"], [["18"], ["90"]]), schema)[0]
    assert not checks.inside_domains(_write(tmp_path / "r.csv", ["age"], [["18"], ["90.5"]]), schema)[0]


def test_linkage_bound(tmp_path):
    path = tmp_path / "attack_linkage.json"
    path.write_text(json.dumps({"success_rate": 0.22}))
    assert checks.linkage_within_bound(path, 5)[0]
    path.write_text(json.dumps({"success_rate": 0.2201}))
    assert not checks.linkage_within_bound(path, 5)[0]


def test_downcoding_soundness(tmp_path):
    data = _write(tmp_path / "desk.csv", ["pid", "x"], [["D0", "2"], ["D1", "6"]])
    cell = {"row_id": 0, "attribute": "x", "inferred": [2.0, 3.0], "narrowed": True}
    path = tmp_path / "attack_downcoding.json"
    path.write_text(json.dumps({"details": {"cells": [cell]}}))
    assert checks.downcoding_sound(path, data)[0]
    cell["inferred"] = [3.0, 4.0]
    path.write_text(json.dumps({"details": {"cells": [cell]}}))
    ok, detail = checks.downcoding_sound(path, data)
    assert not ok and "row 0" in detail
