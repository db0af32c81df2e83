"""One partition from where it is made to every reader: ``Partition`` is built
once, and releases, checks and attacks pass that object on unchanged."""

import json

import pytest

from sdckit import (
    GeneralizationHierarchy,
    Partition,
    RunConfig,
    cluster_and_permute,
    mdav_partition,
    microaggregate_partition,
    run,
    verify_probabilistic_k,
    verify_t_closeness,
)
from sdckit.microdata import hierarchy_to_json, schema_to_descriptor, serialize_table

from conftest import build_people_table

QI = ["age", "zip", "height"]


@pytest.fixture
def made(monkeypatch):
    """Every Partition made while the test runs: ``Partition(groups)`` builds
    its result through ``Partition.of_labels``, so counting that counts both."""
    made = []
    of_labels = Partition.of_labels.__func__

    def counted(cls, labels):
        made.append(of_labels(cls, labels))
        return made[-1]

    monkeypatch.setattr(Partition, "of_labels", classmethod(counted))
    return made


def test_releases_keep_the_partition_they_are_given(people_table):
    p = mdav_partition(people_table, QI, 5)
    assert cluster_and_permute(people_table, QI, 5, 7, partition=p).partition is p
    assert microaggregate_partition(people_table, QI, p).partition is p


def test_a_factory_control_makes_no_partition(made):
    table = build_people_table(seed=1, n=60)
    p = mdav_partition(table, QI, 4)
    made.clear()
    factory = lambda s: cluster_and_permute(table, QI, 4, s, partition=p)
    report = verify_probabilistic_k(factory, table, 5, trials=60, rng_seed=2)
    assert report.trials == 60
    assert made == []


def _inputs(tmp_path):
    table = build_people_table(seed=2, n=60)
    (tmp_path / "data.csv").write_bytes(serialize_table(table))
    (tmp_path / "data.schema.json").write_text(json.dumps(schema_to_descriptor(table.schema)), encoding="utf-8")
    hierarchies = [
        GeneralizationHierarchy.from_breakpoints("age", 0, 100, [[20, 40, 60, 80], [40]]),
        GeneralizationHierarchy.from_tree("zip", {"*": {"430**": {"43007": None, "43008": None}, "080**": {"08001": None}}}),
        GeneralizationHierarchy.from_breakpoints("height", 120, 210, [[150, 180]]),
    ]
    (tmp_path / "hier.json").write_text(json.dumps([hierarchy_to_json(h) for h in hierarchies]), encoding="utf-8")


@pytest.mark.parametrize("mechanism", ["mdav", "generalization"])
def test_a_run_with_checks_and_attacks_makes_one_partition(tmp_path, made, mechanism):
    _inputs(tmp_path)
    config = RunConfig(
        data_csv=str(tmp_path / "data.csv"),
        schema_json=str(tmp_path / "data.schema.json"),
        mechanism=mechanism,
        k=3,
        conf_attribute="diagnosis",
        l_floor=1.0,
        t_ceiling=1.0,
        hierarchies_json=str(tmp_path / "hier.json"),
        attacks=("linkage", "attribute_inference"),
        attack_trials=2,
    )
    assert run(config, tmp_path / "out") == 0
    summary = (tmp_path / "out" / "summary.txt").read_text(encoding="utf-8")
    assert "check t_closeness: PASS" in summary and "attack attribute_inference" in summary
    assert len(made) == 1


@pytest.mark.parametrize("partition", [((0, 1), (1, 2)), ((0, 1), (2,))])
def test_t_closeness_rejects_a_partition_that_repeats_or_skips_a_row(people_table, partition):
    table = people_table.take(range(4))
    with pytest.raises(ValueError, match="cover every row exactly once"):
        verify_t_closeness(table, partition, "diagnosis", 0.5)
