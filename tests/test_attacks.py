"""Attack harness: linkage, attribute inference, membership inference,
release intersection, and downcoding reconstruction."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdckit import (
    AnonymizedRelease,
    AttributeSchema,
    CategoricalKind,
    GeneralizationHierarchy,
    Misaligned,
    MissingPartition,
    NoSharedQIs,
    NotMinimalMechanism,
    NotNeighbors,
    NumericKind,
    Predicate,
    Provenance,
    Query,
    anatomize,
    attribute_inference_attack,
    cluster_and_permute,
    downcoding_attack,
    intersection_attack,
    laplace_query_mechanism,
    link_records,
    linkage_attack,
    membership_inference_attack,
    mdav_partition,
    minimal_generalization,
    perfect_secrecy_query_mechanism,
    verify_k_anonymity,
    verify_probabilistic_k,
    wilson_interval,
)
from sdckit.microdata import make_table
from sdckit.seeds import derive_rng

from conftest import build_numeric_table, build_people_table


# -- wilson intervals -------------------------------------------------------------


def test_wilson_interval_frozen():
    assert wilson_interval(0, 0) == (0.0, 1.0)
    lo, hi = wilson_interval(5, 10)
    assert lo == pytest.approx(0.236593090512564, abs=1e-12)
    assert hi == pytest.approx(0.7634069094874361, abs=1e-12)
    assert lo + hi == pytest.approx(1.0)  # symmetric at p = 1/2
    assert wilson_interval(0, 10)[0] == 0.0
    assert wilson_interval(0, 10)[1] == pytest.approx(0.2775327998628892, abs=1e-12)
    assert wilson_interval(10, 10)[1] == pytest.approx(1.0)


@settings(max_examples=50, deadline=None)
@given(s=st.integers(0, 50), extra=st.integers(0, 50))
def test_wilson_interval_contains_point_estimate(s, extra):
    n = s + extra
    if n == 0:
        return
    lo, hi = wilson_interval(s, n)
    assert 0.0 <= lo <= s / n <= hi <= 1.0


# -- record linkage ---------------------------------------------------------------


def test_link_records_exact_match():
    t = build_numeric_table(seed=3, n=12)
    pos = link_records(t, t, derive_rng(0, "attack"))
    assert pos.tolist() == list(range(12))


def test_link_records_requires_shared_qis():
    t = build_numeric_table(seed=3, n=5)
    other = build_numeric_table(seed=3, n=5, names=("u", "w"))
    with pytest.raises(NoSharedQIs):
        link_records(t, other, derive_rng(0, "attack"))


def test_link_records_mixed_text_and_numeric(people_table):
    sample = people_table.take(list(range(8)))
    pos = link_records(sample, sample, derive_rng(0, "attack"))
    assert pos.tolist() == list(range(8))


def test_linkage_attack_identity_release_links_everyone():
    t = build_numeric_table(seed=1, n=15)
    release = AnonymizedRelease(table=t, partition=None, provenance=Provenance("identity", {}, 0))
    report = linkage_attack(release, t, trials=3, rng_seed=0)
    assert report.success_rate == 1.0
    assert report.baseline == pytest.approx(1 / 15)
    # a release is scored exactly, as one draw: trials counts the records
    assert report.trials == 15
    assert report.details["per_record_rates"] == [1.0] * 15
    assert report.details["shared_qis"] == ["a", "b", "c"]


def test_linkage_attack_factory_redraws_each_trial():
    t = build_numeric_table(seed=2, n=10)
    factory = lambda seed: cluster_and_permute(t, ["a", "b", "c"], k=5, rng_seed=seed)
    report = linkage_attack(factory, t, trials=40, rng_seed=1)
    # permutation within groups of >= 5 keeps the aggregate near 1/5
    assert 0.05 <= report.success_rate <= 0.4
    assert report.trials == 400
    with pytest.raises(ValueError):
        linkage_attack(factory, t, trials=0)


def test_linkage_attack_rejects_a_release_whose_rates_depend_on_its_draw(people_table):
    qi = list(people_table.qi_names)
    per_attribute = cluster_and_permute(people_table, qi, 5, rng_seed=1, mode="per_attribute")
    with pytest.raises(ValueError, match="factory"):
        linkage_attack(per_attribute, people_table, trials=4)
    partial = cluster_and_permute(people_table, ["age", "height"], 5, rng_seed=1)
    with pytest.raises(ValueError, match="factory"):
        linkage_attack(partial, people_table, trials=4)


def test_linkage_attack_names_an_empty_external_table():
    t = build_numeric_table(seed=2, n=10)
    for release in (t, lambda s: t):
        with pytest.raises(ValueError, match="external table is empty"):
            linkage_attack(release, t.take([]), trials=2)


def test_linkage_names_an_empty_release():
    # every caller of the nearest-vector search, on a release and on a factory's draw
    t = build_numeric_table(seed=2, n=10)
    empty = t.take([])
    calls = [
        lambda: link_records(empty, t, np.random.default_rng(0)),
        lambda: linkage_attack(empty, t),
        lambda: linkage_attack(lambda s: empty, t, trials=2),
        lambda: verify_probabilistic_k(empty, t, 2),
        lambda: verify_probabilistic_k(lambda s: empty, t, 2, trials=2),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="the release is empty: there is no row to link a record to"):
            call()


# -- attribute inference ----------------------------------------------------------


def _skew_instance():
    """200 records, the rare secret appears twice and both land in class 0."""
    schema = (
        AttributeSchema("x", "quasi_identifier", NumericKind(0, 1000)),
        AttributeSchema("s", "confidential", CategoricalKind(("rare", "common"))),
    )
    n = 200
    table = make_table(
        schema,
        {"x": [float(i) for i in range(n)], "s": ["rare"] * 2 + ["common"] * (n - 2)},
    )
    partition = tuple(tuple(range(j, j + 4)) for j in range(0, n, 4))
    release = AnonymizedRelease(
        table=table, partition=partition, provenance=Provenance("test", {}, 0)
    )
    return table, release


def test_attribute_inference_flags_skewed_class():
    table, release = _skew_instance()
    report = attribute_inference_attack(release, "s", table)
    by_rid = {d["row_id"]: d for d in report.details["per_record"]}
    assert by_rid[0]["prior"] == pytest.approx(0.01, abs=1e-12)
    assert by_rid[0]["posterior"] == pytest.approx(0.5, abs=1e-12)
    assert by_rid[0]["gain"] == pytest.approx(0.49, abs=1e-12)
    assert report.details["max_gain"] == pytest.approx(0.49, abs=1e-12)
    assert report.details["worst_class_emd"] == pytest.approx(0.49, abs=1e-12)
    assert report.baseline == pytest.approx(report.details["mean_prior"])


def test_attribute_inference_needs_partition_and_alignment():
    table, release = _skew_instance()
    bare = AnonymizedRelease(table=table, partition=None, provenance=Provenance("test", {}, 0))
    with pytest.raises(MissingPartition):
        attribute_inference_attack(bare, "s", table)
    stranger = make_table(
        table.schema, {"x": [0.0], "s": ["common"]}, row_ids=[999]
    )
    with pytest.raises(Misaligned):
        attribute_inference_attack(release, "s", stranger)


def test_attribute_inference_names_why_no_record_is_scored():
    table, release = _skew_instance()
    with pytest.raises(ValueError, match="the true table is empty: there is no record to score"):
        attribute_inference_attack(release, "s", table.take([]))
    scheme = {"suppressed_row_ids": table.row_ids.tolist()}
    suppressed = AnonymizedRelease(table, release.partition, Provenance("test", {"scheme": scheme}, 0))
    with pytest.raises(ValueError, match="declares every record suppressed: there is no record to score"):
        attribute_inference_attack(suppressed, "s", table)


def test_attribute_inference_on_anatomy(people_table):
    partition = mdav_partition(people_table, ["age", "zip", "height"], 5)
    release = anatomize(people_table, partition, k=5, rng_seed=1)
    report = attribute_inference_attack(release, "diagnosis", people_table)
    # shuffling within groups leaves group distributions intact, so the
    # posterior equals each record's within-group mass of its true value
    values = [str(v) for v in people_table.columns["diagnosis"]]
    by_rid = {d["row_id"]: d for d in report.details["per_record"]}
    for group in partition:
        for i in group:
            expected = sum(1 for j in group if values[j] == values[i]) / len(group)
            assert by_rid[int(people_table.row_ids[i])]["posterior"] == pytest.approx(expected)


# -- membership inference ---------------------------------------------------------


SCHEMA_V = (AttributeSchema("v", "confidential", NumericKind(0, 10)),)
WITH_TARGET = make_table(SCHEMA_V, {"v": [1.0, 2.0, 3.0, 7.0]})
WITHOUT_TARGET = make_table(SCHEMA_V, {"v": [1.0, 2.0, 3.0]})
THRESHOLD_QUERY = Query("count", predicate=Predicate("v", ">=", 5.0))


def test_membership_inference_tracks_epsilon():
    mech = laplace_query_mechanism(THRESHOLD_QUERY, SCHEMA_V, 1.0)
    report = membership_inference_attack(mech, WITH_TARGET, WITHOUT_TARGET, rng_seed=2)
    # optimal distinguisher against Laplace at sensitivity 1: 1 - exp(-1/2)
    assert report.details["advantage"] == pytest.approx(1.0 - math.exp(-0.5), abs=0.03)
    assert report.baseline == 0.5
    assert report.trials == 20_000


def test_membership_inference_blind_against_perfect_secrecy():
    mech = perfect_secrecy_query_mechanism(THRESHOLD_QUERY, SCHEMA_V, n=4)
    report = membership_inference_attack(mech, WITH_TARGET, WITHOUT_TARGET, rng_seed=2)
    assert report.details["advantage"] <= 0.03


def test_membership_inference_requires_neighbors():
    far = make_table(SCHEMA_V, {"v": [1.0]})
    mech = laplace_query_mechanism(THRESHOLD_QUERY, SCHEMA_V, 1.0)
    with pytest.raises(NotNeighbors):
        membership_inference_attack(mech, WITH_TARGET, far)


# -- intersection -----------------------------------------------------------------


def _grid_release(x_values, partition):
    schema = (AttributeSchema("x", "quasi_identifier", NumericKind(0, 2)),)
    table = make_table(schema, {"x": [float(v) for v in x_values]})
    return AnonymizedRelease(
        table=table, partition=partition, provenance=Provenance("test", {}, 0)
    )


def test_intersection_breaks_two_individually_safe_releases():
    rows = _grid_release([0, 0, 0, 1, 1, 1, 2, 2, 2], ((0, 1, 2), (3, 4, 5), (6, 7, 8)))
    cols = _grid_release([0, 1, 2, 0, 1, 2, 0, 1, 2], ((0, 3, 6), (1, 4, 7), (2, 5, 8)))
    assert verify_k_anonymity(rows, ["x"], 3)[0]
    assert verify_k_anonymity(cols, ["x"], 3)[0]

    report = intersection_attack([rows, cols])
    assert report.success_rate == 1.0
    assert report.details["min_effective_anonymity"] == 1
    assert report.details["mean_effective_anonymity"] == 1.0
    assert all(v == 1 for v in report.details["per_record_effective"].values())


def test_intersection_of_identical_partitions_is_harmless():
    a = _grid_release([0, 0, 0, 1, 1, 1, 2, 2, 2], ((0, 1, 2), (3, 4, 5), (6, 7, 8)))
    b = _grid_release([0, 0, 0, 1, 1, 1, 2, 2, 2], ((0, 1, 2), (3, 4, 5), (6, 7, 8)))
    report = intersection_attack([a, b])
    assert report.success_rate == 0.0
    assert report.details["min_effective_anonymity"] == 3


def test_intersection_validation():
    a = _grid_release([0, 0, 0], ((0, 1, 2),))
    with pytest.raises(ValueError):
        intersection_attack([a])
    bare = AnonymizedRelease(table=a.table, partition=None, provenance=Provenance("t", {}, 0))
    with pytest.raises(MissingPartition):
        intersection_attack([a, bare])
    schema = (AttributeSchema("x", "quasi_identifier", NumericKind(0, 2)),)
    other = make_table(schema, {"x": [0.0, 0.0, 0.0]}, row_ids=[7, 8, 9])
    misrow = AnonymizedRelease(table=other, partition=((0, 1, 2),), provenance=Provenance("t", {}, 0))
    with pytest.raises(Misaligned):
        intersection_attack([a, misrow])


def _oracle_intersection_attack(releases):
    """Frozen reference: the attack over frozensets of row ids, one per class.
    Returns the report's rate, trial count and details."""
    member_sets = []
    for r in releases:
        ids = np.asarray(r.table.row_ids)
        by_rid = {}
        for members in r.partition:
            group_ids = frozenset(int(ids[i]) for i in members)
            for i in members:
                by_rid[int(ids[i])] = group_ids
        member_sets.append(by_rid)
    effective = {}
    for rid in sorted(member_sets[0]):
        cls = set(member_sets[0][rid])
        for by_rid in member_sets[1:]:
            cls &= by_rid[rid]
        effective[rid] = len(cls)
    sizes = list(effective.values())
    singletons = sum(1 for s in sizes if s == 1)
    return singletons / len(sizes), len(sizes), {
        "n_releases": len(releases),
        "min_effective_anonymity": min(sizes),
        "mean_effective_anonymity": float(np.mean(sizes)),
        "per_record_effective": {str(r): s for r, s in effective.items()},
    }


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_intersection_matches_frozen_frozenset_oracle(data):
    n = data.draw(st.integers(1, 24))
    ids = data.draw(st.lists(st.integers(0, 10**6), min_size=n, max_size=n, unique=True))
    schema = (AttributeSchema("x", "quasi_identifier", NumericKind(0, 1)),)
    releases = []
    for _ in range(data.draw(st.integers(2, 4))):
        # each release lists the records in its own row order
        order = data.draw(st.permutations(ids))
        groups = {}
        for row, label in enumerate(data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))):
            groups.setdefault(label, []).append(row)
        table = make_table(schema, {"x": [0.0] * n}, row_ids=order)
        releases.append(AnonymizedRelease(table, list(groups.values()), Provenance("t", {}, 0)))
    report = intersection_attack(releases)
    assert (report.success_rate, report.trials, report.details) == _oracle_intersection_attack(releases)
    assert report.to_json() == json.loads(json.dumps(report.to_json()))


# -- downcoding -------------------------------------------------------------------


X_HIERARCHY = GeneralizationHierarchy.from_breakpoints("x", 1, 10, [[6]])
X_SCHEMA = (AttributeSchema("x", "quasi_identifier", NumericKind(1, 10)),)


def _minimal_release(values, k=2):
    table = make_table(X_SCHEMA, {"x": [float(v) for v in values]})
    release, scheme = minimal_generalization(table, {"x": X_HIERARCHY}, k=k)
    return release, scheme


def test_downcoding_recovers_from_minimality():
    release, scheme = _minimal_release([1, 1, 2, 6, 9])
    assert scheme.cell_levels == ((0,), (0,), (2,), (2,), (2,))
    report = downcoding_attack(release, {"x": X_HIERARCHY})
    assert report.success_rate == 1.0  # every generalized cell narrows
    assert report.trials == 3
    for cell in report.details["cells"]:
        assert cell["released"] == "[1,10]"
        assert cell["n_leaves"] == 10
        # leaf 1 cannot survive: releasing it at level 0 would keep 2-anonymity
        assert cell["inferred"] == [float(v) for v in range(2, 11)]
        assert cell["narrowed"]


def test_downcoding_soundness_true_value_survives():
    release, _ = _minimal_release([1, 1, 2, 6, 9])
    report = downcoding_attack(release, {"x": X_HIERARCHY})
    truth = {c["row_id"]: v for c, v in zip(report.details["cells"], [2.0, 6.0, 9.0])}
    for cell in report.details["cells"]:
        assert truth[cell["row_id"]] in cell["inferred"]


def test_downcoding_finds_nothing_when_levels_balance():
    release, scheme = _minimal_release([1, 2, 9, 10])
    assert scheme.cell_levels == ((1,), (1,), (1,), (1,))
    report = downcoding_attack(release, {"x": X_HIERARCHY})
    assert report.success_rate == 0.0
    assert all(not cell["narrowed"] for cell in report.details["cells"])


def test_downcoding_rejects_other_mechanisms(people_table):
    release = cluster_and_permute(people_table, ["age", "zip", "height"], k=5, rng_seed=0)
    with pytest.raises(NotMinimalMechanism):
        downcoding_attack(release, {"x": X_HIERARCHY})


@settings(max_examples=30, deadline=None)
@given(
    values=st.lists(st.integers(1, 10), min_size=2, max_size=7),
    k=st.integers(2, 3),
)
def test_downcoding_soundness_property(values, k):
    from sdckit import Unsatisfiable

    table = make_table(X_SCHEMA, {"x": [float(v) for v in values]})
    try:
        release, _ = minimal_generalization(table, {"x": X_HIERARCHY}, k=k)
    except Unsatisfiable:
        return
    report = downcoding_attack(release, {"x": X_HIERARCHY})
    truth = {int(r): float(v) for r, v in zip(table.row_ids, table.columns["x"])}
    for cell in report.details["cells"]:
        assert truth[cell["row_id"]] in cell["inferred"]
        assert 0 < len(cell["inferred"]) <= cell["n_leaves"]


# -- serialization ----------------------------------------------------------------


def test_attack_reports_serialize_to_json():
    t = build_numeric_table(seed=1, n=8)
    release = AnonymizedRelease(table=t, partition=None, provenance=Provenance("identity", {}, 0))
    report = linkage_attack(release, t, trials=2, rng_seed=0)
    doc = json.loads(json.dumps(report.to_json()))
    assert doc["attack"] == "linkage"
    assert doc["success_rate"] == 1.0

    release2, _ = _minimal_release([1, 1, 2, 6, 9])
    doc2 = json.loads(json.dumps(downcoding_attack(release2, {"x": X_HIERARCHY}).to_json()))
    assert doc2["details"]["cells"][0]["inferred"] == [float(v) for v in range(2, 11)]

    # details are built JSON-native: plain json.dumps takes them and they read back equal
    table, skewed = _skew_instance()
    rows = _grid_release([0, 0, 0, 1, 1, 1, 2, 2, 2], ((0, 1, 2), (3, 4, 5), (6, 7, 8)))
    cols = _grid_release([0, 1, 2, 0, 1, 2, 0, 1, 2], ((0, 3, 6), (1, 4, 7), (2, 5, 8)))
    mech = laplace_query_mechanism(THRESHOLD_QUERY, SCHEMA_V, 1.0)
    for report in (
        report,
        attribute_inference_attack(skewed, "s", table),
        intersection_attack([rows, cols]),
        membership_inference_attack(mech, WITH_TARGET, WITHOUT_TARGET, trials=200, calibration=200, rng_seed=2),
    ):
        doc = report.to_json()
        assert json.loads(json.dumps(doc)) == doc
