"""Permutation and anatomy releases, plus the empirical linkage-rate verifier."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdckit import (
    AnonymizedRelease,
    GroupTooSmall,
    Provenance,
    anatomize,
    cluster_and_permute,
    mdav_partition,
    verify_probabilistic_k,
)

from conftest import build_numeric_table, build_people_table


def _column_multiset(table, name):
    return Counter(str(v) for v in table.columns[name])


# -- cluster_and_permute ----------------------------------------------------------


def test_permute_preserves_qi_marginals_and_confidential_positions(people_table):
    release = cluster_and_permute(people_table, ["age", "zip", "height"], k=5, rng_seed=1)
    for name in ("age", "zip", "height"):
        assert _column_multiset(release.table, name) == _column_multiset(people_table, name)
    assert [str(v) for v in release.table.columns["diagnosis"]] == [
        str(v) for v in people_table.columns["diagnosis"]
    ]
    assert "pid" not in release.table.names  # identifiers dropped
    assert all(len(g) >= 5 for g in release.partition)
    assert release.provenance.mechanism == "cluster_and_permute"
    assert release.provenance.params["mode"] == "vector"


def test_permute_vector_mode_moves_whole_rows(numeric_table):
    release = cluster_and_permute(numeric_table, ["a", "b", "c"], k=5, rng_seed=2)
    original_rows = {
        tuple(float(numeric_table.columns[n][i]) for n in "abc") for i in range(numeric_table.n_rows)
    }
    released_rows = {
        tuple(float(release.table.columns[n][i]) for n in "abc") for i in range(release.table.n_rows)
    }
    assert released_rows == original_rows


def test_permute_per_attribute_mode_preserves_each_marginal(numeric_table):
    release = cluster_and_permute(numeric_table, ["a", "b"], k=5, rng_seed=2, mode="per_attribute")
    for name in ("a", "b"):
        assert _column_multiset(release.table, name) == _column_multiset(numeric_table, name)
    # column c is not a permutation target here, so it stays in place
    assert np.array_equal(release.table.columns["c"], numeric_table.columns["c"])


def test_permute_only_moves_values_within_groups(numeric_table):
    release = cluster_and_permute(numeric_table, ["a"], k=5, rng_seed=9)
    for group in release.partition:
        idx = list(group)
        before = Counter(float(numeric_table.columns["a"][i]) for i in idx)
        after = Counter(float(release.table.columns["a"][i]) for i in idx)
        assert after == before


def test_permute_rejects_unknown_mode_and_small_partition(numeric_table):
    with pytest.raises(ValueError):
        cluster_and_permute(numeric_table, ["a"], k=2, rng_seed=0, mode="swap")
    with pytest.raises(GroupTooSmall):
        cluster_and_permute(
            numeric_table, ["a"], k=5, rng_seed=0, partition=[(0, 1), tuple(range(2, 30))]
        )


def test_permute_is_deterministic_in_seed(numeric_table):
    r1 = cluster_and_permute(numeric_table, ["a", "b", "c"], k=5, rng_seed=4)
    r2 = cluster_and_permute(numeric_table, ["a", "b", "c"], k=5, rng_seed=4)
    r3 = cluster_and_permute(numeric_table, ["a", "b", "c"], k=5, rng_seed=5)
    assert r1.table.equals(r2.table)
    assert not r1.table.equals(r3.table)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), k=st.integers(2, 6), mode=st.sampled_from(["vector", "per_attribute"]))
def test_permute_marginal_preservation_property(seed, k, mode):
    table = build_people_table(seed=seed % 17, n=4 * k)
    release = cluster_and_permute(table, ["age", "height"], k=k, rng_seed=seed, mode=mode)
    for name in ("age", "height"):
        assert _column_multiset(release.table, name) == _column_multiset(table, name)
    assert all(len(g) >= k for g in release.partition)


# -- anatomy ----------------------------------------------------------------------


def test_anatomize_splits_qi_and_confidential_sides(people_table):
    partition = mdav_partition(people_table, ["age", "zip", "height"], 5)
    release = anatomize(people_table, partition, k=5, rng_seed=3)

    assert release.table.names[0] == "group_id"
    # identifiers are never released; QI side carries everything else but the secret
    assert set(release.table.names) == {"group_id", "age", "zip", "height"}
    assert set(release.conf_table.names) == {"group_id", "diagnosis"}
    assert release.table.n_rows == release.conf_table.n_rows == people_table.n_rows

    # QI side keeps original values in place
    assert np.array_equal(release.table.columns["age"], people_table.columns["age"])

    # confidential side is a within-group shuffle: same multiset per group id
    gid_q = release.table.columns["group_id"]
    gid_c = release.conf_table.columns["group_id"]
    for gid, group in enumerate(partition):
        want = Counter(str(people_table.columns["diagnosis"][i]) for i in group)
        got = Counter(
            str(v) for v, g in zip(release.conf_table.columns["diagnosis"], gid_c) if g == gid
        )
        assert got == want
        assert int((gid_q == gid).sum()) == len(group)
    assert release.provenance.mechanism == "anatomy"


def test_permute_and_anatomy_publish_equal_class_multisets(people_table):
    partition = mdav_partition(people_table, ["age", "zip", "height"], 5)
    permuted = cluster_and_permute(people_table, ["age", "zip", "height"], 5, rng_seed=4, partition=partition)
    anatomy = anatomize(people_table, partition, k=5, rng_seed=4)

    def class_multisets(release):
        table, classes = release.class_table("diagnosis")
        values = table.columns["diagnosis"]
        return [Counter(str(values[i]) for i in members) for members in classes]

    assert permuted.partition == anatomy.partition
    assert class_multisets(permuted) == class_multisets(anatomy)


def test_anatomize_rejects_small_groups_and_bad_cover(people_table):
    with pytest.raises(GroupTooSmall):
        anatomize(people_table, [(0, 1), tuple(range(2, 30))], k=5, rng_seed=0)
    with pytest.raises(ValueError):
        anatomize(people_table, [tuple(range(10))], k=5, rng_seed=0)  # rows 10..29 missing


# -- verify_probabilistic_k -------------------------------------------------------


def test_verifier_passes_fresh_permutation_releases():
    ext = build_numeric_table(seed=7, n=10)
    factory = lambda seed: cluster_and_permute(ext, ["a", "b", "c"], k=5, rng_seed=seed)
    report = verify_probabilistic_k(factory, ext, k=5, trials=8000, rng_seed=3)
    assert report.passed
    assert report.bound == pytest.approx(0.2)
    assert report.wilson_interval[1] <= 0.22
    assert set(report.per_record_rates) == {int(i) for i in ext.row_ids}


def test_verifier_fails_identity_release():
    ext = build_numeric_table(seed=7, n=10)
    identity = AnonymizedRelease(table=ext, partition=None, provenance=Provenance("identity", {}, 0))
    report = verify_probabilistic_k(identity, ext, k=5, trials=50, rng_seed=0)
    assert not report.passed
    assert report.max_record_rate == pytest.approx(1.0)


def test_verifier_rejects_bad_k():
    ext = build_numeric_table(seed=0, n=6)
    identity = AnonymizedRelease(table=ext, partition=None, provenance=Provenance("identity", {}, 0))
    with pytest.raises(ValueError):
        verify_probabilistic_k(identity, ext, k=0, trials=10)
