"""Permutation and anatomy releases, plus the empirical linkage-rate verifier."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdckit import (
    AnonymizedRelease,
    AttributeSchema,
    CategoricalKind,
    GroupTooSmall,
    NumericKind,
    Provenance,
    anatomize,
    cluster_and_permute,
    link_records,
    mdav_microaggregate,
    mdav_partition,
    verify_probabilistic_k,
)
from sdckit.microdata import as_table, make_table
from sdckit.seeds import derive_rng, derive_seed

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
    with pytest.raises(GroupTooSmall, match="smallest group has 2 records, below k=5"):
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
    # the error names the smallest group, not the first one below k
    with pytest.raises(GroupTooSmall, match="smallest group has 2 records, below k=5"):
        anatomize(people_table, [(0, 1, 2), (3, 4), tuple(range(5, 30))], k=5, rng_seed=0)
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
    # a factory is checked by Monte Carlo, which needs at least one trial
    with pytest.raises(ValueError):
        verify_probabilistic_k(lambda s: identity, ext, k=2, trials=0)


def test_verifier_names_an_empty_external_table():
    ext = build_numeric_table(seed=0, n=6)
    identity = AnonymizedRelease(table=ext, partition=None, provenance=Provenance("identity", {}, 0))
    for release in (identity, lambda s: identity):
        with pytest.raises(ValueError, match="external table is empty"):
            verify_probabilistic_k(release, ext.take([]), k=2, trials=3)


# -- the closed form against Monte Carlo ------------------------------------------

MC_TRIALS = 3000


def _coarse_people(seed, n):
    """People rows with age in 20-year bands and one height: QI vectors repeat."""
    table = build_people_table(seed=seed, n=n)
    table = table.with_column("age", np.floor(table.columns["age"] / 20) * 20)
    return table.with_column("height", np.full(n, 120.0))


def _permuted(table, k, seed, external=None):
    """(release, factory, external table) for vector-mode permutation of ``table``."""
    qi = list(table.qi_names)
    partition = mdav_partition(table, qi, k)
    factory = lambda s: cluster_and_permute(table, qi, k, s, partition=partition)
    return factory(seed), factory, table if external is None else external


def _duplicate_heavy():
    return _permuted(_coarse_people(1, 40), 5, 11)


def _row_missing_from_release():
    # rows 36..39 are not published; their vectors still occur in the release
    table = _coarse_people(2, 40)
    return _permuted(table.take(range(36)), 4, 12, external=table)


def _tiny_gap():
    # x is symmetric about 0, so its z-scores keep 0 and 1e-200 apart, yet
    # their squared gap is 0: every row is scanned, and rows at either value
    # have two nearest vectors
    rng = np.random.default_rng(3)
    schema = (
        AttributeSchema("x", "quasi_identifier", NumericKind(-1, 1)),
        AttributeSchema("zip", "quasi_identifier", CategoricalKind(("a", "b"))),
    )
    x = rng.permutation(np.repeat([-0.5, 0.0, 1e-200, 0.5], 6))
    table = make_table(schema, {"x": x, "zip": rng.choice(["a", "b"], 24)})
    return _permuted(table, 4, 13)


def _fixed_release():
    table = build_people_table(seed=4, n=40)
    _, release = mdav_microaggregate(table, list(table.qi_names), 3)
    return release, lambda s: release, table


def _monte_carlo_rates(factory, external, trials, seed):
    """Per-record linkage success frequencies: each of ``trials`` draws of the
    factory linked once by ``link_records``, with its own tie stream."""
    ext_ids = np.asarray(external.row_ids)
    successes = np.zeros(external.n_rows)
    for t in range(trials):
        rel = as_table(factory(derive_seed(seed, "trial", t, 0)))
        successes += np.asarray(rel.row_ids)[link_records(rel, external, derive_rng(seed, "attack", t))] == ext_ids
    return successes / trials


@pytest.mark.parametrize("case", [_duplicate_heavy, _row_missing_from_release, _tiny_gap, _fixed_release])
def test_closed_form_matches_monte_carlo(case):
    release, factory, external = case()
    exact = verify_probabilistic_k(release, external, k=5)
    assert exact.trials == 0
    assert list(exact.per_record_rates) == [int(r) for r in external.row_ids]
    p = np.array(list(exact.per_record_rates.values()))
    rate = _monte_carlo_rates(factory, external, MC_TRIALS, 5)
    # at p = 0 or 1 the trials must agree exactly
    assert np.all(np.abs(rate - p) <= 4.5 * np.sqrt(p * (1 - p) / MC_TRIALS) + 1e-12)
    assert exact.wilson_interval == (exact.max_record_rate, exact.max_record_rate)
    assert exact.max_record_rate == p.max() > 0


def test_closed_form_for_duplicates_and_unpublished_rows():
    release, _, table = _duplicate_heavy()
    p = np.array(list(verify_probabilistic_k(release, table, k=5).per_record_rates.values()))
    assert p.max() == pytest.approx(0.2)
    assert len(set(p.tolist())) > 2  # tied vectors give rates other than 1/|g|

    release, _, table = _row_missing_from_release()
    report = verify_probabilistic_k(release, table, k=4)
    assert [report.per_record_rates[int(r)] for r in table.row_ids[36:]] == [0.0] * 4


def test_probabilistic_k_gate_at_n400():
    k = 5
    table = build_people_table(seed=8, n=400)
    qi = list(table.qi_names)
    honest, _, _ = _permuted(table, k, 21)
    report = verify_probabilistic_k(honest, table, k)
    assert report.passed and report.max_record_rate == pytest.approx(1 / k)

    identity = AnonymizedRelease(table.drop_columns(["pid"]), None, Provenance("identity", {}, 0))
    report = verify_probabilistic_k(identity, table, k)
    assert not report.passed and report.max_record_rate == 1.0

    small, factory, _ = _permuted(table, k - 1, 22)
    report = verify_probabilistic_k(small, table, k)
    assert not report.passed and report.max_record_rate == pytest.approx(1 / (k - 1))
    assert not verify_probabilistic_k(factory, table, k, trials=100, rng_seed=1).passed


def test_release_that_moves_only_some_shared_qis_needs_a_factory():
    k = 5
    table = build_people_table(seed=8, n=200)
    qi = list(table.qi_names)
    # zip stays with its row, so the multiset of shared QI vectors changes
    # from draw to draw and no single published draw gives the linkage rates
    partial = cluster_and_permute(table, ["age", "height"], k, 1)
    with pytest.raises(ValueError, match="factory"):
        verify_probabilistic_k(partial, table, k)
    per_attribute = cluster_and_permute(table, qi, k, 1, mode="per_attribute")
    with pytest.raises(ValueError, match="factory"):
        verify_probabilistic_k(per_attribute, table, k)
    # re-drawn, the partial permutation links some record to its own row far
    # above 1/k: its zip is unique in its group
    factory = lambda s: cluster_and_permute(table, ["age", "height"], k, s, partition=partial.partition)
    assert verify_probabilistic_k(factory, table, k, trials=200, rng_seed=2).max_record_rate > 0.5
    # a permuted QI that the external table does not hold does no harm
    full = cluster_and_permute(table, qi, k, 1)
    assert verify_probabilistic_k(full, table.drop_columns(["zip"]), k).passed
