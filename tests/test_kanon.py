from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdckit import (
    AttributeSchema,
    CategoricalKind,
    GeneralizationHierarchy,
    NumericKind,
    anonymize_generalization,
    make_table,
    mdav_microaggregate,
    mdav_partition,
    microaggregate_partition,
    minimal_generalization,
    sse,
    verify_k_anonymity,
)
from sdckit.errors import (
    SearchSpaceTooLarge,
    TooFewRows,
    Unsatisfiable,
    UnknownAttribute,
)

from sdckit.kanon import cell_is_minimal

from conftest import build_numeric_table, build_people_table

ZIP_TREE = {"*": {"4300*": {"43007": None, "43008": None}, "0800*": {"08001": None}}}


def _x_table(values, lo=1, hi=10):
    schema = (AttributeSchema("x", "quasi_identifier", NumericKind(lo, hi)),)
    return make_table(schema, {"x": np.asarray(values, dtype=float)})


def _x_hierarchy():
    return {"x": GeneralizationHierarchy.from_breakpoints("x", 1, 10, [[6]])}


# -- verification ----------------------------------------------------------------


def test_verify_k_anonymity_counts():
    t = _x_table([1, 1, 2, 2, 2])
    holds, counts = verify_k_anonymity(t, ["x"], 2)
    assert holds and counts == {("1",): 2, ("2",): 3}
    holds3, _ = verify_k_anonymity(t, ["x"], 3)
    assert not holds3
    with pytest.raises(UnknownAttribute):
        verify_k_anonymity(t, ["y"], 2)


# -- MDAV ---------------------------------------------------------------------


def test_mdav_small_remainder_goes_to_one_group():
    t = _x_table([0, 0, 10, 10, 5], lo=0, hi=10)
    assert mdav_partition(t, ["x"], 2) == ((0, 1), (2, 3, 4))


def test_mdav_seven_rows_k3_sizes():
    t = build_numeric_table(seed=5, n=7)
    sizes = sorted(len(g) for g in mdav_partition(t, t.qi_names, 3))
    assert sizes == [3, 4]


def test_mdav_rejects_degenerate_inputs(numeric_table):
    with pytest.raises(ValueError):
        mdav_partition(numeric_table, numeric_table.qi_names, 1)
    with pytest.raises(TooFewRows):
        mdav_partition(numeric_table.take([0, 1]), numeric_table.qi_names, 3)
    with pytest.raises(UnknownAttribute):
        mdav_partition(numeric_table, [], 2)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(4, 40), st.integers(2, 5))
def test_mdav_partition_invariants(seed, n, k):
    if n < k:
        n = k
    t = build_numeric_table(seed=seed, n=n)
    part = mdav_partition(t, t.qi_names, k)
    members = sorted(i for g in part for i in g)
    assert members == list(range(n))
    assert all(k <= len(g) <= 2 * k - 1 for g in part)
    # deterministic
    assert part == mdav_partition(t, t.qi_names, k)


def test_mdav_handles_categorical_qis(people_table):
    part = mdav_partition(people_table, people_table.qi_names, 4)
    assert all(4 <= len(g) <= 7 for g in part)


def test_microaggregate_masks_with_centroids():
    t = _x_table([1, 2, 9, 10])
    release = microaggregate_partition(t, ["x"], ((0, 1), (2, 3)))
    assert list(release.table.columns["x"]) == [1.5, 1.5, 9.5, 9.5]
    holds, _ = verify_k_anonymity(release, ["x"], 2)
    assert holds


def test_microaggregate_categorical_mode_breaks_ties_lexicographically():
    schema = (AttributeSchema("c", "quasi_identifier", CategoricalKind(("a", "b"))),)
    t = make_table(schema, {"c": ["b", "a", "a", "b"]})
    release = microaggregate_partition(t, ["c"], ((0, 1, 2, 3),))
    assert set(release.table.columns["c"]) == {"a"}


def test_mdav_microaggregate_end_to_end(numeric_table):
    partition, release = mdav_microaggregate(numeric_table, numeric_table.qi_names, 5)
    holds, counts = verify_k_anonymity(release, numeric_table.qi_names, 5)
    assert holds
    assert min(counts.values()) >= 5
    assert release.provenance.mechanism == "mdav"
    assert release.partition == partition


# -- squared error ---------------------------------------------------------------


def test_sse_of_pairwise_means_is_one():
    t = _x_table([1, 2, 9, 10])
    release = microaggregate_partition(t, ["x"], ((0, 1), (2, 3)))
    assert sse(t, release, ["x"], standardize=False) == pytest.approx(1.0, abs=1e-12)


def test_sse_of_global_mean_equals_n_times_variance(numeric_table):
    qi = list(numeric_table.qi_names)
    n = numeric_table.n_rows
    release = microaggregate_partition(numeric_table, qi, (tuple(range(n)),))
    total_var = sum(float(np.var(numeric_table.columns[c].astype(float))) for c in qi)
    assert sse(numeric_table, release, qi, standardize=False) == pytest.approx(n * total_var, rel=1e-12)
    # standardized: every column contributes exactly n
    assert sse(numeric_table, release, qi, standardize=True) == pytest.approx(n * len(qi), rel=1e-12)


def test_sse_zero_for_identity(numeric_table):
    assert sse(numeric_table, numeric_table, numeric_table.qi_names) == 0.0


# -- global recoding with suppression budget -------------------------------------


def _zip_table(values):
    schema = (AttributeSchema("zip", "quasi_identifier", CategoricalKind(("43007", "43008", "08001"))),)
    return make_table(schema, {"zip": values})


def test_generalization_without_budget_climbs_to_the_root():
    t = _zip_table(["43007", "43008", "08001"])
    h = {"zip": GeneralizationHierarchy.from_tree("zip", ZIP_TREE)}
    release, scheme = anonymize_generalization(t, h, k=2, max_suppression_fraction=0.0)
    assert list(release.table.columns["zip"]) == ["*", "*", "*"]
    assert scheme.levels == {"zip": 2}
    assert scheme.suppressed_row_ids == ()


def test_generalization_with_budget_suppresses_the_outlier():
    t = _zip_table(["43007", "43008", "08001"])
    h = {"zip": GeneralizationHierarchy.from_tree("zip", ZIP_TREE)}
    release, scheme = anonymize_generalization(t, h, k=2, max_suppression_fraction=1 / 3)
    assert scheme.levels == {"zip": 1}
    assert scheme.suppressed_row_ids == (2,)
    assert list(release.table.columns["zip"]) == ["4300*", "4300*"]
    holds, _ = verify_k_anonymity(release, ["zip"], 2)
    assert holds


def test_generalization_unsatisfiable_when_even_root_fails():
    t = _zip_table(["43007"])
    h = {"zip": GeneralizationHierarchy.from_tree("zip", ZIP_TREE)}
    with pytest.raises(Unsatisfiable):
        anonymize_generalization(t, h, k=2)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(4, 16), st.integers(2, 3))
def test_generalization_releases_are_k_anonymous(seed, n, k):
    rng = np.random.default_rng(seed)
    t = _zip_table(rng.choice(["43007", "43008", "08001"], n))
    h = {"zip": GeneralizationHierarchy.from_tree("zip", ZIP_TREE)}
    release, scheme = anonymize_generalization(t, h, k=k, max_suppression_fraction=0.25)
    holds, _ = verify_k_anonymity(release, ["zip"], k)
    assert holds
    assert len(scheme.suppressed_row_ids) <= n // 4


# -- exhaustive cell-level recoding ----------------------------------------------


def test_minimal_generalization_pins_matching_rows():
    release, scheme = minimal_generalization(_x_table([1, 1, 2, 6, 9]), _x_hierarchy(), 2)
    assert scheme.cell_levels == ((0,), (0,), (2,), (2,), (2,))
    assert list(release.table.columns["x"]) == ["1", "1", "[1,10]", "[1,10]", "[1,10]"]
    assert release.provenance.mechanism == "minimal_generalization"


def test_minimal_generalization_prefers_low_levels():
    release, scheme = minimal_generalization(_x_table([1, 2, 9, 10]), _x_hierarchy(), 2)
    assert scheme.cell_levels == ((1,), (1,), (1,), (1,))
    assert list(release.table.columns["x"]) == ["[1,5]", "[1,5]", "[6,10]", "[6,10]"]


def test_minimal_generalization_unsatisfiable_and_guarded():
    with pytest.raises(Unsatisfiable):
        minimal_generalization(_x_table([1]), _x_hierarchy(), 2)
    # a 3**30-state lattice whose first state is 2-anonymous: the set-up takes
    # 30 rows x 3 levels = 90 row-states and the one state walked 30 more
    table = _x_table(list(range(1, 11)) * 3)
    _, scheme = minimal_generalization(table, _x_hierarchy(), 2, max_states=120)
    assert scheme.cell_levels == ((0,),) * 30
    for budget in (89, 119):  # the set-up, then the first state, passes the budget
        with pytest.raises(SearchSpaceTooLarge, match=f"^the search exceeds {budget} row-states for 30 rows x 1 "):
            minimal_generalization(table, _x_hierarchy(), 2, max_states=budget)


def test_cell_is_minimal_rule():
    row = ("[1,5]", "a")
    # an unchanged label is a free move
    assert not cell_is_minimal(Counter({row: 2}), row, 0, ["[1,5]"], 2)
    # leaving the old class empty and bringing the new one to exactly k is allowed
    assert not cell_is_minimal(Counter({row: 1, ("3", "a"): 1}), row, 0, ["3"], 2)
    # as is leaving exactly k behind
    assert not cell_is_minimal(Counter({row: 3, ("3", "a"): 1}), row, 0, ["3"], 2)
    # leaving 1..k-1 behind, or a new class below k, is not
    assert cell_is_minimal(Counter({row: 2, ("3", "a"): 1}), row, 0, ["3"], 2)
    assert cell_is_minimal(Counter({row: 3}), row, 0, ["3"], 2)
    # every lower label is tried; the other attribute stays as released
    assert not cell_is_minimal(Counter({row: 1, ("4", "a"): 2}), row, 0, ["3", "4"], 2)
    assert cell_is_minimal(Counter({row: 1, ("4", "b"): 2}), row, 0, ["3", "4"], 2)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(1, 10), min_size=2, max_size=6), st.integers(2, 3))
def test_minimal_generalization_is_k_anonymous_and_minimal(values, k):
    t = _x_table(values)
    h = _x_hierarchy()
    if len(values) < k:
        with pytest.raises(Unsatisfiable):
            minimal_generalization(t, h, k)
        return
    release, scheme = minimal_generalization(t, h, k)
    holds, _ = verify_k_anonymity(release, ["x"], k)
    assert holds
    # no generalized cell of the actual data may drop a level and stay k-anonymous
    labels = [(str(v),) for v in release.table.columns["x"]]
    for i, (level,) in enumerate(scheme.cell_levels):
        for lower in range(level):
            relabeled = list(labels)
            relabeled[i] = (h["x"].label(values[i], lower),)
            counts = Counter(relabeled)
            assert not all(c >= k for c in counts.values())
