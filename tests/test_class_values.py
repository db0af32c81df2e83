"""One class-distribution model: ``ClassValues`` against frozen copies of the
three readers it replaced (the t-closeness check, class merging and attribute
inference), which each turned the confidential column into distributions on
their own."""

import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdckit import (
    AttributeSchema,
    CategoricalKind,
    EmptyClass,
    GeneralizationHierarchy,
    Infeasible,
    InvalidT,
    Misaligned,
    NumericKind,
    anatomize,
    anonymize_generalization,
    attribute_inference_attack,
    enforce_models,
    verify_t_closeness,
)
from sdckit.attacks import AttackReport, wilson_interval
from sdckit.confmodels import (
    CATEGORICAL_UNIFORM,
    ORDERED_NUMERIC,
    ClassValues,
    Distribution,
    emd,
    l_diversity,
)
from sdckit.kanon import mdav_partition, microaggregate_partition
from sdckit.metric import MixedSpace
from sdckit.microdata import Partition, as_table, make_table

# --------------------------------------------------------------------------
# frozen references: the readers as they were before ClassValues
# --------------------------------------------------------------------------


def _oracle_class_distributions(table, partition, conf_attribute):
    attr = table.attribute(conf_attribute)
    col = table.columns[conf_attribute]
    values = [float(v) for v in col] if attr.is_numeric else [str(v) for v in col]
    support = sorted(set(values))
    global_dist = Distribution.from_values(values, support)
    per_class = []
    for group in partition:
        per_class.append(Distribution.from_values([values[i] for i in group], support))
    return global_dist, per_class, attr.is_numeric


def _oracle_verify_t_closeness(release_or_table, partition, conf_attribute, t, d=None):
    if t < 0:
        raise InvalidT("closeness threshold t must be nonnegative")
    table = as_table(release_or_table)
    partition = Partition(partition)
    global_dist, per_class, numeric = _oracle_class_distributions(table, partition, conf_attribute)
    if d is None:
        d = ORDERED_NUMERIC if numeric else CATEGORICAL_UNIFORM
    worst = max((emd(c, global_dist, d) for c in per_class), default=0.0)
    return worst <= t, worst


def _oracle_enforce_models(table, qi_attributes, conf_attribute, k, l=None, t=None, variant="distinct", d=None):
    table.attribute(conf_attribute)
    partition = [list(g) for g in mdav_partition(table, qi_attributes, k)]
    (space,) = MixedSpace.from_tables([table], list(qi_attributes))
    conf_col = table.columns[conf_attribute]
    conf_attr = table.attribute(conf_attribute)
    conf_values = [float(v) for v in conf_col] if conf_attr.is_numeric else [str(v) for v in conf_col]
    support = sorted(set(conf_values))
    global_dist = Distribution.from_values(conf_values, support)
    if d is None:
        d = ORDERED_NUMERIC if conf_attr.is_numeric else CATEGORICAL_UNIFORM

    def failing_constraint(group):
        if len(group) < k:
            return "k_anonymity"
        cls = [conf_values[i] for i in group]
        if l is not None and l_diversity(cls, variant) < l:
            return "l_diversity"
        if t is not None:
            dist = emd(Distribution.from_values(cls, support), global_dist, d)
            if dist > t:
                return "t_closeness"
        return None

    while True:
        violation = None
        for gi, group in enumerate(partition):
            constraint = failing_constraint(group)
            if constraint:
                violation = (gi, constraint)
                break
        if violation is None:
            return Partition(partition)
        gi, constraint = violation
        if len(partition) == 1:
            raise Infeasible(constraint, f"single remaining class of {len(partition[0])} records still fails")
        centroids = [space.centroid(np.asarray(g, dtype=np.int64)) for g in partition]
        nums, codes = (list(np.ascontiguousarray(np.stack(block).T)) for block in zip(*centroids))
        dist = MixedSpace(len(centroids), nums, codes).sq_dist_to(centroids[gi])
        dist[gi] = np.inf
        gj = int(np.argmin(dist))
        merged = sorted(partition[gi] + partition[gj])
        partition = [g for idx, g in enumerate(partition) if idx not in (gi, gj)]
        partition.append(merged)
        partition = [list(g) for g in Partition(partition)]


def _oracle_attribute_inference(release, conf_attribute, true_table):
    conf_table, classes = release.class_table(conf_attribute)
    rel_values = conf_table.columns[conf_attribute]
    row_ids = release.table.row_ids
    class_of = {int(row_ids[i]): j for j, members in enumerate(release.partition) for i in members}
    per_class = [[rel_values[i] for i in members] for members in classes]
    global_values = list(rel_values)
    truth = {int(r): v for r, v in zip(true_table.row_ids, true_table.columns[conf_attribute])}
    missing = [r for r in truth if r not in class_of]
    if missing:
        raise Misaligned(f"row id {missing[0]} has no class in the release")

    def mass(values, target):
        if not values:
            return 0.0
        key = str(target)
        return sum(1 for v in values if str(v) == key) / len(values)

    numeric = true_table.attribute(conf_attribute).is_numeric
    ground = ORDERED_NUMERIC if numeric else CATEGORICAL_UNIFORM
    support = sorted(set(float(v) for v in global_values)) if numeric else sorted(
        set(str(v) for v in global_values)
    )
    global_dist = Distribution.from_values(
        [float(v) if numeric else str(v) for v in global_values], support=support
    )
    class_emds = []
    for values in per_class:
        d = Distribution.from_values([float(v) if numeric else str(v) for v in values], support=support)
        class_emds.append(emd(d, global_dist, ground))

    priors, posteriors, gains = [], [], []
    for rid, true_value in truth.items():
        prior = mass(global_values, true_value)
        posterior = mass(per_class[class_of[rid]], true_value)
        priors.append(prior)
        posteriors.append(posterior)
        gains.append(posterior - prior)
    n = len(truth)
    return AttackReport(
        attack="attribute_inference",
        success_rate=float(np.mean(posteriors)),
        wilson=wilson_interval(int(round(sum(posteriors))), n),
        trials=n,
        baseline=float(np.mean(priors)),
        details={
            "mean_prior": float(np.mean(priors)),
            "mean_posterior": float(np.mean(posteriors)),
            "max_gain": float(max(gains)),
            "mean_gain": float(np.mean(gains)),
            "worst_class_emd": float(max(class_emds)),
            "per_class_emd": [float(e) for e in class_emds],
            "per_record": [
                {"row_id": rid, "prior": p, "posterior": q, "gain": g}
                for rid, p, q, g in zip(truth.keys(), priors, posteriors, gains)
            ],
        },
    )


# --------------------------------------------------------------------------
# random tables
# --------------------------------------------------------------------------

ZIPS = ("a", "b", "c")
# few distinct values, so classes repeat them; -0.0 is left out on purpose
# (see test_negative_zero_counts_as_zero_in_attribute_inference)
NUMERIC_SECRETS = (-2.5, -1.0, 0.0, 0.5, 1.0, 3.0, 40.0)
TEXT_SECRETS = ("flu", "cold", "asthma", "10", "9")


def _table(ages, zips, secrets, numeric):
    conf_kind = NumericKind(-100, 100) if numeric else CategoricalKind(TEXT_SECRETS)
    schema = (
        AttributeSchema("age", "quasi_identifier", NumericKind(0, 99)),
        AttributeSchema("zip", "quasi_identifier", CategoricalKind(ZIPS)),
        AttributeSchema("secret", "confidential", conf_kind),
    )
    return make_table(schema, {"age": ages, "zip": zips, "secret": secrets})


@st.composite
def tables_and_partitions(draw):
    n = draw(st.integers(2, 24))
    numeric = draw(st.booleans())
    ages = draw(st.lists(st.integers(18, 30).map(float), min_size=n, max_size=n))
    zips = draw(st.lists(st.sampled_from(ZIPS), min_size=n, max_size=n))
    pool = NUMERIC_SECRETS if numeric else TEXT_SECRETS
    secrets = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    labels = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    groups = {}
    for i, g in enumerate(labels):
        groups.setdefault(g, []).append(i)
    return _table(ages, zips, secrets, numeric), Partition(groups.values())


def _same_report(new, old):
    assert json.dumps(new.to_json(), sort_keys=True) == json.dumps(old.to_json(), sort_keys=True)


@settings(max_examples=150, deadline=None)
@given(tables_and_partitions(), st.sampled_from([None, ORDERED_NUMERIC, CATEGORICAL_UNIFORM]))
def test_verify_t_closeness_matches_frozen_reader(inputs, d):
    table, partition = inputs
    if d is ORDERED_NUMERIC and not table.attribute("secret").is_numeric:
        d = None  # ordered ground distances need numeric support
    for t in (0.0, 0.2, 1.0):
        assert verify_t_closeness(table, partition, "secret", t, d) == _oracle_verify_t_closeness(
            table, partition, "secret", t, d
        )


@settings(max_examples=80, deadline=None)
@given(
    tables_and_partitions(),
    st.integers(2, 4),
    st.sampled_from([None, 1.5, 2.0, 3.0]),
    st.sampled_from([None, 0.05, 0.2, 0.5]),
    st.sampled_from(["distinct", "entropy"]),
)
def test_enforce_models_matches_frozen_merging(inputs, k, l, t, variant):
    table, _ = inputs
    args = (table, ["age", "zip"], "secret", min(k, table.n_rows), l, t, variant)
    try:
        expected = _oracle_enforce_models(*args)
    except Infeasible as e:
        with pytest.raises(Infeasible) as got:
            enforce_models(*args)
        assert str(got.value) == str(e)
        return
    assert enforce_models(*args) == expected


@settings(max_examples=120, deadline=None)
@given(tables_and_partitions(), st.booleans())
def test_attribute_inference_matches_frozen_attack(inputs, anatomy):
    table, partition = inputs
    if anatomy:
        release = anatomize(table, partition, 1, rng_seed=3)
    else:
        release = microaggregate_partition(table, ["age", "zip"], partition, params={})
    report = attribute_inference_attack(release, "secret", table)
    _same_report(report, _oracle_attribute_inference(release, "secret", table))
    conf_table, classes = release.class_table("secret")
    _, worst = verify_t_closeness(conf_table, classes, "secret", 1.0)
    assert report.details["worst_class_emd"] == worst


@settings(max_examples=60, deadline=None)
@given(tables_and_partitions(), st.integers(2, 4))
def test_attribute_inference_skips_suppressed_records_like_a_restricted_table(inputs, k):
    table, _ = inputs
    table = table.drop_columns(["zip"])
    h = GeneralizationHierarchy.from_breakpoints("age", 0, 99, [[20, 22, 24, 26, 28, 30], [24, 28]])
    release, scheme = anonymize_generalization(table, {"age": h}, min(k, table.n_rows), 0.4)
    published = np.isin(table.row_ids, release.table.row_ids)
    expected = _oracle_attribute_inference(release, "secret", table.take(np.flatnonzero(published)))
    report = attribute_inference_attack(release, "secret", table)
    _same_report(report, expected)
    assert table.n_rows - report.trials == len(scheme.suppressed_row_ids)


def test_class_values_reads_one_column_both_ways():
    table = _table([20.0] * 4, ["a"] * 4, [3.0, 0.5, 3.0, -1.0], numeric=True)
    values = ClassValues.of(table, "secret")
    assert np.asarray(values.support)[values.codes].tolist() == [3.0, 0.5, 3.0, -1.0]
    assert values.support == (-1.0, 0.5, 3.0)
    assert values.ground == ORDERED_NUMERIC
    assert values.overall == Distribution((-1.0, 0.5, 3.0), (0.25, 0.25, 0.5))
    (_, masses), = values.class_masses([[0, 2]])
    assert Distribution(values.support, tuple(masses[0].tolist())) == Distribution((-1.0, 0.5, 3.0), (0.0, 0.0, 1.0))
    # the cdf differences are 0.25 and 0.5 over two rank steps
    assert values.distance([0, 2]) == pytest.approx(0.375)
    assert ClassValues.of(table, "secret", CATEGORICAL_UNIFORM).distance([0, 2]) == pytest.approx(0.5)

    text = _table([20.0] * 3, ["a"] * 3, ["10", "9", "10"], numeric=False)
    values = ClassValues.of(text, "secret")
    assert values.support == ("10", "9")
    assert values.ground == CATEGORICAL_UNIFORM


@settings(max_examples=100, deadline=None)
@given(st.booleans(), st.lists(st.integers(0, 4), min_size=1, max_size=30))
def test_overall_is_the_distribution_of_the_column(numeric, picks):
    pool = (0.0, -0.0, 3.0, -2.5, 40.0) if numeric else TEXT_SECRETS
    table = _table([20.0] * len(picks), ["a"] * len(picks), [pool[i] for i in picks], numeric)
    values = ClassValues.of(table, "secret")
    assert values.overall == Distribution.from_values(table.columns["secret"].tolist())
    assert values.support == values.overall.support
    with pytest.raises(EmptyClass):
        ClassValues.of(table.take([]), "secret")


def test_negative_zero_counts_as_zero_in_attribute_inference():
    # The replaced attack matched a record's value by its text, so -0.0 and
    # 0.0 were different values for the prior and the posterior while the
    # class EMD already merged them. Values now compare as numbers throughout.
    table = _table([20.0, 21.0, 25.0, 26.0], ["a"] * 4, [0.0, -0.0, 1.0, 1.0], numeric=True)
    release = microaggregate_partition(table, ["age", "zip"], ((0, 1), (2, 3)), params={})
    new = attribute_inference_attack(release, "secret", table)
    old = _oracle_attribute_inference(release, "secret", table)
    assert [r["posterior"] for r in new.details["per_record"]] == [1.0, 1.0, 1.0, 1.0]
    assert [r["prior"] for r in new.details["per_record"]] == [0.5, 0.5, 0.5, 0.5]
    assert [r["posterior"] for r in old.details["per_record"]] == [0.5, 0.5, 1.0, 1.0]
    assert [r["prior"] for r in old.details["per_record"]] == [0.25, 0.25, 0.5, 0.5]
    assert new.details["per_class_emd"] == old.details["per_class_emd"] == [0.5, 0.5]
    assert Counter(str(v) for v in table.columns["secret"]) == {"0.0": 1, "-0.0": 1, "1.0": 2}
    assert math.copysign(1.0, table.columns["secret"][1]) == -1.0
