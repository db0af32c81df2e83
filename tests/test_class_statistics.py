"""Per-class statistics as array reductions: microaggregation centroids, the
count matrix behind t-closeness and attribute inference, numeric marginals
and the SSE totals, each against a frozen copy of the per-class (or
per-call) code it replaced. The data use non-integer floats of varied
magnitude, -0.0 and groups of 1 to 48 rows, so that a different summation
order would show in the last bit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdckit import (
    AttributeSchema,
    CategoricalKind,
    NumericKind,
    anatomize,
    attribute_inference_attack,
    verify_t_closeness,
)
from sdckit import microdata
from sdckit.confmodels import (
    CATEGORICAL_UNIFORM,
    ORDERED_NUMERIC,
    ClassValues,
    Distribution,
    emd,
    emd_rows,
)
from sdckit.kanon import microaggregate_partition, sse, sse_totals
from sdckit.metric import column_stats, zscore
from sdckit.microdata import (
    AnonymizedRelease,
    Provenance,
    as_table,
    comparable_text,
    make_table,
    serialize_table,
    text_codes,
)
from sdckit.reporting import _marginal_distance

# --------------------------------------------------------------------------
# frozen references: the per-group and per-call code as it was
# --------------------------------------------------------------------------


def _oracle_microaggregate_partition(table, qi_attributes, partition, params=None):
    qi = list(qi_attributes)
    masked = table
    new_cols = {name: np.array(table.columns[name], dtype=table.columns[name].dtype) for name in qi}
    for group in partition:
        idx = np.asarray(group, dtype=np.int64)
        for name in qi:
            attr = table.attribute(name)
            col = table.columns[name]
            if attr.is_numeric:
                new_cols[name][idx] = float(col[idx].astype(float).mean())
            else:
                vals, counts = np.unique(col[idx].astype(str), return_counts=True)
                top = counts.max()
                mode = sorted(v for v, c in zip(vals, counts) if c == top)[0]
                new_cols[name][idx] = mode
    for name in qi:
        masked = masked.with_column(name, new_cols[name])
    masked = masked.drop_columns(masked.identifier_names)
    prov_params = {"k": None, "qi": qi}
    if params:
        prov_params.update(params)
    return AnonymizedRelease(
        table=masked, partition=partition, provenance=Provenance(mechanism="mdav", params=prov_params)
    )


def _oracle_emd(pm, qm, d):
    m = len(pm)
    if m == 1:
        return 0.0
    if d.kind == "categorical_uniform":
        return 0.5 * float(np.abs(pm - qm).sum())
    diff_cdf = np.cumsum(pm - qm)[:-1]
    return float(np.abs(diff_cdf).sum() / (m - 1))


def _oracle_marginal_distance(original, released, name):
    def distance(a, b, d):
        support = sorted(set(a) | set(b))
        p = Distribution.from_values(a, support=support)
        q = Distribution.from_values(b, support=support)
        pm, qm = dict(zip(p.support, p.mass)), dict(zip(q.support, q.mass))
        return _oracle_emd(
            np.asarray([pm.get(v, 0.0) for v in support]), np.asarray([qm.get(v, 0.0) for v in support]), d
        )

    if original.attribute(name).is_numeric and released.attribute(name).is_numeric:
        a = [float(v) for v in original.columns[name]]
        b = [float(v) for v in released.columns[name]]
        return distance(a, b, ORDERED_NUMERIC)
    a = list(comparable_text(original, name))
    b = list(comparable_text(released, name))
    return distance(a, b, CATEGORICAL_UNIFORM)


def _oracle_sse(table, release, qi_attributes, standardize=True):
    rel_table = as_table(release)
    pos_of = {int(rid): i for i, rid in enumerate(table.row_ids)}
    orig_rows = np.asarray([pos_of[int(rid)] for rid in rel_table.row_ids], dtype=np.int64)
    total = 0.0
    for name in qi_attributes:
        orig_col = table.columns[name][orig_rows]
        rel_col = rel_table.columns[name]
        if table.attribute(name).is_numeric and rel_table.attribute(name).is_numeric:
            o = orig_col.astype(float)
            r = rel_col.astype(float)
            if standardize:
                mean, std = column_stats([table.columns[name]])
                o = zscore(o, mean, std)
                r = zscore(r, mean, std)
            total += float(((o - r) ** 2).sum())
        else:
            o_text = comparable_text(table, name)[orig_rows]
            r_text = comparable_text(rel_table, name)
            total += float(np.count_nonzero(o_text != r_text))
    return total


# --------------------------------------------------------------------------
# tables
# --------------------------------------------------------------------------

BOUND = 1e6
LETTERS = ("b", "a", "c", "ab", "B", "a b")
SCHEMA = (
    AttributeSchema("x", "quasi_identifier", NumericKind(-BOUND, BOUND)),
    AttributeSchema("y", "quasi_identifier", NumericKind(-BOUND, BOUND)),
    AttributeSchema("c", "quasi_identifier", CategoricalKind(LETTERS)),
    AttributeSchema("s", "confidential", NumericKind(-BOUND, BOUND)),
    AttributeSchema("d", "confidential", CategoricalKind(LETTERS)),
)


def _bits(col) -> list[int]:
    return np.asarray(col, dtype=float).view(np.int64).tolist()


def _reals(rng, n):
    """Non-integer values of magnitudes 1e-6 to 1e5, about a tenth of them -0.0 or 0.0."""
    x = rng.normal(size=n) * 10.0 ** rng.integers(-6, 6, n)
    x[rng.random(n) < 0.05] = -0.0
    x[rng.random(n) < 0.05] = 0.0
    return x


def _letters(rng, n):
    """Text from one to three letters, so that groups often tie for the mode."""
    return rng.choice(rng.choice(LETTERS, rng.integers(1, 4), replace=False), n).tolist()


@st.composite
def partitioned_tables(draw, max_groups=10):
    """A table and a partition of it into groups of 1 to 48 rows, at least one
    of 40 or more, with the members of each group in random order."""
    sizes = draw(st.lists(st.integers(1, 48), max_size=max_groups)) + [draw(st.integers(40, 48))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rng.shuffle(sizes)
    order = rng.permutation(sum(sizes)).tolist()
    ends = np.cumsum(sizes).tolist()
    partition = tuple(tuple(order[end - size : end]) for size, end in zip(sizes, ends))
    n = len(order)
    secrets = _reals(rng, rng.integers(1, 9))  # few values, so classes repeat them
    cols = {"x": _reals(rng, n), "y": _reals(rng, n), "s": rng.choice(secrets, n)}
    cols.update(c=_letters(rng, n), d=_letters(rng, n))
    return make_table(SCHEMA, cols), partition


# --------------------------------------------------------------------------
# microaggregation
# --------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(partitioned_tables())
def test_microaggregate_matches_per_group_means_and_modes(inputs):
    table, partition = inputs
    qi = ["x", "c", "y"]
    new = microaggregate_partition(table, qi, partition, params={"k": 2})
    old = _oracle_microaggregate_partition(table, qi, partition, params={"k": 2})
    for name in ("x", "y"):
        assert _bits(new.table.columns[name]) == _bits(old.table.columns[name])
    assert [str(v) for v in new.table.columns["c"]] == [str(v) for v in old.table.columns["c"]]
    assert new.partition == old.partition
    assert new.provenance == old.provenance
    assert serialize_table(new.table) == serialize_table(old.table)


def test_microaggregate_sums_each_group_like_its_own_mean():
    # np.add.reduceat sums these six values to a different last bit than
    # the group's own mean(), which the centroid must equal
    values = [1.3, -1.3, 6.4, 1.0, -5.4, 3.6]
    assert np.add.reduceat(np.asarray(values), [0])[0] / 6 != np.mean(values)
    schema = (AttributeSchema("x", "quasi_identifier", NumericKind(-10, 10)),)
    table = make_table(schema, {"x": values + [0.5]})
    release = microaggregate_partition(table, ["x"], ((0, 1, 2, 3, 4, 5), (6,)))
    assert _bits(release.table.columns["x"]) == _bits([np.mean(values)] * 6 + [0.5])


# --------------------------------------------------------------------------
# the count matrix: t-closeness and attribute inference
# --------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(partitioned_tables(max_groups=6), st.sampled_from([1, 2, 5, 64, 1 << 17]))
def test_class_distances_match_per_class_emd_in_any_block_size(inputs, cells):
    table, partition = inputs
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(microdata, "_COUNT_CELLS", cells)
        for name, d in (("s", ORDERED_NUMERIC), ("s", CATEGORICAL_UNIFORM), ("d", CATEGORICAL_UNIFORM)):
            values = ClassValues.of(table, name, d)
            column = table.columns[name].tolist()
            old = [emd(Distribution.from_values([column[i] for i in g], values.support), values.overall, d)
                   for g in partition]
            assert values.distances(partition).tolist() == old
            assert verify_t_closeness(table, partition, name, 0.2, d)[1] == max(old)
            report = attribute_inference_attack(
                microaggregate_partition(table, ["x", "c"], partition, params={}), name, table
            )
            if d is ClassValues.of(table, name).ground:  # the attack's own
                assert report.details["per_class_emd"] == [
                    old[j] for j in np.argsort([min(g) for g in partition], kind="stable")
                ]


def test_class_checks_build_no_distribution_per_class(monkeypatch):
    n_classes = 50
    n = 4 * n_classes
    rng = np.random.default_rng(5)
    table = make_table(
        SCHEMA,
        {
            "x": rng.normal(size=n),
            "y": rng.normal(size=n),
            "c": rng.choice(LETTERS, n).tolist(),
            "s": rng.normal(size=n),
            "d": rng.choice(LETTERS, n).tolist(),
        },
    )
    partition = tuple(tuple(range(i, n, n_classes)) for i in range(n_classes))
    releases = [
        microaggregate_partition(table, ["x", "c"], partition, params={}),
        anatomize(table, partition, 4, rng_seed=1),
    ]
    overall = {name: Distribution.from_values(table.columns[name].tolist()) for name in ("s", "d")}
    built = []
    check = Distribution.__post_init__

    def counting(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(Distribution, "__post_init__", counting)
    for name in ("s", "d"):
        for release in releases:
            built.clear()
            conf_table, classes = release.class_table(name)
            assert len(classes) == n_classes
            verify_t_closeness(conf_table, classes, name, 0.3)
            attribute_inference_attack(release, name, table)
            # one distribution of the whole column per call, none per class
            assert built == [overall[name]] * 2


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda m: st.lists(
            st.lists(st.integers(0, 9), min_size=m, max_size=m).filter(any), min_size=1, max_size=8
        )
    ),
    st.sampled_from([ORDERED_NUMERIC, CATEGORICAL_UNIFORM]),
)
def test_emd_rows_is_the_one_row_formula_per_row(counts, d):
    counts = np.asarray(counts)
    masses = counts / counts.sum(axis=1, keepdims=True)
    q = masses[0]
    got = emd_rows(masses, q, d)
    assert [x.hex() for x in got.tolist()] == [_oracle_emd(p, q, d).hex() for p in masses]


def test_text_codes_number_text_and_numbers_as_np_unique():
    text = ["b", "a", "B", "b", "a b", "10", "9"]
    schema = (AttributeSchema("t", "quasi_identifier", CategoricalKind(tuple(sorted(set(text))))),)
    distinct, codes = text_codes(make_table(schema, {"t": text}), "t")
    want, want_codes = np.unique(np.asarray(text), return_inverse=True)
    assert distinct.tolist() == want.tolist() and codes.tolist() == want_codes.tolist()
    schema = (AttributeSchema("x", "quasi_identifier", NumericKind(-1, 3)),)
    distinct, codes = text_codes(make_table(schema, {"x": [2.5, -0.0, 0.0, -1.0, 2.5]}), "x")
    assert distinct.tolist() == ["-1", "0", "2.5"] and codes.tolist() == [2, 1, 1, 0, 2]


# --------------------------------------------------------------------------
# utility: numeric marginals and both SSE totals
# --------------------------------------------------------------------------


@st.composite
def table_pairs(draw):
    """An original table and a release of some of its rows: numeric ``x`` and
    ``y``, or ``x`` published as interval labels, as a generalized release does."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = int(rng.integers(1, 80))
    pool = _reals(rng, rng.integers(1, 2 * n))  # values shared between the two sides
    schema = (SCHEMA[0], SCHEMA[1], SCHEMA[2])
    original = make_table(schema, {"x": rng.choice(pool, n), "y": _reals(rng, n), "c": _letters(rng, n)})
    keep = np.sort(rng.choice(n, rng.integers(1, n + 1), replace=False))
    x, y = rng.choice(pool, keep.size), _reals(rng, keep.size)
    if draw(st.booleans()):
        labels = ("[0,1)", "[1,2)", "*", "0.5")
        x = [labels[int(abs(v)) % 4] for v in x]
        schema = (AttributeSchema("x", "quasi_identifier", CategoricalKind(labels)),) + schema[1:]
    cols = {"x": x, "y": y, "c": _letters(rng, keep.size)}
    return original, make_table(schema, cols, row_ids=original.row_ids[keep])


@settings(max_examples=120, deadline=None)
@given(table_pairs())
def test_marginal_distance_matches_frozen_copy(pair):
    original, released = pair
    for name in ("x", "y", "c"):
        got = _marginal_distance(original, released, name)
        assert got.hex() == _oracle_marginal_distance(original, released, name).hex()


@settings(max_examples=120, deadline=None)
@given(table_pairs())
def test_sse_totals_add_what_two_sse_calls_added(pair):
    original, released = pair
    qi = ["x", "c", "y"]
    raw, standardized = sse_totals(original, released, qi)
    assert raw.hex() == _oracle_sse(original, released, qi, standardize=False).hex()
    assert standardized.hex() == _oracle_sse(original, released, qi, standardize=True).hex()
    assert sse(original, released, qi, standardize=False) == raw
    assert sse(original, released, qi) == standardized
