"""The shared mixed-attribute metric against frozen copies of the per-module
distance code it replaced: dense record linkage and the single-table MDAV
space. Also checks that the probabilistic-k verifier and the linkage attack
run the same trials."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sdckit import (
    AttributeSchema,
    CategoricalKind,
    NumericKind,
    cluster_and_permute,
    link_records,
    linkage_attack,
    mdav_microaggregate,
    mdav_partition,
    verify_probabilistic_k,
)
from sdckit.metric import MixedSpace
from sdckit.microdata import canonical_number, canonical_partition, comparable_text, make_table
from sdckit.seeds import derive_rng

from conftest import build_people_table

# -- frozen reference code ----------------------------------------------------------


def _oracle_link_records(release_table, external_table, rng):
    """Dense linkage: the full external x release distance matrix, one
    attribute at a time, numeric z-scores pooled over both tables. Terms are
    added in the metric's order, numeric attributes first and mismatches
    last, so a tie that depends on the last bit of a sum breaks the same way."""
    shared = [n for n in external_table.qi_names if n in release_table.qi_names]
    n_rel, n_ext = release_table.n_rows, external_table.n_rows
    dist = np.zeros((n_ext, n_rel))
    numeric = [
        n for n in shared if release_table.attribute(n).is_numeric and external_table.attribute(n).is_numeric
    ]
    for name in numeric:
        rel = release_table.columns[name].astype(float)
        ext = external_table.columns[name].astype(float)
        pooled = np.concatenate([rel, ext])
        std = float(pooled.std())
        if std == 0.0:
            continue
        mean = float(pooled.mean())
        relz = (rel - mean) / std
        extz = (ext - mean) / std
        dist += (extz[:, None] - relz[None, :]) ** 2
    for name in shared:
        if name not in numeric:
            rel = comparable_text(release_table, name)
            ext = comparable_text(external_table, name)
            dist += (ext[:, None] != rel[None, :]).astype(float)
    positions = np.empty(n_ext, dtype=np.int64)
    for i in range(n_ext):
        row = dist[i]
        ties = np.flatnonzero(row == row.min())
        positions[i] = ties[0] if ties.size == 1 else ties[rng.integers(ties.size)]
    return positions


class _OracleSpace:
    """Single-table space with raw text categories and lexicographic modes."""

    def __init__(self, table, attributes):
        num_cols, cat_cols = [], []
        for name in attributes:
            col = table.columns[name]
            if table.attribute(name).is_numeric:
                col = np.asarray(col, dtype=float)
                std = float(col.std())
                num_cols.append(np.zeros_like(col) if std == 0.0 else (col - float(col.mean())) / std)
            else:
                cat_cols.append(np.asarray([str(v) for v in col], dtype=object))
        n = table.n_rows
        self.numeric = np.column_stack(num_cols) if num_cols else np.zeros((n, 0))
        self.categorical = np.column_stack(cat_cols) if cat_cols else np.empty((n, 0), dtype=object)

    def point(self, i):
        return self.numeric[i], self.categorical[i]

    def centroid(self, idx):
        num = self.numeric[idx].mean(axis=0) if self.numeric.shape[1] else np.zeros(0)
        modes = []
        for j in range(self.categorical.shape[1]):
            vals, counts = np.unique(self.categorical[idx, j].astype(str), return_counts=True)
            top = counts.max()
            modes.append(sorted(v for v, c in zip(vals, counts) if c == top)[0])
        return num, np.asarray(modes, dtype=object)

    def sq_dist_to(self, num_point, cat_point, indices):
        num, cat = self.numeric[indices], self.categorical[indices]
        d = np.zeros(num.shape[0])
        if num.shape[1]:
            d += ((num - num_point[None, :]) ** 2).sum(axis=1)
        for j in range(cat.shape[1]):
            d += (cat[:, j] != cat_point[j]).astype(float)
        return d


def _oracle_mdav_partition(table, qi, k):
    space = _OracleSpace(table, qi)
    remaining = np.arange(table.n_rows, dtype=np.int64)
    groups = []

    def farthest_from(point, pool):
        return int(pool[int(np.argmax(space.sq_dist_to(*point, indices=pool)))])

    def nearest_k_group(center, pool):
        others = pool[pool != center]
        order = np.argsort(space.sq_dist_to(*space.point(center), indices=others), kind="stable")
        return np.sort(np.concatenate([[center], others[order[: k - 1]]]))

    while remaining.size >= 3 * k:
        r = farthest_from(space.centroid(remaining), remaining)
        s = farthest_from(space.point(r), remaining[remaining != r])
        g_r = nearest_k_group(r, remaining[remaining != s])
        remaining = np.setdiff1d(remaining, g_r, assume_unique=True)
        g_s = nearest_k_group(s, remaining)
        remaining = np.setdiff1d(remaining, g_s, assume_unique=True)
        groups += [g_r.tolist(), g_s.tolist()]
    if remaining.size >= 2 * k:
        r = farthest_from(space.centroid(remaining), remaining)
        g_r = nearest_k_group(r, remaining)
        remaining = np.setdiff1d(remaining, g_r, assume_unique=True)
        groups.append(g_r.tolist())
    if remaining.size:
        groups.append(remaining.tolist())
    return canonical_partition(groups)


# -- generated tables ---------------------------------------------------------------

CATS = ("a", "b", "c")
LABELS = ("[0-3)", "3", "4")  # values 0..2 generalized, 3 and 4 kept exact


def _label(v: int) -> str:
    return "[0-3)" if v < 3 else str(v)


ZEROS = (-0.0, 0.0)
TINY = (0.0, 1e-200, 2e-200)  # distinct, but their z-score gaps square to 0


@st.composite
def linkage_inputs(draw):
    """(release, external, seed): a pool of rows sampled with replacement into
    the external table, and a release that is sampled from the same pool, an
    exact copy of the external table, a permutation of it, or the external
    rows with each block of k rows replaced by k copies of its first row; so
    rows repeat and many external rows have exact matches.

    Attribute kinds: "num" numeric on both sides, "const" one value
    everywhere, "cat" categorical, "label" numeric outside and released as
    interval labels, "zero" -0.0 next to 0.0, "tiny" values whose gaps square
    to 0 (forcing the full scan). A "zero" or "tiny" column gets one +1 in the
    external table and one -1 in the release, so its pooled mean is 0 up to
    the tiny values, and z-scores keep the sign of zero and the tiny gaps.
    """
    kind_names = ["num", "const", "cat", "label", "zero", "tiny"]
    kinds = draw(st.lists(st.sampled_from(kind_names), min_size=1, max_size=5))
    values = {kd: st.sampled_from(v) for kd, v in (("cat", CATS), ("zero", ZEROS), ("tiny", TINY))}
    pool = draw(
        st.lists(
            st.tuples(*[values.get(kd, st.integers(0, 4)) for kd in kinds]),
            min_size=1,
            max_size=6,
        )
    )
    ext_rows = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))
    shape = draw(st.sampled_from(["sampled", "identity", "permuted", "aggregated"]))
    if shape == "sampled":
        rel_rows = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))
    elif shape == "identity":
        rel_rows = list(ext_rows)
    elif shape == "permuted":
        rel_rows = draw(st.permutations(ext_rows))
    else:
        k = draw(st.integers(2, 4))
        rel_rows = [ext_rows[i - i % k] for i in range(len(ext_rows))]
    ext_schema, rel_schema, ext_cols, rel_cols = [], [], {}, {}
    for j, kind in enumerate(kinds):
        name = f"q{j}"
        ext_vals = [row[j] for row in ext_rows]
        rel_vals = [row[j] for row in rel_rows]
        if kind == "cat":
            ext_schema.append(AttributeSchema(name, "quasi_identifier", CategoricalKind(CATS)))
            rel_schema.append(ext_schema[-1])
        elif kind in ("zero", "tiny"):
            ext_vals[0], rel_vals[0] = 1.0, -1.0
            ext_schema.append(AttributeSchema(name, "quasi_identifier", NumericKind(-1, 1)))
            rel_schema.append(ext_schema[-1])
        else:
            if kind == "const":
                ext_vals, rel_vals = [2] * len(ext_vals), [2] * len(rel_vals)
            ext_schema.append(AttributeSchema(name, "quasi_identifier", NumericKind(0, 4)))
            if kind == "label":
                rel_schema.append(AttributeSchema(name, "quasi_identifier", CategoricalKind(LABELS)))
                rel_vals = [_label(v) for v in rel_vals]
            else:
                rel_schema.append(ext_schema[-1])
        ext_cols[name], rel_cols[name] = ext_vals, rel_vals
    release = make_table(rel_schema, rel_cols)
    external = make_table(ext_schema, ext_cols)
    return release, external, draw(st.integers(0, 2**31))


def _mismatch_before_numeric_case():
    """External row 0 is at the same distance from four release rows only
    when the q1 mismatch is added after the numeric terms: summed in schema
    order, the q3 term rounds differently and one of them wins alone."""
    schema = (
        AttributeSchema("q0", "quasi_identifier", NumericKind(-1, 1)),
        AttributeSchema("q1", "quasi_identifier", CategoricalKind(CATS)),
        *(AttributeSchema(f"q{j}", "quasi_identifier", NumericKind(0, 4)) for j in (2, 3, 4)),
    )
    release = make_table(schema, {
        "q0": [-1.0, -0.0, -0.0, -0.0, -0.0, -0.0],
        "q1": ["b", "b", "b", "b", "b", "a"],
        "q2": [0.0] * 6,
        "q3": [2.0, 0.0, 2.0, 2.0, 2.0, 4.0],
        "q4": [0.0] * 6,
    })
    external = make_table(schema, {
        "q0": [1.0, -0.0, -0.0, -0.0, -0.0, -0.0, -0.0, -0.0],
        "q1": ["a", "a", "a", "a", "a", "b", "b", "b"],
        "q2": [0.0] * 8,
        "q3": [1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 2.0, 2.0],
        "q4": [0.0] * 8,
    })
    return release, external, 0


@settings(max_examples=300, deadline=None)
@given(linkage_inputs())
@example(inputs=_mismatch_before_numeric_case())
def test_link_records_matches_dense_oracle(inputs):
    release, external, seed = inputs
    got = link_records(release, external, derive_rng(seed, "attack", 0))
    want = _oracle_link_records(release, external, derive_rng(seed, "attack", 0))
    assert got.tolist() == want.tolist()


def test_link_records_blocks_match_dense_oracle(monkeypatch):
    # blocks of 7 external rows: block edges must not change a match or a tie draw
    table = build_people_table(seed=5, n=60)
    monkeypatch.setattr("sdckit.attacks._BLOCK_CELLS", 7 * 60)
    release = cluster_and_permute(table, list(table.qi_names), 3, rng_seed=1).table
    got = link_records(release, table, derive_rng(2, "attack", 0))
    want = _oracle_link_records(release, table, derive_rng(2, "attack", 0))
    assert got.tolist() == want.tolist()


def test_link_records_draws_ties_in_external_row_order(monkeypatch):
    # even external rows occur twice in the release (exact matches, two tied
    # rows); odd rows occur only through MDAV centroids repeated k times
    # (scanned, k or more tied rows). Blocks of 5 rows mix both kinds, so a
    # draw made out of external row order picks different rows.
    table = build_people_table(seed=7, n=60)
    qi = list(table.qi_names)
    _, aggregated = mdav_microaggregate(table.take(np.arange(1, 60, 2)), qi, 3)
    even = table.take(np.arange(0, 60, 2))
    parts = [even, even, aggregated.table]
    release = make_table(
        [table.attribute(name) for name in qi],
        {name: np.concatenate([p.columns[name] for p in parts]) for name in qi},
    )
    n_vectors = len(set(zip(*(release.columns[name].tolist() for name in qi))))
    monkeypatch.setattr("sdckit.attacks._BLOCK_CELLS", 5 * n_vectors)
    for seed in range(5):
        got = link_records(release, table, derive_rng(seed, "attack", 0))
        want = _oracle_link_records(release, table, derive_rng(seed, "attack", 0))
        assert got.tolist() == want.tolist()


def test_link_records_scans_every_row_when_a_gap_squares_to_zero():
    # 0 and 1e-200 differ but their squared z-score gap is 0: the external row
    # 0 ties with both release rows, so the exact-match path alone is wrong
    schema = (AttributeSchema("x", "quasi_identifier", NumericKind(-1, 1)),)
    external = make_table(schema, {"x": [0.0, 1.0]})
    release = make_table(schema, {"x": [1e-200, 0.0, -1.0]})
    first_matches = set()
    for seed in range(40):
        got = link_records(release, external, derive_rng(seed, "attack", 0))
        want = _oracle_link_records(release, external, derive_rng(seed, "attack", 0))
        assert got.tolist() == want.tolist()
        first_matches.add(int(got[0]))
    assert first_matches == {0, 1}


def _interleaved_table(seed: int, n: int, pattern: str, hi: int = 20, cats=CATS):
    """Table whose QI kinds follow ``pattern`` ("n" numeric, "c" categorical),
    numerics drawn from 0..hi."""
    rng = np.random.default_rng(seed)
    schema, cols = [], {}
    for j, kind in enumerate(pattern):
        name = f"q{j}"
        if kind == "n":
            schema.append(AttributeSchema(name, "quasi_identifier", NumericKind(0, 20)))
            cols[name] = rng.integers(0, hi + 1, n).astype(float)
        else:
            schema.append(AttributeSchema(name, "quasi_identifier", CategoricalKind(CATS)))
            cols[name] = rng.choice(cats, n)
    return make_table(schema, cols)


@pytest.mark.parametrize("pattern", ["ncn", "cnc", "ncnc", "cnnc", "ccn", "n", "c", "nnnncnnnnn"])
@pytest.mark.parametrize("k", [2, 3, 5])
def test_mdav_partition_matches_frozen_single_table_space(pattern, k):
    for seed in range(3):
        table = _interleaved_table(seed, 37, pattern)
        qi = list(table.qi_names)
        assert mdav_partition(table, qi, k) == _oracle_mdav_partition(table, qi, k)
        # two values per attribute: rows repeat many times over, so the
        # farthest point and the k-1-th neighbour are tied at most steps. The
        # frozen space adds 8 or more numeric terms in numpy's pairwise order,
        # MixedSpace one by one; on such ties the last bit differs, so the
        # 9-numeric schema is left out here
        if pattern.count("n") >= 8:
            continue
        for n in (3 * k, 3 * k + 1, 61):
            table = _interleaved_table(seed, n, pattern, hi=1, cats=CATS[:2])
            assert mdav_partition(table, qi, k) == _oracle_mdav_partition(table, qi, k)


def test_space_pools_numeric_stats_and_shares_codes():
    ext = make_table(
        (AttributeSchema("x", "quasi_identifier", NumericKind(0, 9)),),
        {"x": [0.0, 2.0, 4.0]},
    )
    rel = make_table(
        (AttributeSchema("x", "quasi_identifier", CategoricalKind(("4", "[0-3)"))),),
        {"x": ["[0-3)", "4"]},
    )
    (only,) = MixedSpace.from_tables([ext], ["x"])
    assert only.numeric[:, 0] == pytest.approx([-1.224744871391589, 0.0, 1.224744871391589])
    rel_space, ext_space = MixedSpace.from_tables([rel, ext], ["x"])
    # numeric on one side only: compared as text, "0" < "2" < "4" < "[0-3)"
    assert rel_space.numeric.shape == (2, 0)
    assert rel_space.codes[:, 0].tolist() == [3, 2]
    assert ext_space.codes[:, 0].tolist() == [0, 1, 2]
    assert rel_space.sq_dist_to(ext_space.point(2)).tolist() == [1.0, 0.0]
    assert rel_space.sq_dist_to(ext_space.point(slice(0, 3))).tolist() == [
        [1.0, 1.0],
        [1.0, 1.0],
        [1.0, 0.0],
    ]


@settings(max_examples=100, deadline=None)
@given(
    numbers=st.lists(st.sampled_from([-0.0, 0.0, 1.0, -3.0, 2.5, 1e-200, 4.0]), min_size=1, max_size=12),
    labels=st.lists(st.sampled_from(["0", "1", "-3", "2.5", "[0-3)", "b"]), min_size=1, max_size=12),
)
def test_text_codes_match_per_cell_formatting(numbers, labels):
    # the reference formats every cell and numbers the texts with np.unique
    num = make_table((AttributeSchema("x", "quasi_identifier", NumericKind(-5, 5)),), {"x": numbers})
    kind = CategoricalKind(("0", "1", "-3", "2.5", "[0-3)", "b"))
    lab = make_table((AttributeSchema("x", "quasi_identifier", kind),), {"x": labels})
    want_text = [canonical_number(v) for v in numbers]
    assert comparable_text(num, "x").tolist() == want_text
    assert "-0" not in want_text
    _, want = np.unique(np.asarray(want_text + labels, dtype=object), return_inverse=True)
    num_space, lab_space = MixedSpace.from_tables([num, lab], ["x"])
    assert np.concatenate([num_space.codes[:, 0], lab_space.codes[:, 0]]).tolist() == want.tolist()


def test_verifier_and_linkage_attack_share_trials():
    table = build_people_table(seed=6, n=24)
    qi = list(table.qi_names)
    partition = mdav_partition(table, qi, 3)
    factory = lambda s: cluster_and_permute(table, qi, 3, s, partition=partition)
    report = verify_probabilistic_k(factory, table, 3, trials=25, rng_seed=9)
    attack = linkage_attack(factory, table, trials=25, rng_seed=9)
    assert list(report.per_record_rates) == [int(r) for r in table.row_ids]
    assert list(report.per_record_rates.values()) == attack.details["per_record_rates"]
