"""The shared mixed-attribute metric against frozen copies of the per-module
distance code it replaced: dense record linkage and the single-table MDAV
space. Also checks the linkage rates against an exact dense oracle, and that
the probabilistic-k verifier and the linkage attack read the same rates."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sdckit import (
    AttributeSchema,
    CategoricalKind,
    MicrodataTable,
    NumericKind,
    cluster_and_permute,
    dp_microdata_release,
    link_records,
    linkage_attack,
    mdav_microaggregate,
    mdav_partition,
    verify_probabilistic_k,
)
from sdckit import attacks
from sdckit.metric import MixedSpace, column_stats, zscore
from sdckit.microdata import Partition, as_table, canonical_number, comparable_text, make_table, value_codes
from sdckit.seeds import derive_rng, derive_seed

from conftest import build_numeric_table, build_people_table

# -- frozen reference code ----------------------------------------------------------


def _oracle_distances(release_table, external_table):
    """The full external x release distance matrix, one attribute at a time,
    numeric z-scores pooled over both tables. Terms are added in the metric's
    order, numeric attributes first and mismatches last, so a tie that
    depends on the last bit of a sum breaks the same way."""
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
    return dist


def _oracle_link_records(release_table, external_table, rng):
    """Dense linkage: each external row's nearest release rows in the dense
    distance matrix, ties broken by one scalar draw per tied row."""
    dist = _oracle_distances(release_table, external_table)
    positions = np.empty(external_table.n_rows, dtype=np.int64)
    for i in range(external_table.n_rows):
        row = dist[i]
        ties = np.flatnonzero(row == row.min())
        positions[i] = ties[0] if ties.size == 1 else ties[rng.integers(ties.size)]
    return positions


def _oracle_linkage_rates(release, external_table, trials, rng_seed):
    """Exact per-record linkage rates from the dense distance matrix: per
    external row, 1/|tie set| if the release row carrying its id is among its
    nearest rows, else 0; for a factory, summed over the draws the attack
    makes and divided by their number."""
    draws = [release(derive_seed(rng_seed, "trial", t, 0)) for t in range(trials)] if callable(release) else [release]
    sums = np.zeros(external_table.n_rows)
    for rel in draws:
        rel_table = as_table(rel)
        dist = _oracle_distances(rel_table, external_table)
        tied = dist == dist.min(axis=1, keepdims=True)
        own = np.asarray(rel_table.row_ids)[None, :] == np.asarray(external_table.row_ids)[:, None]
        sums += (tied & own).sum(axis=1) / tied.sum(axis=1)
    return sums / len(draws)


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
    return Partition(groups)


# -- generated tables ---------------------------------------------------------------

CATS = ("a", "b", "c")
LABELS = ("[0-3)", "3", "4")  # values 0..2 generalized, 3 and 4 kept exact


def _label(v: int) -> str:
    return "[0-3)" if v < 3 else str(v)


ZEROS = (-0.0, 0.0)
TINY = (0.0, 1e-200, 2e-200)  # distinct, but their z-score gaps square to 0


def _linkage_tables(kinds, ext_rows, rel_rows):
    """(release, external) with one QI per kind from the value tuples of each
    table's rows; see ``linkage_inputs`` for the kinds."""
    ext_schema, rel_schema, ext_cols, rel_cols = [], [], {}, {}
    for j, kind in enumerate(kinds):
        name = f"q{j}"
        ext_vals = [row[j] for row in ext_rows]
        rel_vals = [row[j] for row in rel_rows]
        if kind == "cat":
            ext_schema.append(AttributeSchema(name, "quasi_identifier", CategoricalKind(CATS)))
            rel_schema.append(ext_schema[-1])
        elif kind == "extcat":
            ext_schema.append(AttributeSchema(name, "quasi_identifier", CategoricalKind(CATS + ("d",))))
            rel_schema.append(AttributeSchema(name, "quasi_identifier", CategoricalKind(CATS)))
            rel_vals = ["c" if v == "d" else v for v in rel_vals]
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
    return release, external


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
    release, external = _linkage_tables(kinds, ext_rows, rel_rows)
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


def _gap_squares_to_zero_case():
    schema = (AttributeSchema("x", "quasi_identifier", NumericKind(-1, 1)),)
    return make_table(schema, {"x": [1e-200, 0.0, -1.0]}), make_table(schema, {"x": [0.0, 1.0]}), 3


def _assert_linkage_matches_the_oracle(release, external, trials, rng_seed):
    report = linkage_attack(release, external, trials=trials, rng_seed=rng_seed)
    want = _oracle_linkage_rates(release, external, trials, rng_seed)
    draws = trials if callable(release) else 1
    assert report.details["per_record_rates"] == want.tolist()
    assert report.trials == draws * external.n_rows
    assert report.success_rate == pytest.approx(want.mean(), rel=1e-12, abs=0.0)


@settings(max_examples=300, deadline=None)
@given(linkage_inputs(), st.integers(1, 4), st.sampled_from([None, 1, 2, 5]))
@example(inputs=_gap_squares_to_zero_case(), trials=8, block_cells=None)
@example(inputs=_gap_squares_to_zero_case(), trials=8, block_cells=1)
@example(inputs=_mismatch_before_numeric_case(), trials=4, block_cells=3)
def test_linkage_attack_matches_the_exact_dense_oracle(inputs, trials, block_cells):
    # block_cells small enough to split the scan into one row per block; the
    # table is scored as a release and as a factory that draws it ``trials`` times
    release, external, seed = inputs
    with mock.patch.object(attacks, "_BLOCK_CELLS", block_cells or attacks._BLOCK_CELLS):
        _assert_linkage_matches_the_oracle(release, external, trials, seed)
        _assert_linkage_matches_the_oracle(lambda s: release, external, trials, seed)


# numeric values of the window inputs: "wide" spreads the key over 41
# values, "pile" puts most rows on the two clamped ends of its domain
WINDOW_VALUES = {
    "wide": st.integers(0, 40).map(lambda v: v / 10),
    "pile": st.sampled_from((0.0, 0.0, 0.0, 4.0, 4.0, 4.0, 1.5, 2.5)),
    "num": st.integers(0, 4),
    "label": st.integers(0, 4),
    "cat": st.sampled_from(CATS),
    "extcat": st.sampled_from(CATS + ("d",)),
    "zero": st.sampled_from(ZEROS),
    "tiny": st.sampled_from(TINY),
}


@st.composite
def window_inputs(draw):
    """(release, external, seed) with up to 40 release rows over many distinct
    vectors, so that a small ``_BLOCK_CELLS`` splits them into several key
    chunks, and external rows that are release rows or fresh ones. Kinds as
    in ``linkage_inputs``, plus "wide" and "pile" (``WINDOW_VALUES``) and
    "extcat", categorical with a text "d" that only the external table holds;
    with only "cat", "extcat" and "label" the tables share no numeric QI."""
    kinds = draw(st.lists(st.sampled_from(sorted(WINDOW_VALUES)), min_size=1, max_size=4))
    row = st.tuples(*[WINDOW_VALUES[kd] for kd in kinds])
    rel_rows = draw(st.lists(row, min_size=1, max_size=40))
    ext_rows = draw(st.lists(st.one_of(st.sampled_from(rel_rows), row), min_size=1, max_size=20))
    release, external = _linkage_tables(kinds, ext_rows, rel_rows)
    return release, external, draw(st.integers(0, 2**31))


# 1..512 cells: one vector per chunk and that many rows per block; 1024 and
# up: 512 rows per block and 2, 4 or 8 vectors per chunk
WINDOW_BLOCK_CELLS = st.sampled_from([1, 2, 3, 16, 1024, 2048, 4096])


@settings(max_examples=400, deadline=None)
@given(window_inputs(), WINDOW_BLOCK_CELLS)
@example(inputs=_gap_squares_to_zero_case(), block_cells=1)
@example(inputs=_mismatch_before_numeric_case(), block_cells=1)
def test_the_key_window_matches_the_dense_oracles(inputs, block_cells):
    release, external, seed = inputs
    with mock.patch.object(attacks, "_BLOCK_CELLS", block_cells):
        got = link_records(release, external, derive_rng(seed, "attack", 0))
        want = _oracle_link_records(release, external, derive_rng(seed, "attack", 0))
        assert got.tolist() == want.tolist()
        _assert_linkage_matches_the_oracle(release, external, 1, seed)


@st.composite
def cell_inputs(draw):
    """(release, external, seed) for the cell step: 1-3 numeric and 1-2
    categorical QIs in any order, values as in ``window_inputs``, and
    external rows that are release rows, fresh ones, or fresh numbers in a
    release row's cell."""
    numeric = draw(st.lists(st.sampled_from(["num", "wide", "pile", "zero", "tiny"]), min_size=1, max_size=3))
    categorical = draw(st.lists(st.sampled_from(["cat", "extcat"]), min_size=1, max_size=2))
    kinds = draw(st.permutations(numeric + categorical))
    row = st.tuples(*[WINDOW_VALUES[kd] for kd in kinds])
    rel_rows = draw(st.lists(row, min_size=1, max_size=30))
    in_cell = st.tuples(st.sampled_from(rel_rows), row).map(
        lambda pair: tuple(pair[not kd.endswith("cat")][j] for j, kd in enumerate(kinds))
    )
    ext_rows = draw(st.lists(st.one_of(st.sampled_from(rel_rows), row, in_cell), min_size=1, max_size=20))
    release, external = _linkage_tables(kinds, ext_rows, rel_rows)
    return release, external, draw(st.integers(0, 2**31))


def _cell_tie_case():
    """External row 0, (x=2, z=0, c="a"), is at distance exactly 1.0 from
    release row 0, (1, -0, "a"), the best in its own cell, and from release
    row 1, (2, 0, "b"), one mismatch away at numeric gap 0: the pooled x
    (three 0s, five 1s, five 2s, three 3s) has mean 1.5 and std 1, so its
    z-scores are exact; z is -0.0 or 0.0 but for one +1 and one -1. External
    row 1 holds "d", a text the release lacks, so its cell is empty."""
    schema = [
        AttributeSchema("x", "quasi_identifier", NumericKind(0, 3)),
        AttributeSchema("z", "quasi_identifier", NumericKind(-1, 1)),
    ]
    release = make_table(
        schema + [AttributeSchema("c", "quasi_identifier", CategoricalKind(CATS))],
        {
            "x": [1.0, 2.0, 0.0, 3.0, 1.0, 0.0, 3.0, 1.0],
            "z": [-0.0, 0.0, 1.0, -1.0, 0.0, 0.0, 0.0, 0.0],
            "c": ["a", "b", "c", "c", "b", "a", "c", "c"],
        },
    )
    external = make_table(
        schema + [AttributeSchema("c", "quasi_identifier", CategoricalKind(CATS + ("d",)))],
        {
            "x": [2.0, 2.0, 2.0, 2.0, 1.0, 1.0, 0.0, 3.0],
            "z": [0.0, -0.0, 0.0, 0.0, -0.0, 0.0, 0.0, 0.0],
            "c": ["a", "d", "b", "c", "a", "b", "b", "a"],
        },
    )
    return release, external, 4


def _cell_tiny_gap_case():
    """0 and 1e-200 differ but their z-score gap squares to 0, so every
    external row is scanned and settles in its own cell at distance 0."""
    schema = (
        AttributeSchema("x", "quasi_identifier", NumericKind(-1, 1)),
        AttributeSchema("c", "quasi_identifier", CategoricalKind(CATS)),
    )
    release = make_table(schema, {"x": [1e-200, 0.0, -1.0, 0.0], "c": ["a", "a", "b", "b"]})
    external = make_table(schema, {"x": [0.0, 1.0, 1e-200, -0.0], "c": ["a", "a", "b", "c"]})
    return release, external, 5


@settings(max_examples=300, deadline=None)
@given(cell_inputs(), st.sampled_from([1, 2, 3, 7, 1 << 15]))
@example(inputs=_cell_tie_case(), block_cells=1 << 15)
@example(inputs=_cell_tie_case(), block_cells=2)
@example(inputs=_cell_tiny_gap_case(), block_cells=1)
def test_the_cell_step_matches_the_dense_oracles(inputs, block_cells):
    # every tie set is the dense matrix's row minima; the cell step computes
    # pairs only within a cell, at most ``_BLOCK_CELLS`` at once (small
    # values split a row's pairs over blocks)
    release, external, seed = inputs
    pair_dist = MixedSpace.sq_dist_pairs

    def checked(space, rows, other, other_rows):
        assert 0 < len(rows) <= block_cells
        for mine, theirs in zip(space.code_cols, other.code_cols):
            assert (mine[rows] == theirs[other_rows]).all()
        return pair_dist(space, rows, other, other_rows)

    with mock.patch.object(attacks, "_BLOCK_CELLS", block_cells), mock.patch.object(
        MixedSpace, "sq_dist_pairs", checked
    ):
        _, rel_rows, starts, nearest, bounds = attacks._nearest_vectors(release, external)
        dist = _oracle_distances(release, external)
        for e in range(external.n_rows):
            tied = [rel_rows[starts[v] : starts[v + 1]] for v in nearest[bounds[e] : bounds[e + 1]]]
            assert sorted(np.concatenate(tied).tolist()) == np.flatnonzero(dist[e] == dist[e].min()).tolist()
        got = link_records(release, external, derive_rng(seed, "attack", 0))
        assert got.tolist() == _oracle_link_records(release, external, derive_rng(seed, "attack", 0)).tolist()
        _assert_linkage_matches_the_oracle(release, external, 1, seed)


def test_the_cell_step_keeps_a_tie_at_1_with_a_vector_outside_the_cell():
    release, external, _ = _cell_tie_case()
    dist = _oracle_distances(release, external)
    assert dist[0, :2].tolist() == [1.0, 1.0] and dist[0].min() == 1.0
    _, rel_rows, starts, nearest, bounds = attacks._nearest_vectors(release, external)
    tied = [rel_rows[starts[v] : starts[v + 1]] for v in nearest[bounds[0] : bounds[1]]]
    assert sorted(np.concatenate(tied).tolist()) == [0, 1]


def test_the_key_window_skips_vectors_beyond_the_best_distance(monkeypatch):
    # one numeric QI spread over 0..100: each external row's window holds a
    # few chunks of one vector, far fewer distances than the dense scan's,
    # the key's choice from 32 sampled rows included
    schema = (AttributeSchema("x", "quasi_identifier", NumericKind(0, 100)),)
    external = make_table(schema, {"x": np.arange(0.0, 100.0, 0.25)})
    release = make_table(schema, {"x": np.arange(0.125, 100.0, 2.0)})
    monkeypatch.setattr(attacks, "_BLOCK_CELLS", 16)
    cells = []
    dist = MixedSpace.sq_dist_to

    def counted(space, point):
        d = dist(space, point)
        cells.append(d.size)
        return d

    monkeypatch.setattr(MixedSpace, "sq_dist_to", counted)
    got = link_records(release, external, derive_rng(0, "attack", 0))
    assert got.tolist() == _oracle_link_records(release, external, derive_rng(0, "attack", 0)).tolist()
    assert sum(cells) < external.n_rows * release.n_rows / 5


def _frozen_per_table_spaces(tables, attributes):
    """``MixedSpace.from_tables`` as it was before the one pooled space: one
    space per table, each table's numeric columns z-scored on their own with
    the pooled statistics."""
    tables = list(tables)
    num_cols = [[] for _ in tables]
    code_cols = [[] for _ in tables]
    for name in attributes:
        if all(t.attribute(name).is_numeric for t in tables):
            cols = [t.columns[name] for t in tables]
            mean, std = column_stats(np.concatenate(cols))
            for out, col in zip(num_cols, cols):
                out.append(zscore(col, mean, std))
        else:
            for out, codes in zip(code_cols, value_codes(tables, name)[1]):
                out.append(codes)
    return [MixedSpace(t.n_rows, num, cat) for t, num, cat in zip(tables, num_cols, code_cols)]


def _frozen_dense_nearest_vectors(release_table, external_table):
    """``attacks._nearest_vectors`` as it was before the key window: every
    scanned row against every distinct vector, in blocks of 2**17 distances."""
    shared = [n for n in external_table.qi_names if n in release_table.qi_names]
    rel_space, ext_space = _frozen_per_table_spaces([release_table, external_table], shared)
    n_rel, n_ext = rel_space.n, ext_space.n
    both = MixedSpace(
        n_rel + n_ext,
        [np.concatenate(pair) + 0.0 for pair in zip(rel_space.num_cols, ext_space.num_cols)],
        [np.concatenate(pair) for pair in zip(rel_space.code_cols, ext_space.code_cols)],
    )
    order = np.lexsort([*both.code_cols, *both.num_cols])
    new_key = np.zeros(order.size, dtype=bool)
    new_key[0] = True
    for col in both.num_cols + both.code_cols:
        in_order = col[order]
        new_key[1:] |= in_order[1:] != in_order[:-1]
    key = np.empty(order.size, dtype=np.int64)
    key[order] = np.cumsum(new_key) - 1
    rel_rows = order[order < n_rel]
    rel_keys = key[rel_rows]
    first = np.ones(n_rel, dtype=bool)
    first[1:] = rel_keys[1:] != rel_keys[:-1]
    vector_of_row = np.empty(n_rel, dtype=np.int64)
    vector_of_row[rel_rows] = np.cumsum(first) - 1
    starts = np.append(np.flatnonzero(first), n_rel)
    vectors = both.take(rel_rows[first])
    vector_of_key = np.full(int(new_key.sum()), -1, dtype=np.int64)
    vector_of_key[rel_keys[first]] = np.arange(vectors.n)
    exact = vector_of_key[key[n_rel:]]
    if any(map(attacks._gap_squares_to_zero, both.num_cols)):
        exact[:] = -1
    counts = np.ones(n_ext, dtype=np.int64)
    minima = []
    scanned = np.flatnonzero(exact < 0)
    step = max(1, (1 << 17) // max(vectors.n, 1))
    for lo in range(0, scanned.size, step):
        block = scanned[lo : lo + step]
        dist = vectors.sq_dist_to(ext_space.point(block))
        at, vec = np.nonzero(dist == dist.min(axis=1, keepdims=True))
        counts[block] = np.bincount(at, minlength=block.size)
        minima.append((block[at], vec))
    bounds = np.concatenate([[0], np.cumsum(counts)])
    nearest = np.repeat(exact, counts)
    for rows, vec in minima:
        nearest[bounds[rows] + np.arange(rows.size) - np.searchsorted(rows, rows)] = vec
    return vector_of_row, rel_rows, starts, nearest, bounds


@pytest.mark.parametrize("mechanism", ["mdav", "dp_microdata"])
def test_the_search_returns_the_frozen_dense_loops_arrays_at_n_5000(mechanism):
    # at full size: 512 rows per block and chunks of 64 vectors, keyed by a
    # column the sample picks; dp_microdata's clamped cells pile many vectors
    # onto the two ends of each key
    if mechanism == "mdav":
        external = build_people_table(seed=11, n=5000)
        _, release = mdav_microaggregate(external, list(external.qi_names), 5)
    else:
        external = build_numeric_table(seed=11, n=5000)
        release = dp_microdata_release(external, 1.0, 3)
    got = attacks._nearest_vectors(release.table, external)
    want = _frozen_dense_nearest_vectors(release.table, external)
    vectors = got[2].size - 1
    assert vectors > 8 * (attacks._BLOCK_CELLS >> 9)  # more than eight chunks
    for mine, theirs in zip(got, want):
        assert mine.tolist() == theirs.tolist()


def _qi_vectors(table):
    return list(zip(*(comparable_text(table, name) for name in table.qi_names)))


@st.composite
def search_draws(draw):
    """(release, external): a people table, its heights coarsened to four
    values or not, and a release of it in which every record has an exact
    twin (a vector-mode ``cluster_and_permute`` draw, or the table itself),
    almost none has (the MDAV release), or some have (each row taken from
    the draw or from the MDAV release)."""
    n = draw(st.integers(2, 40))
    k = draw(st.integers(2, min(n, 4)))
    table = build_people_table(seed=draw(st.integers(0, 2**16)), n=n)
    if draw(st.booleans()):  # many equal vectors, and centroids that equal records
        table = table.with_column("height", np.round(table.columns["height"] / 30) * 30)
    qi = list(table.qi_names)
    shape = draw(st.sampled_from(["permuted", "identity", "mdav", "mixed"]))
    if shape == "identity":
        return table, table
    permuted = cluster_and_permute(table, qi, k, draw(st.integers(0, 2**31))).table
    if shape == "permuted":
        return permuted, table
    mdav = mdav_microaggregate(table, qi, k)[1].table
    if shape == "mdav":
        return mdav, table
    mask = np.asarray(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    cols = {name: np.where(mask, permuted.columns[name], mdav.columns[name]) for name in mdav.names}
    return MicrodataTable(mdav.schema, cols, mdav.row_ids), table


@settings(max_examples=300, deadline=None)
@given(search_draws())
def test_the_search_returns_the_frozen_dense_loops_arrays_on_draws(inputs):
    # a release in which every record has an exact twin returns before the
    # cell and window steps; any other runs both
    release, external = inputs
    with mock.patch.object(attacks, "_cell_scan", wraps=attacks._cell_scan) as cell, \
            mock.patch.object(attacks, "_window_scan", wraps=attacks._window_scan) as window:
        got = attacks._nearest_vectors(release, external)
    want = _frozen_dense_nearest_vectors(release, external)
    for mine, theirs in zip(got, want, strict=True):
        assert mine.tolist() == theirs.tolist()
    twins = set(_qi_vectors(release)).issuperset(_qi_vectors(external))
    assert (cell.called, window.called) == (not twins, not twins)
    if twins:
        assert got[4].tolist() == list(range(external.n_rows + 1))


SIGNED = (-0.0, 0.0, 1.0, -2.5, 3.0, 1e-200)


@settings(max_examples=300, deadline=None)
@given(
    first=st.lists(st.sampled_from(SIGNED), min_size=0, max_size=8),
    second=st.lists(st.sampled_from(SIGNED), min_size=1, max_size=8),
    constant=st.sampled_from([-0.0, 0.0, 2.0]),
)
@example(first=[-0.0, 1.0, 0.0], second=[-1.0, -0.0], constant=-0.0)  # a pooled mean of 0: z-scores of -0.0
def test_the_pooled_z_scores_are_each_tables_own_bit_for_bit(first, second, constant):
    # x is numeric in both tables, c constant in both, and y numeric in the
    # first only: compared as text over the union of both tables' texts
    labels = CategoricalKind(("0", "1", "-2.5", "[0-3)"))
    tables = []
    for values, y_kind, y in ((first, NumericKind(-5, 5), first), (second, labels, ["[0-3)", "1"] * len(second))):
        schema = (
            AttributeSchema("x", "quasi_identifier", NumericKind(-5, 5)),
            AttributeSchema("y", "quasi_identifier", y_kind),
            AttributeSchema("c", "quasi_identifier", NumericKind(-5, 5)),
        )
        tables.append(make_table(schema, {"x": values, "y": y[: len(values)], "c": [constant] * len(values)}))
    names = ["x", "y", "c"]
    space = MixedSpace.from_tables(tables, names)
    want = _frozen_per_table_spaces(tables, names)
    assert (space.n, len(space.num_cols), len(space.code_cols)) == (len(first) + len(second), 2, 1)
    mean, std = column_stats(np.concatenate([first, second]))
    pooled = np.concatenate([zscore(first, mean, std), zscore(second, mean, std)])
    assert space.num_cols[0].tobytes() == pooled.tobytes()  # the sign of every zero too
    assert space.num_cols[1].tobytes() == np.zeros(space.n).tobytes()
    # each table's rows, as views, are the space the table had on its own
    cut = len(first)
    for part, own in zip((space.take(slice(0, cut)), space.take(slice(cut, None))), want, strict=True):
        assert part.n == own.n
        assert [c.tobytes() for c in part.num_cols] == [c.tobytes() for c in own.num_cols]
        assert [c.tolist() for c in part.code_cols] == [c.tolist() for c in own.code_cols]
        if part.n:
            assert all(map(np.shares_memory, part.num_cols + part.code_cols, space.num_cols + space.code_cols))
    # one table's space is the one it had, bit for bit
    (alone,) = _frozen_per_table_spaces(tables[1:], names)
    only = MixedSpace.from_tables(tables[1:], names)
    assert [c.tobytes() for c in only.num_cols] == [c.tobytes() for c in alone.num_cols]
    assert [c.tolist() for c in only.code_cols] == [c.tolist() for c in alone.code_cols]


def test_linkage_attack_matches_the_exact_oracle_on_a_factory_and_label_ties(monkeypatch):
    # released labels never equal the external numbers: every external row is
    # scanned and most tie with several vectors, over several scan blocks
    table = build_people_table(seed=8, n=40)
    qi = list(table.qi_names)
    monkeypatch.setattr("sdckit.attacks._BLOCK_CELLS", 64)
    partition = mdav_partition(table, qi, 4)
    factory = lambda s: cluster_and_permute(table, qi, 4, s, partition=partition)
    _assert_linkage_matches_the_oracle(factory, table, 6, 11)
    ages = tuple(f"[{lo},{lo + 19}]" for lo in range(0, 120, 20))
    labelled = table.with_column(
        "age", [ages[int(v) // 20] for v in table.columns["age"]], kind=CategoricalKind(ages)
    ).with_column(
        "height", np.where(table.columns["height"] < 165, "short", "tall"), kind=CategoricalKind(("short", "tall"))
    )
    _assert_linkage_matches_the_oracle(labelled, table, 6, 12)
    assert 0 < linkage_attack(labelled, table).success_rate < 1


def test_linkage_searches_a_fixed_release_once_and_a_factory_once_per_trial(monkeypatch):
    table = build_people_table(seed=3, n=30)
    qi = list(table.qi_names)
    calls = []
    search = attacks._nearest_vectors
    monkeypatch.setattr(attacks, "_nearest_vectors", lambda *args: calls.append(args) or search(*args))
    _, release = mdav_microaggregate(table, qi, 3)
    linkage_attack(release, table, trials=5)
    assert len(calls) == 1
    factory = lambda s: cluster_and_permute(table, qi, 3, s, mode="per_attribute")
    linkage_attack(factory, table, trials=5)
    assert len(calls) == 6
    verify_probabilistic_k(factory, table, 3, trials=4)
    assert len(calls) == 10
    verify_probabilistic_k(release, table, 3, trials=4)
    assert len(calls) == 11


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.one_of(st.integers(2, 64), st.integers(2, 2**40)), min_size=1, max_size=40),
    st.integers(0, 2**63),
)
@example(bounds=[2**32 - 1, 2**32, 2**32 + 1, 3, 2**40], seed=0)
def test_one_integers_call_draws_what_one_call_per_bound_draws(bounds, seed):
    # the tie draw relies on this for the installed numpy: an array of int64
    # bounds gives the scalar calls' values, and leaves the generator where
    # they leave it (including half of a 64-bit output kept for the next
    # 32-bit draw)
    one, each = derive_rng(seed, "attack", 0), derive_rng(seed, "attack", 0)
    got = one.integers(np.asarray(bounds, dtype=np.int64)).tolist()
    assert got == [int(each.integers(b)) for b in bounds]
    assert one.integers(5) == each.integers(5)
    assert one.integers(2**40) == each.integers(2**40)


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
        # farthest point and the k-1-th neighbour are tied at most steps; n
        # at each edge of MDAV's rounds (one group, a remainder, one round,
        # a round and a remainder, two rounds) and past them. The
        # frozen space adds 8 or more numeric terms in numpy's pairwise order,
        # MixedSpace one by one; on such ties the last bit differs, so the
        # 9-numeric schema is left out here
        if pattern.count("n") >= 8:
            continue
        for n in (2 * k - 1, 2 * k, 3 * k - 1, 3 * k, 3 * k + 1, 4 * k, 61):
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
    only = MixedSpace.from_tables([ext], ["x"])
    assert only.num_cols[0] == pytest.approx([-1.224744871391589, 0.0, 1.224744871391589])
    both = MixedSpace.from_tables([rel, ext], ["x"])
    rel_space, ext_space = both.take(slice(0, 2)), both.take(slice(2, None))
    assert (rel_space.n, ext_space.n) == (2, 3)
    # numeric on one side only: compared as text, "0" < "2" < "4" < "[0-3)"
    assert rel_space.point(slice(None))[0].shape == (2, 0)
    assert rel_space.code_cols[0].tolist() == [3, 2]
    assert ext_space.code_cols[0].tolist() == [0, 1, 2]
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
    assert MixedSpace.from_tables([num, lab], ["x"]).code_cols[0].tolist() == want.tolist()


def test_verifier_and_linkage_attack_share_trials():
    table = build_people_table(seed=6, n=24)
    qi = list(table.qi_names)
    partition = mdav_partition(table, qi, 3)
    factory = lambda s: cluster_and_permute(table, qi, 3, s, partition=partition)
    report = verify_probabilistic_k(factory, table, 3, trials=25, rng_seed=9)
    attack = linkage_attack(factory, table, trials=25, rng_seed=9)
    assert list(report.per_record_rates) == [int(r) for r in table.row_ids]
    assert list(report.per_record_rates.values()) == attack.details["per_record_rates"]
    assert (report.trials, attack.trials) == (25, 25 * table.n_rows)
