"""cluster_and_permute and anatomize each shuffle every class at once from
one stream: ``derive_rng(seed, "permute")`` or ``derive_rng(seed,
"anatomy")`` draws one permutation of all rows (one per QI, in QI order, for
per-attribute permutation), and each class's rows are taken in the order of
their entries in it. A reference that sorts each class's rows by those
entries, class by class, must give the same release tables, partitions and
provenance, the same source row for every released QI cell and the same
confidential order, on given and on MDAV partitions, and the text codes a
permuted release carries must equal a fresh encoding of its columns. Over
many seeds, every order of a class occurs about equally often, independently
of the other class's order. At the edges of the seed range the release is the
reference's, and a seed and that seed plus 2**64 give one release."""

from collections import Counter
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdckit import (
    AttributeSchema,
    CategoricalKind,
    NumericKind,
    Partition,
    Provenance,
    anatomize,
    cluster_and_permute,
    mdav_partition,
)
from sdckit.microdata import MicrodataTable, _encode_text, make_table, text_codes
from sdckit.probkanon import PERMUTE_MODES
from sdckit.seeds import derive_rng

# --------------------------------------------------------------------------
# references
# --------------------------------------------------------------------------


def _ranked_order(partition, perm):
    """Every row, class by class in partition order, each class's rows sorted by ``perm[row]``."""
    return np.asarray([row for group in partition for row in sorted(group, key=lambda row: perm[row])], dtype=np.int64)


def _reference_permute_sources(n, qi, partition, rng_seed, mode):
    rng = derive_rng(rng_seed, "permute")
    shared = rng.permutation(n) if mode == "vector" else None
    members = [row for group in partition for row in group]
    source = {name: np.empty(n, dtype=np.int64) for name in qi}
    for name in qi:  # the row at position j of the class-by-class order takes the reference's entry j
        source[name][members] = _ranked_order(partition, shared if shared is not None else rng.permutation(n))
    return source


def _reference_anatomy_order(partition, rng_seed):
    return _ranked_order(partition, derive_rng(rng_seed, "anatomy").permutation(len(partition.labels)))


# --------------------------------------------------------------------------
# tables and partitions
# --------------------------------------------------------------------------

NUMBERS = [0.0, -0.0, 1.0, -1.0, 2.5, 2.0**53, 1e17]
TEXTS = ["a", "b", "0", "-0", "10"]
NAMES = ("x", "t", "y")


def _schema(numeric_only):
    text = NumericKind(-1, 99) if numeric_only else CategoricalKind(tuple(TEXTS))
    return (
        AttributeSchema("pid", "identifier", text),
        AttributeSchema("x", "quasi_identifier", NumericKind(-1e18, 1e18)),
        AttributeSchema("t", "quasi_identifier", text),
        AttributeSchema("y", "quasi_identifier", NumericKind(-1e18, 1e18)),
        AttributeSchema("w", "non_confidential", NumericKind(-1e18, 1e18)),
        AttributeSchema("d", "confidential", text),
    )


@st.composite
def cases(draw):
    """A table with repeated values and -0.0, a partition of it, the QIs in some order, a seed."""
    n = draw(st.integers(1, 14))

    def cells(values):
        return draw(st.lists(st.sampled_from(values), min_size=n, max_size=n))

    table = make_table(_schema(False), {"pid": cells(TEXTS), "x": cells(NUMBERS), "t": cells(TEXTS),
                                        "y": cells(NUMBERS), "w": cells(NUMBERS), "d": cells(TEXTS)})
    top = draw(st.integers(0, 3))  # 0: one group
    partition = Partition.of_labels(draw(st.lists(st.integers(0, top), min_size=n, max_size=n)))
    qi = draw(st.permutations(NAMES))[: draw(st.integers(1, 3))]
    return table, partition, list(qi), draw(st.integers(-(2**64), 2**70))


def _positions(n):
    """Every column holds the row's position, so a released cell names its source row."""
    return make_table(_schema(True), {a.name: np.arange(n, dtype=float) for a in _schema(True)})


def _same_table(a, b):
    assert a.schema == b.schema
    assert a.row_ids.tolist() == b.row_ids.tolist()
    for name in a.names:
        x, y = a.columns[name], b.columns[name]
        assert x.dtype == y.dtype
        assert (x.tobytes() == y.tobytes()) if x.dtype != object else (x.tolist() == y.tolist())


# --------------------------------------------------------------------------
# against the references
# --------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(cases(), st.sampled_from(PERMUTE_MODES), st.booleans())
def test_cluster_and_permute_matches_the_per_group_loop(case, mode, mdav):
    table, partition, qi, seed = case
    k = int(partition.sizes.min())
    if mdav and table.n_rows >= 2:  # the partition MDAV makes inside the call, groups of 2..3 rows
        k, partition = 2, mdav_partition(table, qi, 2)
        release = cluster_and_permute(table, qi, k, seed, mode=mode)
        assert release.partition == partition
    else:
        release = cluster_and_permute(table, qi, k, seed, mode=mode, partition=partition)
        assert release.partition is partition
    assert release.provenance == Provenance("cluster_and_permute", {"k": k, "qi": qi, "mode": mode}, seed)

    source = _reference_permute_sources(table.n_rows, qi, partition, seed, mode)
    kept = tuple(a for a in table.schema if a.role != "identifier")
    columns = {a.name: table.columns[a.name][source[a.name]] if a.name in source else table.columns[a.name]
               for a in kept}
    _same_table(release.table, MicrodataTable(kept, columns, table.row_ids))

    positions = cluster_and_permute(_positions(table.n_rows), qi, k, seed, mode=mode, partition=partition)
    for name in qi:
        assert positions.table.columns[name].astype(np.int64).tolist() == source[name].tolist()

    for name in qi:  # carried from the source table, equal to encoding the release afresh
        distinct, codes = release.table._text_codes[name]
        fresh_distinct, fresh_codes = _encode_text(release.table, name)
        assert distinct.tolist() == fresh_distinct.tolist()
        assert codes.dtype == fresh_codes.dtype and codes.tolist() == fresh_codes.tolist()
        assert not codes.flags.writeable
        assert text_codes(release.table, name)[1] is codes


@settings(max_examples=150, deadline=None)
@given(cases())
def test_anatomize_matches_the_per_group_loop(case):
    table, partition, _, seed = case
    k = int(partition.sizes.min())
    release = anatomize(table, partition, k, seed)

    order = _reference_anatomy_order(partition, seed)
    conf = release.conf_table
    assert conf.columns["group_id"].tolist() == partition.labels[order].astype(float).tolist()
    assert conf.columns["d"].tolist() == table.columns["d"][order].tolist()
    assert conf.row_ids.tolist() == list(range(table.n_rows))

    positions = anatomize(_positions(table.n_rows), partition, k, seed)
    assert positions.conf_table.columns["d"].astype(np.int64).tolist() == order.tolist()


# --------------------------------------------------------------------------
# uniform and independent
# --------------------------------------------------------------------------

UNIFORM_SEEDS = range(1200)
CLASSES = [[0, 2, 4], [1, 3, 5]]  # interleaved, so a draw that moved rows across classes would show


def _permute_orders(seed):
    """Each class's order: the class positions of the source rows its rows take, in class order."""
    source = cluster_and_permute(_positions(6), ["x"], 3, seed, partition=CLASSES).table.columns["x"]
    return [tuple(group.index(int(source[row])) for row in group) for group in CLASSES]


def _anatomy_orders(seed):
    """Each class's order: the class positions of its confidential rows, in release order."""
    order = anatomize(_positions(6), CLASSES, 3, seed).conf_table.columns["d"].astype(np.int64).tolist()
    return [tuple(group.index(row) for row in order[3 * c : 3 * c + 3]) for c, group in enumerate(CLASSES)]


def test_every_class_order_is_equally_likely_and_the_classes_independent():
    # 1200 draws of 6 equally likely orders: each order's count has mean 200 and sd 12.9, as has the count of
    # draws that give both classes one order
    for orders_of in (_permute_orders, _anatomy_orders):
        orders = [orders_of(seed) for seed in UNIFORM_SEEDS]
        for c in range(len(CLASSES)):
            counts = Counter(order[c] for order in orders)
            assert set(counts) == set(permutations(range(3)))
            assert all(140 <= count <= 260 for count in counts.values()), counts
        assert 148 <= sum(first == second for first, second in orders) <= 252


# --------------------------------------------------------------------------
# the stream at the edges of the seed range
# --------------------------------------------------------------------------

EDGE_SEEDS = [0, 1, 5, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1, -1, -(2**63), 2**70 + 1]
EDGE_LABELS = [0, 1, 2, 0, 1, 2, 0, 1, 2, 2, 1]  # classes of 3, 4 and 4 rows, interleaved


@pytest.mark.parametrize("seed", EDGE_SEEDS)
@pytest.mark.parametrize("tag", ["permute", "anatomy"])
def test_release_draws_its_shuffle_from_derive_rng(seed, tag):
    # the seed is taken mod 2**64 by derive_rng alone: a release at seed s and at s + 2**64 are one release
    n, partition = len(EDGE_LABELS), Partition.of_labels(EDGE_LABELS)
    table = _positions(n)
    if tag == "anatomy":
        order = _reference_anatomy_order(partition, seed).tolist()
        for same in (seed, seed + 2**64):
            assert anatomize(table, partition, 3, same).conf_table.columns["d"].astype(np.int64).tolist() == order
        return
    for mode in PERMUTE_MODES:
        source = _reference_permute_sources(n, list(NAMES), partition, seed, mode)
        for same in (seed, seed + 2**64):
            release = cluster_and_permute(table, list(NAMES), 3, same, mode=mode, partition=partition)
            for name in NAMES:
                assert release.table.columns[name].astype(np.int64).tolist() == source[name].tolist()
