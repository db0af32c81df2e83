"""cluster_and_permute and anatomize draw every group's permutation from one
``derive_rngs`` batch, and cluster_and_permute shuffles each group's rows in
place. Frozen copies of the per-group ``derive_rng`` loops they replaced must
give the same release tables, partitions and provenance, the same source row
for every released QI cell and the same confidential order, on given and on
MDAV partitions, and the text codes a permuted release carries must equal a
fresh encoding of its columns."""

import numpy as np
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
# frozen references
# --------------------------------------------------------------------------


def _old_permute_sources(n, qi, partition, rng_seed, mode):
    source = {name: np.arange(n) for name in qi}
    for gid, group in enumerate(partition):
        idx = np.asarray(group, dtype=np.int64)
        rng = derive_rng(rng_seed, "permute", gid)
        shared = rng.permutation(idx.size) if mode == "vector" else None
        for name in qi:
            perm = shared if shared is not None else rng.permutation(idx.size)
            source[name][idx] = idx[perm]
    return source


def _old_anatomy_order(partition, rng_seed):
    order = []
    for gid, g in enumerate(partition):
        rng = derive_rng(rng_seed, "anatomy", gid)
        idx = np.asarray(g, dtype=np.int64)
        order.extend(idx[rng.permutation(idx.size)].tolist())
    return np.asarray(order, dtype=np.int64)


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
# oracle
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

    source = _old_permute_sources(table.n_rows, qi, partition, seed, mode)
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

    order = _old_anatomy_order(partition, seed)
    conf = release.conf_table
    assert conf.columns["group_id"].tolist() == partition.labels[order].astype(float).tolist()
    assert conf.columns["d"].tolist() == table.columns["d"][order].tolist()
    assert conf.row_ids.tolist() == list(range(table.n_rows))

    positions = anatomize(_positions(table.n_rows), partition, k, seed)
    assert positions.conf_table.columns["d"].astype(np.int64).tolist() == order.tolist()
