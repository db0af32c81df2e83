"""MDAV on the column-wise pool against a frozen copy of the row-major pool
it replaced: the same partitions on tables with ties, -0.0 and gaps that
square to 0, centroids equal bit for bit, and a pinned partition at 20k rows."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdckit import AttributeSchema, CategoricalKind, NumericKind, mdav_partition
from sdckit.metric import MixedSpace
from sdckit.microdata import Partition, make_table

from conftest import build_people_table

# -- frozen reference code ----------------------------------------------------------


class _RowMajorSpace:
    """``MixedSpace`` as it was: one n x dn float block and one n x dc code block."""

    def __init__(self, numeric, codes):
        self.numeric, self.codes = numeric, codes

    def point(self, i):
        return self.numeric[i], self.codes[i]

    def centroid(self, indices=None):
        num, codes = self.point(slice(None) if indices is None else np.asarray(indices, dtype=np.int64))
        modes = [np.bincount(codes[:, j]).argmax() for j in range(codes.shape[1])]
        return num.mean(axis=0), np.asarray(modes, dtype=self.codes.dtype)

    def sq_dist_to(self, point, indices=None):
        num_point, code_point = (np.asarray(p) for p in point)
        num = self.numeric if indices is None else self.numeric[indices]
        codes = self.codes if indices is None else self.codes[indices]
        d = np.zeros(num_point.shape[:-1] + num.shape[:1])
        for j in range(num.shape[1]):
            diff = num[:, j] - num_point[..., j, None]
            diff *= diff
            d += diff
        for j in range(codes.shape[1]):
            d += codes[:, j] != code_point[..., j, None]
        return d


def _frozen_mdav_partition(table, qi, k):
    """``mdav_partition`` as it was, compacting the 2-D blocks after each group."""
    n = table.n_rows
    (space,) = MixedSpace.from_tables([table], qi)  # z-scores and codes, packed as row-major blocks
    pool = _RowMajorSpace(*map(np.ascontiguousarray, space.point(slice(None))))
    ids = np.arange(n, dtype=np.int64)
    groups = []

    def take_group(d):
        nonlocal pool, ids
        cut = np.partition(d, k - 1)[k - 1]
        chosen = d < cut
        chosen[np.flatnonzero(d == cut)[: k - np.count_nonzero(chosen)]] = True
        group = ids[chosen].tolist()
        keep = ~chosen
        pool, ids = _RowMajorSpace(pool.numeric[keep], pool.codes[keep]), ids[keep]
        return group

    def distances_from(i):
        d = pool.sq_dist_to(pool.point(i))
        d[i] = -1.0
        return d

    def far_extreme():
        return int(np.argmax(pool.sq_dist_to(pool.centroid())))

    while ids.size >= 3 * k:
        r = far_extreme()
        d = distances_from(r)
        s = int(np.argmax(d))
        s_id = ids[s]
        d[s] = np.inf
        groups.append(take_group(d))
        s = int(np.searchsorted(ids, s_id))
        groups.append(take_group(distances_from(s)))
    if ids.size >= 2 * k:
        groups.append(take_group(distances_from(far_extreme())))
    if ids.size:
        groups.append(ids.tolist())
    return Partition(groups)


# -- partitions ----------------------------------------------------------------------

# value pools per numeric column kind; a "zero" or "tiny" column also gets one
# +1 and one -1, so its pooled mean is 0 (up to the tiny values) and its
# z-scores keep the sign of zero and gaps whose squares are 0
NUMERIC_VALUES = {
    "wide": tuple(map(float, range(21))),
    "int": (0.0, 1.0, 2.0, 3.0, 4.0),
    "two": (0.0, 1.0),
    "zero": (-0.0, 0.0),
    "tiny": (0.0, 1e-200, 2e-200),
}
CATS = ("a", "b", "c")


@st.composite
def mdav_inputs(draw):
    """(table, k): 0, 1, 2, 3 or 9 numeric QIs and up to two categorical
    ones, in any order, with k from 2 to 5 and n from k to 60."""
    n_numeric = draw(st.sampled_from([0, 1, 2, 3, 9]))
    n_cats = draw(st.integers(0 if n_numeric else 1, 2))
    kinds = [draw(st.sampled_from(sorted(NUMERIC_VALUES))) for _ in range(n_numeric)]
    kinds += [draw(st.sampled_from(["cat", "cat2"])) for _ in range(n_cats)]
    kinds = draw(st.permutations(kinds))
    k = draw(st.integers(2, 5))
    n = draw(st.integers(k, 60))
    schema, cols = [], {}
    for j, kind in enumerate(kinds):
        name = f"q{j}"
        if kind.startswith("cat"):
            values = CATS[:2] if kind == "cat2" else CATS
            schema.append(AttributeSchema(name, "quasi_identifier", CategoricalKind(CATS)))
            cols[name] = draw(st.lists(st.sampled_from(values), min_size=n, max_size=n))
        else:
            schema.append(AttributeSchema(name, "quasi_identifier", NumericKind(-1, 20)))
            col = draw(st.lists(st.sampled_from(NUMERIC_VALUES[kind]), min_size=n, max_size=n))
            if kind in ("zero", "tiny"):
                col[0], col[1] = 1.0, -1.0
            cols[name] = col
    return make_table(schema, cols), k


@settings(max_examples=300, deadline=None)
@given(mdav_inputs())
def test_mdav_partition_matches_the_frozen_row_major_pool(inputs):
    table, k = inputs
    qi = list(table.qi_names)
    assert mdav_partition(table, qi, k) == _frozen_mdav_partition(table, qi, k)


def test_mdav_partition_at_20k_rows_is_pinned():
    # the digest the row-major pool gave: byte identity at scale, where the
    # centroid sums run far past numpy's pairwise blocks
    table = build_people_table(seed=20, n=20000)
    partition = mdav_partition(table, list(table.qi_names), 5)
    digest = hashlib.sha256(json.dumps(partition).encode()).hexdigest()
    assert digest == "8bda0ba7eaccab55d72535e0208476b2d33b3877069d4eaa771a32419184d8d5"


# -- centroids -----------------------------------------------------------------------


def _block(n_numeric, m, seed):
    """An m x n_numeric float block with -0.0 cells, its last column all -0.0
    for odd seeds, and an m x 2 code block."""
    rng = np.random.default_rng(seed)
    numeric = rng.normal(size=(m, n_numeric))
    numeric[rng.random((m, n_numeric)) < 0.2] = -0.0
    if seed % 2:
        numeric[:, -1] = -0.0
    codes = rng.integers(0, 3, size=(m, 2)).astype(np.intp)
    return numeric, codes


def _bits(point):
    return [a.dtype.str + a.tobytes().hex() for a in point]


@pytest.mark.parametrize("n_numeric", [1, 2, 3, 9])
def test_centroid_adds_like_the_row_major_mean(n_numeric):
    for seed, m in enumerate([1, 2, 7, 8, 9, 16, 17, 100, 129, 130, 1000, 5000]):
        numeric, codes = _block(n_numeric, m, seed)
        frozen = _RowMajorSpace(numeric, codes)
        space = MixedSpace(m, list(np.ascontiguousarray(numeric.T)), list(np.ascontiguousarray(codes.T)))
        assert _bits(space.centroid()) == _bits(frozen.centroid())
        rng = np.random.default_rng(seed)
        keep = rng.random(m) < 0.7
        keep[0] = True
        rows = np.flatnonzero(keep)
        # a subset by indices (how classes are merged) and a compacted pool (how MDAV shrinks)
        assert _bits(space.centroid(rows)) == _bits(frozen.centroid(rows))
        assert _bits(space.take(keep).centroid()) == _bits(
            _RowMajorSpace(numeric[keep], codes[keep]).centroid()
        )
