"""The one mixed-attribute record distance, shared by MDAV grouping, record
linkage and class merging.

A space is built over one or more tables at once, as one pooled space: their
rows stacked in table order, so that each table's rows are one row range of
it. An attribute is numeric only if it is numeric in every table given; its
column is pooled over all of them once and z-scored once, with the pooled
mean and population standard deviation (a constant column contributes zero),
and compared by squared difference. Every other attribute is compared as
canonical text (the text a release is written with), stored as integer codes
whose order is the order of the text, over one support for all the tables
(``microdata.value_codes``), and contributes 0/1 per mismatch. A distance
adds its terms one attribute at a time, numeric terms first, then the
mismatches. Distances are squared, which preserves nearest/farthest
decisions, and may be taken from a block of points at once.

A space stores each attribute as its own contiguous 1-D array, so MDAV
shrinks its pool of remaining rows with one 1-D gather per column instead of
copying a 2-D block row by row, and every scan reads a column without a
stride. A centroid's mean adds in the order numpy's ``mean(axis=0)`` of the
row-major block did (pairwise for one numeric attribute, row by row for
more), so distances, ties and partitions are byte for byte what the
row-major layout gave.

The linkage search is described at ``attacks._nearest_vectors``. It builds
one space of the release and the external table and sorts it once; the
external table's rows are a row range of it, as views. It bounds a
distance from below by its term for one numeric attribute, and by 1.0 when
any categorical attribute mismatches: every term is at least +0 and rounded
addition is monotone, so no sum is below any one of its terms
(``attacks._window_scan``, ``attacks._cell_scan``). ``sq_dist_to`` (a point
against rows) and ``sq_dist_pairs`` (row against row, pair by pair) add
their terms in one loop, ``_sum_terms``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .microdata import MicrodataTable, value_codes


def column_stats(col: np.ndarray) -> tuple[float, float]:
    """Mean and population std of one float column: ``col.mean()`` and
    ``.std()`` bit for bit, by their sums, divisions and square root, without their wrappers."""
    mean = np.add.reduce(col) / col.size
    return float(mean), float(np.sqrt(np.add.reduce(np.square(col - mean)) / col.size))


def zscore(col: np.ndarray, mean: float, std: float) -> np.ndarray:
    col = np.asarray(col, dtype=float)
    if std == 0.0:
        return np.zeros_like(col)
    return (col - mean) / std


class MixedSpace:
    """Rows of one or more tables projected onto z-scored numeric and coded categorical columns.

    A point is a ``(numeric, codes)`` pair of arrays: one row's, a centroid's,
    or a block of rows stacked along a leading axis. The space itself keeps
    one contiguous 1-D array per attribute (``num_cols``, then ``code_cols``);
    ``take`` shrinks it with one 1-D gather per column, which moves values
    without changing them. A space of several tables (``from_tables``) is
    one pooled space: the linkage search sorts it once, and the external
    table's rows are a row range of it, taken as views.

    ``centroid`` averages the rows the way ``mean(axis=0)`` of the row-major
    n x dn block would: numpy adds an (m, 1) block pairwise and an (m, d)
    block with d >= 2 one row at a time, so one numeric column is averaged
    with the pairwise ``mean()`` and two or more with a running sum
    (``np.add.accumulate``), which adds in row order.
    """

    def __init__(self, n: int, num_cols: list[np.ndarray], code_cols: list[np.ndarray]):
        """The space of ``n`` rows given as 1-D numeric and code columns."""
        self.n, self.num_cols, self.code_cols = n, num_cols, code_cols

    @classmethod
    def from_tables(cls, tables: Sequence[MicrodataTable], attributes: Sequence[str]) -> "MixedSpace":
        """The one space of the rows of every table, stacked in table order;
        ``take`` of a row range gives one table's rows as views. A numeric
        attribute's column is pooled over the tables once and z-scored once
        with its ``column_stats``, so each table's rows hold the z-scores that
        table's column alone would get with the pooled statistics. A
        categorical attribute holds each table's ``value_codes`` into their
        one support."""
        tables = list(tables)
        num_cols, code_cols = [], []
        for name in attributes:
            if all(t.attribute(name).is_numeric for t in tables):
                pooled = np.concatenate([np.asarray(t.columns[name], dtype=float) for t in tables])
                num_cols.append(zscore(pooled, *column_stats(pooled)))
            else:
                code_cols.append(np.concatenate(value_codes(tables, name)[1]))
        return cls(sum(t.n_rows for t in tables), num_cols, code_cols)

    def _rows(self, cols: list[np.ndarray], i, dtype) -> np.ndarray:
        """Rows ``i`` of ``cols`` with the columns along the last axis."""
        return np.array([c[i] for c in cols], dtype).T if cols else np.zeros((self.n, 0), dtype)[i]

    def point(self, i) -> tuple[np.ndarray, np.ndarray]:
        """Row ``i``, or a block of rows for a slice or an index array."""
        return self._rows(self.num_cols, i, float), self._rows(self.code_cols, i, np.intp)

    def take(self, rows) -> "MixedSpace":
        """The space of the rows ``rows`` (an index array or a boolean mask), in
        that order, or of a slice of them, whose columns are views."""
        if isinstance(rows, slice):
            n = len(range(self.n)[rows])
        else:
            rows = np.asarray(rows)
            n = int(np.count_nonzero(rows)) if rows.dtype == bool else rows.size
        return MixedSpace(n, [c[rows] for c in self.num_cols], [c[rows] for c in self.code_cols])

    def centroid(self, indices=None) -> tuple[np.ndarray, np.ndarray]:
        """Numeric mean plus per-attribute mode (ties broken by smallest text)
        of every row, or of the rows in ``indices``."""
        rows = slice(None) if indices is None else np.asarray(indices, dtype=np.int64)
        num = [c[rows] for c in self.num_cols]
        if len(num) == 1:
            means = [num[0].mean()]  # pairwise, as numpy averages an (m, 1) block
        else:
            # row order, as numpy averages an (m, d >= 2) block; its sum starts
            # from +0.0, so "+ 0.0" turns a column of -0.0 into +0.0 as it does
            means = [(np.add.accumulate(c)[-1] + 0.0) / c.size for c in num]
        modes = [np.bincount(c[rows]).argmax() for c in self.code_cols]
        return np.asarray(means, dtype=float), np.asarray(modes, dtype=np.intp)

    def sq_dist_to(self, point, indices=None) -> np.ndarray:
        """Squared distances from one point (or a block of b points) to every
        row, or to the rows in the index array ``indices``; shape (m,) or (b, m)."""
        num_point, code_point = (np.asarray(p) for p in point)
        shape = num_point.shape[:-1] + (self.n if indices is None else len(indices),)
        num_cols, code_cols = self.num_cols, self.code_cols
        if indices is not None:
            num_cols, code_cols = ((col[indices] for col in cols) for cols in (num_cols, code_cols))
        # a point's value per attribute, as a column (b, 1) against the rows
        return _sum_terms(num_cols, num_point.T[..., None], code_cols, code_point.T[..., None], shape)

    def sq_dist_pairs(self, rows: np.ndarray, other: "MixedSpace", other_rows: np.ndarray) -> np.ndarray:
        """Squared distance from row ``rows[i]`` to row ``other_rows[i]`` of
        ``other``, a space on the same attributes, for every i."""
        return _sum_terms(
            (col[rows] for col in self.num_cols),
            (col[other_rows] for col in other.num_cols),
            (col[rows] for col in self.code_cols),
            (col[other_rows] for col in other.code_cols),
            (len(rows),),
        )


def _sum_terms(num_cols, num_points, code_cols, code_points, shape) -> np.ndarray:
    """The one distance formula: the squared difference of each numeric
    column and its point values, in column order, then the mismatch of each
    code column and its point values, added one term at a time; every pair
    broadcasts to ``shape``."""
    d = None  # the first numeric term is the sum: +0.0 + t is t for every t >= +0
    for col, x in zip(num_cols, num_points):
        diff = col - x
        diff *= diff
        if d is None:
            d = diff
        else:
            d += diff
    if d is None:
        d = np.zeros(shape)
    for col, x in zip(code_cols, code_points):
        d += col != x
    return d
