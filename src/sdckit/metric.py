"""The one mixed-attribute record distance, shared by MDAV grouping, record
linkage and class merging.

A space is built over one or more tables at once. An attribute is numeric
only if it is numeric in every table given; it is z-scored with its mean and
population standard deviation pooled over all of them (a constant column
contributes zero) and compared by squared difference. Every other attribute
is compared as canonical text (the text a release is written with), stored
as integer codes whose order is the order of the text, over one support for
all the tables (``microdata.value_codes``), and contributes 0/1 per
mismatch. A distance adds its terms one attribute at a time, numeric terms
first, then the mismatches. Distances are squared, which preserves
nearest/farthest decisions, and may be taken from a block of points at once.

A space stores each attribute as its own contiguous 1-D array, so MDAV
shrinks its pool of remaining rows with one 1-D gather per column instead of
copying a 2-D block row by row, and every scan reads a column without a
stride. A centroid's mean adds in the order numpy's ``mean(axis=0)`` of the
row-major block did (pairwise for one numeric attribute, row by row for
more), so distances, ties and partitions are byte for byte what the
row-major layout gave.

The linkage search is described at ``attacks._nearest_vectors``. It bounds a
distance from below by its term for one numeric attribute: every term is at
least +0 and rounded addition is monotone, so no sum is below any one of its
terms (``attacks._window_scan``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .microdata import MicrodataTable, value_codes


def column_stats(columns: Sequence[np.ndarray]) -> tuple[float, float]:
    """Pooled mean and population std over one or more numeric columns: ``pooled.mean()``
    and ``.std()`` bit for bit, by their sums, divisions and square root, without their wrappers."""
    pooled = np.concatenate([np.asarray(c, dtype=float) for c in columns])
    mean = np.add.reduce(pooled) / pooled.size
    return float(mean), float(np.sqrt(np.add.reduce(np.square(pooled - mean)) / pooled.size))


def zscore(col: np.ndarray, mean: float, std: float) -> np.ndarray:
    col = np.asarray(col, dtype=float)
    if std == 0.0:
        return np.zeros_like(col)
    return (col - mean) / std


class MixedSpace:
    """Rows of one table projected onto z-scored numeric and coded categorical columns.

    A point is a ``(numeric, codes)`` pair of arrays: one row's, a centroid's,
    or a block of rows stacked along a leading axis. The space itself keeps
    one contiguous 1-D array per attribute (``num_cols``, then ``code_cols``);
    ``take`` shrinks it with one 1-D gather per column, which moves values
    without changing them.

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
    def from_tables(
        cls, tables: Sequence[MicrodataTable], attributes: Sequence[str]
    ) -> list["MixedSpace"]:
        """One space per table, all on the same scale and the same codes."""
        tables = list(tables)
        num_cols: list[list[np.ndarray]] = [[] for _ in tables]
        code_cols: list[list[np.ndarray]] = [[] for _ in tables]
        for name in attributes:
            if all(t.attribute(name).is_numeric for t in tables):
                cols = [t.columns[name] for t in tables]
                mean, std = column_stats(cols)
                for out, col in zip(num_cols, cols):
                    out.append(zscore(col, mean, std))
            else:
                for out, codes in zip(code_cols, value_codes(tables, name)[1]):
                    out.append(codes)
        return [cls(t.n_rows, num, cat) for t, num, cat in zip(tables, num_cols, code_cols)]

    def _rows(self, cols: list[np.ndarray], i, dtype) -> np.ndarray:
        """Rows ``i`` of ``cols`` with the columns along the last axis."""
        return np.array([c[i] for c in cols], dtype).T if cols else np.zeros((self.n, 0), dtype)[i]

    def point(self, i) -> tuple[np.ndarray, np.ndarray]:
        """Row ``i``, or a block of rows for a slice or an index array."""
        return self._rows(self.num_cols, i, float), self._rows(self.code_cols, i, np.intp)

    def take(self, rows) -> "MixedSpace":
        """The space of the rows ``rows`` (an index array or a boolean mask), in that order."""
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
        d = None  # the first numeric term is the sum: +0.0 + t is t for every t >= +0
        for j, col in enumerate(self.num_cols):
            diff = (col if indices is None else col[indices]) - num_point[..., j, None]
            diff *= diff
            if d is None:
                d = diff
            else:
                d += diff
        if d is None:
            d = np.zeros(shape)
        for j, col in enumerate(self.code_cols):
            d += (col if indices is None else col[indices]) != code_point[..., j, None]
        return d
