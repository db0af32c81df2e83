"""The one mixed-attribute record distance, shared by MDAV grouping, record
linkage and class merging.

A space is built over one or more tables at once. An attribute is numeric
only if it is numeric in every table given; it is z-scored with its mean and
population standard deviation pooled over all of them (a constant column
contributes zero) and compared by squared difference. Every other attribute
is compared as canonical text (``microdata.comparable_text``, the text a
release is written with), stored as integer codes whose order is the order of
the text, and contributes 0/1 per mismatch. A distance adds its terms one
attribute at a time, numeric terms first, then the mismatches. Distances are
squared, which preserves nearest/farthest decisions, and may be taken from a
block of points at once.

Record linkage takes distances once per distinct release vector: it keys the
rows of both tables by their vector, an external row whose vector occurs in
the release is at distance 0 from exactly the release rows behind it and
needs no scan (unless a numeric gap squares to 0, which is checked), and the
other external rows are scanned in bounded blocks against the distinct
release vectors only. MDAV keeps its remaining rows as one compacted space,
so each distance runs over contiguous arrays without gathering rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .microdata import MicrodataTable, comparable_text, factorize


def column_stats(columns: Sequence[np.ndarray]) -> tuple[float, float]:
    """Pooled mean and population std over one or more numeric columns."""
    pooled = np.concatenate([np.asarray(c, dtype=float) for c in columns])
    mean = float(pooled.mean())
    std = float(pooled.std())
    return mean, std


def zscore(col: np.ndarray, mean: float, std: float) -> np.ndarray:
    col = np.asarray(col, dtype=float)
    if std == 0.0:
        return np.zeros_like(col)
    return (col - mean) / std


@dataclass
class MixedSpace:
    """Rows of one table projected onto z-scored numeric and coded categorical blocks.

    A point is a ``(numeric, codes)`` pair: one row's, a centroid's, or a
    block of rows stacked along a leading axis.
    """

    numeric: np.ndarray  # n x dn, z-scored
    codes: np.ndarray    # n x dc, integer text codes

    @classmethod
    def from_tables(
        cls, tables: Sequence[MicrodataTable], attributes: Sequence[str]
    ) -> list["MixedSpace"]:
        """One space per table, all on the same scale and the same codes."""
        tables = list(tables)
        num_cols: list[list[np.ndarray]] = [[] for _ in tables]
        code_cols: list[list[np.ndarray]] = [[] for _ in tables]
        splits = np.cumsum([t.n_rows for t in tables])[:-1]
        for name in attributes:
            if all(t.attribute(name).is_numeric for t in tables):
                cols = [t.columns[name] for t in tables]
                mean, std = column_stats(cols)
                for out, col in zip(num_cols, cols):
                    out.append(zscore(col, mean, std))
            else:
                text = np.concatenate([comparable_text(t, name) for t in tables])
                distinct, first_seen = factorize(text)
                # number the distinct texts in sorted order, as np.unique would
                rank = np.empty(len(distinct), dtype=np.intp)
                rank[sorted(range(len(distinct)), key=distinct.__getitem__)] = np.arange(len(distinct))
                codes = rank[first_seen]
                for out, part in zip(code_cols, np.split(codes, splits)):
                    out.append(part)
        return [
            cls(
                numeric=np.column_stack(num) if num else np.zeros((t.n_rows, 0)),
                codes=np.column_stack(cat) if cat else np.zeros((t.n_rows, 0), dtype=np.intp),
            )
            for t, num, cat in zip(tables, num_cols, code_cols)
        ]

    @property
    def n(self) -> int:
        return self.numeric.shape[0]

    def point(self, i) -> tuple[np.ndarray, np.ndarray]:
        """Row ``i``, or a block of rows for a slice or an index array."""
        return self.numeric[i], self.codes[i]

    def centroid(self, indices=None) -> tuple[np.ndarray, np.ndarray]:
        """Numeric mean plus per-attribute mode (ties broken by smallest text)
        of every row, or of the rows in ``indices``."""
        num, codes = self.point(slice(None) if indices is None else np.asarray(indices, dtype=np.int64))
        modes = [np.bincount(codes[:, j]).argmax() for j in range(codes.shape[1])]
        return num.mean(axis=0), np.asarray(modes, dtype=self.codes.dtype)

    def sq_dist_to(self, point, indices=None) -> np.ndarray:
        """Squared distances from one point (or a block of b points) to every
        row, or to the rows in ``indices``; shape (m,) or (b, m)."""
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
