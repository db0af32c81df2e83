"""Confidential-attribute protection: l-diversity, t-closeness, and the
constrained class formation that enforces both on top of k-anonymity.

Earth mover's distance comes in two closed forms: the 1-D formula for ordered
numeric supports and total variation for categorical supports under the 0/1
ground distance. Both are checked elsewhere against a brute-force
transportation solver. ``emd_rows`` takes a matrix of masses at once, and
``emd`` is its one-row case. Checks and attacks judge classes from one count
matrix per confidential column (``ClassValues``): one pass over the rows,
not one per class.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import EmptyClass, Infeasible, InvalidT, SupportMismatch
from .kanon import mdav_partition
from .metric import MixedSpace
from .microdata import MicrodataTable, Partition, as_table, class_counts, value_codes


# --------------------------------------------------------------------------
# distributions and ground distances
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Distribution:
    """Probability mass over an explicit finite support."""

    support: tuple
    mass: tuple[float, ...]

    def __post_init__(self):
        if len(self.support) != len(self.mass):
            raise ValueError("support and mass lengths differ")
        if len(set(self.support)) != len(self.support):
            raise ValueError("support has duplicate points")
        if any(m < -1e-12 for m in self.mass):
            raise ValueError("negative probability mass")
        total = math.fsum(self.mass)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"mass sums to {total}, not 1")

    @classmethod
    def from_values(cls, values: Sequence, support: Sequence | None = None) -> "Distribution":
        values = list(values)
        if not values:
            raise EmptyClass("cannot build a distribution from zero values")
        counts = Counter(values)
        if support is None:
            support = sorted(counts)
        n = len(values)
        return cls(tuple(support), tuple(counts.get(s, 0) / n for s in support))


@dataclass(frozen=True)
class GroundDistance:
    """ordered_numeric: |rank_i - rank_j| / (m - 1); categorical_uniform: 0/1."""

    kind: str

    def __post_init__(self):
        if self.kind not in ("ordered_numeric", "categorical_uniform"):
            raise ValueError(f"unknown ground distance {self.kind!r}")

    def matrix(self, m: int) -> np.ndarray:
        if self.kind == "categorical_uniform" or m == 1:
            return 1.0 - np.eye(m)
        idx = np.arange(m, dtype=float)
        return np.abs(idx[:, None] - idx[None, :]) / (m - 1)


ORDERED_NUMERIC = GroundDistance("ordered_numeric")
CATEGORICAL_UNIFORM = GroundDistance("categorical_uniform")


def _aligned(p: Distribution, q: Distribution, d: GroundDistance):
    support = sorted(set(p.support) | set(q.support))
    if d.kind == "ordered_numeric":
        for v in support:
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                raise SupportMismatch(f"ordered_numeric needs numeric support, found {v!r}")
    pm = dict(zip(p.support, p.mass))
    qm = dict(zip(q.support, q.mass))
    return (
        support,
        np.asarray([pm.get(v, 0.0) for v in support]),
        np.asarray([qm.get(v, 0.0) for v in support]),
    )


def emd(p: Distribution, q: Distribution, d: GroundDistance = CATEGORICAL_UNIFORM) -> float:
    """Earth mover's distance between two distributions on the union support.

    Closed forms: cumulative-difference sum for ordered numeric supports,
    total variation for the 0/1 categorical ground distance. Result is in
    [0, 1] because both ground distances are normalized to max 1.
    """
    _, pm, qm = _aligned(p, q, d)
    return float(emd_rows(pm[None], qm, d)[0])


def emd_rows(p: np.ndarray, q: np.ndarray, d: GroundDistance = CATEGORICAL_UNIFORM) -> np.ndarray:
    """``emd`` from each row of ``p`` to ``q``, masses on one sorted support;
    each row is reduced on its own, so it has the bits of a one-row call."""
    m = p.shape[1]
    if m <= 1:
        return np.zeros(p.shape[0])
    if d.kind == "categorical_uniform":
        return 0.5 * np.abs(p - q).sum(axis=1)
    return np.abs(np.cumsum(p - q, axis=1)[:, :-1]).sum(axis=1) / (m - 1)


def emd_transport(p: Distribution, q: Distribution, d: GroundDistance) -> float:
    """Transportation-problem EMD via linear programming; the slow oracle route."""
    from scipy.optimize import linprog

    support, pm, qm = _aligned(p, q, d)
    m = len(support)
    if m == 1:
        return 0.0
    cost = d.matrix(m).reshape(-1)
    a_eq = []
    b_eq = []
    for i in range(m):  # row sums: mass leaving point i
        row = np.zeros(m * m)
        row[i * m : (i + 1) * m] = 1.0
        a_eq.append(row)
        b_eq.append(pm[i])
    for j in range(m - 1):  # column sums; last one is redundant
        col = np.zeros(m * m)
        col[j::m] = 1.0
        a_eq.append(col)
        b_eq.append(qm[j])
    res = linprog(cost, A_eq=np.asarray(a_eq), b_eq=np.asarray(b_eq), bounds=(0, None), method="highs")
    if not res.success:
        raise RuntimeError(f"transportation LP failed: {res.message}")
    return float(res.fun)


@dataclass(frozen=True)
class ClassValues:
    """One confidential column read as distributions: the whole column's and any class's.

    ``support`` and ``codes`` are the column's ``value_codes``: floats for a
    numeric attribute and text otherwise, so a class's values compare with
    the column's one way wherever classes are judged (t-closeness, class
    merging, attribute inference), and each row's index into the sorted
    support. ``overall`` is ``np.bincount(codes) / n``. Classes are read as
    one count matrix, classes x support, from ``np.bincount(class * |support|
    + code)``; over the class sizes its rows are the class masses, and
    ``emd_rows`` takes all their distances at once. ``ground`` is the given
    ground distance, else ordered numeric or categorical uniform by the
    attribute's kind. An empty column raises EmptyClass.
    """

    support: tuple
    ground: GroundDistance
    overall: Distribution
    codes: np.ndarray = field(compare=False, repr=False)

    @classmethod
    def of(cls, table: MicrodataTable, attribute: str, d: GroundDistance | None = None) -> "ClassValues":
        support, (codes,) = value_codes([table], attribute)
        if not codes.size:
            raise EmptyClass("cannot build a distribution from zero values")
        if d is None:
            d = ORDERED_NUMERIC if table.attribute(attribute).is_numeric else CATEGORICAL_UNIFORM
        overall = Distribution(tuple(support.tolist()), tuple((np.bincount(codes) / codes.size).tolist()))
        return cls(overall.support, d, overall, codes)

    def class_masses(self, classes: Sequence[Sequence[int]]):
        """Yields ``(lo, masses)`` blocks: row j of ``masses`` is the mass of
        class ``lo + j`` (a group of row positions) over ``support``."""
        for lo, counts in class_counts(classes, self.codes, len(self.support)):
            yield lo, counts / counts.sum(axis=1, keepdims=True)

    def distances(self, classes: Sequence[Sequence[int]]) -> np.ndarray:
        """EMD from each class to the whole column."""
        _, _, q = _aligned(self.overall, self.overall, self.ground)  # also checks the ground fits
        return np.concatenate([emd_rows(p, q, self.ground) for _, p in self.class_masses(classes)])

    def distance(self, rows: Sequence[int]) -> float:
        """EMD from the values at ``rows`` to the whole column."""
        return float(self.distances([rows])[0])

    def l_diversities(self, classes: Sequence[Sequence[int]], variant: str = "distinct") -> np.ndarray:
        """``l_diversity`` of each class, from the nonzero cells of its count-matrix row."""
        out = []
        for _, counts in class_counts(classes, self.codes, len(self.support)):
            kept = counts[counts > 0].tolist()  # row by row, so each class's counts are a slice
            ends = np.cumsum(np.count_nonzero(counts, axis=1)).tolist()
            out += [_l_of_counts(kept[lo:hi], variant) for lo, hi in zip([0, *ends], ends)]
        return np.asarray(out, dtype=float)


# --------------------------------------------------------------------------
# l-diversity
# --------------------------------------------------------------------------


def l_diversity(class_values: Sequence, variant: str = "distinct") -> float:
    """Diversity of confidential values in one class.

    distinct: the number of distinct values. entropy: exp of the Shannon
    entropy (natural log), which equals the distinct count exactly when the
    class distribution is uniform and is strictly smaller otherwise.
    """
    counts = list(Counter(class_values).values())
    if not counts:
        raise EmptyClass("class has no records")
    return _l_of_counts(counts, variant)


def _l_of_counts(counts: Sequence[int], variant: str) -> float:
    """l of one class from its values' positive counts, in any order (``fsum`` is exact)."""
    if variant == "distinct":
        return float(len(counts))
    if variant == "entropy":
        n = sum(counts)
        return math.exp(-math.fsum((c / n) * math.log(c / n) for c in counts))
    raise ValueError(f"unknown l-diversity variant {variant!r}")


# --------------------------------------------------------------------------
# t-closeness
# --------------------------------------------------------------------------


def verify_t_closeness(
    release_or_table,
    partition,
    conf_attribute: str,
    t: float,
    d: GroundDistance | None = None,
):
    """Max class-to-global EMD must not exceed t. Returns (holds, max_distance);
    a partition that does not cover every row exactly once raises ValueError."""
    if t < 0:
        raise InvalidT("closeness threshold t must be nonnegative")
    table = as_table(release_or_table)
    values = ClassValues.of(table, conf_attribute, d)
    worst = float(values.distances(Partition(partition).covering(table.n_rows)).max(initial=0.0))
    return worst <= t, worst


# --------------------------------------------------------------------------
# constrained class formation
# --------------------------------------------------------------------------


def enforce_models(
    table: MicrodataTable,
    qi_attributes: Sequence[str],
    conf_attribute: str,
    k: int,
    l: float | None = None,
    t: float | None = None,
    variant: str = "distinct",
    d: GroundDistance | None = None,
):
    """MDAV start, then greedily merge violating classes into their nearest
    neighbor (by centroid distance) until k, l-diversity, and t-closeness all
    hold, or a single class remains and still violates (Infeasible)."""
    if l is not None and l < 1:
        raise ValueError("l must be at least 1")
    if t is not None and t < 0:
        raise InvalidT("closeness threshold t must be nonnegative")
    conf = ClassValues.of(table, conf_attribute, d)
    partition = mdav_partition(table, qi_attributes, k)
    space = MixedSpace.from_tables([table], list(qi_attributes))

    def failing_constraint(gi: int, diversity, closeness) -> str | None:
        if partition.sizes[gi] < k:
            return "k_anonymity"
        if l is not None and diversity()[gi] < l:
            return "l_diversity"
        if t is not None and closeness()[gi] > t:
            return "t_closeness"
        return None

    while True:
        # every class's diversity and distance from one count matrix, taken when first needed
        diversity = functools.cache(lambda: conf.l_diversities(partition, variant))
        closeness = functools.cache(lambda: conf.distances(partition))
        violation = None
        for gi in range(len(partition)):
            constraint = failing_constraint(gi, diversity, closeness)
            if constraint:
                violation = (gi, constraint)
                break
        if violation is None:
            return partition
        gi, constraint = violation
        if len(partition) == 1:
            raise Infeasible(constraint, f"single remaining class of {len(partition[0])} records still fails")
        centroids = [space.centroid(np.asarray(g, dtype=np.int64)) for g in partition]
        nums, codes = (list(np.stack(block, axis=1)) for block in zip(*centroids))
        dist = MixedSpace(len(centroids), nums, codes).sq_dist_to(centroids[gi])
        dist[gi] = np.inf
        gj = int(np.argmin(dist))  # first minimum = lowest class index
        partition = Partition.of_labels(np.where(partition.labels == gj, gi, partition.labels))

