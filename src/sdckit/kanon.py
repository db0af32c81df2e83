"""Syntactic k-anonymity: verification, generalization with suppression,
exhaustive minimal local recoding, and MDAV microaggregation.

A table is k-anonymous over its quasi-identifiers when every observed QI
combination is shared by at least k records, which caps uniform
reidentification at 1/k.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    HierarchyMissing,
    SearchSpaceTooLarge,
    Misaligned,
    TooFewRows,
    UnknownAttribute,
    Unsatisfiable,
)
from .metric import MixedSpace, column_stats, comparable_text, zscore
from .microdata import (
    AnonymizedRelease,
    CategoricalKind,
    GeneralizationHierarchy,
    MicrodataTable,
    Provenance,
    as_table,
    canonical_partition,
)


def _combo_key_columns(table: MicrodataTable, qi: Sequence[str]) -> list[np.ndarray]:
    return [comparable_text(table, name) for name in qi]


def verify_k_anonymity(release_or_table, qi_attributes: Sequence[str], k: int):
    """Check that every QI combination occurs at least k times.

    Returns (holds, counts) where counts maps each observed combination to
    its multiplicity.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    table = as_table(release_or_table)
    qi = list(qi_attributes)
    for name in qi:
        table.attribute(name)  # raises UnknownAttribute
    cols = _combo_key_columns(table, qi)
    counts = Counter(tuple(col[i] for col in cols) for i in range(table.n_rows))
    holds = all(c >= k for c in counts.values()) if counts else True
    return holds, dict(counts)


# --------------------------------------------------------------------------
# generalization schemes
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class GeneralizationScheme:
    """What was generalized: one level per attribute (global recoding) or one
    level per cell (local recoding), plus which records were suppressed."""

    kind: str  # "global" | "local"
    qi_order: tuple[str, ...]
    levels: Mapping[str, int] | None = None
    cell_levels: tuple[tuple[int, ...], ...] | None = None
    suppressed_row_ids: tuple[int, ...] = ()

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "qi_order": list(self.qi_order),
            "levels": dict(self.levels) if self.levels is not None else None,
            "cell_levels": [list(r) for r in self.cell_levels] if self.cell_levels is not None else None,
            "suppressed_row_ids": list(self.suppressed_row_ids),
        }


def _require_hierarchies(qi: Sequence[str], hierarchies: Mapping[str, GeneralizationHierarchy]):
    for name in qi:
        if name not in hierarchies:
            raise HierarchyMissing(name)


def _label_column(
    table: MicrodataTable, name: str, hierarchy: GeneralizationHierarchy, level: int
) -> np.ndarray:
    col = table.columns[name]
    attr = table.attribute(name)
    values = col if not attr.is_numeric else col.astype(float)
    return np.asarray([hierarchy.label(v, level) for v in values], dtype=object)


def _column_kind_for_level(labels: np.ndarray) -> CategoricalKind:
    return CategoricalKind(tuple(sorted(set(labels))))


def anonymize_generalization(
    table: MicrodataTable,
    hierarchies: Mapping[str, GeneralizationHierarchy],
    k: int,
    max_suppression_fraction: float = 0.0,
):
    """Global recoding by greedy level raising, then whole-record suppression.

    Repeatedly raises the QI attribute whose one-level raise removes the most
    violating rows (ties: fewest distinct current values, then schema order)
    until the residual violators fit inside the suppression budget. Raises
    Unsatisfiable when even full generalization plus the budget cannot reach k.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if not 0.0 <= max_suppression_fraction < 1.0:
        raise ValueError("max_suppression_fraction must be in [0, 1)")
    qi = list(table.qi_names)
    _require_hierarchies(qi, hierarchies)
    n = table.n_rows
    allowed = math.floor(max_suppression_fraction * n)

    label_cache: dict[tuple[str, int], np.ndarray] = {}

    def labels_at(name: str, level: int) -> np.ndarray:
        key = (name, level)
        if key not in label_cache:
            label_cache[key] = _label_column(table, name, hierarchies[name], level)
        return label_cache[key]

    def violating_rows(levels: Mapping[str, int]) -> np.ndarray:
        cols = [labels_at(name, levels[name]) for name in qi]
        combos = list(zip(*[c.tolist() for c in cols])) if cols else [()] * n
        counts = Counter(combos)
        return np.asarray([i for i, c in enumerate(combos) if counts[c] < k], dtype=np.int64)

    levels = {name: 0 for name in qi}
    violators = violating_rows(levels)
    while violators.size > allowed:
        candidates = [name for name in qi if levels[name] < hierarchies[name].height]
        if not candidates:
            raise Unsatisfiable(
                f"full generalization still leaves {violators.size} rows below k={k} "
                f"with only {allowed} suppressions allowed"
            )
        scored = []
        for name in candidates:
            trial = dict(levels)
            trial[name] += 1
            remaining = violating_rows(trial)
            distinct_now = len(set(labels_at(name, levels[name]).tolist()))
            scored.append((remaining.size, distinct_now, qi.index(name), name, remaining))
        scored.sort(key=lambda t: (t[0], t[1], t[2]))
        _, _, _, best_name, violators = scored[0]
        levels[best_name] += 1

    suppressed = np.zeros(n, dtype=bool)
    suppressed[violators] = True
    keep = np.flatnonzero(~suppressed)
    suppressed_ids = tuple(int(table.row_ids[i]) for i in violators)

    masked = table.take(keep)
    for name in qi:
        lv = levels[name]
        if lv > 0:
            labels = labels_at(name, lv)[keep]
            masked = masked.with_column(name, labels, kind=_column_kind_for_level(labels))
    masked = masked.drop_columns(masked.identifier_names)

    scheme = GeneralizationScheme(
        kind="global", qi_order=tuple(qi), levels=dict(levels), suppressed_row_ids=suppressed_ids
    )
    partition = _partition_by_combo(masked, qi)
    release = AnonymizedRelease(
        table=masked,
        partition=partition,
        provenance=Provenance(
            mechanism="generalization",
            params={"k": k, "scheme": scheme.to_json(), "max_suppression_fraction": max_suppression_fraction},
        ),
    )
    return release, scheme


def _partition_by_combo(table: MicrodataTable, qi: Sequence[str]):
    cols = _combo_key_columns(table, qi)
    groups: dict[tuple, list[int]] = {}
    for i in range(table.n_rows):
        groups.setdefault(tuple(col[i] for col in cols), []).append(i)
    return canonical_partition(groups.values())


# --------------------------------------------------------------------------
# exhaustive minimal local recoding
# --------------------------------------------------------------------------


def _cell_label_paths(table, qi, hierarchies):
    """For every row and QI attribute, the label at each level 0..height."""
    paths = []
    for i in range(table.n_rows):
        row_paths = []
        for name in qi:
            h = hierarchies[name]
            v = table.columns[name][i]
            row_paths.append(h.value_path(float(v) if table.attribute(name).is_numeric else v))
        paths.append(tuple(row_paths))
    return paths


def _k_anonymous_labels(label_rows: Sequence[tuple], k: int) -> bool:
    counts = Counter(label_rows)
    return all(c >= k for c in counts.values())


def cell_is_minimal(counts: Mapping[tuple, int], row: tuple, a: int, lower_labels, k: int) -> bool:
    """Whether cell ``a`` of label row ``row`` can move to none of ``lower_labels``.

    ``counts`` are the released label rows' multiplicities. A move is free
    when the label does not change (an interval no cut splits), and allowed
    when the row's old class is left empty or with at least k members and its
    new class reaches k; no other class changes. The minimal recoder keeps a
    scheme only if every generalized cell passes, and the downcoding attack
    inverts the same test, so it is sound only while both call this one.
    """
    c_old = counts[row] - 1
    for label in lower_labels:
        new_row = row[:a] + (label,) + row[a + 1 :]
        if new_row == row:
            return False
        if (c_old == 0 or c_old >= k) and counts.get(new_row, 0) + 1 >= k:
            return False
    return True


def minimal_generalization(
    table: MicrodataTable,
    hierarchies: Mapping[str, GeneralizationHierarchy],
    k: int,
    max_states: int = 10**6,
):
    """Exhaustive cell-level recoding: the lexicographically first k-anonymous
    scheme in which no single cell can move to any strictly lower level
    without breaking k-anonymity.

    Only intended for desk-scale instances; the state count is guarded.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    qi = list(table.qi_names)
    _require_hierarchies(qi, hierarchies)
    n = table.n_rows
    if n == 0:
        raise TooFewRows("cannot anonymize an empty table")

    heights = [hierarchies[name].height for name in qi]
    states = 1
    for h in heights * n:
        states *= h + 1
        if states > max_states:
            raise SearchSpaceTooLarge(
                f"scheme lattice exceeds {max_states} states for {n} rows x {len(qi)} attributes"
            )

    paths = _cell_label_paths(table, qi, hierarchies)
    cell_ranges = [range(heights[a] + 1) for _ in range(n) for a in range(len(qi))]
    width = len(qi)

    def labels_for(levels: tuple[int, ...]) -> list[tuple]:
        return [
            tuple(paths[i][a][levels[i * width + a]] for a in range(width))
            for i in range(n)
        ]

    def is_minimal(levels: tuple[int, ...], label_rows: list[tuple]) -> bool:
        counts = Counter(label_rows)
        for cell, lv in enumerate(levels):
            if lv:
                i, a = divmod(cell, width)
                if not cell_is_minimal(counts, label_rows[i], a, paths[i][a][:lv], k):
                    return False
        return True

    for levels in itertools.product(*cell_ranges):
        label_rows = labels_for(levels)
        if not _k_anonymous_labels(label_rows, k):
            continue
        if not is_minimal(levels, label_rows):
            continue
        return _build_local_release(table, qi, hierarchies, levels, label_rows, k)
    raise Unsatisfiable(f"no cell-level recoding of {n} rows reaches k={k}")


def _build_local_release(table, qi, hierarchies, levels, label_rows, k):
    width = len(qi)
    masked = table
    for a, name in enumerate(qi):
        labels = np.asarray([label_rows[i][a] for i in range(table.n_rows)], dtype=object)
        masked = masked.with_column(name, labels, kind=_column_kind_for_level(labels))
    masked = masked.drop_columns(masked.identifier_names)
    cell_levels = tuple(
        tuple(levels[i * width + a] for a in range(width)) for i in range(table.n_rows)
    )
    scheme = GeneralizationScheme(kind="local", qi_order=tuple(qi), cell_levels=cell_levels)
    release = AnonymizedRelease(
        table=masked,
        partition=_partition_by_combo(masked, qi),
        provenance=Provenance(
            mechanism="minimal_generalization",
            params={"k": k, "scheme": scheme.to_json()},
        ),
    )
    return release, scheme


# --------------------------------------------------------------------------
# MDAV microaggregation
# --------------------------------------------------------------------------


def mdav_partition(table: MicrodataTable, qi_attributes: Sequence[str], k: int):
    """MDAV grouping over the mixed QI metric; every group gets k..2k-1 records.

    While at least 3k records remain, two k-groups are built around the two
    mutually most distant extremes (the record farthest from the centroid and
    the record farthest from it). A remainder of 2k..3k-1 records yields one
    k-group around the far extreme plus one remainder group; anything smaller
    becomes the final group. Distance ties resolve to the lowest row id.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    qi = list(qi_attributes)
    if not qi:
        raise UnknownAttribute("(empty quasi-identifier list)")
    for name in qi:
        table.attribute(name)
    n = table.n_rows
    if n < k:
        raise TooFewRows(f"{n} rows cannot form a group of k={k}")

    # the live pool: the remaining rows' points in ascending row id order,
    # compacted once per group, so a distance never gathers rows. It stays
    # row-major: the centroid's mean then adds rows one at a time, where a
    # column-major mean adds them pairwise and can differ in the last bit
    (pool,) = MixedSpace.from_tables([table], qi)
    ids = np.arange(n, dtype=np.int64)
    groups: list[list[int]] = []

    def take_group(d: np.ndarray) -> list[int]:
        """Remove the k pool rows first by (distance ``d``, row id); returns their ids."""
        nonlocal pool, ids
        cut = np.partition(d, k - 1)[k - 1]
        chosen = d < cut
        chosen[np.flatnonzero(d == cut)[: k - np.count_nonzero(chosen)]] = True
        group = ids[chosen].tolist()
        keep = ~chosen
        pool, ids = MixedSpace(pool.numeric[keep], pool.codes[keep]), ids[keep]
        return group

    def distances_from(i: int) -> np.ndarray:
        """Distances from pool row ``i``; row ``i`` itself gets -1, so it
        heads its own group and is never the farthest row."""
        d = pool.sq_dist_to(pool.point(i))
        d[i] = -1.0
        return d

    def far_extreme() -> int:
        return int(np.argmax(pool.sq_dist_to(pool.centroid())))  # first max = lowest row id

    while ids.size >= 3 * k:
        r = far_extreme()
        d = distances_from(r)
        s = int(np.argmax(d))
        s_id = ids[s]
        d[s] = np.inf  # s heads the second group, not r's
        groups.append(take_group(d))
        s = int(np.searchsorted(ids, s_id))  # s's row in the shrunk pool
        groups.append(take_group(distances_from(s)))
    if ids.size >= 2 * k:
        groups.append(take_group(distances_from(far_extreme())))
    if ids.size:
        groups.append(ids.tolist())
    return canonical_partition(groups)


def microaggregate_partition(
    table: MicrodataTable, qi_attributes: Sequence[str], partition, mechanism: str = "mdav", params=None
) -> AnonymizedRelease:
    """Mask QI cells with their group centroid: numeric mean, categorical mode."""
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
        table=masked, partition=partition, provenance=Provenance(mechanism=mechanism, params=prov_params)
    )


def mdav_microaggregate(table: MicrodataTable, qi_attributes: Sequence[str], k: int):
    """MDAV partition plus the centroid-masked release. Returns (partition, release)."""
    partition = mdav_partition(table, qi_attributes, k)
    release = microaggregate_partition(table, qi_attributes, partition, params={"k": k})
    return partition, release


# --------------------------------------------------------------------------
# information loss
# --------------------------------------------------------------------------


def sse(table: MicrodataTable, release, qi_attributes: Sequence[str], standardize: bool = True) -> float:
    """Sum of squared masking errors over QI cells.

    Numeric cells contribute squared (original - masked); with standardize=True
    both sides are z-scored by the original column's statistics. Categorical
    cells (and numeric cells masked to text labels) contribute 0/1 mismatch.
    Rows are aligned by row id; release rows must be a subset of the table's.
    """
    rel_table = as_table(release)
    qi = list(qi_attributes)
    pos_of = {int(rid): i for i, rid in enumerate(table.row_ids)}
    try:
        orig_rows = np.asarray([pos_of[int(rid)] for rid in rel_table.row_ids], dtype=np.int64)
    except KeyError as e:
        raise Misaligned(f"release row id {e.args[0]} is not present in the original table") from None

    total = 0.0
    for name in qi:
        orig_attr = table.attribute(name)
        rel_attr = rel_table.attribute(name)
        orig_col = table.columns[name][orig_rows]
        rel_col = rel_table.columns[name]
        if orig_attr.is_numeric and rel_attr.is_numeric:
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
            total += float(sum(1.0 for a, b in zip(o_text, r_text) if a != b))
    return total
