"""Syntactic k-anonymity: verification, generalization with suppression,
exhaustive minimal local recoding, and MDAV microaggregation.

A table is k-anonymous over its quasi-identifiers when every observed QI
combination is shared by at least k records, which caps uniform
reidentification at 1/k.
"""

from __future__ import annotations

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
from .metric import MixedSpace, column_stats, zscore
from .microdata import (
    AnonymizedRelease,
    CategoricalKind,
    GeneralizationHierarchy,
    MicrodataTable,
    Provenance,
    as_table,
    canonical_partition,
    classes_by_label,
    comparable_text,
    factorize,
)


def _codes(values: np.ndarray) -> tuple[np.ndarray, int]:
    """An integer per entry, equal exactly where the values are, and how many there are."""
    distinct, codes = factorize(values)
    return codes, len(distinct)


def _combine_codes(columns: Sequence[tuple[np.ndarray, int]], n: int) -> tuple[np.ndarray, int]:
    """One code per row, equal for two rows exactly when each column's code is.

    Columns are ``(codes, size)`` pairs, combined in mixed radix; whenever the
    radix outgrows 8n the codes are renumbered densely, so they stay far from
    overflow and a ``bincount`` over them stays small.
    """
    key, size = np.zeros(n, dtype=np.int64), 1
    for codes, m in columns:
        key, size = key * m + codes, size * m
        if size > 8 * n:
            key, size = _codes(key)
    return key, size


def _class_codes(table: MicrodataTable, qi: Sequence[str]):
    """Each row's QI combination, compared as text, as one code: (text columns, codes)."""
    texts = [comparable_text(table, name) for name in qi]
    key, _ = _combine_codes([_codes(col) for col in texts], table.n_rows)
    return texts, key


def verify_k_anonymity(release_or_table, qi_attributes: Sequence[str], k: int):
    """Check that every QI combination occurs at least k times.

    Returns (holds, counts) where counts maps each observed combination to
    its multiplicity, in order of first occurrence.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    table = as_table(release_or_table)
    qi = list(qi_attributes)
    for name in qi:
        table.attribute(name)  # raises UnknownAttribute
    texts, key = _class_codes(table, qi)
    _, first, sizes = np.unique(key, return_index=True, return_counts=True)
    order = np.argsort(first)
    counts = {tuple(col[i] for col in texts): int(c) for i, c in zip(first[order], sizes[order])}
    return bool((sizes >= k).all()), counts


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
) -> tuple[np.ndarray, np.ndarray, int]:
    """Column ``name`` at ``level``: (label per row, label code per row, number
    of labels). ``hierarchy.label`` runs once per distinct value, which also
    validates every value."""
    col = table.columns[name]
    values = col.astype(float) if table.attribute(name).is_numeric else col
    distinct, row_of = factorize(values)
    labels = np.asarray([hierarchy.label(v, level) for v in distinct], dtype=object)
    code_of, n_labels = _codes(labels)
    return labels[row_of], code_of[row_of], n_labels


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

    label_cache: dict[tuple[str, int], tuple[np.ndarray, np.ndarray, int]] = {}

    def labels_at(name: str, level: int) -> tuple[np.ndarray, np.ndarray, int]:
        key = (name, level)
        if key not in label_cache:
            label_cache[key] = _label_column(table, name, hierarchies[name], level)
        return label_cache[key]

    def violating_rows(levels: Mapping[str, int]) -> np.ndarray:
        key, size = _combine_codes([labels_at(name, levels[name])[1:] for name in qi], n)
        return np.flatnonzero(np.bincount(key, minlength=size)[key] < k)

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
            distinct_now = labels_at(name, levels[name])[2]
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
            labels = labels_at(name, lv)[0][keep]
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
    return canonical_partition(classes_by_label(_class_codes(table, qi)[1]))


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

    States (one level per cell, cells row by row) are visited in
    ``itertools.product`` order, the last cell fastest. The class counts and
    the number of classes below k are updated per changed cell, so a state
    costs the cells that changed; only k-anonymous states are tested for
    minimality. Only intended for desk-scale instances; the state count is
    guarded.
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
    width = len(qi)
    tops = heights * n  # each cell's highest level

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

    # A row's label tuple as one integer: a mixed-radix number with a digit per
    # attribute, the label's index among that attribute's labels. Cell (i, a)
    # at level lv adds place[i * width + a][lv] to row i's key.
    digits: list[dict[str, int]] = [{} for _ in qi]
    for row_paths in paths:
        for a, path in enumerate(row_paths):
            for label in path:
                digits[a].setdefault(label, len(digits[a]))
    radix = [math.prod(len(d) for d in digits[:a]) for a in range(width)]
    place = [[digits[a][label] * radix[a] for label in paths[i][a]] for i in range(n) for a in range(width)]

    levels = [0] * (n * width)
    keys = [sum(place[i * width + a][0] for a in range(width)) for i in range(n)]
    counts = Counter(keys)

    under_k = [0 < c < k for c in range(n + 1)]
    below = sum(under_k[c] for c in counts.values())  # classes with 1..k-1 rows

    def set_level(cell: int, level: int) -> None:
        """Move one cell to ``level``, keeping ``counts`` and ``below`` current."""
        nonlocal below
        i = cell // width
        old = keys[i]
        new = old - place[cell][levels[cell]] + place[cell][level]
        levels[cell] = level
        if new != old:  # an interval no cut splits keeps its label
            keys[i] = new
            c = counts[old] - 1
            counts[old] = c
            below += under_k[c] - under_k[c + 1]
            c = counts[new] + 1
            counts[new] = c
            below += under_k[c] - under_k[c - 1]

    # states in itertools.product order over the cells, the last cell fastest
    while True:
        if not below:
            state = tuple(levels)
            label_rows = labels_for(state)
            if is_minimal(state, label_rows):
                return _build_local_release(table, qi, hierarchies, state, label_rows, k)
        cell = len(levels) - 1
        while cell >= 0 and levels[cell] == tops[cell]:
            set_level(cell, 0)
            cell -= 1
        if cell < 0:
            raise Unsatisfiable(f"no cell-level recoding of {n} rows reaches k={k}")
        set_level(cell, levels[cell] + 1)


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
    table: MicrodataTable, qi_attributes: Sequence[str], partition, params=None
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
        table=masked, partition=partition, provenance=Provenance(mechanism="mdav", params=prov_params)
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
            total += float(np.count_nonzero(o_text != r_text))
    return total
