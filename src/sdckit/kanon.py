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
from itertools import chain, product
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
    Partition,
    as_table,
    canonical_number,
    class_counts,
    factorize,
    label_paths,
    row_positions,
    suppress_identifiers,
    text_codes,
    text_codes_of,
    value_codes,
)


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
            distinct, key = factorize(key)
            size = len(distinct)
    return key, size


def _class_codes(table: MicrodataTable, qi: Sequence[str]):
    """Each row's QI combination, compared as text, as one code: (each QI's ``text_codes``, codes)."""
    encoded = [text_codes(table, name) for name in qi]
    key, _ = _combine_codes([(codes, len(distinct)) for distinct, codes in encoded], table.n_rows)
    return encoded, key


def verify_k_anonymity(release_or_table, qi_attributes: Sequence[str], k: int):
    """Check that every QI combination occurs at least k times.

    Returns (holds, counts) where counts maps each observed combination to
    its multiplicity, in order of first occurrence.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    table = as_table(release_or_table)
    qi = list(qi_attributes)
    encoded, key = _class_codes(table, qi)  # raises UnknownAttribute
    _, first, sizes = np.unique(key, return_index=True, return_counts=True)
    order = np.argsort(first)
    heads = [distinct[codes[first[order]]] for distinct, codes in encoded]  # each class's texts, per QI
    counts = {tuple(col[j] for col in heads): int(c) for j, c in enumerate(sizes[order])}
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

    maps = {name: label_paths(table, name, hierarchies[name]) for name in qi}
    # per QI and level: each row's label code and the number of distinct labels
    coded = {
        name: [(code_of[codes], len(labels)) for labels, code_of in map(factorize, paths.T)]
        for name, (paths, codes) in maps.items()
    }

    def violating_rows(levels: Mapping[str, int]) -> np.ndarray:
        key, size = _combine_codes([coded[name][levels[name]] for name in qi], n)
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
        remaining = {name: violating_rows({**levels, name: levels[name] + 1}) for name in candidates}
        best = min(candidates, key=lambda name: (remaining[name].size, coded[name][levels[name]][1], qi.index(name)))
        levels[best] += 1
        violators = remaining[best]
    del coded  # the search's per-level codes need not live through the release

    keep = np.delete(np.arange(n), violators)
    labels = {name: (paths[:, levels[name]], codes[keep]) for name, (paths, codes) in maps.items() if levels[name]}
    suppressed_ids = tuple(table.row_ids[violators].tolist())
    scheme = GeneralizationScheme(
        kind="global", qi_order=tuple(qi), levels=dict(levels), suppressed_row_ids=suppressed_ids
    )
    params = {"k": k, "max_suppression_fraction": max_suppression_fraction}
    return _recoded_release(table.take(keep), qi, labels, scheme, "generalization", params)


def _recoded_release(table, qi, labels, scheme: GeneralizationScheme, mechanism: str, params):
    """A recoder's release of ``table`` and ``scheme``. ``labels`` maps each
    recoded QI to (labels by code, each row's code): that column replaces the
    QI, declared a CategoricalKind of its sorted distinct labels, and its
    ``text_codes`` come from the pair; the classes are the rows' QI label
    combinations."""
    encoded = {name: text_codes_of(by_code, codes) for name, (by_code, codes) in labels.items()}
    kinds = {name: CategoricalKind(tuple(distinct.tolist())) for name, (distinct, _) in encoded.items()}
    columns = {name: distinct[codes] for name, (distinct, codes) in encoded.items()}
    masked = suppress_identifiers(table, columns, kinds, encoded)
    del table  # a recoder's copy of its input rows need not live through the class count
    provenance = Provenance(mechanism=mechanism, params={**params, "scheme": scheme.to_json()})
    return AnonymizedRelease(masked, _partition_by_combo(masked, qi), provenance), scheme


def _partition_by_combo(table: MicrodataTable, qi: Sequence[str]):
    return Partition.of_labels(_class_codes(table, qi)[1])


# --------------------------------------------------------------------------
# exhaustive minimal local recoding
# --------------------------------------------------------------------------


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

    States (one level per cell, cells row by row) are walked in
    ``itertools.product`` order, the last cell fastest. The class counts and
    the number of classes below k are updated per changed cell, so a state
    costs the cells that changed; only k-anonymous states are tested for
    minimality.

    The walk skips every state that keeps a dead row prefix. Rows 0..r-1 at
    their current levels form a dead prefix when one of them is in a class
    that cannot reach k rows: its rows among the prefix, plus the later rows
    whose label paths hold its labels, are fewer than k. No state that keeps
    such a prefix is k-anonymous, so the walk steps the prefix's last cell
    (and resets the cells after it) instead. The k-anonymous states, their
    order and so the result and its errors are the same as a full walk's.
    After a step in row i only prefixes of more than i rows can have died,
    and only those are checked.

    Only intended for desk-scale instances. ``max_states`` bounds the work in
    row-states, one row at one state: the set-up takes each row through its own
    level combinations and each state walked visits every row (skipped ones are
    free). More raises ``SearchSpaceTooLarge``, at once if the set-up needs it.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    qi = list(table.qi_names)
    _require_hierarchies(qi, hierarchies)
    n = table.n_rows
    if n == 0:
        raise TooFewRows("cannot anonymize an empty table")

    heights = [hierarchies[name].height for name in qi]
    too_large = f"the search exceeds {max_states} row-states for {n} rows x {len(qi)} attributes"
    walks = (max_states - n * math.prod(h + 1 for h in heights)) // n  # the states left to walk after the set-up
    if walks < 1:
        raise SearchSpaceTooLarge(too_large)
    maps = [label_paths(table, name, hierarchies[name]) for name in qi]
    # paths[i][a]: cell (i, a)'s labels at levels 0..height
    paths = list(zip(*(by_value[codes].tolist() for by_value, codes in maps)))
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
    # attribute, the label's code among that attribute's labels at all levels.
    # Cell (i, a) at level lv adds place[i * width + a][lv] to row i's key.
    radix, digits = 1, []
    for by_value, codes in maps:
        labels, code_of = factorize(by_value.ravel())
        digits.append([[d * radix for d in row] for row in code_of.reshape(by_value.shape)[codes].tolist()])
        radix *= len(labels)
    place = [digits[a][i] for i in range(n) for a in range(width)]

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

    # later[key]: the rows, ascending, whose label paths can give them ``key``
    # at some levels but whose level-0 key differs
    later: dict[int, list[int]] = {}
    for i in range(n):
        cell_places = (set(place[i * width + a]) for a in range(width))
        for key in {sum(combo) for combo in product(*cell_places)}:
            if key != keys[i]:
                later.setdefault(key, []).append(i)

    def dead_prefix(lo: int) -> int:
        """The fewest leading rows, at least ``lo``, whose current levels no
        state that keeps them can make k-anonymous; ``n`` when no shorter
        prefix is dead.

        Rows from ``lo`` on must be at level 0. A class of c < k rows that
        holds row j can still gain only the rows in ``later`` for its key, so
        a prefix that holds row j is dead once fewer than k - c of those rows
        lie past it."""
        best = n
        for j in range(n - 1):
            if j + 1 >= best:
                break
            c = counts[keys[j]]
            if c < k:
                rows = later.get(keys[j], ())
                need = k - c
                best = min(best, max(rows[-need] + 1 if need <= len(rows) else 0, j + 1, lo))
        return best

    # states in itertools.product order over the cells, the last cell fastest;
    # the walk steps past every state that keeps a dead row prefix
    last = len(levels) - 1
    lo = 1  # the shortest row prefix that can have died since the last check
    for _ in range(walks):
        if not below:
            state = tuple(levels)
            label_rows = labels_for(state)
            if is_minimal(state, label_rows):
                break
            cell = last
        else:
            cell = dead_prefix(lo) * width - 1 if lo < n else last
        while cell >= 0 and levels[cell] == tops[cell]:
            set_level(cell, 0)
            cell -= 1
        if cell < 0:
            raise Unsatisfiable(f"no cell-level recoding of {n} rows reaches k={k}")
        set_level(cell, levels[cell] + 1)
        lo = cell // width + 1
    else:
        raise SearchSpaceTooLarge(too_large)

    cell_levels = tuple(state[i * width : (i + 1) * width] for i in range(n))
    scheme = GeneralizationScheme(kind="local", qi_order=tuple(qi), cell_levels=cell_levels)
    # cell (i, a) at level lv reads label lv of its value's path: code value * (height + 1) + lv
    at_level = np.asarray(cell_levels, dtype=np.int64).reshape(n, width)
    labels = {
        name: (by_value.ravel(), codes * by_value.shape[1] + at_level[:, a])
        for a, (name, (by_value, codes)) in enumerate(zip(qi, maps))
    }
    return _recoded_release(table, qi, labels, scheme, "minimal_generalization", {"k": k})


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
    # one 1-D array per attribute, compacted once per group with one boolean
    # gather per column (``MixedSpace.take``), so a distance never gathers
    # rows and reads each column without a stride. Moving values leaves their
    # bits alone, and ``centroid`` adds rows in the order numpy's mean of the
    # row-major block added them, so every distance and tie is as before
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
        pool, ids = pool.take(keep), ids[keep]
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
    return Partition(groups)


def microaggregate_partition(
    table: MicrodataTable, qi_attributes: Sequence[str], partition, params=None
) -> AnonymizedRelease:
    """Mask QI cells with their group centroid: numeric mean, categorical mode.

    A mean is one row of ``mean(axis=1)`` over all groups of its size, which
    adds like the group's own ``mean()`` (``np.add.reduceat`` can differ in the
    last bit); a mode is the first maximum of a ``class_counts`` row over
    sorted text codes, so ties go to the smallest text. The release's text
    codes are made per class: each mean's ``canonical_number``, formatted
    once, or each mode's source text. A partition that does not cover every
    row raises ValueError."""
    qi = list(qi_attributes)
    checked = Partition(partition).covering(table.n_rows)
    # groups as given: a mean adds its group's rows in their given order
    sizes = np.fromiter(map(len, partition), np.int64, len(partition))
    members = np.fromiter(chain.from_iterable(partition), np.int64, table.n_rows)
    firsts = np.cumsum(sizes) - sizes
    labels = np.empty(table.n_rows, dtype=np.int64)
    labels[members] = np.repeat(np.arange(sizes.size), sizes)
    masked, encoded = {}, {}
    for name in qi:
        if table.attribute(name).is_numeric:
            values = table.columns[name].astype(float)
            means = np.empty(sizes.size)
            for size in set(sizes.tolist()):
                classes = np.flatnonzero(sizes == size)
                means[classes] = values[members[firsts[classes, None] + np.arange(size)]].mean(axis=1)
            masked[name] = means[labels]
            encoded[name] = text_codes_of(list(map(canonical_number, means.tolist())), labels)
        else:
            distinct, codes = text_codes(table, name)
            counts = class_counts(partition, codes, len(distinct))
            modes = np.concatenate([class_rows.argmax(axis=1) for _, class_rows in counts])[labels]
            masked[name], encoded[name] = distinct[modes], text_codes_of(distinct, modes)
    return AnonymizedRelease(
        table=suppress_identifiers(table, masked, encoded=encoded),
        partition=checked,
        provenance=Provenance(mechanism="mdav", params={"k": None, "qi": qi, **(params or {})}),
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
    raw, standardized = sse_totals(table, release, qi_attributes)
    return standardized if standardize else raw


def sse_totals(table: MicrodataTable, release, qi_attributes: Sequence[str]) -> tuple[float, float]:
    """``sse`` raw and standardized, adding the same sums as two calls, from one row alignment."""
    rel_table = as_table(release)
    qi = list(qi_attributes)
    orig_rows = row_positions(table, rel_table.row_ids)
    if (orig_rows < 0).any():
        missing = rel_table.row_ids[np.argmax(orig_rows < 0)]
        raise Misaligned(f"release row id {missing} is not present in the original table")

    raw = standardized = 0.0
    for name in qi:
        if table.attribute(name).is_numeric and rel_table.attribute(name).is_numeric:
            o = table.columns[name][orig_rows].astype(float)
            r = rel_table.columns[name].astype(float)
            mean, std = column_stats([table.columns[name]])
            raw += float(((o - r) ** 2).sum())
            standardized += float(((zscore(o, mean, std) - zscore(r, mean, std)) ** 2).sum())
        else:
            o_codes, r_codes = value_codes([table, rel_table], name)[1]
            mismatches = float(np.count_nonzero(o_codes[orig_rows] != r_codes))
            raw, standardized = raw + mismatches, standardized + mismatches
    return raw, standardized
