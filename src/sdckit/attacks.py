"""Empirical attack harness: record linkage, attribute inference, membership
inference, release intersection, and downcoding reconstruction.

Every attack returns an AttackReport with an aggregate success rate, a Wilson
95% interval where the rate is a Bernoulli aggregate, and attack-specific
detail. Attacks measure what an adversary actually achieves against concrete
releases; they complement, and sometimes contradict, syntactic guarantees.
Linkage rates are exact probabilities (``_linkage_rates``), also for the verifier.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .confmodels import ClassValues, emd_rows
from .dp import _bin_counts, _require_positive_counts, _two_samples, neighbor_relation
from .errors import (
    Misaligned,
    MissingPartition,
    NoSharedQIs,
    NotMinimalMechanism,
    NotNeighbors,
    UnknownAttribute,
)
from .kanon import _combine_codes, cell_is_minimal
from .metric import MixedSpace
from .microdata import (
    AnonymizedRelease,
    GeneralizationHierarchy,
    MicrodataTable,
    as_table,
    row_positions,
    text_codes,
    value_codes,
)
from .seeds import derive_rng, derive_seed


def wilson_interval(successes: float, trials: int, z: float = 1.959963984540054):
    """Wilson score interval for ``successes`` (a count or an expected count) in ``trials``."""
    if trials <= 0:
        return (0.0, 1.0)
    p = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2.0 * trials)) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials)) / denom
    # rounding can push a boundary estimate (p = 0 or 1) just outside the
    # interval; the exact interval always contains p, so clamp to it
    return (max(0.0, min(center - half, p)), min(1.0, max(center + half, p)))


@dataclass(frozen=True)
class AttackReport:
    attack: str
    success_rate: float
    wilson: tuple[float, float]
    trials: int
    baseline: float | None = None
    details: Mapping = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "attack": self.attack,
            "success_rate": self.success_rate,
            "wilson": list(self.wilson),
            "trials": self.trials,
            "baseline": self.baseline,
            "details": dict(self.details),
        }


# --------------------------------------------------------------------------
# record linkage
# --------------------------------------------------------------------------

# distances the linkage search holds at once: 256 KiB of doubles, which stay
# in L2; its key window cuts the release vectors into chunks of 1/512 of it
# (64 vectors), so that a block is 512 external rows
_BLOCK_CELLS = 1 << 15


def link_records(
    release_table: MicrodataTable, external_table: MicrodataTable, rng: np.random.Generator
) -> np.ndarray:
    """Nearest-neighbor match of each external record to a release row.

    Distance is the mixed metric of ``MixedSpace`` over the quasi-identifiers
    the two tables share, with numeric statistics pooled over both tables:
    squared z-scored difference where both sides are numeric, exact-match 0/1
    on canonical text otherwise. The match is one ``_nearest_vectors`` search,
    which scans in blocks of at most ``_BLOCK_CELLS`` distances and skips
    every release vector whose squared gap on one numeric QI alone exceeds
    the row's best distance, followed by one tie draw. External record e's
    tie set is every release row behind its nearest vectors
    ``nearest[bounds[e]:bounds[e + 1]]``, in ascending row order, and ties are
    broken uniformly at random: one ``rng.integers`` call with the tie count
    of every external row that has more than one tied release row, in
    external row order, which draws what one scalar call per row would.
    ``linkage_attack`` and the probabilistic-k verifier do not call this
    function: they take the same search and price its tie draw in closed
    form (``_linkage_probabilities``). Returns the matched release row
    position per external row.
    """
    _, rel_rows, starts, nearest, bounds = _nearest_vectors(release_table, external_table)
    tie_counts = np.add.reduceat(np.diff(starts)[nearest], bounds[:-1])
    # each row's match as an index into its tie set
    pick = np.zeros(tie_counts.size, dtype=np.int64)
    tied = np.flatnonzero(tie_counts > 1)
    if tied.size:
        pick[tied] = rng.integers(tie_counts[tied])
    # with one nearest vector the tie set is that vector's run of rows; a row
    # with several is redone below (its index is in range: the runs from its
    # lowest nearest vector on hold at least its tie count)
    positions = rel_rows[starts[nearest[bounds[:-1]]] + pick]
    for e in np.flatnonzero(np.diff(bounds) > 1):
        runs = [rel_rows[starts[v] : starts[v + 1]] for v in nearest[bounds[e] : bounds[e + 1]]]
        positions[e] = np.sort(np.concatenate(runs))[pick[e]]
    return positions


def _nearest_vectors(release_table: MicrodataTable, external_table: MicrodataTable):
    """The nearest-vector search behind linkage:
    ``(vector_of_row, rel_rows, starts, nearest, bounds)``.

    ``vector_of_row`` numbers each release row's distinct QI vector (over the
    QIs both tables share, in the ``MixedSpace`` of both). ``rel_rows`` lists
    the release rows grouped by vector, ascending within one: vector v owns
    ``rel_rows[starts[v] : starts[v + 1]]``. ``nearest`` and ``bounds`` are a
    second such pair: external row e's nearest release vectors, ascending,
    are ``nearest[bounds[e] : bounds[e + 1]]``. An external row whose vector
    occurs in the release is at distance 0 from exactly that vector and is
    not scanned, unless two distinct values of a numeric column lie so close
    that their squared gap is 0, in which case every row is scanned. Other
    rows are scanned by ``_window_scan`` in blocks of at most ``_BLOCK_CELLS``
    distances, which skips every vector whose squared gap to the row on one
    numeric QI, the key, exceeds the row's best distance: no other term of a
    distance is negative, so such a vector cannot tie it. An empty release
    raises ValueError.
    """
    if release_table.n_rows == 0:
        raise ValueError("the release is empty: there is no row to link a record to")
    shared = [n for n in external_table.qi_names if n in release_table.qi_names]
    if not shared:
        raise NoSharedQIs("the release and the external table share no quasi-identifiers")
    rel_space, ext_space = MixedSpace.from_tables([release_table, external_table], shared)
    n_rel, n_ext = rel_space.n, ext_space.n
    both = MixedSpace(
        n_rel + n_ext,
        [np.concatenate(pair) + 0.0 for pair in zip(rel_space.num_cols, ext_space.num_cols)],  # -0.0 keys as 0.0
        [np.concatenate(pair) for pair in zip(rel_space.code_cols, ext_space.code_cols)],
    )
    # one sort of both tables by QI vector; equal vectors keep row order
    order = np.lexsort([*both.code_cols, *both.num_cols])
    new_key = np.zeros(order.size, dtype=bool)
    new_key[0] = True
    for col in both.num_cols + both.code_cols:
        in_order = col[order]
        new_key[1:] |= in_order[1:] != in_order[:-1]
    key = np.empty(order.size, dtype=np.int64)
    key[order] = np.cumsum(new_key) - 1

    # release vectors numbered in sorted order; the first row of each run
    # of equal release keys starts a new vector
    rel_rows = order[order < n_rel]
    rel_keys = key[rel_rows]
    first = np.ones(n_rel, dtype=bool)
    first[1:] = rel_keys[1:] != rel_keys[:-1]
    vector_of_row = np.empty(n_rel, dtype=np.int64)
    vector_of_row[rel_rows] = np.cumsum(first) - 1
    starts = np.append(np.flatnonzero(first), n_rel)
    vectors = both.take(rel_rows[first])
    vector_of_key = np.full(int(new_key.sum()), -1, dtype=np.int64)
    vector_of_key[rel_keys[first]] = np.arange(vectors.n)
    # the release vector each external row equals, -1 where it must be scanned
    exact = vector_of_key[key[n_rel:]]
    if any(map(_gap_squares_to_zero, both.num_cols)):
        exact[:] = -1

    # each external row's nearest vectors: the one it equals, or the scan's minima
    rows, vec = _window_scan(vectors, ext_space, np.flatnonzero(exact < 0))
    counts = (exact >= 0) + np.bincount(rows, minlength=n_ext)
    bounds = np.concatenate([[0], np.cumsum(counts)])
    nearest = np.repeat(exact, counts)
    # a row's minima come consecutive and ascending: the i-th goes i places after its start
    nearest[bounds[rows] + np.arange(rows.size) - np.searchsorted(rows, rows)] = vec
    return vector_of_row, rel_rows, starts, nearest, bounds


def _window_scan(vectors: MixedSpace, ext_space: MixedSpace, scanned: np.ndarray):
    """``(rows, vec)``: every pair of an external row in ``scanned`` and a
    release vector at the row's minimum distance, sorted by row, then vector.

    Rows and distinct vectors are both sorted by one numeric QI, the key
    (``_key_column``), and the vectors are cut into chunks of ``_BLOCK_CELLS
    >> 9``. Each block of key-adjacent rows, ``_BLOCK_CELLS`` distances to
    one chunk, scans the chunk that holds its middle row's key, then chunks
    outward on both sides. A row stops on a side once its squared key gap to
    that side's next chunk exceeds its best distance so far; the block stops
    when every row has. This is exact: every term ``sq_dist_to`` adds is at
    least +0 and rounded addition is monotone, so a vector's computed
    distance is at least its computed squared key gap, and that grows with
    the gap; a gap whose square is 0 never stops a row. With no more vectors
    than one chunk holds, no numeric QI, or no key that leaves a vector out
    of a sampled row's window, the key is 0 everywhere and the window is
    every vector, in one chunk unless there are more than ``_BLOCK_CELLS``:
    the dense scan. A chunk's minima are kept while they tie the row's best,
    and at the end only those at its overall minimum.
    """
    if not scanned.size:
        return scanned, scanned
    width = max(1, _BLOCK_CELLS >> 9)
    key = _key_column(vectors, ext_space, scanned) if vectors.n > width and vectors.num_cols else None
    if key is None:
        width, vec_keys, row_keys = min(vectors.n, _BLOCK_CELLS), np.zeros(vectors.n), np.zeros(ext_space.n)
    else:
        vec_keys, row_keys = vectors.num_cols[key], ext_space.num_cols[key]
    by_key = np.argsort(vec_keys, kind="stable")
    scanned = scanned[np.argsort(row_keys[scanned], kind="stable")]
    cuts = np.arange(width, vectors.n, width)
    chunks = [(ids, vectors.take(ids)) for ids in np.split(by_key, cuts)]
    firsts, lasts = vec_keys[by_key[::width]], vec_keys[by_key[np.append(cuts, vectors.n) - 1]]
    found_rows, found_vec = [], []
    step = max(1, _BLOCK_CELLS // width)
    for lo in range(0, scanned.size, step):
        block = scanned[lo : lo + step]
        num, codes = ext_space.point(block)
        x = row_keys[block]
        best = np.full(block.size, np.inf)
        hits = []

        def scan(c: int, rows: np.ndarray) -> None:
            """Distances from the block's ``rows`` to chunk ``c``, keeping the minima that tie a row's best."""
            ids, chunk = chunks[c]
            dist = chunk.sq_dist_to((num[rows], codes[rows]))
            low = dist.min(axis=1)
            best[rows] = np.minimum(best[rows], low)
            tied = np.flatnonzero(low == best[rows])
            at, col = np.nonzero((dist if tied.size == rows.size else dist[tied]) == low[tied, None])
            at = tied[at]
            hits.append((rows[at], ids[col], low[at]))

        home = max(int(np.searchsorted(firsts, x[x.size // 2], side="right")) - 1, 0)
        scan(home, np.arange(block.size))
        # a row may find a minimum in a side's next chunk only if its squared
        # key gap to the chunk's near edge is at most its best so far (a row
        # past that edge has a best at least that gap anyway). A side with no
        # such row left is closed for good; of two open sides, the one whose
        # edge is nearer the middle row's key goes first.
        sides = [[home - 1, -1, lasts], [home + 1, 1, firsts]]
        while True:
            open_sides = []
            for side in sides:
                c, _, edges = side
                if 0 <= c < len(chunks):
                    open_rows = np.flatnonzero(np.square(edges[c] - x) <= best)
                    if open_rows.size:
                        open_sides.append((abs(edges[c] - x[x.size // 2]), side, open_rows))
                    else:
                        side[0] = -1
            if not open_sides:
                break
            _, side, open_rows = min(open_sides, key=lambda o: o[0])
            scan(side[0], open_rows)
            side[0] += side[1]
        at, vec, low = map(np.concatenate, zip(*hits))
        keep = low == best[at]
        found_rows.append(block[at[keep]])
        found_vec.append(vec[keep])
    rows, vec = np.concatenate(found_rows), np.concatenate(found_vec)
    order = np.lexsort((vec, rows))
    return rows[order], vec[order]


def _key_column(vectors: MixedSpace, ext_space: MixedSpace, scanned: np.ndarray):
    """The numeric column (an index into ``num_cols``) that prunes the window
    scan most for 32 rows spread over ``scanned``: the one whose key window
    around each of them, out to the row's minimum distance, holds the fewest
    vectors, the first on a tie. None if every window holds every vector."""
    sample = scanned[np.linspace(0, scanned.size - 1, min(scanned.size, 32)).astype(np.int64)]
    point = ext_space.point(sample)
    reach = np.full(sample.size, np.inf)
    span = max(1, _BLOCK_CELLS // sample.size)
    for lo in range(0, vectors.n, span):
        dist = vectors.take(np.arange(lo, min(lo + span, vectors.n))).sq_dist_to(point)
        np.minimum(reach, dist.min(axis=1), out=reach)
    reach = np.sqrt(reach)
    held = []
    for j, col in enumerate(vectors.num_cols):
        keys, x = np.sort(col), point[0][:, j]
        held.append(int((np.searchsorted(keys, x + reach, "right") - np.searchsorted(keys, x - reach)).sum()))
    key = int(np.argmin(held))
    return key if held[key] < sample.size * vectors.n else None


def _gap_squares_to_zero(col: np.ndarray) -> bool:
    """Whether two distinct values of a numeric column differ by a gap whose
    square is 0, so that rows with different vectors can be at distance 0. Only
    a column with a nonzero value below 2**-480 is sorted: values no closer to
    0 differ by 2**-532 or more, whose square is not 0."""
    if not ((np.abs(col) < 2.0**-480) & (col != 0)).any():
        return False
    gaps = np.diff(np.sort(col))
    return bool(((gaps != 0) & (gaps * gaps == 0)).any())


def _linkage_rates(release, external_table: MicrodataTable, trials: int, rng_seed: int):
    """The linkage estimator: ``(sums, draws, last release table)``, where
    ``sums / max(draws, 1)`` is each external record's linkage probability.
    A release or a table is scored once by ``_linkage_probabilities`` and has
    ``draws=0``: its rates are exact, not drawn. A factory ``seed -> release``
    is drawn ``trials`` times from ``derive_seed(rng_seed, "trial", t, 0)``,
    and each draw is scored by it as a fixed table.
    """
    if external_table.n_rows == 0:
        raise ValueError("the external table is empty: there is no record to link")
    if not callable(release):
        return _linkage_probabilities(release, external_table), 0, as_table(release)
    if trials < 1:
        raise ValueError("trials must be at least 1")
    sums = np.zeros(external_table.n_rows)
    for t in range(trials):
        rel_table = as_table(release(derive_seed(rng_seed, "trial", t, 0)))
        sums += _linkage_probabilities(rel_table, external_table)
    return sums, trials, rel_table


def _linkage_probabilities(release, external_table: MicrodataTable) -> np.ndarray:
    """Per-external-record probability that ``link_records`` matches the
    release row carrying the record's id, for a release whose randomness is
    known.

    A fixed release, or a bare table, is random only in its tie draws. A
    vector-mode ``cluster_and_permute`` release is also random in its
    permutation: each class of its ``partition`` keeps its multiset of QI
    vectors and deals them to its rows in uniformly random order. For an
    external record e, let V_e be its nearest release vectors
    ``nearest[bounds[e]:bounds[e + 1]]`` (one ``_nearest_vectors`` search),
    C_e the number of release rows whose vector is in V_e, g_e the class
    (``release.partition.labels``) of the release row carrying e's id (that row alone
    unless the release is vector-permuted), and m_e the number of rows of
    g_e whose vector is in V_e. C_e and m_e are ``np.add.reduceat`` sums of
    per-vector counts over e's run of ``nearest``. The row with e's id
    carries a vector of V_e with probability m_e / |g_e|, and the tie draw
    then picks it among C_e rows, so

        p_e = m_e / (|g_e| * C_e),

    and p_e = 0 when e's id is not in the release. V_e and C_e depend only on
    the release's multiset of vectors, which the permutation keeps. The
    pooled z-statistics are taken in the published row order, so the result
    is exact up to last-bit differences in those sums between permutations.

    That multiset is kept only if the permutation moved every QI the linker
    compares. A ``cluster_and_permute`` release in ``per_attribute`` mode, or
    one that left a shared QI in place, changes the multiset of shared
    vectors from draw to draw, and treating the one published draw as fixed
    would understate the risk; both raise ``ValueError`` so that the caller
    passes a factory for Monte Carlo trials instead.
    """
    rel_table = as_table(release)
    # None: each row is a class of its own, as the release did not permute
    # whole vectors within the classes of a partition
    partition = None
    provenance = getattr(release, "provenance", None)
    if provenance is not None and provenance.mechanism == "cluster_and_permute":
        mode = provenance.params.get("mode")
        permuted = provenance.params.get("qi", ())
        shared = [n for n in external_table.qi_names if n in rel_table.qi_names]
        unpermuted = [n for n in shared if n not in permuted]
        if mode != "vector" or unpermuted:
            raise ValueError(
                "linkage probabilities are exact only for a vector-mode cluster_and_permute "
                f"release that permuted every shared quasi-identifier (mode {mode!r}, "
                f"not permuted: {unpermuted}); pass a seed -> release factory instead"
            )
        partition = release.partition
    vector_of_row, _, starts, nearest, bounds = _nearest_vectors(rel_table, external_table)
    target = row_positions(rel_table, external_table.row_ids)
    # C_e summed over e's entries of ``nearest``
    total = np.add.reduceat(np.diff(starts)[nearest], bounds[:-1])
    if partition is None:
        # |g_e| = 1, and m_e is whether the row with e's id carries one of V_e
        target_vector = np.where(target >= 0, vector_of_row[target], -1)
        return np.logical_or.reduceat(np.repeat(target_vector, np.diff(bounds)) == nearest, bounds[:-1]) / total
    n_vectors = starts.size - 1
    # rows per (class, vector), keyed by class * n_vectors + vector
    pair_keys, pair_counts = np.unique(partition.labels * n_vectors + vector_of_row, return_counts=True)
    target_class = np.where(target >= 0, partition.labels[target], -1)
    # m_e summed over e's entries of ``nearest``
    keys = np.repeat(target_class, np.diff(bounds)) * n_vectors + nearest
    at = np.minimum(np.searchsorted(pair_keys, keys), pair_keys.size - 1)
    hits = np.add.reduceat(np.where(pair_keys[at] == keys, pair_counts[at], 0), bounds[:-1])
    return np.where(target_class >= 0, hits / (partition.sizes[target_class] * total), 0.0)


def linkage_attack(
    release,
    external_table: MicrodataTable,
    trials: int = 1,
    rng_seed: int = 0,
) -> AttackReport:
    """Re-identification by nearest-neighbor linkage against known records.

    A record's rate is the exact probability that ``link_records`` matches
    the release row carrying its id (``_linkage_rates``, which the verifier
    reads too): for a release or a bare table, over its tie draws (and the
    permutation of a vector-mode ``cluster_and_permute`` release); for a
    factory ``seed -> release``, the mean over ``trials`` draws. A
    ``per_attribute`` release, or one that left a shared QI in place, raises
    ``ValueError``.

    The report's ``trials`` is records times draws (one draw for a release),
    and its Wilson interval counts the summed probabilities as successes in
    those trials. For a release the rates carry no estimation error, so the
    interval measures the spread of the rate over the sampled records; the
    verifier, which bounds one record's exact rate, collapses it instead.
    """
    sums, draws, rel_table = _linkage_rates(release, external_table, trials, rng_seed)
    draws = max(draws, 1)
    n_ext = external_table.n_rows
    n_rel = rel_table.n_rows
    expected = float(sums.sum())
    total = draws * n_ext
    return AttackReport(
        attack="linkage",
        success_rate=expected / total,
        wilson=wilson_interval(expected, total),
        trials=total,
        baseline=1.0 / n_rel if n_rel else None,
        details={
            "shared_qis": [n for n in external_table.qi_names if n in rel_table.qi_names],
            "n_release_rows": n_rel,
            "n_external_rows": n_ext,
            "per_record_rates": (sums / draws).tolist(),
        },
    )


# --------------------------------------------------------------------------
# attribute inference
# --------------------------------------------------------------------------


def attribute_inference_attack(
    release,
    conf_attribute: str,
    true_table: MicrodataTable,
) -> AttackReport:
    """Posterior inference of a confidential value from class membership.

    The adversary locates a target's equivalence class and reads off the
    class distribution of the confidential attribute. For every record the
    report compares the global prior of its true value against that class
    posterior. The worst class-vs-global distribution distance is included;
    homogeneous or skewed classes leak even when k-anonymity holds. Records
    the release declares suppressed are not scored; any other record without
    a class raises Misaligned, and having no record to score raises ValueError.
    """
    conf_table, classes = release.class_table(conf_attribute)
    scheme = (release.provenance.params.get("scheme") or {}) if release.provenance else {}
    scored = ~np.isin(true_table.row_ids, [int(r) for r in scheme.get("suppressed_row_ids", ())])
    ids = true_table.row_ids[scored].tolist()
    if not ids:
        why = "the true table is empty" if not true_table.n_rows else "the release declares every record suppressed"
        raise ValueError(f"{why}: there is no record to score")
    rows = row_positions(release.table, ids)
    if (rows < 0).any():
        raise Misaligned(f"row id {ids[int(np.argmax(rows < 0))]} has no class in the release")
    label = release.partition.labels[rows]
    values = ClassValues.of(conf_table, conf_attribute)
    # each record's true value as an index into the release's support, -1 outside it
    truth, (_, row_of) = value_codes([conf_table, true_table], conf_attribute)
    index = {v: i for i, v in enumerate(values.support)}
    code = np.fromiter((index.get(v, -1) for v in truth.tolist()), np.int64, len(truth))[row_of[scored]]

    overall = np.asarray(values.overall.mass)
    priors = np.where(code >= 0, overall[code], 0.0)
    posteriors = np.zeros(len(ids))
    class_emds = []
    for lo, masses in values.class_masses(classes):
        class_emds.append(emd_rows(masses, overall, values.ground))
        here = (code >= 0) & (label >= lo) & (label < lo + len(masses))
        posteriors[here] = masses[label[here] - lo, code[here]]
    class_emds = np.concatenate(class_emds)
    gains = posteriors - priors
    n = len(ids)
    return AttackReport(
        attack="attribute_inference",
        success_rate=float(np.mean(posteriors)),
        wilson=wilson_interval(int(round(sum(posteriors.tolist()))), n),
        trials=n,
        baseline=float(np.mean(priors)),
        details={
            "mean_prior": float(np.mean(priors)),
            "mean_posterior": float(np.mean(posteriors)),
            "max_gain": float(gains.max()),
            "mean_gain": float(np.mean(gains)),
            "worst_class_emd": float(class_emds.max()),
            "per_class_emd": class_emds.tolist(),
            "per_record": [
                {"row_id": rid, "prior": p, "posterior": q, "gain": g}
                for rid, p, q, g in zip(ids, priors.tolist(), posteriors.tolist(), gains.tolist())
            ],
        },
    )


# --------------------------------------------------------------------------
# membership inference
# --------------------------------------------------------------------------


def membership_inference_attack(
    mechanism: Callable,
    table_with: MicrodataTable,
    table_without: MicrodataTable,
    trials: int = 10_000,
    calibration: int = 10_000,
    bins: int = 64,
    rng_seed: int = 0,
) -> AttackReport:
    """Distinguish whether a target record was in the mechanism's input.

    The two tables must be neighbors (the target present versus absent). The
    adversary calibrates per-bin likelihood ratios from fresh mechanism runs
    on both worlds, then guesses the world of new outputs by which calibrated
    histogram is denser at the observed bin. Advantage is max(0, 2*acc - 1),
    an empirical lower bound on the distinguishability the mechanism allows.
    A trials, calibration or bins below 1, or a non-finite output, raises
    ValueError. Each pair of samples is drawn as in ``empirical_dp_check``:
    the mechanism is called on table_with, then on table_without, on this
    thread, and an output array that owns its memory is sorted in place run
    by run; each sample's bin counts are one ``searchsorted`` per run.
    """
    _require_positive_counts(trials=trials, calibration=calibration, bins=bins)
    if neighbor_relation(table_with, table_without) is None:
        raise NotNeighbors("membership inference requires neighboring tables")
    rngs = [derive_rng(rng_seed, "attack", i) for i in range(4)]
    cal_in, cal_out, edges = _two_samples(mechanism, table_with, table_without, rngs[0], rngs[1], calibration, bins)
    guess_in = _bin_counts(cal_in, edges) >= _bin_counts(cal_out, edges)
    ev_in, ev_out, _ = _two_samples(mechanism, table_with, table_without, rngs[2], rngs[3], trials, bins)
    # each output is guessed by its calibration bin, the end bins taking what lies beyond the edges
    correct = int(_bin_counts(ev_in, edges)[guess_in].sum()) + int(_bin_counts(ev_out, edges)[~guess_in].sum())
    total = 2 * trials
    accuracy = correct / total
    advantage = max(0.0, 2.0 * accuracy - 1.0)
    return AttackReport(
        attack="membership_inference",
        success_rate=accuracy,
        wilson=wilson_interval(correct, total),
        trials=total,
        baseline=0.5,
        details={
            "advantage": advantage,
            "calibration_runs": calibration,
            "bins": bins,
        },
    )


# --------------------------------------------------------------------------
# intersection across releases
# --------------------------------------------------------------------------


def intersection_attack(releases: Sequence[AnonymizedRelease]) -> AttackReport:
    """Intersect equivalence classes across several releases of one population.

    Each release may be k-anonymous on its own while the intersection of a
    record's classes shrinks to a singleton. Success counts records whose
    effective class, after intersecting all releases, is exactly themselves.
    """
    rels = list(releases)
    if len(rels) < 2:
        raise ValueError("intersection needs at least two releases")
    ids, labels = [], []
    for r in rels:
        if r.partition is None:
            raise MissingPartition("intersection attack needs each release's partition")
        order = np.argsort(r.table.row_ids)
        ids.append(r.table.row_ids[order])
        labels.append((r.partition.labels[order], len(r.partition)))
    if any(not np.array_equal(ids[0], other) for other in ids[1:]):
        raise Misaligned("releases cover different record ids")
    # a record's effective class: the records that share its class in every release
    key, _ = _combine_codes(labels, ids[0].size)
    sizes = np.bincount(key)[key].tolist()
    singletons = sum(1 for s in sizes if s == 1)
    n = len(sizes)
    return AttackReport(
        attack="intersection",
        success_rate=singletons / n,
        wilson=wilson_interval(singletons, n),
        trials=n,
        baseline=None,
        details={
            "n_releases": len(rels),
            "min_effective_anonymity": min(sizes),
            "mean_effective_anonymity": float(np.mean(sizes)),
            "per_record_effective": {str(r): s for r, s in zip(ids[0].tolist(), sizes)},
        },
    )


# --------------------------------------------------------------------------
# downcoding reconstruction
# --------------------------------------------------------------------------


def downcoding_attack(
    release: AnonymizedRelease,
    hierarchies: Mapping[str, GeneralizationHierarchy],
) -> AttackReport:
    """Reconstruct information hidden by a minimality-seeking recoder.

    Applies only to releases produced by the exhaustive minimal recoder; the
    attack inverts that mechanism's own acceptance rule, so any other
    provenance raises NotMinimalMechanism. For each generalized cell the
    adversary keeps the leaf values under the released node for which the
    released scheme would still have been cell-minimal. Because the released
    label multiset is fixed, that acceptance test is independent across
    cells. A cell counts as (partially) recovered when its surviving set is a
    proper subset of the released node's leaves. Soundness: the true value
    survives whenever it is one of the enumerated leaves, since the mechanism
    accepted the release for it. Every tree leaf is; under an integral
    interval hierarchy only integers are, so a non-integer value is never
    inferred (1.5 in [1, 10] cut at 6 is released as ``[1,5]`` and inferred
    as ``[1, 2, 3, 4, 5]``).
    """
    if release.provenance is None or release.provenance.mechanism != "minimal_generalization":
        found = None if release.provenance is None else release.provenance.mechanism
        raise NotMinimalMechanism(
            f"downcoding inverts the exhaustive minimal recoder; release came from {found!r}"
        )
    params = release.provenance.params or {}
    k = int(params["k"])
    scheme = params.get("scheme") or {}
    table = release.table
    qi = [str(n) for n in scheme.get("qi_order", table.qi_names)]
    for name in qi:
        if name not in hierarchies:
            raise UnknownAttribute(name)
    n = table.n_rows
    columns = [text_codes(table, name) for name in qi]
    label_rows = list(zip(*(distinct[codes].tolist() for distinct, codes in columns)))
    counts = Counter(label_rows)

    cells = []
    for i in range(n):
        for a, name in enumerate(qi):
            h = hierarchies[name]
            label = label_rows[i][a]
            level = h.level_of_label(label)
            if level > 0:
                cells.append((i, a, name, label, level))

    recovered = 0
    cell_details = []
    candidates = {}  # (attribute, released label) -> its leaves and their lower labels
    for i, a, name, label, level in cells:
        if (a, label) not in candidates:
            h = hierarchies[name]
            leaves = h.leaves_under(label)
            candidates[a, label] = leaves, [path[:level] for path in h.paths(leaves).tolist()]
        leaves, lowers = candidates[a, label]
        survivors = [
            leaf for leaf, lower in zip(leaves, lowers) if cell_is_minimal(counts, label_rows[i], a, lower, k)
        ]
        proper = len(survivors) < len(leaves)
        recovered += proper
        cell_details.append(
            {
                "row_id": int(table.row_ids[i]),
                "attribute": name,
                "released": label,
                "level": level,
                "n_leaves": len(leaves),
                "inferred": sorted(survivors),
                "narrowed": proper,
            }
        )
    recovery = recovered / len(cells) if cells else 0.0
    return AttackReport(
        attack="downcoding",
        success_rate=recovery,
        wilson=wilson_interval(recovered, len(cells)) if cells else (0.0, 1.0),
        trials=len(cells),
        baseline=0.0,
        details={"k": k, "n_generalized_cells": len(cells), "cells": cell_details},
    )
