"""Empirical attack harness: record linkage, attribute inference, membership
inference, release intersection, and downcoding reconstruction.

Every attack returns an AttackReport with an aggregate success rate, a Wilson
95% interval where the rate is a Bernoulli aggregate, and attack-specific
detail. Attacks measure what an adversary actually achieves against concrete
releases; they complement, and sometimes contradict, syntactic guarantees.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .confmodels import ClassValues, emd
from .dp import _output_edges, _require_positive_counts, neighbor_relation
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
from .microdata import AnonymizedRelease, GeneralizationHierarchy, MicrodataTable, as_table
from .seeds import derive_rng, derive_seed


def wilson_interval(successes: int, trials: int, z: float = 1.959963984540054):
    """Wilson score interval for a binomial proportion."""
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

# distances link_records holds at once: external rows x unique release vectors
_BLOCK_CELLS = 1 << 20


def link_records(
    release_table: MicrodataTable, external_table: MicrodataTable, rng: np.random.Generator
) -> np.ndarray:
    """Nearest-neighbor match of each external record to a release row.

    Distance is the mixed metric of ``MixedSpace`` over the quasi-identifiers
    the two tables share, with numeric statistics pooled over both tables:
    squared z-scored difference where both sides are numeric, exact-match 0/1
    on canonical text otherwise. External record e's tie set is every release
    row behind its nearest vectors ``nearest[bounds[e]:bounds[e + 1]]`` (one
    ``_nearest_vectors`` search), in ascending row order. Ties are broken
    uniformly at random, one ``rng.integers`` draw per external row with more
    than one tied release row, in external row order. Returns the matched
    release row position per external row. ``linkage_attack`` and the
    probabilistic-k verifier's Monte Carlo path call it from one trial loop,
    so the verifier shares the attack's trial streams.
    """
    _, rel_rows, starts, nearest, bounds = _nearest_vectors(release_table, external_table)
    tie_counts = np.add.reduceat(np.diff(starts)[nearest], bounds[:-1])
    # each row's match as an index into its tie set: one draw per row with a tie, in row order
    pick = np.zeros(tie_counts.size, dtype=np.int64)
    tied = np.flatnonzero(tie_counts > 1)
    pick[tied] = [rng.integers(c) for c in tie_counts[tied].tolist()]
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
    rows are scanned against the distinct release vectors in blocks of at
    most ``_BLOCK_CELLS`` distances.
    """
    shared = [n for n in external_table.qi_names if n in release_table.qi_names]
    if not shared:
        raise NoSharedQIs("the release and the external table share no quasi-identifiers")
    rel_space, ext_space = MixedSpace.from_tables([release_table, external_table], shared)
    n_rel, n_ext = rel_space.n, ext_space.n
    numeric = np.concatenate([rel_space.numeric, ext_space.numeric]) + 0.0  # -0.0 keys as 0.0
    codes = np.concatenate([rel_space.codes, ext_space.codes])
    # one sort of both tables by QI vector; equal vectors keep row order
    order = np.lexsort([*codes.T, *numeric.T])
    num_sorted, codes_sorted = numeric[order], codes[order]
    new_key = np.ones(order.size, dtype=bool)
    new_key[1:] = (num_sorted[1:] != num_sorted[:-1]).any(axis=1) | (
        codes_sorted[1:] != codes_sorted[:-1]
    ).any(axis=1)
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
    vectors = MixedSpace(numeric[rel_rows[first]], codes[rel_rows[first]])
    vector_of_key = np.full(int(new_key.sum()), -1, dtype=np.int64)
    vector_of_key[rel_keys[first]] = np.arange(vectors.n)
    # the release vector each external row equals, -1 where it must be scanned
    exact = vector_of_key[key[n_rel:]]
    if _gap_squares_to_zero(numeric):
        exact[:] = -1

    # each external row's nearest vectors: the one it equals, or its scanned block's minima
    counts = np.ones(n_ext, dtype=np.int64)
    minima = []
    scanned = np.flatnonzero(exact < 0)
    step = max(1, _BLOCK_CELLS // max(vectors.n, 1))
    for lo in range(0, scanned.size, step):
        block = scanned[lo : lo + step]
        dist = vectors.sq_dist_to(ext_space.point(block))
        at, vec = np.nonzero(dist == dist.min(axis=1, keepdims=True))
        del dist  # free this block's distances before the next block is computed
        counts[block] = np.bincount(at, minlength=block.size)
        minima.append((block[at], vec))
    bounds = np.concatenate([[0], np.cumsum(counts)])
    nearest = np.repeat(exact, counts)
    for rows, vec in minima:
        # a row's minima come consecutive and ascending: the i-th goes i places after its start
        nearest[bounds[rows] + np.arange(rows.size) - np.searchsorted(rows, rows)] = vec
    return vector_of_row, rel_rows, starts, nearest, bounds


def _gap_squares_to_zero(numeric: np.ndarray) -> bool:
    """Whether two distinct values of one numeric column differ by a gap whose
    square is 0, so that rows with different vectors can be at distance 0."""
    gaps = np.diff(np.sort(numeric, axis=0), axis=0)
    return bool(((gaps != 0) & (gaps * gaps == 0)).any())


def _linkage_successes(release, external_table: MicrodataTable, trials: int, rng_seed: int):
    """The linkage trial loop: per-external-record success counts over ``trials``.

    ``release`` is a release, a table, or a factory ``seed -> release`` drawn
    afresh each trial from ``derive_seed(rng_seed, "trial", t, 0)``; trial t
    breaks ties with ``derive_rng(rng_seed, "attack", t)``. Returns the counts
    and the last trial's release table.
    """
    ext_ids = np.asarray(external_table.row_ids)
    successes = np.zeros(external_table.n_rows, dtype=np.int64)
    rel_table = None
    for t in range(trials):
        rel = release(derive_seed(rng_seed, "trial", t, 0)) if callable(release) else release
        rel_table = as_table(rel)
        pos = link_records(rel_table, external_table, derive_rng(rng_seed, "attack", t))
        successes += np.asarray(rel_table.row_ids)[pos] == ext_ids
    return successes, rel_table


def _linkage_probabilities(release, external_table: MicrodataTable) -> np.ndarray:
    """Per-external-record probability that ``link_records`` matches the
    release row carrying the record's id: the exact value that
    ``_linkage_successes`` estimates, for a release whose randomness is known.

    A fixed release, or a bare table, is random only in its tie draws. A
    vector-mode ``cluster_and_permute`` release is also random in its
    permutation: each class of its ``partition`` keeps its multiset of QI
    vectors and deals them to its rows in uniformly random order. For an
    external record e, let V_e be its nearest release vectors
    ``nearest[bounds[e]:bounds[e + 1]]`` (one ``_nearest_vectors`` search),
    C_e the number of release rows whose vector is in V_e, g_e the class
    (``release.labels``) of the release row carrying e's id (that row alone
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
    # each row is a class of its own unless the release permuted whole
    # vectors within the classes of its partition
    class_of_row = np.arange(rel_table.n_rows)
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
        class_of_row = release.labels
    vector_of_row, _, starts, nearest, bounds = _nearest_vectors(rel_table, external_table)
    n_vectors = starts.size - 1
    # rows per (class, vector), keyed by class * n_vectors + vector
    pair_keys, pair_counts = np.unique(class_of_row * n_vectors + vector_of_row, return_counts=True)

    row_of = {int(r): i for i, r in enumerate(rel_table.row_ids)}
    target = np.asarray([row_of.get(int(r), -1) for r in external_table.row_ids], dtype=np.int64)
    target_class = np.where(target >= 0, class_of_row[target], -1)
    # m_e and C_e summed over e's entries of ``nearest``
    keys = np.repeat(target_class, np.diff(bounds)) * n_vectors + nearest
    at = np.minimum(np.searchsorted(pair_keys, keys), pair_keys.size - 1)
    hits = np.add.reduceat(np.where(pair_keys[at] == keys, pair_counts[at], 0), bounds[:-1])
    total = np.add.reduceat(np.diff(starts)[nearest], bounds[:-1])
    class_size = np.bincount(class_of_row)[target_class]
    return np.where(target_class >= 0, hits / (class_size * total), 0.0)


def linkage_attack(
    release,
    external_table: MicrodataTable,
    trials: int = 1,
    rng_seed: int = 0,
) -> AttackReport:
    """Re-identification by nearest-neighbor linkage against known records.

    ``release`` may be a finished release, a bare table, or a factory
    ``seed -> release`` that is re-randomized on every trial. Success for one
    external record means the matched release row carries that record's id.
    ``verify_probabilistic_k`` runs the same trials for a factory.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    successes, rel_table = _linkage_successes(release, external_table, trials, rng_seed)
    n_ext = external_table.n_rows
    n_rel = rel_table.n_rows
    hits = int(successes.sum())
    total = trials * n_ext
    return AttackReport(
        attack="linkage",
        success_rate=hits / total,
        wilson=wilson_interval(hits, total),
        trials=total,
        baseline=1.0 / n_rel if n_rel else None,
        details={
            "shared_qis": [n for n in external_table.qi_names if n in rel_table.qi_names],
            "n_release_rows": n_rel,
            "n_external_rows": n_ext,
            "per_record_rates": (successes / trials).tolist(),
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
    a class raises Misaligned.
    """
    conf_table, classes = release.class_table(conf_attribute)
    values = ClassValues.of(conf_table, conf_attribute)
    class_dists = [values.distribution(members) for members in classes]
    class_of = dict(zip(release.table.row_ids.tolist(), release.labels.tolist()))
    scheme = (release.provenance.params.get("scheme") or {}) if release.provenance else {}
    suppressed = {int(r) for r in scheme.get("suppressed_row_ids", ())}
    truth = {
        int(r): v
        for r, v in zip(true_table.row_ids, true_table.columns[conf_attribute])
        if int(r) not in suppressed
    }
    missing = [r for r in truth if r not in class_of]
    if missing:
        raise Misaligned(f"row id {missing[0]} has no class in the release")

    key = float if conf_table.attribute(conf_attribute).is_numeric else str
    overall = dict(zip(values.overall.support, values.overall.mass))
    per_class = [dict(zip(d.support, d.mass)) for d in class_dists]
    class_emds = [emd(d, values.overall, values.ground) for d in class_dists]

    priors, posteriors, gains = [], [], []
    for rid, true_value in truth.items():
        prior = overall.get(key(true_value), 0.0)
        posterior = per_class[class_of[rid]].get(key(true_value), 0.0)
        priors.append(prior)
        posteriors.append(posterior)
        gains.append(posterior - prior)
    n = len(truth)
    return AttackReport(
        attack="attribute_inference",
        success_rate=float(np.mean(posteriors)),
        wilson=wilson_interval(int(round(sum(posteriors))), n),
        trials=n,
        baseline=float(np.mean(priors)),
        details={
            "mean_prior": float(np.mean(priors)),
            "mean_posterior": float(np.mean(posteriors)),
            "max_gain": float(max(gains)),
            "mean_gain": float(np.mean(gains)),
            "worst_class_emd": float(max(class_emds)),
            "per_class_emd": [float(e) for e in class_emds],
            "per_record": [
                {"row_id": rid, "prior": p, "posterior": q, "gain": g}
                for rid, p, q, g in zip(truth.keys(), priors, posteriors, gains)
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
    A trials, calibration or bins below 1, or a calibration sample with a
    non-finite output, raises ValueError.
    """
    _require_positive_counts(trials=trials, calibration=calibration, bins=bins)
    if neighbor_relation(table_with, table_without) is None:
        raise NotNeighbors("membership inference requires neighboring tables")
    cal_in = np.asarray(mechanism(table_with, derive_rng(rng_seed, "attack", 0), calibration), float)
    cal_out = np.asarray(mechanism(table_without, derive_rng(rng_seed, "attack", 1), calibration), float)
    edges = _output_edges(cal_in, cal_out, bins)
    h_in, _ = np.histogram(cal_in, bins=edges)
    h_out, _ = np.histogram(cal_out, bins=edges)
    guess_in = h_in >= h_out

    def bin_of(x):
        return np.clip(np.searchsorted(edges, x, side="right") - 1, 0, bins - 1)

    ev_in = np.asarray(mechanism(table_with, derive_rng(rng_seed, "attack", 2), trials), float)
    ev_out = np.asarray(mechanism(table_without, derive_rng(rng_seed, "attack", 3), trials), float)
    correct = int(guess_in[bin_of(ev_in)].sum()) + int((~guess_in[bin_of(ev_out)]).sum())
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
        labels.append((r.labels[order], len(r.partition)))
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
    max_candidates: int = 10**6,
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
    always survives, since the mechanism accepted the release for it.
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
    label_rows = [
        tuple(str(table.columns[name][i]) for name in qi) for i in range(n)
    ]
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
    for i, a, name, label, level in cells:
        h = hierarchies[name]
        leaves = h.leaves_under(label, limit=max_candidates)
        survivors = [
            leaf
            for leaf in leaves
            if cell_is_minimal(counts, label_rows[i], a, (h.label(leaf, lower) for lower in range(level)), k)
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
