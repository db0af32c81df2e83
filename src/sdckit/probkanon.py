"""Probabilistic k-anonymity: permutation within MDAV groups and anatomy.

The semantic target is that any linkage strategy succeeds with probability at
most 1/k per record. Permuting whole QI vectors uniformly inside groups of at
least k records achieves it while preserving every QI marginal exactly. The
verifier computes nearest-neighbour linkage rates in closed form for a given
release (fixed, or vector-permuted within its groups) and falls back to Monte
Carlo trials only for an opaque mechanism given as a seed -> release factory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .attacks import _linkage_probabilities, _linkage_successes, wilson_interval
from .errors import GroupTooSmall
from .kanon import mdav_partition
from .microdata import (
    AnonymizedRelease,
    AttributeSchema,
    MicrodataTable,
    NumericKind,
    Provenance,
    canonical_partition,
    class_labels,
)
from .seeds import derive_rng

# cluster_and_permute moves whole QI vectors within a group, or each QI column on its own
PERMUTE_MODES = ("vector", "per_attribute")


def cluster_and_permute(
    table: MicrodataTable,
    qi_attributes: Sequence[str],
    k: int,
    rng_seed: int,
    mode: str = "vector",
    partition=None,
) -> AnonymizedRelease:
    """Permute QI values uniformly at random within MDAV groups.

    mode="vector" (default) moves whole QI vectors between records, keeping
    intra-record QI correlations; mode="per_attribute" permutes each QI column
    independently inside each group. Confidential and non-confidential values
    never move. Per-group streams are derived from the seed by a counter
    construction, so the result does not depend on group processing order.
    """
    if mode not in PERMUTE_MODES:
        raise ValueError(f"unknown permutation mode {mode!r}")
    qi = list(qi_attributes)
    if partition is None:
        partition = mdav_partition(table, qi, k)
    else:
        partition = canonical_partition(partition)
        _require_group_size(partition, k)

    # release row i takes column ``name`` from source row source[name][i]
    source = {name: np.arange(table.n_rows) for name in qi}
    for gid, group in enumerate(partition):
        idx = np.asarray(group, dtype=np.int64)
        rng = derive_rng(rng_seed, "permute", gid)
        shared = rng.permutation(idx.size) if mode == "vector" else None
        for name in qi:
            perm = shared if shared is not None else rng.permutation(idx.size)
            source[name][idx] = idx[perm]

    kept = tuple(a for a in table.schema if a.role != "identifier")
    columns = {
        a.name: table.columns[a.name][source[a.name]] if a.name in source else table.columns[a.name]
        for a in kept
    }
    masked = MicrodataTable(kept, columns, table.row_ids)
    return AnonymizedRelease(
        table=masked,
        partition=partition,
        provenance=Provenance(
            mechanism="cluster_and_permute",
            params={"k": k, "qi": qi, "mode": mode},
            seed=int(rng_seed),
        ),
    )


def _require_group_size(partition, k: int) -> None:
    """Raise GroupTooSmall, naming the smallest group's size, if it is below k."""
    smallest = min((len(g) for g in partition), default=k)
    if smallest < k:
        raise GroupTooSmall(f"smallest group has {smallest} records, below k={k}")


# --------------------------------------------------------------------------
# anatomy
# --------------------------------------------------------------------------


def anatomize(table: MicrodataTable, partition, k: int, rng_seed: int) -> AnonymizedRelease:
    """Split the table into a QI projection and a group-shuffled confidential one.

    The release's ``table`` is the QI side and its ``conf_table`` the
    confidential side; the two are linked only through ``group_id``, which is
    the index of the record's group in the canonical ``partition``.
    """
    partition = canonical_partition(partition)
    _require_group_size(partition, k)
    group_of = class_labels(partition, table.n_rows)
    n_groups = len(partition)

    gid_attr = AttributeSchema("group_id", "non_confidential", NumericKind(0, max(n_groups - 1, 0)))

    qi_side = [a for a in table.schema if a.role in ("quasi_identifier", "non_confidential")]
    qi_schema = (gid_attr,) + tuple(qi_side)
    qi_cols = {"group_id": group_of.astype(np.float64)}
    qi_cols.update({a.name: table.columns[a.name] for a in qi_side})
    qi_table = MicrodataTable(qi_schema, qi_cols, table.row_ids)

    conf_side = [a for a in table.schema if a.role == "confidential"]
    conf_schema = (gid_attr,) + tuple(conf_side)
    order: list[int] = []
    for gid, g in enumerate(partition):
        rng = derive_rng(rng_seed, "anatomy", gid)
        idx = np.asarray(g, dtype=np.int64)
        order.extend(idx[rng.permutation(idx.size)].tolist())
    order_arr = np.asarray(order, dtype=np.int64)
    conf_cols = {"group_id": group_of[order_arr].astype(np.float64)}
    conf_cols.update({a.name: table.columns[a.name][order_arr] for a in conf_side})
    conf_table = MicrodataTable(conf_schema, conf_cols, np.arange(len(order), dtype=np.int64))

    return AnonymizedRelease(
        table=qi_table,
        partition=partition,
        provenance=Provenance(
            mechanism="anatomy",
            params={"k": k, "groups": [list(g) for g in partition]},
            seed=int(rng_seed),
        ),
        conf_table=conf_table,
    )


# --------------------------------------------------------------------------
# empirical verifier
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ProbabilisticKReport:
    max_record_rate: float
    wilson_interval: tuple[float, float]
    passed: bool
    bound: float
    slack: float
    trials: int
    per_record_rates: Mapping[int, float]


def verify_probabilistic_k(
    release_or_factory,
    external_table: MicrodataTable,
    k: int,
    trials: int = 2000,
    rng_seed: int = 0,
    slack: float = 0.02,
) -> ProbabilisticKReport:
    """Bound per-record linkage success against a release, exactly where the
    release's randomness is known and by Monte Carlo otherwise.

    A release or a bare table takes the closed form: each record's exact
    probability of being linked to the row that carries its id, from one
    nearest-vector search (``attacks._linkage_probabilities``). That covers
    fixed releases, where only the tie draws are random, and vector-mode
    ``cluster_and_permute`` releases, whose whole QI vectors are permuted
    uniformly inside each class of their partition. The report then has
    ``trials=0`` and a Wilson interval collapsed to the maximum rate. A
    ``cluster_and_permute`` release that left a QI of ``external_table`` in
    place, or permuted per attribute, raises ``ValueError``: its linkage
    rates depend on the draw, so pass a factory instead.

    A callable seed -> release is an opaque mechanism and is re-drawn each
    trial. Those trials are ``linkage_attack``'s: the same loop with the same
    per-trial streams, so for one factory, trial count and seed both report
    the same per-record rates, and the statistic's interval is the Wilson
    95% interval of the highest per-record rate. ``trials`` must be at least
    1 there and is unused for a release.

    PASS requires the upper end of the interval to stay at or below
    1/k + slack.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if callable(release_or_factory):
        if trials < 1:
            raise ValueError("trials must be at least 1")
        successes, _ = _linkage_successes(release_or_factory, external_table, trials, rng_seed)
        rates = successes / float(trials)
    else:
        rates = _linkage_probabilities(release_or_factory, external_table)
        trials = 0
    ext_ids = [int(r) for r in external_table.row_ids]
    worst = int(np.argmax(rates))
    max_rate = float(rates[worst])
    interval = wilson_interval(int(successes[worst]), trials) if trials else (max_rate, max_rate)
    bound = 1.0 / k
    passed = interval[1] <= bound + slack
    return ProbabilisticKReport(
        max_record_rate=max_rate,
        wilson_interval=interval,
        passed=passed,
        bound=bound,
        slack=slack,
        trials=trials,
        per_record_rates={ext_ids[i]: float(rates[i]) for i in range(len(ext_ids))},
    )
