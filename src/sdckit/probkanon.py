"""Probabilistic k-anonymity: permutation within MDAV groups and anatomy.

The semantic target is that any linkage strategy succeeds with probability at
most 1/k per record. Permuting whole QI vectors uniformly inside groups of at
least k records achieves it while preserving every QI marginal exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import GroupTooSmall
from .kanon import mdav_partition
from .microdata import (
    AnonymizedRelease,
    AttributeSchema,
    MicrodataTable,
    NumericKind,
    Provenance,
    canonical_partition,
)
from .seeds import derive_rng


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
    if mode not in ("vector", "per_attribute"):
        raise ValueError(f"unknown permutation mode {mode!r}")
    qi = list(qi_attributes)
    if partition is None:
        partition = mdav_partition(table, qi, k)
    else:
        partition = canonical_partition(partition)
        if any(len(g) < k for g in partition):
            raise GroupTooSmall(f"partition has a group below k={k}")

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
    for g in partition:
        if len(g) < k:
            raise GroupTooSmall(f"group of size {len(g)} below k={k}")
    members = [i for g in partition for i in g]
    if sorted(members) != list(range(table.n_rows)):
        raise ValueError("partition must cover every row exactly once")

    n_groups = len(partition)
    group_of = np.empty(table.n_rows, dtype=np.int64)
    for gid, g in enumerate(partition):
        group_of[list(g)] = gid

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
    """Empirically bound per-record linkage success against a release.

    Accepts either a fixed release or a callable seed -> release so that
    randomized mechanisms are re-drawn each trial. The trials are
    ``linkage_attack``'s: the same loop with the same per-trial streams, so
    for one factory, trial count and seed both report the same per-record
    rates. The statistic is the highest per-record success rate; PASS
    requires its Wilson 95% upper bound to stay at or below 1/k + slack.
    """
    from .attacks import _linkage_successes, wilson_interval  # late import avoids module cycle

    if k < 1:
        raise ValueError("k must be at least 1")
    successes, _ = _linkage_successes(release_or_factory, external_table, trials, rng_seed)
    ext_ids = [int(r) for r in external_table.row_ids]
    rates = successes / float(trials)
    worst = int(np.argmax(rates))
    max_rate = float(rates[worst])
    interval = wilson_interval(int(successes[worst]), trials)
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
