"""Differential privacy engine: queries, sensitivities, the Laplace family,
perfect secrecy, metric DP, individual DP, relaxation conversions, and an
empirical indistinguishability check.

All noise is sampled by explicit inverse-CDF transforms of a seeded uniform
stream, so every draw is bit-reproducible given the generator state. Laplace
noise transforms its uniforms in place, one cache-sized block at a time, as
``copysign(scale * log1p(-2|u|), u)`` with ``|u|`` clamped so that no
uniform gives an infinite draw; the draws are bit-identical to the one-shot
formula applied to one ``rng.random(size)`` array.

The empirical check and the membership attack run their numpy work on two
threads, each giving half to one short-lived helper thread: a large Laplace
draw from a PCG64 stream, whose upper half the helper draws and transforms
from an advanced copy of the stream, and the range and histogram counts of
two output samples. The caller allocates every buffer the helper writes, the
mechanism is still called once per table from the caller's thread, and the
results and the generator's end state are identical on any number of cores.
"""

from __future__ import annotations

import contextvars
import math
import threading
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import (
    InvalidAlpha,
    InvalidDelta,
    InvalidRho,
    NonPositiveEpsilon,
    NotNeighbors,
    UnboundedDomain,
    UnknownAttribute,
)
from .microdata import (
    AnonymizedRelease,
    AttributeSchema,
    MicrodataTable,
    NumericKind,
    Provenance,
    comparable_text,
)
from .seeds import derive_rng

NEIGHBOR_MODELS = ("add_remove", "replace")


# --------------------------------------------------------------------------
# queries
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Predicate:
    """Serializable row filter for counting queries."""

    attribute: str
    op: str
    value: object

    def __post_init__(self):
        if self.op not in ("==", "<=", ">="):
            raise ValueError(f"unsupported predicate op {self.op!r}")

    def mask(self, table: MicrodataTable) -> np.ndarray:
        attr = table.attribute(self.attribute)
        col = table.columns[self.attribute]
        if attr.is_numeric:
            v = float(self.value)  # type: ignore[arg-type]
            col = col.astype(float)
            if self.op == "==":
                return col == v
            if self.op == "<=":
                return col <= v
            return col >= v
        if self.op != "==":
            raise ValueError("categorical predicates support == only")
        return comparable_text(table, self.attribute) == str(self.value)

    def to_json(self) -> dict:
        return {"attribute": self.attribute, "op": self.op, "value": self.value}


@dataclass(frozen=True)
class Query:
    kind: str
    attribute: str | None = None
    predicate: Predicate | None = None
    row_index: int | None = None

    def __post_init__(self):
        if self.kind not in ("count", "sum", "mean", "max", "identity"):
            raise ValueError(f"unknown query kind {self.kind!r}")
        if self.kind in ("sum", "mean", "max", "identity") and self.attribute is None:
            raise ValueError(f"{self.kind} query needs an attribute")
        if self.kind == "identity" and self.row_index is None:
            raise ValueError("identity query needs a row_index")

    def describe(self) -> str:
        parts = [self.kind]
        if self.attribute:
            parts.append(self.attribute)
        if self.predicate:
            parts.append(f"{self.predicate.attribute}{self.predicate.op}{self.predicate.value}")
        if self.row_index is not None:
            parts.append(f"row={self.row_index}")
        return ":".join(parts)


def answer_query(table: MicrodataTable, query: Query) -> float:
    if query.kind == "count":
        if query.predicate is None:
            return float(table.n_rows)
        return float(query.predicate.mask(table).sum())
    col = table.columns[query.attribute].astype(float)
    if query.kind == "sum":
        return float(col.sum())
    if query.kind == "mean":
        if col.size == 0:
            raise ValueError("mean of an empty table is undefined")
        return float(col.mean())
    if query.kind == "max":
        if col.size == 0:
            raise ValueError("max of an empty table is undefined")
        return float(col.max())
    return float(col[query.row_index])


def _numeric_domain(schema: Sequence[AttributeSchema], attribute: str) -> NumericKind:
    for a in schema:
        if a.name == attribute:
            if not isinstance(a.kind, NumericKind):
                raise UnboundedDomain(f"attribute {attribute!r} has no finite numeric domain")
            return a.kind
    raise UnknownAttribute(attribute)


def global_sensitivity(
    query: Query,
    schema: Sequence[AttributeSchema],
    neighbor_model: str = "add_remove",
    n: int | None = None,
) -> float:
    """Worst-case query change between any two neighboring tables.

    add_remove neighbors differ by one record's presence; replace neighbors
    swap one record's values. Mean queries treat the record count n as public
    and require it to be supplied.
    """
    if neighbor_model not in NEIGHBOR_MODELS:
        raise ValueError(f"unknown neighbor model {neighbor_model!r}")
    if query.kind == "count":
        return 1.0
    dom = _numeric_domain(schema, query.attribute)
    lo, hi = dom.lo, dom.hi
    if query.kind == "sum":
        if neighbor_model == "add_remove":
            return max(abs(lo), abs(hi))
        return hi - lo
    if query.kind == "mean":
        if n is None or n < 1:
            raise ValueError("mean sensitivity needs the public record count n")
        return (hi - lo) / n
    # identity and max both move by at most the domain width under either model
    return hi - lo


def individual_dp_sensitivity(
    query: Query, table: MicrodataTable, neighbor_model: str = "add_remove"
) -> float:
    """Sensitivity over neighbors of the actual table only (downward local
    sensitivity for add_remove). Never exceeds the global bound."""
    if neighbor_model not in NEIGHBOR_MODELS:
        raise ValueError(f"unknown neighbor model {neighbor_model!r}")
    if query.kind == "count":
        return 1.0
    dom = _numeric_domain(table.schema, query.attribute)
    lo, hi = dom.lo, dom.hi
    col = table.columns[query.attribute].astype(float)
    if col.size == 0:
        return 0.0
    if query.kind == "sum":
        if neighbor_model == "add_remove":
            return float(np.abs(col).max())
        return float(np.maximum(col - lo, hi - col).max())
    if query.kind == "mean":
        n = col.size
        mean = col.mean()
        if neighbor_model == "add_remove":
            if n == 1:
                return hi - lo
            return float(np.abs(col - mean).max() / (n - 1))
        return float(np.maximum(col - lo, hi - col).max() / n)
    if query.kind == "max":
        top = float(col.max())
        second = float(np.partition(col, -2)[-2]) if col.size >= 2 else lo
        if neighbor_model == "add_remove":
            return top - max(second, lo) if col.size >= 2 else top - lo
        return max(hi - top, top - max(second, lo))
    # identity: the queried record can change anywhere inside the domain
    v = float(col[query.row_index])
    return max(v - lo, hi - v)


# --------------------------------------------------------------------------
# Laplace family
# --------------------------------------------------------------------------


# Doubles per block of the noise transform and of the histogram count: a
# block and its thread's one 256 KiB scratch buffer stay in a core's L2
# cache. Sizes from 2**15 to 2**16 time alike on two threads; smaller blocks
# spend the second core's gain on handing the GIL back and forth.
_BLOCK = 2**15

# The largest |uniform - 0.5| of any uniform but 0.0, whose u = -0.5 would
# give log1p(-1) = -inf. Clamping there keeps every other draw's bits.
_MAX_ABS_U = 0.5 - 2.0**-53


def _beside(fn, helper_args: tuple, own_args: tuple) -> None:
    """Run ``fn(*helper_args)`` on a helper thread while ``fn(*own_args)``
    runs on this one, then join the helper and re-raise what it raised.

    The helper runs in a copy of the caller's context, so the caller's
    ``np.errstate`` (a context variable from numpy 2.0) covers both halves.
    ``fn`` should spend its time in numpy calls that release the GIL and
    allocate nothing large: the caller allocates every buffer the helper
    writes, because a large allocation on the helper would stay in its malloc
    arena after the thread ends.
    """
    errors = []
    context = contextvars.copy_context()

    def helper():
        try:
            context.run(fn, *helper_args)
        except BaseException as exc:  # re-raised on the calling thread
            errors.append(exc)

    thread = threading.Thread(target=helper, daemon=True)
    thread.start()
    try:
        fn(*own_args)
    finally:
        thread.join()
    if errors:
        raise errors[0]


def _transform(flat: np.ndarray, scale: float, buf: np.ndarray) -> None:
    """Turn the uniforms in ``flat`` into Laplace(scale) draws in place, one
    ``_BLOCK`` at a time, with ``buf`` as the scratch buffer."""
    for start in range(0, flat.size, _BLOCK):
        u = flat[start : start + _BLOCK]
        t = buf[: u.size]
        u -= 0.5
        np.abs(u, out=t)
        np.minimum(t, _MAX_ABS_U, out=t)
        t *= -2.0
        np.log1p(t, out=t)
        t *= scale
        np.copysign(t, u, out=u)


def _draw(gen: np.random.Generator, flat: np.ndarray, scale: float, buf: np.ndarray) -> None:
    """Fill ``flat`` with Laplace(scale) draws from ``gen``'s next uniforms,
    one ``_BLOCK`` at a time: each block is drawn and then transformed while
    it is still in cache."""
    for start in range(0, flat.size, _BLOCK):
        block = flat[start : start + _BLOCK]
        gen.random(out=block)
        _transform(block, scale, buf)


def _split_draw(rng: np.random.Generator, flat: np.ndarray, scale: float) -> None:
    """Fill ``flat`` as ``_draw(rng, flat, ...)`` would, on two threads. A
    PCG64 double takes one 64-bit step of the stream, so the upper half (cut
    at a block boundary) comes from a copy of the stream advanced past the
    lower half, drawn on a helper thread. ``rng`` then takes the copy's end
    state, with its own cached 32-bit half put back, which ``advance`` clears
    and a double draw leaves alone."""
    bit_generator = rng.bit_generator
    state = bit_generator.state
    cut = _BLOCK * -(-flat.size // (2 * _BLOCK))
    upper = np.random.PCG64()
    upper.state = state
    upper.advance(cut)
    _beside(
        _draw,
        (np.random.Generator(upper), flat[cut:], scale, np.empty(_BLOCK)),
        (rng, flat[:cut], scale, np.empty(_BLOCK)),
    )
    end = upper.state
    end["has_uint32"], end["uinteger"] = state["has_uint32"], state["uinteger"]
    bit_generator.state = end


def laplace_noise(rng: np.random.Generator, scale: float, size: int | None = None):
    """Inverse-CDF Laplace sampling from the generator's uniform stream.

    The transform ``copysign(scale * log1p(-2|u|), u)``, with
    ``u = uniform - 0.5`` and ``|u|`` clamped at ``0.5 - 2**-53`` so that a
    uniform of 0.0 gives a finite draw, runs in place on one block of
    ``_BLOCK`` doubles at a time, so every pass over a block reads it from
    cache. A draw of four blocks or more from a ``Generator`` on a ``PCG64``
    stream (every ``derive_rng`` stream) is split at a block boundary: this
    thread draws and transforms the lower half block by block, and a helper
    thread the upper half, from a copy of the stream advanced past the lower
    half. Any other draw takes its uniforms from one ``rng.random(size)`` call
    on this thread. Either way the draws equal
    ``-scale * sign(u) * log1p(-2|u|)`` applied to one ``rng.random(size)``
    array, bit for bit, and leave the generator in the state that call would,
    on any number of cores. A negative or NaN scale raises ValueError.
    """
    if not scale >= 0:
        raise ValueError(f"Laplace scale must be nonnegative, got {scale}")
    if size is None:
        u = rng.random() - 0.5
        return np.copysign(scale * np.log1p(-2.0 * min(abs(u), _MAX_ABS_U)), u)
    if (
        np.prod(size) >= 4 * _BLOCK
        and isinstance(rng, np.random.Generator)
        and isinstance(rng.bit_generator, np.random.PCG64)
    ):
        out = np.empty(size)
        _split_draw(rng, out.reshape(-1), scale)
    else:
        out = rng.random(size)
        flat = out.reshape(-1)
        _transform(flat, scale, np.empty(min(flat.size, _BLOCK)))
    return out if out.ndim else out[()]


def laplace_mechanism(true_answer: float, sensitivity: float, epsilon: float, rng: np.random.Generator):
    """Add Laplace(sensitivity / epsilon) noise; zero sensitivity returns exactly."""
    if epsilon <= 0:
        raise NonPositiveEpsilon(f"epsilon must be positive, got {epsilon}")
    if sensitivity < 0:
        raise ValueError("sensitivity must be nonnegative")
    if sensitivity == 0:
        return float(true_answer)
    return float(true_answer + laplace_noise(rng, sensitivity / epsilon))


def laplace_query_mechanism(
    query: Query,
    schema: Sequence[AttributeSchema],
    epsilon: float,
    neighbor_model: str = "add_remove",
    n: int | None = None,
    scale_factor: float = 1.0,
) -> Callable:
    """Vectorized mechanism closure: (table, rng, size=None) -> noisy answer(s).

    scale_factor deliberately mis-scales the noise (for negative controls in
    empirical checks); 1.0 is the honest mechanism.
    """
    if epsilon <= 0:
        raise NonPositiveEpsilon(f"epsilon must be positive, got {epsilon}")
    sens = global_sensitivity(query, schema, neighbor_model, n=n)
    scale = scale_factor * sens / epsilon

    def mechanism(table: MicrodataTable, rng: np.random.Generator, size: int | None = None):
        answer = answer_query(table, query)
        if scale == 0:
            return answer if size is None else np.full(size, answer)
        noise = laplace_noise(rng, scale, size)
        noise += answer  # in place: one array fewer, the same sums
        return noise

    return mechanism


def perfect_secrecy_mechanism(
    query: Query,
    schema: Sequence[AttributeSchema],
    rng: np.random.Generator,
    n: int | None = None,
    size: int | None = None,
):
    """The epsilon = 0 mechanism: output uniform over the query's range,
    independent of the data. Requires a finite output range; count and sum
    ranges treat the record count n as public."""
    if query.kind == "count":
        if n is None:
            raise UnboundedDomain("count range needs the public record count n")
        draws = rng.integers(0, n + 1, size=size)
        return float(draws) if size is None else draws.astype(float)
    dom = _numeric_domain(schema, query.attribute)
    lo, hi = dom.lo, dom.hi
    if query.kind == "sum":
        if n is None:
            raise UnboundedDomain("sum range needs the public record count n")
        lo, hi = n * min(lo, 0.0), n * max(hi, 0.0)
    u = rng.random(size)
    out = lo + (hi - lo) * u
    return float(out) if size is None else out


def perfect_secrecy_query_mechanism(query: Query, schema, n: int | None = None) -> Callable:
    def mechanism(table: MicrodataTable, rng: np.random.Generator, size: int | None = None):
        return perfect_secrecy_mechanism(query, schema, rng, n=n, size=size)

    return mechanism


def dp_microdata_release(table: MicrodataTable, epsilon: float, rng_seed: int) -> AnonymizedRelease:
    """Per-record DP microdata: every released cell gets Laplace noise at
    scale width / (epsilon / #attributes), clamped back into its domain.

    Sequential composition across one record's cells spends the whole budget;
    records are disjoint, so the release is epsilon-DP per record under the
    replace model. All released attributes must be numeric with finite bounds.
    """
    if epsilon <= 0:
        raise NonPositiveEpsilon(f"epsilon must be positive, got {epsilon}")
    released = [a for a in table.schema if a.role != "identifier"]
    if not released:
        raise ValueError("no attributes to release")
    for a in released:
        if not isinstance(a.kind, NumericKind):
            raise UnboundedDomain(
                f"attribute {a.name!r} is not numeric with finite bounds; cannot add calibrated noise"
            )
    eps_cell = epsilon / len(released)
    rng = derive_rng(rng_seed, "noise")
    masked = table.drop_columns(table.identifier_names)
    for a in released:
        kind: NumericKind = a.kind  # type: ignore[assignment]
        col = masked.columns[a.name].astype(float)
        if kind.width == 0:
            continue
        noisy = col + laplace_noise(rng, kind.width / eps_cell, col.size)
        masked = masked.with_column(a.name, np.clip(noisy, kind.lo, kind.hi))
    return AnonymizedRelease(
        table=masked,
        partition=None,
        provenance=Provenance(
            mechanism="dp_microdata",
            params={
                "epsilon": epsilon,
                "epsilon_per_cell": eps_cell,
                "attributes": [a.name for a in released],
            },
            seed=int(rng_seed),
        ),
    )


def metric_dp_mechanism(point, epsilon: float, rng: np.random.Generator):
    """Noise calibrated to distance rather than a global domain bound.

    Scalars get Laplace(1/epsilon); 2-D points get planar Laplace noise with
    density proportional to exp(-epsilon * ||y - x||). Indistinguishability of
    x and x' degrades no faster than exp(epsilon * d(x, x')).
    """
    if epsilon <= 0:
        raise NonPositiveEpsilon(f"epsilon must be positive, got {epsilon}")
    arr = np.asarray(point, dtype=float)
    if arr.ndim == 0:
        return float(arr + laplace_noise(rng, 1.0 / epsilon))
    if arr.shape == (2,):
        # radius ~ Gamma(2, 1/eps) as the sum of two exponentials, angle uniform
        e1, e2 = -np.log(rng.random()), -np.log(rng.random())
        radius = (e1 + e2) / epsilon
        theta = 2.0 * math.pi * rng.random()
        return arr + radius * np.asarray([math.cos(theta), math.sin(theta)])
    raise ValueError("metric DP mechanism supports scalars and 2-D points")


# --------------------------------------------------------------------------
# relaxation conversions
# --------------------------------------------------------------------------


def _check_delta(delta: float):
    if not 0.0 < delta < 1.0:
        raise InvalidDelta(f"delta must be in (0, 1), got {delta}")


def rdp_to_dp(alpha: float, eps_rdp: float, delta: float) -> float:
    """(alpha, eps_rdp) Renyi DP implies (eps_rdp + ln(1/delta)/(alpha-1), delta)-DP."""
    if alpha <= 1.0:
        raise InvalidAlpha(f"alpha must exceed 1, got {alpha}")
    if eps_rdp < 0:
        raise ValueError("Renyi epsilon must be nonnegative")
    _check_delta(delta)
    return eps_rdp + math.log(1.0 / delta) / (alpha - 1.0)


def zcdp_to_dp(rho: float, delta: float) -> float:
    """rho-zCDP implies (rho + 2*sqrt(rho*ln(1/delta)), delta)-DP."""
    if rho <= 0:
        raise InvalidRho(f"rho must be positive, got {rho}")
    _check_delta(delta)
    return rho + 2.0 * math.sqrt(rho * math.log(1.0 / delta))


# --------------------------------------------------------------------------
# neighbor checks and the empirical indistinguishability check
# --------------------------------------------------------------------------


def neighbor_relation(t1: MicrodataTable, t2: MicrodataTable) -> str | None:
    """Classify two tables as add_remove or replace neighbors, else None.
    Tables of the same rows are not neighbors: no check could tell them apart."""
    if t1.names != t2.names:
        return None
    rows1 = Counter(t1.row(i) for i in range(t1.n_rows))
    rows2 = Counter(t2.row(i) for i in range(t2.n_rows))
    if t1.n_rows == t2.n_rows:
        return "replace" if sum((rows1 - rows2).values()) == 1 else None
    small, big = (rows1, rows2) if t1.n_rows < t2.n_rows else (rows2, rows1)
    if sum(big.values()) - sum(small.values()) == 1 and not (small - big):
        return "add_remove"
    return None


def _require_positive_counts(**counts: int):
    for name, value in counts.items():
        if value < 1:
            raise ValueError(f"{name} must be a positive count, got {value}")


def _cumulative_counts(sample: np.ndarray, edges: np.ndarray, buf: np.ndarray, out: np.ndarray) -> None:
    """Add to ``out[j]`` the number of values of ``sample`` below ``edges[j]``,
    or at or below it for the last edge. This is how ``np.histogram`` counts
    with array edges, so ``np.diff(out)`` gives its counts: each block is
    copied into ``buf``, sorted there, and the edges are searched in it."""
    for start in range(0, sample.size, buf.size):
        block = buf[: min(buf.size, sample.size - start)]
        block[...] = sample[start : start + block.size]
        block.sort()
        out[:-1] += block.searchsorted(edges[:-1], "left")
        out[-1] += block.searchsorted(edges[-1], "right")


def _range(sample: np.ndarray, out: np.ndarray) -> None:
    """Write ``sample``'s min and max to ``out``; NaN if it holds a NaN."""
    out[0] = sample.min()
    out[1] = sample.max()


def _two_sample_counts(out1: np.ndarray, out2: np.ndarray, bins: int):
    """``(edges, c1, c2)``: ``bins + 1`` equal-width edges spanning two output
    samples, and each sample's histogram counts over them. The second sample's
    range and counts are taken on a helper thread while the first's are taken
    on this one. A NaN or infinite value in either sample raises ValueError."""
    ranges = np.empty((2, 2))
    _beside(_range, (out2, ranges[1]), (out1, ranges[0]))
    lo, hi = float(ranges[:, 0].min()), float(ranges[:, 1].max())  # numpy's min and max keep a NaN
    if not math.isfinite(hi - lo):  # also an inf or NaN output
        raise ValueError(f"mechanism outputs span [{lo}, {hi}]: histogram edges need a finite range")
    if hi == lo:
        hi = lo + 1.0
    edges = np.linspace(lo, hi, bins + 1)
    cumulative = np.zeros((2, edges.size), np.intp)
    _beside(
        _cumulative_counts,
        (out2.reshape(-1), edges, np.empty(min(out2.size, _BLOCK)), cumulative[1]),
        (out1.reshape(-1), edges, np.empty(min(out1.size, _BLOCK)), cumulative[0]),
    )
    c1, c2 = np.diff(cumulative)
    return edges, c1, c2


@dataclass(frozen=True)
class DpCheckResult:
    passed: bool
    max_log_ratio: float
    epsilon: float
    slack: float
    worst_bin: int
    considered_bins: int
    min_joint_count: int
    per_bin: tuple = field(repr=False, default=())


def empirical_dp_check(
    mechanism: Callable,
    table1: MicrodataTable,
    table2: MicrodataTable,
    epsilon: float,
    bins: int = 64,
    trials: int = 100_000,
    seed: int = 0,
    min_bin_count: int = 25,
) -> DpCheckResult:
    """Histogram two output samples and compare the worst log-density ratio
    against epsilon.

    Only bins holding at least min_bin_count samples from each table are
    considered. Each bin gets a three-sigma sampling allowance on its log ratio
    (sigma^2 about 1/c1 + 1/c2); PASS means at least one bin is considered and
    no bin exceeds epsilon beyond its allowance. Outputs that share no
    well-filled bin, as noiseless or badly under-noised answers do, FAIL. The
    reported slack is the global 3*sqrt(1/min joint count). A bins, trials or
    min_bin_count below 1, or a sample with a non-finite output, raises
    ValueError.
    """
    if epsilon <= 0:
        raise NonPositiveEpsilon(f"epsilon must be positive, got {epsilon}")
    _require_positive_counts(bins=bins, trials=trials, min_bin_count=min_bin_count)
    if neighbor_relation(table1, table2) is None:
        raise NotNeighbors("empirical check requires neighboring tables")
    rng1 = derive_rng(seed, "trial", 1)
    rng2 = derive_rng(seed, "trial", 2)
    out1 = np.asarray(mechanism(table1, rng1, trials), dtype=float)
    out2 = np.asarray(mechanism(table2, rng2, trials), dtype=float)
    _, c1, c2 = _two_sample_counts(out1, out2, bins)

    considered = np.where((c1 >= min_bin_count) & (c2 >= min_bin_count))[0]
    per_bin = []
    passed = considered.size > 0  # no shared bin is no evidence of indistinguishability
    max_ratio = 0.0
    worst_bin = -1
    for b in considered:
        ratio = abs(math.log(c1[b] / c2[b]))
        allowance = 3.0 * math.sqrt(1.0 / c1[b] + 1.0 / c2[b])
        per_bin.append((int(b), ratio, allowance))
        if ratio > max_ratio:
            max_ratio = ratio
            worst_bin = int(b)
        if ratio > epsilon + allowance:
            passed = False
    min_joint = int(min(min(c1[b], c2[b]) for b in considered)) if considered.size else 0
    slack = 3.0 * math.sqrt(1.0 / min_joint) if min_joint else math.inf
    return DpCheckResult(
        passed=passed,
        max_log_ratio=max_ratio,
        epsilon=epsilon,
        slack=slack,
        worst_bin=worst_bin,
        considered_bins=int(considered.size),
        min_joint_count=min_joint,
        per_bin=tuple(per_bin),
    )
