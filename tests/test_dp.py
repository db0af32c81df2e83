"""Queries, sensitivities, the Laplace family, secrecy baselines, metric noise,
relaxation conversions, and the empirical indistinguishability check."""

import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdckit import (
    AttributeSchema,
    BudgetLedger,
    CategoricalKind,
    InvalidAlpha,
    InvalidDelta,
    InvalidRho,
    NonPositiveEpsilon,
    NotNeighbors,
    NumericKind,
    Predicate,
    Query,
    UnboundedDomain,
    UnknownAttribute,
    answer_query,
    dp_microdata_release,
    empirical_dp_check,
    global_sensitivity,
    individual_dp_sensitivity,
    laplace_mechanism,
    laplace_noise,
    laplace_query_mechanism,
    metric_dp_mechanism,
    neighbor_relation,
    perfect_secrecy_query_mechanism,
    rdp_to_dp,
    zcdp_to_dp,
)
from sdckit.attacks import membership_inference_attack
from sdckit.dp import _BLOCK, _beside, _bin_counts, _two_samples
from sdckit.microdata import make_table
from sdckit.seeds import derive_rng

SCHEMA = (
    AttributeSchema("v", "confidential", NumericKind(0, 10)),
    AttributeSchema("c", "confidential", CategoricalKind(("x", "y"))),
)


def _table(values, cats=None):
    cats = cats if cats is not None else ["x"] * len(values)
    return make_table(SCHEMA, {"v": [float(v) for v in values], "c": cats})


# -- queries ----------------------------------------------------------------------


def test_predicate_masks():
    t = _table([1, 5, 9], ["x", "y", "x"])
    assert Predicate("v", ">=", 5).mask(t).tolist() == [False, True, True]
    assert Predicate("v", "<=", 5).mask(t).tolist() == [True, True, False]
    assert Predicate("v", "==", 9).mask(t).tolist() == [False, False, True]
    assert Predicate("c", "==", "y").mask(t).tolist() == [False, True, False]
    with pytest.raises(ValueError):
        Predicate("v", "!=", 5)
    with pytest.raises(ValueError):
        Predicate("c", "<=", "y").mask(t)


def test_predicate_mask_of_an_empty_table_is_an_empty_boolean_mask():
    empty = _table([], [])
    for pred in (Predicate("c", "==", "x"), Predicate("v", ">=", 5)):
        mask = pred.mask(empty)
        assert mask.dtype == bool and mask.shape == (0,)
    assert answer_query(empty, Query("count", predicate=Predicate("c", "==", "x"))) == 0.0


def test_query_validation_and_answers():
    t = _table([1, 2, 3, 7])
    assert answer_query(t, Query("count")) == 4.0
    assert answer_query(t, Query("count", predicate=Predicate("v", ">=", 3))) == 2.0
    assert answer_query(t, Query("sum", "v")) == 13.0
    assert answer_query(t, Query("mean", "v")) == pytest.approx(3.25)
    assert answer_query(t, Query("max", "v")) == 7.0
    assert answer_query(t, Query("identity", "v", row_index=2)) == 3.0
    with pytest.raises(ValueError):
        Query("median", "v")
    with pytest.raises(ValueError):
        Query("sum")
    with pytest.raises(ValueError):
        Query("identity", "v")
    assert Query("count", predicate=Predicate("v", ">=", 3)).describe() == "count:v>=3"


@pytest.mark.parametrize("row_index", [-1, 1.0, True, False, "1", np.float64(1.0)])
def test_identity_query_rejects_a_row_index_that_is_not_a_nonnegative_int(row_index):
    with pytest.raises(ValueError, match="row_index"):
        Query("identity", "v", row_index=row_index)


def test_identity_query_reads_a_row_of_the_table_or_raises():
    t = _table([1, 2, 9])
    for index in (0, 2, np.int64(2)):
        q = Query("identity", "v", row_index=index)
        assert answer_query(t, q) == float(t.columns["v"][index])
        assert individual_dp_sensitivity(q, t) == max(answer_query(t, q), 10 - answer_query(t, q))
    for table, index in ((t, 3), (t, 100), (_table([]), 0)):
        q = Query("identity", "v", row_index=index)
        with pytest.raises(ValueError, match="past the end"):
            answer_query(table, q)
        with pytest.raises(ValueError, match="past the end"):
            individual_dp_sensitivity(q, table)


# -- sensitivities ----------------------------------------------------------------


def test_global_sensitivity_frozen():
    assert global_sensitivity(Query("count"), SCHEMA) == 1.0
    assert global_sensitivity(Query("sum", "v"), SCHEMA, "add_remove") == 10.0
    assert global_sensitivity(Query("sum", "v"), SCHEMA, "replace") == 10.0
    neg = (AttributeSchema("w", "confidential", NumericKind(-4, 2)),)
    assert global_sensitivity(Query("sum", "w"), neg, "add_remove") == 4.0
    assert global_sensitivity(Query("sum", "w"), neg, "replace") == 6.0
    assert global_sensitivity(Query("mean", "v"), SCHEMA, n=5) == 2.0
    assert global_sensitivity(Query("max", "v"), SCHEMA) == 10.0
    assert global_sensitivity(Query("identity", "v", row_index=0), SCHEMA) == 10.0


def test_global_sensitivity_errors():
    with pytest.raises(ValueError):
        global_sensitivity(Query("sum", "v"), SCHEMA, "swap_two")
    with pytest.raises(ValueError):
        global_sensitivity(Query("mean", "v"), SCHEMA)  # n not given
    with pytest.raises(UnboundedDomain):
        global_sensitivity(Query("sum", "c"), SCHEMA)
    with pytest.raises(UnknownAttribute):
        global_sensitivity(Query("sum", "nope"), SCHEMA)


def test_individual_sensitivity_frozen():
    t = _table([1, 2, 3, 7])
    assert individual_dp_sensitivity(Query("count"), t) == 1.0
    assert individual_dp_sensitivity(Query("sum", "v"), t, "add_remove") == 7.0
    assert individual_dp_sensitivity(Query("sum", "v"), t, "replace") == 9.0
    # mean 3.25; farthest value 7 leaves a gap of 3.75 spread over n-1 = 3 rows
    assert individual_dp_sensitivity(Query("mean", "v"), t, "add_remove") == pytest.approx(1.25)
    assert individual_dp_sensitivity(Query("max", "v"), t, "add_remove") == 4.0  # 7 - 3
    assert individual_dp_sensitivity(Query("max", "v"), t, "replace") == 4.0  # max(10-7, 7-3)
    assert individual_dp_sensitivity(Query("identity", "v", row_index=3), t) == 7.0


@settings(max_examples=40, deadline=None)
@given(
    values=st.lists(st.floats(0, 10, allow_nan=False), min_size=1, max_size=15),
    kind=st.sampled_from(["sum", "mean", "max"]),
    model=st.sampled_from(["add_remove", "replace"]),
)
def test_individual_never_exceeds_global(values, kind, model):
    t = _table(values)
    q = Query(kind, "v")
    individual = individual_dp_sensitivity(q, t, model)
    global_bound = global_sensitivity(q, SCHEMA, model, n=len(values))
    assert individual <= global_bound + 1e-12


# -- Laplace family ---------------------------------------------------------------


def test_laplace_noise_is_deterministic_and_distributed():
    a = laplace_noise(derive_rng(5, "noise"), 2.0, 200_000)
    b = laplace_noise(derive_rng(5, "noise"), 2.0, 200_000)
    assert np.array_equal(a, b)
    assert abs(a.mean()) < 0.02
    assert np.median(np.abs(a)) == pytest.approx(2.0 * math.log(2.0), rel=0.02)
    assert a.var() == pytest.approx(8.0, rel=0.05)  # 2 * scale^2


def _one_shot_laplace(rng, scale, size=None):
    """The sampler's formula applied to the whole draw at once: the oracle
    for the blocked transform."""
    u = rng.random(size) - 0.5
    return -scale * np.sign(u) * np.log1p(-2.0 * np.abs(u))


@pytest.mark.parametrize(
    "size",
    [
        None, (), 0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7, (7, 5), (3, _BLOCK + 2),
        # from four blocks up the upper half is drawn and transformed on a helper thread
        4 * _BLOCK - 1, 4 * _BLOCK, 4 * _BLOCK + 1, 1_000_003, (3, 2 * _BLOCK + 5),
    ],
)
@pytest.mark.parametrize("scale", [1.0, 0.37, 25.0, 1e-12, 0.0])
def test_blocked_laplace_noise_matches_the_one_shot_formula_bit_for_bit(size, scale):
    got = laplace_noise(derive_rng(9, "noise"), scale, size)
    want = _one_shot_laplace(derive_rng(9, "noise"), scale, size)
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


# PCG64's multiplier: each double advances the 128-bit state by
# s -> s * _PCG64_MULT + inc (mod 2**128) and is read off the new state
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _zero_at(p):
    """A real PCG64 stream, with ``derive_rng(9, "noise")``'s increment,
    whose ``p``-th uniform is 0.0. State 0 outputs 0, so the state one step
    before it, ``(0 - inc) / _PCG64_MULT``, draws 0.0 next; moving that state
    back ``p`` steps (forward ``2**128 - p``) puts the zero at position p."""
    state = derive_rng(9, "noise").bit_generator.state
    state["state"]["state"] = -state["state"]["inc"] * pow(_PCG64_MULT, -1, 2**128) % 2**128
    bit_generator = np.random.PCG64()
    bit_generator.state = state
    bit_generator.advance(2**128 - p)
    return np.random.Generator(bit_generator)


def test_a_zero_uniform_gives_a_finite_draw_and_leaves_every_other_draw_alone():
    size = 4 * _BLOCK + 9  # split at 3 * _BLOCK: the upper half is drawn on the helper thread
    scale = 2.0
    # the clamp: |u| = 0.5 - 2**-53, the largest any other uniform gives
    edge = -scale * math.log1p(-1.0 + 2.0**-52)
    for p in (0, 3 * _BLOCK + 5, size - 1):
        assert _zero_at(p).random(size)[p] == 0.0
        got = laplace_noise(_zero_at(p), scale, size)
        assert np.isfinite(got).all()
        assert got[p] == -edge
        with np.errstate(divide="ignore"):  # the unclamped formula is infinite at p
            want = _one_shot_laplace(_zero_at(p), scale, size)
        rest = np.arange(size) != p
        assert got[rest].tobytes() == want[rest].tobytes()
    scalar = laplace_noise(_zero_at(0), scale)
    assert type(scalar) is np.float64 and scalar == -edge


@pytest.mark.parametrize(
    "size",
    [
        4 * _BLOCK - 1, 4 * _BLOCK, 4 * _BLOCK + 1, 1_000_003, (3, 2 * _BLOCK + 5),
        # one-thread draws, which fill their blocks with random(out=) too
        None, 1, _BLOCK + 1, 3 * _BLOCK + 7,
    ],
)
@pytest.mark.parametrize("cached_half", [False, True], ids=["fresh", "has_uint32"])
def test_laplace_noise_leaves_the_stream_where_one_random_call_would(size, cached_half):
    rng, twin = derive_rng(9, "noise"), derive_rng(9, "noise")
    if cached_half:  # a 32-bit draw caches the other half of its 64-bit step
        for g in (rng, twin):
            g.integers(0, 2**32, dtype=np.uint32)
        assert rng.bit_generator.state["has_uint32"] == 1
    assert laplace_noise(rng, 2.0, size).tobytes() == _one_shot_laplace(twin, 2.0, size).tobytes()
    assert rng.bit_generator.state == twin.bit_generator.state
    assert rng.integers(0, 2**32, dtype=np.uint32) == twin.integers(0, 2**32, dtype=np.uint32)
    assert rng.random() == twin.random()


@pytest.mark.parametrize("size", [4 * _BLOCK, 1_000_003, 3 * _BLOCK + 7])
def test_laplace_noise_from_another_bit_generator_matches_the_one_shot_formula(size):
    def mt():
        return np.random.Generator(np.random.MT19937(7))

    rng, twin = mt(), mt()
    assert laplace_noise(rng, 0.37, size).tobytes() == _one_shot_laplace(twin, 0.37, size).tobytes()
    assert rng.random() == twin.random()


@pytest.mark.parametrize("size", [None, 10, 4 * _BLOCK])
@pytest.mark.parametrize("scale", [-1.0, -1e-300, math.nan])
def test_laplace_noise_rejects_a_negative_or_nan_scale(size, scale):
    with pytest.raises(ValueError, match="scale"):
        laplace_noise(derive_rng(9, "noise"), scale, size)


@pytest.mark.parametrize("size", [None, 10, 4 * _BLOCK])
def test_laplace_noise_rejects_an_infinite_scale_and_a_non_finite_loc(size):
    with pytest.raises(ValueError, match="scale"):
        laplace_noise(derive_rng(9, "noise"), math.inf, size)
    for loc in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="loc"):
            laplace_noise(derive_rng(9, "noise"), 1.0, size, loc=loc)


@pytest.mark.parametrize("scale_factor", [math.inf, math.nan, -1.0])
def test_laplace_query_mechanism_rejects_a_bad_scale_factor_when_built(scale_factor):
    with pytest.raises(ValueError, match="scale_factor"):
        laplace_query_mechanism(Query("count"), SCHEMA, 1.0, scale_factor=scale_factor)


@pytest.mark.parametrize("size", [None, 4 * _BLOCK - 1, 4 * _BLOCK + 1, 1_000_003])
@pytest.mark.parametrize("loc", [0.0, -0.0, -3.5, 1e300])
@pytest.mark.parametrize("stream", ["pcg64", "mt19937"])
def test_laplace_noise_adds_loc_in_its_block_loop_as_a_second_pass_would(size, loc, stream):
    def generator():
        if stream == "pcg64":
            return derive_rng(9, "noise")
        return np.random.Generator(np.random.MT19937(7))

    rng, twin = generator(), generator()
    got = laplace_noise(rng, 0.37, size, loc=loc)
    want = laplace_noise(twin, 0.37, size) + loc
    assert type(got) is type(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    # an MT19937 state holds an array: compare where both streams go next
    assert rng.bit_generator.random_raw(16).tobytes() == twin.bit_generator.random_raw(16).tobytes()


@pytest.mark.parametrize("size", [None, 10])
def test_laplace_noise_needs_a_generator(size):
    with pytest.raises(TypeError, match="Generator"):
        laplace_noise(np.random.RandomState(9), 1.0, size)


def test_beside_reraises_the_helpers_exception_after_joining_it():
    ran = []

    def fn(name):
        ran.append((name, threading.current_thread()))
        if name == "helper":
            raise KeyError("helper failed")

    with pytest.raises(KeyError, match="helper failed"):
        _beside(fn, ("helper",), ("own",))
    threads = dict(ran)
    assert sorted(threads) == ["helper", "own"]
    assert threads["own"] is threading.current_thread()
    assert threads["helper"] is not threads["own"] and not threads["helper"].is_alive()


@pytest.mark.skipif(
    np.lib.NumpyVersion(np.__version__) < "2.0.0",
    reason="np.errstate is thread-local, not a context variable, before numpy 2.0",
)
def test_beside_runs_the_helper_under_the_callers_errstate():
    def log(part):
        np.log(part, out=part)

    def log_with_a_zero_in_the_helpers_half():
        x = np.ones(8)
        x[6] = 0.0
        _beside(log, (x[4:],), (x[:4],))
        return x

    with np.errstate(divide="raise"), pytest.raises(FloatingPointError):
        log_with_a_zero_in_the_helpers_half()
    with np.errstate(divide="ignore"):
        assert log_with_a_zero_in_the_helpers_half()[6] == -math.inf


def _edge_values(lo, hi):
    """Every edge of the 64 equal-width bins over [lo, hi] and the doubles
    just either side of each, inside [lo, hi]."""
    edges = np.linspace(lo, hi, 65)
    return np.concatenate([edges, np.nextafter(edges[1:], -np.inf), np.nextafter(edges[:-1], np.inf)])


def _on_and_around_edges(size, seed):
    """A shuffled sample of ``size`` values spanning [-3, 5]: every edge of the
    equal-width bins over that range, the doubles just either side of each,
    and uniform values between."""
    special = _edge_values(-3.0, 5.0)
    rng = np.random.default_rng(seed)
    sample = rng.uniform(-3.0, 5.0, size)
    sample[: min(size, special.size)] = special[:size]
    sample[[0, -1]] = -3.0, 5.0  # both ends, so the edges span [-3, 5]
    rng.shuffle(sample)
    return sample


def _assert_sorted_run_by_run(sample, output):
    """Every run of ``_BLOCK`` values of ``sample`` ascends, and ``sample``
    holds the values of ``output``, each as often."""
    for start in range(0, sample.size, _BLOCK):
        run = sample[start : start + _BLOCK]
        assert (run[1:] >= run[:-1]).all()
    assert np.array_equal(np.sort(sample), np.sort(np.asarray(output).reshape(-1)))


@pytest.mark.parametrize("size", [200, 65_535, 65_536, 65_537, 200_003])
def test_two_sample_counts_equal_numpys_histogram(size):
    outputs = {1: _on_and_around_edges(size, 1), 2: _on_and_around_edges(size, 2)}

    def mechanism(table, rng, n):  # a copy, so the check's in-place sort leaves the oracle's sample alone
        assert n == size
        return outputs[table].copy()

    out1, out2, edges = _two_samples(mechanism, 1, 2, None, None, size, 64)
    assert edges.tobytes() == np.linspace(-3.0, 5.0, 65).tobytes()
    for sample, table in ((out1, 1), (out2, 2)):
        _assert_sorted_run_by_run(sample, outputs[table])
        counts = _bin_counts(sample, edges)
        want = np.histogram(outputs[table], bins=edges)[0]
        assert counts.dtype == want.dtype
        assert np.array_equal(counts, want)
        assert counts.sum() == size


def _edges_in_every_run(size, seed):
    """A sample of ``size`` values spanning [-3, 5]: ``_edge_values``,
    shuffled and set at evenly spaced places, so that every run of ``_BLOCK``
    values holds some of them, and uniform values between."""
    special = _edge_values(-3.0, 5.0)
    rng = np.random.default_rng(seed)
    rng.shuffle(special)
    sample = rng.uniform(-3.0, 5.0, size)
    sample[np.linspace(0, size - 1, special.size).astype(np.intp)] = special
    sample[[1, -2]] = -3.0, 5.0  # both ends, in the first and the last run
    return sample


@pytest.mark.parametrize("size", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5, 1_000_000])
def test_run_sorted_counts_equal_numpys_histogram_across_run_boundaries(size):
    outputs = {1: _edges_in_every_run(size, 1), 2: _edges_in_every_run(size, 2)}
    for output in outputs.values():
        on_or_by_an_edge = np.isin(output, _edge_values(-3.0, 5.0))
        assert all(on_or_by_an_edge[start : start + _BLOCK].any() for start in range(0, size, _BLOCK))

    def mechanism(table, rng, n):
        assert n == size
        return outputs[table].copy()

    out1, out2, edges = _two_samples(mechanism, 1, 2, None, None, size, 64)
    both = np.concatenate([outputs[1], outputs[2]])
    assert edges.tobytes() == np.histogram_bin_edges(both, 64).tobytes()
    for sample, table in ((out1, 1), (out2, 2)):
        _assert_sorted_run_by_run(sample, outputs[table])
        counts = _bin_counts(sample, edges)
        want = np.histogram(outputs[table], bins=edges)[0]
        assert counts.dtype == want.dtype
        assert np.array_equal(counts, want)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("table", [1, 2])
def test_a_non_finite_output_in_a_middle_run_of_either_sample_raises(bad, table):
    size = 3 * _BLOCK + 5

    def mechanism(t, rng, n):
        out = np.random.default_rng(t).uniform(-1.0, 1.0, n)
        if t == table:
            out[_BLOCK + _BLOCK // 2] = bad  # in the second of four runs
        return out

    with pytest.raises(ValueError, match="finite range"):
        _two_samples(mechanism, 1, 2, None, None, size, 64)


@pytest.mark.parametrize("size", [None, 100_000])
@pytest.mark.parametrize("query", [Query("count", predicate=Predicate("v", ">=", 5.0)), Query("sum", "v")])
def test_laplace_query_mechanism_adds_the_one_shot_noise(size, query):
    t = _table([1, 2, 3, 7])
    eps = 0.5
    mech = laplace_query_mechanism(query, SCHEMA, eps)
    got = mech(t, derive_rng(6, "noise"), size)
    scale = global_sensitivity(query, SCHEMA) / eps
    want = answer_query(t, query) + _one_shot_laplace(derive_rng(6, "noise"), scale, size)
    assert type(got) is type(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_laplace_mechanism_edges():
    rng = derive_rng(0, "noise")
    assert laplace_mechanism(4.2, 0.0, 1.0, rng) == 4.2
    with pytest.raises(NonPositiveEpsilon):
        laplace_mechanism(1.0, 1.0, 0.0, rng)
    with pytest.raises(ValueError):
        laplace_mechanism(1.0, -1.0, 1.0, rng)


def test_laplace_query_mechanism_closure():
    t = _table([1, 2, 3, 7])
    mech = laplace_query_mechanism(Query("count"), SCHEMA, epsilon=1.0)
    one = mech(t, derive_rng(3, "noise"))
    again = mech(t, derive_rng(3, "noise"))
    many = mech(t, derive_rng(3, "noise"), size=10)
    assert one == again
    assert isinstance(one, float)
    assert many.shape == (10,)
    assert many[0] == pytest.approx(one)
    with pytest.raises(NonPositiveEpsilon):
        laplace_query_mechanism(Query("count"), SCHEMA, epsilon=-1.0)


# the half-scale count, whose true loss is twice any finite epsilon
_HALF_SCALE_COUNT = laplace_query_mechanism(
    Query("count", predicate=Predicate("v", ">=", 5.0)), SCHEMA, 1.0, scale_factor=0.5
)

_EPSILON_ENTRY_POINTS = {
    "laplace_mechanism": lambda eps: laplace_mechanism(1.0, 1.0, eps, derive_rng(0, "noise")),
    "laplace_query_mechanism": lambda eps: laplace_query_mechanism(Query("count"), SCHEMA, eps),
    "metric_dp_mechanism": lambda eps: metric_dp_mechanism(3.0, eps, derive_rng(0, "noise")),
    "dp_microdata_release": lambda eps: dp_microdata_release(make_table(SCHEMA[:1], {"v": [1.0, 2.0]}), eps, 0),
    "empirical_dp_check": lambda eps: empirical_dp_check(
        _HALF_SCALE_COUNT, _table([1, 2, 3, 7]), _table([1, 2, 3]), eps, trials=1000
    ),
    "record_dp": lambda eps: BudgetLedger().record_dp("q", eps),
}


@pytest.mark.parametrize("epsilon", [0.0, -0.0, -1.0, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entry_point", sorted(_EPSILON_ENTRY_POINTS))
def test_every_dp_entry_point_rejects_an_epsilon_that_is_not_positive_and_finite(entry_point, epsilon):
    # an infinite epsilon once released exact answers, and a NaN or infinite
    # one PASSed the half-scale count in the empirical check
    with pytest.raises(NonPositiveEpsilon, match="positive and finite"):
        _EPSILON_ENTRY_POINTS[entry_point](epsilon)


def test_perfect_secrecy_ignores_the_data():
    t1 = _table([1, 2, 3, 7])
    t2 = _table([9, 9, 9, 9])
    mech = perfect_secrecy_query_mechanism(Query("count"), SCHEMA, n=4)
    out1 = mech(t1, derive_rng(8, "noise"), size=1000)
    out2 = mech(t2, derive_rng(8, "noise"), size=1000)
    assert np.array_equal(out1, out2)  # same seed, different data, same output
    assert out1.min() >= 0.0 and out1.max() <= 4.0
    assert np.array_equal(out1, np.round(out1))  # counts stay integral

    smech = perfect_secrecy_query_mechanism(Query("sum", "v"), SCHEMA, n=4)
    souts = smech(t1, derive_rng(8, "noise"), size=1000)
    assert souts.min() >= 0.0 and souts.max() <= 40.0
    with pytest.raises(UnboundedDomain):
        perfect_secrecy_query_mechanism(Query("count"), SCHEMA)(t1, derive_rng(0, "noise"))


# -- DP microdata -----------------------------------------------------------------


def test_dp_microdata_release_clamps_and_documents():
    schema = (
        AttributeSchema("pid", "identifier", CategoricalKind(("p0", "p1", "p2"))),
        AttributeSchema("v", "quasi_identifier", NumericKind(0, 10)),
        AttributeSchema("w", "confidential", NumericKind(-1, 1)),
    )
    t = make_table(schema, {"pid": ["p0", "p1", "p2"], "v": [0.0, 5.0, 10.0], "w": [-1.0, 0.0, 1.0]})
    release = dp_microdata_release(t, epsilon=0.5, rng_seed=7)
    assert "pid" not in release.table.names
    assert release.table.columns["v"].min() >= 0.0
    assert release.table.columns["v"].max() <= 10.0
    assert release.table.columns["w"].min() >= -1.0
    assert release.provenance.mechanism == "dp_microdata"
    assert release.provenance.params["epsilon_per_cell"] == pytest.approx(0.25)
    assert release.provenance.params["attributes"] == ["v", "w"]

    again = dp_microdata_release(t, epsilon=0.5, rng_seed=7)
    assert release.table.equals(again.table)
    other = dp_microdata_release(t, epsilon=0.5, rng_seed=8)
    assert not release.table.equals(other.table)


def test_dp_microdata_release_large_epsilon_barely_moves():
    schema = (AttributeSchema("v", "quasi_identifier", NumericKind(0, 10)),)
    t = make_table(schema, {"v": [2.0, 5.0, 8.0]})
    release = dp_microdata_release(t, epsilon=1e6, rng_seed=0)
    assert np.allclose(release.table.columns["v"], t.columns["v"], atol=1e-3)


def test_dp_microdata_release_rejects_bad_inputs():
    t = _table([1.0, 2.0])
    with pytest.raises(NonPositiveEpsilon):
        dp_microdata_release(t, epsilon=0.0, rng_seed=0)
    with pytest.raises(UnboundedDomain):
        dp_microdata_release(t, epsilon=1.0, rng_seed=0)  # categorical column c

    degenerate = (AttributeSchema("z", "quasi_identifier", NumericKind(5, 5)),)
    dt = make_table(degenerate, {"z": [5.0, 5.0]})
    out = dp_microdata_release(dt, epsilon=1.0, rng_seed=0)
    assert np.array_equal(out.table.columns["z"], dt.columns["z"])  # zero width: nothing to hide


# -- metric DP --------------------------------------------------------------------


def test_metric_dp_mechanism_shapes_and_determinism():
    x = metric_dp_mechanism(3.0, 2.0, derive_rng(1, "noise"))
    y = metric_dp_mechanism(3.0, 2.0, derive_rng(1, "noise"))
    assert x == y
    pt = metric_dp_mechanism([0.0, 0.0], 2.0, derive_rng(1, "noise"))
    assert np.asarray(pt).shape == (2,)
    with pytest.raises(NonPositiveEpsilon):
        metric_dp_mechanism(0.0, 0.0, derive_rng(0, "noise"))
    with pytest.raises(ValueError):
        metric_dp_mechanism([0.0, 0.0, 0.0], 1.0, derive_rng(0, "noise"))


def test_metric_dp_planar_radius_distribution():
    rng = derive_rng(2, "noise")
    eps = 2.0
    radii = [float(np.linalg.norm(metric_dp_mechanism([0.0, 0.0], eps, rng))) for _ in range(20_000)]
    # planar noise radius is Gamma(2, 1/eps): mean 2/eps
    assert np.mean(radii) == pytest.approx(2.0 / eps, rel=0.03)


@pytest.mark.parametrize("p", [0, 1])
def test_metric_dp_planar_point_is_finite_when_a_radius_uniform_is_zero(p):
    # the radius is -log(1 - u0) - log(1 - u1) over eps: a zero uniform adds
    # nothing, where -log(u) would be infinite (an error under the suite's filter)
    u = _zero_at(p).random(3)
    assert u[p] == 0.0
    eps = 2.0
    point = metric_dp_mechanism([0.0, 0.0], eps, _zero_at(p))
    assert np.isfinite(point).all()
    radius = -(math.log1p(-u[0]) + math.log1p(-u[1])) / eps
    assert np.linalg.norm(point) == pytest.approx(radius, rel=1e-12)
    assert math.atan2(point[1], point[0]) % (2 * math.pi) == pytest.approx(2 * math.pi * u[2], rel=1e-12)


# -- relaxation conversions -------------------------------------------------------


def test_rdp_and_zcdp_conversions_frozen():
    assert rdp_to_dp(2.0, 1.0, 1e-6) == pytest.approx(1.0 + math.log(1e6), abs=1e-12)
    assert rdp_to_dp(2.0, 1.0, 1e-6) == pytest.approx(14.815510557964274, abs=1e-12)
    assert zcdp_to_dp(0.1, 1e-6) == pytest.approx(
        0.1 + 2.0 * math.sqrt(0.1 * math.log(1e6)), abs=1e-12
    )
    assert zcdp_to_dp(0.1, 1e-6) == pytest.approx(2.4507880004767997, abs=1e-9)


def test_conversion_monotonicity_and_errors():
    assert rdp_to_dp(2.0, 1.0, 1e-9) > rdp_to_dp(2.0, 1.0, 1e-3)  # tighter delta costs more
    assert rdp_to_dp(10.0, 1.0, 1e-6) < rdp_to_dp(2.0, 1.0, 1e-6)
    assert zcdp_to_dp(0.2, 1e-6) > zcdp_to_dp(0.1, 1e-6)
    with pytest.raises(InvalidAlpha):
        rdp_to_dp(1.0, 1.0, 1e-6)
    with pytest.raises(ValueError):
        rdp_to_dp(2.0, -0.1, 1e-6)
    with pytest.raises(InvalidDelta):
        rdp_to_dp(2.0, 1.0, 0.0)
    with pytest.raises(InvalidRho):
        zcdp_to_dp(0.0, 1e-6)
    with pytest.raises(InvalidDelta):
        zcdp_to_dp(0.1, 1.5)


# -- neighbors and the empirical check ---------------------------------------------


def test_neighbor_relation():
    base = _table([1, 2, 3, 7])
    assert neighbor_relation(base, _table([1, 2, 3])) == "add_remove"
    assert neighbor_relation(base, _table([1, 2, 3, 9])) == "replace"
    assert neighbor_relation(base, base) is None  # identical tables show nothing
    assert neighbor_relation(base, _table([1, 2])) is None
    assert neighbor_relation(base, _table([1, 9, 9, 9])) is None  # two rows differ
    other_schema = (AttributeSchema("u", "confidential", NumericKind(0, 10)),)
    assert neighbor_relation(base, make_table(other_schema, {"u": [1.0, 2.0, 3.0, 7.0]})) is None


def test_empirical_dp_check_accepts_honest_mechanisms():
    t1 = _table([1, 2, 3, 7])
    t2 = _table([1, 2, 3])
    q = Query("count", predicate=Predicate("v", ">=", 5.0))
    for eps in (0.5, 1.0):
        mech = laplace_query_mechanism(q, SCHEMA, eps)
        result = empirical_dp_check(mech, t1, t2, eps, trials=100_000, seed=11)
        assert result.passed
        assert result.considered_bins > 10
        assert result.min_joint_count >= 25


def test_empirical_dp_check_flags_underscaled_noise():
    t1 = _table([1, 2, 3, 7])
    t2 = _table([1, 2, 3])
    q = Query("count", predicate=Predicate("v", ">=", 5.0))
    broken = laplace_query_mechanism(q, SCHEMA, 0.5, scale_factor=0.5)
    result = empirical_dp_check(broken, t1, t2, 0.5, trials=100_000, seed=11)
    assert not result.passed
    assert result.max_log_ratio > 0.5


def test_empirical_dp_check_fails_when_no_bin_is_shared():
    # noiseless and nearly noiseless sums put the two outputs in disjoint
    # bins, so no bin is considered: that is no evidence of indistinguishability
    t1 = _table([1, 2, 3, 7])
    t2 = _table([1, 2, 3])
    q = Query("sum", "v")
    for factor in (0.0, 0.001):
        broken = laplace_query_mechanism(q, SCHEMA, 1.0, scale_factor=factor)
        result = empirical_dp_check(broken, t1, t2, 1.0, trials=100_000, seed=11)
        assert result.considered_bins == 0
        assert not result.passed
    honest = laplace_query_mechanism(q, SCHEMA, 1.0)
    assert empirical_dp_check(honest, t1, t2, 1.0, trials=100_000, seed=11).passed


def test_empirical_dp_check_gates():
    t1 = _table([1, 2, 3, 7])
    q = Query("count")
    mech = laplace_query_mechanism(q, SCHEMA, 1.0)
    with pytest.raises(NotNeighbors):
        empirical_dp_check(mech, t1, _table([1, 2]), 1.0, trials=100)
    with pytest.raises(NonPositiveEpsilon):
        empirical_dp_check(mech, t1, _table([1, 2, 3]), 0.0, trials=100)


def test_identical_tables_are_not_neighbors():
    t = _table([1, 2, 3, 7])
    mech = laplace_query_mechanism(Query("count"), SCHEMA, 1.0)
    for same in (t, _table([1, 2, 3, 7]), _table([7, 3, 2, 1])):  # itself, a copy, reordered
        assert neighbor_relation(t, same) is None
        with pytest.raises(NotNeighbors):
            empirical_dp_check(mech, t, same, 1.0, trials=100)
        with pytest.raises(NotNeighbors):
            membership_inference_attack(mech, t, same, trials=100, calibration=100)


def test_empirical_dp_check_rejects_non_positive_counts():
    t1, t2 = _table([1, 2, 3, 7]), _table([1, 2, 3])
    mech = laplace_query_mechanism(Query("count"), SCHEMA, 1.0)
    for bad in ({"trials": 0}, {"bins": 0}, {"min_bin_count": 0}, {"trials": -5}):
        (name,) = bad
        with pytest.raises(ValueError, match=name):
            empirical_dp_check(mech, t1, t2, 1.0, **{"trials": 100, **bad})


def test_membership_attack_rejects_non_positive_counts():
    t1, t2 = _table([1, 2, 3, 7]), _table([1, 2, 3])
    mech = laplace_query_mechanism(Query("count"), SCHEMA, 1.0)
    for bad in ({"trials": 0}, {"calibration": 0}, {"bins": 0}):
        (name,) = bad
        with pytest.raises(ValueError, match=name):
            membership_inference_attack(mech, t1, t2, **{"trials": 100, "calibration": 100, **bad})


def _with_outputs(*values):
    """A mechanism whose first outputs are the given values, then zeros."""

    def mechanism(table, rng, size=None):
        out = np.zeros(size)
        out[: len(values)] = values
        return out

    return mechanism


@pytest.mark.parametrize("values", [(math.inf,), (-math.inf,), (math.nan,), (1.0, math.inf), (-1e308, 1e308)])
def test_dp_audit_rejects_non_finite_outputs(values):
    t1, t2 = _table([1, 2, 3, 7]), _table([1, 2, 3])
    mech = _with_outputs(*values)
    with pytest.raises(ValueError, match="finite"):
        empirical_dp_check(mech, t1, t2, 1.0, trials=100)
    with pytest.raises(ValueError, match="finite"):
        membership_inference_attack(mech, t1, t2, trials=100, calibration=100)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_dp_audit_rejects_a_non_finite_output_of_either_table_in_either_order(bad):
    small, large = _table([1, 2, 3]), _table([1, 2, 3, 7])

    def mechanism(table, rng, size=None):  # the bad value comes from the larger table alone
        out = rng.uniform(-1.0, 1.0, size)
        if table.n_rows == 4:
            out[size // 2] = bad
        return out

    for t1, t2 in ((small, large), (large, small)):
        with pytest.raises(ValueError, match="finite range"):
            empirical_dp_check(mechanism, t1, t2, 1.0, trials=100)
        with pytest.raises(ValueError, match="finite range"):
            membership_inference_attack(mechanism, t1, t2, trials=100, calibration=100)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("stream", [2, 3], ids=["with", "without"])
def test_membership_attack_rejects_a_non_finite_evaluation_output(bad, stream):
    # the calibration outputs are finite; half of one evaluation sample is not
    bad_stream = _stream_state(0, "attack", stream)

    def mechanism(table, rng, size=None):
        poisoned = _stream_state_of(rng) == bad_stream
        out = rng.uniform(-1.0, 1.0, size)
        if poisoned:
            out[::2] = bad
        return out

    with pytest.raises(ValueError, match="finite range"):
        membership_inference_attack(mechanism, _table([1, 2, 3, 7]), _table([1, 2, 3]), trials=100, calibration=100)


def _stream_state(seed, *path):
    return _stream_state_of(derive_rng(seed, *path))


def _stream_state_of(rng):
    return rng.bit_generator.state["state"]["state"]


def _recording(mechanism):
    """``mechanism`` and the list of its calls: the table, the state of the
    stream it was handed, and the thread it ran on."""
    calls = []

    def recorded(table, rng, size=None):
        calls.append((table, _stream_state_of(rng), threading.current_thread()))
        return mechanism(table, rng, size)

    return recorded, calls


def _assert_called_once_per_table_per_pair(calls, pairs):
    """``pairs`` lists (table1, stream1, table2, stream2) per pair of samples:
    each table is called once with its own stream, table1 first, all on this
    thread."""
    want = []
    for table1, stream1, table2, stream2 in pairs:
        want += [(id(table1), stream1), (id(table2), stream2)]
    assert [(id(table), stream) for table, stream, _ in calls] == want
    assert all(thread is threading.current_thread() for _, _, thread in calls)


_ORACLE_QUERIES = [Query("count", predicate=Predicate("v", ">=", 5.0)), Query("sum", "v")]


@pytest.mark.parametrize("seed", [0, 11])
@pytest.mark.parametrize("query", _ORACLE_QUERIES, ids=["count", "sum"])
def test_empirical_dp_check_equals_a_one_thread_histogram_oracle(query, seed):
    t1, t2 = _table([1, 2, 3, 7]), _table([1, 2, 3])
    eps, bins, trials, min_bin_count = 1.0, 64, 50_000, 25
    mech = laplace_query_mechanism(query, SCHEMA, eps)
    recorded, calls = _recording(mech)
    got = empirical_dp_check(recorded, t1, t2, eps, bins=bins, trials=trials, seed=seed)
    _assert_called_once_per_table_per_pair(
        calls, [(t1, _stream_state(seed, "trial", 1), t2, _stream_state(seed, "trial", 2))]
    )

    # the oracle: both samples drawn one after the other on this thread, binned by np.histogram
    out1 = mech(t1, derive_rng(seed, "trial", 1), trials)
    out2 = mech(t2, derive_rng(seed, "trial", 2), trials)
    edges = np.linspace(min(out1.min(), out2.min()), max(out1.max(), out2.max()), bins + 1)
    c1, c2 = np.histogram(out1, edges)[0], np.histogram(out2, edges)[0]
    considered = [b for b in range(bins) if min(c1[b], c2[b]) >= min_bin_count]
    per_bin = tuple((b, abs(math.log(c1[b] / c2[b])), 3.0 * math.sqrt(1.0 / c1[b] + 1.0 / c2[b])) for b in considered)
    ratios = [ratio for _, ratio, _ in per_bin]
    assert got.per_bin == per_bin
    assert got.max_log_ratio == max(ratios)
    assert got.worst_bin == considered[ratios.index(max(ratios))]
    assert got.min_joint_count == min(min(c1[b], c2[b]) for b in considered)
    assert got.passed == all(ratio <= eps + allowance for _, ratio, allowance in per_bin)


@pytest.mark.parametrize("seed", [0, 11])
@pytest.mark.parametrize("query", _ORACLE_QUERIES, ids=["count", "sum"])
def test_membership_attack_equals_a_one_thread_histogram_oracle(query, seed):
    t_with, t_without = _table([1, 2, 3, 7]), _table([1, 2, 3])
    trials, calibration, bins = 20_000, 10_000, 64
    mech = laplace_query_mechanism(query, SCHEMA, 1.0)
    recorded, calls = _recording(mech)
    got = membership_inference_attack(
        recorded, t_with, t_without, trials=trials, calibration=calibration, bins=bins, rng_seed=seed
    )
    streams = [_stream_state(seed, "attack", i) for i in range(4)]
    _assert_called_once_per_table_per_pair(
        calls, [(t_with, streams[0], t_without, streams[1]), (t_with, streams[2], t_without, streams[3])]
    )

    cal_in = mech(t_with, derive_rng(seed, "attack", 0), calibration)
    cal_out = mech(t_without, derive_rng(seed, "attack", 1), calibration)
    ev_in = mech(t_with, derive_rng(seed, "attack", 2), trials)
    ev_out = mech(t_without, derive_rng(seed, "attack", 3), trials)
    edges = np.linspace(min(cal_in.min(), cal_out.min()), max(cal_in.max(), cal_out.max()), bins + 1)
    guess_in = np.histogram(cal_in, edges)[0] >= np.histogram(cal_out, edges)[0]
    # an evaluation output beyond the calibration edges counts in the nearest end bin
    h_in, h_out = (np.histogram(np.clip(ev, edges[0], edges[-1]), edges)[0] for ev in (ev_in, ev_out))
    assert np.clip(ev_in, edges[0], edges[-1]).tobytes() != ev_in.tobytes()  # some are beyond them
    correct = int(h_in[guess_in].sum()) + int(h_out[~guess_in].sum())
    assert got.trials == 2 * trials
    assert got.success_rate == correct / (2 * trials)
    assert got.details["advantage"] == max(0.0, 2.0 * got.success_rate - 1.0)


def test_the_audit_sorts_a_writeable_output_in_place_and_copies_a_read_only_one():
    t1, t2 = _table([1, 2, 3, 7]), _table([1, 2, 3])
    honest = laplace_query_mechanism(Query("sum", "v"), SCHEMA, 1.0)

    def returning(writeable):
        returned = []

        def mechanism(table, rng, size=None):
            out = honest(table, rng, size)
            out.flags.writeable = writeable
            returned.append((out, out.copy()))
            return out

        return mechanism, returned

    frozen, returned = returning(False)
    assert empirical_dp_check(frozen, t1, t2, 1.0, trials=20_000, seed=3) == empirical_dp_check(
        honest, t1, t2, 1.0, trials=20_000, seed=3
    )
    assert membership_inference_attack(frozen, t1, t2, trials=2_000, calibration=2_000) == (
        membership_inference_attack(honest, t1, t2, trials=2_000, calibration=2_000)
    )
    assert len(returned) == 6
    for out, before in returned:
        assert not out.flags.writeable
        assert out.tobytes() == before.tobytes()

    writeable, returned = returning(True)
    empirical_dp_check(writeable, t1, t2, 1.0, trials=20_000, seed=3)
    for out, before in returned:
        assert out.tobytes() == np.sort(before).tobytes()


def test_the_audit_copies_a_view_and_sorts_one_buffer_returned_twice_once_per_thread():
    base = np.arange(12.0)[::-1]
    views = []

    def viewing(table, rng, size=None):  # a view of data the mechanism keeps
        views.append(base[1 : size + 1])
        return views[-1]

    out1, out2, _ = _two_samples(viewing, 1, 2, None, None, 10, 4)
    assert base.tobytes() == np.arange(12.0)[::-1].tobytes()
    assert out1.tobytes() == out2.tobytes() == np.arange(1.0, 11.0).tobytes()
    assert not any(np.shares_memory(out, base) for out in (out1, out2))

    buffer = np.empty(50_000)

    def reusing(table, rng, size=None):  # the same owned buffer, refilled by every call
        buffer[:] = np.random.default_rng(table).uniform(-1.0, 1.0, size)
        return buffer

    out1, out2, _ = _two_samples(reusing, 1, 2, None, None, buffer.size, 4)
    assert out1.tobytes() == out2.tobytes()
    _assert_sorted_run_by_run(out1, np.random.default_rng(2).uniform(-1.0, 1.0, buffer.size))
    assert not np.shares_memory(out1, out2)
