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
from sdckit.dp import _BLOCK, _beside, _two_sample_counts
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
        # from four blocks up the upper half is transformed on a helper thread
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


class _ZerosAt:
    """A generator whose uniforms are a real stream's, except 0.0 at the
    given flat positions (and as the scalar draw)."""

    def __init__(self, positions):
        self.rng = derive_rng(9, "noise")
        self.positions = positions

    def random(self, size=None):
        if size is None:
            return 0.0
        out = self.rng.random(size)
        out.reshape(-1)[self.positions] = 0.0
        return out


def test_a_zero_uniform_gives_a_finite_draw_and_leaves_every_other_draw_alone():
    size = 4 * _BLOCK + 9
    positions = [0, 3 * _BLOCK + 5, size - 1]  # the middle one is in the helper's half
    scale = 2.0
    got = laplace_noise(_ZerosAt(positions), scale, size)
    # the clamp: |u| = 0.5 - 2**-53, the largest any other uniform gives
    edge = -scale * math.log1p(-1.0 + 2.0**-52)
    assert np.isfinite(got).all()
    assert got[positions].tolist() == [-edge] * 3
    want = _one_shot_laplace(derive_rng(9, "noise"), scale, size)
    rest = np.ones(size, bool)
    rest[positions] = False
    assert got[rest].tobytes() == want[rest].tobytes()
    scalar = laplace_noise(_ZerosAt([]), scale)
    assert math.isfinite(scalar) and scalar == -edge


@pytest.mark.parametrize("size", [4 * _BLOCK - 1, 4 * _BLOCK, 4 * _BLOCK + 1, 1_000_003, (3, 2 * _BLOCK + 5)])
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


@pytest.mark.parametrize("size", [4 * _BLOCK, 1_000_003])
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


def _on_and_around_edges(size, seed):
    """A shuffled sample of ``size`` values spanning [-3, 5]: every edge of the
    equal-width bins over that range, the doubles just either side of each,
    and uniform values between."""
    edges = np.linspace(-3.0, 5.0, 65)
    special = np.concatenate([edges, np.nextafter(edges[1:], -np.inf), np.nextafter(edges[:-1], np.inf)])
    rng = np.random.default_rng(seed)
    sample = rng.uniform(-3.0, 5.0, size)
    sample[: min(size, special.size)] = special[:size]
    sample[[0, -1]] = -3.0, 5.0  # both ends, so the edges span [-3, 5]
    rng.shuffle(sample)
    return sample


@pytest.mark.parametrize("size", [200, 65_535, 65_536, 65_537, 200_003])
def test_two_sample_counts_equal_numpys_histogram(size):
    out1, out2 = _on_and_around_edges(size, 1), _on_and_around_edges(size, 2)
    edges, c1, c2 = _two_sample_counts(out1, out2, 64)
    assert edges.tobytes() == np.linspace(-3.0, 5.0, 65).tobytes()
    for sample, counts in ((out1, c1), (out2, c2)):
        want = np.histogram(sample, bins=edges)[0]
        assert counts.dtype == want.dtype
        assert np.array_equal(counts, want)
        assert counts.sum() == size


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
