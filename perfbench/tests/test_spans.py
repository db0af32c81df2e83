import numpy as np
import pytest

import spans
import sdckit
from sdckit import AttributeSchema, NumericKind, attacks, probkanon
from sdckit.microdata import make_table


def _fake_clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_subtracts_only_direct_children():
    # a[0,10] holds b[1,3] and c[4,8]; c holds d[5,6]
    tracer = spans.Tracer(clock=_fake_clock(0, 1, 3, 4, 5, 6, 8, 10))
    a = tracer.open("a")
    b = tracer.open("b")
    tracer.close(b)
    c = tracer.open("c")
    d = tracer.open("d")
    tracer.close(d)
    tracer.close(c)
    tracer.close(a)
    assert spans.self_times(tracer.spans) == [4, 2, 3, 1]
    assert [s.parent for s in tracer.spans] == [-1, 0, 0, 2]


def test_closing_out_of_order_is_an_error():
    tracer = spans.Tracer(clock=_fake_clock(0, 1, 2))
    outer = tracer.open("outer")
    tracer.open("inner")
    with pytest.raises(RuntimeError):
        tracer.close(outer)


def test_layer_metrics_sum_self_time_and_count_honest_failures():
    tracer = spans.Tracer(clock=_fake_clock(*range(20)))
    honest = tracer.begin_op("check.honest", honest=True)
    s = tracer.open("dp.empirical_dp_check")
    tracer.close(s)
    tracer.spans[s].attrs["passed"] = False
    tracer.end_op(honest)
    control = tracer.begin_op("check.control")
    s = tracer.open("dp.empirical_dp_check")
    inner = tracer.open("dp.laplace_noise", samples=7)
    tracer.close(inner)
    tracer.close(s)
    tracer.spans[s].attrs["passed"] = False
    tracer.end_op(control)
    m = spans.layer_metrics(tracer.spans)
    assert m["dp.empirical_dp_check.calls"] == 2
    assert m["dp.empirical_dp_check.self_s"] == 1 + 2
    assert m["dp.laplace_noise.samples"] == 7
    assert m["dp.empirical_dp_check.honest_fails"] == 1
    # op spans are the benchmark's own and are left out of the wrapped total
    assert m["trace.wrapped_self_s"] == 1 + 2 + 1
    assert m["kanon.mdav_partition.calls"] == 0


def _table(n=30):
    rng = np.random.default_rng(0)
    schema = (
        AttributeSchema("a", "quasi_identifier", NumericKind(0, 1)),
        AttributeSchema("b", "quasi_identifier", NumericKind(0, 1)),
    )
    return make_table(schema, {"a": rng.uniform(0, 1, n), "b": rng.uniform(0, 1, n)})


def test_wrapped_link_records_is_seen_from_linkage_attack_and_the_verifier():
    original = attacks.link_records
    table = _table()
    release = sdckit.mdav_microaggregate(table, ["a", "b"], 5)[1]
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        assert sdckit.link_records is attacks.link_records is not original
        sdckit.linkage_attack(release, table, trials=2)
        sdckit.verify_probabilistic_k(release, table, 5, trials=3)
    finally:
        uninstall()
    assert attacks.link_records is original and sdckit.link_records is original
    by_index = tracer.spans
    links = [s for s in by_index if s.name == "attacks.link_records"]
    parents = [by_index[s.parent].name for s in links]
    assert parents == ["attacks.linkage_attack"] * 2 + ["probkanon.verify_probabilistic_k"] * 3
    # derive_rng is reached through derive_seed inside both callers
    assert any(s.name == "seeds.derive_rng" for s in by_index)
    m = spans.layer_metrics(by_index)
    assert m["attacks.link_records.pairs"] == 5 * 30 * 30
    # one fixed release linked five times
    assert m["attacks.link_records.distinct_release_frac"] == pytest.approx(1 / 5)


def test_class_attributes_and_re_exports_are_rebound():
    from sdckit import accounting, kanon, metric, reporting

    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        assert reporting.mdav_partition is kanon.mdav_partition
        assert probkanon.mdav_partition is kanon.mdav_partition
        assert hasattr(kanon.mdav_partition, "__wrapped__")
        kanon.mdav_partition(_table(), ["a", "b"], 5)
        ledger = accounting.BudgetLedger()
        ledger.record_dp("q", 0.5)
        assert ledger.compose().epsilon == 0.5
    finally:
        uninstall()
    assert not hasattr(metric.MixedSpace.sq_dist_to, "__wrapped__")
    names = [s.name for s in tracer.spans]
    assert "metric.MixedSpace.sq_dist_to" in names
    assert "accounting.BudgetLedger.compose" in names
    sq = [s for s in tracer.spans if s.name == "metric.MixedSpace.sq_dist_to"]
    assert all(tracer.spans[s.parent].name == "kanon.mdav_partition" for s in sq)
    assert spans.layer_metrics(tracer.spans)["metric.MixedSpace.sq_dist_to.rows"] == sum(
        s.attrs["rows"] for s in sq)
