"""Distributions, earth mover's distance, l-diversity, t-closeness, and the
constrained class formation that enforces all three."""


import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdckit import (
    CATEGORICAL_UNIFORM,
    ORDERED_NUMERIC,
    AttributeSchema,
    CategoricalKind,
    Distribution,
    EmptyClass,
    GroundDistance,
    Infeasible,
    InvalidT,
    NumericKind,
    SupportMismatch,
    emd,
    emd_transport,
    enforce_models,
    l_diversity,
    verify_t_closeness,
)
from sdckit.microdata import make_table


def _toy_table(x_values, secret_values, secret_kind):
    schema = (
        AttributeSchema("x", "quasi_identifier", NumericKind(-100, 100)),
        AttributeSchema("s", "confidential", secret_kind),
    )
    return make_table(schema, {"x": x_values, "s": secret_values})


# -- distributions ----------------------------------------------------------------


def test_distribution_validation():
    with pytest.raises(ValueError):
        Distribution(("a", "b"), (1.0,))
    with pytest.raises(ValueError):
        Distribution(("a", "a"), (0.5, 0.5))
    with pytest.raises(ValueError):
        Distribution(("a", "b"), (-0.1, 1.1))
    with pytest.raises(ValueError):
        Distribution(("a", "b"), (0.5, 0.6))
    with pytest.raises(EmptyClass):
        Distribution.from_values([])


def test_distribution_from_values_counts():
    d = Distribution.from_values(["b", "a", "b", "b"])
    assert d.support == ("a", "b")
    assert d.mass == (0.25, 0.75)
    e = Distribution.from_values([1.0], support=[1.0, 2.0])
    assert e.mass == (1.0, 0.0)


def test_ground_distance_validation_and_matrices():
    with pytest.raises(ValueError):
        GroundDistance("euclidean")
    m = ORDERED_NUMERIC.matrix(3)
    assert m[0, 2] == pytest.approx(1.0)
    assert m[0, 1] == pytest.approx(0.5)
    c = CATEGORICAL_UNIFORM.matrix(3)
    assert c[0, 1] == c[0, 2] == 1.0
    assert c[1, 1] == 0.0


# -- earth mover's distance -------------------------------------------------------


def test_emd_frozen_values():
    p = Distribution((0.0, 1.0), (0.5, 0.5))
    q = Distribution((0.0, 1.0), (0.99, 0.01))
    assert emd(p, q, CATEGORICAL_UNIFORM) == pytest.approx(0.49, abs=1e-12)
    assert emd(p, q, ORDERED_NUMERIC) == pytest.approx(0.49, abs=1e-12)

    far = Distribution((0.0, 1.0, 2.0), (1.0, 0.0, 0.0))
    near = Distribution((0.0, 1.0, 2.0), (0.0, 0.0, 1.0))
    assert emd(far, near, ORDERED_NUMERIC) == pytest.approx(1.0, abs=1e-12)
    assert emd(far, near, CATEGORICAL_UNIFORM) == pytest.approx(1.0, abs=1e-12)

    shift = Distribution((0.0, 1.0, 2.0), (0.5, 0.5, 0.0))
    other = Distribution((0.0, 1.0, 2.0), (0.0, 0.5, 0.5))
    assert emd(shift, other, ORDERED_NUMERIC) == pytest.approx(0.5, abs=1e-12)

    assert emd(p, p) == 0.0
    assert emd(Distribution(("x",), (1.0,)), Distribution(("x",), (1.0,))) == 0.0


def test_emd_aligns_disjoint_supports():
    p = Distribution((0.0,), (1.0,))
    q = Distribution((1.0,), (1.0,))
    assert emd(p, q, ORDERED_NUMERIC) == pytest.approx(1.0)
    assert emd(p, q, CATEGORICAL_UNIFORM) == pytest.approx(1.0)


def test_emd_ordered_rejects_text_support():
    p = Distribution(("low", "high"), (0.5, 0.5))
    with pytest.raises(SupportMismatch):
        emd(p, p, ORDERED_NUMERIC)


@settings(max_examples=60, deadline=None)
@given(
    masses=st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), min_size=2, max_size=6),
    kind=st.sampled_from([ORDERED_NUMERIC, CATEGORICAL_UNIFORM]),
)
def test_emd_closed_form_matches_transport_lp(masses, kind):
    pa = [a for a, _ in masses]
    qa = [b for _, b in masses]
    if sum(pa) == 0 or sum(qa) == 0:
        pa[0] += 1
        qa[-1] += 1
    support = tuple(float(i) for i in range(len(masses)))
    p = Distribution(support, tuple(a / sum(pa) for a in pa))
    q = Distribution(support, tuple(b / sum(qa) for b in qa))
    assert emd(p, q, kind) == pytest.approx(emd_transport(p, q, kind), abs=1e-7)


# -- l-diversity ------------------------------------------------------------------


def test_l_diversity_distinct_and_entropy():
    assert l_diversity(["flu", "cold", "flu"], "distinct") == 2.0
    assert l_diversity(["a", "a", "a", "b"], "entropy") == pytest.approx(
        1.7547653506033232, abs=1e-12
    )
    # uniform class: entropy variant equals the distinct count exactly
    assert l_diversity(["a", "b", "c"], "entropy") == pytest.approx(3.0, abs=1e-9)
    assert l_diversity(["a", "b", "c"], "entropy") <= l_diversity(["a", "b", "c"], "distinct")


def test_l_diversity_rejects_empty_and_unknown_variant():
    with pytest.raises(EmptyClass):
        l_diversity([], "distinct")
    with pytest.raises(ValueError):
        l_diversity(["a"], "renyi")


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from("abcd"), min_size=1, max_size=20))
def test_entropy_diversity_never_exceeds_distinct(values):
    assert l_diversity(values, "entropy") <= l_diversity(values, "distinct") + 1e-9


# -- t-closeness ------------------------------------------------------------------


def test_verify_t_closeness_numeric_frozen():
    table = _toy_table([0.0, 1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0], NumericKind(1, 4))
    holds, worst = verify_t_closeness(table, [(0, 1), (2, 3)], "s", t=1 / 3)
    assert holds
    assert worst == pytest.approx(1 / 3, abs=1e-12)
    holds, worst = verify_t_closeness(table, [(0, 1), (2, 3)], "s", t=0.3)
    assert not holds
    assert worst == pytest.approx(1 / 3, abs=1e-12)


def test_verify_t_closeness_categorical_frozen():
    table = _toy_table(
        [0.0, 1.0, 2.0, 3.0], ["flu", "flu", "cold", "cold"], CategoricalKind(("flu", "cold"))
    )
    holds, worst = verify_t_closeness(table, [(0, 1), (2, 3)], "s", t=0.5)
    assert holds
    assert worst == pytest.approx(0.5, abs=1e-12)


def test_verify_t_closeness_rejects_negative_t():
    table = _toy_table([0.0, 1.0], [1.0, 2.0], NumericKind(1, 4))
    with pytest.raises(InvalidT):
        verify_t_closeness(table, [(0, 1)], "s", t=-0.1)


def test_single_class_is_zero_distance():
    table = _toy_table([0.0, 1.0, 2.0], [1.0, 3.0, 4.0], NumericKind(1, 4))
    holds, worst = verify_t_closeness(table, [(0, 1, 2)], "s", t=0.0)
    assert holds
    assert worst == 0.0


# -- constrained class formation --------------------------------------------------


def test_enforce_models_merges_until_diverse():
    # two tight QI clusters, each homogeneous in the secret: k alone keeps them
    # separate, l = 2 forces the merge
    x = [0.0, 0.1, 0.2, 0.3, 10.0, 10.1, 10.2, 10.3]
    s = ["flu"] * 4 + ["cold"] * 4
    table = _toy_table(x, s, CategoricalKind(("flu", "cold")))
    plain = enforce_models(table, ["x"], "s", k=4)
    assert plain == ((0, 1, 2, 3), (4, 5, 6, 7))
    merged = enforce_models(table, ["x"], "s", k=4, l=2)
    assert merged == ((0, 1, 2, 3, 4, 5, 6, 7),)


def test_enforce_models_handles_t_constraint():
    x = [0.0, 0.1, 10.0, 10.1]
    s = [1.0, 1.0, 2.0, 2.0]
    table = _toy_table(x, s, NumericKind(1, 2))
    merged = enforce_models(table, ["x"], "s", k=2, t=0.0)
    assert merged == ((0, 1, 2, 3),)


def test_enforce_models_infeasible_when_secret_constant():
    table = _toy_table([0.0, 1.0, 2.0, 3.0], ["flu"] * 4, CategoricalKind(("flu", "cold")))
    with pytest.raises(Infeasible) as exc:
        enforce_models(table, ["x"], "s", k=2, l=2)
    assert exc.value.constraint == "l_diversity"


def test_enforce_models_validates_arguments():
    table = _toy_table([0.0, 1.0], [1.0, 2.0], NumericKind(1, 2))
    with pytest.raises(ValueError):
        enforce_models(table, ["x"], "s", k=1, l=0.5)
    with pytest.raises(InvalidT):
        enforce_models(table, ["x"], "s", k=1, t=-1.0)

