"""The recoding map against a frozen copy of the per-value labelling it
replaced: ``GeneralizationHierarchy.paths`` and ``label_paths`` must give, at
every level, the label that the old ``label`` computed one value at a time,
and must reject the same first non-leaf value with the same error."""

import math
import unicodedata
from bisect import bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdckit import (
    AttributeSchema,
    CategoricalKind,
    GeneralizationHierarchy,
    NumericKind,
    generalize_value,
    make_table,
)
from sdckit.errors import UnknownValue
from sdckit.microdata import canonical_number, label_paths, nfc

# --------------------------------------------------------------------------
# frozen reference: one label per value and level, interval edges rebuilt per call
# --------------------------------------------------------------------------


def _oracle_contains(h, value):
    if h.kind == "tree":
        return isinstance(value, str) and nfc(value) in h._paths
    try:
        v = float(value)
    except (TypeError, ValueError):
        return False
    return math.isfinite(v) and h._lo <= v <= h._hi


def _oracle_interval_label(h, ivl_lo, ivl_hi):
    last = ivl_hi > h._hi
    if h._integral:
        right = int(h._hi) if last else int(ivl_hi) - 1
        return f"[{int(ivl_lo)},{right}]"
    if last:
        return f"[{canonical_number(ivl_lo)},{canonical_number(h._hi)}]"
    return f"[{canonical_number(ivl_lo)},{canonical_number(ivl_hi)})"


def _oracle_label(h, value, level):
    if not _oracle_contains(h, value):
        raise UnknownValue(f"{value!r} is not a leaf of the hierarchy for {h.attribute!r}")
    if h.kind == "tree":
        return h._paths[nfc(value)][level]
    v = float(value)
    if level == 0:
        return canonical_number(v)
    cut_list = h._cuts[level - 1]
    j = bisect_right(cut_list, v)
    edges = [h._lo, *cut_list, math.nextafter(h._hi, math.inf)]
    return _oracle_interval_label(h, edges[j], edges[j + 1])


def _oracle_paths(h, values):
    """Every value's labels, or the error of the first value that has none."""
    try:
        return [tuple(_oracle_label(h, v, lv) for lv in range(h.height + 1)) for v in values]
    except UnknownValue as e:
        return str(e)


def _paths(h, values):
    try:
        got = h.paths(values)
    except UnknownValue as e:
        return str(e)
    assert got.dtype == object and got.shape == (len(values), h.height + 1)
    return [tuple(row) for row in got.tolist()]


# --------------------------------------------------------------------------
# generated hierarchies and values
# --------------------------------------------------------------------------


@st.composite
def interval_hierarchies(draw):
    """(hierarchy, grid): nested cuts on a grid of step 1 (integral), 0.5 or
    0.1 (whose points such as 0.30000000000000004 are not short decimals);
    the grid holds every point a cut may take, the domain max included."""
    step = draw(st.sampled_from([1.0, 0.5, 0.1]))
    lo = step * draw(st.integers(-12, 12))
    m = draw(st.integers(0, 24))
    grid = [lo + step * i for i in range(1, m + 1)]  # lo + step * m is hi
    hi = grid[-1] if grid else lo
    levels = [sorted(draw(st.sets(st.sampled_from(grid)))) if grid else []]
    for _ in range(draw(st.integers(0, 2))):
        finer = levels[-1]
        levels.append(sorted(draw(st.sets(st.sampled_from(finer)))) if finer else [])
    return GeneralizationHierarchy.from_breakpoints("x", lo, hi, levels), [lo, *grid]


@st.composite
def interval_cases(draw):
    h, grid = draw(interval_hierarchies())
    lo, hi = h._lo, h._hi
    special = [*grid, lo, hi, -0.0, 0.0, lo - 1.0, hi + 0.5, math.nextafter(hi, math.inf), math.nan, math.inf]
    value = st.one_of(
        st.sampled_from(special),
        st.floats(lo, hi, allow_nan=False),
        st.integers(math.floor(lo) - 1, math.ceil(hi) + 1),
        st.sampled_from(grid).map(canonical_number),  # text that parses to a leaf
    )
    return h, draw(st.lists(value, max_size=12))


def _nfd(text):
    return unicodedata.normalize("NFD", text)


@st.composite
def tree_cases(draw):
    """(hierarchy, values): a balanced tree of height 0..3 whose labels carry
    accents, written in the document as NFC or NFD text; values are leaves,
    inner nodes and strangers, each in either form."""
    height = draw(st.integers(0, 3))
    names = iter(range(10**6))
    spell = draw(st.sampled_from([nfc, _nfd]))

    def node(depth):
        if depth == height:
            return None
        return {spell(f"é{next(names)}"): node(depth + 1) for _ in range(draw(st.integers(1, 3)))}

    tree = {spell("Périgord"): node(0)}
    h = GeneralizationHierarchy.from_tree("place", tree)
    labels = sorted({label for path in h._paths.values() for label in path})
    text = st.sampled_from([*labels, "é", "*", ""])
    value = st.one_of(text, text.map(_nfd), st.sampled_from([1.0, None]))
    return h, draw(st.lists(value, max_size=12))


# --------------------------------------------------------------------------
# tests
# --------------------------------------------------------------------------


@settings(max_examples=400, deadline=None)
@given(st.one_of(interval_cases(), tree_cases()))
def test_paths_match_the_frozen_per_value_labels(case):
    h, values = case
    want = _oracle_paths(h, values)
    assert _paths(h, values) == want
    if isinstance(want, str):
        return
    for value, path in zip(values, want):
        assert h.value_path(value) == path
        for lv, label in enumerate(path):
            assert h.label(value, lv) == label
            assert generalize_value(h, value, lv) == (value if lv == 0 else label)


@settings(max_examples=200, deadline=None)
@given(interval_hierarchies())
def test_interval_nodes_are_registered_once_at_their_lowest_level(case):
    h, _ = case
    level_of, interval_of = {}, {}
    for lv in range(1, h.height + 1):
        edges = [h._lo, *h._cuts[lv - 1], math.nextafter(h._hi, math.inf)]
        for ivl in zip(edges, edges[1:]):
            label = _oracle_interval_label(h, *ivl)
            if label not in level_of:
                level_of[label], interval_of[label] = lv, ivl
    assert (h._level_of, h._interval_of) == (level_of, interval_of)
    assert h.root_label == _oracle_interval_label(h, h._lo, math.nextafter(h._hi, math.inf))


def test_paths_of_the_domain_max_and_negative_zero():
    h = GeneralizationHierarchy.from_breakpoints("x", -2, 6, [[0, 2, 6], [2]])
    assert _paths(h, [6.0, -0.0, 0.0, 2]) == [
        ("6", "[6,6]", "[2,6]", "[-2,6]"),
        ("0", "[0,1]", "[-2,1]", "[-2,6]"),
        ("0", "[0,1]", "[-2,1]", "[-2,6]"),
        ("2", "[2,5]", "[2,6]", "[-2,6]"),
    ]
    assert h.paths([]).shape == (0, 4)
    with pytest.raises(UnknownValue, match=r"^7\.5 is not a leaf"):
        h.paths([1.0, 7.5, math.nan])


@st.composite
def column_cases(draw):
    """(table, hierarchy, per-row values as the old recoders passed them)."""
    if draw(st.booleans()):
        h, grid = draw(interval_hierarchies())
        zeros = [-0.0, 0.0] if h._lo <= 0 <= h._hi else []
        cells = st.one_of(st.sampled_from([*grid, *zeros]), st.floats(h._lo, h._hi, allow_nan=False))
        schema = AttributeSchema("x", "quasi_identifier", NumericKind(h._lo, h._hi))
        values = draw(st.lists(cells, min_size=1, max_size=15))
        return make_table([schema], {"x": values}), h, [float(v) for v in values]
    h, _ = draw(tree_cases())
    leaves = sorted(h._paths)
    schema = AttributeSchema("x", "quasi_identifier", CategoricalKind(tuple(leaves)))
    values = draw(st.lists(st.sampled_from(leaves).map(draw(st.sampled_from([nfc, _nfd]))), min_size=1, max_size=15))
    table = make_table([schema], {"x": values})
    return table, h, list(table.columns["x"])


@settings(max_examples=200, deadline=None)
@given(column_cases())
def test_label_paths_give_every_row_its_frozen_labels(case):
    table, h, values = case
    paths, codes = label_paths(table, "x", h)
    assert [tuple(row) for row in paths[codes].tolist()] == _oracle_paths(h, values)


def test_label_paths_reject_a_numeric_column_under_a_tree():
    schema = AttributeSchema("x", "quasi_identifier", NumericKind(0, 9))
    table = make_table([schema], {"x": [3.0, 1.0]})
    h = GeneralizationHierarchy.from_tree("x", {"*": {"1": None, "3": None}})
    with pytest.raises(UnknownValue, match=r"^1\.0 is not a leaf"):
        label_paths(table, "x", h)
