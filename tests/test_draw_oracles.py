"""Oracles for the fixed cost of scoring one Monte Carlo draw: each function
the scoring calls is pinned to the code it replaced, bit for bit. (The
permutation of a ``cluster_and_permute`` draw is pinned in
``tests/test_group_streams.py``.)"""

import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sdckit import cluster_and_permute
from sdckit.attacks import _gap_squares_to_zero
from sdckit.metric import column_stats
from sdckit.microdata import MicrodataTable, text_codes, value_codes

from conftest import build_people_table

# --------------------------------------------------------------------------
# frozen copies
# --------------------------------------------------------------------------


def _sorted_gaps_square_to_zero(col):
    gaps = np.diff(np.sort(col))
    return bool(((gaps != 0) & (gaps * gaps == 0)).any())


def _bits(x):
    return struct.pack("<d", x)


# --------------------------------------------------------------------------
# column_stats
# --------------------------------------------------------------------------

EXTREMES = [0.0, -0.0, 1.0, -2.5, 1e300, -1e300, 1e-300, -1e-300, 5e-324, -5e-324, 2.0**-1050, -(2.0**-1060)]
FLOATS = st.one_of(st.sampled_from(EXTREMES), st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def pooled_columns(draw):
    """One to three columns holding n values in all, n around numpy's
    unrolling (8) and pairwise block (128) sizes."""
    n = draw(st.sampled_from([1, 2, 7, 8, 9, 16, 127, 128, 129, 300]))
    values = draw(st.lists(FLOATS, min_size=n, max_size=n))
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=2)))
    return [np.asarray(part, dtype=float) for part in np.split(np.asarray(values), cuts)]


@settings(max_examples=300, deadline=None)
@given(pooled_columns())
@example([np.asarray([-0.0])])
@example([np.asarray([1e300] * 9), np.asarray([-1e300] * 7)])
@example([np.asarray([5e-324, -5e-324, 2.0**-1060] * 43)])
def test_column_stats_is_numpys_mean_and_std_bit_for_bit(columns):
    pooled = np.concatenate(columns)
    with np.errstate(all="ignore"):  # a sum of 1e300s overflows alike on both sides
        mean, std = column_stats(pooled)
        want = (float(pooled.mean()), float(pooled.std()))
    assert (_bits(mean), _bits(std)) == tuple(map(_bits, want))


# --------------------------------------------------------------------------
# _gap_squares_to_zero
# --------------------------------------------------------------------------

BOUND = 2.0**-480
NEAR_BOUND = [
    BOUND, np.nextafter(BOUND, 0), np.nextafter(BOUND, 1), 2.0**-481, 2.0**-479, 2.0**-486, 2.0**-485,
    2.0**-500, 2.0**-600, 2.0**-1000, 5e-324, 1e-310, 0.0, -0.0, 1.0, 3.0,
]


@st.composite
def gap_columns(draw):
    """Values near 2**-480, subnormals and ordinary floats of either sign,
    some next to their adjacent float."""
    values = []
    for _ in range(draw(st.integers(1, 12))):
        v = draw(st.one_of(st.sampled_from(NEAR_BOUND), st.floats(allow_nan=False, allow_infinity=False)))
        v = -v if draw(st.booleans()) else v
        values.append(v)
        if draw(st.booleans()):
            values.append(float(np.nextafter(v, draw(st.sampled_from([0.0, 1.0, -1.0])))))
    return np.asarray(draw(st.permutations(values)), dtype=float)


@settings(max_examples=400, deadline=None)
@given(gap_columns())
def test_gap_squares_to_zero_matches_the_sort_only_reference(col):
    with np.errstate(all="ignore"):  # a gap across +-1e308 overflows alike on both sides
        assert _gap_squares_to_zero(col) == _sorted_gaps_square_to_zero(col)


@pytest.mark.parametrize(
    "base, want",
    [
        (BOUND, False),  # the gap, 2**-532, squares to 2**-1064
        (2.0**-486, True),  # below the bound: a gap of 2**-538 squares to 0
        (-(2.0**-500), True),
        (5e-324, True),  # the smallest subnormal and 0
        (1.0, False),
    ],
)
def test_gap_squares_to_zero_at_adjacent_floats(base, want):
    col = np.asarray([3.0, np.nextafter(base, 0) if base == 5e-324 else np.nextafter(base, 1), base])
    assert _gap_squares_to_zero(col) == _sorted_gaps_square_to_zero(col) == want


# --------------------------------------------------------------------------
# value_codes
# --------------------------------------------------------------------------


def _with_own_distinct(table: MicrodataTable, name: str) -> MicrodataTable:
    """``table`` again, its column ``name`` encoded over a copy of its distinct texts."""
    copy = MicrodataTable(table.schema, dict(table.columns), table.row_ids)
    distinct, codes = text_codes(table, name)
    copy._text_codes[name] = (distinct.copy(), codes)
    return copy


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 40), st.booleans())
def test_value_codes_over_a_shared_distinct_matches_the_union(seed, n, mdav):
    table = build_people_table(seed, n)
    partition = None if mdav else [list(range(n))]
    released = cluster_and_permute(table, ["age", "zip"], 2, seed, partition=partition).table
    assert text_codes(released, "zip")[0] is text_codes(table, "zip")[0]  # carried, so shared
    support, codes = value_codes([table, released, table], "zip")
    want_support, want_codes = value_codes([table, _with_own_distinct(released, "zip"), table], "zip")
    assert support.dtype == want_support.dtype and support.tolist() == want_support.tolist()
    assert [(c.dtype, c.tolist()) for c in codes] == [(c.dtype, c.tolist()) for c in want_codes]
