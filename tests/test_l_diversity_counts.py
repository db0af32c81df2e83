"""l-diversity read from the one count matrix. ``ClassValues.l_diversities``
must equal, bit for bit, a frozen copy of the per-class list path that the
run checks (over the published column) and ``enforce_models`` (over the
column's values, read here through ``ClassValues``' support and codes) used
before, for both variants."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdckit import AttributeSchema, CategoricalKind, NumericKind, Partition, l_diversity
from sdckit.confmodels import ClassValues
from sdckit.microdata import make_table

# --------------------------------------------------------------------------
# frozen reference
# --------------------------------------------------------------------------


def _old_l_diversity(class_values, variant):
    values = list(class_values)
    if variant == "distinct":
        return float(len(set(values)))
    counts = Counter(values)
    n = len(values)
    h = -math.fsum((c / n) * math.log(c / n) for c in counts.values())
    return math.exp(h)


# --------------------------------------------------------------------------
# tables and partitions
# --------------------------------------------------------------------------

NUMBERS = [0.0, -0.0, 1.0, -1.0, 2.5, 1e17]
TEXTS = ["a", "b", "0", "-0", "10"]
SCHEMA = (
    AttributeSchema("q", "quasi_identifier", NumericKind(0, 9)),
    AttributeSchema("num", "confidential", NumericKind(-1e18, 1e18)),
    AttributeSchema("txt", "confidential", CategoricalKind(tuple(TEXTS))),
)


@st.composite
def cases(draw):
    """A table with repeated secrets and -0.0, and a partition of its rows."""
    n = draw(st.integers(1, 40))

    def cells(values):
        return draw(st.lists(st.sampled_from(values), min_size=n, max_size=n))

    table = make_table(SCHEMA, {"q": [0.0] * n, "num": cells(NUMBERS), "txt": cells(TEXTS)})
    return table, Partition.of_labels(draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)))


def _bits(xs):
    return [float(x).hex() for x in xs]


@settings(max_examples=300, deadline=None)
@given(cases(), st.sampled_from(["num", "txt"]), st.sampled_from(["distinct", "entropy"]))
def test_count_matrix_l_equals_the_list_path_bit_for_bit(case, attribute, variant):
    table, partition = case
    values = ClassValues.of(table, attribute)
    got = _bits(values.l_diversities(partition, variant))
    published = table.columns[attribute]
    assert got == _bits(_old_l_diversity([published[i] for i in g], variant) for g in partition)
    read = np.asarray(values.support, dtype=object)[values.codes].tolist()
    assert got == _bits(_old_l_diversity([read[i] for i in g], variant) for g in partition)
    assert got == _bits(l_diversity([published[i] for i in g], variant) for g in partition)


def test_unknown_variant_raises():
    table = make_table(SCHEMA, {"q": [0.0, 0.0], "num": [1.0, 2.0], "txt": ["a", "a"]})
    with pytest.raises(ValueError, match="unknown l-diversity variant 'gini'"):
        ClassValues.of(table, "txt").l_diversities(Partition([[0, 1]]), "gini")
    with pytest.raises(ValueError, match="unknown l-diversity variant 'gini'"):
        l_diversity(["a"], "gini")
