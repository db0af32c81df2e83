"""The one text encoding of a column, ``microdata.text_codes``, against frozen
copies of the code it replaced: ``comparable_text`` formatting the column on
every call, and ``sorted_codes`` numbering the text of several tables
concatenated. Tables hold -0.0, non-integer numbers and numbers past 2**53,
text that NFC normalization merges, and a column that is numeric in one table
and text in the other."""

import json
import unicodedata

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdckit import microdata
from sdckit.microdata import (
    AttributeSchema,
    CategoricalKind,
    GeneralizationHierarchy,
    NumericKind,
    canonical_number,
    comparable_text,
    hierarchy_to_json,
    make_table,
    schema_to_descriptor,
    serialize_table,
    shared_text_codes,
    text_codes,
)
from sdckit.reporting import RunConfig, run

from conftest import build_people_table

# --------------------------------------------------------------------------
# frozen references
# --------------------------------------------------------------------------


def _old_comparable_text(table, name):
    attr = table.attribute(name)
    col = table.columns[name]
    if attr.is_numeric:
        values, row_of = np.unique(np.asarray(col, dtype=float), return_inverse=True)
        return np.asarray([canonical_number(v) for v in values], dtype=object)[row_of]
    return np.asarray([str(v) for v in col], dtype=object)


def _old_sorted_codes(values):
    index = {}
    codes = np.fromiter((index.setdefault(v, len(index)) for v in values.tolist()), np.int64, len(values))
    distinct = list(index)
    order = sorted(range(len(distinct)), key=distinct.__getitem__)
    return [distinct[i] for i in order], np.argsort(order)[codes]


# --------------------------------------------------------------------------
# oracle
# --------------------------------------------------------------------------

NUMBERS = [0.0, -0.0, 1.0, -1.0, 2.5, 0.1, -1e-7, 10.0, 9.0, 2.0**53, 2.0**53 + 2, -(2.0**60), 1e17]
TEXTS = ["0", "-0", "1", "2.5", "10", "9", "a", "B", "a b", "\u00e9", "e\u0301", "1e+17"]
NUMERIC = NumericKind(-(2.0**62), 2.0**62)
CATEGORIES = CategoricalKind(tuple(dict.fromkeys(unicodedata.normalize("NFC", t) for t in TEXTS)))


@st.composite
def tables(draw):
    """Two tables over columns ``c`` (numeric or text, drawn per table) and ``t`` (text)."""
    out = []
    for _ in range(2):
        n = draw(st.integers(0, 12))
        numeric = draw(st.booleans())
        schema = (
            AttributeSchema("c", "quasi_identifier", NUMERIC if numeric else CATEGORIES),
            AttributeSchema("t", "quasi_identifier", CATEGORIES),
        )
        cells = st.sampled_from(NUMBERS if numeric else TEXTS)
        columns = {"c": draw(st.lists(cells, min_size=n, max_size=n)),
                   "t": draw(st.lists(st.sampled_from(TEXTS), min_size=n, max_size=n))}
        out.append(make_table(schema, columns))
    return out


@settings(max_examples=300, deadline=None)
@given(tables())
def test_text_codes_match_the_old_comparable_text_and_sorted_codes(pair):
    for name in ("c", "t"):
        old = [_old_comparable_text(t, name) for t in pair]
        for table, text in zip(pair, old):
            distinct, codes = text_codes(table, name)
            want_distinct, want_codes = _old_sorted_codes(text)
            assert distinct.tolist() == want_distinct
            assert codes.dtype == np.int64 and codes.tolist() == want_codes.tolist()
            assert comparable_text(table, name).tolist() == text.tolist()
            assert text_codes(table, name)[1] is codes  # encoded once, then read back
        support, codes = shared_text_codes(pair, name)
        want_support, want_codes = _old_sorted_codes(np.concatenate(old))
        assert support.tolist() == want_support
        assert np.concatenate(codes).tolist() == want_codes.tolist()
        assert [c.size for c in codes] == [t.n_rows for t in pair]


def test_text_codes_are_read_only_and_merge_signed_zero():
    schema = (AttributeSchema("x", "quasi_identifier", NumericKind(-1, 1)),)
    table = make_table(schema, {"x": [-0.0, 0.0, 0.5]})
    distinct, codes = text_codes(table, "x")
    assert distinct.tolist() == ["0", "0.5"] and codes.tolist() == [0, 0, 1]
    for array in (distinct, codes):
        with pytest.raises(ValueError):
            array[0] = array[1]


# --------------------------------------------------------------------------
# each column of each table is encoded once per run
# --------------------------------------------------------------------------


def test_generalization_run_encodes_each_table_column_at_most_once(tmp_path, monkeypatch):
    table = build_people_table(seed=3, n=60)
    data, schema = tmp_path / "people.csv", tmp_path / "people.schema.json"
    data.write_bytes(serialize_table(table))
    schema.write_text(json.dumps(schema_to_descriptor(table.schema)), encoding="utf-8")
    hierarchies = [
        GeneralizationHierarchy.from_breakpoints("age", 0, 100, [[20, 40, 60, 80], [40, 80]]),
        GeneralizationHierarchy.from_breakpoints("height", 120, 210, [[150, 180]]),
        GeneralizationHierarchy.from_tree(
            "zip", {"*": {"4300*": {"43007": None, "43008": None}, "0800*": {"08001": None}}}
        ),
    ]
    hier = tmp_path / "hier.json"
    hier.write_text(json.dumps([hierarchy_to_json(h) for h in hierarchies]), encoding="utf-8")
    config = RunConfig(
        data_csv=str(data),
        schema_json=str(schema),
        mechanism="generalization",
        k=3,
        hierarchies_json=str(hier),
        max_suppression_fraction=0.1,
        conf_attribute="diagnosis",
        l_floor=1.0,
        t_ceiling=1.0,
        attacks=("linkage", "attribute_inference"),
        attack_trials=2,
    )
    encoded = []  # keeps every encoded table alive, so no two share an id
    encode = microdata._encode_text

    def counting(table, name):
        encoded.append((table, name))
        return encode(table, name)

    monkeypatch.setattr(microdata, "_encode_text", counting)
    run(config, tmp_path / "out")
    pairs = [(id(table), name) for table, name in encoded]
    assert len(pairs) == len(set(pairs))
    # the input and the release: QIs, the confidential attribute and the release's columns
    assert len(pairs) >= 8
