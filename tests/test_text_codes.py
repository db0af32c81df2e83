"""The one text encoding of a column, ``microdata.text_codes``, against frozen
copies of the code it replaced: ``comparable_text`` formatting the column on
every call, and ``sorted_codes`` numbering the text of several tables
concatenated, which ``value_codes`` must match unless the column is numeric
in every table (then ``np.unique`` over the values is the oracle). Tables
hold -0.0, non-integer numbers and numbers past 2**53, text that NFC
normalization merges, and a column that is numeric in one table and text in
the other. Every encoding a table keeps (from the decode,
``take``, ``suppress_identifiers``, ``drop_columns``, ``with_column``,
``read_release``, the recoders, MDAV, permutation and anatomy) must be the
frozen reference's encoding of its own column, the decode's sweep must fault
where its per-cell path does, and ``serialize_table``, which writes from the
encodings, must write the per-cell reference's bytes."""

import csv
import io
import json
import math
import tempfile
import unicodedata
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sdckit import kanon, microdata
from sdckit.errors import Unsatisfiable
from sdckit.kanon import anonymize_generalization, mdav_microaggregate, minimal_generalization
from sdckit.microdata import (
    AttributeSchema,
    CategoricalKind,
    GeneralizationHierarchy,
    MicrodataTable,
    NumericKind,
    Partition,
    canonical_number,
    comparable_text,
    hierarchy_to_json,
    load_table,
    make_table,
    read_release,
    schema_to_descriptor,
    serialize_table,
    suppress_identifiers,
    text_codes,
    value_codes,
    write_release,
)
from sdckit.probkanon import anatomize, cluster_and_permute
from sdckit.reporting import RunConfig, run

from conftest import build_people_table
from test_codec_oracle import _reference_serialize_table

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
        support, codes = value_codes(pair, name)
        if all(t.attribute(name).is_numeric for t in pair):  # values, signed zeros included
            values = np.concatenate([t.columns[name] for t in pair])
            want_support, want_codes = np.unique(values, return_inverse=True)
            assert support.dtype == np.float64
        else:
            want_support, want_codes = _old_sorted_codes(np.concatenate(old))
        assert support.tolist() == list(want_support)
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


def test_a_text_column_of_other_objects_reads_each_cell_as_its_str():
    schema = (AttributeSchema("t", "quasi_identifier", CategoricalKind(("a",))),)
    cells = [1, True, 1.0, -0.0, 0.0, "1", "True"]
    for column in (np.asarray(cells, dtype=object), np.asarray([1.0, -0.0, 0.0, 1.0])):
        table = microdata.MicrodataTable(schema, {"t": column}, np.arange(column.size))
        distinct, codes = text_codes(table, "t")
        assert distinct.tolist() == sorted(set(map(str, column.tolist())))
        assert distinct[codes].tolist() == [str(v) for v in column.tolist()]


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
    lazy = []
    keep, encode, recode = microdata._keep_text_codes, microdata._encode_text, kanon._recoded_release

    def counting(table, name, texts, row_of):
        """The decode and a take make the text codes they keep here."""
        encoded.append((table, name))
        keep(table, name, texts, row_of)

    def lazily(table, name):
        encoded.append((table, name))
        lazy.append((table, name))
        return encode(table, name)

    def registering(table, qi, labels, *args):
        """The recoder encodes its label columns from (labels by code, row codes)."""
        release, scheme = recode(table, qi, labels, *args)
        encoded.extend((release.table, name) for name in labels)
        return release, scheme

    monkeypatch.setattr(microdata, "_keep_text_codes", counting)
    monkeypatch.setattr(microdata, "_encode_text", lazily)
    monkeypatch.setattr(kanon, "_recoded_release", registering)
    run(config, tmp_path / "out")
    pairs = [(id(table), name) for table, name in encoded]
    assert len(pairs) == len(set(pairs))
    # the input and the release: QIs, the confidential attribute and the release's columns
    assert len(pairs) >= 8
    # every column the run reads as text was encoded by the decode, carried or registered
    assert lazy == []


# --------------------------------------------------------------------------
# every carried encoding is the column's own encoding
# --------------------------------------------------------------------------

NFD_E = unicodedata.normalize("NFD", "\u00e9")
ANGSTROM = "\u212b"  # NFC-normalizes to "\u00c5"
LEAVES = ("a", "\u00e9", "1", "1.0", "\u00c5")
CARRY_SCHEMA = (
    AttributeSchema("pid", "identifier", CategoricalKind(tuple(f"p{i}" for i in range(12)))),
    AttributeSchema("x", "quasi_identifier", NumericKind(-5, 5)),
    AttributeSchema("t", "quasi_identifier", CategoricalKind(LEAVES)),
    AttributeSchema("d", "confidential", CategoricalKind(("F", "M", " 1 "))),
)
CARRY_HIERARCHIES = {
    "x": GeneralizationHierarchy.from_breakpoints("x", -5, 5, [[-2, 0, 2], [0]]),
    "t": GeneralizationHierarchy.from_tree(
        "t", {"*": {"letters": {"a": None, "\u00e9": None, "\u00c5": None}, "digits": {"1": None, "1.0": None}}}
    ),
}
# cells spelling one value several ways: numbers with and without a fraction,
# padded, signed zeros; text in NFC and NFD form
X_TEXT = ["1", "1.0", " 1 ", "-0", "0", "-0.0", "2.5", "-3", "5", "0.1"]
X_VALUE = [1.0, -0.0, 0.0, 2.5, -3.0, 5.0, 0.1, 4.0]
T_TEXT = ["a", "\u00e9", NFD_E, "1", "1.0", "\u00c5", ANGSTROM]
D_TEXT = ["F", "M", " 1 "]


@st.composite
def decoded_tables(draw, max_rows=8):
    """A table as ``load_table`` or ``make_table`` decodes it."""
    n = draw(st.integers(1, max_rows))
    t = draw(st.lists(st.sampled_from(T_TEXT), min_size=n, max_size=n))
    d = draw(st.lists(st.sampled_from(D_TEXT), min_size=n, max_size=n))
    pid = [f"p{i}" for i in draw(st.permutations(range(12)))[:n]]
    if draw(st.booleans()):
        x = draw(st.lists(st.sampled_from(X_TEXT), min_size=n, max_size=n))
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\r\n")
        writer.writerow(["d", "t", "x", "pid"])
        writer.writerows(zip(d, t, x, pid))
        return load_table(buf.getvalue(), CARRY_SCHEMA)
    x = draw(st.lists(st.sampled_from(X_VALUE), min_size=n, max_size=n))
    return make_table(CARRY_SCHEMA, {"pid": pid, "x": x, "t": t, "d": d})


def _reference_codes(table, name):
    return _old_sorted_codes(_old_comparable_text(table, name))


def _assert_encodings_are_fresh(table):
    """Every encoding ``table`` carries, then every one it makes from a carried
    factorization, is the frozen reference's: the texts present, sorted, read-only."""
    for name in list(table._text_codes) + [name for name in table.names if name not in table._text_codes]:
        distinct, codes = text_codes(table, name)
        want_distinct, want_codes = _reference_codes(table, name)
        assert distinct.tolist() == want_distinct, name
        assert codes.dtype == np.int64 and codes.tolist() == want_codes.tolist(), name
        assert not distinct.flags.writeable and not codes.flags.writeable


def _rows(data, n):
    """Row positions for ``take``: any subset in any order, often dropping values."""
    rows = data.draw(st.lists(st.integers(0, n - 1), max_size=n, unique=True))
    return np.asarray(rows, dtype=np.int64) if data.draw(st.booleans()) else rows


@settings(max_examples=200, deadline=None)
@given(decoded_tables(), st.data())
def test_take_and_suppress_identifiers_carry_fresh_encodings(table, data):
    if data.draw(st.booleans()):  # some columns encoded before the take, some only factorized
        for name in data.draw(st.lists(st.sampled_from(table.names), unique=True)):
            text_codes(table, name)
    taken = table.take(_rows(data, table.n_rows))
    again = taken.take(_rows(data, taken.n_rows)) if taken.n_rows else taken
    labels = np.asarray(["lo" if v < 0 else "hi" for v in taken.columns["x"].tolist()], dtype=object)
    published = suppress_identifiers(taken, {"x": labels}, {"x": CategoricalKind(("hi", "lo"))})
    redeclared = suppress_identifiers(taken, kinds={"d": CategoricalKind(("F", "M", " 1 ", "Q"))})
    for derived in (table, taken, again, published, redeclared):
        _assert_encodings_are_fresh(derived)


@settings(max_examples=100, deadline=None)
@given(decoded_tables(), st.integers(1, 3), st.floats(0, 0.9))
def test_global_recoding_carries_fresh_encodings(table, k, budget):
    try:
        release, _ = anonymize_generalization(table, CARRY_HIERARCHIES, k, max_suppression_fraction=budget)
    except Unsatisfiable:
        return
    _assert_encodings_are_fresh(release.table)


@settings(max_examples=60, deadline=None)
@given(decoded_tables(max_rows=4), st.integers(1, 2))
def test_minimal_recoding_carries_fresh_encodings(table, k):
    try:
        release, _ = minimal_generalization(table, CARRY_HIERARCHIES, k)
    except Unsatisfiable:
        return
    _assert_encodings_are_fresh(release.table)


@settings(max_examples=100, deadline=None)
@given(decoded_tables(), st.integers(0, 2**16), st.sampled_from(["vector", "per_attribute"]))
def test_mdav_and_permutation_carry_fresh_encodings(table, seed, mode):
    if table.n_rows < 2:
        return
    _, release = mdav_microaggregate(table, ["x", "t"], 2)
    _assert_encodings_are_fresh(release.table)
    _assert_encodings_are_fresh(cluster_and_permute(table, ["x", "t"], 2, seed, mode=mode).table)


@st.composite
def partitioned_tables(draw):
    """(table, partition): a decoded table and up to four classes of any rows."""
    table = draw(decoded_tables())
    labels = draw(st.lists(st.integers(0, 3), min_size=table.n_rows, max_size=table.n_rows))
    return table, Partition.of_labels(labels)


def _class_cases():
    """A class of -0.0 and one of 0.0 (their means both read "0"), one mean
    (1.0) in two classes ({1, 1} and {0.5, 1.5}), and a mode tie in each
    class of two."""
    x = [-0.0, 0.0, 1.0, 1.0, 0.5, 1.5]
    t = ["\u00e9", "a", "1", "1.0", "a", "\u00c5"]
    table = make_table(CARRY_SCHEMA, {"pid": [f"p{i}" for i in range(6)], "x": x, "t": t, "d": ["F"] * 6})
    return table, Partition([[0], [1], [2, 3], [4, 5]])


@settings(max_examples=200, deadline=None)
@given(partitioned_tables())
@example(inputs=_class_cases())
def test_microaggregation_hands_over_the_codes_its_columns_encode_to(inputs):
    # the release carries its masked columns' codes, built per class, which
    # must be what encoding the masked column itself gives
    table, partition = inputs
    masked = kanon.microaggregate_partition(table, ["x", "t"], partition).table
    for name in ("x", "t"):
        distinct, codes = masked._text_codes[name]
        want_distinct, want_codes = microdata._encode_text(masked, name)
        assert distinct.tolist() == want_distinct.tolist(), name
        assert codes.tolist() == want_codes.tolist(), name
    _assert_encodings_are_fresh(masked)


@settings(max_examples=100, deadline=None)
@given(decoded_tables())
def test_the_decode_encodes_every_column_but_the_identifiers(table):
    assert sorted(table._text_codes) == ["d", "t", "x"]
    _assert_encodings_are_fresh(table)


@settings(max_examples=100, deadline=None)
@given(decoded_tables(), st.integers(0, 2**16), st.data())
def test_derived_tables_and_read_releases_carry_fresh_encodings(table, seed, data):
    """Each derived table holds the codes of every column it carries, before any is read."""
    labels = data.draw(st.lists(st.integers(0, 2), min_size=table.n_rows, max_size=table.n_rows))
    release = anatomize(table, Partition.of_labels(labels), 1, seed)
    derived = [
        (release.table, ["group_id", "t", "x"]),  # anatomy's QI side: the source's codes and its group ids'
        (release.conf_table, ["d", "group_id"]),  # its confidential side: the same at the shuffled rows
        (table.with_column("x", -table.columns["x"]), ["d", "t"]),  # every column but the replaced one
        (table.drop_columns(["pid", "t"]), ["d", "x"]),
    ]
    for derived_table, carried in derived:
        assert sorted(derived_table._text_codes) == carried
    with tempfile.TemporaryDirectory() as directory, tempfile.TemporaryDirectory() as recoded_directory:
        write_release(release, directory)
        read = read_release(directory)
        recoded, _ = anonymize_generalization(suppress_identifiers(table), CARRY_HIERARCHIES, 1)
        write_release(recoded, recoded_directory)
        read_recoded = read_release(recoded_directory).table
    read_back = [  # with the sidecar's row ids
        (read.table, ["group_id", "t", "x"]),
        (read.conf_table, ["d", "group_id"]),
        (read_recoded, ["d", "t", "x"]),
    ]
    for derived_table, carried in read_back:
        assert sorted(derived_table._text_codes) == carried
    for derived_table, _ in derived + read_back:
        _assert_encodings_are_fresh(derived_table)
    assert read.table.row_ids.tolist() == release.table.row_ids.tolist()
    assert read_recoded.row_ids.tolist() == recoded.table.row_ids.tolist()


# --------------------------------------------------------------------------
# serialization from the encodings
# --------------------------------------------------------------------------

TEXT = AttributeSchema("t", "quasi_identifier", CategoricalKind(("a",)))
NUMBER = AttributeSchema("v", "quasi_identifier", NumericKind(0, 1))
# texts csv quotes (",", '"', a lone "\r" or "\n", a one-field row's "") and
# texts it writes as they are (spaces, NFD text)
EDGE_TEXT = ["", "\r", "\n", "\r\n", '"', 'say "hi"', ",", " lead", "trail ", " ", NFD_E, "\u00e9", "plain"]
EDGE_NUMBERS = [-0.0, 0.0, 2.0**53, 2.0**53 + 2, 5e-324, 0.1, -1e300, math.nan, math.inf, -math.inf]


def _raw(schema, columns):
    """A table from the raw constructor: serialization does not check domains."""
    n = len(next(iter(columns.values()))) if columns else 0
    cols = {name: np.asarray(values, dtype=object if name == "t" else np.float64) for name, values in columns.items()}
    return MicrodataTable(schema, cols, np.arange(n))


def test_serialize_table_edge_texts_write_the_reference_bytes():
    texts = EDGE_TEXT + EDGE_TEXT[::-1]
    numbers = (EDGE_NUMBERS * 3)[: len(texts)]
    tables = [
        _raw((TEXT,), {"t": texts}),  # one column: its empty cells are written ""
        _raw((TEXT,), {"t": [""]}),
        _raw((NUMBER,), {"v": EDGE_NUMBERS}),
        _raw((TEXT, NUMBER), {"t": texts, "v": numbers}),
        _raw((NUMBER, TEXT), {"v": numbers, "t": texts}),
        _raw((TEXT,), {"t": []}),  # no rows
        _raw((TEXT, NUMBER), {"t": [], "v": []}),
        _raw((), {}),  # no columns
    ]
    for table in tables:
        assert serialize_table(table) == _reference_serialize_table(table)
    # the same texts, encoded by the decode instead of on first read
    domain = CategoricalKind(tuple(dict.fromkeys(unicodedata.normalize("NFC", t) for t in EDGE_TEXT)))
    for schema in [(AttributeSchema("t", "quasi_identifier", domain),),
                   (AttributeSchema("t", "quasi_identifier", domain), NUMBER)]:
        columns = {"t": texts, "v": [min(max(v, 0.0), 1.0) if v == v else 0.5 for v in numbers]}
        made = make_table(schema, {a.name: columns[a.name] for a in schema})
        assert sorted(made._text_codes) == sorted(made.names)
        assert serialize_table(made) == _reference_serialize_table(made)


# --------------------------------------------------------------------------
# the decode's sweep faults where its per-cell path does
# --------------------------------------------------------------------------

FAULT_SCHEMA = (
    AttributeSchema("x", "quasi_identifier", NumericKind(-5, 5)),
    AttributeSchema("c", "quasi_identifier", CategoricalKind(("a", "\u00e9", "", "x,y"))),
    AttributeSchema("s", "confidential", CategoricalKind(("F", "M"))),
)
GOOD_CELLS = {"x": X_TEXT + ["\x1c1", "1_0", "\u20031"], "c": ["a", "\u00e9", NFD_E, "x,y"], "s": ["F", "M"]}
# missing, unparsable, non-finite and out-of-domain cells
BAD_CELLS = {
    "x": ["", "  ", "abc", "0x10", "nan", "-inf", "Infinity", "1e400", "6", "-5.0000001"],
    "c": ["", " ", "zz", "a "],
    "s": ["", "f", "FM"],
}


def _outcome(f, *args):
    try:
        return f(*args), None
    except Exception as e:  # the outcome under test, compared below
        return None, e


def _per_cell(f, *args):
    """``f`` with the sweep switched off, so every distinct cell takes the per-cell path."""
    with mock.patch.object(microdata, "_swept", lambda attr, distinct: None):
        return _outcome(f, *args)


def _assert_same_outcome(f, *args):
    want, want_error = _per_cell(f, *args)
    got, got_error = _outcome(f, *args)
    assert type(got_error) is type(want_error), (want_error, got_error)
    if want_error is not None:
        assert str(got_error) == str(want_error)
        for field in ("row", "attribute"):
            assert getattr(got_error, field, None) == getattr(want_error, field, None)
        return
    assert got.schema == want.schema
    for name in want.names:
        mine, theirs = got.columns[name], want.columns[name]
        assert mine.dtype == theirs.dtype
        if mine.dtype == object:
            assert [(type(v), v) for v in mine.tolist()] == [(type(v), v) for v in theirs.tolist()]
        else:
            assert mine.tobytes() == theirs.tobytes()  # the sign of zero counts
        assert text_codes(got, name)[0].tolist() == text_codes(want, name)[0].tolist()
        assert text_codes(got, name)[1].tolist() == text_codes(want, name)[1].tolist()


@st.composite
def faulty_csv(draw):
    """csv text over FAULT_SCHEMA: some bad cells, maybe a short or a long row."""
    header = draw(st.permutations([a.name for a in FAULT_SCHEMA]))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        rows.append([draw(st.sampled_from(BAD_CELLS[name] if draw(st.integers(0, 5)) == 0 else GOOD_CELLS[name]))
                     for name in header])
    if rows and draw(st.booleans()):
        i = draw(st.integers(0, len(rows) - 1))
        rows[i] = rows[i][:-1] if draw(st.booleans()) else rows[i] + ["extra"]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


@settings(max_examples=400, deadline=None)
@given(faulty_csv())
def test_load_table_sweep_faults_like_the_per_cell_path(text):
    _assert_same_outcome(load_table, text, FAULT_SCHEMA)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_make_table_sweep_faults_like_the_per_cell_path(data):
    n = data.draw(st.integers(0, 6))
    x_cells = st.sampled_from([1.0, -0.0, 0.0, 2.5, -5.0, 5.0, float("nan"), float("inf"), -float("inf"), 6.0, -1e300])
    c_cells = st.sampled_from(["a", "\u00e9", NFD_E, "", "x,y", "zz", " ", 5])
    columns = {
        "x": data.draw(st.lists(x_cells, min_size=n, max_size=n)),
        "c": data.draw(st.lists(c_cells, min_size=n, max_size=n)),
        "s": data.draw(st.lists(st.sampled_from(["F", "M", "f"]), min_size=n, max_size=n)),
    }
    _assert_same_outcome(make_table, FAULT_SCHEMA, columns)
