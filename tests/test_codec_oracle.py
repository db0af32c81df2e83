"""The column-wise cell codec against frozen copies of the per-cell reference.

``_reference_make_table``, ``_reference_load_table`` and
``_reference_serialize_table`` are the per-cell implementations the codec in
``sdckit.microdata`` replaced, kept verbatim. On every input, faulty ones
included, the codec must raise the same exception (type, message, row,
attribute) or build a bitwise-identical table, and write the same bytes.
"""

import csv
import io
import math
import unicodedata
from typing import Mapping, Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdckit.errors import DomainViolation, MalformedCsv, MissingColumn
from sdckit.microdata import (
    AttributeSchema,
    CategoricalKind,
    MicrodataTable,
    NumericKind,
    canonical_number,
    load_table,
    make_table,
    nfc,
    schema_from_descriptor,
    schema_to_descriptor,
    serialize_table,
)

# -- the per-cell reference ---------------------------------------------------------


def _reference_make_table(
    schema: Sequence[AttributeSchema],
    columns: Mapping[str, Sequence],
    row_ids: Sequence[int] | None = None,
    validate: bool = True,
) -> MicrodataTable:
    schema = tuple(schema)
    cols: dict[str, np.ndarray] = {}
    n = None
    for a in schema:
        if a.name not in columns:
            raise MissingColumn(a.name)
        raw = list(columns[a.name])
        if n is None:
            n = len(raw)
        if a.is_numeric:
            col = np.asarray(raw, dtype=np.float64)
        else:
            col = np.asarray([nfc(str(v)) for v in raw], dtype=object)
        cols[a.name] = col
    if validate:
        for i in range(n or 0):
            for a in schema:
                _reference_check_cell(i, a, cols[a.name][i])
    ids = np.arange(n or 0, dtype=np.int64) if row_ids is None else np.asarray(list(row_ids), dtype=np.int64)
    return MicrodataTable(schema, cols, ids)


def _reference_check_cell(row: int, attr: AttributeSchema, value) -> None:
    if isinstance(attr.kind, NumericKind):
        v = float(value)
        if not math.isfinite(v):
            raise DomainViolation(row, attr.name, f"non-finite value {value!r}")
        if not (attr.kind.lo <= v <= attr.kind.hi):
            raise DomainViolation(
                row, attr.name, f"value {canonical_number(v)} outside [{attr.kind.lo}, {attr.kind.hi}]"
            )
    else:
        if value not in attr.kind.members:
            raise DomainViolation(row, attr.name, f"value {value!r} not in declared domain")


def _reference_load_table(csv_data: bytes | str, schema_descriptor) -> MicrodataTable:
    if isinstance(schema_descriptor, Mapping):
        schema = schema_from_descriptor(schema_descriptor)
    else:
        schema = tuple(schema_descriptor)
    if isinstance(csv_data, bytes):
        try:
            text = csv_data.decode("utf-8")
        except UnicodeDecodeError as e:
            raise MalformedCsv(f"input is not valid utf-8: {e}") from e
    else:
        text = csv_data
    try:
        rows = list(csv.reader(io.StringIO(text)))
    except csv.Error as e:
        raise MalformedCsv(str(e)) from e
    if not rows:
        raise MalformedCsv("empty input: no header row")
    header = [nfc(h) for h in rows[0]]
    names = [a.name for a in schema]
    for name in names:
        if name not in header:
            raise MissingColumn(name)
    if len(set(header)) != len(header):
        raise MalformedCsv("duplicate column names in header")
    for h in header:
        if h not in names:
            raise MalformedCsv(f"unexpected column {h!r} not declared in schema")
    col_of = {name: header.index(name) for name in names}

    body = rows[1:]
    raw_cols: dict[str, list] = {name: [] for name in names}
    for i, r in enumerate(body):
        if len(r) != len(header):
            raise MalformedCsv(f"row {i}: expected {len(header)} fields, got {len(r)}")
        for a in schema:
            cell = r[col_of[a.name]]
            if isinstance(a.kind, NumericKind):
                stripped = cell.strip()
                if not stripped:
                    raise DomainViolation(i, a.name, "missing value")
                try:
                    v = float(stripped)
                except ValueError:
                    raise DomainViolation(i, a.name, f"cannot parse {cell!r} as a number") from None
                _reference_check_cell(i, a, v)
                raw_cols[a.name].append(v)
            else:
                v = nfc(cell)
                if not v:
                    raise DomainViolation(i, a.name, "missing value")
                _reference_check_cell(i, a, v)
                raw_cols[a.name].append(v)

    cols = {
        a.name: (
            np.asarray(raw_cols[a.name], dtype=np.float64)
            if a.is_numeric
            else np.asarray(raw_cols[a.name], dtype=object)
        )
        for a in schema
    }
    return MicrodataTable(schema, cols, np.arange(len(body), dtype=np.int64))


def _reference_serialize_table(table: MicrodataTable) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n")
    writer.writerow(table.names)
    for i in range(table.n_rows):
        out = []
        for a in table.schema:
            v = table.columns[a.name][i]
            out.append(canonical_number(v) if a.is_numeric else str(v))
        writer.writerow(out)
    return buf.getvalue().encode("utf-8")


# -- comparison ---------------------------------------------------------------------


def _outcome(f, *args):
    try:
        return f(*args), None
    except Exception as e:  # the outcome under test, compared below
        return None, e


def _assert_identical(table_a: MicrodataTable, table_b: MicrodataTable):
    assert table_a.schema == table_b.schema
    assert table_a.row_ids.dtype == table_b.row_ids.dtype
    assert table_a.row_ids.tolist() == table_b.row_ids.tolist()
    for a in table_a.schema:
        col_a, col_b = table_a.columns[a.name], table_b.columns[a.name]
        assert col_a.dtype == col_b.dtype
        if a.is_numeric:
            assert col_a.tobytes() == col_b.tobytes()  # bitwise: the sign of zero counts
        else:
            assert [(type(v), v) for v in col_a] == [(type(v), v) for v in col_b]


def _assert_same_outcome(reference, codec, *args):
    want, want_error = _outcome(reference, *args)
    got, got_error = _outcome(codec, *args)
    if want_error is not None or got_error is not None:
        assert type(got_error) is type(want_error), (want_error, got_error)
        assert str(got_error) == str(want_error)
        for field in ("row", "attribute", "column"):
            assert getattr(got_error, field, None) == getattr(want_error, field, None)
        return
    _assert_identical(want, got)
    assert serialize_table(got) == _reference_serialize_table(want)


# -- inputs with injected faults ------------------------------------------------------

NFD_E = unicodedata.normalize("NFD", "\u00e9")  # "e" and a combining accent
ANGSTROM = "\u212b"  # the Angstrom sign; NFC-normalizes to the declared "\u00c5"
SCHEMA = (
    AttributeSchema("x", "quasi_identifier", NumericKind(-5, 5)),
    AttributeSchema("big", "quasi_identifier", NumericKind(0, 2.0**60)),
    AttributeSchema("c", "quasi_identifier", CategoricalKind(("a", "\u00e9", "x,y", 'q"t', "two\nlines", "\u00c5", ""))),
    AttributeSchema("s", "confidential", CategoricalKind(("F", "M"))),
)
DESCRIPTOR = schema_to_descriptor(SCHEMA)

NUMBER_TEXT = {
    "x": st.one_of(
        st.floats(-5, 5).map(repr),
        st.integers(-5, 5).map(str),
        st.sampled_from(["-0", "0.0", " 3 ", "1e0", "1_0", "-5", "5"]),
    ),
    "big": st.one_of(
        st.integers(0, 2**60).map(str),
        st.sampled_from(["9007199254740992", "9007199254740993.0", "5e-324", "1e-310", "1.5"]),
    ),
}
BAD_NUMBER_TEXT = st.sampled_from(
    ["", "  ", "abc", "0x10", "nan", "-nan", "inf", "-Infinity", "1e400", "6", "-5.0000001", "2e18"]
)
CATEGORY_TEXT = {
    "c": st.sampled_from(["a", "\u00e9", NFD_E, "x,y", 'q"t', "two\nlines", "\u00c5", ANGSTROM]),
    "s": st.sampled_from(["F", "M"]),
}
BAD_CATEGORY_TEXT = st.sampled_from(["", " ", "zz", "a ", "f", "x, y"])


@st.composite
def csv_inputs(draw):
    """(csv text, descriptor): a few rows, some bad cells, maybe a ragged row."""
    header = draw(st.permutations([a.name for a in SCHEMA]))
    n = draw(st.integers(0, 6))
    rows = []
    for _ in range(n):
        row = []
        for name in header:
            good = NUMBER_TEXT[name] if name in NUMBER_TEXT else CATEGORY_TEXT[name]
            bad = BAD_NUMBER_TEXT if name in NUMBER_TEXT else BAD_CATEGORY_TEXT
            row.append(draw(bad) if draw(st.integers(0, 9)) == 0 else draw(good))
        rows.append(row)
    if rows and draw(st.booleans()):
        i = draw(st.integers(0, n - 1))
        rows[i] = rows[i][:-1] if draw(st.booleans()) else rows[i] + ["extra"]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


NUMBER_VALUE = st.one_of(
    st.floats(-5, 5),
    st.sampled_from([-0.0, 0.0, 5.0, -5.0]),
)
BAD_NUMBER_VALUE = st.sampled_from([math.nan, math.inf, -math.inf, 6.0, -1e300, None, "abc"])
CATEGORY_VALUE = st.sampled_from(["a", NFD_E, "x,y", ANGSTROM, ""])
BAD_CATEGORY_VALUE = st.sampled_from(["zz", " ", "a ", 5])


@st.composite
def python_columns(draw):
    """Equal-length python columns for x and c, some cells faulty."""
    n = draw(st.integers(0, 6))

    def column(good, bad):
        return [draw(bad) if draw(st.integers(0, 7)) == 0 else draw(good) for _ in range(n)]

    return {"x": column(NUMBER_VALUE, BAD_NUMBER_VALUE), "c": column(CATEGORY_VALUE, BAD_CATEGORY_VALUE)}


# -- oracle tests ---------------------------------------------------------------------


@settings(max_examples=400, deadline=None)
@given(csv_inputs())
def test_load_table_matches_the_per_cell_reference(text):
    _assert_same_outcome(_reference_load_table, load_table, text, DESCRIPTOR)
    _assert_same_outcome(_reference_load_table, load_table, text.encode("utf-8"), SCHEMA)


@settings(max_examples=300, deadline=None)
@given(python_columns(), st.booleans())
def test_make_table_matches_the_per_cell_reference(columns, as_arrays):
    schema = (SCHEMA[0], SCHEMA[2])
    if as_arrays and all(v is not None and not isinstance(v, str) for v in columns["x"]):
        columns = {"x": np.asarray(columns["x"], dtype=np.float64), "c": columns["c"]}
    _assert_same_outcome(_reference_make_table, make_table, schema, columns)


def test_ragged_row_is_reported_only_after_earlier_bad_cells():
    cases = {
        "x,big,c,s\r\n1,2,a,F\r\n1,2\r\n9,2,a,F\r\n": (MalformedCsv, None),  # ragged before the bad cell
        "x,big,c,s\r\n9,2,a,F\r\n1,2\r\n": (DomainViolation, 0),  # bad cell before the ragged row
        "x,big,c,s\r\n1,2,zz,F,extra\r\n": (MalformedCsv, None),  # ragged and bad in one row
    }
    for text, (error, row) in cases.items():
        _assert_same_outcome(_reference_load_table, load_table, text, DESCRIPTOR)
        with pytest.raises(error) as e:
            load_table(text, DESCRIPTOR)
        assert getattr(e.value, "row", None) == row


def test_first_bad_cell_is_found_row_major_across_columns():
    cases = {
        "x,big,c,s\r\n1,2,a,F\r\n9,2,a,F\r\n1,2,a,Q\r\n": (1, "x"),
        # s, last in the schema, goes bad in an earlier row than x
        "x,big,c,s\r\n1,2,a,Q\r\n9,2,a,F\r\n": (0, "s"),
        "x,big,c,s\r\n1,2,zz,Q\r\n": (0, "c"),
    }
    for text, where in cases.items():
        _assert_same_outcome(_reference_load_table, load_table, text, DESCRIPTOR)
        with pytest.raises(DomainViolation) as e:
            load_table(text, DESCRIPTOR)
        assert (e.value.row, e.value.attribute) == where


def test_short_make_table_column_raises_the_length_error():
    schema = (SCHEMA[0], SCHEMA[2])
    with pytest.raises(IndexError):
        _reference_make_table(schema, {"x": [1.0, 2.0], "c": ["a"]})
    with pytest.raises(ValueError, match="inconsistent lengths"):
        make_table(schema, {"x": [1.0, 2.0], "c": ["a"]})
    with pytest.raises(ValueError, match="inconsistent lengths"):
        make_table(schema, {"x": [1.0], "c": ["a", "a"]})


def test_make_table_leaves_the_callers_array_writable():
    values = np.asarray([1.0, -0.0])
    table = make_table((SCHEMA[0],), {"x": values})
    values[0] = 2.0
    assert table.columns["x"].tolist() == [1.0, -0.0]
    assert math.copysign(1.0, table.columns["x"][1]) == -1.0


EDGE_FLOATS = [-0.0, 0.0, 2.0**53, 2.0**53 + 2, 2.0**60, 5e-324, 1e-310, 0.1, -1e300, math.nan, math.inf, -math.inf]
EDGE_TEXT = ["a,b", 'say "hi"', "two\nlines", "", " lead", "\r", "\u00e9", NFD_E]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS)),
            st.one_of(st.text(), st.sampled_from(EDGE_TEXT)),
        ),
        max_size=8,
    )
)
def test_serialize_table_writes_the_reference_bytes(rows):
    schema = (
        AttributeSchema("v", "quasi_identifier", NumericKind(0, 1)),
        AttributeSchema("t", "quasi_identifier", CategoricalKind(("a",))),
    )
    # built directly: serialization does not check domains
    table = MicrodataTable(
        schema,
        {
            "v": np.asarray([v for v, _ in rows], dtype=np.float64),
            "t": np.asarray([t for _, t in rows], dtype=object),
        },
        np.arange(len(rows)),
    )
    want, want_error = _outcome(_reference_serialize_table, table)
    got, got_error = _outcome(serialize_table, table)
    assert type(got_error) is type(want_error)
    assert got == want


def test_serialize_table_edge_values():
    n = len(EDGE_FLOATS)
    table = MicrodataTable(
        (
            AttributeSchema("v", "quasi_identifier", NumericKind(0, 1)),
            AttributeSchema("t", "quasi_identifier", CategoricalKind(("a",))),
        ),
        {"v": np.asarray(EDGE_FLOATS), "t": np.asarray((EDGE_TEXT * 2)[:n], dtype=object)},
        np.arange(n),
    )
    assert serialize_table(table) == _reference_serialize_table(table)
