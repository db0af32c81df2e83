"""Microdata model: attribute schemas, tables, generalization hierarchies, releases.

Tables are immutable after construction. Numeric cells are stored as float64,
categorical cells as NFC-normalized text. Every record carries an internal
row id that masking operations preserve and serialization never writes out.
Every masking mechanism builds its published table in one
``suppress_identifiers`` call.

Each column is decoded once per distinct cell, straight to its one text
encoding (``text_codes``): ``load_table`` and ``make_table`` keep it for
every column but the identifiers, every table derived from another (``take``,
``suppress_identifiers``, ``drop_columns``, ``with_column``) carries it (taken
text codes keep only the texts still present), and ``serialize_table``
writes from it, so no derived table hashes or formats a row again.
``value_codes`` numbers a column's values over one support for one or
several tables, from those encodings; whatever compares values reads it.

``load_table`` drops one leading byte-order mark. A text with no quote, NUL
or lone CR, no line longer than ``csv.field_size_limit()`` and no ragged row
(every text ``serialize_table`` writes unquoted) is split column-wise, with
no object per row; any other text is read by ``csv.reader``, the same way.
"""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
import re
import unicodedata
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, compress, count, repeat
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    DomainViolation,
    LevelOutOfRange,
    MalformedCsv,
    MissingColumn,
    MissingPartition,
    SearchSpaceTooLarge,
    UnknownAttribute,
    UnknownValue,
)

ROLES = ("identifier", "quasi_identifier", "confidential", "non_confidential")


# ``nfc(text)``: ``text`` in Unicode normal form C; a partial, so ``map(nfc, ...)``
# runs no Python frame per cell
nfc = partial(unicodedata.normalize, "NFC")


def canonical_number(value: float) -> str:
    """Shortest text form that parses back to exactly the same float."""
    v = float(value)
    if v.is_integer() and abs(v) < 2**53:
        return str(int(v))
    return repr(v)


# --------------------------------------------------------------------------
# schema
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class NumericKind:
    lo: float
    hi: float

    def __post_init__(self):
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("numeric domain bounds must be finite")
        if self.lo > self.hi:
            raise ValueError(f"numeric domain has lo > hi: [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo


@dataclass(frozen=True)
class CategoricalKind:
    values: tuple[str, ...]

    def __post_init__(self):
        norm = tuple(map(nfc, map(str, self.values)))
        if not norm:
            raise ValueError("categorical domain is empty")
        members = frozenset(norm)
        if len(members) != len(norm):
            raise ValueError("categorical domain has duplicate values")
        object.__setattr__(self, "values", norm)
        # a plain attribute, not a field: equality and hashing stay on ``values``
        object.__setattr__(self, "members", members)


@dataclass(frozen=True)
class AttributeSchema:
    name: str
    role: str
    kind: NumericKind | CategoricalKind

    def __post_init__(self):
        if self.role not in ROLES:
            raise ValueError(f"unknown role {self.role!r}; expected one of {ROLES}")
        object.__setattr__(self, "name", nfc(self.name))

    @property
    def is_numeric(self) -> bool:
        return isinstance(self.kind, NumericKind)


def _is_number(value) -> bool:
    """Whether a deserialized value is a real number; a bool is not."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_number_list(value) -> bool:
    return isinstance(value, list) and all(map(_is_number, value))


def schema_from_descriptor(descriptor: Mapping[str, Mapping[str, Any]]) -> tuple[AttributeSchema, ...]:
    """Build a schema from the JSON sidecar form: name -> {role, kind, domain}.

    A descriptor or attribute spec that is not a mapping, numeric bounds that
    are not numbers, or categorical values that are not a list raise
    ValueError naming the attribute and the field.
    """
    if not isinstance(descriptor, Mapping):
        raise ValueError("schema descriptor must be an object of attribute name -> spec")
    attrs = []
    for name, spec in descriptor.items():
        if not isinstance(spec, Mapping):
            raise ValueError(f"attribute {name!r}: spec must be an object")
        role = spec.get("role")
        kind_name = spec.get("kind")
        if kind_name == "numeric":
            for bound in ("min", "max"):
                if not _is_number(spec.get(bound)):
                    raise ValueError(f"attribute {name!r}: field {bound!r} must be a number")
            kind: NumericKind | CategoricalKind = NumericKind(spec["min"], spec["max"])
        elif kind_name == "categorical":
            if not isinstance(spec.get("values"), (list, tuple)):
                raise ValueError(f"attribute {name!r}: field 'values' must be a list")
            kind = CategoricalKind(tuple(spec["values"]))
        else:
            raise ValueError(f"attribute {name!r}: unknown kind {kind_name!r}")
        attrs.append(AttributeSchema(name=name, role=role, kind=kind))
    if not attrs:
        raise ValueError("schema descriptor declares no attributes")
    return tuple(attrs)


def schema_to_descriptor(schema: Sequence[AttributeSchema]) -> dict[str, dict[str, Any]]:
    out: dict[str, dict[str, Any]] = {}
    for a in schema:
        if isinstance(a.kind, NumericKind):
            out[a.name] = {"role": a.role, "kind": "numeric", "min": a.kind.lo, "max": a.kind.hi}
        else:
            out[a.name] = {"role": a.role, "kind": "categorical", "values": list(a.kind.values)}
    return out


# --------------------------------------------------------------------------
# table
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class MicrodataTable:
    schema: tuple[AttributeSchema, ...]
    columns: dict[str, np.ndarray]
    row_ids: np.ndarray

    def __post_init__(self):
        names = [a.name for a in self.schema]
        if len(set(names)) != len(names):
            raise ValueError("duplicate attribute names in schema")
        if set(self.columns) != set(names):
            raise ValueError("columns do not match schema attribute names")
        n = None
        for name in names:
            col = np.asarray(self.columns[name])
            if col.ndim != 1:
                raise ValueError(f"column {name!r} is not one-dimensional")
            if n is None:
                n = col.shape[0]
            elif col.shape[0] != n:
                raise ValueError("columns have inconsistent lengths")
            col.setflags(write=False)
            self.columns[name] = col
        ids = np.asarray(self.row_ids, dtype=np.int64)
        if ids.shape[0] != (n or 0):
            raise ValueError("row_ids length does not match table")
        ordered = np.sort(ids)  # not np.unique, whose plain form imports numpy.ma
        if (ordered[1:] == ordered[:-1]).any():
            raise ValueError("row_ids must be unique")
        ids.setflags(write=False)
        object.__setattr__(self, "row_ids", ids)
        # a plain attribute, not a field: each column's ``text_codes``
        object.__setattr__(self, "_text_codes", {})

    # -- introspection ------------------------------------------------------

    @property
    def n_rows(self) -> int:
        return int(self.row_ids.shape[0])

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.schema)

    def attribute(self, name: str) -> AttributeSchema:
        for a in self.schema:
            if a.name == name:
                return a
        raise UnknownAttribute(name)

    def has_attribute(self, name: str) -> bool:
        return any(a.name == name for a in self.schema)

    def names_with_role(self, role: str) -> tuple[str, ...]:
        return tuple(a.name for a in self.schema if a.role == role)

    @property
    def qi_names(self) -> tuple[str, ...]:
        return self.names_with_role("quasi_identifier")

    @property
    def identifier_names(self) -> tuple[str, ...]:
        return self.names_with_role("identifier")

    def column(self, name: str) -> np.ndarray:
        self.attribute(name)
        return self.columns[name]

    def row(self, i: int) -> tuple:
        return tuple(self.columns[a.name][i] for a in self.schema)

    # -- derivation ---------------------------------------------------------

    def take(self, indices: Iterable[int]) -> "MicrodataTable":
        """The rows at ``indices``, in that order, carrying this table's text
        codes (see ``_carry``)."""
        idx = np.asarray(indices if isinstance(indices, np.ndarray) else list(indices), dtype=np.int64)
        cols = {name: self.columns[name][idx] for name in self.names}
        return _carry(self, MicrodataTable(self.schema, cols, self.row_ids[idx]), idx)

    def drop_columns(self, names: Iterable[str]) -> "MicrodataTable":
        drop = set(names)
        keep = tuple(a for a in self.schema if a.name not in drop)
        cols = {a.name: self.columns[a.name] for a in keep}
        return _carry(self, MicrodataTable(keep, cols, self.row_ids))

    def with_column(self, name: str, values: np.ndarray, kind=None) -> "MicrodataTable":
        """Replace one column, optionally changing its declared kind; the others keep their text codes."""
        old = self.attribute(name)
        new_attr = AttributeSchema(name, old.role, kind or old.kind)
        schema = tuple(new_attr if a.name == name else a for a in self.schema)
        cols = {**self.columns, name: np.asarray(values)}
        return _carry(self, MicrodataTable(schema, cols, self.row_ids))

    def equals(self, other: "MicrodataTable") -> bool:
        """Cell-wise and schema equality; internal row ids are not compared."""
        if self.schema != other.schema or self.n_rows != other.n_rows:
            return False
        for a in self.schema:
            mine, theirs = self.columns[a.name], other.columns[a.name]
            if a.is_numeric:
                if not np.array_equal(mine.astype(float), theirs.astype(float)):
                    return False
            else:
                if list(mine) != list(theirs):
                    return False
        return True


def make_table(
    schema: Sequence[AttributeSchema],
    columns: Mapping[str, Sequence],
    row_ids: Sequence[int] | None = None,
) -> MicrodataTable:
    """Construct a table from python sequences, checking every cell against its domain;
    the first bad cell in row-major order raises DomainViolation."""
    schema = tuple(schema)
    cells: dict[str, np.ndarray] = {}
    for a in schema:
        if a.name not in columns:
            raise MissingColumn(a.name)
        if a.is_numeric:
            cells[a.name] = np.array(columns[a.name], dtype=np.float64)
        else:
            cells[a.name] = np.asarray([str(v) for v in columns[a.name]], dtype=object)
    n = len(cells[schema[0].name]) if schema else 0
    ids = np.arange(n, dtype=np.int64) if row_ids is None else np.asarray(list(row_ids), dtype=np.int64)
    return _decode_table(schema, cells, _given_value, ids)


# --------------------------------------------------------------------------
# cell codec: the one place cell text is read and written
# --------------------------------------------------------------------------


def text_codes(table: MicrodataTable, name: str) -> tuple[np.ndarray, np.ndarray]:
    """The one text encoding of a column: its distinct canonical texts, sorted,
    and each row's index among them, as decoded or carried, else made from
    the column on first read and kept on the table. A numeric value reads as
    its ``canonical_number`` (-0.0 and 0.0 read "0"), a text cell as its ``str``."""
    if name not in table._text_codes:
        table._text_codes[name] = _encode_text(table, name)
    return table._text_codes[name]


def _encode_text(table: MicrodataTable, name: str) -> tuple[np.ndarray, np.ndarray]:
    """A column's text codes made from the column itself, where no decode or
    carry left them: an identifier, or a column the raw constructor placed.
    A text cell reads as its ``str``: cells equal as values (1, True) may differ as text."""
    numeric, column = table.attribute(name).is_numeric, table.columns[name]  # raises UnknownAttribute
    if numeric:
        values, row_of = factorize(np.asarray(column, dtype=float))
        return text_codes_of(list(map(canonical_number, values.tolist())), row_of)
    return text_codes_of(*factorize(np.asarray(list(map(str, column.tolist())), dtype=object)))


def _keep_text_codes(table: MicrodataTable, name: str, texts: Sequence[str], row_of: np.ndarray) -> None:
    """Keep column ``name``'s ``text_codes_of(texts, row_of)`` on ``table``: the decode's and ``take``'s."""
    table._text_codes[name] = text_codes_of(texts, row_of)


def text_codes_of(texts: Sequence[str], row_of: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Text codes from a factorized text column: ``texts[c]`` is the text of
    code c and ``row_of`` each row's code. Returns the sorted distinct texts
    that some row has (a read-only object array) and each row's index among
    them (read-only int64). Equal texts of several codes become one, and a
    text no row has is dropped."""
    present = np.bincount(row_of, minlength=len(texts)) > 0
    distinct = sorted(set(compress(texts, present.tolist())))
    position = dict(zip(distinct, count()))
    code_of = np.fromiter(map(position.get, texts, repeat(0)), np.int64, len(texts))
    distinct, codes = np.asarray(distinct, dtype=object), code_of[row_of]
    distinct.setflags(write=False)
    codes.setflags(write=False)
    return distinct, codes


def _carry(source: MicrodataTable, target: MicrodataTable, rows=None) -> MicrodataTable:
    """``target``, given ``source``'s text codes of each column the two hold
    under one name and kind: of ``source``'s rows at positions ``rows`` when
    given (only the texts still present), else of a column array they share."""
    for name in target.names:
        if name in source._text_codes and source.attribute(name).kind == target.attribute(name).kind:
            distinct, codes = source._text_codes[name]
            if rows is not None:
                _keep_text_codes(target, name, distinct, codes[rows])
            elif target.columns[name] is source.columns[name]:
                target._text_codes[name] = (distinct, codes)
    return target


def value_codes(tables: Sequence[MicrodataTable], name: str) -> tuple[np.ndarray, list[np.ndarray]]:
    """One column of several tables over one sorted support, from their
    ``text_codes``: the support and each table's codes into it. When the
    column is numeric in every table the support is its distinct values as
    floats, parsed from their canonical texts (exact; -0.0 and 0.0 are one
    value), else the sorted union of its texts. A ``distinct`` array that every table shares
    (a carried or permuted column) is that union: it and the codes are returned as they are, read-only."""
    encoded = [text_codes(t, name) for t in tables]
    distincts = [distinct for distinct, _ in encoded]
    if all(t.attribute(name).is_numeric for t in tables):
        distincts = [distinct.astype(float) for distinct in distincts]
        pooled = np.sort(np.concatenate(distincts))  # not np.unique, whose plain form imports numpy.ma
        support = pooled[np.diff(pooled, prepend=-np.inf) > 0]  # each value once
    elif all(distinct is distincts[0] for distinct in distincts):
        return distincts[0], [codes for _, codes in encoded]
    else:
        texts = set(chain.from_iterable(distinct.tolist() for distinct in distincts))
        support = np.asarray(sorted(texts), dtype=object)
    return support, [np.searchsorted(support, distinct)[codes] for distinct, (_, codes) in zip(distincts, encoded)]


def label_paths(table: MicrodataTable, name: str, hierarchy: GeneralizationHierarchy):
    """A column's recoding map: ``(paths, codes)``, where ``paths`` is
    ``hierarchy.paths`` over the column's distinct texts (read as numbers in a
    numeric column) and ``codes`` is the column's ``text_codes``, so row i's
    label at level lv is ``paths[codes[i], lv]``."""
    distinct, codes = text_codes(table, name)
    values = distinct.astype(float) if table.attribute(name).is_numeric else distinct
    return hierarchy.paths(values.tolist()), codes


def comparable_text(table: MicrodataTable, name: str) -> np.ndarray:
    """Column as canonical text, so masked label columns compare against raw numerics."""
    distinct, codes = text_codes(table, name)
    return distinct[codes]


def factorize(values: np.ndarray | Sequence):
    """The distinct values and, per entry, the index of its value among them.

    Numeric arrays go through ``np.unique``; object arrays, lists and tuples
    take one hash pass and number their values in order of first occurrence.
    """
    if isinstance(values, np.ndarray):
        if values.dtype != object:
            return np.unique(values, return_inverse=True)
        values = values.tolist()
    index: dict = {}  # hashing beats sorting Python objects
    first = np.fromiter(map(index.setdefault, values, count()), np.int64, len(values))  # each value's first row
    rank = np.zeros(len(values), dtype=np.int64)
    rank[np.flatnonzero(first == np.arange(len(values)))] = np.arange(len(index))
    return list(index), rank[first]


def _domain_fault(attr: AttributeSchema, value) -> str | None:
    """Why a converted cell value lies outside its attribute's domain, or None."""
    if not attr.is_numeric:
        return None if value in attr.kind.members else f"value {value!r} not in declared domain"
    if not math.isfinite(value):
        return f"non-finite value {value!r}"
    if not attr.kind.lo <= value <= attr.kind.hi:
        return f"value {canonical_number(value)} outside [{attr.kind.lo}, {attr.kind.hi}]"
    return None


def _csv_value(attr: AttributeSchema, text: str):
    """A csv cell's value and why it is rejected (None when it is not)."""
    value = text.strip() if attr.is_numeric else nfc(text)
    if not value:
        return None, "missing value"
    if attr.is_numeric:
        try:
            value = float(value)
        except ValueError:
            return None, f"cannot parse {text!r} as a number"
    return value, _domain_fault(attr, value)


def _given_value(attr: AttributeSchema, cell):
    """A ``make_table`` cell's value and why it is rejected: only the domain counts."""
    value = cell if attr.is_numeric else nfc(cell)
    return value, _domain_fault(attr, value)


def _swept(attr: AttributeSchema, distinct):
    """A column's distinct cells decoded in one sweep, or None when the sweep
    cannot accept them all (a cell may be rejected, or is empty text)."""
    if not attr.is_numeric:
        values = list(map(nfc, distinct))
        accepted = attr.kind.members.issuperset(values) and "" not in values
        return np.asarray(values, dtype=object) if accepted else None
    if isinstance(distinct, np.ndarray):  # a float64 column's distinct values
        values = distinct
    else:
        try:
            values = np.asarray(list(map(float, map(str.strip, distinct))), dtype=np.float64)
        except ValueError:
            return None
    return values if ((attr.kind.lo <= values) & (values <= attr.kind.hi)).all() else None


def _decode_table(schema, cells: Mapping[str, Sequence], decode, row_ids: np.ndarray) -> MicrodataTable:
    """The table of ``cells``, each column decoded once per distinct cell,
    with the ``text_codes`` of every column but the identifiers made from the
    decode's factorization. The distinct cells are swept at once; only when
    the sweep balks does ``decode(attr, cell) -> (value, why rejected)`` run
    per distinct cell, and the DomainViolation of the first rejected cell in
    row-major order is raised. A float64 column is kept as given, since
    np.unique merges -0.0 and 0.0."""
    cols: dict[str, np.ndarray] = {}
    factors: dict[str, tuple[Sequence[str], np.ndarray]] = {}  # each column's texts by code, row codes
    faults: list[DomainViolation] = []
    for a in schema:
        distinct, codes = factorize(cells[a.name])
        values = _swept(a, distinct)
        if values is None:
            decoded = [decode(a, cell) for cell in distinct]
            bad = np.fromiter((why is not None for _, why in decoded), bool, len(decoded))
            if bad.any():
                row = int(np.argmax(bad[codes]))
                faults.append(DomainViolation(row, a.name, decoded[codes[row]][1]))
                continue
            values = np.asarray([value for value, _ in decoded], dtype=np.float64 if a.is_numeric else object)
        given = cells[a.name]
        cols[a.name] = given if getattr(given, "dtype", None) == np.float64 else values[codes]
        if a.role != "identifier":  # no step reads an identifier as text
            factors[a.name] = (list(map(canonical_number, values.tolist())) if a.is_numeric else values, codes)
    if faults:
        raise min(faults, key=lambda e: e.row)
    table = MicrodataTable(schema, cols, row_ids)
    for name in list(factors):  # each factorization freed once encoded
        _keep_text_codes(table, name, *factors.pop(name))
    return table


def load_table(csv_data: bytes | str, schema_descriptor) -> MicrodataTable:
    """Parse csv bytes against a schema descriptor.

    The header must carry exactly the declared attribute names. Missing values
    are rejected: every cell must parse and fall inside its declared domain.
    The first fault in row-major order is raised; a ragged row faults before its cells.

    One leading byte-order mark (U+FEFF) is dropped; one anywhere else is
    text. A text with no quote, NUL or lone CR, no line longer than
    ``csv.field_size_limit()`` and no ragged row is split column-wise
    (``_split_fields``) into the cells ``csv.reader`` would read; any other
    text is read by ``csv.reader``.
    """
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
    text = text.removeprefix("\ufeff")  # the byte-order mark of a "CSV UTF-8" export
    if not text:
        raise MalformedCsv("empty input: no header row")
    header, fields, end, ragged_width = _split_fields(text) or _reader_fields(text)
    header = [nfc(h) for h in header]
    names = [a.name for a in schema]
    for name in names:
        if name not in header:
            raise MissingColumn(name)
    if len(set(header)) != len(header):
        raise MalformedCsv("duplicate column names in header")
    for h in header:
        if h not in names:
            raise MalformedCsv(f"unexpected column {h!r} not declared in schema")

    cells = {name: fields[header.index(name)] for name in names}
    table = _decode_table(schema, cells, _csv_value, np.arange(end, dtype=np.int64))
    if ragged_width is not None:
        raise MalformedCsv(f"row {end}: expected {len(header)} fields, got {ragged_width}")
    return table


def _reader_fields(text: str):
    """``text`` as ``csv.reader`` reads it: the header's fields, the columns
    of the body rows before the first ragged one, their number ``end``, and
    the ragged row's field count (None when no row is ragged)."""
    try:
        rows = list(csv.reader(io.StringIO(text)))
    except csv.Error as e:
        raise MalformedCsv(str(e)) from e
    header, body = rows[0], rows[1:]
    widths = np.fromiter(map(len, body), np.int64, len(body))
    ragged = np.flatnonzero(widths != len(header))
    end = int(ragged[0]) if ragged.size else len(body)
    fields = list(zip(*body[:end])) if end else [()] * len(header)
    return header, fields, end, int(widths[end]) if ragged.size else None


def _split_fields(text: str):
    """``_reader_fields(text)`` read column-wise, with no object per row, or
    None when only ``csv.reader`` reads ``text`` right: it has a quote, a NUL,
    a lone CR, a line longer than ``csv.field_size_limit()`` or a ragged row.

    The body becomes one row-major list of cells, and column j is every w-th
    cell from the j-th. Each line's field count is its commas plus one, or 0
    for a blank line, as ``csv.reader`` counts them, read off the byte
    positions of newlines and commas."""
    if '"' in text or "\0" in text:
        return None
    if "\r" in text:
        text = text.replace("\r\n", "\n")
        if "\r" in text:
            return None
    if not text.endswith("\n"):
        text += "\n"  # every line ends in a newline
    raw = np.frombuffer(text.encode("utf-8", "surrogatepass"), np.uint8)
    newline = raw == ord("\n")
    lengths = np.diff(np.flatnonzero(newline), prepend=-1) - 1  # each line's bytes, at least its characters
    if lengths.max() > csv.field_size_limit():
        return None
    # each line's commas: the gaps between newlines in the sequence of newlines and commas
    commas = np.diff(np.flatnonzero(newline[newline | (raw == ord(","))]), prepend=-1) - 1
    widths = commas + (lengths > 0)
    w, n = int(widths[0]), len(widths) - 1
    if (widths[1:] != w).any():
        return None
    head, _, body = text.partition("\n")
    flat = body.replace("\n", ",").split(",")
    flat.pop()  # the empty cell after the last line end
    return head.split(",") if w else [], [flat[j::w] for j in range(w)], n, None


_NEEDS_QUOTES = re.compile('[,"\r\n]')  # what csv.QUOTE_MINIMAL quotes under a "\r\n" line end


def serialize_table(table: MicrodataTable) -> bytes:
    """Write the table as RFC 4180 csv with canonical number formatting: the
    bytes of ``csv.writer``, with each distinct text of a column quoted once
    (a ``canonical_number`` never needs it) and rows gathered by ``text_codes``."""
    lone = len(table.schema) == 1  # csv quotes a row's one field when it is empty
    quote = lambda t: '"' + t.replace('"', '""') + '"' if _NEEDS_QUOTES.search(t) or lone and not t else t
    lines, fields = [",".join(map(quote, table.names))], []
    for a in table.schema:
        distinct, codes = text_codes(table, a.name)
        texts = distinct if a.is_numeric else np.asarray(list(map(quote, distinct.tolist())), dtype=object)
        fields.append(texts[codes].tolist())
    lines += map(",".join, zip(*fields))
    return "\r\n".join(lines + [""]).encode("utf-8")  # the one join makes every line end


def suppress_identifiers(table: MicrodataTable, columns=None, kinds=None, encoded=None) -> MicrodataTable:
    """The published table: every attribute but the identifiers, in schema
    order, with ``columns`` (name -> values) in place of the named ones and
    ``kinds`` (name -> kind) declared where given, built as one table with
    ``table``'s row ids. Every masking mechanism publishes through it.

    A name in ``columns``, ``kinds`` or ``encoded`` that ``table`` lacks, or
    that names an identifier, raises UnknownAttribute. A column neither
    replaced nor redeclared keeps ``table``'s text codes; ``encoded`` gives a
    replaced one's (name -> (distinct, codes), as ``text_codes`` gives them).
    """
    columns, kinds, encoded = columns or {}, kinds or {}, encoded or {}
    for name in chain(columns, kinds, encoded):
        if table.attribute(name).role == "identifier":
            raise UnknownAttribute(name)
    kept = (a for a in table.schema if a.role != "identifier")
    schema = tuple(AttributeSchema(a.name, a.role, kinds.get(a.name, a.kind)) for a in kept)
    cols = {a.name: columns.get(a.name, table.columns[a.name]) for a in schema}
    published = _carry(table, MicrodataTable(schema, cols, table.row_ids))
    for name, (distinct, codes) in encoded.items():
        codes.setflags(write=False)
        published._text_codes[name] = (distinct, codes)
    return published


# --------------------------------------------------------------------------
# generalization hierarchies
# --------------------------------------------------------------------------


_MAX_LEAVES = 10**6  # the most leaves ``leaves_under`` enumerates


class GeneralizationHierarchy:
    """Rooted balanced tree over an attribute's domain.

    Leaves sit at level 0 and are the domain values; the root sits at level
    ``height``. Categorical hierarchies are explicit trees; numeric attributes
    may instead declare nested interval partitions by cut points per level.
    Node labels are unique within one hierarchy, so a label identifies both
    the node and its level.
    """

    def __init__(self, attribute: str, height: int, kind: str):
        self.attribute = attribute
        self.height = height
        self.kind = kind  # "tree" | "intervals"
        self._paths: dict[str, tuple[str, ...]] = {}  # leaf -> lineage, leaves in the order read
        self._level_of: dict[str, int] = {}
        self._lo = 0.0
        self._hi = 0.0
        self._cuts: tuple[tuple[float, ...], ...] = ()
        self._integral = False
        self._interval_of: dict[str, tuple[float, float]] = {}
        # per interval level 1..height: its cuts and the label of each interval
        self._label_tables: list[tuple[np.ndarray, np.ndarray]] = []

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_tree(cls, attribute: str, tree: Mapping[str, Any]) -> "GeneralizationHierarchy":
        if not isinstance(tree, Mapping) or len(tree) != 1:
            raise ValueError(f"hierarchy for {attribute!r}: field 'tree' must be an object with one root")
        paths: dict[str, tuple[str, ...]] = {}
        seen: set[str] = set()

        def walk(label: str, node, ancestry: tuple[str, ...]):
            label = nfc(str(label))
            if label in seen:
                raise ValueError(f"duplicate node label {label!r} in hierarchy for {attribute!r}")
            seen.add(label)
            lineage = (label,) + ancestry
            if node is None or (isinstance(node, Mapping) and not node):
                paths[label] = lineage
                return
            if not isinstance(node, Mapping):
                raise ValueError(f"hierarchy for {attribute!r}: field 'tree' has a node not an object or null")
            for child_label, child in node.items():
                walk(child_label, child, lineage)

        root_label = next(iter(tree))
        walk(root_label, tree[root_label], ())
        depths = {len(p) - 1 for p in paths.values()}
        if len(depths) != 1:
            raise ValueError(f"hierarchy for {attribute!r} is unbalanced: leaf depths {sorted(depths)}")
        height = depths.pop()
        h = cls(attribute, height, "tree")
        h._paths = paths
        h._level_of = {label: level for lineage in paths.values() for level, label in enumerate(lineage)}
        return h

    @classmethod
    def from_breakpoints(
        cls,
        attribute: str,
        lo: float,
        hi: float,
        cuts_per_level: Sequence[Sequence[float]],
    ) -> "GeneralizationHierarchy":
        """Nested interval hierarchy: level i uses the i-th cut list, root spans [lo, hi]."""
        lo, hi = float(lo), float(hi)
        if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
            raise ValueError("interval hierarchy needs finite lo <= hi")
        cuts = [tuple(float(c) for c in level) for level in cuts_per_level]
        while cuts and not cuts[-1]:
            cuts.pop()
        for level in cuts:
            if list(level) != sorted(set(level)):
                raise ValueError("cut points must be strictly increasing")
            if level and (level[0] <= lo or level[-1] > hi):
                raise ValueError("cut points must lie strictly inside the domain")
        for fine, coarse in zip(cuts, cuts[1:]):
            if not set(coarse) <= set(fine):
                raise ValueError("interval levels must nest: coarser cuts must be a subset of finer ones")
        height = len(cuts) + 1
        h = cls(attribute, height, "intervals")
        h._lo, h._hi = lo, hi
        h._cuts = tuple(cuts) + ((),)  # the final entry is the root level: no cuts
        h._integral = all(float(x).is_integer() for x in [lo, hi, *[c for lvl in cuts for c in lvl]])
        for level, cut_list in enumerate(h._cuts, start=1):
            # half-open [lo, hi) intervals except the last, which closes at the domain max
            edges = [lo, *cut_list, math.nextafter(hi, math.inf)]
            intervals = list(zip(edges, edges[1:]))
            labels = [h._interval_label(*ivl) for ivl in intervals]
            h._label_tables.append((np.asarray(cut_list, dtype=float), np.asarray(labels, dtype=object)))
            for label, ivl in zip(labels, intervals):
                # an interval no cut splits repeats at coarser levels; it is
                # the same node, registered once at its lowest level
                h._level_of.setdefault(label, level)
                h._interval_of.setdefault(label, ivl)
        return h

    # -- interval plumbing ---------------------------------------------------

    def _interval_label(self, ivl_lo: float, ivl_hi: float) -> str:
        last = ivl_hi > self._hi
        if self._integral:
            right = int(self._hi) if last else int(ivl_hi) - 1
            return f"[{int(ivl_lo)},{right}]"
        if last:
            return f"[{canonical_number(ivl_lo)},{canonical_number(self._hi)}]"
        return f"[{canonical_number(ivl_lo)},{canonical_number(ivl_hi)})"

    # -- queries -------------------------------------------------------------

    def contains(self, value) -> bool:
        if self.kind == "tree":
            return isinstance(value, str) and nfc(value) in self._paths
        try:
            v = float(value)
        except (TypeError, ValueError):
            return False
        return math.isfinite(v) and self._lo <= v <= self._hi

    def paths(self, values: Iterable) -> np.ndarray:
        """The recoding map: an object array of shape ``(len(values), height + 1)``
        whose row i holds the labels of ``values[i]`` at levels 0..height.

        Each value is checked once; the first that is not a leaf raises
        UnknownValue. A tree reads each leaf's lineage; an interval level is one
        ``searchsorted`` into its cuts and its table of labels.
        """
        values = list(values)
        for value in values:
            if not self.contains(value):
                raise UnknownValue(f"{value!r} is not a leaf of the hierarchy for {self.attribute!r}")
        if self.kind == "tree":
            rows = [self._paths[nfc(value)] for value in values]
            return np.array(rows, dtype=object).reshape(len(values), self.height + 1)
        x = np.array([float(value) for value in values], dtype=float)
        out = np.empty((len(values), self.height + 1), dtype=object)
        out[:, 0] = [canonical_number(v) for v in x.tolist()]
        for level, (cuts, labels) in enumerate(self._label_tables, start=1):
            out[:, level] = labels[np.searchsorted(cuts, x, side="right")]
        return out

    def label(self, value, level: int) -> str:
        """Text label of the ancestor of ``value`` at the requested level."""
        if not 0 <= level <= self.height:
            raise LevelOutOfRange(f"level {level} outside [0, {self.height}] for {self.attribute!r}")
        return self.paths([value])[0, level]

    def value_path(self, value) -> tuple[str, ...]:
        return tuple(self.paths([value])[0])

    def level_of_label(self, label: str) -> int:
        if label in self._level_of:
            return self._level_of[label]
        if self.kind == "intervals":
            try:
                v = float(label)
            except ValueError:
                raise UnknownValue(f"label {label!r} not in hierarchy for {self.attribute!r}") from None
            if self.contains(v):
                return 0
        raise UnknownValue(f"label {label!r} not in hierarchy for {self.attribute!r}")

    def leaves_under(self, label: str) -> list:
        """Enumerate the domain values below a node; refuses unenumerable
        domains and more than ``_MAX_LEAVES`` leaves."""
        level = self.level_of_label(label)
        if self.kind == "tree":
            if level == 0:
                return [label]
            found = [leaf for leaf, lineage in self._paths.items() if lineage[level] == label]
            if len(found) > _MAX_LEAVES:
                raise SearchSpaceTooLarge(f"{len(found)} leaves under {label!r} exceed limit {_MAX_LEAVES}")
            return found
        if level == 0:
            return [float(label)]
        if not self._integral:
            raise SearchSpaceTooLarge(
                f"interval leaves of {self.attribute!r} are not enumerable: non-integer domain"
            )
        ivl_lo, ivl_hi = self._interval_of[label]
        last = ivl_hi > self._hi
        left = int(ivl_lo)
        right = int(self._hi) if last else int(ivl_hi) - 1
        count = right - left + 1
        if count > _MAX_LEAVES:
            raise SearchSpaceTooLarge(f"{count} leaves under {label!r} exceed limit {_MAX_LEAVES}")
        return [float(x) for x in range(left, right + 1)]

    @property
    def root_label(self) -> str:
        if self.kind == "tree":
            some_path = next(iter(self._paths.values()))
            return some_path[-1]
        return self._label_tables[-1][1][0]


def generalize_value(hierarchy: GeneralizationHierarchy, value, level: int):
    """Ancestor of a leaf at the requested level; level 0 returns the value itself."""
    if not isinstance(level, (int, np.integer)) or level < 0 or level > hierarchy.height:
        raise LevelOutOfRange(f"level {level} outside [0, {hierarchy.height}]")
    label = hierarchy.paths([value])[0, level]  # raises UnknownValue for a non-leaf
    return value if level == 0 else label


def hierarchy_from_json(doc: Mapping[str, Any] | str) -> GeneralizationHierarchy:
    """A hierarchy from its JSON form: an ``attribute`` plus either a ``tree``
    (an object with one root whose nodes are objects or null) or ``intervals``
    (an object with numbers ``min`` and ``max`` and ``cuts``, a list of lists
    of numbers). A document that is not an object with a string
    ``attribute``, or a section of another shape, raises ValueError; a
    section's error names the attribute and the field."""
    if isinstance(doc, str):
        doc = json.loads(doc)
    if not isinstance(doc, Mapping) or not isinstance(doc.get("attribute"), str):
        raise ValueError("hierarchy document is not a JSON object with a string 'attribute'")
    attribute = doc["attribute"]
    if "tree" in doc:
        return GeneralizationHierarchy.from_tree(attribute, doc["tree"])
    if "intervals" in doc:
        spec = doc["intervals"]
        if not isinstance(spec, Mapping):
            raise ValueError(f"hierarchy for {attribute!r}: field 'intervals' must be an object")
        for bound in ("min", "max"):
            if not _is_number(spec.get(bound)):
                raise ValueError(f"hierarchy for {attribute!r}: field {bound!r} must be a number")
        cuts = spec.get("cuts", [])
        if not (isinstance(cuts, list) and all(map(_is_number_list, cuts))):
            raise ValueError(f"hierarchy for {attribute!r}: field 'cuts' must be a list of lists of numbers")
        return GeneralizationHierarchy.from_breakpoints(attribute, spec["min"], spec["max"], cuts)
    raise ValueError("hierarchy document needs a 'tree' or 'intervals' section")


def hierarchy_to_json(h: GeneralizationHierarchy) -> dict[str, Any]:
    """A hierarchy's JSON form, as ``hierarchy_from_json`` reads it. A tree
    nests its leaves' lineages in the order they were read, so every node
    lists its children in the order of the document read; every leaf, an
    ``{}`` one too, is written as null."""
    if h.kind == "intervals":
        return {
            "attribute": h.attribute,
            "intervals": {"min": h._lo, "max": h._hi, "cuts": [list(c) for c in h._cuts[:-1]]},
        }
    tree: dict[str, Any] = {}
    for leaf, lineage in h._paths.items():
        node = tree
        for label in reversed(lineage[1:]):
            node = node.setdefault(label, {})
        node[leaf] = None
    return {"attribute": h.attribute, "tree": tree}


def load_hierarchies(docs: Iterable[Mapping[str, Any] | str]) -> dict[str, GeneralizationHierarchy]:
    """Hierarchies by attribute; each document is a JSON object or its text.

    Raises ValueError, naming the entry's index, for an entry that
    ``hierarchy_from_json`` rejects and for a second hierarchy of one
    attribute.
    """
    out: dict[str, GeneralizationHierarchy] = {}
    for i, doc in enumerate(docs):
        try:
            h = hierarchy_from_json(doc)
        except ValueError as e:
            raise ValueError(f"hierarchy entry {i}: {e}") from None
        if h.attribute in out:
            raise ValueError(f"hierarchy entry {i} is a second hierarchy for {h.attribute!r}")
        out[h.attribute] = h
    return out


def read_hierarchies(path: str | Path) -> dict[str, GeneralizationHierarchy]:
    """Load a hierarchy file: one JSON hierarchy document or a list of them."""
    docs = json.loads(Path(path).read_text(encoding="utf-8"))
    return load_hierarchies(docs if isinstance(docs, list) else [docs])


def read_table(csv_path: str | Path, schema_path: str | Path) -> MicrodataTable:
    """Load a csv file against a JSON schema descriptor file."""
    descriptor = json.loads(Path(schema_path).read_text(encoding="utf-8"))
    return load_table(Path(csv_path).read_bytes(), schema_from_descriptor(descriptor))


# --------------------------------------------------------------------------
# releases
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Provenance:
    mechanism: str
    params: Mapping[str, Any] = field(default_factory=dict)
    seed: int | None = None
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "params", dict(self.params))
        object.__setattr__(self, "notes", tuple(self.notes))


def _is_integer(value) -> bool:
    """Whether ``value`` is a Python or numpy integer; a bool is not."""
    return type(value) is int or isinstance(value, np.integer)


class Partition(tuple):
    """Equivalence classes covering rows 0..n-1 once: a tuple (as which it
    compares and writes to JSON) of ascending row tuples in first-row order,
    with read-only int64 ``labels`` (each row's class) and ``sizes``.
    ``Partition(groups)``, from groups in any order, and ``of_labels`` are the
    only place a partition is sorted, checked and labelled; an empty class, a
    non-integer member or a row repeated or skipped raises ValueError.
    ``Partition(p)`` of a Partition is ``p``."""

    def __new__(cls, groups: Iterable[Iterable[int]]):
        if isinstance(groups, Partition):
            return groups
        groups = [tuple(g) for g in groups]
        members = list(chain.from_iterable(groups))
        # one member of each type stands for all members of that type
        for value in dict(zip(map(type, members), members)).values():
            if not _is_integer(value):
                raise ValueError(f"partition member {value!r} is not an integer row position")
        if not all(groups):
            raise ValueError("partition has an empty class")
        rows = np.fromiter(members, np.int64, len(members))
        order = np.argsort(rows)
        if not np.array_equal(rows[order], np.arange(rows.size)):
            raise ValueError("partition must cover every row exactly once")
        return cls.of_labels(np.repeat(np.arange(len(groups)), list(map(len, groups)))[order])

    @classmethod
    def of_labels(cls, labels) -> "Partition":
        """The partition whose classes are the rows of equal ``labels[row]``."""
        _, first, inverse = np.unique(np.asarray(labels), return_index=True, return_inverse=True)
        labels = np.argsort(np.argsort(first))[inverse.reshape(-1)]  # classes in first-row order
        sizes = np.bincount(labels, minlength=first.size)
        rows, ends = np.argsort(labels, kind="stable").tolist(), np.cumsum(sizes).tolist()
        self = super().__new__(cls, (tuple(rows[end - size : end]) for size, end in zip(sizes.tolist(), ends)))
        for array in (labels, sizes):
            array.setflags(write=False)
        self.labels, self.sizes = labels, sizes
        return self

    def __reduce__(self):  # a copy or unpickled one is rebuilt, its arrays read-only again
        return Partition, (tuple(self),)

    def covering(self, n: int) -> "Partition":
        """``self``, if it covers rows 0..n-1; else ValueError."""
        if self.labels.size != n:
            raise ValueError(f"partition must cover every row exactly once: it covers {self.labels.size} of {n}")
        return self


def row_positions(table: MicrodataTable, row_ids) -> np.ndarray:
    """The position in ``table`` of each of ``row_ids``, -1 where it is absent."""
    row_ids = np.asarray(row_ids, dtype=np.int64)
    if not table.n_rows:
        return np.full(row_ids.size, -1, dtype=np.int64)
    order = np.argsort(table.row_ids)
    at = order[np.minimum(np.searchsorted(table.row_ids, row_ids, sorter=order), order.size - 1)]
    return np.where(table.row_ids[at] == row_ids, at, -1)


_COUNT_CELLS = 1 << 17  # count-matrix cells held at once: 1 MiB of int64


def class_counts(classes: Sequence[Sequence[int]], codes: np.ndarray, m: int):
    """Yields ``(lo, counts)`` blocks of ``_COUNT_CELLS`` cells (one, if no classes):
    ``counts[j, c]`` rows of class lo + j (a group of row positions) have code c
    (of ``codes``, 0..m-1). One ``np.bincount(class * m + code)`` per block."""
    sizes = np.fromiter(map(len, classes), np.int64, len(classes))
    bounds = np.append(0, np.cumsum(sizes))
    rows = np.fromiter(chain.from_iterable(classes), np.int64, bounds[-1])
    keys = np.repeat(np.arange(sizes.size) * m, sizes) + codes[rows]
    step = max(1, _COUNT_CELLS // max(m, 1))
    for lo in range(0, max(sizes.size, 1), step):
        hi = min(lo + step, sizes.size)
        block = keys[bounds[lo] : bounds[hi]] - lo * m
        yield lo, np.bincount(block, minlength=(hi - lo) * m).reshape(hi - lo, m)


@dataclass(frozen=True)
class AnonymizedRelease:
    """A published table and the equivalence classes it publishes.

    ``table`` is the released table. ``partition`` holds the classes as a
    ``Partition`` of ``table``'s rows (made from any groups given), or None
    when the release publishes no classes (noise addition, the identity).
    Anatomy also sets ``conf_table``: the confidential side, linked to
    ``table`` only through their shared ``group_id`` column, whose values
    each name one class; a side listing its classes in another order is
    reordered stably by class. ``class_table(attribute)`` gives the table
    holding an attribute and its classes, class j the same on either side,
    so checks and attacks read every release's classes one way.
    """

    table: MicrodataTable
    partition: Partition | None
    provenance: Provenance
    conf_table: MicrodataTable | None = None

    def __post_init__(self):
        if self.table.identifier_names:
            raise ValueError("releases must not contain identifier attributes")
        if self.partition is not None:
            object.__setattr__(self, "partition", Partition(self.partition).covering(self.table.n_rows))
        if self.conf_table is not None:
            if self.partition is None:
                raise ValueError("a confidential side needs a partition")
            # a plain attribute, not a field: equality and hashing stay on the two tables
            object.__setattr__(self, "_conf_partition", self._confidential_classes())

    def _confidential_classes(self) -> Partition:
        """The confidential side's classes, numbered through the QI side's group_id."""
        partition, gids = self.partition, self.table.column("group_id")
        values, first, inverse = np.unique(gids, return_index=True, return_inverse=True)
        class_of_value = partition.labels[first]
        if values.size != len(partition) or (class_of_value[inverse] != partition.labels).any():
            raise ValueError("QI group_id classes do not match the partition")
        conf_gids = self.conf_table.column("group_id")
        at = np.searchsorted(values, conf_gids)
        unknown = np.append(values, np.nan)[at] != conf_gids
        if unknown.any():
            gid = canonical_number(conf_gids[np.argmax(unknown)])
            raise ValueError(f"confidential group_id {gid} is carried by no QI row")
        labels = class_of_value[at]
        sizes = np.bincount(labels, minlength=len(partition))
        if (sizes != partition.sizes).any():
            j = int(np.argmax(sizes != partition.sizes))
            gid = canonical_number(gids[partition[j][0]])
            raise ValueError(f"group_id {gid} has {partition.sizes[j]} QI rows but {sizes[j]} confidential rows")
        classes = Partition.of_labels(labels)
        if (classes.labels != labels).any():
            order = np.argsort(labels, kind="stable")
            object.__setattr__(self, "conf_table", self.conf_table.take(order))
            classes = Partition.of_labels(labels[order])
        return classes

    def class_table(self, attribute: str) -> tuple[MicrodataTable, Partition]:
        """The published table holding ``attribute`` and the classes as row positions in it."""
        if self.partition is None:
            raise MissingPartition("release carries no class partition")
        if self.conf_table is not None and self.conf_table.has_attribute(attribute):
            return self.conf_table, self._conf_partition
        self.table.attribute(attribute)
        return self.table, self.partition


def write_text(path: Path, text: str):
    """Write ``text`` as utf-8 bytes, with the same line ends on every platform."""
    path.write_bytes(text.encode("utf-8"))


def json_dumps(doc) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2) + "\\n"``, byte for byte.

    An ``indent`` makes ``json.dumps`` take its pure-Python encoder, so
    json's C encoder writes instead, in one call each, every list or dict
    of scalars and every list of such lists or of such dicts, with an item
    separator that carries the newline and indent of the items. An encoded
    string never holds a raw newline, so the separators are the only
    newlines in its output. Only other containers are walked in Python.
    """
    return _indented(doc, "\n") + "\n"


_SCALARS = (str, int, float, type(None))  # a bool is an int


def _all_of(values, kinds) -> bool:
    """Whether every one of ``values`` is an instance of ``kinds``, checked once per type."""
    return all(issubclass(kind, kinds) for kind in set(map(type, values)))


def _flat_dumps(doc, inner: str) -> str:
    """``doc`` as the C encoder writes it with every item separator followed
    by ``inner`` (a newline and an indent)."""
    return json.dumps(doc, sort_keys=True, separators=("," + inner, ": "))


def _json_key(key) -> str:
    """A dict key as json writes it: a string, or the text of a number, bool or None."""
    if not isinstance(key, str):
        if not (isinstance(key, (int, float)) or key is None):
            raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")
        key = json.dumps(key)
    return json.dumps(key)


def _indented(doc, newline: str) -> str:
    """``doc`` as ``indent=2`` writes it, on a line that ``newline`` (a newline
    and the line's indent) starts."""
    if not isinstance(doc, (list, tuple, dict)) or not doc:
        return json.dumps(doc)  # a scalar, [] or {}
    inner = newline + "  "
    if _all_of(doc.values() if isinstance(doc, dict) else doc, _SCALARS):
        text = _flat_dumps(doc, inner)
        return text[0] + inner + text[1:-1] + newline + text[-1]
    if isinstance(doc, dict):
        items = (f"{_json_key(key)}: {_indented(value, inner)}" for key, value in sorted(doc.items()))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    brackets = "{}" if _all_of(doc, dict) else "[]" if _all_of(doc, (list, tuple)) else ""
    if brackets and _all_of(chain.from_iterable(map(dict.values, doc) if brackets == "{}" else doc), _SCALARS):
        # "[{a,<deeper>b},<deeper>{}]": the rows part at their "},<deeper>{" seams
        deeper, (opening, closing) = inner + "  ", brackets
        rows = _flat_dumps(doc, deeper)[2:-2].split(closing + "," + deeper + opening)
        items = (opening + deeper + row + inner + closing if row else brackets for row in rows)
    else:
        items = (_indented(item, inner) for item in doc)
    return "[" + inner + ("," + inner).join(items) + newline + "]"


def as_table(release_or_table) -> MicrodataTable:
    """A release's ``table`` (anatomy's QI side), or a bare table as it is."""
    if isinstance(release_or_table, MicrodataTable):
        return release_or_table
    return release_or_table.table


def write_release(release: AnonymizedRelease, directory: str | Path) -> list[Path]:
    """Write the release csv plus a JSON provenance sidecar; returns the paths written.

    A release with a confidential side is written as ``release_qi.csv`` and
    ``release_conf.csv``, with both schemas and no partition in the sidecar
    (the ``group_id`` columns carry the classes). Any other release is written
    as ``release.csv``. Either sidecar, ``release.provenance.json``, holds the
    row ids of ``table``.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    doc = {
        "mechanism": release.provenance.mechanism,
        "params": release.provenance.params,
        "seed": release.provenance.seed,
        "notes": list(release.provenance.notes),
    }
    if release.conf_table is None:
        paths = [directory / "release.csv"]
        paths[0].write_bytes(serialize_table(release.table))
        doc["schema"] = schema_to_descriptor(release.table.schema)
        doc["partition"] = release.partition
    else:
        paths = [directory / "release_qi.csv", directory / "release_conf.csv"]
        paths[0].write_bytes(serialize_table(release.table))
        paths[1].write_bytes(serialize_table(release.conf_table))
        doc["schema_qi"] = schema_to_descriptor(release.table.schema)
        doc["schema_conf"] = schema_to_descriptor(release.conf_table.schema)
    doc["row_ids"] = [int(i) for i in release.table.row_ids]
    sidecar_path = directory / "release.provenance.json"
    write_text(sidecar_path, json_dumps(doc))
    return paths + [sidecar_path]


def _read_release_csv(path: Path, descriptor) -> MicrodataTable:
    schema = schema_from_descriptor(descriptor)
    raw = path.read_bytes()
    header = next(csv.reader(io.StringIO(raw.decode("utf-8").removeprefix("\ufeff"))), None)
    if header is None:
        raise MalformedCsv(f"{path}: empty input: no header row")
    # the sidecar's keys are sorted: take the csv's column order, declared columns it lacks last
    position = {nfc(name): i for i, name in enumerate(header)}
    return load_table(raw, sorted(schema, key=lambda a: position.get(a.name, len(header))))


def _is_integer_list(value) -> bool:
    """Whether ``value`` lists ``_is_integer`` members, judged once per member type."""
    return isinstance(value, list) and all(t is int or issubclass(t, np.integer) for t in set(map(type, value)))


def read_release(directory: str | Path) -> AnonymizedRelease:
    """Read what ``write_release`` wrote, either layout.

    A sidecar that is not a JSON object, or whose ``mechanism``, ``params``,
    ``params.scheme`` (with its ``suppressed_row_ids`` and ``qi_order``),
    ``seed``, ``notes``, ``partition`` or ``row_ids`` has the wrong shape,
    raises ValueError naming the field.
    """
    directory = Path(directory)
    doc = json.loads((directory / "release.provenance.json").read_text(encoding="utf-8"))
    if not isinstance(doc, dict):
        raise ValueError("release sidecar must be a JSON object")
    if not isinstance(doc.get("mechanism"), str):
        raise ValueError("release sidecar field 'mechanism' must be a string")
    params, seed, notes = doc.get("params", {}), doc.get("seed"), doc.get("notes", [])
    if not isinstance(params, dict):
        raise ValueError("release sidecar field 'params' must be an object")
    scheme = params.get("scheme", {})
    if not isinstance(scheme, dict):
        raise ValueError("release sidecar field 'params.scheme' must be an object")
    if not _is_integer_list(scheme.get("suppressed_row_ids", [])):
        raise ValueError("release sidecar field 'params.scheme.suppressed_row_ids' must be a list of integers")
    qi_order = scheme.get("qi_order", [])
    if not (isinstance(qi_order, list) and all(isinstance(name, str) for name in qi_order)):
        raise ValueError("release sidecar field 'params.scheme.qi_order' must be a list of strings")
    if seed is not None and not _is_integer(seed):
        raise ValueError("release sidecar field 'seed' must be null or an integer")
    if not (isinstance(notes, list) and all(isinstance(note, str) for note in notes)):
        raise ValueError("release sidecar field 'notes' must be a list of strings")
    partition, row_ids = doc.get("partition"), doc.get("row_ids")
    groups = isinstance(partition, list) and all(isinstance(group, list) for group in partition)
    if partition is not None and not (groups and _is_integer_list(list(chain.from_iterable(partition)))):
        raise ValueError("release sidecar field 'partition' must be null or a list of lists of integers")
    if row_ids is not None and not _is_integer_list(row_ids):
        raise ValueError("release sidecar field 'row_ids' must be a list of integers")
    prov = Provenance(mechanism=doc["mechanism"], params=params, seed=seed, notes=tuple(notes))
    if "schema_conf" in doc:
        table = _read_release_csv(directory / "release_qi.csv", doc["schema_qi"])
        conf_table = _read_release_csv(directory / "release_conf.csv", doc["schema_conf"])
        partition = Partition.of_labels(table.column("group_id"))
    else:
        table, conf_table = _read_release_csv(directory / "release.csv", doc["schema"]), None
    if row_ids is not None:
        table = _carry(table, MicrodataTable(table.schema, dict(table.columns), np.asarray(row_ids, dtype=np.int64)))
    return AnonymizedRelease(table, partition, prov, conf_table)
