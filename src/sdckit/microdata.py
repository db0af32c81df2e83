"""Microdata model: attribute schemas, tables, generalization hierarchies, releases.

Tables are immutable after construction. Numeric cells are stored as float64,
categorical cells as NFC-normalized text. Every record carries an internal
row id that masking operations preserve and serialization never writes out.
"""

from __future__ import annotations

import csv
import io
import json
import math
import unicodedata
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import chain
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


def nfc(text: str) -> str:
    return unicodedata.normalize("NFC", text)


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
        norm = tuple(nfc(str(v)) for v in self.values)
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


def schema_from_descriptor(descriptor: Mapping[str, Mapping[str, Any]]) -> tuple[AttributeSchema, ...]:
    """Build a schema from the JSON sidecar form: name -> {role, kind, domain}."""
    attrs = []
    for name, spec in descriptor.items():
        role = spec.get("role")
        kind_name = spec.get("kind")
        if kind_name == "numeric":
            kind: NumericKind | CategoricalKind = NumericKind(spec["min"], spec["max"])
        elif kind_name == "categorical":
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

    @property
    def confidential_names(self) -> tuple[str, ...]:
        return self.names_with_role("confidential")

    def column(self, name: str) -> np.ndarray:
        self.attribute(name)
        return self.columns[name]

    def row(self, i: int) -> tuple:
        return tuple(self.columns[a.name][i] for a in self.schema)

    # -- derivation ---------------------------------------------------------

    def take(self, indices: Iterable[int]) -> "MicrodataTable":
        idx = np.asarray(list(indices), dtype=np.int64)
        cols = {name: self.columns[name][idx] for name in self.names}
        return MicrodataTable(self.schema, cols, self.row_ids[idx])

    def drop_columns(self, names: Iterable[str]) -> "MicrodataTable":
        drop = set(names)
        keep = tuple(a for a in self.schema if a.name not in drop)
        cols = {a.name: self.columns[a.name] for a in keep}
        return MicrodataTable(keep, cols, self.row_ids)

    def with_column(self, name: str, values: np.ndarray, kind=None, role=None) -> "MicrodataTable":
        """Replace one column, optionally changing its declared kind or role."""
        old = self.attribute(name)
        new_attr = AttributeSchema(name, role or old.role, kind or old.kind)
        schema = tuple(new_attr if a.name == name else a for a in self.schema)
        cols = dict(self.columns)
        cols[name] = np.asarray(values)
        return MicrodataTable(schema, cols, self.row_ids)

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
    cols = _decode_columns(schema, cells, _given_value)
    n = len(cells[schema[0].name]) if schema else 0
    ids = np.arange(n, dtype=np.int64) if row_ids is None else np.asarray(list(row_ids), dtype=np.int64)
    return MicrodataTable(schema, cols, ids)


# --------------------------------------------------------------------------
# cell codec: the one place cell text is read and written
# --------------------------------------------------------------------------


def comparable_text(table: MicrodataTable, name: str) -> np.ndarray:
    """Column as canonical text, so masked label columns compare against raw
    numerics. A numeric column formats each distinct value once."""
    attr = table.attribute(name)
    col = table.columns[name]
    if attr.is_numeric:
        values, row_of = np.unique(np.asarray(col, dtype=float), return_inverse=True)
        return np.asarray([canonical_number(v) for v in values], dtype=object)[row_of]
    return np.asarray([str(v) for v in col], dtype=object)


def factorize(values: np.ndarray):
    """The distinct values and, per entry, the index of its value among them.

    Numeric arrays go through ``np.unique``; object arrays take one hash pass
    and number their values in order of first occurrence.
    """
    if values.dtype != object:
        return np.unique(values, return_inverse=True)
    index: dict = {}  # hashing beats sorting Python objects
    codes = np.fromiter((index.setdefault(v, len(index)) for v in values.tolist()), np.int64, len(values))
    return list(index), codes


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


def _decode_columns(schema, cells: Mapping[str, np.ndarray], decode) -> dict[str, np.ndarray]:
    """Each column decoded once per distinct cell by ``decode(attr, cell) -> (value,
    why rejected)``; raises the DomainViolation of the first rejected cell in
    row-major order. A float64 column is only checked, since np.unique merges -0.0 and 0.0."""
    cols: dict[str, np.ndarray] = {}
    faults: list[DomainViolation] = []
    for a in schema:
        distinct, codes = factorize(cells[a.name])
        decoded = [decode(a, cell) for cell in distinct]
        bad = np.fromiter((why is not None for _, why in decoded), bool, len(decoded))
        if bad.any():
            row = int(np.argmax(bad[codes]))
            faults.append(DomainViolation(row, a.name, decoded[codes[row]][1]))
        elif cells[a.name].dtype == np.float64:
            cols[a.name] = cells[a.name]
        else:
            values = [value for value, _ in decoded]
            cols[a.name] = np.asarray(values, dtype=np.float64 if a.is_numeric else object)[codes]
    if faults:
        raise min(faults, key=lambda e: e.row)
    return cols


def load_table(csv_data: bytes | str, schema_descriptor) -> MicrodataTable:
    """Parse csv bytes against a schema descriptor.

    The header must carry exactly the declared attribute names. Missing values
    are rejected: every cell must parse and fall inside its declared domain.
    The first fault in row-major order is raised; a ragged row faults before its cells.
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

    body = rows[1:]
    widths = np.fromiter(map(len, body), np.int64, len(body))
    ragged = np.flatnonzero(widths != len(header))
    end = int(ragged[0]) if ragged.size else len(body)
    fields = list(zip(*body[:end])) if end else [()] * len(header)
    cells = {name: np.asarray(fields[header.index(name)], dtype=object) for name in names}
    cols = _decode_columns(schema, cells, _csv_value)
    if ragged.size:
        raise MalformedCsv(f"row {end}: expected {len(header)} fields, got {widths[end]}")
    return MicrodataTable(schema, cols, np.arange(len(body), dtype=np.int64))


def serialize_table(table: MicrodataTable) -> bytes:
    """Write the table as RFC 4180 csv with canonical number formatting."""
    buf = io.StringIO()
    writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n")
    writer.writerow(table.names)
    writer.writerows(zip(*(comparable_text(table, name).tolist() for name in table.names)))
    return buf.getvalue().encode("utf-8")


def suppress_identifiers(table: MicrodataTable) -> MicrodataTable:
    """Drop every attribute with role identifier; all other columns pass through."""
    return table.drop_columns(table.identifier_names)


# --------------------------------------------------------------------------
# generalization hierarchies
# --------------------------------------------------------------------------


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
        self._paths: dict[str, tuple[str, ...]] = {}
        self._children: dict[str, list[str]] = {}
        self._level_of: dict[str, int] = {}
        self._lo = 0.0
        self._hi = 0.0
        self._cuts: tuple[tuple[float, ...], ...] = ()
        self._integral = False
        self._interval_of: dict[str, tuple[float, float]] = {}

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_tree(cls, attribute: str, tree: Mapping[str, Any]) -> "GeneralizationHierarchy":
        if len(tree) != 1:
            raise ValueError("hierarchy tree must have exactly one root")
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
                raise ValueError("hierarchy tree nodes must be objects or null")
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
        for leaf, lineage in paths.items():
            for level, label in enumerate(lineage):
                prior = h._level_of.get(label)
                if prior is not None and prior != level:
                    raise ValueError(f"label {label!r} appears at two levels")
                h._level_of[label] = level
                if level > 0:
                    h._children.setdefault(label, [])
                    child = lineage[level - 1]
                    if child not in h._children[label]:
                        h._children[label].append(child)
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
        for level in range(1, height + 1):
            for ivl_lo, ivl_hi in h._intervals_at(level):
                label = h._interval_label(ivl_lo, ivl_hi)
                if label in h._level_of:
                    # an interval no cut splits repeats at coarser levels; it is
                    # the same node, registered once at its lowest level
                    continue
                h._level_of[label] = level
                h._interval_of[label] = (ivl_lo, ivl_hi)
        return h

    # -- interval plumbing ---------------------------------------------------

    def _intervals_at(self, level: int) -> list[tuple[float, float]]:
        """Half-open [lo, hi) intervals except the last, which closes at the domain max."""
        cut_list = self._cuts[level - 1]
        edges = [self._lo, *cut_list, math.nextafter(self._hi, math.inf)]
        return [(edges[i], edges[i + 1]) for i in range(len(edges) - 1)]

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

    def label(self, value, level: int) -> str:
        """Text label of the ancestor of ``value`` at the requested level."""
        if not 0 <= level <= self.height:
            raise LevelOutOfRange(f"level {level} outside [0, {self.height}] for {self.attribute!r}")
        if not self.contains(value):
            raise UnknownValue(f"{value!r} is not a leaf of the hierarchy for {self.attribute!r}")
        if self.kind == "tree":
            return self._paths[nfc(value)][level]
        v = float(value)
        if level == 0:
            return canonical_number(v)
        cut_list = self._cuts[level - 1]
        j = bisect_right(cut_list, v)
        edges = [self._lo, *cut_list, math.nextafter(self._hi, math.inf)]
        return self._interval_label(edges[j], edges[j + 1])

    def value_path(self, value) -> tuple[str, ...]:
        return tuple(self.label(value, lv) for lv in range(self.height + 1))

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

    def leaves_under(self, label: str, limit: int = 10**6) -> list:
        """Enumerate the domain values below a node; refuses unenumerable domains."""
        level = self.level_of_label(label)
        if self.kind == "tree":
            if level == 0:
                return [label]
            found = [leaf for leaf, lineage in self._paths.items() if lineage[level] == label]
            if len(found) > limit:
                raise SearchSpaceTooLarge(f"{len(found)} leaves under {label!r} exceed limit {limit}")
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
        if count > limit:
            raise SearchSpaceTooLarge(f"{count} leaves under {label!r} exceed limit {limit}")
        return [float(x) for x in range(left, right + 1)]

    @property
    def root_label(self) -> str:
        if self.kind == "tree":
            some_path = next(iter(self._paths.values()))
            return some_path[-1]
        return self._interval_label(*self._intervals_at(self.height)[0])


def generalize_value(hierarchy: GeneralizationHierarchy, value, level: int):
    """Ancestor of a leaf at the requested level; level 0 returns the value itself."""
    if not isinstance(level, (int, np.integer)) or level < 0 or level > hierarchy.height:
        raise LevelOutOfRange(f"level {level} outside [0, {hierarchy.height}]")
    if not hierarchy.contains(value):
        raise UnknownValue(f"{value!r} is not a leaf of the hierarchy for {hierarchy.attribute!r}")
    if level == 0:
        return value
    return hierarchy.label(value, int(level))


def hierarchy_from_json(doc: Mapping[str, Any] | str) -> GeneralizationHierarchy:
    if isinstance(doc, str):
        doc = json.loads(doc)
    attribute = doc["attribute"]
    if "tree" in doc:
        return GeneralizationHierarchy.from_tree(attribute, doc["tree"])
    if "intervals" in doc:
        spec = doc["intervals"]
        return GeneralizationHierarchy.from_breakpoints(
            attribute, spec["min"], spec["max"], spec.get("cuts", [])
        )
    raise ValueError("hierarchy document needs a 'tree' or 'intervals' section")


def hierarchy_to_json(h: GeneralizationHierarchy) -> dict[str, Any]:
    if h.kind == "intervals":
        return {
            "attribute": h.attribute,
            "intervals": {"min": h._lo, "max": h._hi, "cuts": [list(c) for c in h._cuts[:-1]]},
        }

    def build(label: str):
        kids = h._children.get(label)
        if not kids:
            return None
        return {k: build(k) for k in kids}

    root = h.root_label
    return {"attribute": h.attribute, "tree": {root: build(root)}}


def load_hierarchies(docs: Iterable[Mapping[str, Any] | str]) -> dict[str, GeneralizationHierarchy]:
    """Hierarchies by attribute; each document is a JSON object or its text.

    Raises ValueError for an entry that is not an object with a string
    ``attribute`` and for a second hierarchy of one attribute.
    """
    out: dict[str, GeneralizationHierarchy] = {}
    for i, doc in enumerate(docs):
        if isinstance(doc, str):
            doc = json.loads(doc)
        if not isinstance(doc, Mapping) or not isinstance(doc.get("attribute"), str):
            raise ValueError(f"hierarchy entry {i} is not a JSON object with a string 'attribute'")
        h = hierarchy_from_json(doc)
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
    return load_table(Path(csv_path).read_bytes(), descriptor)


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


def canonical_partition(groups: Iterable[Iterable[int]]) -> tuple[tuple[int, ...], ...]:
    """Sort members within groups and groups by first member.

    Raises ValueError for an empty group or a member that is not an integer.
    """
    groups = [tuple(g) for g in groups]
    members = list(chain.from_iterable(groups))
    # one member of each type stands for all members of that type
    for value in dict(zip(map(type, members), members)).values():
        if not _is_integer(value):
            raise ValueError(f"partition member {value!r} is not an integer row position")
    if not all(groups):
        raise ValueError("partition has an empty class")
    return tuple(sorted((tuple(sorted(map(int, g))) for g in groups), key=lambda g: g[0]))


def class_labels(partition: Sequence[Sequence[int]], n: int) -> np.ndarray:
    """Each of rows 0..n-1's class: the index of its group in ``partition``.

    Raises ValueError unless the partition covers every row exactly once.
    """
    sizes = list(map(len, partition))
    members = np.fromiter(chain.from_iterable(partition), np.int64, sum(sizes))
    if not np.array_equal(np.sort(members), np.arange(n)):
        raise ValueError("partition must cover every row exactly once")
    labels = np.empty(n, dtype=np.int64)
    labels[members] = np.repeat(np.arange(len(sizes)), sizes)
    return labels


def classes_by_label(labels: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """Rows grouped by equal label, ascending within a group, groups in label order."""
    labels = np.asarray(labels)
    order = np.argsort(labels, kind="stable")
    ordered = labels[order]
    cuts = np.flatnonzero(ordered[1:] != ordered[:-1]) + 1
    return tuple(tuple(g.tolist()) for g in np.split(order, cuts)) if order.size else ()


@dataclass(frozen=True)
class AnonymizedRelease:
    """A published table and the equivalence classes it publishes.

    ``table`` is the released table. ``partition`` holds the classes as row
    positions in ``table``, or None when the release publishes no classes
    (noise addition, the identity). Anatomy also sets ``conf_table``: the
    confidential side, linked to ``table`` only through their shared
    ``group_id`` column, where class j is the rows with ``group_id == j``.
    ``labels`` gives each row of ``table`` the index of its class in
    ``partition``, or is None without one. ``class_table(attribute)`` gives
    the table holding an attribute and the classes as row positions in that
    table, so checks and attacks read every release's classes one way.
    """

    table: MicrodataTable
    partition: tuple[tuple[int, ...], ...] | None
    provenance: Provenance
    conf_table: MicrodataTable | None = None

    def __post_init__(self):
        if self.table.identifier_names:
            raise ValueError("releases must not contain identifier attributes")
        labels = None
        if self.partition is not None:
            object.__setattr__(self, "partition", canonical_partition(self.partition))
            labels = class_labels(self.partition, self.table.n_rows)
            labels.setflags(write=False)
        # a plain attribute, not a field: equality and hashing stay on ``partition``
        object.__setattr__(self, "labels", labels)
        if self.conf_table is not None:
            if self.partition is None or self.conf_table.n_rows != self.table.n_rows:
                raise ValueError("a confidential side needs a partition of as many rows")
            # class j has as many rows on each side exactly when the sorted labels agree
            if not np.array_equal(np.sort(self.conf_table.column("group_id")), np.sort(labels)):
                raise ValueError("confidential group_id classes do not match the partition")

    def class_table(self, attribute: str) -> tuple[MicrodataTable, tuple[tuple[int, ...], ...]]:
        """The published table holding ``attribute`` and the classes as row positions in it."""
        if self.partition is None:
            raise MissingPartition("release carries no class partition")
        if self.conf_table is not None and self.conf_table.has_attribute(attribute):
            return self.conf_table, classes_by_label(self.conf_table.column("group_id"))
        self.table.attribute(attribute)
        return self.table, self.partition


def as_table(release_or_table) -> MicrodataTable:
    """A release's ``table`` (anatomy's QI side), or a bare table as it is."""
    if isinstance(release_or_table, MicrodataTable):
        return release_or_table
    return release_or_table.table


def write_release(release: AnonymizedRelease, directory: str | Path, basename: str = "release") -> list[Path]:
    """Write the release csv plus a JSON provenance sidecar; returns the paths written.

    A release with a confidential side is written as ``<basename>_qi.csv`` and
    ``<basename>_conf.csv``, with both schemas and no partition or row ids in
    the sidecar (the ``group_id`` columns carry the classes). Any other
    release is written as ``<basename>.csv``.
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
        paths = [directory / f"{basename}.csv"]
        paths[0].write_bytes(serialize_table(release.table))
        doc["schema"] = schema_to_descriptor(release.table.schema)
        doc["partition"] = [list(g) for g in release.partition] if release.partition is not None else None
        doc["row_ids"] = [int(i) for i in release.table.row_ids]
    else:
        paths = [directory / f"{basename}_qi.csv", directory / f"{basename}_conf.csv"]
        paths[0].write_bytes(serialize_table(release.table))
        paths[1].write_bytes(serialize_table(release.conf_table))
        doc["schema_qi"] = schema_to_descriptor(release.table.schema)
        doc["schema_conf"] = schema_to_descriptor(release.conf_table.schema)
    sidecar_path = directory / f"{basename}.provenance.json"
    sidecar_path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return paths + [sidecar_path]


def _read_release_csv(path: Path, schema: Mapping) -> MicrodataTable:
    raw = path.read_bytes()
    # the sidecar's keys are sorted: take the csv's column order, declared columns it lacks last
    header = next(csv.reader(io.StringIO(raw.decode("utf-8"))), None)
    if header is None:
        raise MalformedCsv(f"{path}: empty input: no header row")
    names = [name for name in header if name in schema] + [name for name in schema if name not in header]
    return load_table(raw, {name: schema[name] for name in names})


def _is_integer_list(value) -> bool:
    return isinstance(value, list) and all(map(_is_integer, value))


def read_release(directory: str | Path, basename: str = "release") -> AnonymizedRelease:
    """Read what ``write_release`` wrote, either layout.

    A sidecar that is not a JSON object, or whose ``mechanism``, ``params``,
    ``seed``, ``notes``, ``partition`` or ``row_ids`` has the wrong shape,
    raises ValueError naming the field.
    """
    directory = Path(directory)
    doc = json.loads((directory / f"{basename}.provenance.json").read_text(encoding="utf-8"))
    if not isinstance(doc, dict):
        raise ValueError("release sidecar must be a JSON object")
    if not isinstance(doc.get("mechanism"), str):
        raise ValueError("release sidecar field 'mechanism' must be a string")
    params, seed, notes = doc.get("params", {}), doc.get("seed"), doc.get("notes", [])
    if not isinstance(params, dict):
        raise ValueError("release sidecar field 'params' must be an object")
    if seed is not None and not _is_integer(seed):
        raise ValueError("release sidecar field 'seed' must be null or an integer")
    if not (isinstance(notes, list) and all(isinstance(note, str) for note in notes)):
        raise ValueError("release sidecar field 'notes' must be a list of strings")
    partition, row_ids = doc.get("partition"), doc.get("row_ids")
    if partition is not None and not (isinstance(partition, list) and all(map(_is_integer_list, partition))):
        raise ValueError("release sidecar field 'partition' must be null or a list of lists of integers")
    if row_ids is not None and not _is_integer_list(row_ids):
        raise ValueError("release sidecar field 'row_ids' must be a list of integers")
    prov = Provenance(mechanism=doc["mechanism"], params=params, seed=seed, notes=tuple(notes))
    if "schema_conf" in doc:
        table = _read_release_csv(directory / f"{basename}_qi.csv", doc["schema_qi"])
        conf_table = _read_release_csv(directory / f"{basename}_conf.csv", doc["schema_conf"])
        return AnonymizedRelease(table, classes_by_label(table.column("group_id")), prov, conf_table)
    table = _read_release_csv(directory / f"{basename}.csv", doc["schema"])
    if row_ids is not None:
        table = MicrodataTable(table.schema, dict(table.columns), np.asarray(row_ids, dtype=np.int64))
    return AnonymizedRelease(table=table, partition=partition, provenance=prov)
