import copy
import csv
import io
import json
import pickle
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdckit import (
    AnonymizedRelease,
    AttributeSchema,
    CategoricalKind,
    GeneralizationHierarchy,
    MicrodataTable,
    NumericKind,
    Partition,
    Provenance,
    anonymize_generalization,
    cluster_and_permute,
    dp_microdata_release,
    generalize_value,
    hierarchy_from_json,
    hierarchy_to_json,
    load_hierarchies,
    load_table,
    make_table,
    mdav_microaggregate,
    mdav_partition,
    minimal_generalization,
    read_release,
    schema_from_descriptor,
    schema_to_descriptor,
    serialize_table,
    suppress_identifiers,
    write_release,
)
from sdckit.errors import (
    DomainViolation,
    LevelOutOfRange,
    MalformedCsv,
    Misaligned,
    MissingColumn,
    MissingPartition,
    SearchSpaceTooLarge,
    UnknownAttribute,
    UnknownValue,
)
from sdckit.attacks import attribute_inference_attack
from sdckit.kanon import microaggregate_partition, sse
from sdckit.microdata import _encode_text, canonical_number, row_positions
from sdckit.probkanon import anatomize

from conftest import build_people_table

ZIP_TREE = {"*": {"4300*": {"43007": None, "43008": None}, "0800*": {"08001": None}}}
COUNTRY_TREE = {"Country": {"USA": None, "France": None}}


# -- scalar formatting and kinds ---------------------------------------------


def test_canonical_number_integers_and_floats():
    assert canonical_number(2.0) == "2"
    assert canonical_number(-0.0) == "0"
    assert canonical_number(2.5) == "2.5"
    assert canonical_number(1e20) == "1e+20"
    assert float(canonical_number(0.1)) == 0.1


def test_numeric_kind_rejects_bad_bounds():
    with pytest.raises(ValueError):
        NumericKind(3, 1)
    with pytest.raises(ValueError):
        NumericKind(0, float("inf"))
    assert NumericKind(2, 5).width == 3


def test_categorical_kind_normalizes_and_rejects_duplicates():
    with pytest.raises(ValueError):
        CategoricalKind(())
    with pytest.raises(ValueError):
        CategoricalKind(("a", "a"))
    # composed and decomposed forms of the same text are the same value
    with pytest.raises(ValueError):
        CategoricalKind(("café", "café"))


def test_attribute_schema_rejects_unknown_role():
    with pytest.raises(ValueError):
        AttributeSchema("x", "sensitive", NumericKind(0, 1))


# -- table construction -------------------------------------------------------


def test_make_table_validates_cells_row_major():
    schema = (
        AttributeSchema("a", "quasi_identifier", NumericKind(0, 10)),
        AttributeSchema("b", "quasi_identifier", CategoricalKind(("x", "y"))),
    )
    with pytest.raises(DomainViolation) as e:
        make_table(schema, {"a": [1, 99], "b": ["x", "z"]})
    # row 1, attribute a comes before row 1, attribute b
    assert e.value.row == 1 and e.value.attribute == "a"


def test_table_is_immutable(people_table):
    with pytest.raises(ValueError):
        people_table.columns["age"][0] = 5.0


def test_take_and_drop_and_with_column(people_table):
    sub = people_table.take([2, 0])
    assert sub.n_rows == 2
    assert list(sub.row_ids) == [2, 0]
    no_id = suppress_identifiers(people_table)
    assert "pid" not in no_id.names
    assert no_id.row_ids.shape == people_table.row_ids.shape
    bumped = people_table.with_column("age", people_table.columns["age"] + 1)
    assert bumped.columns["age"][0] == people_table.columns["age"][0] + 1
    with pytest.raises(UnknownAttribute):
        people_table.attribute("nope")


def test_the_schema_index_answers_as_the_schema_does():
    schema = (
        AttributeSchema("zip", "quasi_identifier", CategoricalKind(("1", "2"))),
        AttributeSchema("pid", "identifier", CategoricalKind(("a", "b"))),
        AttributeSchema("age", "quasi_identifier", NumericKind(0, 9)),
        AttributeSchema("ssn", "identifier", CategoricalKind(("x", "y"))),
        AttributeSchema("dx", "confidential", CategoricalKind(("u", "v"))),
        AttributeSchema("sex", "quasi_identifier", CategoricalKind(("f", "m"))),
    )
    cols = {"zip": ["1", "2"], "pid": ["a", "b"], "age": [3, 4], "ssn": ["x", "y"], "dx": ["u", "v"], "sex": ["f", "m"]}
    table = make_table(schema, cols)
    for a in schema:
        assert table.attribute(a.name) is a and table.has_attribute(a.name)
    for name in ("nope", "Zip", ""):
        assert not table.has_attribute(name)
        with pytest.raises(UnknownAttribute) as e:
            table.attribute(name)
        assert e.value.attribute == name
        with pytest.raises(UnknownAttribute):
            table.column(name)
    # in schema order, the same on every read
    assert table.qi_names == ("zip", "age", "sex") and table.qi_names is table.qi_names
    assert table.identifier_names == ("pid", "ssn") and table.identifier_names is table.identifier_names
    published = suppress_identifiers(table)
    assert published.qi_names == ("zip", "age", "sex") and published.identifier_names == ()
    assert table.take([1, 0]).qi_names == table.qi_names
    # a copy or an unpickled table keeps its index
    for clone in (copy.deepcopy(table), pickle.loads(pickle.dumps(table))):
        assert clone.attribute("age") == schema[2] and clone.qi_names == ("zip", "age", "sex")


def test_suppress_identifiers_keeps_every_attribute_it_does_not_redeclare():
    table = build_people_table(seed=2, n=12)
    labels = CategoricalKind(("young", "old"))
    ages = np.where(table.columns["age"] < 50, "young", "old")
    published = suppress_identifiers(table, {"age": ages}, {"age": labels})
    assert published.names == ("age", "zip", "height", "diagnosis")
    for a in published.schema:
        if a.name == "age":
            assert a == AttributeSchema("age", "quasi_identifier", labels) and a is not table.attribute("age")
        else:
            assert a is table.attribute(a.name)
    # the same kind given again declares an equal attribute; no kinds keeps every one
    same = suppress_identifiers(table, kinds={"zip": table.attribute("zip").kind})
    assert same.attribute("zip") == table.attribute("zip")
    assert all(a is table.attribute(a.name) for a in suppress_identifiers(table).schema)


def test_equals_ignores_row_ids(people_table):
    clone = MicrodataTable(
        people_table.schema, dict(people_table.columns), people_table.row_ids + 100
    )
    assert people_table.equals(clone)


@pytest.mark.parametrize("ids", [[5, 1, 3, 1], [2, 2], [7, 0, 9, 4, 7]])
def test_duplicate_row_ids_are_rejected(people_table, ids):
    cols = {name: col[: len(ids)] for name, col in people_table.columns.items()}
    with pytest.raises(ValueError, match="row_ids must be unique"):
        MicrodataTable(people_table.schema, cols, np.asarray(ids))
    distinct = np.arange(len(ids))[::-1]
    assert list(MicrodataTable(people_table.schema, cols, distinct).row_ids) == list(distinct)


# -- csv ingestion -------------------------------------------------------------


def _descriptor():
    return {
        "age": {"role": "quasi_identifier", "kind": "numeric", "min": 0, "max": 100},
        "zip": {"role": "quasi_identifier", "kind": "categorical", "values": ["43007", "43008"]},
    }


def test_load_table_round_trip(people_table):
    data = serialize_table(people_table)
    assert b"\r\n" in data
    back = load_table(data, schema_to_descriptor(people_table.schema))
    assert people_table.equals(back)


def test_load_table_missing_column_reported_in_schema_order():
    with pytest.raises(MissingColumn) as e:
        load_table("zip\r\n43007\r\n", _descriptor())
    assert e.value.column == "age"


def test_load_table_rejects_unexpected_and_duplicate_columns():
    with pytest.raises(MalformedCsv):
        load_table("age,zip,extra\r\n1,43007,x\r\n", _descriptor())
    with pytest.raises(MalformedCsv):
        load_table("age,zip,age\r\n1,43007,2\r\n", _descriptor())


def test_load_table_rejects_ragged_rows():
    with pytest.raises(MalformedCsv):
        load_table("age,zip\r\n1,43007\r\n2\r\n", _descriptor())


def test_load_table_cell_errors_carry_row_and_attribute():
    with pytest.raises(DomainViolation) as e:
        load_table("age,zip\r\n1,43007\r\n,43008\r\n", _descriptor())
    assert (e.value.row, e.value.attribute) == (1, "age")
    with pytest.raises(DomainViolation) as e:
        load_table("age,zip\r\nabc,43007\r\n", _descriptor())
    assert (e.value.row, e.value.attribute) == (0, "age")
    with pytest.raises(DomainViolation) as e:
        load_table("age,zip\r\n12,99999\r\n", _descriptor())
    assert (e.value.row, e.value.attribute) == (0, "zip")
    with pytest.raises(DomainViolation) as e:
        load_table("age,zip\r\n101,43007\r\n", _descriptor())
    assert e.value.row == 0


def test_load_table_accepts_quoted_fields_and_column_reordering():
    t = load_table('zip,age\r\n"43007",12\r\n', _descriptor())
    assert t.columns["age"][0] == 12.0
    assert t.names == ("age", "zip")


@pytest.mark.parametrize("text", ["age,zip\r\n1,43007\r\n2,43008\r\n", 'zip,age\n"43007",12\n'])
def test_load_table_drops_one_leading_byte_order_mark(text):
    want = load_table(text, _descriptor())
    for marked in ("\ufeff" + text, ("\ufeff" + text).encode("utf-8")):
        got = load_table(marked, _descriptor())
        assert got.equals(want) and got.row_ids.tolist() == want.row_ids.tolist()
    # a second mark, or one inside a cell, is text
    with pytest.raises(MissingColumn):
        load_table("\ufeff\ufeff" + text, _descriptor())
    with pytest.raises(DomainViolation, match="not in declared domain"):
        load_table("age,zip\r\n1,\ufeff43007\r\n", _descriptor())


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 12))
def test_serialize_load_round_trip_random(seed, n):
    t = build_people_table(seed=seed, n=n)
    back = load_table(serialize_table(t), schema_to_descriptor(t.schema))
    assert t.equals(back)


def test_schema_descriptor_round_trip(people_table):
    desc = schema_to_descriptor(people_table.schema)
    again = schema_from_descriptor(json.loads(json.dumps(desc)))
    assert again == people_table.schema


_AGE = {"role": "quasi_identifier", "kind": "numeric", "min": 0, "max": 99}


@pytest.mark.parametrize(
    "descriptor, message",
    [
        (5, "schema descriptor must be an object"),
        ([["age", _AGE]], "schema descriptor must be an object"),
        ({"age": 5}, "attribute 'age': spec must be an object"),
        ({"age": ["quasi_identifier"]}, "attribute 'age': spec must be an object"),
        ({"sex": {"role": "quasi_identifier", "kind": "categorical", "values": 5}}, "'sex': field 'values'"),
        ({"sex": {"role": "quasi_identifier", "kind": "categorical", "values": "FM"}}, "'sex': field 'values'"),
        ({"sex": {"role": "quasi_identifier", "kind": "categorical"}}, "'sex': field 'values'"),
        ({"age": {**_AGE, "min": None}}, "'age': field 'min'"),
        ({"age": {**_AGE, "max": [99]}}, "'age': field 'max'"),
        ({"age": {**_AGE, "max": True}}, "'age': field 'max'"),
    ],
)
def test_schema_from_descriptor_rejects_a_malformed_shape(descriptor, message):
    with pytest.raises(ValueError, match=message):
        schema_from_descriptor(descriptor)


def test_read_release_rejects_a_malformed_schema(tmp_path, people_table):
    write_release(AnonymizedRelease(suppress_identifiers(people_table), None, Provenance("demo")), tmp_path)
    sidecar = tmp_path / "release.provenance.json"
    sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), "schema": 5}))
    with pytest.raises(ValueError, match="schema descriptor must be an object"):
        read_release(tmp_path)


# -- hierarchies ---------------------------------------------------------------


def test_tree_hierarchy_levels_and_labels():
    h = GeneralizationHierarchy.from_tree("zip", ZIP_TREE)
    assert h.height == 2
    assert h.label("43007", 0) == "43007"
    assert h.label("43007", 1) == "4300*"
    assert h.label("43007", 2) == "*"
    assert h.value_path("08001") == ("08001", "0800*", "*")
    assert h.level_of_label("4300*") == 1
    assert sorted(h.leaves_under("4300*")) == ["43007", "43008"]
    assert h.root_label == "*"
    with pytest.raises(UnknownValue):
        h.label("99999", 1)
    with pytest.raises(LevelOutOfRange):
        h.label("43007", 3)


def test_tree_hierarchy_rejects_malformed_trees():
    with pytest.raises(ValueError):
        GeneralizationHierarchy.from_tree("x", {"a": None, "b": None})  # two roots
    with pytest.raises(ValueError):
        GeneralizationHierarchy.from_tree("x", {"r": {"a": {"c": None}, "b": None}})  # unbalanced
    with pytest.raises(ValueError):
        GeneralizationHierarchy.from_tree("x", {"r": {"r": None}})  # duplicate label


def test_interval_hierarchy_labels_and_leaves():
    h = GeneralizationHierarchy.from_breakpoints("x", 1, 10, [[6]])
    assert h.height == 2
    assert h.label(2, 1) == "[1,5]"
    assert h.label(6, 1) == "[6,10]"
    assert h.label(2, 2) == "[1,10]"
    assert h.level_of_label("7") == 0
    assert h.leaves_under("[1,5]") == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert h.leaves_under("3") == [3.0]
    assert h.root_label == "[1,10]"


def test_interval_hierarchy_validates_cuts():
    with pytest.raises(ValueError):
        GeneralizationHierarchy.from_breakpoints("x", 0, 10, [[5, 5]])
    with pytest.raises(ValueError):
        GeneralizationHierarchy.from_breakpoints("x", 0, 10, [[11]])
    with pytest.raises(ValueError):
        # coarser level must reuse a subset of the finer level's cuts
        GeneralizationHierarchy.from_breakpoints("x", 0, 10, [[2, 6], [5]])


def test_interval_hierarchy_non_integral_leaves_are_not_enumerable():
    h = GeneralizationHierarchy.from_breakpoints("x", 0.0, 1.0, [[0.5]])
    with pytest.raises(SearchSpaceTooLarge):
        h.leaves_under("[0,0.5)")


def test_generalize_value_levels():
    h = GeneralizationHierarchy.from_tree("country", COUNTRY_TREE)
    assert generalize_value(h, "USA", 0) == "USA"
    assert generalize_value(h, "USA", 1) == "Country"
    with pytest.raises(LevelOutOfRange):
        generalize_value(h, "USA", 2)


def test_label_and_generalize_value_take_an_int_level_in_range_only():
    h = GeneralizationHierarchy.from_breakpoints("age", 0, 100, [[30, 60]])
    assert h.label(30, np.int64(1)) == generalize_value(h, 30, np.int64(1)) == "[30,59]"
    assert generalize_value(h, 30, 0) == 30
    for level in (True, 1.5, -1, h.height + 1):
        with pytest.raises(LevelOutOfRange, match="'age'"):
            h.label(30, level)
        with pytest.raises(LevelOutOfRange, match="'age'"):
            generalize_value(h, 30, level)


def test_hierarchy_json_round_trip():
    for h in (
        GeneralizationHierarchy.from_tree("zip", ZIP_TREE),
        GeneralizationHierarchy.from_breakpoints("x", 1, 10, [[3, 6], [6]]),
    ):
        doc = hierarchy_to_json(h)
        again = hierarchy_from_json(json.loads(json.dumps(doc)))
        assert again.attribute == h.attribute
        assert again.height == h.height
        if h.kind == "tree":
            assert again.value_path("43007") == h.value_path("43007")
        else:
            assert again.label(4, 1) == h.label(4, 1)


def test_tree_json_is_the_document_read_in_its_order():
    deep = {"r": {"m": {"z2": {"q": None, "b": None}, "a2": {"y": None}},
                  "c": {"k1": {"e": None, "d": None}, "b1": {"f": None}}}}
    for doc in (deep, {"only": None}):
        assert hierarchy_to_json(GeneralizationHierarchy.from_tree("a", doc))["tree"] == doc
    h = GeneralizationHierarchy.from_tree("a", {"r": {"x": {}, "w": None}})
    assert hierarchy_to_json(h) == {"attribute": "a", "tree": {"r": {"x": None, "w": None}}}
    assert json.dumps(hierarchy_to_json(h)["tree"]) == '{"r": {"x": null, "w": null}}'


def test_interval_unsplit_by_coarser_cuts_keeps_its_label_and_lowest_level():
    # cuts 3 and 6 at level 1, only 6 survives to level 2: [6,10] exists at both
    h = GeneralizationHierarchy.from_breakpoints("x", 1, 10, [[3, 6], [6]])
    assert h.label(7, 1) == "[6,10]"
    assert h.label(7, 2) == "[6,10]"
    assert h.level_of_label("[6,10]") == 1
    assert h.leaves_under("[6,10]") == [6.0, 7.0, 8.0, 9.0, 10.0]
    assert h.value_path(2) == ("2", "[1,2]", "[1,5]", "[1,10]")


def test_load_hierarchies_rejects_entries_that_are_not_hierarchy_objects():
    with pytest.raises(ValueError, match="entry 0"):
        load_hierarchies([1, 2])
    with pytest.raises(ValueError, match="entry 1"):
        load_hierarchies([{"attribute": "zip", "tree": ZIP_TREE}, {"tree": ZIP_TREE}])
    with pytest.raises(ValueError, match="entry 0"):
        load_hierarchies([{"attribute": 3, "tree": ZIP_TREE}])


@pytest.mark.parametrize("doc", ['[1]', [1], 3, {"tree": ZIP_TREE}, {"attribute": 3, "tree": ZIP_TREE}])
def test_hierarchy_from_json_rejects_documents_that_are_not_hierarchy_objects(doc):
    with pytest.raises(ValueError, match="not a JSON object with a string 'attribute'"):
        hierarchy_from_json(doc)
    with pytest.raises(ValueError, match="hierarchy entry 1: hierarchy document is not a JSON object"):
        load_hierarchies([{"attribute": "zip", "tree": ZIP_TREE}, doc])


def test_load_hierarchies_rejects_a_second_hierarchy_for_one_attribute():
    docs = [
        {"attribute": "x", "intervals": {"min": 1, "max": 10, "cuts": [[6]]}},
        {"attribute": "x", "intervals": {"min": 1, "max": 10, "cuts": [[3]]}},
    ]
    with pytest.raises(ValueError, match="second hierarchy for 'x'"):
        load_hierarchies(docs)


# -- releases -------------------------------------------------------------------


# frozen references: the partition converters as they were before ``Partition``


def _oracle_canonical_partition(groups):
    groups = [tuple(g) for g in groups]
    return tuple(sorted((tuple(sorted(map(int, g))) for g in groups), key=lambda g: g[0]))


def _oracle_class_labels(partition, n):
    sizes = list(map(len, partition))
    members = np.fromiter(chain.from_iterable(partition), np.int64, sum(sizes))
    assert np.array_equal(np.sort(members), np.arange(n))
    labels = np.empty(n, dtype=np.int64)
    labels[members] = np.repeat(np.arange(len(sizes)), sizes)
    return labels


def _oracle_classes_by_label(labels):
    labels = np.asarray(labels)
    order = np.argsort(labels, kind="stable")
    ordered = labels[order]
    cuts = np.flatnonzero(ordered[1:] != ordered[:-1]) + 1
    return tuple(tuple(g.tolist()) for g in np.split(order, cuts)) if order.size else ()


def test_canonical_partition_sorts_groups_and_members():
    assert Partition([(3, 1), (0, 2)]) == ((0, 2), (1, 3))


@pytest.mark.parametrize(
    "partition, message",
    [
        (((), (0, 1, 2, 3)), "empty class"),
        (((0, 1.5), (2, 3)), "1.5 is not an integer"),
        (((0, 1), (2, 3.0)), "3.0 is not an integer"),
        (((0, True), (2, 3)), "True is not an integer"),
        (((0, "1"), (2, 3)), "'1' is not an integer"),
    ],
)
def test_release_rejects_an_empty_class_or_a_non_integer_member(partition, message):
    table = make_table((AttributeSchema("x", "quasi_identifier", NumericKind(0, 9)),), {"x": [1.0, 2.0, 3.0, 4.0]})
    with pytest.raises(ValueError, match=message):
        Partition(partition)
    with pytest.raises(ValueError, match=message):
        AnonymizedRelease(table, partition, Provenance("x"))


def test_canonical_partition_takes_numpy_integers():
    assert Partition([np.array([3, 1]), (np.int32(0), 2)]) == ((0, 2), (1, 3))


@pytest.mark.parametrize(
    "partition, n",
    [
        (((0, 1), (1, 2)), 3),  # row 1 twice
        (((0, 1), (2,)), 4),  # row 3 missing: a partition of 3 rows, not of the release's 4
        (((0, 1), (1,)), 3),  # n members, one repeated, one missing
        (((0, 5), (1,)), 3),  # row 5 out of range
        (((-1, 0), (1,)), 3),  # negative row
    ],
)
def test_class_labels_requires_an_exact_cover(partition, n):
    table = make_table((AttributeSchema("x", "quasi_identifier", NumericKind(0, 9)),), {"x": [1.0] * n})
    with pytest.raises(ValueError, match="cover every row exactly once"):
        AnonymizedRelease(table, partition, Provenance("x"))


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_classes_by_label_inverts_class_labels(data):
    """``Partition`` against the converters it replaced: any group order, any
    member order, numpy integer members, and the empty table."""
    labels = data.draw(st.lists(st.integers(0, 5), max_size=30))
    groups = {}
    for row, label in enumerate(labels):
        groups.setdefault(label, []).append(row)
    member = data.draw(st.sampled_from([int, np.int32, np.int64]))
    partition = [
        [member(row) for row in data.draw(st.permutations(g))]
        for g in data.draw(st.permutations(list(groups.values())))
    ]
    if partition and data.draw(st.booleans()):
        partition[0] = np.asarray(partition[0])
    expected = _oracle_canonical_partition(partition)
    p = Partition(partition)
    assert p == expected and all(type(g) is tuple for g in p)
    assert json.dumps(p) == json.dumps(expected)
    assert p.labels.tolist() == _oracle_class_labels(expected, len(labels)).tolist()
    assert p.sizes.tolist() == [len(g) for g in expected]
    for array in (p.labels, p.sizes):
        assert array.dtype == np.int64 and not array.flags.writeable
    assert Partition.of_labels(labels) == _oracle_canonical_partition(_oracle_classes_by_label(labels))
    assert Partition.of_labels(p.labels) == p
    assert Partition(p) is p
    for copied in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p)):
        assert copied == p and copied.labels.tolist() == p.labels.tolist() and not copied.labels.flags.writeable


def test_release_rejects_identifiers_and_bad_partitions(people_table):
    with pytest.raises(ValueError):
        AnonymizedRelease(people_table, None, Provenance("x"))
    masked = suppress_identifiers(people_table)
    with pytest.raises(ValueError):
        AnonymizedRelease(masked, ((0, 1),), Provenance("x"))  # does not cover all rows
    n = masked.n_rows
    rel = AnonymizedRelease(masked, (tuple(range(n)),), Provenance("x"))
    assert rel.partition == (tuple(range(n)),)
    assert rel.partition.labels.tolist() == [0] * n
    # labels follow the canonical class order, whatever order the classes came in
    rel = AnonymizedRelease(masked, [range(1, n), [0]], Provenance("x"))
    assert rel.partition.labels.tolist() == [0] + [1] * (n - 1)
    assert AnonymizedRelease(masked, None, Provenance("x")).partition is None


def test_row_positions_finds_each_id_or_gives_minus_one():
    table = make_table((AttributeSchema("x", "quasi_identifier", NumericKind(0, 9)),), {"x": [1, 2, 3]}, [30, 10, 20])
    assert row_positions(table, [10, 40, 30, 20, -5]).tolist() == [1, -1, 0, 2, -1]
    assert row_positions(table, []).tolist() == []
    assert row_positions(table.take([]), [10]).tolist() == [-1]


def test_misaligned_row_ids_are_named_by_the_first_missing_one(people_table):
    qi = ["age", "zip", "height"]
    release = microaggregate_partition(people_table, qi, mdav_partition(people_table, qi, 5))
    ids = np.arange(people_table.n_rows)
    ids[[3, 5]] = [45, 40]
    moved = MicrodataTable(people_table.schema, dict(people_table.columns), ids)
    with pytest.raises(Misaligned, match="release row id 3 is not present"):
        sse(moved, release, qi)
    with pytest.raises(Misaligned, match="row id 45 has no class"):
        attribute_inference_attack(release, "diagnosis", moved)


def test_write_read_release_round_trip(tmp_path, people_table):
    masked = suppress_identifiers(people_table)
    n = masked.n_rows
    part = (tuple(range(0, n // 2)), tuple(range(n // 2, n)))
    rel = AnonymizedRelease(masked, part, Provenance("demo", {"k": 2}, seed=7))
    write_release(rel, tmp_path)
    back = read_release(tmp_path)
    assert back.table.equals(masked)
    assert list(back.table.row_ids) == list(masked.row_ids)
    assert back.partition == part
    assert back.provenance.mechanism == "demo"
    assert back.provenance.params == {"k": 2}
    assert back.provenance.seed == 7
    # a byte-order mark, as a spreadsheet saving the csv adds, leaves the columns in their order
    (tmp_path / "release.csv").write_bytes(b"\xef\xbb\xbf" + (tmp_path / "release.csv").read_bytes())
    assert read_release(tmp_path).table.equals(masked)


_DROP = object()


@pytest.mark.parametrize(
    "field, value",
    [
        ("partition", 5),
        ("partition", [0, 1]),
        ("partition", [[0, 1.5]]),
        ("partition", [["0", "1"]]),
        ("row_ids", 3),
        ("row_ids", "0123"),
        ("row_ids", [0.5, 1, 2]),
        ("row_ids", ["0", "1", "2"]),
        ("row_ids", [True, False]),
        ("mechanism", 5),
        ("mechanism", _DROP),
        ("params", 5),
        ("params", [["k", 2]]),
        ("seed", "7"),
        ("seed", 7.5),
        ("notes", "note"),
        ("notes", [1]),
    ],
)
def test_read_release_rejects_a_malformed_sidecar_field(tmp_path, people_table, field, value):
    write_release(AnonymizedRelease(suppress_identifiers(people_table), None, Provenance("demo")), tmp_path)
    sidecar = tmp_path / "release.provenance.json"
    doc = json.loads(sidecar.read_text())
    if value is _DROP:
        del doc[field]
    else:
        doc[field] = value
    sidecar.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"sidecar field '{field}'"):
        read_release(tmp_path)


@pytest.mark.parametrize("member", [True, 2.0, "2"])
@pytest.mark.parametrize("field", ["row_ids", "partition", "params.scheme.suppressed_row_ids"])
def test_read_release_rejects_one_non_integer_member_among_integers(tmp_path, people_table, field, member):
    # a list of plain ints passes on its set of types; one other member must still fail it
    write_release(AnonymizedRelease(suppress_identifiers(people_table), None, Provenance("demo")), tmp_path)
    sidecar = tmp_path / "release.provenance.json"
    doc = json.loads(sidecar.read_text())
    if field == "row_ids":
        doc["row_ids"] = [*range(2), member, *range(3, people_table.n_rows)]
    elif field == "partition":
        doc["partition"] = [[0, 1], [2, member]]
    else:
        doc["params"] = {"scheme": {"suppressed_row_ids": [0, member]}}
    sidecar.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"^release sidecar field '{field}' must be "):
        read_release(tmp_path)


def test_read_release_rejects_a_sidecar_that_is_not_an_object(tmp_path, people_table):
    write_release(AnonymizedRelease(suppress_identifiers(people_table), None, Provenance("demo")), tmp_path)
    (tmp_path / "release.provenance.json").write_text("[1, 2]")
    with pytest.raises(ValueError, match="must be a JSON object"):
        read_release(tmp_path)


def test_read_release_reports_a_declared_column_missing_from_the_csv(tmp_path, people_table):
    masked = suppress_identifiers(people_table)
    write_release(AnonymizedRelease(masked, None, Provenance("demo")), tmp_path)
    lines = (tmp_path / "release.csv").read_bytes().split(b"\r\n")
    # every field is unquoted here, so dropping the last field drops a column
    (tmp_path / "release.csv").write_bytes(b"\r\n".join(line.rsplit(b",", 1)[0] for line in lines))
    with pytest.raises(MissingColumn) as e:
        read_release(tmp_path)
    assert e.value.column == masked.names[-1]


def test_write_read_anatomy_release_round_trip(tmp_path, people_table):
    partition = mdav_partition(people_table, ["age", "zip", "height"], 5)
    rel = anatomize(people_table, partition, k=5, rng_seed=2)
    written = write_release(rel, tmp_path)
    assert [p.name for p in written] == ["release_qi.csv", "release_conf.csv", "release.provenance.json"]
    sidecar = json.loads((tmp_path / "release.provenance.json").read_text())
    assert {"schema_qi", "schema_conf"} <= set(sidecar)
    assert not {"schema", "partition"} & set(sidecar)
    assert sidecar["row_ids"] == [int(i) for i in rel.table.row_ids]

    back = read_release(tmp_path)
    assert back.table.equals(rel.table)
    assert list(back.table.row_ids) == list(rel.table.row_ids)
    assert back.conf_table.equals(rel.conf_table)
    assert list(back.conf_table.row_ids) == list(rel.conf_table.row_ids)
    assert back.partition == rel.partition
    assert back.provenance == rel.provenance


def test_anatomy_read_back_keeps_row_ids_for_the_attacks(tmp_path):
    table = build_people_table(seed=1, n=40).take(range(10, 40))  # row ids 10..39
    rel = anatomize(table, mdav_partition(table, ["age", "zip", "height"], 5), 5, 0)
    write_release(rel, tmp_path)
    back = read_release(tmp_path)
    assert list(back.table.row_ids) == list(range(10, 40))
    in_memory = attribute_inference_attack(rel, "diagnosis", table)
    assert attribute_inference_attack(back, "diagnosis", table).details == in_memory.details
    assert in_memory.success_rate == pytest.approx(0.413, abs=5e-4)


def _flu_hiv_anatomy(directory):
    """A 4-row Anatomy release: ages 10 and 11 with flu, 50 and 51 with hiv."""
    schema = (
        AttributeSchema("age", "quasi_identifier", NumericKind(0, 99)),
        AttributeSchema("disease", "confidential", CategoricalKind(("flu", "hiv"))),
    )
    table = make_table(schema, {"age": [10.0, 11.0, 50.0, 51.0], "disease": ["flu", "flu", "hiv", "hiv"]})
    write_release(anatomize(table, [(0, 1), (2, 3)], k=2, rng_seed=0), directory)
    return table


def _rewrite_group_ids(path, new_id, sort=False):
    """Rewrite a release csv's group_id cells through ``new_id``, sorting the rows by them if asked."""
    header, *rows = csv.reader(io.StringIO(path.read_bytes().decode("utf-8")))
    g = header.index("group_id")
    rows = [row[:g] + [new_id(row[g])] + row[g + 1 :] for row in rows]
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerows([header] + (sorted(rows, key=lambda r: r[g]) if sort else rows))
    path.write_bytes(buf.getvalue().encode("utf-8"))


@pytest.mark.parametrize("sort_conf", [False, True])
def test_anatomy_read_back_pairs_classes_by_group_id(tmp_path, sort_conf):
    table = _flu_hiv_anatomy(tmp_path)
    swap = {"0": "1", "1": "0"}.get
    _rewrite_group_ids(tmp_path / "release_qi.csv", swap)
    # the same release under another numbering, its confidential side listed either way
    _rewrite_group_ids(tmp_path / "release_conf.csv", swap, sort=sort_conf)
    release = read_release(tmp_path)
    conf_table, classes = release.class_table("disease")
    assert [[conf_table.columns["disease"][i] for i in c] for c in classes] == [["flu", "flu"], ["hiv", "hiv"]]
    report = attribute_inference_attack(release, "disease", table)
    assert report.success_rate == 1.0
    assert [r["posterior"] for r in report.details["per_record"]] == [1.0] * 4


@pytest.mark.parametrize(
    "side, group_ids, message",
    [
        ("qi", ["0", "0", "0", "0"], "confidential group_id 1 is carried by no QI row"),
        ("conf", ["0", "1", "1", "1"], "group_id 0 has 2 QI rows but 1 confidential rows"),
    ],
)
def test_anatomy_read_back_rejects_group_ids_the_sides_disagree_on(tmp_path, side, group_ids, message):
    _flu_hiv_anatomy(tmp_path)
    ids = iter(group_ids)
    _rewrite_group_ids(tmp_path / f"release_{side}.csv", lambda _: next(ids))
    with pytest.raises(ValueError, match=message):
        read_release(tmp_path)


def test_class_table_reads_each_side_of_a_release(people_table):
    partition = mdav_partition(people_table, ["age", "zip", "height"], 5)
    rel = anatomize(people_table, partition, k=5, rng_seed=2)
    table, classes = rel.class_table("age")
    assert table is rel.table and classes == rel.partition
    table, classes = rel.class_table("diagnosis")
    assert table is rel.conf_table
    groups = rel.conf_table.columns["group_id"]
    assert [set(groups[list(c)]) for c in classes] == [{float(j)} for j in range(len(partition))]
    with pytest.raises(UnknownAttribute):
        rel.class_table("nope")
    bare = AnonymizedRelease(suppress_identifiers(people_table), None, Provenance("x"))
    with pytest.raises(MissingPartition):
        bare.class_table("diagnosis")


def test_release_rejects_a_confidential_side_that_disagrees_with_the_partition(people_table):
    partition = mdav_partition(people_table, ["age", "zip", "height"], 5)
    rel = anatomize(people_table, partition, k=5, rng_seed=2)
    with pytest.raises(ValueError):
        AnonymizedRelease(rel.table, None, rel.provenance, rel.conf_table)
    merged = (partition[0] + partition[1],) + tuple(partition[2:])
    with pytest.raises(ValueError):
        AnonymizedRelease(rel.table, merged, rel.provenance, rel.conf_table)


# -- one release construction -------------------------------------------------

TEXTS = ("b", "a", "0", "-0")


def _masking_table(n=8):
    """An identifier between the QIs, -0.0 cells and text cells."""
    schema = (
        AttributeSchema("x", "quasi_identifier", NumericKind(-5, 5)),
        AttributeSchema("pid", "identifier", CategoricalKind(tuple(f"p{i}" for i in range(n)))),
        AttributeSchema("t", "quasi_identifier", CategoricalKind(TEXTS)),
        AttributeSchema("w", "non_confidential", NumericKind(-5, 5)),
        AttributeSchema("d", "confidential", CategoricalKind(TEXTS)),
    )
    x = [-0.0, 0.0, 1.0, -1.0, -0.0, 3.0, 1.0, 0.0]
    t = ["b", "a", "0", "-0", "b", "a", "0", "b"]
    cols = {"x": x[:n], "pid": [f"p{i}" for i in range(n)], "t": t[:n], "w": x[::-1][:n], "d": t[::-1][:n]}
    return make_table(schema, cols, row_ids=[10 * i + 3 for i in range(n)])


MASKING_HIERARCHIES = {
    "x": GeneralizationHierarchy.from_breakpoints("x", -5, 5, [[0]]),
    "t": GeneralizationHierarchy.from_tree("t", {"*": {"letter": {"b": None, "a": None}, "digit": {"0": None, "-0": None}}}),
}


def _chained(table, columns, kinds=None):
    """A published table as masking mechanisms used to build it: one
    ``with_column`` per masked column, then ``drop_columns`` of the identifiers."""
    masked = table
    for name, values in columns.items():
        masked = masked.with_column(name, values, kind=(kinds or {}).get(name))
    return masked.drop_columns(masked.identifier_names)


def _label_kinds(table, names):
    return {name: CategoricalKind(tuple(sorted(set(table.columns[name].tolist())))) for name in names}


def _same_construction(built, chained):
    assert built.schema == chained.schema  # names, roles, kinds and their order
    for name in chained.names:
        mine, theirs = built.columns[name], chained.columns[name]
        assert mine.dtype == theirs.dtype
        assert not mine.flags.writeable and not theirs.flags.writeable
        if mine.dtype == object:
            assert mine.tolist() == theirs.tolist()
        else:
            assert mine.tobytes() == theirs.tobytes()  # -0.0 keeps its sign
    assert not built.row_ids.flags.writeable
    assert built.row_ids.dtype == np.int64 and built.row_ids.tolist() == chained.row_ids.tolist()


def test_mdav_release_is_the_chained_construction():
    table = _masking_table()
    _, release = mdav_microaggregate(table, ["x", "t"], 2)
    masked = {name: release.table.columns[name] for name in ("x", "t")}
    _same_construction(release.table, _chained(table, masked))


def test_generalization_release_is_the_chained_construction():
    table = _masking_table()
    release, scheme = anonymize_generalization(table, MASKING_HIERARCHIES, 3, max_suppression_fraction=0.3)
    raised = [name for name, level in scheme.levels.items() if level]
    assert raised
    kept = table.take([i for i, rid in enumerate(table.row_ids.tolist()) if rid not in scheme.suppressed_row_ids])
    labels = {name: release.table.columns[name] for name in raised}
    _same_construction(release.table, _chained(kept, labels, _label_kinds(release.table, raised)))


def test_minimal_generalization_release_is_the_chained_construction():
    table = _masking_table(4)
    release, _ = minimal_generalization(table, MASKING_HIERARCHIES, 2)
    labels = {name: release.table.columns[name] for name in ("x", "t")}
    _same_construction(release.table, _chained(table, labels, _label_kinds(release.table, labels)))


@pytest.mark.parametrize("mode", ["vector", "per_attribute"])
def test_cluster_and_permute_release_is_the_chained_construction(mode):
    table = _masking_table()
    release = cluster_and_permute(table, ["t", "x"], 2, 7, mode=mode)
    permuted = {name: release.table.columns[name] for name in ("t", "x")}
    _same_construction(release.table, _chained(table, permuted))
    for name in ("t", "x"):  # the carried text codes are a fresh encoding's
        distinct, codes = release.table._text_codes[name]
        fresh_distinct, fresh_codes = _encode_text(release.table, name)
        assert distinct.tolist() == fresh_distinct.tolist() and codes.tolist() == fresh_codes.tolist()


def test_dp_microdata_release_is_the_chained_construction():
    schema = (
        AttributeSchema("v", "quasi_identifier", NumericKind(-1, 1)),
        AttributeSchema("pid", "identifier", NumericKind(0, 9)),
        AttributeSchema("flat", "non_confidential", NumericKind(2, 2)),
        AttributeSchema("w", "confidential", NumericKind(0, 4)),
    )
    cols = {"v": [-0.0, 0.0, 1.0, -1.0], "pid": [0, 1, 2, 3], "flat": [2, 2, 2, 2], "w": [-0.0, 4, 0.0, 1]}
    table = make_table(schema, cols, row_ids=[9, 4, 6, 1])
    release = dp_microdata_release(table, 1.0, 3)
    noisy = {name: release.table.columns[name] for name in ("v", "w")}  # "flat" has no width to noise
    _same_construction(release.table, _chained(table, noisy))
    assert release.table.columns["flat"] is table.columns["flat"]


@pytest.mark.parametrize("name", ["nope", "pid"])
def test_suppress_identifiers_rejects_an_unknown_or_identifier_name(name):
    table = _masking_table()
    with pytest.raises(UnknownAttribute):
        suppress_identifiers(table, {name: table.columns["x"]})
    with pytest.raises(UnknownAttribute):
        suppress_identifiers(table, kinds={name: NumericKind(-5, 5)})


def test_suppress_identifiers_replaces_and_declares_in_schema_order():
    table = _masking_table()
    labels = np.asarray(["lo", "hi"] * 4, dtype=object)
    masked = suppress_identifiers(table, {"x": labels}, {"x": CategoricalKind(("hi", "lo"))})
    assert masked.names == ("x", "t", "w", "d")
    assert masked.attribute("x") == AttributeSchema("x", "quasi_identifier", CategoricalKind(("hi", "lo")))
    assert masked.columns["x"] is labels and masked.columns["t"] is table.columns["t"]
    _same_construction(masked, _chained(table, {"x": labels}, {"x": CategoricalKind(("hi", "lo"))}))
