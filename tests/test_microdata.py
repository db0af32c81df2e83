import json

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
    Provenance,
    canonical_partition,
    generalize_value,
    hierarchy_from_json,
    hierarchy_to_json,
    load_hierarchies,
    load_table,
    make_table,
    mdav_partition,
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
    MissingColumn,
    MissingPartition,
    SearchSpaceTooLarge,
    UnknownAttribute,
    UnknownValue,
)
from sdckit.microdata import canonical_number, class_labels, classes_by_label
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


def test_load_hierarchies_rejects_a_second_hierarchy_for_one_attribute():
    docs = [
        {"attribute": "x", "intervals": {"min": 1, "max": 10, "cuts": [[6]]}},
        {"attribute": "x", "intervals": {"min": 1, "max": 10, "cuts": [[3]]}},
    ]
    with pytest.raises(ValueError, match="second hierarchy for 'x'"):
        load_hierarchies(docs)


# -- releases -------------------------------------------------------------------


def test_canonical_partition_sorts_groups_and_members():
    assert canonical_partition([(3, 1), (0, 2)]) == ((0, 2), (1, 3))


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
        AnonymizedRelease(table, partition, Provenance("x"))


def test_canonical_partition_takes_numpy_integers():
    assert canonical_partition([np.array([3, 1]), (np.int32(0), 2)]) == ((0, 2), (1, 3))


@pytest.mark.parametrize(
    "partition, n",
    [
        (((0, 1), (1, 2)), 3),  # row 1 twice
        (((0, 1), (2,)), 4),  # row 3 missing
        (((0, 1), (1,)), 3),  # n members, one repeated, one missing
        (((0, 5), (1,)), 3),  # row 5 out of range
        (((-1, 0), (1,)), 3),  # negative row
    ],
)
def test_class_labels_requires_an_exact_cover(partition, n):
    with pytest.raises(ValueError, match="cover every row exactly once"):
        class_labels(partition, n)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_classes_by_label_inverts_class_labels(data):
    labels = data.draw(st.lists(st.integers(0, 5), max_size=30))
    groups = {}
    for row, label in enumerate(labels):
        groups.setdefault(label, []).append(row)
    # any group order and any member order
    partition = [data.draw(st.permutations(g)) for g in data.draw(st.permutations(list(groups.values())))]
    got = class_labels(partition, len(labels))
    for j, g in enumerate(partition):
        assert all(got[i] == j for i in g)
    assert canonical_partition(classes_by_label(got)) == canonical_partition(partition)


def test_release_rejects_identifiers_and_bad_partitions(people_table):
    with pytest.raises(ValueError):
        AnonymizedRelease(people_table, None, Provenance("x"))
    masked = suppress_identifiers(people_table)
    with pytest.raises(ValueError):
        AnonymizedRelease(masked, ((0, 1),), Provenance("x"))  # does not cover all rows
    n = masked.n_rows
    rel = AnonymizedRelease(masked, (tuple(range(n)),), Provenance("x"))
    assert rel.partition == (tuple(range(n)),)
    assert rel.labels.tolist() == [0] * n
    # labels follow the canonical class order, whatever order the classes came in
    rel = AnonymizedRelease(masked, [range(1, n), [0]], Provenance("x"))
    assert rel.labels.tolist() == [0] + [1] * (n - 1)
    assert AnonymizedRelease(masked, None, Provenance("x")).labels is None


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
    assert not {"schema", "partition", "row_ids"} & set(sidecar)

    back = read_release(tmp_path)
    assert back.table.equals(rel.table)
    assert list(back.table.row_ids) == list(rel.table.row_ids)
    assert back.conf_table.equals(rel.conf_table)
    assert list(back.conf_table.row_ids) == list(rel.conf_table.row_ids)
    assert back.partition == rel.partition
    assert back.provenance == rel.provenance


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
