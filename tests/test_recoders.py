"""Both recoders against frozen copies of the per-row code they replaced:
global recoding that labelled every cell and counted label tuples with a
Counter per candidate level, and minimal recoding that rebuilt every row's
label tuple and a Counter for every lattice state, with no state skipped.
Outputs, search order and errors must be the same; for the minimal recoder
that also checks that the states its walk skips at dead row prefixes hold no
answer."""

import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdckit import (
    AttributeSchema,
    CategoricalKind,
    GeneralizationHierarchy,
    NumericKind,
    anonymize_generalization,
    make_table,
    minimal_generalization,
    verify_k_anonymity,
)
from sdckit.errors import HierarchyMissing, SearchSpaceTooLarge, TooFewRows, UnknownValue, Unsatisfiable
from sdckit.kanon import GeneralizationScheme, _partition_by_combo, cell_is_minimal
from sdckit.microdata import AnonymizedRelease, Partition, Provenance, comparable_text, serialize_table

# --------------------------------------------------------------------------
# frozen references: both recoders as they were before integer-coded counts
# --------------------------------------------------------------------------


def _oracle_partition_by_combo(table, qi):
    cols = [comparable_text(table, name) for name in qi]
    groups = {}
    for i in range(table.n_rows):
        groups.setdefault(tuple(col[i] for col in cols), []).append(i)
    return Partition(groups.values())


def _oracle_label_column(table, name, hierarchy, level):
    col = table.columns[name]
    values = col if not table.attribute(name).is_numeric else col.astype(float)
    return np.asarray([hierarchy.label(v, level) for v in values], dtype=object)


def _oracle_kind(labels):
    return CategoricalKind(tuple(sorted(set(labels))))


def _oracle_anonymize_generalization(table, hierarchies, k, max_suppression_fraction=0.0):
    qi = list(table.qi_names)
    for name in qi:
        if name not in hierarchies:
            raise HierarchyMissing(name)
    n = table.n_rows
    allowed = math.floor(max_suppression_fraction * n)
    label_cache = {}

    def labels_at(name, level):
        if (name, level) not in label_cache:
            label_cache[name, level] = _oracle_label_column(table, name, hierarchies[name], level)
        return label_cache[name, level]

    def violating_rows(levels):
        cols = [labels_at(name, levels[name]) for name in qi]
        combos = list(zip(*[c.tolist() for c in cols])) if cols else [()] * n
        counts = Counter(combos)
        return np.asarray([i for i, c in enumerate(combos) if counts[c] < k], dtype=np.int64)

    levels = {name: 0 for name in qi}
    violators = violating_rows(levels)
    while violators.size > allowed:
        candidates = [name for name in qi if levels[name] < hierarchies[name].height]
        if not candidates:
            raise Unsatisfiable(
                f"full generalization still leaves {violators.size} rows below k={k} "
                f"with only {allowed} suppressions allowed"
            )
        scored = []
        for name in candidates:
            trial = dict(levels)
            trial[name] += 1
            remaining = violating_rows(trial)
            distinct_now = len(set(labels_at(name, levels[name]).tolist()))
            scored.append((remaining.size, distinct_now, qi.index(name), name, remaining))
        scored.sort(key=lambda t: (t[0], t[1], t[2]))
        _, _, _, best_name, violators = scored[0]
        levels[best_name] += 1

    suppressed = np.zeros(n, dtype=bool)
    suppressed[violators] = True
    keep = np.flatnonzero(~suppressed)
    masked = table.take(keep)
    for name in qi:
        if levels[name] > 0:
            labels = labels_at(name, levels[name])[keep]
            masked = masked.with_column(name, labels, kind=_oracle_kind(labels))
    masked = masked.drop_columns(masked.identifier_names)
    scheme = GeneralizationScheme(
        kind="global", qi_order=tuple(qi), levels=dict(levels),
        suppressed_row_ids=tuple(int(table.row_ids[i]) for i in violators),
    )
    release = AnonymizedRelease(
        table=masked,
        partition=_oracle_partition_by_combo(masked, qi),
        provenance=Provenance(
            mechanism="generalization",
            params={"k": k, "scheme": scheme.to_json(), "max_suppression_fraction": max_suppression_fraction},
        ),
    )
    return release, scheme


def _oracle_minimal_generalization(table, hierarchies, k, max_states=10**6):
    qi = list(table.qi_names)
    for name in qi:
        if name not in hierarchies:
            raise HierarchyMissing(name)
    n = table.n_rows
    if n == 0:
        raise TooFewRows("cannot anonymize an empty table")
    heights = [hierarchies[name].height for name in qi]
    states = 1
    for h in heights * n:
        states *= h + 1
        if states > max_states:
            raise SearchSpaceTooLarge(
                f"scheme lattice exceeds {max_states} states for {n} rows x {len(qi)} attributes"
            )
    paths = [
        tuple(
            hierarchies[name].value_path(
                float(table.columns[name][i]) if table.attribute(name).is_numeric else table.columns[name][i]
            )
            for name in qi
        )
        for i in range(n)
    ]
    width = len(qi)
    cell_ranges = [range(heights[a] + 1) for _ in range(n) for a in range(width)]

    def labels_for(levels):
        return [tuple(paths[i][a][levels[i * width + a]] for a in range(width)) for i in range(n)]

    def is_minimal(levels, label_rows):
        counts = Counter(label_rows)
        for cell, lv in enumerate(levels):
            if lv:
                i, a = divmod(cell, width)
                if not cell_is_minimal(counts, label_rows[i], a, paths[i][a][:lv], k):
                    return False
        return True

    for levels in itertools.product(*cell_ranges):
        label_rows = labels_for(levels)
        if not all(c >= k for c in Counter(label_rows).values()):
            continue
        if not is_minimal(levels, label_rows):
            continue
        masked = table
        for a, name in enumerate(qi):
            labels = np.asarray([label_rows[i][a] for i in range(n)], dtype=object)
            masked = masked.with_column(name, labels, kind=_oracle_kind(labels))
        masked = masked.drop_columns(masked.identifier_names)
        cell_levels = tuple(tuple(levels[i * width + a] for a in range(width)) for i in range(n))
        scheme = GeneralizationScheme(kind="local", qi_order=tuple(qi), cell_levels=cell_levels)
        release = AnonymizedRelease(
            table=masked,
            partition=_oracle_partition_by_combo(masked, qi),
            provenance=Provenance(mechanism="minimal_generalization", params={"k": k, "scheme": scheme.to_json()}),
        )
        return release, scheme
    raise Unsatisfiable(f"no cell-level recoding of {n} rows reaches k={k}")


# --------------------------------------------------------------------------
# generated tables
# --------------------------------------------------------------------------

# interval hierarchies over [-2, 6]: "fine" splits at every level; "flat"
# repeats one cut, so moving a cell between levels 1 and 2 keeps its label
INTERVALS = {"fine": [[0, 2, 4], [2]], "flat": [[2], [2]], "short": [[2]]}
NUMBERS = (-2.0, -0.0, 0.0, 1.0, 2.0, 3.5, 6.0)
TREES = {
    "zip": {"*": {"a*": {"a1": None, "a2": None}, "b*": {"b1": None, "b2": None}}},
    "sex": {"*": {"f": None, "m": None}},
}
LEAVES = {"zip": ("a1", "a2", "b1", "b2"), "sex": ("f", "m")}


@st.composite
def recoding_inputs(draw, max_rows, max_qis, min_rows=1, trees=tuple(TREES)):
    """(table, hierarchies): 1..max_qis QIs mixing interval and tree
    hierarchies, over small domains so rows repeat (and greedy scores tie),
    numbers including both -0.0 and 0.0."""
    kinds = draw(st.lists(st.sampled_from([*INTERVALS, *trees]), min_size=1, max_size=max_qis))
    cells = [st.sampled_from(NUMBERS if kind in INTERVALS else LEAVES[kind]) for kind in kinds]
    rows = draw(st.lists(st.tuples(*cells), min_size=min_rows, max_size=max_rows))
    pids = [f"p{i}" for i in range(len(rows))]
    schema = [AttributeSchema("pid", "identifier", CategoricalKind(tuple(pids)))]
    cols = {"pid": pids}
    hierarchies = {}
    for j, kind in enumerate(kinds):
        name = f"q{j}"
        cols[name] = [row[j] for row in rows]
        if kind in INTERVALS:
            schema.append(AttributeSchema(name, "quasi_identifier", NumericKind(-2, 6)))
            hierarchies[name] = GeneralizationHierarchy.from_breakpoints(name, -2, 6, INTERVALS[kind])
        else:
            schema.append(AttributeSchema(name, "quasi_identifier", CategoricalKind(LEAVES[kind])))
            hierarchies[name] = GeneralizationHierarchy.from_tree(name, TREES[kind])
    return make_table(schema, cols), hierarchies


def _outcome(recoder, *args, **kwargs):
    try:
        release, scheme = recoder(*args, **kwargs)
    except (Unsatisfiable, SearchSpaceTooLarge) as e:
        return type(e).__name__, str(e)
    return (
        scheme.to_json(),
        serialize_table(release.table),
        release.table.schema,
        release.partition,
        release.provenance.params,
    )


# --------------------------------------------------------------------------
# tests
# --------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(
    recoding_inputs(max_rows=20, max_qis=3, min_rows=2),
    st.sampled_from([1, 2, 3]),
    st.sampled_from([0.0, 0.1, 0.2, 0.25, 0.4]),
)
def test_global_recoding_matches_frozen_copy(inputs, k, budget):
    table, hierarchies = inputs
    want = _outcome(_oracle_anonymize_generalization, table, hierarchies, k, budget)
    assert _outcome(anonymize_generalization, table, hierarchies, k, budget) == want


@settings(max_examples=300, deadline=None)
@given(
    recoding_inputs(max_rows=5, max_qis=2, trees=("sex",)),
    st.sampled_from([1, 2, 3]),
    st.sampled_from([10**5, 200]),
)
def test_minimal_recoding_matches_frozen_copy(inputs, k, max_states):
    _same_outcome(*inputs, k, max_states)


def test_minimal_recoding_at_k_one_keeps_every_cell():
    # every class already holds k=1 rows, so the first state is the answer
    table, hierarchies = _desk()
    _, scheme = minimal_generalization(table, hierarchies, 1)
    assert scheme.cell_levels == tuple((0, 0) for _ in range(table.n_rows))
    assert _outcome(minimal_generalization, table, hierarchies, 1) == _outcome(
        _oracle_minimal_generalization, table, hierarchies, 1
    )


def test_minimal_recoding_walks_the_lattice_in_product_order():
    # the desk instance needs a deep search: the first k-anonymous, minimal
    # state in product order differs from the one found turning the first cell fastest
    table, hierarchies = _desk()
    got = _outcome(minimal_generalization, table, hierarchies, 2)
    assert got == _outcome(_oracle_minimal_generalization, table, hierarchies, 2)
    assert got[0]["cell_levels"] == [[0, 0], [0, 0], [1, 0], [2, 1], [2, 1], [1, 0]]


def _desk():
    schema = (
        AttributeSchema("x", "quasi_identifier", NumericKind(1, 10)),
        AttributeSchema("sex", "quasi_identifier", CategoricalKind(("f", "m"))),
    )
    table = make_table(schema, {"x": [2.0, 2.0, 7.0, 3.0, 9.0, 6.0], "sex": ["f", "f", "m", "m", "f", "m"]})
    hierarchies = {
        "x": GeneralizationHierarchy.from_breakpoints("x", 1, 10, [[6]]),
        "sex": GeneralizationHierarchy.from_tree("sex", TREES["sex"]),
    }
    return table, hierarchies


def _ten_row_desk():
    """Ten rows of one interval QI of height 2 (a 3**10-state lattice), laid
    out like the benchmark's desk instance. Row 0 (x=1) shares its leaf with no
    other row, so the first 3**9 states, which keep it at level 0, hold no
    answer; the full walk visits 28,541 states to find one at k=2."""
    schema = (AttributeSchema("x", "quasi_identifier", NumericKind(1, 10)),)
    table = make_table(schema, {"x": [1.0, 9.0, 10.0, 3.0, 3.0, 5.0, 5.0, 6.0, 6.0, 7.0]})
    return table, {"x": GeneralizationHierarchy.from_breakpoints("x", 1, 10, [[6]])}


def _sex_table(rows):
    """One binary tree QI per column of ``rows``, named q0, q1, ..."""
    names = [f"q{j}" for j in range(len(rows[0]))]
    schema = [AttributeSchema(name, "quasi_identifier", CategoricalKind(LEAVES["sex"])) for name in names]
    table = make_table(schema, {name: [row[j] for row in rows] for j, name in enumerate(names)})
    return table, {name: GeneralizationHierarchy.from_tree(name, TREES["sex"]) for name in names}


def _same_outcome(table, hierarchies, k, max_states=10**6):
    """The outcome of the walk under a budget of ``max_states`` row-states.

    It is the walk's outcome at the default budget, or names the budget it
    passed; the outcome at the default budget is the frozen copy's wherever
    the frozen copy does not refuse the lattice."""
    got = _outcome(minimal_generalization, table, hierarchies, k, max_states)
    full = _outcome(minimal_generalization, table, hierarchies, k)
    want = _outcome(_oracle_minimal_generalization, table, hierarchies, k)
    if want[0] != "SearchSpaceTooLarge":
        assert full == want
    if got != full:
        assert got == ("SearchSpaceTooLarge", f"the search exceeds {max_states} row-states for {table.n_rows} rows x "
                       f"{len(table.qi_names)} attributes")
    return got


@pytest.mark.parametrize("k", [1, 2, 3])
def test_pruned_walk_matches_frozen_copy_on_the_ten_row_desk(k):
    want = _same_outcome(*_ten_row_desk(), k)
    if k == 1:  # every class already holds one row: the first state is the answer
        assert want[0]["cell_levels"] == [[0]] * 10
    else:  # x=1 must leave level 0, so the answer is past the first 3**9 states
        assert want[0]["cell_levels"][0] != [0]


def test_the_budget_counts_row_states_walked_not_the_lattice():
    # the pruned walk finds the ten-row desk's k=2 answer at its ninth state:
    # 10 rows x 3 levels of set-up and 9 states x 10 rows walked
    table, hierarchies = _ten_row_desk()
    _, scheme = minimal_generalization(table, hierarchies, 2, max_states=120)
    assert scheme.cell_levels[0] == (1,)
    with pytest.raises(SearchSpaceTooLarge, match="^the search exceeds 119 row-states for 10 rows x 1 attributes$"):
        minimal_generalization(table, hierarchies, 2, max_states=119)
    # three more rows make a 3**13-state lattice, which the frozen copy
    # refuses at the default budget; the walk visits eight states
    x = [*table.columns["x"].tolist(), 2.0, 8.0, 4.0]
    table = make_table(table.schema, {"x": x})
    assert _outcome(_oracle_minimal_generalization, table, hierarchies, 2)[0] == "SearchSpaceTooLarge"
    release, scheme = minimal_generalization(table, hierarchies, 2)
    assert scheme.cell_levels == ((1,),) * 3 + ((0,),) * 6 + ((1,),) * 4
    assert min(Counter(release.table.columns["x"].tolist()).values()) >= 2


def test_a_dead_prefix_is_passed_over_at_its_rows_last_cell():
    # k=4 over four rows of two binary QIs: only (*, *) in every row is
    # k-anonymous. Row 0 reaches (*, m) by a step of its first cell and its
    # second cell back at level 0; that prefix is dead, but the walk must go on
    # to (*, *) through the second cell rather than treat row 0 as done
    want = _same_outcome(*_sex_table([("m", "m"), ("m", "f"), ("f", "f"), ("f", "m")]), 4)
    assert want[0]["cell_levels"] == [[1, 1]] * 4


def test_the_state_a_jump_lands_on_is_the_answer():
    # x=0 and x=1 each sit alone at level 0: the walk jumps from the first
    # state to x=0 at [-2,1], then from there to x=1 at [-2,1], and the state
    # that second jump lands on is the answer
    schema = (AttributeSchema("x", "quasi_identifier", NumericKind(-2, 6)),)
    table = make_table(schema, {"x": [-2.0, 0.0, 1.0, -2.0]})
    hierarchies = {"x": GeneralizationHierarchy.from_breakpoints("x", -2, 6, INTERVALS["short"])}
    want = _same_outcome(table, hierarchies, 2)
    assert want[0]["cell_levels"] == [[0], [1], [1], [0]]


def test_k_above_the_row_count_kills_every_prefix_at_row_zero():
    table, hierarchies = _sex_table([("m", "m"), ("m", "f"), ("f", "f")])
    want = ("Unsatisfiable", "no cell-level recoding of 3 rows reaches k=4")
    assert _same_outcome(table, hierarchies, 4) == want


@pytest.mark.parametrize("k", [1, 3, 4])
def test_a_table_without_quasi_identifiers(k):
    # no cells: the one state is the empty scheme, k-anonymous exactly when k <= n
    schema = (AttributeSchema("diagnosis", "confidential", CategoricalKind(("flu", "cold"))),)
    table = make_table(schema, {"diagnosis": ["flu", "cold", "flu"]})
    want = _same_outcome(table, {}, k)
    assert (want[0] == "Unsatisfiable") == (k > 3)


@settings(max_examples=100, deadline=None)
@given(recoding_inputs(max_rows=9, max_qis=1), st.sampled_from([1, 2, 3, 4]))
def test_pruned_walk_matches_frozen_copy_on_one_qi(inputs, k):
    # one QI over at most 9 rows: the 2*10**4 cap keeps the frozen copy's
    # full walk affordable, and a larger lattice compares the guard's error
    _same_outcome(*inputs, k, max_states=2 * 10**4)


@pytest.mark.parametrize("k", [1, 2, 3, 7])
def test_grouping_matches_text_tuples(k):
    # verify_k_anonymity's counts keep first-occurrence order and text keys;
    # the partition equals grouping by text tuples
    rng = np.random.default_rng(k)
    schema = (
        AttributeSchema("x", "quasi_identifier", NumericKind(-2, 6)),
        AttributeSchema("z", "quasi_identifier", CategoricalKind(("a1", "a2", "b1"))),
    )
    table = make_table(schema, {"x": rng.choice(NUMBERS, 40), "z": rng.choice(["a1", "a2", "b1"], 40)})
    holds, counts = verify_k_anonymity(table, ["x", "z"], k)
    combos = list(zip(comparable_text(table, "x"), comparable_text(table, "z")))
    assert list(counts.items()) == list(Counter(combos).items())
    assert holds == all(c >= k for c in Counter(combos).values())
    assert _partition_by_combo(table, ["x", "z"]) == _oracle_partition_by_combo(table, ["x", "z"])
    assert verify_k_anonymity(table.take(np.arange(0)), ["x", "z"], k) == (True, {})


def test_class_codes_stay_exact_past_the_int64_range():
    # ten QIs of 100 distinct values each: their mixed-radix product (1e20)
    # passes 2**63, so the row codes must be renumbered on the way
    rng = np.random.default_rng(11)
    names = [f"q{j}" for j in range(10)]
    schema = [AttributeSchema(name, "quasi_identifier", NumericKind(0, 99)) for name in names]
    table = make_table(schema, {name: rng.permutation(100).astype(float) for name in names})
    hierarchies = {name: GeneralizationHierarchy.from_breakpoints(name, 0, 99, [[50]]) for name in names}
    want = _outcome(_oracle_anonymize_generalization, table, hierarchies, 2)
    assert _outcome(anonymize_generalization, table, hierarchies, 2) == want
    assert want[0]["levels"] != {name: 0 for name in names}


def test_global_recoding_still_validates_every_value():
    # labels are computed once per distinct value, and every one is checked:
    # a leaf the hierarchy lacks fails even when it is the last row's value
    schema = (AttributeSchema("z", "quasi_identifier", CategoricalKind(("a1", "a2", "c9"))),)
    table = make_table(schema, {"z": ["a1", "a2", "a1", "c9"]})
    hierarchies = {"z": GeneralizationHierarchy.from_tree("z", TREES["zip"])}
    with pytest.raises(UnknownValue):
        anonymize_generalization(table, hierarchies, 2)
