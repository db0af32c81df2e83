"""Budget ledger composition rules and serialization."""

import pytest

from sdckit import BudgetLedger, InvalidDelta, MalformedLedger, NonPositiveEpsilon
from sdckit.accounting import (
    EMPIRICAL_CHECK_WARNING,
    UNDEFINED_WARNING,
    VOID_WARNING,
    LedgerEntry,
)


def test_sequential_composition_sums():
    ledger = BudgetLedger()
    ledger.record_dp("counts", 0.5)
    ledger.record_dp("histogram", 0.5, delta=1e-7)
    report = ledger.compose()
    assert report.epsilon == pytest.approx(1.0)
    assert report.delta == pytest.approx(1e-7)
    assert report.defined
    assert report.n_entries == 2
    assert report.warnings == ()


def test_disjoint_groups_cost_their_worst_member():
    ledger = BudgetLedger()
    ledger.record_dp("east-release", 0.5, group="region")
    ledger.record_dp("west-release", 0.3, group="region")
    assert ledger.compose().epsilon == pytest.approx(0.5)

    ledger.record_dp("national", 0.25)
    report = ledger.compose()
    assert report.epsilon == pytest.approx(0.75)
    assert report.defined


def test_two_distinct_groups_sum():
    ledger = BudgetLedger()
    ledger.record_dp("a", 0.4, group="g1")
    ledger.record_dp("b", 0.4, group="g2")
    assert ledger.compose().epsilon == pytest.approx(0.8)


def test_syntactic_entries_make_composition_undefined():
    ledger = BudgetLedger()
    ledger.record_dp("counts", 0.5)
    ledger.record_syntactic("mdav", notes="k=5")
    report = ledger.compose()
    assert not report.defined
    assert UNDEFINED_WARNING in report.warnings
    assert report.epsilon == pytest.approx(0.5)  # dp spending still tracked

    empty_dp = BudgetLedger()
    empty_dp.record_syntactic("mdav")
    report = empty_dp.compose()
    assert report.epsilon is None
    assert not report.defined


def test_warning_thresholds():
    modest = BudgetLedger()
    modest.record_dp("q", 1.0)
    assert modest.compose().warnings == ()

    checkable = BudgetLedger()
    checkable.record_dp("q", 1.5)
    assert checkable.compose().warnings == (EMPIRICAL_CHECK_WARNING,)

    void = BudgetLedger()
    for _ in range(100):
        void.record_dp("q", 0.5)
    report = void.compose()
    assert report.epsilon == pytest.approx(50.0)
    assert EMPIRICAL_CHECK_WARNING in report.warnings
    assert VOID_WARNING in report.warnings


def test_record_validation():
    ledger = BudgetLedger()
    with pytest.raises(NonPositiveEpsilon):
        ledger.record_dp("q", 0.0)
    with pytest.raises(InvalidDelta):
        ledger.record_dp("q", 1.0, delta=1.0)
    with pytest.raises(InvalidDelta):
        ledger.record_dp("q", 1.0, delta=-0.1)
    assert ledger.entries == ()  # failed records leave no trace


def test_empty_ledger_composes_to_nothing():
    report = BudgetLedger().compose()
    assert report.epsilon is None
    assert report.delta == 0.0
    assert not report.defined
    assert report.n_entries == 0


def test_jsonl_round_trip():
    ledger = BudgetLedger()
    ledger.record_dp("counts", 0.5, delta=1e-9, group="region", notes="2024 tranche")
    ledger.record_syntactic("mdav", notes="k=5")
    text = ledger.to_jsonl()
    assert text.count("\n") == 2

    again = BudgetLedger.from_jsonl(text)
    assert again.entries == ledger.entries
    assert again.compose() == ledger.compose()

    assert BudgetLedger.from_jsonl("").entries == ()


def test_entry_json_round_trip():
    entry = LedgerEntry("m", "dp", 0.25, 1e-8, "g", "note")
    assert LedgerEntry.from_json(entry.to_json()) == entry


# -- ledger files are validated on load ---------------------------------------------

_GOOD_LINE = '{"mechanism": "counts", "kind": "dp", "epsilon": 0.5}'


def _load_with_bad_second_line(bad_line: str, error):
    with pytest.raises(error, match="ledger line 2:"):
        BudgetLedger.from_jsonl(_GOOD_LINE + "\n" + bad_line + "\n")


def test_jsonl_rejects_unknown_kind():
    _load_with_bad_second_line('{"mechanism": "q", "kind": "hybrid"}', MalformedLedger)


def test_jsonl_rejects_nonpositive_epsilon():
    _load_with_bad_second_line('{"mechanism": "q", "kind": "dp", "epsilon": 0.0}', NonPositiveEpsilon)
    _load_with_bad_second_line('{"mechanism": "q", "kind": "dp", "epsilon": -1}', NonPositiveEpsilon)
    _load_with_bad_second_line('{"mechanism": "q", "kind": "dp"}', MalformedLedger)
    _load_with_bad_second_line('{"mechanism": "q", "kind": "dp", "epsilon": "1"}', MalformedLedger)


def test_jsonl_rejects_nonfinite_epsilon():
    _load_with_bad_second_line('{"mechanism": "q", "kind": "dp", "epsilon": Infinity}', NonPositiveEpsilon)
    _load_with_bad_second_line('{"mechanism": "q", "kind": "dp", "epsilon": NaN}', NonPositiveEpsilon)


def test_jsonl_rejects_delta_outside_unit_interval():
    _load_with_bad_second_line('{"mechanism": "q", "kind": "dp", "epsilon": 1, "delta": 1.0}', InvalidDelta)
    _load_with_bad_second_line('{"mechanism": "q", "kind": "dp", "epsilon": 1, "delta": -1e-9}', InvalidDelta)


def test_jsonl_rejects_syntactic_entry_with_epsilon():
    _load_with_bad_second_line('{"mechanism": "mdav", "kind": "syntactic", "epsilon": 1.0}', MalformedLedger)


def test_jsonl_rejects_bool_numbers():
    # JSON true is not the number 1: it would compose as epsilon 1.0
    _load_with_bad_second_line('{"mechanism": "q", "kind": "dp", "epsilon": true}', MalformedLedger)
    _load_with_bad_second_line('{"mechanism": "q", "kind": "dp", "epsilon": 1, "delta": false}', MalformedLedger)


@pytest.mark.parametrize(
    "field, value",
    [
        ("mechanism", "3"), ("mechanism", "null"), ("group", '["a"]'), ("group", "2"),
        ("notes", "{}"), ("notes", "null"),
    ],
)
def test_jsonl_rejects_text_fields_that_are_not_strings(field, value):
    line = '{"mechanism": "q", "kind": "dp", "epsilon": 1, "%s": %s}' % (field, value)
    with pytest.raises(MalformedLedger, match=f"ledger line 2: field '{field}' must be a string"):
        BudgetLedger.from_jsonl(_GOOD_LINE + "\n" + line + "\n")


def test_jsonl_rejects_lines_that_are_not_json_objects():
    _load_with_bad_second_line("[1, 2]", MalformedLedger)
    _load_with_bad_second_line("not json", MalformedLedger)
    _load_with_bad_second_line('"dp"', MalformedLedger)
    _load_with_bad_second_line('{"kind": "dp", "epsilon": 1.0}', MalformedLedger)


def test_record_dp_rejects_nonfinite_epsilon():
    ledger = BudgetLedger()
    with pytest.raises(NonPositiveEpsilon):
        ledger.record_dp("q", float("inf"))
    with pytest.raises(NonPositiveEpsilon):
        ledger.record_dp("q", float("nan"))
    assert ledger.entries == ()
