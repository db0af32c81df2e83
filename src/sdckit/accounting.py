"""Privacy budget accounting across a sequence of releases.

The ledger is append-only. Entries tagged with the same disjoint-group label
are treated as operating on non-overlapping sub-populations and compose in
parallel (max); everything else composes sequentially (sum). Entries for
syntactic mechanisms (k-anonymity and friends) carry no epsilon and make the
composed guarantee undefined rather than silently vanishing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .dp import _check_epsilon
from .errors import InvalidDelta, MalformedLedger, SdcError
from .microdata import _is_number

EMPIRICAL_CHECK_WARNING = "empirical check required"
VOID_WARNING = "guarantee mostly void"
UNDEFINED_WARNING = "composed guarantee undefined"


@dataclass(frozen=True)
class LedgerEntry:
    mechanism: str
    kind: str  # "dp" or "syntactic"
    epsilon: float | None = None
    delta: float = 0.0
    group: str | None = None
    notes: str = ""

    def to_json(self) -> dict:
        return {
            "mechanism": self.mechanism,
            "kind": self.kind,
            "epsilon": self.epsilon,
            "delta": self.delta,
            "group": self.group,
            "notes": self.notes,
        }

    @staticmethod
    def from_json(doc: dict) -> "LedgerEntry":
        return LedgerEntry(
            mechanism=doc["mechanism"],
            kind=doc["kind"],
            epsilon=doc.get("epsilon"),
            delta=doc.get("delta", 0.0),
            group=doc.get("group"),
            notes=doc.get("notes", ""),
        )


@dataclass(frozen=True)
class CompositionReport:
    epsilon: float | None
    delta: float
    defined: bool
    n_entries: int
    warnings: tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "delta": self.delta,
            "defined": self.defined,
            "n_entries": self.n_entries,
            "warnings": list(self.warnings),
        }


class BudgetLedger:
    """Ordered record of every privacy-relevant release in a pipeline."""

    def __init__(self):
        self._entries: list[LedgerEntry] = []

    @property
    def entries(self) -> tuple[LedgerEntry, ...]:
        return tuple(self._entries)

    def record_dp(
        self,
        mechanism: str,
        epsilon: float,
        delta: float = 0.0,
        group: str | None = None,
        notes: str = "",
    ) -> LedgerEntry:
        _check_dp(epsilon, delta)
        entry = LedgerEntry(mechanism, "dp", float(epsilon), float(delta), group, notes)
        self._entries.append(entry)
        return entry

    def record_syntactic(self, mechanism: str, notes: str = "") -> LedgerEntry:
        """Log a release whose guarantee is syntactic (k-anonymity family).

        Such guarantees do not compose into an epsilon; their presence makes
        the pipeline-level DP statement undefined.
        """
        entry = LedgerEntry(mechanism, "syntactic", None, 0.0, None, notes)
        self._entries.append(entry)
        return entry

    def compose(self) -> CompositionReport:
        dp_entries = [e for e in self._entries if e.kind == "dp"]
        has_syntactic = any(e.kind == "syntactic" for e in self._entries)

        sequential_eps = 0.0
        sequential_delta = 0.0
        groups: dict[str, list[LedgerEntry]] = {}
        for e in dp_entries:
            if e.group is None:
                sequential_eps += e.epsilon
                sequential_delta += e.delta
            else:
                groups.setdefault(e.group, []).append(e)
        # entries inside one disjoint group touch non-overlapping records,
        # so the group costs only its worst member
        for members in groups.values():
            sequential_eps += max(m.epsilon for m in members)
            sequential_delta += max(m.delta for m in members)

        warnings: list[str] = []
        if has_syntactic:
            warnings.append(UNDEFINED_WARNING)
        if dp_entries:
            if sequential_eps > 1.0:
                warnings.append(EMPIRICAL_CHECK_WARNING)
            if sequential_eps >= 10.0:
                warnings.append(VOID_WARNING)
        epsilon = sequential_eps if dp_entries else None
        return CompositionReport(
            epsilon=epsilon,
            delta=sequential_delta,
            defined=bool(dp_entries) and not has_syntactic,
            n_entries=len(self._entries),
            warnings=tuple(warnings),
        )

    # ---- serialization: one JSON object per line, append-friendly ----

    def to_jsonl(self) -> str:
        return "".join(json.dumps(e.to_json(), sort_keys=True) + "\n" for e in self._entries)

    @staticmethod
    def from_jsonl(text: str) -> "BudgetLedger":
        """Parse one entry per line, validated as ``record_dp`` and
        ``record_syntactic`` validate; an error names its 1-based line."""
        ledger = BudgetLedger()
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                ledger._entries.append(_parse_entry(line))
            except SdcError as e:
                raise type(e)(f"ledger line {lineno}: {e}") from None
        return ledger


def _check_dp(epsilon: float, delta: float) -> None:
    _check_epsilon(epsilon)
    if not 0.0 <= delta < 1.0:
        raise InvalidDelta(f"delta must be in [0, 1), got {delta}")


def _parse_entry(line: str) -> LedgerEntry:
    try:
        entry = LedgerEntry.from_json(json.loads(line))
    except (ValueError, KeyError, TypeError):
        raise MalformedLedger("not a JSON object with a mechanism and a kind") from None
    for name, value in (("mechanism", entry.mechanism), ("group", entry.group), ("notes", entry.notes)):
        if not isinstance(value, str) and not (name == "group" and value is None):
            raise MalformedLedger(f"field {name!r} must be a string, got {value!r}")
    if entry.kind == "syntactic":
        if entry.epsilon is not None:
            raise MalformedLedger(f"syntactic entry carries an epsilon ({entry.epsilon!r})")
    elif entry.kind == "dp":
        if not all(map(_is_number, (entry.epsilon, entry.delta))):
            raise MalformedLedger("dp entry needs a numeric epsilon and delta")
        _check_dp(entry.epsilon, entry.delta)
    else:
        raise MalformedLedger(f"unknown entry kind {entry.kind!r}")
    return entry
