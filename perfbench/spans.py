"""Span tracing for the benchmark's traced run.

Wrappers are installed from the benchmark's own code: each one replaces the
original function object everywhere sdckit binds it (module globals, names
re-exported with ``from .x import y``, and class attributes), so calls made
inside sdckit are recorded as well as the benchmark's own. Spans are kept in
memory and written to one file when the run ends.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

# Every wrapped function, as "<module>.<qualified name>" under sdckit.
TARGETS = (
    "microdata.load_table",
    "microdata.serialize_table",
    "metric.MixedSpace.sq_dist_to",
    "kanon.mdav_partition",
    "kanon.anonymize_generalization",
    "kanon.minimal_generalization",
    "kanon.verify_k_anonymity",
    "kanon.sse",
    "probkanon.cluster_and_permute",
    "probkanon.verify_probabilistic_k",
    "attacks.link_records",
    "attacks.linkage_attack",
    "attacks.attribute_inference_attack",
    "attacks.downcoding_attack",
    "attacks.membership_inference_attack",
    "confmodels.emd",
    "confmodels.l_diversity",
    "confmodels.verify_t_closeness",
    "dp.laplace_noise",
    "dp.empirical_dp_check",
    "dp.dp_microdata_release",
    "accounting.BudgetLedger.compose",
    "seeds.derive_rng",
    "reporting.run",
    "reporting.utility_report",
)

OP_PREFIX = "op."


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    op: int = -1
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Collects nested spans of one thread; an operation span groups the spans it causes."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = -1

    def open(self, name: str, **attrs) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), parent=parent, op=self._op, attrs=attrs))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = self.clock()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.spans[idx].name} closed out of order")

    def begin_op(self, name: str, **attrs) -> int:
        idx = self.open(OP_PREFIX + name, **attrs)
        self._op = idx
        self.spans[idx].op = idx
        return idx

    def end_op(self, idx: int) -> None:
        self.close(idx)
        self._op = -1

    def wrap(self, name: str, fn, before=None, after=None):
        """Wrap ``fn`` in a span. ``before(args)`` and ``after(args, result)``
        return counters for the span, from the call's bound arguments."""
        sig = inspect.signature(fn) if (before or after) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = None
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
            attrs = before(bound.arguments) if before else {}
            idx = self.open(name, **attrs)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after:
                self.spans[idx].attrs.update(after(bound.arguments, result))
            return result

        return wrapper

    def dump(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps(asdict(s), sort_keys=True) + "\n")


# --------------------------------------------------------------------------
# counters recorded at the wrapped boundaries
# --------------------------------------------------------------------------


def _release_digest(table) -> str:
    h = hashlib.sha1()
    h.update(table.row_ids.tobytes())
    for name in table.names:
        col = table.columns[name]
        if col.dtype == object:
            h.update("\x1f".join(map(str, col)).encode("utf-8"))
        else:
            h.update(col.tobytes())
        h.update(b"\x1e")
    return h.hexdigest()


def _link_before(a):
    return {
        "pairs": int(a["external_table"].n_rows) * int(a["release_table"].n_rows),
        "release": _release_digest(a["release_table"]),
    }


def _sq_dist_before(a):
    idx = a["indices"]
    return {"rows": int(a["self"].n if idx is None else len(idx))}


def _laplace_before(a):
    size = a["size"]
    return {"samples": int(1 if size is None else size)}


COUNTERS = {
    "microdata.load_table": (None, lambda a, r: {"rows": int(r.n_rows)}),
    "metric.MixedSpace.sq_dist_to": (_sq_dist_before, None),
    "probkanon.verify_probabilistic_k": (lambda a: {"trials": int(a["trials"])}, None),
    "attacks.link_records": (_link_before, None),
    "dp.laplace_noise": (_laplace_before, None),
    "dp.empirical_dp_check": (None, lambda a, r: {"passed": bool(r.passed)}),
}


def _resolve(target: str):
    """(owner, attribute) for "<module>.<name>" or "<module>.<Class>.<name>"."""
    parts = target.split(".")
    owner = importlib.import_module("sdckit." + parts[0])
    for p in parts[1:-1]:
        owner = getattr(owner, p)
    return owner, parts[-1]


def install(tracer: Tracer, targets=TARGETS):
    """Rebind every target to a tracing wrapper; returns a function that undoes it."""
    resolved = [_resolve(t) for t in targets]
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "sdckit" or name.startswith("sdckit."))]
    undo = []
    for target, (owner, attr) in zip(targets, resolved):
        original = inspect.getattr_static(owner, attr)
        before, after = COUNTERS.get(target, (None, None))
        wrapper = tracer.wrap(target, original, before, after)
        if inspect.isclass(owner):
            undo.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            continue
        for m in modules:
            for name, value in list(vars(m).items()):
                if value is original:
                    undo.append((m, name, original))
                    setattr(m, name, wrapper)

    def uninstall():
        for holder, name, original in reversed(undo):
            setattr(holder, name, original)

    return uninstall


# --------------------------------------------------------------------------
# per-layer metrics from the spans
# --------------------------------------------------------------------------


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it covered by its direct children."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def layer_metrics(spans, targets=TARGETS) -> dict[str, float]:
    """calls and self_s per wrapped function, plus the counters each layer defines."""
    own = self_times(spans)
    honest_op = {i for i, s in enumerate(spans) if s.name.startswith(OP_PREFIX) and s.attrs.get("honest")}
    m: dict[str, float] = {}
    for t in targets:
        m[f"{t}.calls"] = 0
        m[f"{t}.self_s"] = 0.0
    sums: dict[str, float] = {}
    releases: set[str] = set()
    honest_fails = 0
    wrapped_self = 0.0
    for s, self_s in zip(spans, own):
        if s.name.startswith(OP_PREFIX):
            continue
        wrapped_self += self_s
        m[f"{s.name}.calls"] += 1
        m[f"{s.name}.self_s"] += self_s
        for key in ("rows", "pairs", "trials", "samples"):
            if key in s.attrs:
                sums[f"{s.name}.{key}"] = sums.get(f"{s.name}.{key}", 0) + s.attrs[key]
        if "release" in s.attrs:
            releases.add(s.attrs["release"])
        if s.name == "dp.empirical_dp_check" and s.op in honest_op and not s.attrs["passed"]:
            honest_fails += 1

    def ratio(a, b):
        return a / b if b else 0.0

    m["microdata.load_table.rows_per_s"] = ratio(
        sums.get("microdata.load_table.rows", 0), m["microdata.load_table.self_s"])
    m["metric.MixedSpace.sq_dist_to.rows"] = sums.get("metric.MixedSpace.sq_dist_to.rows", 0)
    m["probkanon.verify_probabilistic_k.trials"] = sums.get("probkanon.verify_probabilistic_k.trials", 0)
    pairs = sums.get("attacks.link_records.pairs", 0)
    m["attacks.link_records.pairs"] = pairs
    m["attacks.link_records.pairs_per_s"] = ratio(pairs, m["attacks.link_records.self_s"])
    m["attacks.link_records.distinct_release_frac"] = ratio(len(releases), m["attacks.link_records.calls"])
    m["dp.laplace_noise.samples"] = sums.get("dp.laplace_noise.samples", 0)
    m["dp.empirical_dp_check.honest_fails"] = honest_fails
    m["trace.wrapped_self_s"] = wrapped_self
    return m
