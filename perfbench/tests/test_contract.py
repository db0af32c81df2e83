import json
import re
from pathlib import Path

import run
import spans

DOC = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_declared_metrics_are_the_emitted_ones():
    assert [m["name"] for m in DOC["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in DOC["end_to_end"]} == run.END_TO_END
    emitted = set(spans.layer_metrics([])) - {"trace.wrapped_self_s"}
    emitted |= {"trace.wrapped_self_frac", "trace.overhead_frac"}
    declared = {m["name"]: m["unit"] for m in DOC["per_layer"]}
    assert set(declared) == emitted
    assert all(declared[name] == run.layer_unit(name) for name in declared)


def test_workloads_and_names_follow_the_format():
    assert [w["name"] for w in DOC["workloads"]] == list(run.WORKLOADS)
    names = [m["name"] for m in DOC["end_to_end"] + DOC["per_layer"]] + list(run.WORKLOADS)
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in DOC["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in DOC["end_to_end"])
    setup = next(m for m in DOC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in DOC["end_to_end"])
