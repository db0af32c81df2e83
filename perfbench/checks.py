"""Output invariants and the per-workload outputs digest.

Every invariant reads the artifact files a run wrote, with the standard
library only, and is independent of sdckit's own code. Each holds for any
correct implementation: it does not depend on row order, on where row ids
are published, or on the exact noise drawn. Each check returns
``(ok, detail)``.
"""

from __future__ import annotations

import csv
import hashlib
import json
from collections import Counter
from pathlib import Path


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with Path(path).open(newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    return rows[0], rows[1:]


def columns(path: Path, names) -> list[tuple[str, ...]]:
    header, rows = read_csv(path)
    idx = [header.index(n) for n in names]
    return [tuple(r[i] for i in idx) for r in rows]


def _num_or_text(cell: str):
    try:
        return float(cell)
    except ValueError:
        return cell


def manifest_matches(outdir: Path):
    """Every file listed in manifest.json exists and has the listed sha256."""
    outdir = Path(outdir)
    manifest = json.loads((outdir / "manifest.json").read_text(encoding="utf-8"))
    if not manifest:
        return False, "empty manifest"
    for name, digest in manifest.items():
        path = outdir / name
        if not path.is_file():
            return False, f"{name} listed but missing"
        if hashlib.sha256(path.read_bytes()).hexdigest() != digest:
            return False, f"{name} hash differs from manifest"
    return True, f"{len(manifest)} files match"


def k_anonymous(release_csv: Path, qi, k: int):
    """Recount equivalence classes over the released QI columns."""
    counts = Counter(columns(release_csv, qi))
    if not counts:
        return False, "release has no rows"
    smallest = min(counts.values())
    return smallest >= k, f"min_class={smallest} k={k} classes={len(counts)}"


def qi_multisets_preserved(input_csv: Path, release_csv: Path, qi):
    """Each QI column of the release is a permutation of the input column."""
    for name in qi:
        before = Counter(_num_or_text(v) for (v,) in columns(input_csv, [name]))
        after = Counter(_num_or_text(v) for (v,) in columns(release_csv, [name]))
        if before != after:
            return False, f"multiset of {name} changed"
    return True, f"{len(qi)} QI multisets equal"


def enough_rows_released(release_csv: Path, n: int, max_suppression: float):
    released = len(read_csv(release_csv)[1])
    need = (1.0 - max_suppression) * n
    return released >= need, f"released={released} need>={need:g}"


def inside_domains(release_csv: Path, schema: dict):
    """Every released numeric cell lies inside its declared [min, max]."""
    header, rows = read_csv(release_csv)
    checked = 0
    for j, name in enumerate(header):
        spec = schema.get(name)
        if not spec or spec["kind"] != "numeric":
            continue
        for r in rows:
            v = float(r[j])
            if not spec["min"] <= v <= spec["max"]:
                return False, f"{name}={r[j]} outside [{spec['min']}, {spec['max']}]"
            checked += 1
    return checked > 0, f"{checked} numeric cells inside their domains"


def linkage_within_bound(attack_json: Path, k: int, slack: float = 0.02):
    """Pooled linkage success stays at or under 1/k + slack."""
    rate = json.loads(Path(attack_json).read_text(encoding="utf-8"))["success_rate"]
    return rate <= 1.0 / k + slack, f"rate={rate:.6g} bound={1.0 / k + slack:.6g}"


def downcoding_sound(attack_json: Path, input_csv: Path):
    """The true leaf of every attacked cell is in the set the attack inferred.
    A cell's row id is its row's position in the input file."""
    report = json.loads(Path(attack_json).read_text(encoding="utf-8"))
    header, rows = read_csv(input_csv)
    cells = report["details"]["cells"]
    for cell in cells:
        truth = _num_or_text(rows[int(cell["row_id"])][header.index(cell["attribute"])])
        if truth not in [_num_or_text(str(v)) for v in cell["inferred"]]:
            return False, f"row {cell['row_id']} {cell['attribute']}={truth!r} not in inferred set"
    narrowed = sum(1 for c in cells if c["narrowed"])
    return bool(cells), f"{len(cells)} cells sound, {narrowed} narrowed"


def summary_verdicts(outdir: Path) -> dict[str, bool]:
    """check name -> PASS, from the run's summary.txt."""
    out = {}
    for line in (Path(outdir) / "summary.txt").read_text(encoding="utf-8").splitlines():
        if line.startswith("check "):
            name, _, rest = line[len("check "):].partition(": ")
            out[name] = rest.startswith("PASS")
    return out


def _sha256(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None


def digest(outdir: Path) -> dict:
    """What a reviewer diffs between two versions: summary, attack rates,
    and hashes of the release and of its partition. Not gated on."""
    outdir = Path(outdir)
    partition = None
    for sidecar in sorted(outdir.glob("*.json")):
        doc = json.loads(sidecar.read_text(encoding="utf-8"))
        if isinstance(doc, dict) and doc.get("partition") is not None:
            partition = hashlib.sha256(json.dumps(doc["partition"]).encode()).hexdigest()
            break
    return {
        "summary": (outdir / "summary.txt").read_text(encoding="utf-8").splitlines(),
        "attack_rates": {
            p.stem[len("attack_"):]: json.loads(p.read_text(encoding="utf-8"))["success_rate"]
            for p in sorted(outdir.glob("attack_*.json"))
        },
        "release_sha256": {p.name: _sha256(p) for p in sorted(outdir.glob("release*.csv"))},
        "partition_sha256": partition,
    }
