"""Seeded input generator for the sdckit benchmark.

Writes CSV tables, JSON schemas and JSON hierarchies in the formats sdckit
reads. It uses only numpy and the standard library and never imports sdckit:
the program under test receives nothing but the files written here.

    python3 perfbench/gen.py --workload mdav_release --seed 3 --out some/dir
"""

from __future__ import annotations

import argparse
import csv
import json
from pathlib import Path

import numpy as np

# Input sizes per workload. Each is chosen so that one repetition takes a few
# seconds and the layer named in the workload's description still dominates.
PEOPLE_ROWS = {
    "mdav_release": 1800,
    "permute_verify": 200,
    "recode_generalization": 6000,
    "dp_audit": 1000,
}

AGE = (18.0, 90.0)
HEIGHT = (140.0, 210.0)
INCOME = (0.0, 250000.0)
SEXES = ("F", "M")
DIAGNOSES = ("healthy", "flu", "asthma", "diabetes", "heart", "cancer")
DIAGNOSIS_P = (0.55, 0.2, 0.1, 0.08, 0.05, 0.02)
# three regions x four districts x four zip codes: a balanced three-level tree
ZIPS = tuple(f"{r}{d}{z}" for r in ("021", "100", "606") for d in "1234" for z in "0123")

# Desk-scale instance for the exhaustive minimal recoder. The row pattern fixes
# the search path (about 0.6 s of lattice scanning) and guarantees that the
# downcoding attack narrows cells; the seed relabels leaves inside each
# first-level interval, which preserves both properties.
DESK_LOW = (1, 2, 3, 4, 5)
DESK_HIGH = (6, 7, 8, 9, 10)
DESK_PATTERN = ("L1", "H0", "H3", "L0", "L0", "L2", "L2", "H1", "H1", "H2")

# Neighbour pair for the DP audit: the added record sits at the domain maximum,
# so count(v >= 5) moves by 1 and sum(v) by 10, exactly their sensitivities.
PAIR_DOMAIN = (0.0, 10.0)
PAIR_BASE_ROWS = 40


def _pids(n: int, prefix: str = "P") -> list[str]:
    return [f"{prefix}{i:06d}" for i in range(n)]


def people_columns(rng: np.random.Generator, n: int) -> dict[str, list]:
    """A people-like table: text id, three numeric and two categorical QIs, skewed diagnosis."""
    age = np.clip(np.rint(rng.normal(45, 16, n)), *AGE)
    height = np.clip(np.rint(rng.normal(171, 10, n)), *HEIGHT)
    income = np.clip(np.rint(rng.lognormal(10.6, 0.6, n) / 100.0) * 100.0, *INCOME)
    zip_p = 1.0 / np.arange(1, len(ZIPS) + 1) ** 0.8
    zips = rng.choice(len(ZIPS), size=n, p=zip_p / zip_p.sum())
    return {
        "pid": _pids(n),
        "age": age.tolist(),
        "height": height.tolist(),
        "income": income.tolist(),
        "zip": [ZIPS[i] for i in zips],
        "sex": [SEXES[i] for i in rng.integers(0, 2, n)],
        "diagnosis": [DIAGNOSES[i] for i in rng.choice(len(DIAGNOSES), size=n, p=DIAGNOSIS_P)],
    }


def people_schema(pids: list[str], numeric_only: bool = False) -> dict:
    schema = {
        # the schema format types a text identifier as categorical over all its values
        "pid": {"role": "identifier", "kind": "categorical", "values": pids},
        "age": {"role": "quasi_identifier", "kind": "numeric", "min": AGE[0], "max": AGE[1]},
        "height": {"role": "quasi_identifier", "kind": "numeric", "min": HEIGHT[0], "max": HEIGHT[1]},
        "income": {"role": "quasi_identifier", "kind": "numeric", "min": INCOME[0], "max": INCOME[1]},
    }
    if not numeric_only:
        schema["zip"] = {"role": "quasi_identifier", "kind": "categorical", "values": list(ZIPS)}
        schema["sex"] = {"role": "quasi_identifier", "kind": "categorical", "values": list(SEXES)}
        schema["diagnosis"] = {"role": "confidential", "kind": "categorical", "values": list(DIAGNOSES)}
    return schema


def hierarchies() -> list[dict]:
    """Nested interval hierarchies for the numeric QIs, trees for the categorical ones."""

    def steps(lo, hi, step):
        return [float(c) for c in np.arange(lo + step, hi, step)]

    zip_tree = {
        "*****": {
            f"{r}**": {f"{r}{d}*": {f"{r}{d}{z}": None for z in "0123"} for d in "1234"}
            for r in ("021", "100", "606")
        }
    }
    return [
        {"attribute": "age", "intervals": {"min": AGE[0], "max": AGE[1],
                                           "cuts": [steps(15, 90, 5), steps(10, 90, 10), [30.0, 50.0, 70.0]]}},
        {"attribute": "height", "intervals": {"min": HEIGHT[0], "max": HEIGHT[1],
                                              "cuts": [steps(140, 210, 5), steps(140, 210, 10), [170.0]]}},
        {"attribute": "income", "intervals": {"min": INCOME[0], "max": INCOME[1],
                                              "cuts": [steps(0, 250000, 10000), steps(0, 250000, 50000),
                                                       [100000.0]]}},
        {"attribute": "zip", "tree": zip_tree},
        {"attribute": "sex", "tree": {"*": {"F": None, "M": None}}},
    ]


def desk_values(rng: np.random.Generator) -> list[float]:
    low = rng.permutation(DESK_LOW)
    high = rng.permutation(DESK_HIGH)
    return [float((low if cell[0] == "L" else high)[int(cell[1])]) for cell in DESK_PATTERN]


def neighbour_pair(rng: np.random.Generator) -> tuple[list[float], list[float]]:
    base = np.round(rng.uniform(PAIR_DOMAIN[0], PAIR_DOMAIN[1] - 0.5, PAIR_BASE_ROWS), 1).tolist()
    return base + [PAIR_DOMAIN[1]], base


def write_csv(path: Path, columns: dict[str, list]) -> None:
    names = list(columns)
    with path.open("w", newline="", encoding="utf-8") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(names)
        w.writerows(zip(*(columns[c] for c in names)))


def write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def _write_people(out: Path, stem: str, rng: np.random.Generator, n: int, numeric_only: bool = False):
    cols = people_columns(rng, n)
    if numeric_only:
        cols = {c: cols[c] for c in ("pid", "age", "height", "income")}
    write_csv(out / f"{stem}.csv", cols)
    write_json(out / f"{stem}.schema.json", people_schema(cols["pid"], numeric_only))


def generate(workload: str, seed: int, out: Path) -> None:
    """Write every input file that ``workload`` reads into ``out``."""
    if workload not in PEOPLE_ROWS:
        raise ValueError(f"unknown workload {workload!r}")
    out.mkdir(parents=True, exist_ok=True)
    # SeedSequence takes non-negative entropy only; the modulus keeps every
    # seed from 0 to 2**63 - 1 as it is
    rng = np.random.default_rng([seed % 2**63, sorted(PEOPLE_ROWS).index(workload)])
    n = PEOPLE_ROWS[workload]
    _write_people(out, "people", rng, n, numeric_only=workload == "dp_audit")
    if workload == "recode_generalization":
        write_json(out / "people.hierarchies.json", hierarchies())
        xs = desk_values(rng)
        pids = _pids(len(xs), prefix="D")
        write_csv(out / "desk.csv", {"pid": pids, "x": xs})
        write_json(out / "desk.schema.json", {
            "pid": {"role": "identifier", "kind": "categorical", "values": pids},
            "x": {"role": "quasi_identifier", "kind": "numeric", "min": 1.0, "max": 10.0},
        })
        write_json(out / "desk.hierarchies.json",
                   [{"attribute": "x", "intervals": {"min": 1.0, "max": 10.0, "cuts": [[6.0]]}}])
    if workload == "dp_audit":
        with_v, without_v = neighbour_pair(rng)
        write_csv(out / "pair_with.csv", {"v": with_v})
        write_csv(out / "pair_without.csv", {"v": without_v})
        write_json(out / "pair.schema.json",
                   {"v": {"role": "confidential", "kind": "numeric",
                          "min": PAIR_DOMAIN[0], "max": PAIR_DOMAIN[1]}})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(PEOPLE_ROWS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    generate(args.workload, args.seed, Path(args.out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
