"""Sweep one mechanism parameter and print the risk-utility frontier.

Generates a synthetic microdata table (or loads one you pass in), runs the
release-attack-score pipeline once per parameter value, and tabulates linkage
risk against distortion. Artifacts land in --outdir.

    python3 scripts/risk_utility_sweep.py --mechanism mdav --values 2,3,5,10,20
    python3 scripts/risk_utility_sweep.py --mechanism dp_microdata \
        --parameter epsilon --values 0.1,0.5,1,5,100
"""

import argparse
import json
from pathlib import Path

import numpy as np

from sdckit import RunConfig, sweep
from sdckit.microdata import AttributeSchema, NumericKind, make_table, schema_to_descriptor, serialize_table


def synthetic_table(seed: int, n: int):
    rng = np.random.default_rng(seed)
    schema = (
        AttributeSchema("age", "quasi_identifier", NumericKind(18, 90)),
        AttributeSchema("height", "quasi_identifier", NumericKind(140, 210)),
        AttributeSchema("weight", "quasi_identifier", NumericKind(40, 160)),
    )
    cols = {
        "age": np.clip(rng.normal(45, 15, n), 18, 90).round(1).tolist(),
        "height": np.clip(rng.normal(172, 10, n), 140, 210).round(1).tolist(),
        "weight": np.clip(rng.normal(78, 14, n), 40, 160).round(1).tolist(),
    }
    return make_table(schema, cols)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mechanism", default="mdav",
                    choices=["mdav", "cluster_and_permute", "dp_microdata"])
    ap.add_argument("--parameter", default="k", choices=["k", "epsilon"])
    ap.add_argument("--values", default="2,3,5,10,20",
                    help="comma-separated parameter values")
    ap.add_argument("--data", help="existing data csv (default: synthesize)")
    ap.add_argument("--schema", help="schema json for --data")
    ap.add_argument("--n", type=int, default=400, help="rows to synthesize")
    ap.add_argument("--trials", type=int, default=20,
                    help="linkage draws per value for dp_microdata (the others are exact)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--outdir", default="sweep_out")
    args = ap.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    if args.data:
        if not args.schema:
            ap.error("--data requires --schema")
        data_csv, schema_json = args.data, args.schema
    else:
        table = synthetic_table(args.seed, args.n)
        data_csv = str(outdir / "data.csv")
        schema_json = str(outdir / "data.schema.json")
        Path(data_csv).write_bytes(serialize_table(table))
        Path(schema_json).write_text(
            json.dumps(schema_to_descriptor(table.schema), indent=2), encoding="utf-8"
        )

    config = RunConfig(
        data_csv=data_csv,
        schema_json=schema_json,
        mechanism=args.mechanism,
        epsilon=1.0 if args.mechanism == "dp_microdata" else None,
        attack_trials=args.trials,
        seed=args.seed,
    )
    values = [float(v) if args.parameter == "epsilon" else int(v)
              for v in args.values.split(",")]
    rows = sweep(config, args.parameter, values, outdir)

    header = f"{args.parameter:>8}  {'linkage':>8}  {'ucb':>8}  {'baseline':>8}  {'sse':>12}"
    print(header)
    print("-" * len(header))
    for row in rows:
        print(f"{row[args.parameter]:>8}  {row['linkage_rate']:>8.4f}  "
              f"{row['linkage_ucb']:>8.4f}  {row['baseline']:>8.4f}  {row['sse_raw']:>12.4f}")
    print(f"\nwrote {outdir / 'sweep.json'} and {outdir / 'sweep.csv'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
