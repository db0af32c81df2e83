"""Command line entry points.

Subcommands mirror the library: anonymize builds a release and its artifact
directory, attack runs a chosen attack against a saved release, account
composes a budget ledger, report scores utility, and sweep traces a
risk-utility frontier. The default seed comes from SDCKIT_SEED.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .accounting import BudgetLedger
from .attacks import (
    attribute_inference_attack,
    downcoding_attack,
    intersection_attack,
    linkage_attack,
)
from .errors import SdcError
from .microdata import read_hierarchies, read_release, read_table
from .probkanon import PERMUTE_MODES
from .reporting import MECHANISMS, RunConfig, run, sweep, utility_report


def _default_seed() -> int:
    return int(os.environ.get("SDCKIT_SEED", "0"))


def _add_common_data_args(p: argparse.ArgumentParser):
    p.add_argument("--data", required=True, help="input microdata csv")
    p.add_argument("--schema", required=True, help="schema descriptor json")
    p.add_argument("--seed", type=int, default=_default_seed())


def _cmd_anonymize(args) -> int:
    config = RunConfig(
        data_csv=args.data,
        schema_json=args.schema,
        mechanism=args.mechanism,
        k=args.k,
        epsilon=args.epsilon,
        l_floor=args.l_floor,
        t_ceiling=args.t_ceiling,
        conf_attribute=args.conf,
        hierarchies_json=args.hierarchies,
        attacks=tuple(args.attacks.split(",")) if args.attacks else (),
        attack_trials=args.trials,
        permute_mode=args.permute_mode,
        max_suppression_fraction=args.max_suppression,
        seed=args.seed,
    )
    code = run(config, args.out)
    print((Path(args.out) / "summary.txt").read_text(encoding="utf-8"), end="")
    return code


def _cmd_attack(args) -> int:
    outdir = Path(args.out) if args.out else Path(args.release[0])
    if args.attack == "intersection":
        releases = [read_release(d) for d in args.release]
        report = intersection_attack(releases)
    else:
        release = read_release(args.release[0])
        table = read_table(args.data, args.schema)
        if args.attack == "linkage":
            report = linkage_attack(release, table, trials=args.trials, rng_seed=args.seed)
        elif args.attack == "attribute_inference":
            if not args.conf:
                raise SdcError("attribute_inference needs --conf")
            report = attribute_inference_attack(release, args.conf, table)
        elif args.attack == "downcoding":
            if not args.hierarchies:
                raise SdcError("downcoding needs --hierarchies")
            report = downcoding_attack(release, read_hierarchies(args.hierarchies))
        else:
            raise SdcError(
                f"attack {args.attack!r} is not file-drivable; use the library interface"
            )
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / f"attack_{args.attack}.json"
    path.write_bytes((json.dumps(report.to_json(), sort_keys=True, indent=2) + "\n").encode())
    print(
        f"{args.attack}: rate={report.success_rate:.6g}"
        f" wilson=[{report.wilson[0]:.6g},{report.wilson[1]:.6g}]"
        f" trials={report.trials}"
    )
    return 0


def _cmd_account(args) -> int:
    ledger = (
        BudgetLedger.from_jsonl(Path(args.ledger).read_text(encoding="utf-8"))
        if args.ledger and Path(args.ledger).exists()
        else BudgetLedger()
    )
    for spec in args.add_dp or ():
        parts = spec.split(":")
        if len(parts) < 2:
            raise SdcError(f"--add-dp expects NAME:EPSILON[:DELTA[:GROUP]], got {spec!r}")
        name, eps = parts[0], float(parts[1])
        delta = float(parts[2]) if len(parts) > 2 and parts[2] else 0.0
        group = parts[3] if len(parts) > 3 and parts[3] else None
        ledger.record_dp(name, eps, delta, group)
    for name in args.add_syntactic or ():
        ledger.record_syntactic(name)
    report = ledger.compose()
    if args.ledger and (args.add_dp or args.add_syntactic):
        Path(args.ledger).write_bytes(ledger.to_jsonl().encode())
    print(json.dumps(report.to_json(), sort_keys=True))
    return 0


def _cmd_report(args) -> int:
    table = read_table(args.data, args.schema)
    release = read_release(args.release)
    report = utility_report(table, release)
    text = json.dumps(report.to_json(), sort_keys=True, indent=2) + "\n"
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "utility.json").write_bytes(text.encode())
    print(text, end="")
    return 0


def _cmd_sweep(args) -> int:
    config = RunConfig(
        data_csv=args.data,
        schema_json=args.schema,
        mechanism=args.mechanism,
        epsilon=args.epsilon,
        hierarchies_json=args.hierarchies,
        attack_trials=args.trials,
        permute_mode=args.permute_mode,
        seed=args.seed,
    )
    values = [float(v) if args.parameter == "epsilon" else int(v) for v in args.values.split(",")]
    rows = sweep(config, args.parameter, values, outdir=args.out)
    for row in rows:
        print(json.dumps(row, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdckit", description="statistical disclosure control toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("anonymize", help="build a release and verify its guarantees")
    _add_common_data_args(p)
    p.add_argument("--out", required=True, help="artifact directory")
    p.add_argument("--mechanism", default="mdav", choices=MECHANISMS)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--l-floor", dest="l_floor", type=float, default=None)
    p.add_argument("--t-ceiling", dest="t_ceiling", type=float, default=None)
    p.add_argument("--conf", default=None, help="confidential attribute for l/t checks")
    p.add_argument("--hierarchies", default=None, help="hierarchy json file")
    p.add_argument("--attacks", default="linkage", help="comma list, empty for none")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--permute-mode", dest="permute_mode", default="vector", choices=PERMUTE_MODES)
    p.add_argument("--max-suppression", dest="max_suppression", type=float, default=0.0)
    p.set_defaults(func=_cmd_anonymize)

    p = sub.add_parser("attack", help="attack a saved release")
    _add_common_data_args(p)
    p.add_argument("--release", nargs="+", required=True, help="release directory (two+ for intersection)")
    p.add_argument(
        "--attack",
        default="linkage",
        choices=["linkage", "attribute_inference", "intersection", "downcoding"],
    )
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--conf", default=None)
    p.add_argument("--hierarchies", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_attack)

    p = sub.add_parser("account", help="compose a privacy budget ledger")
    p.add_argument("--ledger", default=None, help="json-lines ledger file")
    p.add_argument("--add-dp", action="append", help="NAME:EPSILON[:DELTA[:GROUP]]")
    p.add_argument("--add-syntactic", action="append", help="mechanism name")
    p.set_defaults(func=_cmd_account)

    p = sub.add_parser("report", help="utility report for a saved release")
    _add_common_data_args(p)
    p.add_argument("--release", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("sweep", help="risk-utility frontier over k or epsilon")
    _add_common_data_args(p)
    p.add_argument("--mechanism", default="mdav", choices=MECHANISMS)
    p.add_argument("--parameter", choices=["k", "epsilon"], default="k")
    p.add_argument("--values", required=True, help="comma separated values")
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--hierarchies", default=None)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--permute-mode", dest="permute_mode", default="vector", choices=PERMUTE_MODES)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SdcError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (OSError, ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
