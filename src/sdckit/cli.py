"""Command line entry points.

Subcommands mirror the library: anonymize builds a release and its artifact
directory, attack runs a chosen attack against a saved release, account
composes a budget ledger, report scores utility, and sweep traces a
risk-utility frontier. The default seed comes from SDCKIT_SEED.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

from .accounting import BudgetLedger
from .attacks import intersection_attack
from .errors import SdcError
from .microdata import json_dumps, read_hierarchies, read_release, read_table, write_text
from .probkanon import PERMUTE_MODES
from .reporting import MECHANISMS, RunConfig, run, run_attack, sweep, utility_report


def _default_seed() -> int:
    return int(os.environ.get("SDCKIT_SEED", "0"))


def _add_common_data_args(p: argparse.ArgumentParser):
    p.add_argument("--data", required=True, help="input microdata csv")
    p.add_argument("--schema", required=True, help="schema descriptor json")


def _add_run_args(p: argparse.ArgumentParser):
    """The data and mechanism arguments that anonymize and sweep share."""
    _add_common_data_args(p)
    p.add_argument("--seed", type=int, default=_default_seed())
    p.add_argument("--mechanism", default="mdav", choices=MECHANISMS)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--hierarchies", default=None, help="hierarchy json file")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--permute-mode", dest="permute_mode", default="vector", choices=PERMUTE_MODES)


def _run_config(args, **fields) -> RunConfig:
    """A RunConfig from the arguments of ``_add_run_args`` and the given fields."""
    return RunConfig(
        data_csv=args.data, schema_json=args.schema, mechanism=args.mechanism, epsilon=args.epsilon,
        hierarchies_json=args.hierarchies, attack_trials=args.trials, permute_mode=args.permute_mode,
        seed=args.seed, **fields,
    )


def _cmd_anonymize(args) -> int:
    config = _run_config(
        args, k=args.k, l_floor=args.l_floor, t_ceiling=args.t_ceiling, conf_attribute=args.conf,
        attacks=tuple(args.attacks.split(",")) if args.attacks else (),
        max_suppression_fraction=args.max_suppression,
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
        report, note = run_attack(
            args.attack, read_release(args.release[0]), read_table(args.data, args.schema),
            conf_attribute=args.conf,
            hierarchies=read_hierarchies(args.hierarchies) if args.hierarchies else None,
        )
        if report is None:
            raise SdcError(note)
    text = json_dumps(report.to_json())
    path = outdir / f"attack_{args.attack}.json"
    manifest = outdir / "manifest.json"
    # a run directory's manifest covers its attack reports: never rewrite one with other bytes
    hashes = json.loads(manifest.read_text(encoding="utf-8")) if manifest.exists() else {}
    if not isinstance(hashes, dict):
        raise SdcError(f"{manifest} is not a json object")
    if path.name in hashes and hashes[path.name] != hashlib.sha256(text.encode("utf-8")).hexdigest():
        raise SdcError(f"{path} is listed in {manifest} with other bytes; pass --out to write the report elsewhere")
    outdir.mkdir(parents=True, exist_ok=True)
    write_text(path, text)
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
    text = json_dumps(report.to_json())
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        write_text(outdir / "utility.json", text)
    print(text, end="")
    return 0


def _cmd_sweep(args) -> int:
    values = [float(v) if args.parameter == "epsilon" else int(v) for v in args.values.split(",")]
    rows = sweep(_run_config(args), args.parameter, values, outdir=args.out)
    for row in rows:
        print(json.dumps(row, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdckit", description="statistical disclosure control toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("anonymize", help="build a release and verify its guarantees")
    _add_run_args(p)
    p.add_argument("--out", required=True, help="artifact directory")
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--l-floor", dest="l_floor", type=float, default=None)
    p.add_argument("--t-ceiling", dest="t_ceiling", type=float, default=None)
    p.add_argument("--conf", default=None, help="confidential attribute for l/t checks")
    p.add_argument("--attacks", default="linkage", help="comma list, empty for none")
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
    _add_run_args(p)
    p.add_argument("--parameter", choices=["k", "epsilon"], default="k")
    p.add_argument("--values", required=True, help="comma separated values")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SdcError, OSError, ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
