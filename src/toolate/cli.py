"""Command-line front end.

Subcommands: epr, toolate, interfere, erase, lhv, verify.  Each accepts
--config (JSON file) or inline flags; flags override the file and the
effective configuration is echoed into every output's metadata.  Angles
are entered in degrees.  Exit codes: 0 success, 1 configuration or
usage error, 2 verification failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .experiments import (
    ExperimentConfig,
    json_report_text,
    metadata,
    records_text,
    run_epr,
    run_erasure,
    run_interference,
    run_lhv_compare,
    run_toolate,
    run_verify,
)

_PROTOCOL_OF = {
    "epr": "epr_standard",
    "toolate": "toolate",
    "interfere": "interference",
    "erase": "erasure",
    "lhv": "lhv_compare",
    "verify": "verify",
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage; this artifact reserves 2
    # for verification failures and reports usage problems as 1
    def error(self, message):
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="toolate", description=__doc__, add_help=True)
    sub = parser.add_subparsers(dest="command", metavar="command")
    descriptions = {
        "epr": "standard Bell run: exact correlations and CHSH, optional Monte Carlo",
        "toolate": "value-first protocol run: stage statistics and outcome stream",
        "interfere": "recombination test against source-fixed orientation models",
        "erase": "which-path erasure survey of the value-conditional states",
        "lhv": "hidden-variable comparison: Bell bound plus interference verdicts",
        "verify": "state audit plus all analytic invariants; exit 2 on failure",
    }
    for name, desc in descriptions.items():
        p = sub.add_parser(name, help=desc, description=desc)
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument(
            "--angles",
            help="comma-separated degrees: four settings (a,a',b,b') for epr/lhv, "
            "three orientations for the rest (default 0,120,240 or 0,90,45,135)",
        )
        p.add_argument("--trials", type=int, help="Monte Carlo trials; 0 = exact only")
        p.add_argument("--seed", type=int, help="master seed for all stochastic output")
        p.add_argument("--out", help="output file (CSV for epr/toolate, JSON otherwise)")
        p.add_argument(
            "--port-binding",
            help="permutation of 0,1,2 assigning orientations to ports, e.g. 2,0,1",
        )
        p.add_argument("--threshold", type=float, help="interference TV threshold")
    return parser


def _parse_tuple(text: str, kind, flag: str):
    try:
        return tuple(kind(part.strip()) for part in text.split(",") if part.strip() != "")
    except ValueError as exc:
        raise UsageError(f"bad value for {flag}: {text!r}") from exc


def _load_config(args, protocol: str) -> ExperimentConfig:
    base: dict = {}
    if args.config:
        try:
            base = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except OSError as exc:
            raise exc
        except json.JSONDecodeError as exc:
            raise UsageError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(base, dict):
            raise UsageError("config file must hold a JSON object")
        file_protocol = base.get("protocol")
        if file_protocol is not None and file_protocol != protocol:
            raise UsageError(
                f"config file declares protocol {file_protocol!r} "
                f"but the {protocol!r} subcommand was invoked"
            )
    base["protocol"] = protocol
    config = ExperimentConfig.from_dict(base)
    overrides = {}
    if args.angles is not None:
        overrides["angles_deg"] = _parse_tuple(args.angles, float, "--angles")
    if args.trials is not None:
        overrides["trials"] = args.trials
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    if args.out is not None:
        overrides["output_path"] = args.out
    if args.port_binding is not None:
        overrides["port_binding"] = _parse_tuple(args.port_binding, int, "--port-binding")
    if args.threshold is not None:
        overrides["threshold"] = args.threshold
    return config.override(**overrides)


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def records_path(table_path: str) -> str:
    p = Path(table_path)
    return str(p.with_suffix("")) + ".records.jsonl"


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("a subcommand is required")
        protocol = _PROTOCOL_OF[args.command]
        config = _load_config(args, protocol)
    except UsageError as exc:
        parser.print_usage(sys.stderr)
        print(f"toolate: error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError) as exc:
        print(f"toolate: config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"toolate: i/o error: {exc}", file=sys.stderr)
        return 3

    try:
        if args.command == "epr":
            table = run_epr(config)
            _emit(table.to_csv_text(metadata(config)), config.output_path)
        elif args.command == "toolate":
            table, outcomes = run_toolate(config)
            _emit(table.to_csv_text(metadata(config)), config.output_path)
            if config.output_path is not None:
                Path(records_path(config.output_path)).write_text(
                    records_text(config.trine(), outcomes, metadata(config)),
                    encoding="utf-8",
                )
        elif args.command == "interfere":
            _emit(json_report_text(run_interference(config)), config.output_path)
        elif args.command == "erase":
            _emit(json_report_text(run_erasure(config)), config.output_path)
        elif args.command == "lhv":
            _emit(json_report_text(run_lhv_compare(config)), config.output_path)
        elif args.command == "verify":
            payload, ok = run_verify(config)
            _emit(json_report_text(payload), config.output_path)
            if not ok:
                return 2
    except (ValueError, KeyError) as exc:
        print(f"toolate: config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"toolate: i/o error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
