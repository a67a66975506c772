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
    run_epr,
    run_erasure,
    run_interference,
    run_lhv_compare,
    run_toolate,
    run_verify,
)

# subcommand -> (config protocol, help text)
_COMMANDS = {
    "epr": ("epr_standard",
            "standard Bell run: exact correlations and CHSH, optional Monte Carlo"),
    "toolate": ("toolate",
                "value-first protocol run: stage statistics and outcome stream"),
    "interfere": ("interference",
                  "recombination test against source-fixed orientation models"),
    "erase": ("erasure", "which-path erasure survey of the value-conditional states"),
    "lhv": ("lhv_compare", "hidden-variable comparison: Bell bound plus interference verdicts"),
    "verify": ("verify", "state audit plus all analytic invariants; exit 2 on failure"),
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage; this artifact reserves 2
    # for verification failures and reports usage problems as 1
    def error(self, message):
        raise UsageError(message)


def _number_list(kind):
    def parse(text: str) -> list:
        return [kind(part) for part in text.split(",") if part.strip() != ""]

    parse.__name__ = f"comma-separated {kind.__name__}"  # named in argparse's error
    return parse


def build_parser() -> _Parser:
    # flag destinations are the config-file keys, so set flags and the
    # file merge into one dict for ExperimentConfig.from_dict
    parser = _Parser(prog="toolate", description=__doc__, add_help=True)
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name, (_, desc) in _COMMANDS.items():
        p = sub.add_parser(name, help=desc, description=desc)
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument(
            "--angles",
            type=_number_list(float),
            help="comma-separated degrees: four settings (a,a',b,b') for epr/lhv, "
            "three orientations for the rest (default 0,120,240 or 0,90,45,135)",
        )
        p.add_argument("--trials", type=int, help="Monte Carlo trials; 0 = exact only")
        p.add_argument("--seed", dest="master_seed", metavar="SEED", type=int,
                       help="master seed for all stochastic output")
        p.add_argument("--out", dest="output_path", metavar="OUT",
                       help="output file (CSV for epr/toolate, JSON otherwise)")
        p.add_argument(
            "--port-binding",
            type=_number_list(int),
            help="permutation of 0,1,2 assigning orientations to ports, e.g. 2,0,1",
        )
        p.add_argument("--threshold", type=float, help="interference TV threshold")
    return parser


def _load_config(args) -> ExperimentConfig:
    protocol = _COMMANDS[args.command][0]
    data: dict = {}
    if args.config:
        try:
            data = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
            raise UsageError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise UsageError("config file must hold a JSON object")
        if data.get("protocol") not in (None, protocol):
            raise UsageError(
                f"config file declares protocol {data['protocol']!r} "
                f"but the {protocol!r} subcommand was invoked"
            )
    flags = {
        key: value
        for key, value in vars(args).items()
        if key not in ("command", "config") and value is not None
    }
    return ExperimentConfig.from_dict({**data, **flags, "protocol": protocol})


def _emit(text: str, path: str | None) -> None:
    """Write ``text`` to ``path``, or to stdout when there is none."""
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as out:
            out.write(text)


def records_path(table_path: str) -> str:
    p = Path(table_path)
    return str(p.with_suffix("")) + ".records.jsonl"


def _write_run(config: ExperimentConfig) -> None:
    """Write a toolate run's table to ``config.output_path`` and its
    records beside it.  Records are written while sampling, before the
    table; opening the table first makes a bad --out fail before any
    records file.  A failed write removes the files it opened."""
    opened = []
    try:
        with open(config.output_path, "w", encoding="utf-8") as table_out:
            opened.append(config.output_path)
            with open(records_path(config.output_path), "w", encoding="utf-8") as records:
                opened.append(records.name)
                table_out.write(run_toolate(config, records).to_csv_text(metadata(config)))
    except OSError:
        for path in opened:
            Path(path).unlink(missing_ok=True)
        raise


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("a subcommand is required")
        config = _load_config(args)
        if args.command == "epr":
            table = run_epr(config)
            _emit(table.to_csv_text(metadata(config)), config.output_path)
        elif args.command == "toolate" and config.output_path is None:
            _emit(run_toolate(config).to_csv_text(metadata(config)), None)
        elif args.command == "toolate":
            _write_run(config)
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
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
