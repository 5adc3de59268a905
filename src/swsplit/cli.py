"""Command-line front end: `analyze` prints a stability report, `run`
drives the simulator and writes snapshots/gauges/log/summary.

Exit codes: 0 ok, 1 fault (bad input, solver failure), 2 stability-gate
refusal.
"""
from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict

from . import __version__
from .config import Config, ConfigError, apply_overrides, load_config
from .fem import assemble
from .forcing import Forcings, load_tide, load_wind
from .implicit_step import SolverError
from .mesh import load_mesh, parse_number
from .simulator import (GateError, OutputWriter, check_forcing_coverage, format_value,
                        key_value_lines, load_snapshot, run)
from .stability import StabilityReport, build_report
from .state import initial_state

EXIT_OK = 0
EXIT_FAULT = 1
EXIT_GATE = 2


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1; code 2 is reserved for the stability gate."""

    def error(self, message):
        self.exit(EXIT_FAULT, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="swsplit",
                     description="Shallow-water splitting solver and "
                                 "time-step stability analyzer")
    parser.add_argument("--version", action="version", version=f"swsplit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", "-c", metavar="PATH",
                        help="key=value config file (defaults used when absent)")
    common.add_argument("--set", metavar="KEY=VALUE", action="append",
                        default=[], dest="overrides",
                        help="override one config key (repeatable)")

    analyze = sub.add_parser("analyze", parents=[common],
                             help="evaluate the critical explicit time step")
    analyze.add_argument("--tau", type=parse_number, default=None,
                         help="explicit step to rate (default: config tau)")
    analyze.add_argument("--speed", type=parse_number, default=0.1,
                         help="flow speed |u| in m/s (default 0.1)")
    analyze.add_argument("--depth", type=parse_number, default=0.1,
                         help="water depth H in m (default 0.1)")
    analyze.add_argument("--machine", action="store_true",
                         help="emit key=value lines instead of the table")

    runp = sub.add_parser("run", parents=[common], help="advance a simulation")
    runp.add_argument("--machine", action="store_true",
                      help="emit the summary as key=value lines on stdout")
    return parser


def _load_cfg(args) -> Config:
    cfg = load_config(args.config) if args.config else Config()
    if args.overrides:
        cfg = apply_overrides(cfg, args.overrides)
    return cfg


def report_lines(report: StabilityReport, machine: bool):
    """The report's fields, in order, as key=value lines or a table."""
    items = asdict(report).items()
    if machine:
        return key_value_lines(items)
    width = max(len(key) for key, _ in items)
    lines = ["stability report"]
    lines += [f"  {key:<{width}}  {format_value(value)}" for key, value in items]
    if math.isnan(report.tau_c_cubic):
        lines.append("  note: drag rate is zero, the source update never converges")
    return lines


def cmd_analyze(args) -> int:
    cfg = _load_cfg(args)
    tau = cfg.run_config.tau if args.tau is None else args.tau
    report = build_report(tau, args.speed, args.depth, cfg.params)
    for line in report_lines(report, args.machine):
        print(line)
    return EXIT_OK


def cmd_run(args) -> int:
    cfg = _load_cfg(args)
    if cfg.mesh is None:
        raise ConfigError("run requires a mesh (set mesh=PATH)")
    mesh = load_mesh(cfg.mesh, h_min=cfg.params.h_min)
    forcings = Forcings(
        tide=load_tide(cfg.tide) if cfg.tide else None,
        wind=load_wind(cfg.wind) if cfg.wind else None,
    )
    if cfg.restart:
        state = load_snapshot(cfg.restart, mesh)
    else:
        state = initial_state(mesh.n_nodes, eta0=cfg.eta0)
    # a forcing gap or a bad gauge id is refused before assembly and any
    # output file; assembly cannot fail on a mesh build_mesh accepted
    check_forcing_coverage(state.t, mesh, cfg.run_config, forcings)
    sinks = OutputWriter(cfg.out_dir, mesh, gauge_nodes=cfg.gauges)
    matrices = assemble(mesh)
    summary = run(state, mesh, matrices, cfg.params, cfg.run_config, forcings, sinks=sinks)
    if args.machine:
        for line in key_value_lines(asdict(summary).items()):
            print(line)
    else:
        print(f"completed {summary.steps} steps; outputs in {cfg.out_dir}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "analyze":
            return cmd_analyze(args)
        return cmd_run(args)
    except SystemExit as exc:   # argparse --help / usage errors
        return int(exc.code or 0)
    except GateError as exc:
        print(f"swsplit: {exc}", file=sys.stderr)
        return EXIT_GATE
    except (SolverError, ValueError, ArithmeticError, OSError) as exc:
        print(f"swsplit: {exc}", file=sys.stderr)
        return EXIT_FAULT


def console_main():
    sys.exit(main())

