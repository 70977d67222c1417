"""Command-line front end.

Subcommands: bound-states, u0, evolve, comb, oracle-compare, sweep.
Each takes --config FILE plus any number of --set KEY.PATH=VALUE overrides.
A command returns its result, which `main` prints as JSON and writes to
output.report if set; traces go to the CSV/SVG files of the output block.
Exit codes: 0 success, 2 configuration problem (an unknown key or an
unwritable output file included), 3 numerical failure.  An output file
whose directory does not exist is refused before the command runs.
Output files are written to NAME.partial first and renamed only on
success, so an interrupted run never leaves a file that looks finished.

Only the config loader and the error types are imported here; each command
imports the layers it runs when it is called, so a process loads only what
its command uses (only `sweep` loads the process pool and hashlib).
"""

import argparse
import dataclasses
import errno
import json
import os
import sys

import numpy as np

from .config import load_config
from .errors import ConfigError, DrivenLevelError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


# the trace file of the commands that write one, when output.trace is unset
_TRACE_DEFAULTS = {"u0": "u0.csv", "evolve": "trace.csv"}


def _write_trace(cfg, command, labeled_traces, title, extra=None):
    """Write the first of labeled_traces to output.trace (the command's
    default when unset) and |u| of each to output.svg if set; returns the
    trace file."""
    from .traceio import write_atomic, write_trace

    trace = labeled_traces[0][0]
    out = cfg.output.get("trace") or _TRACE_DEFAULTS[command]
    write_atomic(out, lambda p: write_trace(p, trace, config=cfg.to_dict(),
                                            extra_columns=extra))
    svg = cfg.output.get("svg")
    if svg:
        from .svgplot import line_plot

        curves = [(tr.times(), tr.magnitude(), label)
                  for tr, label in labeled_traces]
        write_atomic(svg, lambda p: line_plot(p, curves, title=title,
                                              ylabel="|u|"))
    return out


def _grid(cfg):
    """The configured drive's aligned grid."""
    from .volterra import aligned_grid

    cfg.require_grid()
    cfg.require_drive()
    return aligned_grid(cfg.t_max, cfg.h, cfg.drive)


def cmd_bound_states(cfg):
    from .spectral import find_bound_states

    states = find_bound_states(cfg.sd, cfg.eps_on)
    return [{"energy": s.energy, "residue": s.residue} for s in states]


def cmd_u0(cfg):
    from .spectral import compute_u0
    from .volterra import PropagatorTrace, aligned_grid

    cfg.require_grid()
    grid = aligned_grid(cfg.t_max, cfg.h)
    values = compute_u0(cfg.sd, cfg.eps_on, grid.times())
    trace = PropagatorTrace(grid, values)
    out = _write_trace(cfg, "u0", [(trace, "driving-free")], "|u0(t)|")
    return {"trace": out, "n_nodes": grid.n_steps + 1,
            "final_magnitude": float(np.abs(values[-1]))}


def cmd_evolve(cfg):
    from .kernel import kernel_for
    from .spectral import compute_u0
    from .volterra import PropagatorTrace, evolve

    grid = _grid(cfg)
    trace = evolve(kernel_for(cfg.sd), cfg.eps_s, cfg.drive, grid)
    extra = None
    labeled = [(trace, "driven")]
    if cfg.output.get("overlay_u0"):
        u0 = compute_u0(cfg.sd, cfg.eps_on, grid.times())
        extra = {"re_u0": u0.real, "im_u0": u0.imag, "abs_u0": np.abs(u0)}
        labeled.append((PropagatorTrace(grid, u0), "driving-free"))
    out = _write_trace(cfg, "evolve", labeled, "|u(t)|", extra)
    return {"trace": out, "h": grid.h, "t_end": grid.t_end,
            "final_magnitude": float(np.abs(trace.values[-1]))}


def cmd_comb(cfg):
    from .comb import comb_reports
    from .spectral import find_bound_states

    cfg.require_drive()
    states = find_bound_states(cfg.sd, cfg.eps_on)
    reports = comb_reports(states, cfg.drive, cfg.sd.band)
    return {"states": [dataclasses.asdict(r) for r in reports]}


def cmd_oracle_compare(cfg):
    from . import oracle
    from .kernel import kernel_for
    from .volterra import evolve

    grid = _grid(cfg)
    sites = oracle.chain_sites(cfg.sd, grid.t_end)
    if sites > cfg.n_modes:
        raise ConfigError(f"oracle chain to t = {grid.t_end:g} needs {sites} "
                          f"sites, more than oracle.n_modes {cfg.n_modes}")
    trace = evolve(kernel_for(cfg.sd), cfg.eps_s, cfg.drive, grid)
    # drive and grid by keyword: the benchmark's tracer reads grid by name
    ref = oracle.propagate(cfg.sd, cfg.eps_s, drive=cfg.drive, grid=grid)
    return {"n_modes": cfg.n_modes, "t_end": grid.t_end,
            "max_abs_deviation": oracle.compare(trace, ref)}


def cmd_sweep(cfg):
    from .sweep import run_sweep

    return run_sweep(cfg)


# each cmd_ function is the subcommand of its name, "_" written as "-"
_COMMANDS = {name[4:].replace("_", "-"): fn
             for name, fn in list(globals().items()) if name[:4] == "cmd_"}


def _check_output_directories(cfg, command):
    """Raise the ConfigError that writing would raise for the first file
    command will write into a directory that does not exist, so that a
    run never ends on an unwritable file after its work is done."""
    paths = []
    if command in _TRACE_DEFAULTS:
        paths += [cfg.output.get("trace") or _TRACE_DEFAULTS[command],
                  cfg.output.get("svg")]
    if command == "sweep":
        from .sweep import _parse_sweep

        out = _parse_sweep(cfg)[1]
        paths += [out + ".json", out]
    paths.append(cfg.output.get("report"))
    for path in filter(None, paths):
        folder = os.path.dirname(path) or "."
        if not os.path.isdir(folder):
            code = errno.ENOTDIR if os.path.exists(folder) else errno.ENOENT
            raise ConfigError(f"cannot write {path}: {os.strerror(code)}")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="drivenlevel",
        description="Driven-level reservoir dynamics: bound states, "
                    "propagator traces, comb reports, sweeps.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=True,
                       help="JSON configuration file")
        p.add_argument("--set", action="append", default=[],
                       metavar="KEY.PATH=VALUE",
                       help="override a config entry (repeatable)")
        p.set_defaults(func=fn)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.set)
        _check_output_directories(cfg, args.command)
        payload = args.func(cfg)
        if cfg.output.get("report"):
            from .traceio import write_json
            write_json(cfg.output["report"], payload, indent=2)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DrivenLevelError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_NUMERICAL
    print(json.dumps(payload, indent=2))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
