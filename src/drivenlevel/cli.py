"""Command-line front end.

Subcommands: bound-states, u0, evolve, comb, oracle-compare, sweep.
Each takes --config FILE plus any number of --set KEY.PATH=VALUE overrides;
results go to stdout as JSON and, for traces, to CSV/SVG files named in the
config's output block.  Exit codes: 0 success, 2 configuration problem
(an output file that cannot be written included), 3 numerical failure.
Output files are written to NAME.partial first and renamed only on
success, so an interrupted run never leaves a file that looks finished.

Only the config loader and the error types are imported here; each command
imports the layers it runs when it is called, so a process loads only what
its command uses (only `sweep` loads the process pool and hashlib).
"""

import argparse
import dataclasses
import json
import sys

import numpy as np

from .config import load_config
from .errors import ConfigError, DrivenLevelError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _print_json(obj):
    print(json.dumps(obj, indent=2))


def _svg_from_traces(path, labeled_traces, title):
    from .svgplot import line_plot
    from .traceio import write_atomic

    curves = [(tr.times(), tr.magnitude(), label)
              for tr, label in labeled_traces]
    write_atomic(path,
                 lambda p: line_plot(p, curves, title=title, ylabel="|u|"))


def _print_and_report(cfg, payload):
    """Print payload and, if output.report names a file, write it there."""
    _print_json(payload)
    report = cfg.output.get("report")
    if report:
        from .traceio import write_json
        write_json(report, payload, indent=2)
    return EXIT_OK


def _solve(cfg):
    """(grid, trace) of the configured drive, evolved on its aligned grid."""
    from .kernel import kernel_for
    from .volterra import aligned_grid, evolve

    cfg.require_grid()
    cfg.require_drive()
    grid = aligned_grid(0.0, cfg.t_max, cfg.h, cfg.drive)
    trace = evolve(kernel_for(cfg.sd, grid.h, grid.h * grid.n_steps),
                   cfg.eps_s, cfg.drive, grid)
    return grid, trace


def cmd_bound_states(cfg, args):
    from .spectral import find_bound_states

    states = find_bound_states(cfg.sd, cfg.eps_on)
    return _print_and_report(
        cfg, [{"energy": s.energy, "residue": s.residue} for s in states])


def cmd_u0(cfg, args):
    from .spectral import compute_u0
    from .traceio import write_atomic, write_trace
    from .volterra import PropagatorTrace, aligned_grid

    cfg.require_grid()
    grid = aligned_grid(0.0, cfg.t_max, cfg.h)
    values = compute_u0(cfg.sd, cfg.eps_on, grid.times())
    trace = PropagatorTrace(grid, values)
    out = cfg.output.get("trace") or "u0.csv"
    write_atomic(out, lambda p: write_trace(p, trace, config=cfg.to_dict()))
    svg = cfg.output.get("svg")
    if svg:
        _svg_from_traces(svg, [(trace, "driving-free")], "|u0(t)|")
    _print_json({"trace": out, "n_nodes": grid.n_steps + 1,
                 "final_magnitude": float(np.abs(values[-1]))})
    return EXIT_OK


def cmd_evolve(cfg, args):
    from .spectral import compute_u0
    from .traceio import write_atomic, write_trace
    from .volterra import PropagatorTrace

    grid, trace = _solve(cfg)
    extra = None
    labeled = [(trace, "driven")]
    if cfg.output.get("overlay_u0"):
        u0 = compute_u0(cfg.sd, cfg.eps_on, grid.times())
        extra = {"re_u0": u0.real, "im_u0": u0.imag, "abs_u0": np.abs(u0)}
        labeled.append((PropagatorTrace(grid, u0), "driving-free"))

    out = cfg.output.get("trace") or "trace.csv"
    write_atomic(out, lambda p: write_trace(p, trace, config=cfg.to_dict(),
                                            extra_columns=extra))
    svg = cfg.output.get("svg")
    if svg:
        _svg_from_traces(svg, labeled, "|u(t)|")
    _print_json({"trace": out, "h": grid.h, "t_end": grid.t_end,
                 "final_magnitude": float(np.abs(trace.values[-1]))})
    return EXIT_OK


def cmd_comb(cfg, args):
    from .comb import comb_reports
    from .spectral import find_bound_states

    cfg.require_drive()
    states = find_bound_states(cfg.sd, cfg.eps_on)
    reports = comb_reports(states, cfg.drive, cfg.sd.band)
    return _print_and_report(
        cfg, {"states": [dataclasses.asdict(r) for r in reports]})


def cmd_oracle_compare(cfg, args):
    from . import oracle

    grid, trace = _solve(cfg)
    model = oracle.discretize(cfg.sd, cfg.n_modes, cfg.eps_s)
    ref = oracle.propagate(model, cfg.drive, grid)
    deviation = oracle.compare(trace, ref)
    _print_json({"n_modes": cfg.n_modes,
                 "trust_horizon": model.trust_horizon(),
                 "t_end": grid.t_end,
                 "max_abs_deviation": deviation})
    return EXIT_OK


def cmd_sweep(cfg, args):
    from .sweep import run_sweep

    _print_json(run_sweep(cfg))
    return EXIT_OK


_COMMANDS = {
    "bound-states": cmd_bound_states,
    "u0": cmd_u0,
    "evolve": cmd_evolve,
    "comb": cmd_comb,
    "oracle-compare": cmd_oracle_compare,
    "sweep": cmd_sweep,
}


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
        return args.func(cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DrivenLevelError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
