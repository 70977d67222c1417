"""Run one `drivenlevel` CLI call with spans around the package's layers.

    python3 perfbench/tracer.py --out SPANS.json -- <drivenlevel arguments>

The program is not changed: this script imports it, wraps the public names
the CLI path calls (every public function of `cli`, `sweep`, `spectral`,
`oscquad` and `oracle`, plus `volterra.evolve`, `volterra.convergence_check`,
`kernel.kernel_for`, `*Kernel.lag_samples`, `config.load_config`,
`comb.comb_reports`, `traceio.write_trace` and `svgplot.line_plot`), and then
calls `drivenlevel.cli.main` with the given arguments.  A wrapper is bound
wherever the original is referenced, so `from .x import f` copies inside the
package are caught too.

Spans (name, start, end, parent, run id) and counters stay in memory and are
written to SPANS.json when the call returns.  The exit code is the CLI's.
"""

import argparse
import functools
import json
import os
import sys
import time

T_START = time.perf_counter()

WHOLE_MODULES = ("cli", "sweep", "spectral", "oscquad", "oracle")
FUNCTIONS = {
    "volterra": ("evolve", "convergence_check"),
    "kernel": ("kernel_for",),
    "config": ("load_config",),
    "comb": ("comb_reports",),
    "traceio": ("write_trace",),
    "svgplot": ("line_plot",),
}
METHODS = {"kernel": {"SemicircleKernel": ("lag_samples",),
                      "QuadratureKernel": ("lag_samples",)}}
# called once per quadrature node from inside other spans; a span each would
# cost more than the work it times
LEAF_HELPERS = ("spectral.eval_j", "spectral.is_decoupled")


class Tracer:
    """In-memory spans and counters for one process."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []     # [name, start, end, parent index or None, run id]
        self.stack = []
        self.counts = {}
        self.quad_calls = []    # (name, integrand sizes per level,
        #                           n times, n probe times)
        self.pool_workers = []

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def enter(self, name):
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent,
                           self.run_id])
        self.stack.append(len(self.spans) - 1)

    def leave(self):
        self.spans[self.stack.pop()][2] = time.perf_counter()

    def wrap(self, name, fn, before=None, after=None):
        """fn inside a span; before(args, kwargs) may rewrite the arguments,
        after(args, kwargs, result) reads them once fn has returned."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.leave()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def dump(self, path, exit_code):
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, "exit_code": exit_code,
                       "spans": self.spans, "counts": self.counts,
                       "quad_calls": self.quad_calls,
                       "pool_workers": self.pool_workers}, fh)


def _process_start():
    """perf_counter reading at which this process was started (the kernel
    keeps the start time in clock ticks, so 10 ms resolution)."""
    with open("/proc/self/stat") as fh:
        start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
    age = (time.clock_gettime(time.CLOCK_BOOTTIME)
           - start_ticks / os.sysconf("SC_CLK_TCK"))
    return time.perf_counter() - age


def _size(x):
    import numpy as np
    return int(np.size(x))


def _probe_size(times):
    """Number of probe times the oscquad doubling loop evaluates; mirrors
    the probe choice in `angle_band_integral` and `fourier_integral`."""
    import numpy as np
    t = np.atleast_1d(np.asarray(times, dtype=float))
    if t.size == 0:
        return 0
    idx = np.unique(np.clip(np.linspace(0, t.size - 1, 9).astype(int),
                            0, t.size - 1))
    order = np.argsort(np.abs(t))
    return int(np.unique(np.concatenate([t[idx], t[order[-3:]]])).size)


def _hooks(tr):
    """Counters read at the layer boundaries: (before, after) per name."""

    def quadrature(name):
        def before(args, kwargs):
            # count nodes by wrapping the integrand passed in
            f, rest = args[0], args[1:]
            sizes = []

            def counted(x):
                sizes.append(_size(x))
                return f(x)

            times = rest[2] if len(rest) > 2 else kwargs["times"]
            tr.quad_calls.append((name, sizes, _size(times),
                                  _probe_size(times)))
            return (counted,) + rest, kwargs
        return before

    def file_bytes(key):
        def after(args, kwargs, result):
            tr.count(key, os.path.getsize(args[0]))
        return after

    def grid_arg(args, kwargs, pos):
        return args[pos] if len(args) > pos else kwargs["grid"]

    def evolve_after(args, kwargs, result):
        tr.count("volterra.evolve_calls")
        tr.count("volterra.nodes", grid_arg(args, kwargs, 3).n_steps + 1)

    def point_after(args, kwargs, result):
        tr.count("sweep.points")
        if result[-1] != "ok":
            tr.count("sweep.rows_failed")

    return {
        "oscquad.angle_band_integral": (
            quadrature("oscquad.angle_band_integral"), None),
        "oscquad.fourier_integral": (
            quadrature("oscquad.fourier_integral"), None),
        "oscquad.filon_integral": (
            None, lambda a, k, r: tr.count("oscquad.filon_calls")),
        "spectral.band_spectral_function": (
            None, lambda a, k, r: tr.count(
                "spectral.band_spectral_function_nodes", _size(a[2]))),
        "volterra.evolve": (None, evolve_after),
        "oracle.propagate": (
            None, lambda a, k, r: tr.count(
                "oracle.propagate_steps", grid_arg(a, k, 2).n_steps)),
        "oracle.discretize": (
            None, lambda a, k, r: tr.count("oracle.modes", r.n_modes)),
        "kernel.SemicircleKernel.lag_samples": (
            None, lambda a, k, r: tr.count("kernel.lags", _size(r))),
        "kernel.QuadratureKernel.lag_samples": (
            None, lambda a, k, r: tr.count("kernel.lags", _size(r))),
        "traceio.write_trace": (None, file_bytes("traceio.bytes")),
        "svgplot.line_plot": (None, file_bytes("svgplot.bytes")),
        "sweep.evaluate_point": (None, point_after),
    }


def _rebind(modules, original, wrapper):
    """Point every module-level reference to original at wrapper, including
    values of module-level dicts (the CLI's command table)."""
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is original:
                        value[k] = wrapper


def install(tr, package):
    import importlib
    import inspect

    by_name = {m: importlib.import_module(f"{package.__name__}.{m}")
               for m in set(WHOLE_MODULES) | set(FUNCTIONS) | set(METHODS)}
    modules = list(by_name.values())
    hooks = _hooks(tr)
    targets = []
    for short, mod in by_name.items():
        if short in WHOLE_MODULES:
            names = [n for n, v in vars(mod).items()
                     if inspect.isfunction(v) and not n.startswith("_")
                     and v.__module__ == mod.__name__]
        else:
            names = FUNCTIONS.get(short, ())
        targets += [(f"{short}.{n}", getattr(mod, n)) for n in names
                    if f"{short}.{n}" not in LEAF_HELPERS]
    for name, fn in targets:
        before, after = hooks.get(name, (None, None))
        _rebind(modules, fn, tr.wrap(name, fn, before, after))
    for short, classes in METHODS.items():
        for cls_name, methods in classes.items():
            cls = getattr(by_name[short], cls_name)
            for m in methods:
                name = f"{short}.{cls_name}.{m}"
                before, after = hooks.get(name, (None, None))
                setattr(cls, m, tr.wrap(name, getattr(cls, m), before, after))

    sweep = by_name["sweep"]
    pool_cls = sweep.ProcessPoolExecutor

    class CountingPool(pool_cls):
        def __init__(self, max_workers=None, *args, **kwargs):
            tr.pool_workers.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    sweep.ProcessPoolExecutor = CountingPool


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True, help="spans JSON to write")
    parser.add_argument("--run-id", default="0")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] \
        else args.cli_args

    tr = Tracer(args.run_id)
    tr.spans.append(["python.start", min(_process_start(), T_START),
                     T_START, None, tr.run_id])
    tr.spans.append(["trace.start", T_START, time.perf_counter(), None,
                     tr.run_id])
    tr.enter("package.import")
    import drivenlevel
    import drivenlevel.cli
    tr.leave()
    tr.enter("trace.install")
    install(tr, drivenlevel)
    tr.leave()
    code = 1
    try:
        code = drivenlevel.cli.main(cli_args)      # wrapped by install
    finally:
        tr.dump(args.out, code)
    return code


if __name__ == "__main__":
    sys.exit(main())
