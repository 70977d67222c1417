"""drivenlevel benchmark: runs a workload through the CLI as users run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from `src/` there
(nothing is installed).  Workloads and their reasons are in README.md.

--trace 0  measures, with tracing off, for about --seconds:
           setup_s      median over SETUP_REPEATS fresh processes that import
                        drivenlevel and load the workload's config;
           run_s        median over iterations of the wall time of the
                        workload's CLI calls, each a subprocess, launch to exit;
           peak_rss_mb  median over iterations of the largest resident set
                        among the iteration's processes, pool workers included;
           ok_rate      operations that passed over operations attempted.
--trace 1  runs the calls once untraced and once through tracer.py; the
           sweep also runs once serially under the tracer, because spans
           in pool workers would be lost.  Prints the per-layer metrics
           derived from the spans and counters.

Every run checks the outputs (checks.py).  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  Every process
the benchmark starts runs with one BLAS/OpenMP thread (BLAS_VARS set to 1):
two BLAS threads on two shared cores stall on each other whenever anything
else needs a core, which made run_s scatter by more than its bound (README,
"Steadiness").  CPU affinity is left as the caller has it; the environment
line says what the CLI processes actually loaded.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import checks
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
OUT = os.path.join(ROOT, ".perfbench_out")

SETUP_REPEATS = 5
MIN_ITERATIONS = 2
RUN_LIMIT_S = 170.0         # every child is killed past this; exit by 180 s
# set to 1 in every process the benchmark starts (see the docstring)
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "GOTO_NUM_THREADS")

SETUP_SNIPPET = ("import sys, drivenlevel, drivenlevel.cli; "
                 "drivenlevel.config.load_config(sys.argv[1])")

ENV_SNIPPET = r"""
import ctypes, json, os, platform, sys
import numpy, scipy, drivenlevel, drivenlevel.cli
libs = []
with open("/proc/self/maps") as fh:
    paths = sorted({l.split()[-1] for l in fh if "openblas" in l.lower()})
for path in paths:
    lib, entry = ctypes.CDLL(path), {"library": os.path.basename(path)}
    for pre in ("", "scipy_"):
        for suf in ("", "64_"):
            try:
                fn = getattr(lib, pre + "openblas_get_num_threads" + suf)
                cfg = getattr(lib, pre + "openblas_get_config" + suf)
            except AttributeError:
                continue
            cfg.restype = ctypes.c_char_p
            entry.update(threads=fn(), config=cfg().decode())
    libs.append(entry)
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({
    "python": platform.python_version(), "numpy": numpy.__version__,
    "scipy": scipy.__version__, "drivenlevel": drivenlevel.__version__,
    "package_file": drivenlevel.__file__,
    "numpy_blas": blas.get("name", "") + " " + blas.get("version", ""),
    "blas_loaded": libs}))
"""

E2E_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB",
             "ok_rate": "ratio"}

# per-layer metric -> span name(s); inclusive time of the outermost spans
INCLUSIVE = {
    "package.import_s": ("package.import",),
    "config.load_config_s": ("config.load_config",),
    "spectral.compute_u0_s": ("spectral.compute_u0",),
    "spectral.band_spectral_function_s": ("spectral.band_spectral_function",),
    "spectral.find_bound_states_s": ("spectral.find_bound_states",),
    "oscquad.angle_band_integral_s": ("oscquad.angle_band_integral",),
    "oscquad.fourier_integral_s": ("oscquad.fourier_integral",),
    "oscquad.filon_integral_s": ("oscquad.filon_integral",),
    "kernel.build_s": ("kernel.kernel_for",),
    "kernel.lag_samples_s": ("kernel.SemicircleKernel.lag_samples",
                             "kernel.QuadratureKernel.lag_samples"),
    "volterra.convergence_check_s": ("volterra.convergence_check",),
    "oracle.discretize_s": ("oracle.discretize",),
    "oracle.propagate_s": ("oracle.propagate",),
    "comb.comb_reports_s": ("comb.comb_reports",),
    "traceio.write_trace_s": ("traceio.write_trace",),
    "svgplot.line_plot_s": ("svgplot.line_plot",),
}
SELF_TIME = {"volterra.evolve_s": "volterra.evolve"}
COUNTS = ("spectral.band_spectral_function_nodes", "oscquad.filon_calls",
          "kernel.lags", "volterra.evolve_calls", "volterra.nodes",
          "oracle.propagate_steps", "oracle.modes", "traceio.bytes",
          "svgplot.bytes", "sweep.points", "sweep.rows_failed")
COUNT_UNITS = {"traceio.bytes": "bytes", "svgplot.bytes": "bytes"}
LAYER_UNITS = dict(
    {k: "s" for k in list(INCLUSIVE) + list(SELF_TIME)},
    **{k: COUNT_UNITS.get(k, "count") for k in COUNTS},
    **{"oscquad.angle_nodes": "count", "oscquad.phase_evals": "count",
       "oscquad.final_eval_share": "ratio",
       "sweep.evaluate_point_s": "s", "sweep.evaluate_point_p90_s": "s",
       "sweep.workers": "count", "sweep.pool_efficiency": "ratio",
       "proc.cpu_s": "s", "proc.cpu_per_wall": "ratio",
       "trace.overhead_s": "s", "trace.coverage": "ratio",
       "check.max_abs_u": "1", "check.u_dev": "1", "check.u0_dev": "1",
       "check.oracle_dev": "1", "check.sweep_metric_dev": "1"})


NO_TRACE = {"spans": [], "counts": {}, "quad_calls": [], "pool_workers": []}


class Deadline(Exception):
    """The run limit is reached; no further process is started."""


def _child_env():
    env = dict(os.environ, **{k: "1" for k in BLAS_VARS})
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def _kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _wait_group_gone(pgid, limit_s=5.0):
    """Kill and wait out anything left in the child's process group."""
    end = time.monotonic() + limit_s
    while time.monotonic() < end:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        _kill_group(pgid)
        time.sleep(0.01)


def run_process(argv, cwd, deadline, log_stem):
    """Run argv to completion in its own process group.

    Returns wall seconds (launch to exit), exit code, peak RSS of the child
    and its waited-for descendants, and their CPU seconds.
    """
    remaining = deadline - time.monotonic()
    if remaining <= 0.0:
        raise Deadline()
    with open(log_stem + ".out", "wb") as out, \
            open(log_stem + ".err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=_child_env(), stdout=out,
                                stderr=err, start_new_session=True)
        timer = threading.Timer(remaining, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    _wait_group_gone(proc.pid)
    return {"wall_s": wall, "exit_code": proc.returncode,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "stdout": log_stem + ".out", "stderr": log_stem + ".err"}


def _cli(argv):
    return [sys.executable, "-m", "drivenlevel.cli"] + argv


def _traced(argv, spans_path, run_id):
    return [sys.executable, os.path.join(HERE, "tracer.py"),
            "--out", spans_path, "--run-id", run_id, "--"] + argv


def run_iteration(spec, workdir, deadline, mode="plain", extra_args=()):
    """One pass over the workload's calls in a fresh directory.

    mode "plain" runs the CLI, "traced" runs it under tracer.py.  Returns
    the call records and the checked Outcome.
    """
    os.makedirs(workdir)
    workloads.write_config(workdir, spec)
    calls = []
    for i, (kind, argv) in enumerate(spec["calls"]):
        argv = list(argv) + list(extra_args)
        stem = os.path.join(workdir, f"call{i}")
        spans = stem + ".spans.json"
        cmd = _cli(argv) if mode == "plain" \
            else _traced(argv, spans, f"{os.path.basename(workdir)}/{i}")
        rec = run_process(cmd, workdir, deadline, stem)
        rec["kind"] = kind
        if mode == "traced":
            try:
                with open(spans) as fh:
                    rec["trace"] = json.load(fh)
            except (OSError, ValueError):
                rec["exit_code"] = rec["exit_code"] or -1
                rec["trace"] = NO_TRACE
        calls.append(rec)
    outcome = checks.check_iteration(spec, workdir, calls, spec["ref"])
    return calls, outcome


def measure_setup(spec, workdir, deadline):
    os.makedirs(workdir)
    cfg = workloads.write_config(workdir, spec)
    walls = []
    for i in range(SETUP_REPEATS):
        rec = run_process([sys.executable, "-c", SETUP_SNIPPET, cfg], workdir,
                          deadline, os.path.join(workdir, f"setup{i}"))
        if rec["exit_code"] != 0:
            raise RuntimeError("setup process failed: "
                               + _tail(rec["stderr"]))
        walls.append(rec["wall_s"])
    return walls


def _tail(path, n=800):
    with open(path, errors="replace") as fh:
        return fh.read()[-n:]


def probe_environment(workdir, deadline):
    os.makedirs(workdir)
    rec = run_process([sys.executable, "-c", ENV_SNIPPET], workdir, deadline,
                      os.path.join(workdir, "env"))
    if rec["exit_code"] != 0:
        raise RuntimeError("cannot import drivenlevel from src/: "
                           + _tail(rec["stderr"]))
    with open(rec["stdout"]) as fh:
        env = json.load(fh)
    if not os.path.realpath(env["package_file"]).startswith(
            os.path.realpath(SRC) + os.sep):
        raise RuntimeError(f"drivenlevel loaded from {env['package_file']}, "
                           f"not from {SRC}")
    env["cores"] = len(os.sched_getaffinity(0))
    env["blas_env_inherited"] = {k: os.environ[k] for k in BLAS_VARS
                                 if k in os.environ}
    env["set_by_benchmark"] = ", ".join(f"{k}=1" for k in BLAS_VARS) \
        + " in every process it starts; no CPU affinity"
    env["commit"] = _git_commit()
    return env


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def timing_summary(values):
    """Median, the highest percentile with >= 10 samples beyond it, count."""
    n = len(values)
    out = {"median": statistics.median(values), "max": max(values), "n": n,
           "values": values}
    for q in (99, 95, 90, 75, 50):
        if n * (100 - q) / 100.0 >= 10:
            out[f"p{q}"] = statistics.quantiles(values, n=100,
                                                method="inclusive")[q - 1]
            break
    return out


def _iteration_wall(calls):
    return sum(c["wall_s"] for c in calls)


def measure(spec, root, seconds, deadline):
    """The timed loop, tracing off: iterations until --seconds is used."""
    outcome = checks.Outcome()
    walls, rss = [], []
    t0 = time.monotonic()
    while True:
        calls, out = run_iteration(spec, os.path.join(root, f"it{len(walls)}"),
                                   deadline)
        outcome.merge(out)
        walls.append(_iteration_wall(calls))
        rss.append(max(c["rss_mb"] for c in calls))
        shutil.rmtree(os.path.join(root, f"it{len(walls) - 1}"))
        elapsed = time.monotonic() - t0
        per = elapsed / len(walls)
        if len(walls) >= MIN_ITERATIONS and elapsed + per > seconds:
            break
        if time.monotonic() + 2.0 * per > deadline:
            break
    return walls, rss, outcome


def _span_stats(dumps):
    """Inclusive seconds (outermost spans only) and self seconds per span
    name."""
    inclusive, self_time = {}, {}
    for d in dumps:
        spans = d["trace"]["spans"]
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent is not None:
                child[parent] += end - start
        for i, (name, start, end, parent, _) in enumerate(spans):
            dur = end - start
            self_time[name] = self_time.get(name, 0.0) + dur - child[i]
            p = parent
            while p is not None and spans[p][0] != name:
                p = spans[p][3]
            if p is None:
                inclusive[name] = inclusive.get(name, 0.0) + dur
    return inclusive, self_time


def coverage(call):
    spans = call["trace"]["spans"]
    top = sum(end - start for _, start, end, parent, _ in spans
              if parent is None)
    return top / call["wall_s"]


def layer_metrics(layer_calls, traced_calls, plain_calls, serial_points):
    inclusive, self_time = _span_stats(layer_calls)
    m = {k: sum(inclusive.get(n, 0.0) for n in names)
         for k, names in INCLUSIVE.items()}
    m.update({k: self_time.get(n, 0.0) for k, n in SELF_TIME.items()})
    counts = {}
    quad = []
    for c in layer_calls:
        for k, v in c["trace"]["counts"].items():
            counts[k] = counts.get(k, 0) + v
        quad += c["trace"]["quad_calls"]
    m.update({k: counts.get(k, 0) for k in COUNTS})

    angle = [q for q in quad if q[0] == "oscquad.angle_band_integral"]
    m["oscquad.angle_nodes"] = sum(sum(q[1]) for q in angle)
    total = sum(sum(q[1]) * q[3] + q[1][-1] * q[2] for q in quad if q[1])
    useful = sum(q[1][-1] * q[2] for q in quad if q[1])
    m["oscquad.phase_evals"] = total
    m["oscquad.final_eval_share"] = useful / total if total else 0.0

    plain_wall = _iteration_wall(plain_calls)
    workers = [w for c in traced_calls for w in c["trace"]["pool_workers"]]
    if serial_points:
        m["sweep.evaluate_point_s"] = statistics.median(serial_points)
        m["sweep.evaluate_point_p90_s"] = statistics.quantiles(
            serial_points, n=10, method="inclusive")[8] \
            if len(serial_points) > 1 else serial_points[0]
        m["sweep.workers"] = max(workers) if workers else 1
        m["sweep.pool_efficiency"] = sum(serial_points) / (
            m["sweep.workers"] * plain_wall)
    else:
        m.update({"sweep.evaluate_point_s": 0.0,
                  "sweep.evaluate_point_p90_s": 0.0,
                  "sweep.workers": 0, "sweep.pool_efficiency": 0.0})
    cpu = sum(c["cpu_s"] for c in plain_calls)
    m["proc.cpu_s"] = cpu
    m["proc.cpu_per_wall"] = cpu / plain_wall
    m["trace.overhead_s"] = _iteration_wall(traced_calls) - plain_wall
    m["trace.coverage"] = min(coverage(c) for c in traced_calls + layer_calls)
    return m


def traced_run(spec, root, deadline):
    """Untraced pass, traced pass and, for the sweep, a serial traced pass."""
    outcome = checks.Outcome()
    plain, out = run_iteration(spec, os.path.join(root, "plain"), deadline)
    outcome.merge(out)
    traced, out = run_iteration(spec, os.path.join(root, "traced"), deadline,
                                mode="traced")
    outcome.merge(out)
    layer, points = traced, []
    if spec["name"] == "sweep":
        layer, out = run_iteration(spec, os.path.join(root, "serial"),
                                   deadline, mode="traced",
                                   extra_args=["--set", "sweep.workers=1"])
        outcome.merge(out)
        for c in layer:
            points += [end - start for name, start, end, _, _
                       in c["trace"]["spans"] if name == "sweep.evaluate_point"]
    metrics = layer_metrics(layer, traced, plain, points)
    spans = [c["trace"] for c in traced + ([] if layer is traced else layer)]
    return metrics, outcome, {"plain_s": _iteration_wall(plain),
                              "traced_s": _iteration_wall(traced),
                              "spans": spans}


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def main(argv=None):
    parser = argparse.ArgumentParser(description="drivenlevel benchmark")
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES),
                        default="full",
                        help="tiny is for the smoke test only")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "drivenlevel", "cli.py")):
        print(f"error: no drivenlevel sources under {SRC}; run from the root "
              f"of a drivenlevel checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    spec = workloads.build(args.workload, args.seed, args.size)
    spec["name"] = args.workload
    spec["ref"] = checks.load_reference(spec, args.workload)
    root = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    try:
        env = probe_environment(os.path.join(root, "env"), deadline)
        setup = measure_setup(spec, os.path.join(root, "setup"), deadline)
        if args.trace:
            metrics, outcome, detail = traced_run(spec, root, deadline)
            metrics.update({f"check.{k}": v for k, v in outcome.diag.items()})
            result = {k: _metric(metrics[k], LAYER_UNITS[k])
                      for k in sorted(LAYER_UNITS)}
        else:
            walls, rss, outcome = measure(spec, root, args.seconds, deadline)
            detail = {"run_s": timing_summary(walls),
                      "peak_rss_mb": timing_summary(rss)}
            values = {"setup_s": statistics.median(setup),
                      "run_s": statistics.median(walls),
                      "peak_rss_mb": statistics.median(rss),
                      "ok_rate": 1.0 - outcome.failed / outcome.attempted}
            result = {k: _metric(values[k], E2E_UNITS[k]) for k in E2E_UNITS}
    except Deadline:
        print(f"error: run limit of {RUN_LIMIT_S:.0f} s reached",
              file=sys.stderr)
        return 3
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(root, ignore_errors=True)

    detail.update(setup_s=timing_summary(setup), environment=env,
                  workload=args.workload, seed=args.seed, size=args.size,
                  reference_checked=spec["ref"] is not None,
                  fail_rate=outcome.failed / outcome.attempted,
                  problems=outcome.problems[:20],
                  calls=[argv for _, argv in spec["calls"]])
    os.makedirs(OUT, exist_ok=True)
    report = os.path.join(
        OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(report, "w") as fh:
        json.dump(dict(detail, metrics=result), fh, indent=1)
    spans = detail.pop("spans", None)
    print("environment: " + json.dumps(env))
    print("report: " + json.dumps(detail))
    if spans is not None:
        print(f"spans: {sum(len(s['spans']) for s in spans)} written to "
              f"{os.path.relpath(report, ROOT)}")
    for name, m in result.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": outcome.failed == 0,
                      "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
