"""Freeze the values checks.py compares the default seed's outputs against.

    python3 perfbench/freeze_reference.py

Run from the root of a checkout, at the commit whose answers are the
reference.  It runs each workload's CLI calls once at the default seed and
stores, with the sha256 of the config they came from:
- u and u0 at 21 evenly spaced nodes of each trace;
- the step-halving estimate of `convergence_check` for each evolve config,
  which is the tolerance on u;
- every sweep row's metric and error estimate.
Rerunning it after a change of answers hides that change; do it only when a
change of answers is the intended result, and say so.
"""

import csv
import json
import os
import shutil
import sys
import time

import numpy as np

import checks
import run
import workloads

N_SAMPLES = 21


def _pairs(values):
    return [[float(v.real), float(v.imag)] for v in values]


def _step_halving_estimate(config):
    from drivenlevel.config import RunConfig
    from drivenlevel.kernel import kernel_for
    from drivenlevel.spectral import Semicircle
    from drivenlevel.volterra import aligned_grid, convergence_check

    cfg = RunConfig.from_dict(config)
    grid = aligned_grid(0.0, cfg.t_max, cfg.h, cfg.drive)

    def make_kernel(h, max_lag):
        return kernel_for(cfg.sd, h, max_lag,
                          analytic=isinstance(cfg.sd, Semicircle))

    return convergence_check(make_kernel, cfg.eps_s, cfg.drive, grid)[1]


def freeze(name, root):
    spec = workloads.build(name, workloads.DEFAULT_SEED)
    spec.update(name=name, ref=None)
    workdir = os.path.join(root, name)
    _, outcome = run.run_iteration(spec, workdir,
                                   time.monotonic() + run.RUN_LIMIT_S)
    if outcome.failed:
        raise SystemExit(f"{name}: {outcome.problems}")
    entry = {"config_sha256": checks.config_hash(spec["config"])}
    if name == "sweep":
        with open(os.path.join(workdir, workloads.SWEEP_CSV)) as fh:
            rows = list(csv.DictReader(fh))
        entry["metric"] = [float(r["metric"]) for r in rows]
        entry["error_estimate"] = [float(r["error_estimate"]) for r in rows]
        return entry
    for kind, _ in spec["calls"]:
        if kind == "oracle-compare":
            continue
        trace = workloads.U0_TRACE if kind == "u0" else workloads.TRACE
        u, extra = checks.read_trace(os.path.join(workdir, trace))
        idx = np.linspace(0, u.size - 1, N_SAMPLES).round().astype(int)
        e = {"index": idx.tolist()}
        if kind == "u0":
            e["u0"] = _pairs(u[idx])
        else:
            e["u"] = _pairs(u[idx])
            e["u_tol"] = _step_halving_estimate(spec["config"])
            if extra is not None:
                e["u0"] = _pairs(extra[idx])
        entry[kind] = e
    return entry


def main():
    sys.path.insert(0, run.SRC)
    root = os.path.join(run.WORK, f"freeze-{os.getpid()}")
    try:
        ref = {name: freeze(name, root) for name in workloads.WORKLOADS}
    finally:
        shutil.rmtree(root, ignore_errors=True)
    with open(checks.REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    print(f"wrote {checks.REFERENCE}")


if __name__ == "__main__":
    main()
