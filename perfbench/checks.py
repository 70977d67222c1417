"""Output checks for one iteration of a workload.

Every CLI call and every sweep row is one operation.  An operation fails on a
non-zero exit, a sweep row whose status is not `ok`, or a failed check:

- traces are finite and max|u| <= 1 + U_ROUNDOFF;
- u0 starts at 1 and stays inside the unit disc, both within U0_TOL;
- `oracle-compare` reports a deviation below ORACLE_BOUND;
- every sweep row is `ok`, `no-bound-state`, with a late-window metric below
  SWEEP_METRIC_BOUND (what acceptance check c09 asserts for this family);
- where `reference.json` holds values for this exact config (the default
  seed), sampled u, sampled u0 and the sweep metrics match them.

Tolerances against the frozen values let every rewrite the roadmap allows
pass and catch wrong answers:
- u within the step-halving estimate `convergence_check` gave for the same
  config when the values were frozen (an exact rewrite lands within 1e-12);
- u0 within U0_TOL, 100x the quadrature tolerance 1e-8, because the doubling
  test bounds only the change between levels on 12 probe times;
- each sweep metric within its row's frozen error estimate.
"""

import csv
import hashlib
import json
import os

import numpy as np

import workloads

U_ROUNDOFF = 1e-9
U0_TOL = 1e-6
EXACT_RTOL = 1e-12
ORACLE_BOUND = 0.02
SWEEP_METRIC_BOUND = 0.05
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "reference.json")


def config_hash(config):
    return hashlib.sha256(
        json.dumps(config, sort_keys=True).encode()).hexdigest()


def load_reference(spec, name):
    """Frozen values for this workload if they were made from this config."""
    with open(REFERENCE) as fh:
        ref = json.load(fh).get(name)
    if ref and ref["config_sha256"] == config_hash(spec["config"]):
        return ref
    return None


class Outcome:
    """Operation counts and the check diagnostics of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.diag = {"max_abs_u": 0.0, "u_dev": 0.0, "u0_dev": 0.0,
                     "oracle_dev": 0.0, "sweep_metric_dev": 0.0}

    def op(self, label, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems]

    def note(self, key, value):
        self.diag[key] = max(self.diag[key], float(value))

    def merge(self, other):
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems
        for k, v in other.diag.items():
            self.note(k, v)


def read_trace(path):
    """(u, extra complex column or None) from a trace CSV."""
    data = np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)
    u = data[:, 1] + 1j * data[:, 2]
    extra = data[:, 4] + 1j * data[:, 5] if data.shape[1] >= 7 else None
    return u, extra


def _samples(values, idx):
    return np.asarray(values)[np.asarray(idx, dtype=int)]


def _to_complex(pairs):
    a = np.asarray(pairs, dtype=float)
    return a[:, 0] + 1j * a[:, 1]


def _check_u(out, u, ref, problems):
    if not np.all(np.isfinite(u)):
        problems.append("u has non-finite values")
        return
    peak = float(np.max(np.abs(u)))
    out.note("max_abs_u", peak)
    if peak > 1.0 + U_ROUNDOFF:
        problems.append(f"max|u| = {peak!r} exceeds 1")
    if ref is not None:
        want = _to_complex(ref["u"])
        dev = np.abs(_samples(u, ref["index"]) - want)
        out.note("u_dev", np.max(dev))
        tol = np.maximum(ref["u_tol"], EXACT_RTOL * np.abs(want))
        if np.any(dev > tol):
            problems.append(f"u deviates {np.max(dev):.3e} from the frozen "
                            f"values (tolerance {ref['u_tol']:.3e})")


def _check_u0(out, u0, ref, problems):
    if not np.all(np.isfinite(u0)):
        problems.append("u0 has non-finite values")
        return
    if abs(u0[0] - 1.0) > U0_TOL:
        problems.append(f"u0(0) = {u0[0]!r}, not 1")
    if np.max(np.abs(u0)) > 1.0 + U0_TOL:
        problems.append(f"max|u0| = {np.max(np.abs(u0))!r} exceeds 1")
    if ref is not None:
        dev = np.abs(_samples(u0, ref["index"]) - _to_complex(ref["u0"]))
        out.note("u0_dev", np.max(dev))
        if np.any(dev > U0_TOL):
            problems.append(f"u0 deviates {np.max(dev):.3e} from the frozen "
                            f"values (tolerance {U0_TOL:.0e})")


def _stdout_json(call, problems):
    try:
        with open(call["stdout"]) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        problems.append(f"stdout is not JSON: {exc}")
        return None


def _check_sweep_rows(out, workdir, spec, ref):
    n_points = spec["params"]["n_points"]
    path = os.path.join(workdir, workloads.SWEEP_CSV)
    try:
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
    except OSError:
        rows = []
    for i in range(n_points):
        problems = []
        if i >= len(rows):
            out.op(f"sweep row {i}", ["missing"])
            continue
        row = rows[i]
        if row["status"] != "ok":
            problems.append(f"status {row['status']!r}")
        elif row["prediction"] != "no-bound-state":
            problems.append(f"prediction {row['prediction']!r}")
        else:
            metric = float(row["metric"])
            if not np.isfinite(metric) or metric >= SWEEP_METRIC_BOUND:
                problems.append(f"late metric {metric!r} not below "
                                f"{SWEEP_METRIC_BOUND}")
            elif ref is not None:
                dev = abs(metric - ref["metric"][i])
                out.note("sweep_metric_dev", dev)
                tol = max(ref["error_estimate"][i],
                          EXACT_RTOL * abs(ref["metric"][i]))
                if dev > tol:
                    problems.append(f"metric {metric!r} deviates {dev:.3e} "
                                    f"from the frozen {ref['metric'][i]!r}")
        out.op(f"sweep row {i}", problems)
    if len(rows) > n_points:
        out.op("sweep", [f"{len(rows)} rows for {n_points} points"])


def check_iteration(spec, workdir, calls, ref):
    """Outcome of one iteration; calls are the run records of its CLI calls
    (kind, exit code, stdout path), in order."""
    out = Outcome()
    for call in calls:
        kind = call["kind"]
        problems = []
        if call["exit_code"] != 0:
            problems.append(f"exit code {call['exit_code']}")
        elif kind in ("evolve", "u0"):
            trace = workloads.U0_TRACE if kind == "u0" else workloads.TRACE
            kref = (ref or {}).get(kind)
            try:
                u, u0 = read_trace(os.path.join(workdir, trace))
            except (OSError, ValueError) as exc:
                problems.append(f"unreadable trace: {exc}")
            else:
                if kind == "u0":
                    u0, u = u, None
                if u is not None:
                    _check_u(out, u, kref, problems)
                if u0 is not None:
                    _check_u0(out, u0, kref, problems)
            _stdout_json(call, problems)
        elif kind == "oracle-compare":
            result = _stdout_json(call, problems)
            if result is not None:
                dev = float(result["max_abs_deviation"])
                out.note("oracle_dev", dev)
                if not dev <= ORACLE_BOUND:
                    problems.append(f"oracle deviation {dev!r} exceeds "
                                    f"{ORACLE_BOUND}")
        elif kind == "sweep":
            _stdout_json(call, problems)
        out.op(kind, problems)
        if kind == "sweep":
            _check_sweep_rows(out, workdir, spec, ref)
    return out
