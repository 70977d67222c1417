"""Batch parameter sweeps over drive and coupling parameters.

Each grid point gets a full treatment: comb prediction from the static
bound states, a two-resolution evolve for the survival metric plus its
convergence estimate.  Rows stream to CSV in spec order as points finish,
so an interrupted sweep resumes by skipping the rows already on disk (a row
torn by a killed writer is cut off and recomputed); a JSON sidecar pins the
spec hash so a stale file is never extended.

Neighbouring points that share the density and the aligned grid are
solved together, up to _BATCH at a time, by one `convergence_check` over
their drives; the batches fan out over a process pool, and the writer keeps
spec order regardless of completion order, printing one progress line to
stderr per batch.  A batch in which anything fails is rerun point by point,
so each row is exactly what its point gives on its own.
"""

import dataclasses
import functools
import hashlib
import itertools
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .comb import SURVIVES, comb_reports, survival_metric
from .config import drive_to_dict, sd_to_dict
from .errors import ConfigError, DrivenLevelError
from .kernel import kernel_for
from .spectral import Semicircle, find_bound_states
from .volterra import aligned_grid, convergence_check

AXIS_NAMES = ("amplitude", "period", "mean", "eta")

SIDECAR_FORMAT = "drivenlevel-sweep"

_BASE_COLUMNS = ("prediction", "min_order", "metric", "error_estimate",
                 "status")

# most points per batched solve.  Wider batches save little more time, and
# a worker's memory grows with the width: at 8 the pool's workers on the
# benchmark's 48-point sweep stay below the main process's peak RSS
_BATCH = 8


@dataclasses.dataclass(frozen=True)
class SweepAxis:
    name: str
    values: tuple

    def __post_init__(self):
        if self.name not in AXIS_NAMES:
            raise ConfigError(
                f"axis {self.name!r} not one of {', '.join(AXIS_NAMES)}")
        vals = tuple(float(v) for v in self.values)
        if not vals:
            raise ConfigError(f"axis {self.name!r} has no points")
        if not np.all(np.isfinite(vals)):
            raise ConfigError(f"axis {self.name!r} has non-finite points")
        if len(set(vals)) != len(vals):
            raise ConfigError(f"axis {self.name!r} has repeated points")
        object.__setattr__(self, "values", vals)


@dataclasses.dataclass(frozen=True)
class SweepSpec:
    sd: object
    eps_s: float
    drive: object
    t_max: float
    h: float
    window: tuple
    axes: tuple
    out_path: str

    def __post_init__(self):
        axes = tuple(self.axes)
        if not 1 <= len(axes) <= 2:
            raise ConfigError(f"need 1 or 2 axes, got {len(axes)}")
        names = [a.name for a in axes]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate axis {names}")
        if "eta" in names and not isinstance(self.sd, Semicircle):
            raise ConfigError("eta axis needs a semicircle density")
        object.__setattr__(self, "axes", axes)
        if self.t_max <= 0.0 or self.h <= 0.0:
            raise ConfigError("t_max and h must be positive")
        w = (float(self.window[0]), float(self.window[1]))
        if not 0.0 <= w[0] < w[1] <= self.t_max:
            raise ConfigError(f"window {w} must sit inside [0, {self.t_max}]")
        object.__setattr__(self, "window", w)

    def points(self):
        """Axis-value dicts in row order (first axis outermost)."""
        names = [a.name for a in self.axes]
        for combo in itertools.product(*(a.values for a in self.axes)):
            yield dict(zip(names, combo))

    def n_points(self):
        n = 1
        for a in self.axes:
            n *= len(a.values)
        return n

    def columns(self):
        return tuple(a.name for a in self.axes) + _BASE_COLUMNS

    def to_dict(self):
        return {
            "spectral_density": sd_to_dict(self.sd),
            "system": {"eps_s": self.eps_s},
            "drive": drive_to_dict(self.drive),
            "grid": {"t_max": self.t_max, "h": self.h},
            "window": list(self.window),
            "axes": [{"name": a.name, "values": list(a.values)}
                     for a in self.axes],
        }


def spec_hash(spec):
    blob = json.dumps(spec.to_dict(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _apply_point(sd, drive, point):
    """sd and drive at one point; SweepSpec has checked that an eta axis
    comes with a semicircle density."""
    for name, value in point.items():
        if name == "eta":
            sd = dataclasses.replace(sd, eta=value)
        else:
            drive = dataclasses.replace(drive, **{name: value})
    return sd, drive


def _fmt(x):
    return format(float(x), ".10g")


def evaluate_batch(payload):
    """Rows for a batch of points that share the density and the aligned
    grid: one `convergence_check` over all their drives.

    payload is (sd, eps_s, drive, t_max, h, window, points).  If anything
    in the batch raises DrivenLevelError, its points are evaluated one by
    one, so a failing point gets the same error row as on its own and the
    others their usual rows.  Module-level so worker processes can load it.
    """
    sd, eps_s, drive, t_max, h, window, points = payload
    try:
        heads, drives = [], []
        for point in points:
            sd_pt, drive_pt = _apply_point(sd, drive, point)
            heads.append([_fmt(v) for v in point.values()]
                         + _prediction(sd_pt, eps_s, drive_pt))
            drives.append(drive_pt)
        grid = aligned_grid(0.0, t_max, h, drives[0])
        # the batch shares one eta, so the last point's density is theirs
        fine, est = convergence_check(functools.partial(kernel_for, sd_pt),
                                      eps_s, drives, grid)
        return [head + [_fmt(survival_metric(tr, window)), format(e, ".3e"),
                        "ok"] for head, tr, e in zip(heads, fine, est)]
    except DrivenLevelError as exc:
        if len(points) > 1:
            return [evaluate_point(payload[:-1] + (pt,)) for pt in points]
        cells = [_fmt(v) for v in points[0].values()]
        return [cells + ["", "", "", "", f"{type(exc).__name__}: {exc}"]]


def evaluate_point(payload):
    """One sweep row: (axis values..., prediction, min_order, metric,
    error_estimate, status), the batch of one.  payload is (sd, eps_s,
    drive, t_max, h, window, point).
    """
    return evaluate_batch(payload[:-1] + ([payload[-1]],))[0]


def _prediction(sd, eps_s, drive):
    """[prediction, min_order] cells from the comb reports of the static
    bound states."""
    states = find_bound_states(sd, eps_s + drive.mean)
    if not states:
        return ["no-bound-state", ""]
    reports = comb_reports(states, drive, sd.band)
    if any(r.prediction == SURVIVES for r in reports):
        prediction = "survives"
    else:
        prediction = "dissipates"
    orders = [r.min_order for r in reports if r.min_order is not None]
    return [prediction, str(min(orders)) if orders else ""]


def _batch_key(spec, index, point):
    """Points with equal keys may share a solve: (eta, aligned h, n_steps).

    The density changes only along an eta axis, so eta stands for it.  A
    point whose drive or grid cannot be built gets a key of its own and
    fails alone.
    """
    try:
        _, drive_pt = _apply_point(spec.sd, spec.drive, point)
        grid = aligned_grid(0.0, spec.t_max, spec.h, drive_pt)
    except DrivenLevelError:
        return ("alone", index)
    return (point.get("eta"), grid.h, grid.n_steps)


def _batches(keys, workers):
    """Cut positions 0..len(keys)-1 into slices of contiguous equal keys.

    Each slice holds at most _BATCH points.  Runs of equal keys are cut
    further, the run with the largest batches first, until the number of
    batches is a multiple of workers (or every point is a batch of its
    own), so the pool's workers get equal shares.
    """
    lengths = [sum(1 for _ in grp) for _, grp in itertools.groupby(keys)]
    counts = [-(-n // _BATCH) for n in lengths]
    want = min(-(-sum(counts) // workers) * workers, len(keys))
    while sum(counts) < want:
        j = max(range(len(lengths)), key=lambda j: -(-lengths[j] // counts[j]))
        counts[j] += 1
    batches, lo = [], 0
    for n, k in zip(lengths, counts):
        for b in range(k):
            hi = lo + n // k + (b < n % k)
            batches.append(slice(lo, hi))
            lo = hi
    return batches


def _csv_line(cells):
    quoted = []
    for c in cells:
        if any(ch in c for ch in ",\"\n"):
            c = '"' + c.replace('"', '""') + '"'
        quoted.append(c)
    return ",".join(quoted) + "\n"


def _check_sidecar(spec, sidecar_path):
    want = spec_hash(spec)
    if os.path.exists(sidecar_path):
        with open(sidecar_path) as fh:
            meta = json.load(fh)
        if meta.get("spec_hash") != want:
            raise ConfigError(
                f"{sidecar_path} was written for a different sweep; "
                f"remove the old results to rerun")
    else:
        meta = {"format": SIDECAR_FORMAT, "spec_hash": want,
                "columns": list(spec.columns()),
                "n_points": spec.n_points()}
        tmp = sidecar_path + ".partial"
        with open(tmp, "w") as fh:
            json.dump(meta, fh, sort_keys=True, indent=1)
            fh.write("\n")
        os.replace(tmp, sidecar_path)


def _row_ends(data):
    """Byte offsets just past each record's closing newline.

    A newline inside a quoted cell does not end a record (quotes toggle,
    doubled quotes cancel out).
    """
    ends, pos, quoted = [], 0, False
    for line in data.split(b"\n")[:-1]:
        pos += len(line) + 1
        quoted ^= line.count(b'"') % 2 == 1
        if not quoted:
            ends.append(pos)
    return ends


def _completed_rows(path, spec):
    """(rows, bytes) of the complete rows on disk, validating the header.

    Only newline-terminated records count: a killed writer can leave a torn
    last row, which the caller cuts off at the returned byte length before
    appending.  None when there is nothing but (part of) a header to keep.
    """
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        data = fh.read()
    header = (",".join(spec.columns()) + "\n").encode()
    ends = _row_ends(data)
    if not ends and header.startswith(data):
        return None
    if not ends or data[:ends[0]] != header:
        raise ConfigError(f"{path} header does not match this sweep")
    rows = sum(1 for a, b in zip(ends, ends[1:]) if data[a:b].strip())
    return rows, ends[-1]


def _usable_cpus():
    """CPUs in this process's affinity mask (the CPU count where the
    platform cannot report one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_sweep(spec, workers=None):
    """Run (or resume) the sweep; returns the number of rows computed now.

    workers=None sizes the pool from the CPUs this process may run on;
    workers=1 stays in process.
    """
    _check_sidecar(spec, spec.out_path + ".json")
    complete = _completed_rows(spec.out_path, spec)
    points = list(spec.points())
    if complete is None:
        with open(spec.out_path, "w") as fh:
            fh.write(",".join(spec.columns()) + "\n")
        done = 0
    else:
        done, size = complete
        if os.path.getsize(spec.out_path) > size:
            with open(spec.out_path, "r+b") as fh:
                fh.truncate(size)
    if done > len(points):
        raise ConfigError(
            f"{spec.out_path} holds {done} rows but the sweep has only "
            f"{len(points)} points")
    todo = points[done:]
    if not todo:
        return 0

    if workers is None:
        workers = min(_usable_cpus(), len(todo), 8)
    keys = [_batch_key(spec, i, pt) for i, pt in enumerate(todo)]
    payloads = [(spec.sd, spec.eps_s, spec.drive, spec.t_max, spec.h,
                 spec.window, todo[batch])
                for batch in _batches(keys, workers)]
    started = time.perf_counter()
    with open(spec.out_path, "a") as fh:
        if workers <= 1:
            _write_rows(fh, map(evaluate_batch, payloads), done,
                        len(points), started)
        else:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                _write_rows(fh, pool.map(evaluate_batch, payloads),
                            done, len(points), started)
    return len(todo)


def _write_rows(fh, results, done, total, started):
    """Append each batch's rows as it comes in, in spec order, with one
    stderr progress line per batch."""
    for rows in results:
        for row in rows:
            fh.write(_csv_line(row))
        fh.flush()
        done += len(rows)
        print(f"sweep: {done}/{total} rows, "
              f"{time.perf_counter() - started:.1f} s", file=sys.stderr,
              flush=True)


def read_rows(path):
    """Sweep CSV back as a list of dicts (strings kept verbatim)."""
    import csv

    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))
