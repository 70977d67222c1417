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

import csv
import dataclasses
import hashlib
import itertools
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

from .comb import SURVIVES, comb_reports, survival_metric
from .config import block_of, integer, list_of, number, or_null, text
from .driving import HARMONICS
from .errors import ConfigError, DrivenLevelError
from .kernel import kernel_for
from .spectral import find_bound_states
from .traceio import write_json
from .volterra import aligned_grid, convergence_check

AXIS_NAMES = ("amplitude", "period", "mean", "eta")

SIDECAR_FORMAT = "drivenlevel-sweep"

_BASE_COLUMNS = ("prediction", "min_order", "metric", "error_estimate",
                 "status")

# most points per batched solve.  A batch's working memory does not grow
# with its width, only its result does, while its cost per drive and step
# falls: 1.3 / 0.9 / 0.78 / 0.64 / 0.59 us at widths 8 / 12 / 16 / 24 / 32
# (semicircle, N = 10 000, one BLAS thread, CPU time, best of 15 on a
# shared 2-core box, numpy 2.4.6).  At 24 a 48-point sweep on two workers
# is one batch per worker
_BATCH = 24


@dataclasses.dataclass(frozen=True)
class SweepAxis:
    name: str
    values: tuple

    def __post_init__(self):
        if self.name not in AXIS_NAMES:
            raise ConfigError(
                f"axis {self.name!r} not one of {', '.join(AXIS_NAMES)}")
        vals = list_of(number)(self.values, f"axis {self.name!r} values")
        if not vals:
            raise ConfigError(f"axis {self.name!r} has no points")
        if len(set(vals)) != len(vals):
            raise ConfigError(f"axis {self.name!r} has repeated points")
        object.__setattr__(self, "values", vals)


_AXIS = block_of({"name": text, "values": list_of(number)},
                 required=("name", "values"), build=SweepAxis)
_SWEEP = block_of({"axes": list_of(_AXIS), "out": text,
                   "workers": or_null(integer)}, required=("axes", "out"))


def _parse_sweep(cfg):
    """(axes, out, workers) from cfg.sweep, checked against the rest of
    cfg: the one place the sweep block is read."""
    cfg.require_grid()
    cfg.require_drive()
    block = _SWEEP(cfg.sweep, "sweep")
    axes, out, workers = block["axes"], block["out"], block.get("workers")
    if not 1 <= len(axes) <= 2:
        raise ConfigError(f"need 1 or 2 axes, got {len(axes)}")
    names = [a.name for a in axes]
    if len(set(names)) != len(names):
        raise ConfigError(f"duplicate axis {names}")
    if "eta" in names and not hasattr(cfg.sd, "eta"):
        raise ConfigError("eta axis needs a semicircle density")
    if "amplitude" in names and cfg.drive.shape == HARMONICS:
        raise ConfigError("amplitude axis needs a sine or square drive")
    if not out:
        raise ConfigError("sweep.out must be a file name")
    if workers is not None and workers < 1:
        raise ConfigError("sweep.workers must be a positive integer or null")
    if cfg.window is None:
        raise ConfigError("sweep needs a window [t1, t2]")
    if not 0.0 <= cfg.window[0] < cfg.window[1] <= cfg.t_max:
        raise ConfigError(
            f"window {cfg.window} must sit inside [0, {cfg.t_max}]")
    return axes, out, workers


def _points(axes):
    """Axis-value dicts in row order (first axis outermost)."""
    names = [a.name for a in axes]
    return [dict(zip(names, combo))
            for combo in itertools.product(*(a.values for a in axes))]


def spec_hash(cfg, axes):
    """sha256 of the run description a sweep's rows depend on: the
    density, level, drive, grid and window of cfg, and the axes."""
    run = cfg.to_dict()
    spec = {key: run[key] for key in
            ("spectral_density", "system", "drive", "grid", "window")}
    spec["axes"] = [{"name": a.name, "values": list(a.values)} for a in axes]
    blob = json.dumps(spec, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _apply_point(cfg, point):
    """cfg's sd and drive at one point; _parse_sweep has checked that an
    eta axis comes with a semicircle density."""
    sd, drive = cfg.sd, cfg.drive
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

    payload is (cfg, points), cfg the sweep's RunConfig.  If anything in
    the batch raises DrivenLevelError, its points are evaluated one by one,
    so a failing point gets the same error row as on its own and the
    others their usual rows.  Module-level so worker processes can load it.
    """
    cfg, points = payload
    try:
        heads, drives = [], []
        for point in points:
            sd_pt, drive_pt = _apply_point(cfg, point)
            heads.append([_fmt(v) for v in point.values()]
                         + _prediction(sd_pt, cfg.eps_s, drive_pt))
            drives.append(drive_pt)
        grid = aligned_grid(cfg.t_max, cfg.h, drives[0])
        # the batch shares one eta, so the last point's density is theirs
        fine, est = convergence_check(kernel_for(sd_pt), cfg.eps_s, drives,
                                      grid)
        return [head + [_fmt(survival_metric(tr, cfg.window)),
                        format(e, ".3e"), "ok"]
                for head, tr, e in zip(heads, fine, est)]
    except DrivenLevelError as exc:
        if len(points) > 1:
            return [evaluate_batch((cfg, [pt]))[0] for pt in points]
        cells = [_fmt(v) for v in points[0].values()]
        return [cells + ["", "", "", "", f"{type(exc).__name__}: {exc}"]]


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


def _batch_key(cfg, index, point):
    """Points with equal keys may share a solve: (eta, aligned h, n_steps).

    The density changes only along an eta axis, so eta stands for it.  A
    point whose drive or grid cannot be built gets a key of its own and
    fails alone.
    """
    try:
        _, drive_pt = _apply_point(cfg, point)
        grid = aligned_grid(cfg.t_max, cfg.h, drive_pt)
    except DrivenLevelError:
        return ("alone", index)
    return (point.get("eta"), grid.h, grid.n_steps)


def _batches(keys, workers):
    """Cut positions 0..len(keys)-1 into slices of contiguous equal keys.

    Each slice holds at most _BATCH points.  Runs of equal keys are cut
    further, the run with the largest batches first, until the number of
    batches is a multiple of workers (or every point is a batch of its
    own), so the pool's workers get equal shares of batches, not of
    points.  A batch's cost is mostly per step, not per drive: at N = 10^4
    one took 63 / 71 / 77 / 80 / 90 / 101 / 125 ms at widths 2 / 4 / 6 /
    8 / 10 / 16 / 24 (semicircle, one BLAS thread, CPU time, best of 7).
    So 10 + 2 points of two keys on two workers finish soonest cut
    [10 | 2] (90 ms); splitting the long run, [6 | 4, 2] or [5, 2 | 5],
    takes about 134 ms.
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


def _read(path):
    """The bytes of the file at path; one that cannot be read (a directory,
    say) is a ConfigError."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigError(
            f"cannot read {path}: {exc.strerror or exc}") from None


def _check_sidecar(path, meta):
    """Write the sidecar meta to path, or check that the one there was
    written for the same sweep.  A sidecar that cannot be read, or is not
    a JSON object, is a ConfigError."""
    if not os.path.exists(path):
        write_json(path, meta, sort_keys=True, indent=1)
        return
    try:
        old = json.loads(_read(path))
    except ValueError as exc:
        raise ConfigError(f"{path} is not a sweep sidecar: {exc}") from None
    if not isinstance(old, dict):
        raise ConfigError(f"{path} is not a sweep sidecar: not a JSON object")
    if old.get("spec_hash") != meta["spec_hash"]:
        raise ConfigError(
            f"{path} was written for a different sweep; "
            f"remove the old results to rerun")


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


def _completed_rows(path, header):
    """(rows, bytes) of the complete rows on disk, validating the header.

    Only newline-terminated records count: a killed writer can leave a torn
    last row, which the caller cuts off at the returned byte length before
    appending.  None when there is nothing but (part of) a header to keep.
    """
    if not os.path.exists(path):
        return None
    data = _read(path)
    ends = _row_ends(data)
    header = header.encode()
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


def run_sweep(cfg):
    """Run (or resume) the sweep that cfg.sweep describes; returns
    {"out", "rows_computed", "rows_total"}, rows_computed counting the rows
    computed now.

    sweep.workers null sizes the pool from the CPUs this process may run
    on; 1 stays in process.
    """
    axes, out, workers = _parse_sweep(cfg)
    points = _points(axes)
    columns = [a.name for a in axes] + list(_BASE_COLUMNS)
    header = ",".join(columns) + "\n"
    _check_sidecar(out + ".json",
                   {"format": SIDECAR_FORMAT, "spec_hash": spec_hash(cfg, axes),
                    "columns": columns, "n_points": len(points)})
    complete = _completed_rows(out, header)
    done = 0
    if complete is not None:
        done, size = complete
        if os.path.getsize(out) > size:
            with open(out, "r+b") as fh:
                fh.truncate(size)
    if done > len(points):
        raise ConfigError(
            f"{out} holds {done} rows but the sweep has only "
            f"{len(points)} points")
    todo = points[done:]
    summary = {"out": out, "rows_computed": len(todo),
               "rows_total": len(points)}
    if not todo:
        return summary

    if workers is None:
        workers = min(_usable_cpus(), len(todo), 8)
    keys = [_batch_key(cfg, i, pt) for i, pt in enumerate(todo)]
    payloads = [(cfg, todo[batch]) for batch in _batches(keys, workers)]
    started = time.perf_counter()
    with open(out, "w" if complete is None else "a", newline="") as fh:
        if complete is None:
            fh.write(header)
        if workers <= 1:
            _write_rows(fh, map(evaluate_batch, payloads), done,
                        len(points), started)
        else:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                _write_rows(fh, pool.map(evaluate_batch, payloads),
                            done, len(points), started)
    return summary


def _write_rows(fh, results, done, total, started):
    """Append each batch's rows as it comes in, in spec order, with one
    stderr progress line per batch."""
    writer = csv.writer(fh, lineterminator="\n")
    for rows in results:
        writer.writerows(rows)
        fh.flush()
        done += len(rows)
        print(f"sweep: {done}/{total} rows, "
              f"{time.perf_counter() - started:.1f} s", file=sys.stderr,
              flush=True)


def read_rows(path):
    """Sweep CSV back as a list of dicts (strings kept verbatim)."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))
