import json

import numpy as np
import pytest

from drivenlevel.comb import survival_metric
from drivenlevel.driving import DrivingField
from drivenlevel.errors import ConfigError
from drivenlevel.kernel import kernel_for
from drivenlevel.spectral import Semicircle, Tabulated
from drivenlevel import sweep
from drivenlevel.sweep import SweepAxis, SweepSpec, read_rows, run_sweep
from drivenlevel.volterra import aligned_grid, convergence_check

SD = Semicircle(eta=1.0)
DRIVE = DrivingField(mean=2.5, period=1.25, shape="sine", amplitude=0.5)


def small_spec(out_path, axes=None, drive=DRIVE, sd=SD, h=0.02):
    if axes is None:
        axes = (SweepAxis("period", (1.25, 1.32)),)
    return SweepSpec(sd=sd, eps_s=0.0, drive=drive, t_max=20.0, h=h,
                     window=(10.0, 20.0), axes=axes, out_path=str(out_path))


def test_axis_validation():
    with pytest.raises(ConfigError):
        SweepAxis("frequency", (1.0, 2.0))
    with pytest.raises(ConfigError):
        SweepAxis("period", ())
    with pytest.raises(ConfigError):
        SweepAxis("period", (1.0, 1.0))


def test_spec_validation(tmp_path):
    out = tmp_path / "s.csv"
    with pytest.raises(ConfigError):
        small_spec(out, axes=())
    three = (SweepAxis("period", (1.0, 2.0)), SweepAxis("mean", (0.0, 1.0)),
             SweepAxis("eta", (0.5, 1.0)))
    with pytest.raises(ConfigError):
        small_spec(out, axes=three)
    dup = (SweepAxis("period", (1.0, 2.0)), SweepAxis("period", (3.0, 4.0)))
    with pytest.raises(ConfigError):
        small_spec(out, axes=dup)
    with pytest.raises(ConfigError):
        SweepSpec(sd=SD, eps_s=0.0, drive=DRIVE, t_max=20.0, h=0.02,
                  window=(10.0, 30.0),
                  axes=(SweepAxis("period", (1.0, 2.0)),),
                  out_path=str(out))


def test_point_grid_order(tmp_path):
    spec = small_spec(tmp_path / "s.csv",
                      axes=(SweepAxis("amplitude", (0.1, 0.2)),
                            SweepAxis("period", (1.0, 2.0))))
    pts = list(spec.points())
    assert [tuple(p.values()) for p in pts] == [
        (0.1, 1.0), (0.1, 2.0), (0.2, 1.0), (0.2, 2.0)]


def test_sweep_runs_and_is_deterministic(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    run_sweep(small_spec(out1), workers=1)
    run_sweep(small_spec(out2), workers=2)
    assert out1.read_text() == out2.read_text()
    rows = read_rows(out1)
    assert len(rows) == 2
    by_period = {row["period"]: row for row in rows}
    assert by_period["1.25"]["prediction"] == "survives"
    assert by_period["1.32"]["prediction"] == "dissipates"
    assert by_period["1.32"]["min_order"] == "1"
    assert all(row["status"] == "ok" for row in rows)
    assert float(by_period["1.25"]["metric"]) > float(by_period["1.32"]["metric"])


def test_resume_is_byte_identical(tmp_path):
    out = tmp_path / "s.csv"
    spec = small_spec(out)
    run_sweep(spec, workers=1)
    full = out.read_text()
    # drop the last row and rerun: only the missing point is recomputed
    lines = full.splitlines(keepends=True)
    out.write_text("".join(lines[:-1]))
    run_sweep(spec, workers=1)
    assert out.read_text() == full


@pytest.mark.parametrize("row, keep", [(-1, 0.5), (-2, 0.3), (-1, 0.0)])
def test_resume_after_torn_row_is_byte_identical(tmp_path, row, keep):
    out = tmp_path / "s.csv"
    spec = small_spec(out, axes=(SweepAxis("period", (1.25, 1.32, 1.4)),))
    run_sweep(spec, workers=1)
    full = out.read_bytes()
    # a writer killed mid-row: everything after part of one row is lost
    lines = full.splitlines(keepends=True)
    cut = len(b"".join(lines[:row])) + int(keep * (len(lines[row]) - 1))
    out.write_bytes(full[:cut])
    assert run_sweep(spec, workers=1) == -row
    assert out.read_bytes() == full
    assert not (tmp_path / "s.csv.json.partial").exists()


def test_torn_header_restarts(tmp_path):
    out = tmp_path / "s.csv"
    spec = small_spec(out)
    run_sweep(spec, workers=1)
    full = out.read_bytes()
    out.write_bytes(full[:7])
    assert run_sweep(spec, workers=1) == 2
    assert out.read_bytes() == full


def test_sidecar_guards_against_stale_output(tmp_path):
    out = tmp_path / "s.csv"
    run_sweep(small_spec(out), workers=1)
    sidecar = json.loads((tmp_path / "s.csv.json").read_text())
    assert sidecar["n_points"] == 2
    # a different sweep must refuse to append to this file
    other = small_spec(out, axes=(SweepAxis("period", (1.25, 1.4)),))
    with pytest.raises(ConfigError):
        run_sweep(other, workers=1)


def test_failed_point_recorded_not_fatal(tmp_path):
    out = tmp_path / "s.csv"
    # period 0.1 needs h below T/40 = 0.0025, so that point must fail
    spec = small_spec(out, axes=(SweepAxis("period", (0.1, 1.25)),))
    run_sweep(spec, workers=1)
    rows = read_rows(out)
    assert len(rows) == 2
    bad = rows[0]
    assert bad["period"] == "0.1"
    assert bad["status"].startswith("StepTooLarge")
    assert bad["metric"] == ""
    assert rows[1]["status"] == "ok"


def test_eta_axis_requires_semicircle(tmp_path):
    grid = np.linspace(-2.0, 2.0, 401)
    vals = np.sqrt(np.clip(4.0 - grid**2, 0.0, None))
    sd = Tabulated(grid, vals, ((-2.0, 2.0),))
    with pytest.raises(ConfigError):
        small_spec(tmp_path / "s.csv", sd=sd,
                   axes=(SweepAxis("eta", (0.5, 1.0)),))


def test_single_point_matches_direct_evolution(tmp_path):
    out = tmp_path / "s.csv"
    spec = small_spec(out, axes=(SweepAxis("amplitude", (0.5,)),))
    # single-value axes are allowed, only repeated values are not
    run_sweep(spec, workers=1)
    row = read_rows(out)[0]

    grid = aligned_grid(0.0, 20.0, 0.02, DRIVE)

    def make_kernel(step, max_lag):
        return kernel_for(SD, step, max_lag, analytic=True)

    fine, est = convergence_check(make_kernel, 0.0, DRIVE, grid)
    metric = survival_metric(fine, (10.0, 20.0))
    assert float(row["metric"]) == pytest.approx(metric, rel=1e-9)
    assert float(row["error_estimate"]) == pytest.approx(est, rel=1e-2)


class _RecordingPool:
    """In-process stand-in for ProcessPoolExecutor that records its size."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return map(fn, items)


@pytest.mark.parametrize("affinity, cpu_count, want", [
    ({0, 3, 5}, 64, 3),      # the affinity mask, not the machine, sets it
    (None, 2, 2),            # no sched_getaffinity: the CPU count
])
def test_default_pool_sized_from_affinity(tmp_path, monkeypatch, affinity,
                                          cpu_count, want):
    monkeypatch.setattr(sweep, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(sweep.os, "cpu_count", lambda: cpu_count)
    if affinity is None:
        monkeypatch.delattr(sweep.os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(sweep.os, "sched_getaffinity",
                            lambda pid: set(affinity))
    axes = (SweepAxis("period", (1.25, 1.32, 1.4, 1.5)),)
    run_sweep(small_spec(tmp_path / "s.csv", axes=axes))
    assert _RecordingPool.sizes == [want]


def _per_point_rows(spec):
    return [sweep.evaluate_point((spec.sd, spec.eps_s, spec.drive,
                                  spec.t_max, spec.h, spec.window, pt))
            for pt in spec.points()]


def _csv_rows(path):
    with open(path) as fh:
        return [line.rstrip("\n").split(",") for line in fh][1:]


def test_failing_point_in_a_batch_matches_per_point_rows(tmp_path):
    # period 0.1 shares the others' grid, so it lands in their batch, and
    # its StepTooLarge sends the batch back to one point at a time
    spec = small_spec(tmp_path / "s.csv",
                      axes=(SweepAxis("period", (1.25, 0.1, 1.32)),))
    keys = [sweep._batch_key(spec, i, pt)
            for i, pt in enumerate(spec.points())]
    assert sweep._batches(keys, 1) == [slice(0, 3)]
    run_sweep(spec, workers=1)
    rows = _csv_rows(spec.out_path)
    assert rows == _per_point_rows(spec)
    assert rows[1][-1].startswith("StepTooLarge: h = 0.02 too coarse")
    assert [r[-1] for r in rows[::2]] == ["ok", "ok"]


def test_square_periods_split_by_aligned_step(tmp_path):
    # T = 1, 2 and 2.6 keep h = 0.02, T = 1.3 refines it; only neighbours
    # with equal keys share a batch
    drive = DrivingField(mean=2.5, period=1.0, shape="square", amplitude=0.5)
    spec = small_spec(tmp_path / "s.csv", drive=drive,
                      axes=(SweepAxis("period", (1.0, 1.3, 2.0, 2.6)),))
    keys = [sweep._batch_key(spec, i, pt)
            for i, pt in enumerate(spec.points())]
    assert keys[0] == keys[2] == keys[3] != keys[1]
    assert sweep._batches(keys, 1) == [slice(0, 1), slice(1, 2), slice(2, 4)]
    run_sweep(spec, workers=1)
    rows = _csv_rows(spec.out_path)
    assert rows == _per_point_rows(spec)
    assert all(r[-1] == "ok" for r in rows)


@pytest.mark.parametrize("keys, workers, sizes", [
    ([0] * 48, 2, [8] * 6),          # the benchmark grid on two cores
    ([0] * 20, 2, [5] * 4),          # c09: three batches round up to four
    ([0] * 4, 3, [2, 1, 1]),
    ([0] * 3, 8, [1, 1, 1]),         # never more batches than points
    ([0] * 10 + [1] * 2, 1, [5, 5, 2]),
    ([0] * 10 + [1] * 2, 2, [4, 3, 3, 2]),   # the widest run is cut
    ([0, 1, 0], 1, [1, 1, 1]),       # equal keys must be neighbours
])
def test_batches_are_contiguous_and_balanced(keys, workers, sizes):
    batches = sweep._batches(keys, workers)
    assert [b.stop - b.start for b in batches] == sizes
    assert batches[0].start == 0 and batches[-1].stop == len(keys)
    assert all(a.stop == b.start for a, b in zip(batches, batches[1:]))
    assert all(len(set(keys[b])) == 1 for b in batches)


def test_progress_line_per_batch(tmp_path, capsys):
    spec = small_spec(tmp_path / "s.csv",
                      axes=(SweepAxis("period", (1.25, 1.32, 1.4)),))
    run_sweep(spec, workers=1)
    full = (tmp_path / "s.csv").read_text()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("sweep: 3/3 rows, ")
    # a resumed sweep counts the rows already on disk
    lines = full.splitlines(keepends=True)
    (tmp_path / "s.csv").write_text("".join(lines[:-1]))
    run_sweep(spec, workers=1)
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("sweep: 3/3 rows, ")
    assert err[0].endswith(" s")
    assert (tmp_path / "s.csv").read_text() == full
