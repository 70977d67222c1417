import csv
import json
import re

import numpy as np
import pytest

from drivenlevel import oscquad
from drivenlevel.errors import ConfigError
from drivenlevel.svgplot import line_plot
from drivenlevel.traceio import (FORMAT_NAME, FORMAT_VERSION, read_trace,
                                 write_trace)
from drivenlevel.volterra import PropagatorTrace, TimeGrid


def sample_trace(n=40):
    grid = TimeGrid(0.05, n)
    t = grid.times()
    u = np.exp(-1j * 1.7 * t) * np.exp(-0.03 * t)
    return PropagatorTrace(grid, u)


def test_round_trip_exact(tmp_path):
    tr = sample_trace()
    path = tmp_path / "trace.csv"
    write_trace(path, tr, config={"note": 7})
    back, meta = read_trace(path)
    assert meta["t0"] == 0.0
    assert back.grid.h == tr.grid.h
    assert back.grid.n_steps == tr.grid.n_steps
    # 17 significant digits reproduce doubles exactly
    assert np.array_equal(back.values, tr.values)
    assert meta["config"] == {"note": 7}
    assert meta["n_steps"] == 40


def test_extra_columns_round_trip(tmp_path):
    tr = sample_trace(10)
    ref = np.abs(np.cos(tr.grid.times()))
    path = tmp_path / "trace.csv"
    write_trace(path, tr, {}, extra_columns={"ref": ref})
    text = path.read_text()
    assert "ref" in text.splitlines()[1].split(",")
    back, _ = read_trace(path)   # extra columns are tolerated
    assert back.grid.n_steps == 10


def _write_trace_csv_writer(path, trace, config, extra_columns=None):
    """Reference writer: one csv.writer row per node, one format per cell."""
    grid = trace.grid
    meta = {"format": FORMAT_NAME, "version": FORMAT_VERSION, "t0": 0.0,
            "h": grid.h, "n_steps": grid.n_steps, "config": config}
    extras = extra_columns or {}
    u = trace.values
    with open(path, "w", newline="") as fh:
        fh.write("# " + json.dumps(meta, sort_keys=True) + "\n")
        writer = csv.writer(fh)
        writer.writerow(["t", "re_u", "im_u", "abs_u"] + list(extras))
        cols = [trace.times(), u.real, u.imag, np.abs(u)]
        cols += [np.asarray(extras[name], dtype=float) for name in extras]
        for row in zip(*cols):
            writer.writerow([format(float(x), ".17g") for x in row])


@pytest.mark.parametrize("with_extras", [False, True])
def test_write_matches_csv_writer_bytes(tmp_path, monkeypatch, with_extras):
    # more rows than one write chunk (the block template is built per
    # chunk, the last one short), with values whose text is unusual; a
    # 64-element slab writes 8 rows a chunk
    monkeypatch.setattr(oscquad, "_SLAB", 64)
    grid = TimeGrid(1e-3, 2 * 8 + 7)
    t = grid.times()
    u = np.exp(-1j * 1.7 * t) * np.exp(-0.03 * t)
    # signed zeros, subnormals, huge values, non-finite values and values
    # that need all 17 digits to round-trip
    u[:8] = [0.0, -0.0 + 1e-300j, 1e300 - 5e-324j, np.nan + 1j * np.inf,
             0.1 + 0.2 - 1j / 3, 2.2250738585072014e-308 / 3 - 0.0j,
             -1e300 + 1j * (2.0 / 3), 1.0000000000000002 - 1e-310j]
    tr = PropagatorTrace(grid, u)
    awkward = np.cos(t)
    awkward[-4:] = [-0.0, 4e-320, 1e300, 0.30000000000000004]
    extras = {"u0 ref": awkward, "b": -t} if with_extras else None
    write_trace(tmp_path / "new.csv", tr, config={"k": [1, 2]},
                extra_columns=extras)
    _write_trace_csv_writer(tmp_path / "old.csv", tr, config={"k": [1, 2]},
                            extra_columns=extras)
    assert (tmp_path / "new.csv").read_bytes() == \
        (tmp_path / "old.csv").read_bytes()


def test_missing_meta_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,re_u,im_u,abs_u\n0,1,0,1\n")
    with pytest.raises(ConfigError):
        read_trace(path)


def test_foreign_format_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text('# {"format": "other", "version": 1, "t0": 0, '
                    '"h": 0.1, "n_steps": 1}\nt,re_u,im_u,abs_u\n'
                    "0,1,0,1\n0.1,1,0,1\n")
    with pytest.raises(ConfigError):
        read_trace(path)


@pytest.mark.parametrize("key, value, message", [
    ("t0", None, "metadata.t0 is required"),
    ("t0", -3.0, "metadata.t0 is -3, but a trace starts at t = 0"),
    ("h", None, "metadata.h is required"),
    ("n_steps", None, "metadata.n_steps is required"),
    ("h", -0.05, "metadata grid: need h > 0"),
    ("n_steps", 0, "metadata grid: need h > 0"),
], ids=["t0-missing", "t0-shifted", "h-missing", "n_steps-missing",
        "h-negative", "n_steps-zero"])
def test_bad_grid_metadata_rejected(tmp_path, key, value, message):
    # value None deletes the key
    path = tmp_path / "trace.csv"
    write_trace(path, sample_trace(5), {})
    first, rest = path.read_text().split("\n", 1)
    meta = json.loads(first[1:])
    if value is None:
        del meta[key]
    else:
        meta[key] = value
    path.write_text("# " + json.dumps(meta) + "\n" + rest)
    with pytest.raises(ConfigError, match=message):
        read_trace(path)


def test_missing_header_row_rejected(tmp_path):
    path = tmp_path / "trace.csv"
    write_trace(path, sample_trace(5), {})
    first = path.read_text().split("\n", 1)[0]
    path.write_text(first + "\n")
    with pytest.raises(ConfigError, match="missing header row"):
        read_trace(path)


def test_truncated_rows_rejected(tmp_path):
    tr = sample_trace(5)
    path = tmp_path / "trace.csv"
    write_trace(path, tr, {})
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-2]) + "\n")
    with pytest.raises(ConfigError):
        read_trace(path)


@pytest.mark.parametrize("row", ["0.1,abc,0,1", "0.1,0.5", "0.1,,0,1"],
                         ids=["text", "short", "empty-cell"])
def test_bad_data_row_names_file_and_line(tmp_path, row):
    # line 1 is the metadata, line 2 the header, so data row 2 is line 4
    path = tmp_path / "trace.csv"
    write_trace(path, sample_trace(5), {})
    lines = path.read_text().splitlines()
    lines[3] = row
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match=re.escape(f"{path}: line 4: ")):
        read_trace(path)


def test_wrong_columns_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text('# {"format": "drivenlevel-trace", "version": 1, '
                    '"t0": 0, "h": 0.1, "n_steps": 1}\nt,x,y\n0,1,0\n0.1,1,0\n')
    with pytest.raises(ConfigError):
        read_trace(path)


def test_svg_plot_structure(tmp_path):
    tr = sample_trace(200)
    t = tr.grid.times()
    path = tmp_path / "plot.svg"
    line_plot(path, [(t, np.abs(tr.values), "|u|"),
                     (t, 0.5 * np.ones_like(t), "floor")],
              title="survival", ylabel="|u(t)|")
    text = path.read_text()
    assert text.startswith("<svg")
    assert text.count("<polyline") >= 2
    assert "survival" in text and "|u(t)|" in text
    assert "floor" in text   # legend entry


def test_svg_skips_nan_segments(tmp_path):
    x = np.linspace(0.0, 1.0, 50)
    y = np.sin(x)
    y[20:25] = np.nan
    path = tmp_path / "plot.svg"
    line_plot(path, [(x, y, "curve")])
    text = path.read_text()
    assert "nan" not in text.lower()


def test_svg_limits_come_from_drawn_points(tmp_path):
    x = np.linspace(0.0, 10.0, 101)
    y = np.sin(x)
    y[[5, 50]] = [np.inf, -np.inf]
    y[60] = np.nan
    x2 = x.copy()
    x2[3] = np.inf
    path = tmp_path / "plot.svg"
    line_plot(path, [(x, y, "a"), (x2, np.cos(x), "b")])
    text = path.read_text()
    assert "inf" not in text.lower() and "nan" not in text.lower()
    got = re.findall(r'<polyline points="([^"]*)"', text)
    assert got == _polyline_points_per_point([(x, y), (x2, np.cos(x))])
    with pytest.raises(ValueError, match="finite"):
        line_plot(path, [(x, np.full_like(x, np.nan), "")])


# the writers' memory tests run under a slab of 2^10 elements, 1/16 of the
# default: rows and points come 128 a chunk, and the row counts and the
# allowed growth are 1/16 of what they would be at the default
SMALL_SLAB = 1 << 10
SMALL_ROWS = (1250, 6250)


def _peak_per_rows(traced_peak, write, rows):
    """write's traced peak for each row count; its arrays are built first."""
    peaks = []
    for n in rows:
        grid = TimeGrid(0.01, n)
        t = grid.times()
        u = np.exp(-1j * 1.7 * t) * np.exp(-0.03 * t)
        peaks.append(traced_peak(write, grid, t, u, np.abs(u))[1])
    return peaks


def test_trace_writer_memory_does_not_grow(tmp_path, traced_peak,
                                           monkeypatch):
    def write(grid, t, u, a):
        write_trace(tmp_path / "t.csv", PropagatorTrace(grid, u), {},
                    extra_columns={"abs_u0": a})

    monkeypatch.setattr(oscquad, "_SLAB", SMALL_SLAB)
    small, large = _peak_per_rows(traced_peak, write, SMALL_ROWS)
    assert large <= small + 4_000, (small, large)


def test_svg_writer_memory_does_not_grow(tmp_path, traced_peak, monkeypatch):
    def write(grid, t, u, a):
        line_plot(tmp_path / "p.svg", [(t, a, "|u|")])

    monkeypatch.setattr(oscquad, "_SLAB", SMALL_SLAB)
    small, large = _peak_per_rows(traced_peak, write, SMALL_ROWS)
    assert large <= small + 4_000, (small, large)


def _polyline_points_per_point(curves):
    """Reference: line_plot's polyline points, its axis limits (over the
    points drawn) and pixel maps applied one point at a time and formatted
    one point at a time."""
    keeps = [np.isfinite(x) & np.isfinite(y) for x, y in curves]
    drawn = [(x[k], y[k]) for (x, y), k in zip(curves, keeps)]
    x_lo = min(float(np.min(x)) for x, _ in drawn if x.size)
    x_hi = max(float(np.max(x)) for x, _ in drawn if x.size)
    y_lo = min(float(np.min(y)) for _, y in drawn if y.size)
    y_hi = max(float(np.max(y)) for _, y in drawn if y.size)
    if y_lo >= 0.0:
        y_lo = 0.0
    y_hi += 0.05 * (y_hi - y_lo) or 1.0
    px_w, px_h = 720 - 64.0 - 16.0, 440 - 28.0 - 46.0

    def sx(x):
        return 64.0 + (x - x_lo) / (x_hi - x_lo) * px_w

    def sy(y):
        return 28.0 + (y_hi - y) / (y_hi - y_lo) * px_h

    return [" ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(x, y))
            for x, y in drawn]


def test_svg_points_match_per_point_format(tmp_path):
    rng = np.random.default_rng(3)
    x = np.sort(rng.uniform(-7.0, 311.0, 4001))
    y1 = np.sin(x) * np.exp(-0.01 * x)
    y1[100:140] = np.nan            # a gap
    y2 = rng.normal(size=x.size)
    x2 = x.copy()
    x2[[0, 2000]] = np.nan
    curves = [(x, y1), (x2, y2), (x[:3], np.array([-0.0, 0.0, 1e-300]))]
    path = tmp_path / "plot.svg"
    line_plot(path, [(a, b, "") for a, b in curves])
    got = re.findall(r'<polyline points="([^"]*)"', path.read_text())
    assert got == _polyline_points_per_point(curves)
