"""CSV persistence for propagator traces, and the atomic file writer.

Layout: one '#'-prefixed JSON metadata line, then a header row and one row
per node with t, re_u, im_u, abs_u (extra columns pass through untouched).
The metadata carries the grid and the full run configuration, so a trace
file is self-describing.  Every trace starts at t = 0; the metadata still
names that origin, t0 = 0.
"""

import csv
import json
import os

import numpy as np

from . import oscquad
from .config import block_of, integer, number, of_type, text
from .errors import ConfigError

FORMAT_NAME = "drivenlevel-trace"
FORMAT_VERSION = 1

_META = block_of({"format": text, "version": integer, "t0": number,
                  "h": number, "n_steps": integer,
                  "config": of_type(dict, "an object", dict)},
                 required=("t0", "h", "n_steps"))


def write_atomic(path, write_fn):
    """write_fn(PATH.partial), then rename it to path, so an interrupted
    write never leaves a file that looks finished.  A path that cannot be
    written is a ConfigError."""
    tmp = path + ".partial"
    try:
        write_fn(tmp)
        os.replace(tmp, path)
    except OSError as exc:
        raise ConfigError(
            f"cannot write {path}: {exc.strerror or exc}") from None


def write_json(path, obj, **dump_kw):
    """obj as one JSON document and a newline at path, via write_atomic;
    dump_kw go to json.dump."""
    def dump(tmp):
        with open(tmp, "w") as fh:
            json.dump(obj, fh, **dump_kw)
            fh.write("\n")
    write_atomic(path, dump)


def write_trace(path, trace, config, extra_columns=None):
    """Write a trace to CSV.

    config: JSON-serializable dict stored in the metadata line.
    extra_columns: optional dict name -> array (same length as the trace),
    appended after abs_u.
    """
    grid = trace.grid
    meta = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "t0": 0.0,
        "h": grid.h,
        "n_steps": grid.n_steps,
        "config": config,
    }
    extras = extra_columns or {}
    for name, col in extras.items():
        if len(col) != grid.n_steps + 1:
            raise ValueError(f"column {name!r} length {len(col)} does not "
                             f"match the grid ({grid.n_steps + 1} nodes)")
    u = trace.values
    extra_cols = [np.asarray(extras[name], dtype=float) for name in extras]
    # csv.writer's own row format: '.17g' numbers never need quoting, and
    # its line terminator is \r\n
    row_fmt = ",".join(["%.17g"] * (4 + len(extra_cols))) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write("# " + json.dumps(meta, sort_keys=True) + "\n")
        csv.writer(fh).writerow(["t", "re_u", "im_u", "abs_u"] + list(extras))
        # every column a block of rows at a time, times and |u| included
        rows = oscquad._SLAB // 8
        for lo in range(0, grid.n_steps + 1, rows):
            hi = lo + rows
            uc = u[lo:hi]
            block = np.column_stack(
                [grid.times(lo, hi), uc.real, uc.imag, np.abs(uc)]
                + [c[lo:hi] for c in extra_cols])
            fh.write((row_fmt * len(block)) % tuple(block.ravel().tolist()))


def read_trace(path):
    """Read a trace written by write_trace; returns (trace, metadata)."""
    from .volterra import PropagatorTrace, TimeGrid

    with open(path, newline="") as fh:
        first = fh.readline()
        if not first.startswith("#"):
            raise ConfigError(f"{path}: missing metadata line")
        try:
            meta = json.loads(first.lstrip("#").strip())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: bad metadata line: {exc}") from None
        if not isinstance(meta, dict) or meta.get("format") != FORMAT_NAME:
            raise ConfigError(f"{path}: not a {FORMAT_NAME} file")
        meta = _META(meta, f"{path}: metadata")
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ConfigError(f"{path}: missing header row")
        if header[:4] != ["t", "re_u", "im_u", "abs_u"]:
            raise ConfigError(f"{path}: unexpected columns {header[:4]}")
        data = []
        for row in reader:
            if not row:
                continue
            try:
                # a short row fails to unpack
                t, re_u, im_u = map(float, row[:3])
            except ValueError:
                # the reader has not counted the metadata line
                raise ConfigError(
                    f"{path}: line {reader.line_num + 1}: need the numbers "
                    f"t, re_u, im_u, got {row[:3]}") from None
            data.append((t, re_u, im_u))
    if meta["t0"] != 0.0:
        raise ConfigError(f"{path}: metadata.t0 is {meta['t0']:g}, but a "
                          f"trace starts at t = 0")
    try:
        grid = TimeGrid(meta["h"], meta["n_steps"])
    except ValueError as exc:
        raise ConfigError(f"{path}: metadata grid: {exc}") from None
    if len(data) != grid.n_steps + 1:
        raise ConfigError(
            f"{path}: {len(data)} rows but metadata promises {grid.n_steps + 1}")
    data = np.array(data)
    if not np.allclose(data[:, 0], grid.times(), rtol=0.0, atol=1e-9 * grid.h):
        raise ConfigError(f"{path}: time column disagrees with the grid")
    values = data[:, 1] + 1j * data[:, 2]
    return PropagatorTrace(grid, values), meta
