"""The one working-memory size: every streaming layer reads `oscquad._SLAB`
when it runs and sizes its pieces from it, so a tiny slab drives every
piece path at a small size, and no module keeps a size of its own."""

import ast
import pathlib
import re

import numpy as np

from drivenlevel import oracle, oscquad, spectral
from drivenlevel.driving import DrivingField
from drivenlevel.kernel import QuadratureKernel, SemicircleKernel
from drivenlevel.oscquad import phase_sum
from drivenlevel.spectral import Semicircle, compute_u0
from drivenlevel.svgplot import line_plot
from drivenlevel.traceio import write_trace
from drivenlevel.volterra import PropagatorTrace, TimeGrid, evolve

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "drivenlevel"
# a working-memory size by its name: a chunk, a piece or a slab
SIZE_NAME = re.compile(r"(^|_)(CHUNK|PIECE|SLAB)(_|$)")


def _layers(tab):
    """Every streaming layer once, at the slab set now; arrays by name."""
    rng = np.random.default_rng(0)
    x, w = rng.uniform(-2.0, 2.0, 300), rng.normal(size=300) + 0j
    sc = Semicircle(eta=1.0)
    tab_kern = QuadratureKernel(tab)
    drives = [DrivingField(mean=m, period=1.25, shape="sine", amplitude=0.5)
              for m in (2.5, 1.0, -0.5)]
    # blocks of 64 nodes: the square at node 256 is 16 pieces of 16 at a
    # 64-element slab, and the last square ends inside its second piece
    grid = TimeGrid(0.01, 333)
    out = {
        "phase sum, uniform": phase_sum(x, w, 0.01 * np.arange(3000)),
        "phase sum, scattered": phase_sum(x, w, rng.uniform(-30, 30, 500)),
        "semicircle lags": SemicircleKernel(sc).lag_samples(0.01, 2000),
        "tabulated lags": tab_kern.lag_samples(0.01, 350),
        "tabulated shift": tab.shift(np.linspace(-4.0, 4.0, 301)),
        "evolve": evolve(SemicircleKernel(sc), 0.0, drives[0], grid).values,
        "oracle": oracle.propagate(sc, 0.0, drives[0], grid).values,
        "tabulated u0": compute_u0(tab, 0.2, grid.times()),
    }
    for j, tr in enumerate(evolve(tab_kern, 0.0, drives, grid)):
        out[f"evolve, drive {j} of 3"] = tr.values
    return grid, out


def _writers(path, grid, u, u0):
    """The trace CSV and the SVG of u and u0, as bytes."""
    write_trace(path / "t.csv", PropagatorTrace(grid, u), {},
                extra_columns={"abs_u0": np.abs(u0)})
    t = grid.times()
    line_plot(path / "p.svg", [(t, np.abs(u), "|u|"), (t, np.abs(u0), "|u0|")])
    return (path / "t.csv").read_bytes(), (path / "p.svg").read_bytes()


def test_every_layer_matches_at_a_tiny_slab(kinked_two_band, monkeypatch,
                                           tmp_path):
    grid, whole = _layers(kinked_two_band)
    files = _writers(tmp_path, grid, whole["evolve"], whole["tabulated u0"])
    # 16-node far-sum pieces and oracle chunks, 8-row writer chunks, one
    # column of a batch per transform, phase windows of one block
    monkeypatch.setattr(oscquad, "_SLAB", 64)
    _, small = _layers(kinked_two_band)
    for name, want in whole.items():
        dev = np.max(np.abs(small[name] - want)) / np.max(np.abs(want))
        assert dev <= 1e-13, (name, dev)
    assert _writers(tmp_path, grid, whole["evolve"],
                    whole["tabulated u0"]) == files


def test_slab_is_the_only_working_memory_size():
    # no module imports the slab by name (a copy would not follow the
    # knob) or keeps a chunk, piece or slab size of its own
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                found += [f"{path.name} imports {alias.name}"
                          for alias in node.names if alias.name == "_SLAB"]
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            else:
                continue
            found += [f"{path.name} defines {name.id}"
                      for target in targets for name in ast.walk(target)
                      if isinstance(name, ast.Name)
                      and SIZE_NAME.search(name.id)
                      and (path.name, name.id) != ("oscquad.py", "_SLAB")]
    assert found == []
    assert isinstance(oscquad._SLAB, int)
