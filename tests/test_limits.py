"""Inputs at the edges: the one size budget, overflowing densities, and a
seeded fuzz of the CLI over extreme numbers.

Nothing here allocates a large array.  The budget is exercised by shrinking
`oscquad._BUDGET`, the way tests/test_slab.py shrinks the slab, and the
fuzz leaves out the sizes (1e8) that only the budget would stop.
"""

import json

import numpy as np
import pytest

from drivenlevel import oracle, oscquad
from drivenlevel.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main
from drivenlevel.driving import DrivingField
from drivenlevel.errors import ConfigError, QuadratureFailure
from drivenlevel.kernel import SemicircleKernel
from drivenlevel.oscquad import angle_band_integral
from drivenlevel.spectral import Semicircle
from drivenlevel.volterra import TimeGrid, evolve

SEMICIRCLE = {"kind": "semicircle", "eta": 1.0, "eps0": 0.0, "v0": 1.0}
# two bands of 5 nodes, J zero at every edge
TABLE = {"kind": "tabulated",
         "grid": [-3.0, -2.5, -2.0, -1.5, -1.0, 1.0, 1.5, 2.0, 2.5, 3.0],
         "values": [0.0, 1.0, 1.4, 1.0, 0.0, 0.0, 1.0, 1.4, 1.0, 0.0],
         "band": [[-3.0, -1.0], [1.0, 3.0]]}
BASE = {"system": {"eps_s": 0.0},
        "drive": {"shape": "sine", "mean": 2.5, "amplitude": 0.5,
                  "period": 1.25},
        "grid": {"t_max": 5.0, "h": 0.02},
        "window": [2.5, 5.0],
        "sweep": {"axes": [{"name": "period", "values": [1.25, 1.32]}],
                  "out": "sweep.csv", "workers": 1}}
README = DrivingField(mean=2.5, period=1.25, shape="sine", amplitude=0.5)
# well under any array the refused sizes would need
SMALL = 2e6


def _config(tmp_path, density, **grid):
    raw = json.loads(json.dumps({"spectral_density": density, **BASE}))
    raw["grid"].update(grid)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(raw))
    return str(path)


def test_budget_refuses_a_grid_before_any_solve(tmp_path, capsys,
                                                monkeypatch, traced_peak):
    # 16 bytes a node: 50 001 nodes fit 1 MiB, 100 001 do not
    monkeypatch.setattr(oscquad, "_BUDGET", 1 << 20)
    monkeypatch.chdir(tmp_path)
    cfg = _config(tmp_path, SEMICIRCLE, t_max=500.0, h=0.01)
    for command in ("u0", "evolve", "oracle-compare", "sweep"):
        argv = [command, "--config", cfg, "--set", "grid.t_max=1000"]
        code, peak = traced_peak(main, argv)
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG, (command, err)
        assert "a grid of 1e+05 nodes needs 0.00149 GiB" in err
        assert "the 0.000976562 GiB size budget" in err
        assert peak < SMALL
    assert main(["u0", "--config", cfg]) == EXIT_OK


def test_budget_counts_every_drive_of_a_batch(monkeypatch, traced_peak):
    # 201 nodes: 3 drives take 9 648 bytes, 4 take 12 864
    monkeypatch.setattr(oscquad, "_BUDGET", 10_000)
    kern = SemicircleKernel(Semicircle(eta=1.0))
    grid = TimeGrid(0.01, 200)
    assert len(evolve(kern, 0.0, [README] * 3, grid)) == 3
    with pytest.raises(ConfigError, match=r"4 drive\(s\) on a grid of 201"):
        traced_peak(evolve, kern, 0.0, [README] * 4, grid)


def test_budget_refuses_kernel_nodes(monkeypatch):
    # lags to s = 2000 on a semicircle of v0 1 take 1 040 positive
    # Gauss-Chebyshev nodes, 16 640 bytes at 16 a node
    monkeypatch.setattr(oscquad, "_BUDGET", 16_000)
    kern = SemicircleKernel(Semicircle())
    kern.eval(np.array([0.0, 1900.0]))
    with pytest.raises(ConfigError, match="semicircle kernel of 1.04e\\+03"):
        kern.eval(np.array([0.0, 2000.0]))


def test_budget_refuses_chain_sites(monkeypatch, traced_peak):
    # the chain of v0 1e6 over a span of 2 asks for a 29 TiB matrix, and
    # v0 1e150 for more sites than an index holds
    with pytest.raises(ConfigError, match="needs 2.98e\\+04 GiB"):
        traced_peak(oracle.chain_sites, Semicircle(v0=1e6), 2.0)
    grid = TimeGrid(0.01, 200)
    with pytest.raises(ConfigError, match="oracle's chain of 2e\\+150"):
        traced_peak(oracle.propagate, Semicircle(v0=1e150), 0.0, README,
                    grid)
    # the README chain, 250 sites to t = 200, takes 0.5 MB
    assert oracle.chain_sites(Semicircle(), 200.0) == 250
    monkeypatch.setattr(oscquad, "_BUDGET", 8 * 250 ** 2)
    with pytest.raises(ConfigError, match="oracle's chain of 250 sites"):
        oracle.chain_sites(Semicircle(), 200.0)


def test_budget_refuses_an_oracle_grid(monkeypatch):
    # 2 001 nodes of 16 bytes fit 32 016, 2 002 do not; the chain of 53
    # sites to t = 2 takes 22 KB
    monkeypatch.setattr(oscquad, "_BUDGET", 16 * 2001)
    oracle.propagate(Semicircle(), 0.0, README, TimeGrid(0.001, 2000))
    with pytest.raises(ConfigError, match="a grid of 2002 nodes"):
        oracle.propagate(Semicircle(), 0.0, README,
                         TimeGrid(0.001, 2001))


def test_band_quadrature_refuses_its_first_level(monkeypatch):
    # a band of width 4 to t = 1000 starts at 250 GL-16 panels, 4 000
    # nodes; under a 1 024-node budget that first level is never built
    monkeypatch.setattr(oscquad, "_MAX_NODES", 1 << 10)
    f = lambda x: np.ones_like(x)
    with pytest.raises(QuadratureFailure, match="4e\\+03 nodes at its first"):
        angle_band_integral(f, -2.0, 2.0, np.array([0.0, 1000.0]))
    assert angle_band_integral(f, -2.0, 2.0, 0.0) == pytest.approx(4.0)


# the numeric keys of each density's config and the extremes drawn for
# them; 1e8 is left out, since before the budget it allocated
KEYS = {
    "semicircle": ("spectral_density.eta", "spectral_density.eps0",
                   "spectral_density.v0"),
    "tabulated": ("spectral_density.values", "spectral_density.grid"),
}
COMMON = ("system.eps_s", "drive.mean", "drive.amplitude", "drive.period",
          "grid.t_max", "grid.h")
VALUES = (0.0, 1e-300, 1e300, -1e300)
COMMANDS = ("bound-states", "u0", "evolve", "comb", "oracle-compare",
            "sweep")
GRID_COMMANDS = ("u0", "evolve", "oracle-compare", "sweep")
DRAWS = 300


def _draw(rng):
    """(density kind, command, {key: value}) with one or two keys set."""
    kind = str(rng.choice(list(KEYS)))
    keys = KEYS[kind] + COMMON
    picked = rng.choice(len(keys), size=int(rng.integers(1, 3)),
                        replace=False)
    setting = {keys[i]: float(rng.choice(VALUES)) for i in picked}
    return kind, str(rng.choice(COMMANDS)), setting


def _apply(kind, setting):
    """The config of a draw: a table's values and grid (its band with it)
    are scaled by the drawn value, every other key is set to it."""
    density = json.loads(json.dumps(SEMICIRCLE if kind == "semicircle"
                                    else TABLE))
    raw = json.loads(json.dumps({"spectral_density": density, **BASE}))
    for key, value in setting.items():
        block, name = key.split(".")
        if kind == "tabulated" and block == "spectral_density":
            density[name] = [x * value for x in density[name]]
            if name == "grid":
                density["band"] = [[lo * value, hi * value]
                                   for lo, hi in density["band"]]
        else:
            raw[block][name] = value
    return raw


def _must_refuse(kind, command, setting):
    """True where a density's scale overflows or the grid is too large."""
    if kind == "semicircle":
        if any(abs(setting.get(f"spectral_density.{k}", 0.0)) == 1e300
               for k in ("eta", "eps0", "v0")):
            return True
    elif (setting.get("spectral_density.values") == 1e300
          and setting.get("spectral_density.grid") == 1e300):
        return True
    return command in GRID_COMMANDS and (
        setting.get("grid.t_max") == 1e300 or setting.get("grid.h") == 1e-300)


def test_fuzzed_extremes_exit_cleanly(tmp_path, capsys, monkeypatch):
    # every draw ends in exit 0, 2 or 3 with one line on stderr, never a
    # traceback, and an overflowing density or an oversized grid in exit 2
    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng(2027)
    seen = set()
    for i in range(DRAWS):
        kind, command, setting = _draw(rng)
        raw = _apply(kind, setting)
        raw["sweep"]["out"] = f"sweep{i}.csv"
        path = tmp_path / f"run{i}.json"
        path.write_text(json.dumps(raw))
        code = main([command, "--config", str(path)])
        err = capsys.readouterr().err
        case = (kind, command, setting, err)
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL), case
        if code == EXIT_OK:
            assert err == "" or command == "sweep", case
        else:
            assert err.count("\n") == 1, case
        if _must_refuse(kind, command, setting):
            assert code == EXIT_CONFIG, case
        seen.add(code)
    assert seen == {EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL}
