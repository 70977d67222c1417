"""Seeded inputs for the benchmark workloads.

Each workload is a list of `drivenlevel` CLI calls on one JSON config that
this module writes.  The program only ever sees that config file and the
`--set` overrides below; everything drawn from the seed ends up in them.

`SIZES["full"]` is what the benchmark measures.  `SIZES["tiny"]` keeps the
same calls and code paths at a size that finishes in seconds; only the smoke
test uses it.
"""

import json
import math
import os
import random

WORKLOADS = ("semicircle-trace", "tabulated-long", "sweep")
DEFAULT_SEED = 0

SIZES = {
    "full": {
        # the README's own run
        "semicircle-trace": {"t_max": 200.0, "n_modes": 2000},
        # one long solve (N = 100 000) and a short tabulated u0
        "tabulated-long": {"t_max": 1000.0, "u0_t_max": 50.0},
        # 6 x 8 c09-style grid; h = 0.02 at t_max 100 keeps the fine solve at
        # N = 10 000, where no history dot is long enough for OpenBLAS to
        # thread it (see README, "The sweep size")
        "sweep": {"t_max": 100.0, "n_amplitude": 6, "n_period": 8},
    },
    "tiny": {
        "semicircle-trace": {"t_max": 20.0, "n_modes": 200},
        "tabulated-long": {"t_max": 40.0, "u0_t_max": 5.0},
        # the window must start late enough for c09's bound on the metric
        "sweep": {"t_max": 50.0, "n_amplitude": 2, "n_period": 2},
    },
}

# CLI outputs, relative to the iteration's working directory
TRACE = "trace.csv"
SVG = "trace.svg"
U0_TRACE = "u0.csv"
SWEEP_CSV = "sweep.csv"
CONFIG = "config.json"

# the tabulated family: two bands with a gap, J zero at the outer edges and
# at the gap edges, 9 table nodes per band.  With eta2 in [1.4, 1.5] and
# eps_on = 0.2 there is exactly one bound state, in the gap, and the Filon
# doubling stops at the same panel count for every seed (over 40 seeds the
# doubling error stays at least 1.5x away from the tolerance on both sides of
# the stopping level)
_TAB_GAP = 1.0
_TAB_WIDTH = 2.0
_TAB_NODES = 9


def _tabulated_density(rng):
    xs = [i / (_TAB_NODES - 1) for i in range(_TAB_NODES)]
    eta2 = rng.uniform(1.4, 1.5)

    def band_values():
        skew = rng.uniform(-0.15, 0.15)
        vals = [eta2 * math.sin(math.pi * x) * (1.0 + skew * (x - 0.5))
                * rng.uniform(0.97, 1.03) for x in xs]
        vals[0] = vals[-1] = 0.0
        return vals

    lo = [-_TAB_GAP - _TAB_WIDTH + _TAB_WIDTH * x for x in xs]
    hi = [_TAB_GAP + _TAB_WIDTH * x for x in xs]
    return {"kind": "tabulated", "grid": lo + hi,
            "values": band_values() + band_values(),
            "band": [[lo[0], lo[-1]], [hi[0], hi[-1]]]}


def build(name, seed, size="full"):
    """The workload's config (a dict) and its CLI calls.

    Returns {"config": dict, "calls": [(kind, argv), ...], "params": dict};
    kind names the subcommand, argv is everything after `drivenlevel`.
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    rng = random.Random(f"{name}/{seed}")
    p = dict(SIZES[size][name])
    cfg_arg = ["--config", CONFIG]

    if name == "semicircle-trace":
        # fixed by the README; the seed changes nothing here
        config = {
            "spectral_density": {"kind": "semicircle", "eta": 1.0,
                                 "eps0": 0.0, "v0": 1.0},
            "system": {"eps_s": 0.0},
            "drive": {"shape": "sine", "mean": 2.5, "amplitude": 0.5,
                      "period": 1.25},
            "grid": {"t_max": p["t_max"], "h": 0.01},
            "oracle": {"n_modes": p["n_modes"]},
            "output": {"trace": TRACE, "svg": SVG, "overlay_u0": True},
        }
        calls = [("evolve", ["evolve"] + cfg_arg),
                 ("oracle-compare", ["oracle-compare"] + cfg_arg)]
    elif name == "tabulated-long":
        config = {
            "spectral_density": _tabulated_density(rng),
            "system": {"eps_s": 0.0},
            "drive": {"shape": "sine", "mean": 0.2, "amplitude": 0.3,
                      "period": 2.0},
            "grid": {"t_max": p["t_max"], "h": 0.01},
            "output": {"trace": TRACE},
        }
        calls = [("evolve", ["evolve"] + cfg_arg),
                 ("u0", ["u0"] + cfg_arg
                  + ["--set", f"grid.t_max={p['u0_t_max']}",
                     "--set", f"output.trace={U0_TRACE}"])]
    else:
        # c09's family: eps_on = 1 sits inside the band, so no bound state
        # exists and every late-window metric must stay small
        t_max = p["t_max"]
        amps = sorted(round(rng.uniform(0.2, 3.8), 6)
                      for _ in range(p["n_amplitude"]))
        periods = sorted(round(rng.uniform(0.8, 10.0), 6)
                         for _ in range(p["n_period"]))
        config = {
            "spectral_density": {"kind": "semicircle", "eta": 0.8},
            "system": {"eps_s": 0.0},
            "drive": {"shape": "sine", "mean": 1.0, "amplitude": 0.5,
                      "period": 1.0},
            "grid": {"t_max": t_max, "h": 0.02},
            "window": [0.75 * t_max, t_max],
            # workers unset: the pool sizes itself as it does for users
            "sweep": {"axes": [{"name": "amplitude", "values": amps},
                               {"name": "period", "values": periods}],
                      "out": SWEEP_CSV},
        }
        p["n_points"] = len(amps) * len(periods)
        calls = [("sweep", ["sweep"] + cfg_arg)]
    return {"config": config, "calls": calls, "params": p}


def write_config(workdir, spec):
    path = os.path.join(workdir, CONFIG)
    with open(path, "w") as fh:
        json.dump(spec["config"], fh, indent=1)
    return path
