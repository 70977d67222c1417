"""Run configuration: a JSON file plus dotted --set overrides.

Schema (all energies and times in units where V0 scales the band):

    {
      "spectral_density": {"kind": "semicircle", "eta": 1.0,
                           "eps0": 0.0, "v0": 1.0},
      "system": {"eps_s": 0.0},
      "drive":  {"shape": "sine", "mean": 2.5, "amplitude": 0.5,
                 "period": 1.25},
      "grid":   {"t_max": 200.0, "h": 0.01},
      "window": [150.0, 200.0],
      "oracle": {"n_modes": 2000},
      "sweep":  {"axes": [{"name": "period", "values": [1.25, 1.32]}],
                 "out": "sweep.csv", "workers": null},
      "output": {"trace": "trace.csv", "svg": null, "report": null,
                 "overlay_u0": false}
    }

Only the blocks a subcommand needs are required; a tabulated density uses
kind "tabulated" with "grid"/"values" arrays and "band" intervals.
"""

import dataclasses
import json

from .driving import DrivingField
from .errors import ConfigError
from .spectral import Semicircle, Tabulated


def sd_to_dict(sd):
    if isinstance(sd, Semicircle):
        return {"kind": "semicircle", "eta": sd.eta, "eps0": sd.eps0,
                "v0": sd.v0}
    if isinstance(sd, Tabulated):
        return {"kind": "tabulated", "grid": list(map(float, sd.grid)),
                "values": list(map(float, sd.values)),
                "band": [list(b) for b in sd.band]}
    raise ConfigError(f"unknown spectral density type {type(sd).__name__}")


def sd_from_dict(block):
    if not isinstance(block, dict):
        raise ConfigError("spectral_density must be an object")
    kind = block.get("kind", "semicircle")
    try:
        if kind == "semicircle":
            return Semicircle(eta=float(block.get("eta", 1.0)),
                              eps0=float(block.get("eps0", 0.0)),
                              v0=float(block.get("v0", 1.0)))
        if kind == "tabulated":
            band = tuple(tuple(map(float, b)) for b in block["band"])
            return Tabulated(grid=tuple(map(float, block["grid"])),
                             values=tuple(map(float, block["values"])),
                             band=band)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad spectral_density block: {exc}") from None
    raise ConfigError(f"unknown spectral density kind {kind!r}")


def drive_to_dict(f):
    d = {"shape": f.shape, "mean": f.mean, "period": f.period,
         "amplitude": f.amplitude}
    if f.coefficients:
        d["coefficients"] = [list(c) for c in f.coefficients]
    return d


def drive_from_dict(block):
    if not isinstance(block, dict):
        raise ConfigError("drive must be an object")
    try:
        coeffs = tuple((float(a), float(b))
                       for a, b in block.get("coefficients", ()))
        return DrivingField(mean=float(block.get("mean", 0.0)),
                            period=float(block.get("period", 1.0)),
                            shape=block.get("shape", "sine"),
                            amplitude=float(block.get("amplitude", 0.0)),
                            coefficients=coeffs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad drive block: {exc}") from None


@dataclasses.dataclass(frozen=True)
class RunConfig:
    sd: object
    eps_s: float = 0.0
    drive: object = None            # DrivingField or None
    t_max: float = None
    h: float = None
    window: tuple = None
    n_modes: int = 2000
    sweep: dict = None
    output: dict = dataclasses.field(default_factory=dict)

    @property
    def eps_on(self):
        """Static level position: eps_s plus the drive mean."""
        mean = self.drive.mean if self.drive is not None else 0.0
        return self.eps_s + mean

    def to_dict(self):
        d = {"spectral_density": sd_to_dict(self.sd),
             "system": {"eps_s": self.eps_s}}
        if self.drive is not None:
            d["drive"] = drive_to_dict(self.drive)
        if self.t_max is not None or self.h is not None:
            d["grid"] = {"t_max": self.t_max, "h": self.h}
        if self.window is not None:
            d["window"] = list(self.window)
        d["oracle"] = {"n_modes": self.n_modes}
        if self.sweep is not None:
            d["sweep"] = self.sweep
        if self.output:
            d["output"] = dict(self.output)
        return d

    @classmethod
    def from_dict(cls, raw):
        if not isinstance(raw, dict):
            raise ConfigError("config root must be an object")
        if "spectral_density" not in raw:
            raise ConfigError("config needs a spectral_density block")
        sd = sd_from_dict(raw["spectral_density"])
        system = raw.get("system", {})
        if not isinstance(system, dict):
            raise ConfigError("system must be an object")
        drive = None
        if raw.get("drive") is not None:
            drive = drive_from_dict(raw["drive"])
        grid = raw.get("grid", {})
        if not isinstance(grid, dict):
            raise ConfigError("grid must be an object")
        window = raw.get("window")
        if window is not None:
            try:
                t1, t2 = window
                window = (float(t1), float(t2))
            except (TypeError, ValueError):
                raise ConfigError("window must be [t1, t2]") from None
        oracle = raw.get("oracle", {})
        if not isinstance(oracle, dict):
            raise ConfigError("oracle must be an object")
        output = raw.get("output", {})
        if not isinstance(output, dict):
            raise ConfigError("output must be an object")
        for key in ("trace", "svg", "report"):
            if not isinstance(output.get(key), (str, type(None))):
                raise ConfigError(f"output.{key} must be a file name or null")
        if not isinstance(output.get("overlay_u0", False), bool):
            raise ConfigError("output.overlay_u0 must be true or false")
        try:
            return cls(
                sd=sd,
                eps_s=float(system.get("eps_s", 0.0)),
                drive=drive,
                t_max=None if grid.get("t_max") is None else float(grid["t_max"]),
                h=None if grid.get("h") is None else float(grid["h"]),
                window=window,
                n_modes=int(oracle.get("n_modes", 2000)),
                sweep=raw.get("sweep"),
                output=dict(output),
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad config value: {exc}") from None

    def require_grid(self):
        if self.t_max is None or self.h is None:
            raise ConfigError("this command needs grid.t_max and grid.h")
        if self.t_max <= 0.0 or self.h <= 0.0:
            raise ConfigError("grid.t_max and grid.h must be positive")

    def require_drive(self):
        if self.drive is None:
            raise ConfigError("this command needs a drive block")


def _parse_value(text):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def apply_override(raw, assignment):
    """Apply one KEY.PATH=VALUE override in place; VALUE parses as JSON
    when possible and as a bare string otherwise."""
    key, sep, value = assignment.partition("=")
    if not sep or not key:
        raise ConfigError(f"override {assignment!r} is not KEY=VALUE")
    node = raw
    parts = key.split(".")
    for part in parts[:-1]:
        nxt = node.get(part)
        if nxt is None:
            nxt = {}
            node[part] = nxt
        if not isinstance(nxt, dict):
            raise ConfigError(f"override {key!r} descends into a non-object")
        node = nxt
    node[parts[-1]] = _parse_value(value)


def load_config(path, overrides=()):
    """Read the JSON file, apply overrides, build a RunConfig."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    for assignment in overrides:
        apply_override(raw, assignment)
    return RunConfig.from_dict(raw)
