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
kind "tabulated" with "grid"/"values" arrays and "band" intervals, and a
harmonics drive lists its [A_n, B_n] pairs under "coefficients".  Every
block goes through the one reader, `block_of`: a key the schema does not
name, or a value of the wrong type (a number must be a finite JSON number,
never true or false; n_modes, the cap on the oracle's chain sites, and
workers must be integers), is a ConfigError naming its dotted path.
"""

import dataclasses
import json
import math
import numbers

from .driving import DrivingField
from .errors import ConfigError
from .oscquad import check_budget
from .spectral import Semicircle, Tabulated


def block_of(fields, required=(), build=dict):
    """The block reader: a checker (raw, dotted path) -> build(**block) for
    an object whose keys fields names, block holding each value as
    fields[key](value, dotted path of the value).  Anything but an object,
    a key fields does not name, or a missing required key is a ConfigError
    naming the path."""
    def read(raw, path):
        if not isinstance(raw, dict):
            raise ConfigError(f"{path or 'config root'} must be an object")
        prefix = path + "." if path else ""
        for key in required:
            if key not in raw:
                raise ConfigError(f"{prefix}{key} is required")
        block = {}
        for key, value in raw.items():
            if key not in fields:
                raise ConfigError(f"unknown key {prefix}{key}")
            block[key] = fields[key](value, prefix + key)
        return build(**block)
    return read


def of_type(types, what, convert):
    """A checker (value, dotted path) -> value for values of types; true
    and false count only as bool, never as numbers, and a number must be
    finite (Python's json reads NaN and Infinity)."""
    def check(value, path):
        if not isinstance(value, types) or \
                isinstance(value, bool) != (types is bool) or \
                (types is numbers.Real and not math.isfinite(value)):
            raise ConfigError(f"{path} must be {what}")
        return convert(value)
    return check


number = of_type(numbers.Real, "a finite number", float)
integer = of_type(numbers.Integral, "an integer", int)
text = of_type(str, "a string", str)
flag = of_type(bool, "true or false", bool)


def or_null(check):
    return lambda value, path: None if value is None else check(value, path)


def list_of(check, length=None):
    """A checker for a list (of length entries, if given) whose entries
    pass check; gives a tuple."""
    def read(value, path):
        if not isinstance(value, (list, tuple)) or \
                length not in (None, len(value)):
            raise ConfigError(
                f"{path} must be a list" + (f" of {length}" if length else ""))
        return tuple(check(v, f"{path}[{i}]") for i, v in enumerate(value))
    return read


_PAIRS = list_of(list_of(number, 2))

_DENSITIES = {
    "semicircle": (Semicircle, block_of(
        {"kind": text, "eta": number, "eps0": number, "v0": number})),
    "tabulated": (Tabulated, block_of(
        {"kind": text, "grid": list_of(number), "values": list_of(number),
         "band": _PAIRS}, required=("grid", "values", "band"))),
}


def sd_to_dict(sd):
    if isinstance(sd, Semicircle):
        return {"kind": "semicircle", **dataclasses.asdict(sd)}
    if isinstance(sd, Tabulated):
        return {"kind": "tabulated", "grid": list(map(float, sd.grid)),
                "values": list(map(float, sd.values)),
                "band": [list(b) for b in sd.band]}
    raise ConfigError(f"unknown spectral density type {type(sd).__name__}")


def sd_from_dict(raw, path):
    kind = raw.get("kind", "semicircle") if isinstance(raw, dict) \
        else "semicircle"
    if not isinstance(kind, str) or kind not in _DENSITIES:
        raise ConfigError(f"unknown spectral density kind {kind!r}")
    cls, read = _DENSITIES[kind]
    block = read(raw, path)
    block.pop("kind", None)
    return cls(**block)


def drive_to_dict(f):
    d = {"shape": f.shape, "mean": f.mean, "period": f.period,
         "amplitude": f.amplitude}
    if f.coefficients:
        d["coefficients"] = [list(c) for c in f.coefficients]
    return d


_ROOT = block_of({
    "spectral_density": sd_from_dict,
    "system": block_of({"eps_s": number}),
    "drive": or_null(block_of({"shape": text, "mean": number,
                               "period": number, "amplitude": number,
                               "coefficients": _PAIRS}, build=DrivingField)),
    "grid": block_of({"t_max": or_null(number), "h": or_null(number)}),
    "window": or_null(list_of(number, 2)),
    "oracle": block_of({"n_modes": integer}),
    "sweep": or_null(of_type(dict, "an object", dict)),    # see _parse_sweep
    "output": block_of({"trace": or_null(text), "svg": or_null(text),
                        "report": or_null(text), "overlay_u0": flag}),
}, required=("spectral_density",))


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
        # the keys of system, grid and oracle, and the other top-level keys
        # but spectral_density, are RunConfig's own field names
        block = _ROOT(raw, "")
        fields = {"sd": block.pop("spectral_density")}
        for name in ("system", "grid", "oracle"):
            fields.update(block.pop(name, {}))
        return cls(**fields, **block)

    def require_grid(self):
        if self.t_max is None or self.h is None:
            raise ConfigError("this command needs grid.t_max and grid.h")
        if not 0.0 < self.h <= self.t_max:
            raise ConfigError(f"grid.h {self.h:g} must be positive and at "
                              f"most grid.t_max {self.t_max:g}")
        # the trace: one complex value a node
        nodes = self.t_max / self.h + 1.0
        check_budget(16.0 * nodes, f"grid.t_max / grid.h: a grid of "
                                   f"{nodes:.3g} nodes")

    def require_drive(self):
        if self.drive is None:
            raise ConfigError("this command needs a drive block")


def apply_override(raw, assignment):
    """Apply one KEY.PATH=VALUE override in place; VALUE parses as JSON
    when possible and as a bare string otherwise."""
    key, sep, value = assignment.partition("=")
    if not sep or not key:
        raise ConfigError(f"override {assignment!r} is not KEY=VALUE")
    node = raw
    *parents, last = key.split(".")
    for part in parents:
        if not isinstance(node, dict):
            break
        if node.get(part) is None:
            node[part] = {}
        node = node[part]
    if not isinstance(node, dict):
        raise ConfigError(f"override {key!r} descends into a non-object")
    try:
        node[last] = json.loads(value)
    except json.JSONDecodeError:
        node[last] = value


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
