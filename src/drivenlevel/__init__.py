"""Decoherence dynamics of a periodically driven level in a structured reservoir.

The public names load on first use (PEP 562): importing the package loads
none of its modules, and a public name or one of the submodule attributes
below imports its module when it is first read.  So a process, one CLI
command included, pays only for the layers it runs.
"""

import importlib

__version__ = "0.1.0"

# defining module -> the public names it contributes to the package
_EXPORTS = {
    "comb": ("CombOverlap", "CombReport", "comb_report", "comb_reports",
             "late_window_peaks", "survival_metric"),
    "config": ("RunConfig", "load_config"),
    "driving": ("DrivingField",),
    "errors": ("ConfigError", "DrivenLevelError", "GridMismatch",
               "QuadratureFailure", "StepTooLarge", "TooCloseToBandEdge",
               "WindowOutOfRange"),
    "kernel": ("QuadratureKernel", "SemicircleKernel", "kernel_for"),
    "spectral": ("BoundState", "SelfEnergyValue", "Semicircle",
                 "SystemSpectrum", "Tabulated", "compute_u0", "eval_j",
                 "find_bound_states", "self_energy",
                 "self_energy_derivative", "spectrum"),
    "sweep": ("SweepAxis", "run_sweep"),
    "traceio": ("read_trace", "write_trace"),
    "volterra": ("PropagatorTrace", "TimeGrid", "aligned_grid",
                 "convergence_check", "evolve"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items()
           for name in names}
# the submodules an eager `import drivenlevel` left as attributes
_SUBMODULES = frozenset(_EXPORTS) | {"oscquad"}

__all__ = sorted(_SOURCE)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
