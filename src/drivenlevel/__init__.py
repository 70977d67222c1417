"""Decoherence dynamics of a periodically driven level in a structured reservoir."""

from .comb import (CombOverlap, CombReport, comb_report, comb_reports,
                   late_window_peaks, survival_metric)
from .config import RunConfig, load_config
from .driving import DrivingField, fourier_coefficients
from .errors import (ConfigError, DrivenLevelError, GridMismatch,
                     KernelCoverage, QuadratureFailure, StepTooLarge,
                     TooCloseToBandEdge, WindowOutOfRange)
from .kernel import QuadratureKernel, SemicircleKernel, kernel_for
from .spectral import (BoundState, SelfEnergyValue, Semicircle, SystemSpectrum,
                       Tabulated, compute_u0, eval_j, find_bound_states,
                       self_energy, self_energy_derivative, spectrum)
from .sweep import SweepAxis, run_sweep
from .traceio import read_trace, write_trace
from .volterra import (PropagatorTrace, TimeGrid, aligned_grid,
                       convergence_check, evolve)

__version__ = "0.1.0"
