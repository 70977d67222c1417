"""Periodic on-site driving fields.

A field is a static mean plus a zero-mean periodic modulation.  Three shapes
are supported: a single sine, a symmetric square wave (+A on the first half
period, -A on the second, left-closed at the switch points), and an explicit
harmonic series sum_n [A_n sin(n w t) + B_n cos(n w t)] with w = 2 pi / T,
of which a sine is the one-term case ((A, 0),).

The antiderivative of the modulation is available in closed form for every
shape; the propagation code relies on it for exact phase factors.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

SINE = "sine"
SQUARE = "square"
HARMONICS = "harmonics"


@dataclass(frozen=True)
class DrivingField:
    """Periodic drive eps_d(t) = mean + modulation(t).

    amplitude sets a sine or square drive, and coefficients, (A_n, B_n)
    pairs for n = 1.., a harmonics drive; the field a shape does not use
    must be left empty (zero amplitude, no coefficients).
    """

    mean: float = 0.0
    period: float = 1.0
    shape: str = SINE
    amplitude: float = 0.0
    coefficients: tuple = field(default=())

    def __post_init__(self):
        if self.period <= 0.0:
            raise ConfigError(f"period must be positive, got {self.period}")
        if self.shape not in (SINE, SQUARE, HARMONICS):
            raise ConfigError(f"unknown drive shape {self.shape!r}")
        if self.shape != HARMONICS and self.coefficients:
            raise ConfigError(f"a {self.shape} drive takes no coefficients")
        if self.shape == HARMONICS:
            if self.amplitude != 0.0:
                raise ConfigError("a harmonics drive takes no amplitude")
            coeffs = tuple((float(a), float(b)) for a, b in self.coefficients)
            object.__setattr__(self, "coefficients", coeffs)

    @property
    def base_frequency(self):
        return 2.0 * np.pi / self.period

    def _series(self):
        """(A_n, B_n) pairs of a sine or harmonics drive."""
        if self.shape == SINE:
            return ((self.amplitude, 0.0),)
        return self.coefficients

    def modulation(self, t):
        """Zero-mean periodic part at time(s) t."""
        t = np.asarray(t, dtype=float)
        w = self.base_frequency
        if self.shape == SQUARE:
            frac = np.mod(t, self.period)
            out = np.where(frac < 0.5 * self.period, self.amplitude, -self.amplitude)
        else:
            out = np.zeros_like(t)
            for n, (a, b) in enumerate(self._series(), start=1):
                out = out + a * np.sin(n * w * t) + b * np.cos(n * w * t)
        if out.ndim == 0:
            return float(out)
        return out

    def modulation_integral(self, t):
        """Antiderivative of modulation with value 0 at t = 0 (closed form)."""
        t = np.asarray(t, dtype=float)
        w = self.base_frequency
        if self.shape == SQUARE:
            # whole periods integrate to zero; within a period the integral
            # rises to A*T/2 then falls back
            frac = np.mod(t, self.period)
            half = 0.5 * self.period
            out = self.amplitude * np.where(frac < half, frac, self.period - frac)
        else:
            out = np.zeros_like(t)
            for n, (a, b) in enumerate(self._series(), start=1):
                wn = n * w
                out = out + (a / wn) * (1.0 - np.cos(wn * t)) + (b / wn) * np.sin(wn * t)
        if out.ndim == 0:
            return float(out)
        return out

    def harmonics(self, n):
        """V_1..V_n of modulation = sum_k V_k e^{-ikwt}, V_{-k} = conj V_k:
        (B_k + i A_k) / 2 for a series (iA/2 at k = 1 for a sine), and
        2iA/(pi k) on a square's odd k."""
        v = np.zeros(n, dtype=complex)
        if self.shape == SQUARE:
            k = np.arange(1, n + 1, 2)
            v.imag[::2] = 2.0 * self.amplitude / (k * np.pi)
        else:
            pairs = np.array(self._series()[:n], dtype=float).reshape(-1, 2)
            v.real[:len(pairs)] = 0.5 * pairs[:, 1]
            v.imag[:len(pairs)] = 0.5 * pairs[:, 0]
        return v

    def max_modulation(self):
        """Peak |modulation| over one period."""
        if self.shape in (SINE, SQUARE):
            return abs(self.amplitude)
        tt = np.linspace(0.0, self.period, 4097)
        return float(np.max(np.abs(self.modulation(tt))))
