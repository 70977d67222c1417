"""Periodic on-site driving fields.

A field is a static mean plus a zero-mean periodic modulation.  Three shapes
are supported: a single sine, a symmetric square wave (+A on the first half
period, -A on the second, left-closed at the switch points), and an explicit
harmonic series sum_n [A_n sin(n w t) + B_n cos(n w t)] with w = 2 pi / T.

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

    def modulation(self, t):
        """Zero-mean periodic part at time(s) t."""
        t = np.asarray(t, dtype=float)
        w = self.base_frequency
        if self.shape == SINE:
            out = self.amplitude * np.sin(w * t)
        elif self.shape == SQUARE:
            frac = np.mod(t, self.period)
            out = np.where(frac < 0.5 * self.period, self.amplitude, -self.amplitude)
        else:
            out = np.zeros_like(t)
            for n, (a, b) in enumerate(self.coefficients, start=1):
                out = out + a * np.sin(n * w * t) + b * np.cos(n * w * t)
        if out.ndim == 0:
            return float(out)
        return out

    def modulation_integral(self, t):
        """Antiderivative of modulation with value 0 at t = 0 (closed form)."""
        t = np.asarray(t, dtype=float)
        w = self.base_frequency
        if self.shape == SINE:
            out = (self.amplitude / w) * (1.0 - np.cos(w * t))
        elif self.shape == SQUARE:
            # whole periods integrate to zero; within a period the integral
            # rises to A*T/2 then falls back
            frac = np.mod(t, self.period)
            half = 0.5 * self.period
            out = self.amplitude * np.where(frac < half, frac, self.period - frac)
        else:
            out = np.zeros_like(t)
            for n, (a, b) in enumerate(self.coefficients, start=1):
                wn = n * w
                out = out + (a / wn) * (1.0 - np.cos(wn * t)) + (b / wn) * np.sin(wn * t)
        if out.ndim == 0:
            return float(out)
        return out

    def max_modulation(self):
        """Peak |modulation| over one period."""
        if self.shape in (SINE, SQUARE):
            return abs(self.amplitude)
        tt = np.linspace(0.0, self.period, 4097)
        return float(np.max(np.abs(self.modulation(tt))))


def fourier_coefficients(f, n_max):
    """(A_n, B_n) for n = 1..n_max of the zero-mean modulation.

    Sine and square waves are returned in closed form; the square wave
    carries 4A/(n pi) on its odd sine harmonics.  Harmonics fields echo
    their stored coefficients (truncated or zero-padded).
    """
    if n_max < 1:
        raise ConfigError(f"n_max must be >= 1, got {n_max}")
    out = []
    if f.shape == SINE:
        for n in range(1, n_max + 1):
            out.append((f.amplitude if n == 1 else 0.0, 0.0))
    elif f.shape == SQUARE:
        for n in range(1, n_max + 1):
            a_n = 4.0 * f.amplitude / (n * np.pi) if n % 2 == 1 else 0.0
            out.append((a_n, 0.0))
    else:
        for n in range(1, n_max + 1):
            if n <= len(f.coefficients):
                out.append(f.coefficients[n - 1])
            else:
                out.append((0.0, 0.0))
    return out
