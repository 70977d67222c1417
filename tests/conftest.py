import math
import tracemalloc

import numpy as np
import pytest

from drivenlevel import spectral
from drivenlevel.oscquad import angle_band_integral
from drivenlevel.spectral import Tabulated, eval_j


@pytest.fixture
def kinked_two_band():
    """Two bands [-3, -1] and [1, 3] around a gap, 9 table nodes each.

    J rises from zero at every band edge like a skewed sine, so the
    piecewise-linear interpolant has a kink at each interior node and the
    continuum weight of a level at 0.2 is only piecewise smooth.
    """
    xs = [i / 8 for i in range(9)]

    def band(eta2, skew, wobble):
        vals = [eta2 * math.sin(math.pi * x) * (1.0 + skew * (x - 0.5))
                * (1.0 + wobble * (-1) ** i) for i, x in enumerate(xs)]
        vals[0] = vals[-1] = 0.0
        return vals

    lo = [-3.0 + 2.0 * x for x in xs]
    hi = [1.0 + 2.0 * x for x in xs]
    return Tabulated(tuple(lo + hi),
                     tuple(band(1.45, 0.1, 0.02) + band(1.45, -0.12, -0.015)),
                     ((-3.0, -1.0), (1.0, 3.0)))


@pytest.fixture
def semicircle_quadrature_lags():
    """Reference for the semicircle kernel on the lag grid 0, h, ..., n*h.

    The angle quadrature of (1/2pi) int J e^{-i eps s} d eps at relative
    tolerance 1e-10, independent of the J1 closed form that
    `SemicircleKernel` evaluates.
    """

    def lags(sd, h, n):
        (lo, hi), = sd.band
        s = h * np.arange(n + 1)
        return angle_band_integral(lambda e: eval_j(sd, e), lo, hi, s,
                                   tol=1e-10) / (2.0 * np.pi)

    return lags


@pytest.fixture
def traced_peak():
    """peak(fn, *args): (fn(*args), the peak bytes traced while it ran).

    Counts what tracemalloc sees (numpy's buffers included), from zero at
    the call: the arguments, built before it, are not counted; the result,
    built inside, is.
    """

    def peak(fn, *args):
        tracemalloc.start()
        try:
            out = fn(*args)
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return peak


@pytest.fixture
def band_nodes(monkeypatch):
    """Node counts of the band integrals `spectral` runs from here on.

    One list per `angle_band_integral` call, holding the size of every
    node array its integrand is called on (the last is the final level),
    counted by wrapping the integrand as the benchmark's tracer does.
    """
    calls = []
    real = spectral.angle_band_integral

    def counted(f, *args, **kwargs):
        sizes = []
        calls.append(sizes)

        def g(x):
            sizes.append(np.size(x))
            return f(x)

        return real(g, *args, **kwargs)

    monkeypatch.setattr(spectral, "angle_band_integral", counted)
    return calls
