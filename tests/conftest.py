import math

import pytest

from drivenlevel.spectral import Tabulated


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
