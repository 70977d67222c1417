"""Reservoir memory kernel g(s) = (1/2pi) int J(eps) e^{-i eps s} d eps.

The semicircle band J = eta^2 sqrt(r^2 - (eps - eps0)^2), r = 2 v0, has the
closed form
    g(s) = eta^2 v0 e^{-i eps0 s} J1(2 v0 s) / s,       g(0) = eta^2 v0^2,
which defines it.  It is evaluated by Gauss-Chebyshev quadrature of the
second kind: with eps = eps0 + r y the integral has the weight
sqrt(1 - y^2), and n nodes y_k = cos(theta_k), theta_k = k pi / (n + 1),
integrate it exactly up to degree 2n + 1, so g is the phase sum over
x_k = eps0 + r y_k with weights (eta r sin(theta_k))^2 / (2 (n + 1)).
e^{-i r y s} needs n a little over r max|s| / 2.  The nodes pair up as
+-y_k with equal weights, so n is even and the sum runs over the m = n/2
positive ones: g = e^{-i eps0 s} Re sum_k 2 w_k e^{-i r y_k s}.

A tabulated density has the cell-exact transform of its piecewise-linear
J for a kernel, computed on the lag grid each time it is asked for.  A
kernel holds only its density; the step belongs to the solver.  Every
kernel ends in `oscquad.phase_sum`, and the lag grid s = k*h is uniform,
so lag samples take its blocked path: about 2 sqrt(n) exponentials per
node for n lags instead of n.  Immutable, safe to share across workers.
"""

import numpy as np

from . import oscquad
from .oscquad import phase_sum
from .spectral import Semicircle, Tabulated

# Gauss-Chebyshev nodes beyond n = a/2 + 4 a^{1/3}, a = 2 v0 max|s| the
# phase range.  Max error / g(0) against the J1 closed form over
# (eta, eps0, v0) in {(1,0,1), (0.8,0,1), (2.5,0,1), (1.3,0.7,1.7)} and
# lag grids up to a = 5780: margin 0: 5.4e-11, 4: 2.4e-12, 8: 3.6e-13,
# 12: 6.0e-14, 16: 2.1e-14, the roundoff floor (18 to 22 give 2.6e-14 to
# 3.6e-14)
_CHEB_MARGIN = 16
# terms of the short-lag series; at s w <= 1 the first one dropped is
# at most 1/22! of the zeroth
_SERIES_TERMS = 22


def _tabulated_transform(cells, s):
    """int_lo^hi J e^{-i e s} de over one band [lo, hi] of a table, given
    as its `BandCells`, for the piecewise-linear J, cell by cell.

    Per linear cell the integral is elementary; summed, the boundary terms
    telescope so only the endpoint values and the slope jumps survive:

        F(s) = (i/s)(J_N E_N - J_0 E_0) + (1/s^2) sum_k b_k (E_{k+1} - E_k)

    with E_k = e^{-i s x_k} and b_k the cell slope.  Exact to roundoff for
    the interpolant, so the kernel inherits only the tabulation error.  The
    sum regroups by node into slope jumps, so both terms are phase sums and
    the uniform lag grid takes `phase_sum`'s blocked path.

    The 1/s^2 sum cancels from O(1) down to F as s w -> 0 (w the band
    half-width), so for s w <= 1 F comes instead from its Taylor series
    about the band centre c, e^{-i c s} sum_n (-i s)^n M_n / n!, with the
    moments M_n = int J (e - c)^n de in the same telescoped closed form.
    Term n is at most (s w)^n / n! of M_0, so _SERIES_TERMS terms reach
    roundoff.
    """
    # sum_k b_k (E_{k+1} - E_k) = -sum_k (b_k - b_{k-1}) E_k, with b zero
    # outside the band: one phase sum over the slope jumps
    x, jv, jumps = cells.x, cells.j, cells.jump
    lo, hi = float(x[0]), float(x[-1])
    out = np.empty(s.shape, dtype=complex)
    c = 0.5 * (lo + hi)
    small = np.abs(s) * 0.5 * (hi - lo) <= 1.0
    if np.any(small):
        # M_n by parts twice: endpoint values, then slope jumps
        y = x - c
        n = np.arange(_SERIES_TERMS)[:, None]
        pw = y[None, :] ** (n + 1)
        moments = ((jv[-1] * pw[:, -1] - jv[0] * pw[:, 0]) / (n[:, 0] + 1)
                   + (pw * y) @ jumps / ((n[:, 0] + 1) * (n[:, 0] + 2)))
        ss = s[small]
        # Horner in (-i s) with the 1/n! folded into each step
        acc = np.zeros(ss.shape, dtype=complex)
        for k in range(_SERIES_TERMS - 1, -1, -1):
            acc = moments[k] + acc * (-1j * ss) / (k + 1)
        out[small] = np.exp(-1j * c * ss) * acc
    big = ~small
    ss = s[big]
    # (i/s) ends - slopes / s^2, each term formed in place
    ends = phase_sum((x[0], x[-1]), (-jv[0], jv[-1]), ss)
    ends *= 1j / ss
    slopes = phase_sum(x, jumps, ss)
    slopes /= ss ** 2
    ends -= slopes
    out[big] = ends
    return out


class SemicircleKernel:
    """Memory kernel of a semicircle band: the J1 closed form, evaluated by
    a Gauss-Chebyshev phase sum with enough nodes for the largest lag."""

    def __init__(self, sd):
        if not isinstance(sd, Semicircle):
            raise TypeError("SemicircleKernel needs a Semicircle density")
        self.sd = sd

    def eval(self, s):
        """g at lag(s) s (vectorized; complex for a scalar s)."""
        s = np.asarray(s, dtype=float)
        sd = self.sd
        r = 2.0 * sd.v0
        a = r * max(abs(float(s.min(initial=0.0))),
                    abs(float(s.max(initial=0.0))))
        # the positive half of n = 2m nodes, each weight doubled
        m = np.ceil(0.25 * a + 2.0 * np.cbrt(a) + 0.5 * _CHEB_MARGIN)
        oscquad.check_budget(16.0 * m, f"a semicircle kernel of {m:.3g} "
                             f"Gauss-Chebyshev nodes")
        m = int(m)
        theta = np.arange(1, m + 1) * (np.pi / (2 * m + 1))
        w = (sd.eta * r * np.sin(theta)) ** 2 / (2 * m + 1)
        flat = s.ravel()
        out = phase_sum(r * np.cos(theta), w, flat)
        # the band-centre phase a slab at a time, in place
        slab = oscquad._SLAB
        for lo in range(0, out.size, slab):
            seg = out[lo:lo + slab]
            seg[:] = np.exp(-1j * sd.eps0 * flat[lo:lo + slab]) * seg.real
        if s.ndim == 0:
            return complex(out[0])
        return out.reshape(s.shape)

    def lag_samples(self, h, n):
        """g on the lag grid 0, h, ..., n*h."""
        return self.eval(h * np.arange(n + 1))


class QuadratureKernel:
    """Memory kernel of a tabulated density: the cell-exact transform of
    its piecewise-linear J."""

    def __init__(self, sd):
        if not isinstance(sd, Tabulated):
            raise TypeError("QuadratureKernel needs a Tabulated density")
        self.sd = sd

    def lag_samples(self, h, n):
        """g on the lag grid 0, h, ..., n*h."""
        # a slab of lags at a time, so the transforms' temporaries stay a
        # fixed size however many lags
        out = np.zeros(n + 1, dtype=complex)
        slab = oscquad._SLAB
        for k0 in range(0, n + 1, slab):
            seg = out[k0:k0 + slab]
            lags = h * np.arange(k0, k0 + seg.size)
            for cells in self.sd.cells:
                seg += _tabulated_transform(cells, lags)
            seg /= 2.0 * np.pi
        return out


def kernel_for(sd):
    """The kernel of a density: the closed form for a semicircle, the
    cell-exact transform for a table."""
    if isinstance(sd, Semicircle):
        return SemicircleKernel(sd)
    return QuadratureKernel(sd)
