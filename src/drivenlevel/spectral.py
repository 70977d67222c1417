"""Reservoir spectral densities and the static spectral problem.

A single level at on-site energy eps_on hybridizes with a reservoir whose
coupling-weighted density of states is J(eps).  Everything static about the
coupled system follows from J: the level-shift function Delta(eps) (a
principal-value transform of J), discrete levels split off outside the band
where eps - eps_on - Delta(eps) = 0, their residues, the continuum spectral
weight, and the free survival amplitude u0(t).  On the real axis the
retarded self-energy is one complex function, `self_energy`:
Sigma(eps + i0) = Delta(eps) - i J(eps)/2.

Each density, `Semicircle` or `Tabulated`, has every formula that differs
between the two, which the shared functions below call: its config
`kind`, J (`j`), Delta and its slope (`shift`, `shift_slope`: closed
form, or summed exactly cell by cell), Delta's one-sided limit at a band
edge (`edge_shift`) and the oracle's `chain`; when made, it builds its
`weight`, `decoupled`, `breaks`, `hop_bound` and a table's `cells`.
Levels are found by bisection on closed-form brackets, so numpy is the
only dependency.  hbar = 1; eps_on absorbs the system's bare energy.

The sum rule and u0 are one spectral sum, `_spectral_sum`: the bound
states' Z e^{-iEt} plus (1/2pi) times one `oscquad.angle_band_integral`
per band, the sum rule at t = 0 to 1e-10 and u0 at its times to U0_TOL.
Every band is broken at the same points, by one rule: its interior
resonances, its density's `breaks` and, at an edge near a threshold,
the edge ladder.  A level inside the band leaves one continuum peak, at
the root of eps - eps_on - Delta, whose width shrinks like eta^2 at weak
coupling; at a break the angle substitution clusters nodes, so the peak
costs few nodes however narrow it is (a table's breaks are its kinks,
see `Tabulated`).  On 20 001 times in [0, 200], a semicircle level in
the band at eta 0.05 / 0.02 / 0.01 / 0.005 ends at 3 264 / 6 528 /
13 056 / 26 112 final nodes; unbroken at the peak it took 25 600 /
204 800 / 819 200 nodes and failed at 0.005.  Near a threshold the
peak sits at the band edge, and the ladder breaks it at every scale
(`_edge_breaks`): on `Semicircle()` at 1 + 1e-5 the sum rule takes
1 904 evaluations, against 2.1 million without them, and at 1 + 1e-6
as many, where 2^21 failed.
"""

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import oscquad
from .errors import ConfigError, QuadratureFailure
from .oscquad import angle_band_integral, phase_sum

EDGE_COLLAR = 1e-6          # a root this close to a band edge is bisected
#                             to the float spacing, not to TOL_ROOT
TOL_ROOT = 1e-12
U0_BOUND_SLACK = 1e-6       # |u0| <= 1 by the sum rule; quadrature slack
U0_TOL = 1e-8               # relative tolerance of each u0 band integral
_MAX_PIECES = 64            # pieces a table band is broken into, at most
# chain sites beyond the light cone b_max * span.  On the README run (t =
# 200, h 0.01) margins of 10 / 20 / 30 / 40 / 50 miss a margin of 400 by
# 1.4e-4 / 4.6e-8 / 1.8e-12 / 1.8e-13 / 1.8e-13
CHAIN_MARGIN = 50
# a table cell gets min(L + 1, ceil(_NODES_PER_SITE (L + 1) F) + _NODE_FLOOR)
# nodes for L sites, F its arcsine share of its band (`gauss_star`).  Worst
# coefficient error against m = L + 1 over nine tables (edge grading, J zero
# on part of a band, unequal or far narrow bands, dense ones) at spans
# 20-1000, per site 2 / 3: floor 8 2.6e-2 / 3.3e-9, floor 12 2.4e-3 /
# 9.2e-14, floor 16 8.5e-7 / 9.8e-14 (roundoff; 16 keeps a step of margin).
# A 4001-node table at span 200 takes 68 154 nodes, 2.2e-14 off.  Width
# shares, ceil(4 (L + 1) w / W) + 16, miss a 401-node table's chain at span
# 1000: an edge cell holds about L sqrt(w / W) zeros
_NODES_PER_SITE = 3
_NODE_FLOOR = 16


@dataclass(frozen=True)
class Semicircle:
    """J(eps) = eta^2 sqrt((2 v0)^2 - (eps - eps0)^2) on its support.

    eta scales the hybridization, eps0 centers the band, v0 sets the half
    bandwidth 2*v0.  eta = 0 is the decoupled limit.  A density whose
    (2 v0)^2 or total weight eta^2 v0^2 overflows, or whose band edges
    eps0 -+ 2 v0 are not two finite floats, is refused.  Built with it:
    weight = eta^2 v0^2, decoupled (eta = 0), no breaks, hop_bound = v0.
    """

    kind = "semicircle"
    eta: float = 1.0
    eps0: float = 0.0
    v0: float = 1.0

    def __post_init__(self):
        if self.eta < 0.0:
            raise ConfigError(f"eta must be >= 0, got {self.eta}")
        if self.v0 <= 0.0:
            raise ConfigError(f"v0 must be positive, got {self.v0}")
        # J and the shift square the half bandwidth; products, not powers,
        # so that an overflow gives inf instead of raising
        r = 2.0 * self.v0
        if not math.isfinite(r * r):
            raise ConfigError(f"v0 {self.v0:g} overflows: (2 v0)^2 is not "
                              f"a float")
        if not math.isfinite(self.eta * self.eta * self.v0 * self.v0):
            raise ConfigError(f"eta {self.eta:g} with v0 {self.v0:g} "
                              f"overflows: the total weight eta^2 v0^2 is "
                              f"not a float")
        _check_band(self.band, "eps0 -+ 2 v0")
        # the powers cannot raise once the products above are finite
        for name, value in (("weight", self.eta ** 2 * self.v0 ** 2),
                            ("decoupled", self.eta == 0.0),
                            ("hop_bound", self.v0),
                            ("breaks", (np.empty(0),))):
            object.__setattr__(self, name, value)

    @property
    def band(self):
        r = 2.0 * self.v0
        return ((self.eps0 - r, self.eps0 + r),)

    def j(self, eps):
        """J at the float array eps, 0 off the band."""
        r = 2.0 * self.v0
        # clipped onto the band, so x * x cannot overflow and J is 0 off it
        x = np.clip(eps - self.eps0, -r, r)
        return self.eta ** 2 * np.sqrt(r * r - x * x)

    def shift(self, eps):
        """Closed-form level shift; linear inside the band, decaying outside.

        Off the band x - sign(x) sqrt(x^2 - r^2) cancels (it gives 7.45e-9
        at x = 1e8, not 1e-8) and x^2 overflows, so it is taken as
        sign(x) (eta^2/2) r (r/|x|) / (1 + s), s = `_off_band_root`: within
        4e-16 of a 700-digit value from 1e-9 past an edge out to
        |x| = 1e300, and finite out to the largest float.
        """
        x = np.asarray(eps, dtype=float) - self.eps0
        r = 2.0 * self.v0
        half = 0.5 * self.eta ** 2
        # at r inside the band, where the value is not used
        ax = np.maximum(np.abs(x), r)
        outside = (np.sign(x) * half * r * (r / ax)
                   / (1.0 + _off_band_root(ax, r)))
        out = np.where(np.abs(x) <= r, half * x, outside)
        if out.ndim == 0:
            return float(out)
        return out

    def shift_slope(self, eps):
        """d Delta / d eps at a float eps: eta^2/2 in the band, and -inf
        where eps - eps0 rounds onto an edge from outside."""
        x = eps - self.eps0
        r = 2.0 * self.v0
        half = 0.5 * self.eta ** 2
        if abs(x) < r:
            return half
        # half (1 - |x| / sqrt(x^2 - r^2)), with q = r/|x|, rationalized
        q, s = r / abs(x), float(_off_band_root(abs(x), r))
        return -half * q * q / (s * (1.0 + s)) if s else -math.inf

    def edge_shift(self, edge, side):
        """Delta's limit at a band edge from outside: side eta^2 v0."""
        return side * (0.5 * self.eta ** 2) * (2.0 * self.v0)

    def chain(self, sites, span):
        """(c0, a, b) of the first `sites` sites: eta v0, eps0s, v0s."""
        return self.eta * self.v0, [self.eps0] * sites, [self.v0] * sites


# one band of a table cut into linear cells at its interior grid nodes: the
# nodes x = [lo, interior nodes, hi], J there, each cell's width and slope,
# and the slope jump at each node (the slope is zero outside the band)
BandCells = namedtuple("BandCells", "x j width slope jump")


@dataclass(frozen=True)
class Tabulated:
    """J given by samples on a strictly ascending grid, linear in between.

    band lists the closed support interval(s); J is zero outside them.
    The tuples are the fields; a non-finite node is refused.  Built from
    them once, read-only: cells, one BandCells per band; breaks, per band
    its thinned interior nodes; grid_array, values_array; weight; decoupled
    (every value 0); hop_bound, half the bands' hull.

    The continuum weight kinks at every node (J's slope jumps there, and
    Delta picks up (x - x_k) log|x - x_k|).  A band of at most _MAX_PIECES
    cells breaks at each, so the spectral sum's doubling converges fast
    instead of stopping on an accidental agreement.  A denser band would
    pay a GL-16 panel per cell, so it keeps only the node at or above each
    angle k pi / _MAX_PIECES of its own substitution x = c - w cos(phi):
    pieces equal in angle, crowded toward the edges, where a square-root
    edge bends the table most and its slope jumps are largest.  The weak
    kinks left inside converge only algebraically, and cost extra
    doublings.  A break at every node instead, on a tabulated
    semicircle at level 2.5 (u0 at 5001 times to t = 50, one BLAS thread,
    best of 3): 4001 nodes took 5.3 s and 128 000 final nodes against
    0.43 s and 8 192 thinned, 1001 nodes 0.70 s against 0.17 s, for an
    error against a node-split GL-16 reference of 3e-14 against 4e-10
    (U0_TOL is 1e-8).
    """

    kind = "tabulated"
    grid: tuple
    values: tuple
    band: tuple

    def __post_init__(self):
        g = np.array(self.grid, dtype=float)
        v = np.array(self.values, dtype=float)
        if g.ndim != 1 or g.size < 2 or v.shape != g.shape:
            raise ConfigError("grid and values must be matching 1-d sequences")
        for name, array in (("grid", g), ("values", v)):
            if not np.all(np.isfinite(array)):
                raise ConfigError(f"{name} must be finite")
        if np.any(np.diff(g) <= 0.0):
            raise ConfigError("grid must be strictly ascending")
        if np.any(v < 0.0):
            raise ConfigError("spectral density must be nonnegative")
        band = tuple((float(lo), float(hi)) for lo, hi in self.band)
        _check_band(band, "band")
        if any(band[i][1] > band[i + 1][0] for i in range(len(band) - 1)):
            raise ConfigError("band intervals must be disjoint and sorted")
        cells, breaks = [], []
        with np.errstate(over="ignore"):
            for lo, hi in band:
                x = np.concatenate(([lo], g[(g > lo) & (g < hi)], [hi]))
                j = np.interp(x, g, v, left=0.0, right=0.0)
                width = np.diff(x)
                slope = np.diff(j) / width
                jump = np.diff(np.concatenate(([0.0], slope, [0.0])))
                cells.append(BandCells(x, j, width, slope, jump))
                if x.size - 1 <= _MAX_PIECES:
                    breaks.append(x[1:-1].copy())
                else:
                    phi = np.pi * np.arange(1, _MAX_PIECES) / _MAX_PIECES
                    at = 0.5 * (lo + hi) - 0.5 * (hi - lo) * np.cos(phi)
                    # in x[:-1], so an `at` past hi (the hull overflows) is hi
                    breaks.append(x[np.searchsorted(x[:-1], at)])
            # trapezoid over the table nodes is exact for the interpolant
            weight = sum(float(np.trapezoid(c.j, c.x))
                         for c in cells) / (2.0 * np.pi)
        if not math.isfinite(weight):
            raise ConfigError(f"values overflow: the total weight "
                              f"(1/2pi) int J is {weight}")
        for array in (g, v, *breaks, *(a for c in cells for a in c)):
            array.flags.writeable = False
        for name, value in (("grid", tuple(g.tolist())),
                            ("values", tuple(v.tolist())), ("band", band),
                            ("cells", tuple(cells)),
                            ("breaks", tuple(breaks)), ("grid_array", g),
                            ("values_array", v), ("weight", weight),
                            ("decoupled", not v.any()),
                            ("hop_bound", 0.5 * (band[-1][1] - band[0][0]))):
            object.__setattr__(self, name, value)

    def j(self, eps):
        """J at the float array eps, 0 off the bands."""
        out = np.interp(eps, self.grid_array, self.values_array, 0.0, 0.0)
        mask = np.zeros(eps.shape, dtype=bool)
        for lo, hi in self.band:
            mask |= (eps >= lo) & (eps <= hi)
        return np.where(mask, out, 0.0)

    def shift(self, eps):
        """PV transform (1/2pi) P int J(e')/(eps - e') de' in closed form.

        A tabulated J is piecewise linear, and the Hilbert transform of a
        linear cell is elementary: with slope b and value c at eps (the
        cell's own linear extension), the cell [x0, x1] contributes
        c*log|eps - x0| - c*log|eps - x1| - b*(x1 - x0).  Inside a band the
        log coefficients, summed over cells, telescope to the jump in c
        across each node, which vanishes linearly where J is continuous,
        so the formula is the principal value everywhere and stays finite
        right through the band.  Off a band no cell holds eps, and each log
        ratio would cancel against its -b*(x1 - x0); there, with
        d = eps - x1 and s = (x1 - x0)/d, the cell is
        J(x0)*log1p(s) + b*d*((1 + s) log1p(s) - s), which keeps full
        relative precision however far eps lies.  Within a cell width below
        x0 (s < -1/2) 1 + s would keep only the digits of eps - x0 that the
        rounding of s leaves, and none once it rounds to 0; there the log
        is log|eps - x0| - log|d| and 1 + s is (eps - x0)/d, so the shift
        keeps its precision up to the band and is finite at every float off
        it.  Inside a band the cells' rounding adds up: on the 4001-node
        tabulated semicircle the result is 1.5e-14 relative off a 40-digit
        cell sum at eps = 0.7 (6.8e-16 at eps = -1.3).
        A scalar eps gives a float, an array an array of its shape.
        """
        eps = np.asarray(eps, dtype=float)
        flat = eps.ravel()
        total = np.zeros(flat.size)
        for (lo, hi), (x, jv, dx, b, _) in zip(self.band, self.cells):
            shift = np.sum(b * dx)
            step = max(1, oscquad._SLAB // x.size)
            inside = (flat >= lo) & (flat <= hi)
            # every product is formed in place in its own slab: this sum is
            # what a dense table's u0 spends its time on, one row per
            # quadrature node
            rows = np.flatnonzero(inside)
            for i in range(0, rows.size, step):
                r = rows[i:i + step]
                d = flat[r, None] - x
                c = b * d[:, :-1]
                c += jv[:-1]
                logs = np.abs(d)
                # 0*log(0) at a node is the correct PV limit; mask the log
                at_node = logs == 0.0
                np.maximum(logs, 1e-300, out=logs)
                np.log(logs, out=logs)
                logs[at_node] = 0.0
                c *= logs[:, :-1] - logs[:, 1:]
                total[r] += np.sum(c, axis=1) - shift
            rows = np.flatnonzero(~inside)
            for i in range(0, rows.size, step):
                r = rows[i:i + step]
                d = flat[r, None] - x[1:]
                s = dx / d
                with np.errstate(divide="ignore", invalid="ignore"):
                    log1p, excess = np.log1p(s), _excess(s)
                below = s < -0.5
                if below.any():
                    near = (flat[r, None] - x[:-1])[below]
                    log1p[below] = np.log(np.abs(near)) - np.log(-d[below])
                    excess[below] = near / d[below] * log1p[below] - s[below]
                total[r] += np.sum(jv[:-1] * log1p + b * d * excess, axis=1)
        total /= 2.0 * np.pi
        if eps.ndim == 0:
            return float(total[0])
        return total.reshape(eps.shape)

    def shift_slope(self, eps):
        """d/d eps of `shift`'s cell sum, exactly (scalar eps).

        Differentiating c*log|eps - x0| - c*log|eps - x1| per cell gives
        the slope times the log ratio plus c*(1/(eps - x0) - 1/(eps - x1)).
        J is continuous inside a band, so neighbouring cells' lines meet at
        each interior node and the c/(eps - x) terms telescope to the
        band's own ends, J(lo)/(eps - lo) - J(hi)/(eps - hi).  The log
        ratio is log|1 + r| with r = (x1 - x0)/(eps - x1), taken by log1p,
        so it keeps full relative precision where it is small, and as in
        `shift`, log|eps - x0| - log|eps - x1|, where r < -1/2 (in the
        cell or within its width below it).

        Exactly at a table node the log ratios of its two cells meet as
        +inf and -inf.  Regrouped by node, the log terms are
        sum_k (b_k - b_{k-1}) log|eps - x_k|, so the value is -inf times
        the slope jump there, or the finite rest of that sum if the slope
        does not jump.
        """
        total = 0.0
        for (lo, hi), (x, jv, dx, b, jumps) in zip(self.band, self.cells):
            # not finite at a band edge, where the slope jump decides
            with np.errstate(divide="ignore", invalid="ignore"):
                ends = jv[0] / (eps - lo) - jv[-1] / (eps - hi)
            hit = np.flatnonzero(x == eps)
            if hit.size:
                if jumps[hit[0]] != 0.0:
                    return -math.copysign(math.inf, jumps[hit[0]])
                rest = np.delete(np.arange(x.size), hit[0])
                total += (float(jumps[rest] @ np.log(np.abs(eps - x[rest])))
                          + ends)
                continue
            with np.errstate(divide="ignore", invalid="ignore"):
                r = dx / (eps - x[1:])
                log_ratio = np.log1p(r)
            near = r < -0.5
            log_ratio[near] = (np.log(np.abs(eps - x[:-1][near]))
                               - np.log(np.abs(eps - x[1:][near])))
            total += float(b @ log_ratio) + ends
        return total / (2.0 * np.pi)

    def edge_shift(self, edge, side):
        """Delta's limit at a band edge from outside, side +1 above an upper
        edge and -1 below a lower one: side inf where J(edge) > 0 (Delta
        goes like J(edge) log|eps - edge| / 2pi), else the sum at the edge."""
        if np.interp(edge, self.grid_array, self.values_array, 0.0, 0.0) > 0:
            return math.copysign(math.inf, side)
        return self.shift(edge)

    def gauss_star(self, sites):
        """Per-cell Gauss-Legendre nodes of the table and their couplings
        sqrt(J w / 2 pi), exact for the first `sites` chain coefficients.
        The orthogonal polynomials' zeros crowd to the band edges like the
        arcsine law, and a cell needs nodes for the zeros it holds
        (_NODES_PER_SITE)."""
        # imported here, so that importing spectral leaves numpy.polynomial out
        from numpy.polynomial.legendre import leggauss

        energies, weights = [], []
        for (lo, hi), (x, _, width, _, _) in zip(self.band, self.cells):
            cdf = np.arccos(np.clip((lo + hi - 2.0 * x) / (hi - lo),
                                    -1.0, 1.0))
            m = np.minimum(sites + 1, _NODE_FLOOR + np.ceil(
                _NODES_PER_SITE * (sites + 1) * np.diff(cdf)
                / np.pi).astype(int))
            half = 0.5 * width
            for k in np.unique(m):
                t, w = leggauss(k)
                cells = m == k
                energies.append(((x[:-1] + half)[cells, None]
                                 + half[cells, None] * t).ravel())
                weights.append((half[cells, None] * w).ravel())
        e = np.concatenate(energies)
        return e, np.sqrt(self.j(e) * np.concatenate(weights) / (2.0 * np.pi))

    def chain(self, sites, span):
        """(c0, a, b) over span, by Lanczos on the `sites`-site star."""
        return _lanczos(*self.gauss_star(sites), span)


def _check_band(band, name):
    """Refuse band intervals whose edges are not two finite, distinct
    floats (lo < hi), naming the field they come from."""
    for lo, hi in band:
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ConfigError(f"{name}: band interval ({lo:g}, {hi:g}) needs "
                              f"two finite edges lo < hi")


def _off_band_root(ax, r):
    """sqrt(x^2 - r^2) / |x| at ax = |x| >= r, as
    sqrt((|x| - r)/|x| * (1 + r/|x|)): |x| - r is exact near an edge, and
    nothing squares x, so it keeps full precision near the band and far
    from it (x^2 overflows past |x| ~ 1.3e154)."""
    return np.sqrt((ax - r) / ax * (1.0 + r / ax))


def _excess(s):
    """(1 + s) log1p(s) - s for s > -1, to full relative precision: by its
    series s^2 sum_m (-s)^m / ((m + 1)(m + 2)) where |s| < 0.1, where the
    two terms would cancel."""
    out = (1.0 + s) * np.log1p(s) - s
    small = np.abs(s) < 0.1
    if small.any():
        x = s[small]
        acc = np.zeros_like(x)
        for m in range(15, -1, -1):
            acc = acc * -x + 1.0 / ((m + 1) * (m + 2))
        out[small] = x * x * acc
    return out


def _lanczos(e, couplings, span):
    """(c0, a, b) of the star diag(e) with couplings, by plain Lanczos
    from the couplings: the level couples to chain site 1 with c0, site k
    has on-site a_k and hops to k+1 with b_k.  It stops at L >= b_max *
    span + CHAIN_MARGIN, or with every coupled mode (the whole star)."""
    c0 = float(np.linalg.norm(couplings))
    n_coupled = int(np.count_nonzero(couplings))
    a, b = [], []
    if n_coupled:
        v, v_prev, b_prev, b_max = couplings / c0, 0.0, 0.0, 0.0
        while True:
            w = e * v
            a.append(float(v @ w))
            if len(a) == n_coupled:
                break
            w -= a[-1] * v + b_prev * v_prev
            b_prev = float(np.linalg.norm(w))
            b_max = max(b_max, b_prev)
            if len(a) >= b_max * span + CHAIN_MARGIN:
                break
            b.append(b_prev)
            v_prev, v = v, w / b_prev
    return c0, a, b


@dataclass(frozen=True)
class BoundState:
    energy: float
    residue: float


@dataclass(frozen=True)
class SystemSpectrum:
    """Discrete + continuum decomposition of the coupled level.

    sum_rule is the total spectral weight (residues plus the continuum
    weight `band_spectral_function` integrated over 2 pi) and must come
    out 1.
    """

    bound: tuple
    sum_rule: float


def eval_j(sd, eps):
    """Spectral density at eps (vectorized, zero outside the band)."""
    out = sd.j(np.asarray(eps, dtype=float))
    if out.ndim == 0:
        return float(out)
    return out


def self_energy(sd, eps):
    """Sigma(eps + i0) = Delta(eps) - i J(eps)/2 at real eps: a complex at
    a scalar eps, a complex array of its shape at an array."""
    eps = np.asarray(eps, dtype=float)
    out = sd.shift(eps) - 0.5j * sd.j(eps)
    if np.ndim(out) == 0:
        return complex(out)
    return out


def self_energy_derivative(sd, eps):
    """d Delta / d eps at real eps, the density's `shift_slope`, at every
    eps: -inf where it diverges (a semicircle edge met from outside), and
    -+inf at a table node where the slope jumps."""
    if sd.decoupled:
        return 0.0
    return sd.shift_slope(float(eps))


def _bisect(f, a, b, xtol, negative=None):
    """A sign change of f inside [a, b] (f(a) and f(b) of opposite sign).

    Halves the bracket until it is at most xtol wide, or until the midpoint
    no longer falls strictly inside it (xtol below the float spacing).
    negative, if given, says that f is negative at a, which is then not
    evaluated.
    """
    if negative is None:
        negative = f(a) < 0.0
    m = 0.5 * (a + b)
    while b - a > xtol and a < m < b:
        if (f(m) < 0.0) == negative:
            a = m
        else:
            b = m
        m = 0.5 * (a + b)
    return m


def find_bound_states(sd, eps_on):
    """Discrete levels of the coupled system outside the band.

    Solves phi(eps) = eps - eps_on - Delta(eps) = 0 on each gap region.
    Delta is strictly decreasing off the band, so phi is increasing and
    each gap holds at most one root: exactly when phi's limits at the
    gap's ends straddle 0, by the density's `edge_shift` at a band edge
    and -inf, +inf at the open ends.  A level at a threshold, where a
    limit is 0, is not bound.  The root is bisected to TOL_ROOT on
    phi(a) < 0 < phi(b), a and b EDGE_COLLAR inside the gap's edges.  The
    unbounded gaps get a closed-form bracket: off the band
    |Delta(eps)| <= g0 / dist(eps, band), with g0 the total weight, so phi
    changes sign within reach = sqrt(g0) + 1 past max(eps_on, band top)
    (or below min(eps_on, band bottom)), or one float past it where reach
    is below the float spacing there.  Near a threshold the binding energy
    grows like (eps_on - eps_c)^2, so where phi changes sign inside the
    collar the root is bisected there, to the float spacing and never onto
    the edge.  Residues are 1/(1 - Delta'(eps_l)), from the density's
    `shift_slope`; Delta' diverges at an edge, so a state near one has Z
    near 0.

    Returns BoundState list sorted by energy (possibly empty).
    """
    # the one decoupled answer the gap search cannot give: with J = 0 the
    # level is bound wherever it sits, inside the band too
    if sd.decoupled:
        return [BoundState(float(eps_on), 1.0)]

    def phi(e):
        return e - eps_on - sd.shift(e)

    def past(e, step):
        # e + step, or the next float beyond e where step rounds away
        if e + step != e:
            return e + step
        return math.nextafter(e, math.copysign(math.inf, step))

    reach = math.sqrt(sd.weight) + 1.0
    roots = []
    # the bands are sorted and disjoint, so between the flat list of their
    # edges lie the gaps: (-inf, lo_0), (hi_0, lo_1), ..., (hi_last, inf);
    # a gap's lower end is a band's upper edge, met from above
    edges = [-math.inf, *(e for lohi in sd.band for e in lohi), math.inf]
    for lo, hi in zip(edges[::2], edges[1::2]):
        low = (lo - eps_on - sd.edge_shift(lo, 1.0) if np.isfinite(lo)
               else -math.inf)
        high = (hi - eps_on - sd.edge_shift(hi, -1.0) if np.isfinite(hi)
                else math.inf)
        if not (lo < hi and low < 0.0 < high):
            continue
        collar = min(EDGE_COLLAR, 0.25 * (hi - lo))
        a = (lo + collar if np.isfinite(lo)
             else past(min(eps_on, hi), -reach))
        b = (hi - collar if np.isfinite(hi)
             else past(max(eps_on, lo), reach))
        xtol = TOL_ROOT
        if not phi(a) < 0.0:
            a, b, xtol = lo, a, 0.0
        elif not 0.0 < phi(b):
            a, b, xtol = b, hi, 0.0
        # phi rises, so it is negative at a (at an edge, by its limit)
        root = _bisect(phi, a, b, xtol, negative=True)
        # a midpoint within a float of an edge can round onto it
        root = min(max(root, math.nextafter(lo, hi)), math.nextafter(hi, lo))
        residue = 1.0 / (1.0 - sd.shift_slope(root))
        roots.append(BoundState(float(root), float(residue)))
    return sorted(roots, key=lambda s: s.energy)


def band_spectral_function(sd, eps_on, eps):
    """Continuum weight J / [(eps - eps_on - Delta)^2 + J^2/4] (vectorized)."""
    eps = np.asarray(eps, dtype=float)
    j = np.asarray(eval_j(sd, eps))
    delta = np.asarray(sd.shift(eps))
    # a level far off the band squares to inf, and the weight to its
    # limit 0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        denom = (eps - eps_on - delta) ** 2 + 0.25 * j * j
        out = np.where(j > 0.0, j / denom, 0.0)
    if out.ndim == 0:
        return float(out)
    return out


def _band_resonances(sd, eps_on):
    """Roots of eps - eps_on - Delta inside the band (sharp continuum peaks).

    Each band is scanned on 513 points; a sign change between two of them
    is bisected to 1e-10, and a point where the function is exactly zero
    is a root itself, so the cells beside it are not searched again.
    """
    pts = []
    f = lambda e: e - eps_on - sd.shift(e)
    for lo, hi in sd.band:
        grid = np.linspace(lo + EDGE_COLLAR, hi - EDGE_COLLAR, 513)
        sign = np.sign(grid - eps_on - sd.shift(grid))
        pts.extend(grid[sign == 0.0])
        for i in np.flatnonzero(sign[:-1] * sign[1:] < 0.0):
            pts.append(_bisect(f, grid[i], grid[i + 1], 1e-10))
    return sorted(pts)


# the edge ladder of `_edge_breaks`: where |phi(edge)| < _EDGE_NEAR band
# widths, breaks at edge -+ k for k = _EDGE_START max(|edge|, width) (a few
# floats) times powers of _EDGE_RATIO below a quarter of the band.
# Integrand evaluations of `spectrum` plus `compute_u0` (501 times to t =
# 50), summed over 13 levels within 1e-3 of a threshold (`Semicircle()` at
# 1 -+ 1e-3 ... 1e-6 and 1 - 1e-7; a two-band 9-node table at eps_c -+
# 1e-3, eps_c + 1e-5 and eps_c - 1e-7; 10 million with no ladder, and one
# failed), over starts 2^-52 ... 2^-40: ratio 2 / 4 / 8 / 16 / 32 took
# 107-130k / 64-78k / 44-63k / 63-73k / 56-69k, each sum rule within
# 1e-10 but at a start of 2^-42 with ratios 2-8 (1 - 1e-7: 1.05e-10 at
# ratio 8).  A start of 2^-36 took 25x more at 1 -+ 1e-9.
# Summed over both sides of both densities, at |phi(edge)| of 3e-3 / 5e-3
# / 1e-2 band widths the ladder took 29 920 evaluations against 37 632 /
# 25 472 / 15 424 without it
_EDGE_NEAR = 4e-3
_EDGE_START = 2.0 ** -50
_EDGE_RATIO = 8.0


def _edge_breaks(sd, eps_on, lo, hi):
    """Breaks inside [lo, hi] at each of its edges near a threshold.

    Near a threshold, phi(edge) = edge - eps_on - `edge_shift` is small,
    and the continuum weight peaks within a distance of the edge that
    shrinks with phi(edge): like phi^2 beside a semicircle's square-root
    edge, like phi beside a table edge where J is zero.  The ladder of
    breaks edge -+ k, geometric in k, puts a piece end at every scale from
    a few floats off the edge to a quarter of the band, so that peak, at
    whatever scale, sits in a piece not much wider than its distance to
    the edge, where the angle substitution resolves it with few nodes.
    """
    out = []
    for edge, side in ((lo, -1.0), (hi, 1.0)):
        phi = edge - eps_on - sd.edge_shift(edge, side)
        if abs(phi) < _EDGE_NEAR * (hi - lo):
            k = _EDGE_START * max(abs(edge), hi - lo)
            while k < 0.25 * (hi - lo):
                out.append(edge - side * k)
                k *= _EDGE_RATIO
    return out


def _spectral_sum(sd, eps_on, times, tol):
    """(bound states, sum_l Z_l e^{-i eps_l t} + (1/2pi) sum_bands
    int A(e) e^{-iet} de) at the given times, each band integral to tol.

    Every band is broken at its interior resonances, where the continuum
    weight peaks, at its density's breaks and, at an edge near a
    threshold, on the edge ladder (`_edge_breaks`).  A band integral that
    does not converge raises QuadratureFailure.
    """
    bound = find_bound_states(sd, eps_on)
    out = phase_sum([s.energy for s in bound], [s.residue for s in bound],
                    times)
    f = lambda e: band_spectral_function(sd, eps_on, e)
    resonances = _band_resonances(sd, eps_on)
    for i, (lo, hi) in enumerate(sd.band):
        breaks = np.concatenate((resonances, sd.breaks[i],
                                 _edge_breaks(sd, eps_on, lo, hi)))
        out += (angle_band_integral(f, lo, hi, times, tol=tol, breaks=breaks)
                / (2.0 * np.pi))
    return bound, out


def spectrum(sd, eps_on):
    """Bound states plus a sum-rule check of the full spectral weight.

    The sum rule is the spectral sum at t = 0, its band integrals to 1e-10:
    the bound-state residues plus the continuum weight over 2 pi.  An
    integral that does not converge raises QuadratureFailure.
    """
    bound, total = _spectral_sum(sd, eps_on, np.zeros(1), 1e-10)
    return SystemSpectrum(tuple(bound), float(total[0].real))


def compute_u0(sd, eps_on, times):
    """Drive-free survival amplitude u0 at the given times (t0 = 0).

    The spectral sum at the given times, its band integrals to U0_TOL: the
    bound-state phases Z_l exp(-i eps_l t) plus the continuum integral of
    each band.  u0 is an overlap of two normalized states, so a non-finite
    value or max|u0| above 1 (plus U0_BOUND_SLACK) means the quadrature
    failed and raises QuadratureFailure; so does, when t = 0 is among the
    times, a sum rule |u0(0) - 1| above U0_BOUND_SLACK, which sees
    continuum weight the quadrature lost.
    """
    times = np.asarray(times, dtype=float)
    out = _spectral_sum(sd, eps_on, times, U0_TOL)[1]
    peak = np.max(np.abs(out), initial=0.0)
    if not peak <= 1.0 + U0_BOUND_SLACK:
        raise QuadratureFailure(
            f"u0 breaks |u0| <= 1: max|u0| = {peak!r}")
    start = out[times == 0.0]
    if start.size and not abs(start[0] - 1.0) <= U0_BOUND_SLACK:
        raise QuadratureFailure(
            f"u0 breaks the sum rule: u0(0) = {start[0]!r}")
    return out
