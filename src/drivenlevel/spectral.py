"""Reservoir spectral densities and the static spectral problem.

A single level at on-site energy eps_on hybridizes with a reservoir whose
coupling-weighted density of states is J(eps).  Everything static about the
coupled system follows from J: the level-shift function Delta(eps) (a
principal-value transform of J), discrete levels split off outside the band
where eps - eps_on - Delta(eps) = 0, their residues, the continuum spectral
weight, and the free survival amplitude u0(t).

Two J variants are provided: a semicircle band, for which Delta and the
propagator kernel have closed forms, and a tabulated J on a grid, linear
between nodes, whose Delta is summed exactly cell by cell.  Levels are
found by bisection on closed-form brackets, so numpy is the only
dependency.  hbar = 1; the system's bare energy is absorbed into eps_on by
the callers.

The sum rule and u0 are one spectral sum, `_spectral_sum`: the bound
states' Z e^{-iEt} plus (1/2pi) times one `oscquad.angle_band_integral`
per band, the sum rule at t = 0 to 1e-10 and u0 at its times to U0_TOL.
Every band is broken at the same points, by one rule: its interior
resonances and its thinned table kinks.  A level inside the band leaves
one continuum peak, at the root of eps - eps_on - Delta, whose width
shrinks like eta^2 at weak coupling; at a break the angle substitution
clusters nodes, so the peak costs few nodes however narrow it is.  A
table's continuum weight has a kink at every node (J's slope jumps
there, and Delta picks up (x - x_k) log|x - x_k|), thinned to at most
_MAX_PIECES pieces for dense tables.  In a band of at most _MAX_PIECES
cells every kink then sits at a piece end, and the doubling converges
fast instead of stopping on an accidental agreement.  A denser band
keeps weak kinks inside its pieces, which converge only algebraically
and cost extra doublings.  On 20 001 times in [0, 200], a semicircle
level in the band at eta 0.05 / 0.02 / 0.01 / 0.005 ends at 3 264 /
6 528 / 13 056 / 26 112 final nodes; unbroken at the peak it took
25 600 / 204 800 / 819 200 nodes and failed at 0.005.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import oscquad
from .errors import ConfigError, QuadratureFailure, TooCloseToBandEdge
from .oscquad import angle_band_integral, phase_sum

EDGE_COLLAR = 1e-6          # roots this close to a band edge are spurious
DERIVATIVE_FLOOR = 1e-9     # refuse derivative evaluation closer than this
TOL_ROOT = 1e-12
U0_BOUND_SLACK = 1e-6       # |u0| <= 1 by the sum rule; quadrature slack
U0_TOL = 1e-8               # relative tolerance of each u0 band integral
_MAX_PIECES = 64            # pieces a table band is broken into, at most


@dataclass(frozen=True)
class Semicircle:
    """J(eps) = eta^2 sqrt((2 v0)^2 - (eps - eps0)^2) on its support.

    eta scales the hybridization, eps0 centers the band, v0 sets the half
    bandwidth 2*v0.  eta = 0 is the decoupled limit.  A density whose
    (2 v0)^2 or total weight eta^2 v0^2 overflows, or whose band edges
    eps0 -+ 2 v0 are not two finite floats, is refused.
    """

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

    @property
    def band(self):
        r = 2.0 * self.v0
        return ((self.eps0 - r, self.eps0 + r),)


@dataclass(frozen=True)
class Tabulated:
    """J given by samples on a strictly ascending grid, linear in between.

    band lists the closed support interval(s); J is zero outside them.
    """

    grid: tuple
    values: tuple
    band: tuple

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if g.ndim != 1 or g.size < 2 or v.shape != g.shape:
            raise ConfigError("grid and values must be matching 1-d sequences")
        if np.any(np.diff(g) <= 0.0):
            raise ConfigError("grid must be strictly ascending")
        if np.any(v < 0.0):
            raise ConfigError("spectral density must be nonnegative")
        band = tuple((float(lo), float(hi)) for lo, hi in self.band)
        _check_band(band, "band")
        if any(band[i][1] > band[i + 1][0] for i in range(len(band) - 1)):
            raise ConfigError("band intervals must be disjoint and sorted")
        object.__setattr__(self, "grid", tuple(float(x) for x in g))
        object.__setattr__(self, "values", tuple(float(x) for x in v))
        object.__setattr__(self, "band", band)
        with np.errstate(over="ignore"):
            weight = total_weight(self)
        if not math.isfinite(weight):
            raise ConfigError(f"values overflow: the total weight "
                              f"(1/2pi) int J is {weight}")


def _check_band(band, name):
    """Refuse band intervals whose edges are not two finite, distinct
    floats (lo < hi), naming the field they come from."""
    for lo, hi in band:
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ConfigError(f"{name}: band interval ({lo:g}, {hi:g}) needs "
                              f"two finite edges lo < hi")


@dataclass(frozen=True)
class SelfEnergyValue:
    """Retarded self-energy split as Sigma = delta - i*j/2."""

    delta: float
    j: float


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


def is_decoupled(sd):
    """True when J vanishes identically (no reservoir coupling)."""
    if isinstance(sd, Semicircle):
        return sd.eta == 0.0
    return all(v == 0.0 for v in sd.values)


def eval_j(sd, eps):
    """Spectral density at eps (vectorized, zero outside the band)."""
    eps = np.asarray(eps, dtype=float)
    if isinstance(sd, Semicircle):
        x = eps - sd.eps0
        r = 2.0 * sd.v0
        out = sd.eta ** 2 * np.sqrt(np.maximum(r * r - x * x, 0.0))
        out = np.where(np.abs(x) <= r, out, 0.0)
    else:
        out = np.interp(eps, sd.grid, sd.values, left=0.0, right=0.0)
        mask = np.zeros(eps.shape, dtype=bool)
        for lo, hi in sd.band:
            mask |= (eps >= lo) & (eps <= hi)
        out = np.where(mask, out, 0.0)
    if out.ndim == 0:
        return float(out)
    return out


def total_weight(sd):
    """(1/2pi) integral of J; equals the t=0 memory-kernel value."""
    if isinstance(sd, Semicircle):
        return sd.eta ** 2 * sd.v0 ** 2
    # trapezoid over the table nodes is exact for the interpolant
    total = 0.0
    for lo, hi in sd.band:
        x, jv = _interval_nodes(sd, lo, hi)
        total += float(np.trapezoid(jv, x))
    return total / (2.0 * np.pi)


def _nearest_edge_distance(sd, eps):
    edges = [e for lohi in sd.band for e in lohi]
    return min(abs(eps - e) for e in edges)


def _delta_semicircle(sd, eps):
    """Closed-form level shift; linear inside the band, decaying outside."""
    x = np.asarray(eps, dtype=float) - sd.eps0
    r = 2.0 * sd.v0
    half = 0.5 * sd.eta ** 2
    outside = half * (x - np.sign(x) * np.sqrt(np.maximum(x * x - r * r, 0.0)))
    out = np.where(np.abs(x) <= r, half * x, outside)
    if out.ndim == 0:
        return float(out)
    return out


def _interval_nodes(sd, lo, hi):
    grid = np.asarray(sd.grid, dtype=float)
    inner = grid[(grid > lo) & (grid < hi)]
    nodes = np.concatenate(([lo], inner, [hi]))
    return nodes, eval_j(sd, nodes)


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


def _delta_tabulated(sd, eps):
    """PV transform (1/2pi) P int J(e')/(eps - e') de' in closed form.

    A tabulated J is piecewise linear, and the Hilbert transform of a
    linear cell is elementary: with slope b and value c at eps (the cell's
    own linear extension), the cell [x0, x1] contributes
    c*log|eps - x0| - c*log|eps - x1| - b*(x1 - x0).  Inside a band the
    log coefficients, summed over cells, telescope to the jump in c across
    each node, which vanishes linearly where J is continuous, so the
    formula is the principal value everywhere and stays finite right
    through the band.  Off a band no cell holds eps, and each log ratio
    would cancel against its -b*(x1 - x0); there, with d = eps - x1 and
    s = (x1 - x0)/d, the cell is J(x0)*log1p(s) + b*d*((1 + s) log1p(s) - s),
    which keeps full relative precision however far eps lies.  Inside a
    band the cells' rounding adds up: on the 4001-node tabulated
    semicircle the result is 1.5e-14 relative off a 40-digit cell sum at
    eps = 0.7 (6.8e-16 at eps = -1.3).
    A scalar eps gives a float, an array an array of its shape.
    """
    eps = np.asarray(eps, dtype=float)
    flat = eps.ravel()
    total = np.zeros(flat.size)
    for lo, hi in sd.band:
        x, jv = _interval_nodes(sd, lo, hi)
        dx = np.diff(x)
        b = np.diff(jv) / dx
        shift = np.sum(b * dx)
        step = max(1, oscquad._SLAB // x.size)
        inside = (flat >= lo) & (flat <= hi)
        # every product is formed in place in its own slab: this sum is what
        # a dense table's u0 spends its time on, one row per quadrature node
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
            total[r] += np.sum(jv[:-1] * np.log1p(s) + b * d * _excess(s),
                               axis=1)
    total /= 2.0 * np.pi
    if eps.ndim == 0:
        return float(total[0])
    return total.reshape(eps.shape)


def _delta_tabulated_derivative(sd, eps):
    """d/d eps of `_delta_tabulated`'s cell sum, exactly (scalar eps).

    Differentiating c*log|eps - x0| - c*log|eps - x1| per cell gives the
    slope times the log ratio plus c*(1/(eps - x0) - 1/(eps - x1)).  J is
    continuous inside a band, so neighbouring cells' lines meet at each
    interior node and the c/(eps - x) terms telescope to the band's own
    ends, J(lo)/(eps - lo) - J(hi)/(eps - hi).  The log ratio is
    log|1 + r| with r = (x1 - x0)/(eps - x1), taken by log1p off the cell,
    so it keeps full relative precision where it is small.

    Exactly at a table node the log ratios of its two cells meet as +inf
    and -inf.  Regrouped by node, the log terms are
    sum_k (b_k - b_{k-1}) log|eps - x_k|, so the value is -inf times the
    slope jump there, or the finite rest of that sum if the slope does not
    jump.
    """
    total = 0.0
    for lo, hi in sd.band:
        x, jv = _interval_nodes(sd, lo, hi)
        dx = np.diff(x)
        b = np.diff(jv) / dx
        ends = jv[0] / (eps - lo) - jv[-1] / (eps - hi)
        hit = np.flatnonzero(x == eps)
        if hit.size:
            jumps = np.diff(np.concatenate(([0.0], b, [0.0])))
            if jumps[hit[0]] != 0.0:
                return -math.copysign(math.inf, jumps[hit[0]])
            rest = np.delete(np.arange(x.size), hit[0])
            total += float(jumps[rest] @ np.log(np.abs(eps - x[rest]))) + ends
            continue
        with np.errstate(divide="ignore", invalid="ignore"):
            r = dx / (eps - x[1:])
            log_ratio = np.where(r > -1.0, np.log1p(r), np.log(-1.0 - r))
        total += float(b @ log_ratio) + ends
    return total / (2.0 * np.pi)


def _delta(sd, eps):
    """Level shift Delta at eps: a float for a scalar, else an array."""
    if isinstance(sd, Semicircle):
        return _delta_semicircle(sd, eps)
    return _delta_tabulated(sd, eps)


def self_energy(sd, eps):
    """SelfEnergyValue at real eps: level shift and local J."""
    delta = _delta(sd, float(eps))
    return SelfEnergyValue(float(delta), float(eval_j(sd, eps)))


def self_energy_derivative(sd, eps):
    """d Delta / d eps at real eps.

    Diverges at band edges, so evaluation inside DERIVATIVE_FLOOR of an
    edge raises TooCloseToBandEdge.  A table's derivative also diverges,
    logarithmically, at an interior node where its slope jumps; exactly
    at such a node it is the signed infinity of that divergence.
    """
    if is_decoupled(sd):
        return 0.0
    eps = float(eps)
    dist = _nearest_edge_distance(sd, eps)
    if dist < DERIVATIVE_FLOOR:
        raise TooCloseToBandEdge(
            f"eps={eps} is within {dist:.2e} of a band edge")
    if isinstance(sd, Semicircle):
        x = eps - sd.eps0
        r = 2.0 * sd.v0
        half = 0.5 * sd.eta ** 2
        if abs(x) <= r:
            return half
        return half * (1.0 - abs(x) / math.sqrt(x * x - r * r))
    return _delta_tabulated_derivative(sd, eps)


def _gap_regions(sd):
    """Open complement of the band: (-inf, lo0), interior gaps, (hi_last, inf)."""
    ivals = sorted(sd.band)
    gaps = [(-np.inf, ivals[0][0])]
    for (a_lo, a_hi), (b_lo, b_hi) in zip(ivals, ivals[1:]):
        gaps.append((a_hi, b_lo))
    gaps.append((ivals[-1][1], np.inf))
    return gaps


def _bisect(f, a, b, xtol):
    """A sign change of f inside [a, b] (f(a) and f(b) of opposite sign).

    Halves the bracket until it is at most xtol wide, or until the midpoint
    no longer falls strictly inside it (xtol below the float spacing).
    """
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
    each gap holds at most one root, bracketed by phi(a) < 0 < phi(b) and
    refined by bisection to TOL_ROOT.  The unbounded gaps get a closed-form
    bracket: off the band |Delta(eps)| <= g0 / dist(eps, band), with g0 the
    total weight, so phi changes sign within reach = sqrt(g0) + 1 past
    max(eps_on, band top) (or below min(eps_on, band bottom)).  Roots
    inside EDGE_COLLAR of an edge are discarded as spurious.  Residues are
    1/(1 - Delta'(eps_l)).

    Returns BoundState list sorted by energy (possibly empty).
    """
    # the one decoupled answer the gap search cannot give: with J = 0 the
    # level is bound wherever it sits, inside the band too
    if is_decoupled(sd):
        return [BoundState(float(eps_on), 1.0)]

    def phi(e):
        return e - eps_on - _delta(sd, e)

    reach = math.sqrt(total_weight(sd)) + 1.0
    roots = []
    for lo, hi in _gap_regions(sd):
        a = lo + EDGE_COLLAR if np.isfinite(lo) else min(eps_on, hi) - reach
        b = hi - EDGE_COLLAR if np.isfinite(hi) else max(eps_on, lo) + reach
        if not phi(a) < 0.0 < phi(b):
            continue
        root = _bisect(phi, a, b, TOL_ROOT)
        if _nearest_edge_distance(sd, root) <= EDGE_COLLAR:
            continue
        residue = 1.0 / (1.0 - self_energy_derivative(sd, root))
        roots.append(BoundState(float(root), float(residue)))
    return sorted(roots, key=lambda s: s.energy)


def band_spectral_function(sd, eps_on, eps):
    """Continuum weight J / [(eps - eps_on - Delta)^2 + J^2/4] (vectorized)."""
    eps = np.asarray(eps, dtype=float)
    j = np.asarray(eval_j(sd, eps))
    delta = np.asarray(_delta(sd, eps))
    denom = (eps - eps_on - delta) ** 2 + 0.25 * j * j
    with np.errstate(divide="ignore", invalid="ignore"):
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
    f = lambda e: e - eps_on - _delta(sd, e)
    for lo, hi in sd.band:
        grid = np.linspace(lo + EDGE_COLLAR, hi - EDGE_COLLAR, 513)
        sign = np.sign(grid - eps_on - _delta(sd, grid))
        pts.extend(grid[sign == 0.0])
        for i in np.flatnonzero(sign[:-1] * sign[1:] < 0.0):
            pts.append(_bisect(f, grid[i], grid[i + 1], 1e-10))
    return sorted(pts)


def _table_breaks(sd, lo, hi):
    """Interior table nodes of the band [lo, hi], where the continuum weight
    has its kinks; none for a semicircle.

    A band of more than _MAX_PIECES cells would pay a GL-16 panel per cell,
    so it keeps only the node at or above each angle k pi / _MAX_PIECES of
    the band's own substitution x = c - w cos(phi): pieces equal in angle,
    crowded toward the edges, where a square-root edge bends the table most
    and its slope jumps are largest.  The kinks left inside the pieces are
    weak, but they converge only algebraically: a 4001-node semicircle
    table's u0 to t = 50 ends at 8192 nodes.
    """
    if isinstance(sd, Semicircle):
        return np.empty(0)
    x = _interval_nodes(sd, lo, hi)[0]
    if x.size - 1 <= _MAX_PIECES:
        return x[1:-1]
    phi = np.pi * np.arange(1, _MAX_PIECES) / _MAX_PIECES
    at = 0.5 * (lo + hi) - 0.5 * (hi - lo) * np.cos(phi)
    return x[np.searchsorted(x, at)]


def _spectral_sum(sd, eps_on, times, tol):
    """(bound states, sum_l Z_l e^{-i eps_l t} + (1/2pi) sum_bands
    int A(e) e^{-iet} de) at the given times, each band integral to tol.

    Every band is broken at its interior resonances, where the continuum
    weight peaks, and at its table kinks.  A band integral that does not
    converge raises QuadratureFailure.
    """
    bound = find_bound_states(sd, eps_on)
    out = phase_sum([s.energy for s in bound], [s.residue for s in bound],
                    times)
    f = lambda e: band_spectral_function(sd, eps_on, e)
    resonances = _band_resonances(sd, eps_on)
    for lo, hi in sd.band:
        breaks = np.concatenate((resonances, _table_breaks(sd, lo, hi)))
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
    # every band is broken by the one rule of _spectral_sum: at its table
    # kinks, where the shift has an (x - x_k) log|x - x_k| term, and at its
    # resonance, a peak whose width shrinks like eta^2 (eta 0.01, level 0.5,
    # 20 001 times to t = 200: 13 056 final nodes broken there, 819 200
    # not).  A break is a piece end, where the angle substitution clusters
    # the nodes, so the doubling converges geometrically and two agreeing
    # levels mean a converged integral.  The weak kinks a dense table keeps
    # inside its _MAX_PIECES pieces converge only algebraically (a 4001-node
    # table ends 4e-10 off a node-split reference)
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
