"""Reservoir spectral densities and the static spectral problem.

A single level at on-site energy eps_on hybridizes with a reservoir whose
coupling-weighted density of states is J(eps).  Everything static about the
coupled system follows from J: the level-shift function Delta(eps) (a
principal-value transform of J), discrete levels split off outside the band
where eps - eps_on - Delta(eps) = 0, their residues, the continuum spectral
weight, and the free survival amplitude u0(t).

Two J variants are provided: a semicircle band, for which Delta and the
propagator kernel have closed forms, and a tabulated J on a grid, linear
between nodes, whose Delta is summed exactly cell by cell.  Band integrals
(the sum rule, u0) all go through `oscquad.angle_band_integral`, and levels
are found by bisection on closed-form brackets, so numpy is the only
dependency.  hbar = 1; the system's bare energy is absorbed into eps_on by
the callers.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureFailure, TooCloseToBandEdge
from .oscquad import angle_band_integral, phase_sum

EDGE_COLLAR = 1e-6          # roots this close to a band edge are spurious
DERIVATIVE_FLOOR = 1e-9     # refuse derivative evaluation closer than this
TOL_ROOT = 1e-12
U0_BOUND_SLACK = 1e-6       # |u0| <= 1 by the sum rule; quadrature slack
U0_TOL = 1e-8               # relative tolerance of each u0 band integral
_SLAB = 1 << 21             # elements per temporary in the tabulated shift


@dataclass(frozen=True)
class Semicircle:
    """J(eps) = eta^2 sqrt((2 v0)^2 - (eps - eps0)^2) on its support.

    eta scales the hybridization, eps0 centers the band, v0 sets the half
    bandwidth 2*v0.  eta = 0 is the decoupled limit and short-circuits to
    analytic answers everywhere.
    """

    eta: float
    eps0: float = 0.0
    v0: float = 1.0

    def __post_init__(self):
        if self.eta < 0.0:
            raise ValueError(f"eta must be >= 0, got {self.eta}")
        if self.v0 <= 0.0:
            raise ValueError(f"v0 must be positive, got {self.v0}")

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
            raise ValueError("grid and values must be matching 1-d sequences")
        if np.any(np.diff(g) <= 0.0):
            raise ValueError("grid must be strictly ascending")
        if np.any(v < 0.0):
            raise ValueError("spectral density must be nonnegative")
        band = tuple((float(lo), float(hi)) for lo, hi in self.band)
        for lo, hi in band:
            if hi <= lo:
                raise ValueError(f"empty band interval ({lo}, {hi})")
        if any(band[i][1] > band[i + 1][0] for i in range(len(band) - 1)):
            raise ValueError("band intervals must be disjoint and sorted")
        object.__setattr__(self, "grid", tuple(float(x) for x in g))
        object.__setattr__(self, "values", tuple(float(x) for x in v))
        object.__setattr__(self, "band", band)


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


def _delta_tabulated(sd, eps):
    """PV transform (1/2pi) P int J(e')/(eps - e') de', exactly (vectorized).

    A tabulated J is piecewise linear, and the Hilbert transform of a
    linear cell is elementary: with slope b and value c at eps (the cell's
    own linear extension), the cell [x0, x1] contributes
    c*log|eps - x0| - c*log|eps - x1| - b*(x1 - x0).  Summed over cells the
    log coefficients telescope to the jump in c across each node, which
    vanishes linearly where J is continuous, so the formula is the
    principal value everywhere and stays finite right through the band.
    A scalar eps gives a float, an array an array of its shape.
    """
    eps = np.asarray(eps, dtype=float)
    flat = eps.reshape(-1, 1)
    total = np.zeros(flat.shape[0])
    for lo, hi in sd.band:
        x, jv = _interval_nodes(sd, lo, hi)
        dx = np.diff(x)
        b = np.diff(jv) / dx
        step = max(1, _SLAB // x.size)
        for i in range(0, flat.shape[0], step):
            e = flat[i:i + step]
            c = jv[:-1] + b * (e - x[:-1])
            d = np.abs(e - x)
            # 0*log(0) at a node is the correct PV limit; mask the log
            logs = np.where(d > 0.0, np.log(np.maximum(d, 1e-300)), 0.0)
            total[i:i + step] += (np.sum(c * (logs[:, :-1] - logs[:, 1:]),
                                         axis=1) - np.sum(b * dx))
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
    if is_decoupled(sd):
        return SelfEnergyValue(0.0, 0.0)
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
    if is_decoupled(sd):
        return [BoundState(float(eps_on), 1.0)]

    def phi(e):
        return e - eps_on - (self_energy(sd, e).delta)

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
    """Roots of eps - eps_on - Delta inside the band (sharp continuum peaks)."""
    pts = []
    for lo, hi in sd.band:
        grid = np.linspace(lo + EDGE_COLLAR, hi - EDGE_COLLAR, 513)
        vals = grid - eps_on - _delta(sd, grid)
        f = lambda e: e - eps_on - self_energy(sd, e).delta
        for i in np.nonzero(np.diff(np.sign(vals)) != 0)[0]:
            pts.append(_bisect(f, grid[i], grid[i + 1], 1e-10))
    return pts


def spectrum(sd, eps_on):
    """Bound states plus a sum-rule check of the full spectral weight.

    The sum rule integrates the continuum weight with the angle quadrature
    at t = 0, each band split at its interior resonances (where the weight
    peaks sharply), and adds the bound-state residues.  An integral that
    does not converge raises QuadratureFailure.
    """
    if is_decoupled(sd):
        return SystemSpectrum((BoundState(float(eps_on), 1.0),), 1.0)
    bound = tuple(find_bound_states(sd, eps_on))
    f = lambda e: band_spectral_function(sd, eps_on, e)
    resonances = _band_resonances(sd, eps_on)
    cont = 0.0
    for lo, hi in sd.band:
        cuts = [lo] + sorted(p for p in resonances if lo < p < hi) + [hi]
        for a, b in zip(cuts, cuts[1:]):
            cont += angle_band_integral(f, a, b, 0.0, tol=1e-10).real
    total = sum(s.residue for s in bound) + cont / (2.0 * np.pi)
    return SystemSpectrum(bound, float(total))


def compute_u0(sd, eps_on, times):
    """Drive-free survival amplitude u0 at the given times (t0 = 0).

    Sum of bound-state phases Z_l exp(-i eps_l t) plus the oscillatory
    continuum integral over each band interval, each to U0_TOL.  u0 is an
    overlap of two normalized states, so a non-finite value or max|u0|
    above 1 (plus U0_BOUND_SLACK) means the quadrature failed and raises
    QuadratureFailure.
    """
    times = np.asarray(times, dtype=float)
    if is_decoupled(sd):
        out = np.exp(-1j * eps_on * times)
        return out
    bound = find_bound_states(sd, eps_on)
    out = phase_sum([s.energy for s in bound], [s.residue for s in bound],
                    times)
    for lo, hi in sd.band:
        f = lambda e: band_spectral_function(sd, eps_on, e)
        # one quadrature for every band: at semicircle edges the continuum
        # weight vanishes like sqrt, which the angle substitution makes
        # analytic; a tabulated weight is only piecewise smooth, but the
        # doubling still meets U0_TOL, and its node count follows the phase
        # range w * max|t| rather than the table, so dense tables stay cheap
        out += (angle_band_integral(f, lo, hi, times, tol=U0_TOL)
                / (2.0 * np.pi))
    peak = np.max(np.abs(out), initial=0.0)
    if not peak <= 1.0 + U0_BOUND_SLACK:
        raise QuadratureFailure(
            f"u0 breaks |u0| <= 1: max|u0| = {peak!r}")
    return out
