"""Propagator of the driven level: a Volterra integro-differential solver.

The survival amplitude obeys

    du/dt = -i [eps_s + eps_d(t)] u(t) - int_0^t g(t - tau) u(tau) dtau,
    u(0) = 1.

The local phase is removed exactly before stepping: with
Phi(t) = int_0^t [eps_s + eps_d] and u = e^{-i Phi} w, the slow variable w
obeys a pure memory equation.  Phi comes from the drive's closed-form
antiderivative, so zero coupling propagates exactly (any step size), and a
constant level shift never costs accuracy.  w is advanced by an explicit
predictor plus one trapezoidal corrector pass; the memory integral uses
trapezoidal weights on the same grid.  Both are second order, so halving h
cuts the error by about 4.

The trapezoid history at node m, S_m = sum_{j<m} g_{m-j} u_j, is a causal
convolution of the fixed lags with u, summed on a fixed block schedule
(Hairer, Lubich and Schlichte, SIAM J. Sci. Stat. Comput. 6 (1985) 532).
Nodes fall into blocks of _BLOCK; the nodes of a step's own block are summed
directly, one short dot per step.  When block c-1 is complete, with L the
lowest set bit of c, blocks [c-L, c) are added to the history of blocks
[c, c+L) by FFT, so each pair of blocks is covered exactly once and the cost
is O(N log^2 N) instead of O(N^2).  To bound memory a piece holds at most
oscquad._SLAB // 4 nodes (4096 at the default), so a wider square is
summed as (width / piece)^2 piece pairs (at most 16 x 16 at N = 10^5).  The
schedule depends only on N, so results are deterministic (same input, same
bits); they agree with the direct O(N^2) sum to roundoff, not bit for bit.

Because the schedule depends only on N, drives that share the grid and the
kernel can share one time loop: `evolve` takes a list of drives and steps
u as an (N+1, P) array, so each numpy call of a step serves P drives.  The
per-step cost is interpreter overhead, not arithmetic, so 24 drives step
in about the time of 5 single ones.  Every P cuts its squares into the
same pieces and walks the columns of a wide square in chunks, so no
transform holds more than one drive's largest, and the level phase is
built a window of nodes at a time: beyond its result, a batch's working
memory does not grow with P.
"""

from dataclasses import dataclass

import numpy as np

from . import oscquad
from .errors import GridMismatch, StepTooLarge

MAX_PHASE_PER_STEP = 0.1    # h * max|eps_s + eps_d| must stay below this
# h * max|eps_s + eps_d - e| over the band's hull, the kernel's phase
# against the level's, must stay below this.  Semicircle eta 1, level 2.5,
# sine A 0.5, T 1.25, t <= 2, band moved off by eps0: |evolve - oracle| is
# 0.080 / 0.098 / 0.118 / 2.4 of |oracle - free phase| at 1.0 / 1.1 / 1.2
# / 10 rad a step (h 0.01), and 0.076 / 0.083 at 1.0 (0.093 / 0.100 at
# 1.1) for h 0.02 / 0.005: 1.0 keeps it under a tenth at all three steps
MAX_BAND_PHASE_PER_STEP = 1.0
MIN_STEPS_PER_PERIOD = 40
_ALIGN_ATOL = 1e-9
# history nodes summed directly per step; earlier blocks come in by FFT.
# Dots this short never start OpenBLAS threads.
_BLOCK = 64


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid h*k for k = 0..n_steps, from t = 0."""

    h: float
    n_steps: int

    def __post_init__(self):
        if self.h <= 0.0 or self.n_steps < 1:
            raise ValueError("need h > 0 and n_steps >= 1")

    @property
    def t_end(self):
        return self.h * self.n_steps

    def times(self, start=0, stop=None):
        """Node times h*k for start <= k < stop (default and cap: the
        last node), so a long grid can be walked in pieces."""
        last = self.n_steps + 1
        stop = last if stop is None else min(stop, last)
        return self.h * np.arange(start, stop)


@dataclass(frozen=True)
class PropagatorTrace:
    """u(t_k) samples on a TimeGrid."""

    grid: TimeGrid
    values: np.ndarray

    def times(self):
        return self.grid.times()

    def magnitude(self):
        return np.abs(self.values)


def aligned_grid(t_end, h_target, drive=None):
    """TimeGrid from 0 reaching t_end with step <= h_target.

    For square drives h is refined so the half period is an integer number
    of steps (switch times must land on nodes); t_end is stretched by less
    than one step if it is not commensurate.
    """
    # a switch inside a step leaves the scheme second order and its error
    # at h about the same (0.74-1.12x), but not clean: over 15 seeded
    # square drives (semicircle and a kinked two-band table, t <= 30, h
    # 0.01 and 0.02) the step-halving ratio of convergence_check scattered
    # over 3.59-4.80 and Richardson extrapolation, (4 u_{h/2} - u_h) / 3,
    # gained 8-1340x; snapped, the ratio is 4.00 on all 15 and the gain
    # 1200-6500x
    if t_end <= 0.0:
        raise ValueError("t_end must be positive")
    h = float(h_target)
    if drive is not None and drive.shape == "square" and drive.amplitude != 0.0:
        half = 0.5 * drive.period
        h = half / int(np.ceil(half / h - _ALIGN_ATOL))
    n = int(np.ceil(t_end / h - _ALIGN_ATOL))
    return TimeGrid(h, n)


def _check_preconditions(sd, eps_s, drive, grid):
    """Raise StepTooLarge unless h resolves the level's phase, the kernel's
    phase against it over the hull of sd's band, and the drive."""
    h = grid.h
    level = drive.mean + eps_s
    swing = drive.max_modulation()
    peak = abs(level) + swing
    if h * peak > MAX_PHASE_PER_STEP + 1e-12:
        raise StepTooLarge(
            f"h*max|level energy| = {h * peak:.3g} exceeds {MAX_PHASE_PER_STEP}")
    lo, hi = sd.band[0][0], sd.band[-1][1]
    spread = abs(level - 0.5 * (lo + hi)) + 0.5 * (hi - lo) + swing
    if h * spread > MAX_BAND_PHASE_PER_STEP + 1e-12:
        raise StepTooLarge(
            f"h*max|level energy - band energy| = {h * spread:.3g} exceeds "
            f"{MAX_BAND_PHASE_PER_STEP}: the step cannot resolve the "
            f"kernel's phase")
    if swing > 0.0:
        if h > drive.period / MIN_STEPS_PER_PERIOD + 1e-12:
            raise StepTooLarge(
                f"h = {h} too coarse for period {drive.period} "
                f"(need h <= T/{MIN_STEPS_PER_PERIOD})")
        if drive.shape == "square":
            # refused, not run: a switch inside a step costs the clean
            # halving ratio and extrapolation gain (see aligned_grid)
            half = 0.5 * drive.period
            ratio = half / h
            if abs(ratio - round(ratio)) > _ALIGN_ATOL * max(1.0, ratio):
                raise StepTooLarge(
                    f"square-wave switch times miss the grid: T/2 = {half} "
                    f"is not an integer multiple of h = {h}")


def _add_far(u, g, src, dst, size):
    """u[dst + q] += sum_r g[dst - src + q - r] u[src + r], q, r < size.

    One square of the history convolution, by FFT, for every column of u.
    Sources and targets are cut into pieces of at most _SLAB // 4 nodes,
    and the columns into chunks of at most _SLAB // 2 // span, so a
    transform (span = twice the piece) never holds more than one drive's
    largest; each target piece accumulates the products of the source
    pieces in frequency space before one inverse transform.  A source piece
    is transformed once per chunk, and each lag window, which depends only
    on the offset between target and source piece, once per square: in the
    last chunk a window is dropped once no later source piece reads it.
    Targets past the end of u, and lags past the end of g, are dropped.
    """
    piece = min(size, oscquad._SLAB // 4)
    span = 2 * piece
    n, p = u.shape
    cols = max(1, oscquad._SLAB // 2 // span)
    targets = range(0, min(size, n - dst), piece)
    windows = {}
    for c0 in range(0, p, cols):
        chunk = slice(c0, c0 + cols)
        last = c0 + cols >= p
        width = min(cols, p - c0)
        source = np.empty((span, width), dtype=complex)
        prod = np.empty_like(source)
        acc = [None] * len(targets)
        for r0 in range(0, size, piece):
            np.fft.fft(u[src + r0:src + r0 + piece, chunk], span, axis=0,
                       out=source)
            for i, q0 in enumerate(targets):
                # lags of this pair run from base - piece + 1 to
                # base + piece - 1
                base = dst + q0 - src - r0
                if base not in windows:
                    windows[base] = np.fft.fft(g[base - piece:base + piece],
                                               span)[:, None]
                if acc[i] is None:
                    acc[i] = source * windows[base]
                else:
                    np.multiply(source, windows[base], out=prod)
                    acc[i] += prod
            if last:
                # later source pieces sit further right, so their largest
                # base is smaller than this one's
                del windows[dst + targets[-1] - src - r0]
        del source, prod
        for q0, total in zip(targets, acc):
            top = min(dst + q0 + piece, n)
            np.fft.ifft(total, axis=0, out=total)
            u[dst + q0:top, chunk] += total[piece:piece + top - dst - q0]
        del acc


def _non_finite_node(u, grid):
    """Where u first fails to be finite, as "node k (t = t_k)" on the
    grid, or None; u's rows are the nodes (its columns the drives, if
    any).  A slab of rows at a time, so the scan holds no (N+1, P) mask."""
    rows = u.reshape(u.shape[0], -1)
    scan = max(1, oscquad._SLAB // rows.shape[1])
    for lo in range(0, rows.shape[0], scan):
        bad = ~np.isfinite(rows[lo:lo + scan]).all(axis=1)
        if bad.any():
            k = lo + int(np.argmax(bad))
            return f"node {k} (t = {grid.times(k, k + 1)[0]:.6g})"
    return None


def evolve(kern, eps_s, drive, grid):
    """Integrate the propagator on the grid; returns a PropagatorTrace.

    drive may also be a list of drives: they are solved together, sharing
    the lag samples, the block schedule and the FFT squares, and a list of
    traces comes back, one per drive.  Each agrees with its own one-drive
    solve to roundoff (its history dots are matrix products, summed in
    another order).

    kern must provide lag_samples(h, n_steps), g on the n_steps + 1 lags
    0, h, ..., n_steps*h, and sd, its density.  Preconditions on the step
    are checked up front and raise StepTooLarge, and so does a non-finite
    value anywhere in the result.  A result beyond oscquad's size budget
    is refused with a ConfigError before anything is allocated.

    With x_k the h-scaled trapezoid history at t_k (endpoint excluded),
    e_k = e^{-i Phi(t_k)}, a = h g(0) / 2 and z_k = (h/2) conj(e_k) x_k,
    the Euler predictor and trapezoid corrector fold into one recurrence
    (|e_k| = 1),

        w_{k+1} = alpha w_k - kappa z_k - z_{k+1},
        alpha = 1 - a h + (a h)^2 / 2,   kappa = 1 - a h,

    and u_{k+1} = e_{k+1} w_{k+1}; at zero coupling alpha = kappa = 1 and
    z = 0, so w stays exactly 1.  It is stepped as w + ((alpha - 1) w - ...)
    so that the rounding of alpha does not compound over the steps.
    """
    batched = isinstance(drive, (list, tuple))
    drives = list(drive) if batched else [drive]
    for d in drives:
        _check_preconditions(kern.sd, eps_s, d, grid)
    h = grid.h
    n = grid.n_steps
    p = len(drives)
    oscquad.check_budget(16 * (n + 1) * p,
                         f"{p} drive(s) on a grid of {n + 1} nodes")

    g = np.ascontiguousarray(kern.lag_samples(h, n), dtype=complex)
    if g.size != n + 1:
        raise GridMismatch(f"kernel returned {g.size} lags for {n + 1} nodes")
    # near_g[-1 - d:] == [g_d, ..., g_1, 1]: the last weight takes the
    # history already in u at the node being solved
    near_g = np.append(g[_BLOCK:0:-1], 1.0)
    ah = complex(0.5 * h * h * g[0])
    # alpha - 1, kept apart: alpha rounded to double would scale every
    # step by the same error, a drift of N ulps over N steps
    beta = 0.5 * ah * ah - ah
    kappa = 1.0 - ah

    # e = e^{-i Phi}, the exact accumulated phase of each drive's level
    # (u = e * w), held for a window of whole blocks: nodes first + 1 ..
    # first + span, rebuilt as the steps reach the next window
    span = _BLOCK * max(1, oscquad._SLAB // (p * _BLOCK))
    phi = np.empty((span, p))
    e = np.empty((span, p), dtype=complex)

    # u[m] holds node m's history sum until u_m is written over it: first
    # the trapezoid's half-weight term of u_0 = 1, then the earlier blocks
    u = np.empty((n + 1, p), dtype=complex)
    u[0] = 1.0
    np.multiply(g[1:, None], 0.5, out=u[1:])
    # one drive steps on Python complex, which beats numpy's per-call cost:
    # sent through the (N+1, 1) batch path instead, a semicircle solve at
    # h 0.01 (sine drive, one BLAS thread, best of 3, four rounds) took
    # 0.12-0.20 s against 0.05-0.09 s at N = 2*10^4, and 0.60-0.79 s
    # against 0.27-0.49 s at N = 10^5
    one = p == 1
    step_u, step_e = (u[:, 0], e[:, 0]) if one else (u, e)
    rows = (lambda a: a.tolist()) if one else list
    w = 1.0 if one else np.ones(p, dtype=complex)
    if not one:
        # array-by-array products skip numpy's scalar conversion
        beta, kappa = np.full(p, beta), np.full(p, kappa)
    z = 0.0

    # block c holds the nodes c*_BLOCK + 1 .. (c+1)*_BLOCK
    for start in range(0, n, _BLOCK):
        c = start // _BLOCK
        if c:
            width = (c & -c) * _BLOCK
            _add_far(u, g, start + 1 - width, start + 1, width)
        if start % span == 0:
            first = start
            t = grid.times(first + 1, first + 1 + span)
            for j, d in enumerate(drives):
                phi[:t.size, j] = (eps_s + d.mean) * t \
                    + d.modulation_integral(t)
            np.multiply(phi[:t.size], -1j, out=e[:t.size])
            np.exp(e[:t.size], out=e[:t.size])
        stop = min(start + _BLOCK, n)
        eb = step_e[start - first:stop - first]
        cb = rows((0.5 * h * h) * eb.conj())
        eb = rows(eb)
        for i in range(stop - start):
            # history sum: what u holds at the node (u_0 and earlier
            # blocks), plus this block's nodes so far
            x = near_g[-1 - i:].dot(step_u[start + 1:start + 2 + i])
            z_next = cb[i] * (complex(x) if one else x)
            w = w + (beta * w - kappa * z - z_next)
            z = z_next
            step_u[start + 1 + i] = eb[i] * w

    where = _non_finite_node(u, grid)
    if where:
        raise StepTooLarge(f"non-finite u at {where}")
    traces = [PropagatorTrace(grid, u[:, j]) for j in range(p)]
    return traces if batched else traces[0]


def compare(a, b):
    """Largest pointwise deviation between two traces on the same grid."""
    if a.grid != b.grid:
        raise GridMismatch("traces live on different grids")
    return float(np.max(np.abs(a.values - b.values)))


def convergence_check(kern, eps_s, drives, grid):
    """Evolve a list of drives with kern at h and at h/2, as `evolve` does,
    and compare on the shared nodes.

    Returns the list of half-step traces and the list of error estimates.
    """
    coarse = evolve(kern, eps_s, drives, grid)
    fine = evolve(kern, eps_s, drives,
                  TimeGrid(0.5 * grid.h, 2 * grid.n_steps))
    est = [float(np.max(np.abs(a.values - b.values[::2])))
           for a, b in zip(coarse, fine)]
    return fine, est
