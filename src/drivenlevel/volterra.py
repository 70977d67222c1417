"""Propagator of the driven level: a Volterra integro-differential solver.

The survival amplitude obeys

    du/dt = -i [eps_s + eps_d(t)] u(t) - int_{t0}^t g(t - tau) u(tau) dtau,
    u(t0) = 1.

The local phase is removed exactly before stepping: with
Phi(t) = int_{t0}^t [eps_s + eps_d] and u = e^{-i Phi} w, the slow variable w
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
is O(N log^2 N) instead of O(N^2).  To bound memory no transform exceeds
2 * _PIECE points, so a square wider than _PIECE is summed as
(width / _PIECE)^2 piece pairs (at most 16 x 16 at N = 10^5).  The
schedule depends only on N, so results are deterministic (same input, same
bits); they agree with the direct O(N^2) sum to roundoff, not bit for bit.
"""

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, StepTooLarge

MAX_PHASE_PER_STEP = 0.1    # h * max|eps_s + eps_d| must stay below this
MIN_STEPS_PER_PERIOD = 40
_ALIGN_ATOL = 1e-9
# history nodes summed directly per step; earlier blocks come in by FFT.
# Dots this short never start OpenBLAS threads.
_BLOCK = 64
# longest source or target piece of one FFT square (transforms of 2 * _PIECE)
_PIECE = 4096


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t0 + h*k for k = 0..n_steps."""

    t0: float
    h: float
    n_steps: int

    def __post_init__(self):
        if self.h <= 0.0 or self.n_steps < 1:
            raise ValueError("need h > 0 and n_steps >= 1")

    @property
    def t_end(self):
        return self.t0 + self.h * self.n_steps

    def times(self):
        return self.t0 + self.h * np.arange(self.n_steps + 1)

    def matches(self, other):
        return (abs(self.t0 - other.t0) < _ALIGN_ATOL
                and abs(self.h - other.h) < _ALIGN_ATOL
                and self.n_steps == other.n_steps)


@dataclass(frozen=True)
class PropagatorTrace:
    """u(t_k, t0) samples on a TimeGrid."""

    grid: TimeGrid
    values: np.ndarray

    def times(self):
        return self.grid.times()

    def magnitude(self):
        return np.abs(self.values)


def aligned_grid(t0, t_end, h_target, drive=None):
    """TimeGrid reaching t_end with step <= h_target.

    For square drives h is refined so the half period is an integer number
    of steps (switch times must land on nodes); t_end is stretched by less
    than one step if it is not commensurate.
    """
    if t_end <= t0:
        raise ValueError("t_end must exceed t0")
    h = float(h_target)
    if drive is not None and drive.shape == "square" and drive.amplitude != 0.0:
        half = 0.5 * drive.period
        h = half / int(np.ceil(half / h - _ALIGN_ATOL))
    n = int(np.ceil((t_end - t0) / h - _ALIGN_ATOL))
    return TimeGrid(float(t0), h, n)


def _check_preconditions(eps_s, drive, grid):
    h = grid.h
    peak = abs(drive.mean + eps_s) + drive.max_modulation()
    if h * peak > MAX_PHASE_PER_STEP + 1e-12:
        raise StepTooLarge(
            f"h*max|level energy| = {h * peak:.3g} exceeds {MAX_PHASE_PER_STEP}")
    if drive.max_modulation() > 0.0:
        if h > drive.period / MIN_STEPS_PER_PERIOD + 1e-12:
            raise StepTooLarge(
                f"h = {h} too coarse for period {drive.period} "
                f"(need h <= T/{MIN_STEPS_PER_PERIOD})")
        if drive.shape == "square":
            half = 0.5 * drive.period
            ratio = half / h
            if abs(ratio - round(ratio)) > _ALIGN_ATOL * max(1.0, ratio):
                raise StepTooLarge(
                    f"square-wave switch times miss the grid: T/2 = {half} "
                    f"is not an integer multiple of h = {h}")


def _add_far(far, g, u, src, dst, size):
    """far[dst + q] += sum_r g[dst - src + q - r] u[src + r], q, r < size.

    One square of the history convolution, by FFT.  Sources and targets are
    cut into pieces of at most _PIECE nodes, so every transform has at most
    2 * _PIECE points; a target piece accumulates the products of its source
    pieces in frequency space before one inverse transform.  Each source
    piece is transformed once per square, and so is each lag window, which
    depends only on the offset between target and source piece.  Targets
    past the end of far, and lags past the end of g, are dropped.
    """
    piece = min(size, _PIECE)
    span = 2 * piece
    starts = range(0, size, piece)
    sources = [np.fft.fft(u[src + r0:src + r0 + piece], span) for r0 in starts]
    windows = {}
    for q0 in range(0, min(size, far.size - dst), piece):
        acc = np.zeros(span, dtype=complex)
        for r0, source in zip(starts, sources):
            # lags of this pair run from base - piece + 1 to base + piece - 1
            base = dst + q0 - src - r0
            if base not in windows:
                windows[base] = np.fft.fft(g[base - piece:base + piece], span)
            acc += source * windows[base]
        top = min(dst + q0 + piece, far.size)
        far[dst + q0:top] += np.fft.ifft(acc)[piece:piece + top - dst - q0]


def evolve(kern, eps_s, drive, grid):
    """Integrate the propagator on the grid; returns a PropagatorTrace.

    kern must provide lag_samples(h, n_steps) covering the full span
    (KernelCoverage propagates from shorter caches).  Preconditions on the
    step are checked up front and raise StepTooLarge, and so does a
    non-finite value anywhere in the result.
    """
    _check_preconditions(eps_s, drive, grid)
    h = grid.h
    n = grid.n_steps
    t = grid.times()

    g = np.ascontiguousarray(kern.lag_samples(h, n), dtype=complex)
    if g.size != n + 1:
        raise GridMismatch(f"kernel returned {g.size} lags for {n + 1} nodes")
    g0 = g[0]
    near_g = g[_BLOCK:0:-1].copy()      # near_g[-d:] == [g_d, ..., g_1]

    # exact accumulated phase of the instantaneous level
    static = eps_s + drive.mean
    phi = static * (t - grid.t0) + drive.modulation_integral(t) \
        - drive.modulation_integral(grid.t0)
    ephase = np.exp(-1j * phi)          # u = ephase * w

    u = np.empty(n + 1, dtype=complex)
    u[0] = 1.0
    u0 = 1.0 + 0.0j
    # far[m]: history at node m from the blocks before m's own block
    far = np.zeros(n + 1, dtype=complex)
    u_k = u0
    w = 1.0 + 0.0j
    hist_k = 0.0 + 0.0j                 # memory sum at t_k, endpoint excluded
    half_g0 = complex(0.5 * h * g0)

    # block c holds the nodes c*_BLOCK + 1 .. (c+1)*_BLOCK
    for start in range(0, n, _BLOCK):
        c = start // _BLOCK
        if c:
            width = (c & -c) * _BLOCK
            _add_far(far, g, u, start + 1 - width, start + 1, width)
        stop = min(start + _BLOCK, n)
        e = ephase[start:stop + 1].tolist()
        gb = g[start + 1:stop + 1].tolist()
        fb = far[start + 1:stop + 1].tolist()
        for i in range(stop - start):
            e_k, e_next = e[i], e[i + 1]
            wdot_k = -e_k.conjugate() * (hist_k + half_g0 * u_k)
            # trapezoidal history at t_{k+1}: boundary u0 term, earlier
            # blocks, then this block's nodes so far
            hist_next = 0.5 * gb[i] * u0 + fb[i]
            if i:
                hist_next += complex(
                    np.dot(near_g[-i:], u[start + 1:start + 1 + i]))
            hist_next *= h
            # predictor (Euler), then one corrector pass of the trapezoid rule
            w_pred = w + h * wdot_k
            u_pred = e_next * w_pred
            wdot_p = -e_next.conjugate() * (hist_next + half_g0 * u_pred)
            w = w + 0.5 * h * (wdot_k + wdot_p)
            u_k = e_next * w
            u[start + 1 + i] = u_k
            hist_k = hist_next

    bad = ~np.isfinite(u)
    if bad.any():
        k = int(np.argmax(bad))
        raise StepTooLarge(f"non-finite u at node {k} (t = {t[k]:.6g})")
    return PropagatorTrace(grid, u)


def compare(a, b):
    """Largest pointwise deviation between two traces on the same grid."""
    if not a.grid.matches(b.grid):
        raise GridMismatch("traces live on different grids")
    return float(np.max(np.abs(a.values - b.values)))


def convergence_check(make_kernel, eps_s, drive, grid):
    """Solve at h and h/2 and compare on shared nodes.

    make_kernel(h, max_lag) builds the kernel for each resolution.  Returns
    (half-step trace, error estimate).
    """
    fine = TimeGrid(grid.t0, 0.5 * grid.h, 2 * grid.n_steps)

    def solve(g):
        return evolve(make_kernel(g.h, g.h * g.n_steps), eps_s, drive, g)

    coarse_trace, fine_trace = solve(grid), solve(fine)
    est = float(np.max(np.abs(coarse_trace.values - fine_trace.values[::2])))
    return fine_trace, est
