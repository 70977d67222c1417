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

Because the schedule depends only on N, drives that share the grid and the
kernel can share one time loop: `evolve` takes a list of drives and steps
u as an (N+1, P) array, so each numpy call of a step serves P drives.  The
per-step cost is interpreter overhead, not arithmetic, so 8 drives step in
about the time of 3 single ones.  The FFT pieces shrink with P, which keeps
a batch's transforms about as large as one drive's.
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


def _piece(p):
    """FFT piece length for a p-drive solve.

    _PIECE shrunk by the next power of two >= p, so the transforms of a
    batch take about the memory of one drive's; it stays a power-of-two
    multiple of _BLOCK, so it divides every square width.
    """
    return max(_BLOCK, _PIECE >> (p - 1).bit_length())


def _add_far(u, g, src, dst, size, piece):
    """u[dst + q] += sum_r g[dst - src + q - r] u[src + r], q, r < size.

    One square of the history convolution, by FFT, for every column of u
    at once.  Sources and targets are cut into pieces of at most `piece`
    nodes, so every transform has at most 2 * piece points; each target
    piece accumulates the products of the source pieces in frequency space
    before one inverse transform.  Each source piece is transformed once
    per square, and so is each lag window, which depends only on the offset
    between target and source piece; a source's transform is dropped once
    every target has taken it, so a square cut short by the end of u holds
    only its live targets.  Targets past the end of u, and lags past the
    end of g, are dropped.
    """
    piece = min(size, piece)
    span = 2 * piece
    n = u.shape[0]
    targets = range(0, min(size, n - dst), piece)
    acc = [0.0] * len(targets)
    windows = {}
    for r0 in range(0, size, piece):
        source = np.fft.fft(u[src + r0:src + r0 + piece], span, axis=0)
        for i, q0 in enumerate(targets):
            # lags of this pair run from base - piece + 1 to base + piece - 1
            base = dst + q0 - src - r0
            if base not in windows:
                windows[base] = np.fft.fft(g[base - piece:base + piece],
                                           span)[:, None]
            acc[i] += source * windows[base]
    for q0, total in zip(targets, acc):
        top = min(dst + q0 + piece, n)
        far = np.fft.ifft(total, axis=0)
        u[dst + q0:top] += far[piece:piece + top - dst - q0]


def evolve(kern, eps_s, drive, grid):
    """Integrate the propagator on the grid; returns a PropagatorTrace.

    drive may also be a list of drives: they are solved together, sharing
    the lag samples, the block schedule and the FFT squares, and a list of
    traces comes back, one per drive.  Each agrees with its own one-drive
    solve to roundoff (the batch uses shorter FFT pieces).

    kern must provide lag_samples(h, n_steps) covering the full span
    (KernelCoverage propagates from shorter caches).  Preconditions on the
    step are checked up front and raise StepTooLarge, and so does a
    non-finite value anywhere in the result.

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
        _check_preconditions(eps_s, d, grid)
    h = grid.h
    n = grid.n_steps
    p = len(drives)
    t = grid.times()

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

    # exact accumulated phase of each drive's instantaneous level
    e = np.empty((n + 1, p), dtype=complex)
    for j, d in enumerate(drives):
        phi = (eps_s + d.mean) * (t - grid.t0) + d.modulation_integral(t) \
            - d.modulation_integral(grid.t0)
        e[:, j] = np.exp(-1j * phi)     # u = e * w

    # u[m] holds node m's history sum until u_m is written over it: first
    # the trapezoid's half-weight term of u_0 = 1, then the earlier blocks
    u = np.empty((n + 1, p), dtype=complex)
    u[0] = 1.0
    u[1:] = 0.5 * g[1:, None]
    piece = _piece(p)
    # one drive steps on Python complex, which beats numpy's per-call cost
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
            _add_far(u, g, start + 1 - width, start + 1, width, piece)
        stop = min(start + _BLOCK, n)
        eb = step_e[start + 1:stop + 1]
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

    bad = ~np.isfinite(u).all(axis=1)
    if bad.any():
        k = int(np.argmax(bad))
        raise StepTooLarge(f"non-finite u at node {k} (t = {t[k]:.6g})")
    traces = [PropagatorTrace(grid, u[:, j]) for j in range(p)]
    return traces if batched else traces[0]


def compare(a, b):
    """Largest pointwise deviation between two traces on the same grid."""
    if not a.grid.matches(b.grid):
        raise GridMismatch("traces live on different grids")
    return float(np.max(np.abs(a.values - b.values)))


def convergence_check(make_kernel, eps_s, drive, grid):
    """Solve at h and h/2 and compare on shared nodes.

    make_kernel(h, max_lag) builds the kernel for each resolution.  Returns
    (half-step trace, error estimate); for a list of drives, as in
    `evolve`, the list of half-step traces and the list of estimates.
    """
    fine = TimeGrid(grid.t0, 0.5 * grid.h, 2 * grid.n_steps)

    def solve(g):
        return evolve(make_kernel(g.h, g.h * g.n_steps), eps_s, drive, g)

    coarse_trace, fine_trace = solve(grid), solve(fine)
    batched = isinstance(drive, (list, tuple))
    pairs = zip(coarse_trace, fine_trace) if batched \
        else [(coarse_trace, fine_trace)]
    est = [float(np.max(np.abs(a.values - b.values[::2]))) for a, b in pairs]
    return fine_trace, est if batched else est[0]
