import functools
import tracemalloc

import numpy as np
import pytest

from drivenlevel import sweep, volterra
from drivenlevel.driving import DrivingField
from drivenlevel.errors import GridMismatch, StepTooLarge
from drivenlevel.kernel import QuadratureKernel, SemicircleKernel, kernel_for
from drivenlevel.spectral import Semicircle, compute_u0
from drivenlevel.volterra import (_BLOCK, _PIECE, PropagatorTrace, TimeGrid,
                                  _check_preconditions, aligned_grid, compare,
                                  convergence_check, evolve)


def _evolve_direct(kern, eps_s, drive, grid):
    """Reference solver: evolve with the O(N^2) history dot at every step.

    Same scheme as `evolve`, but the trapezoid history at t_{k+1} is one
    direct dot over all earlier nodes instead of the blocked FFT sum.
    """
    _check_preconditions(eps_s, drive, grid)
    h = grid.h
    n = grid.n_steps
    t = grid.times()
    g = np.ascontiguousarray(kern.lag_samples(h, n), dtype=complex)
    gr = g[::-1].copy()                 # gr[n-k:n] == [g_k, ..., g_1]
    g0 = g[0]
    static = eps_s + drive.mean
    phi = static * (t - grid.t0) + drive.modulation_integral(t) \
        - drive.modulation_integral(grid.t0)
    ephase = np.exp(-1j * phi)
    u = np.empty(n + 1, dtype=complex)
    u[0] = 1.0
    w = 1.0 + 0.0j
    hist_k = 0.0 + 0.0j
    half_g0 = 0.5 * h * g0
    for k in range(n):
        wdot_k = -np.conj(ephase[k]) * (hist_k + half_g0 * u[k])
        hist_next = 0.5 * g[k + 1] * u[0]
        if k >= 1:
            hist_next += np.dot(gr[n - k:n], u[1:k + 1])
        hist_next *= h
        w_pred = w + h * wdot_k
        u_pred = ephase[k + 1] * w_pred
        wdot_p = -np.conj(ephase[k + 1]) * (hist_next + half_g0 * u_pred)
        w = w + 0.5 * h * (wdot_k + wdot_p)
        u[k + 1] = ephase[k + 1] * w
        hist_k = hist_next
    return PropagatorTrace(grid, u)


# node counts around the block schedule: single steps, block edges, the
# doubling squares, squares two FFT pieces wide (2 _PIECE nodes), and grids
# that end inside their largest square (at 47 B + 5 the square of width 32 B
# reaches 64 B; at 3 _PIECE + 5 the second target piece is cut short)
SCHEDULE_NS = [1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK,
               8 * _BLOCK - 1, 8 * _BLOCK + 1, 47 * _BLOCK + 5,
               2 * _PIECE - 1, 2 * _PIECE + 1, 3 * _PIECE + 5]


def semicircle_setup(eta=1.0, mean=2.5, shape="sine", amplitude=0.5,
                     period=1.25):
    sd = Semicircle(eta=eta)
    drive = DrivingField(mean=mean, period=period, shape=shape,
                         amplitude=amplitude)
    return sd, SemicircleKernel(sd), drive


def test_time_grid_basics():
    g = TimeGrid(1.0, 0.25, 8)
    assert g.t_end == pytest.approx(3.0)
    assert np.allclose(g.times(), 1.0 + 0.25 * np.arange(9))
    assert g.matches(TimeGrid(1.0, 0.25, 8))
    assert not g.matches(TimeGrid(0.0, 0.25, 8))
    with pytest.raises(ValueError):
        TimeGrid(0.0, -0.1, 5)
    with pytest.raises(ValueError):
        TimeGrid(0.0, 0.1, 0)


def test_initial_value():
    sd, kern, drive = semicircle_setup()
    tr = evolve(kern, 0.0, drive, TimeGrid(0.0, 0.01, 10))
    assert tr.values[0] == 1.0 + 0.0j


def test_decoupled_is_exact_phase():
    # eta = 0 removes the memory term; the integrating factor handles the
    # whole drive, so the numerical answer is exact to roundoff
    for shape in ("sine", "square"):
        sd, kern, drive = semicircle_setup(eta=0.0, shape=shape, period=2.0)
        grid = aligned_grid(0.0, 20.0, 0.01, drive)
        tr = evolve(kern, 0.0, drive, grid)
        t = grid.times()
        phase = 2.5 * t + drive.modulation_integral(t)
        assert np.max(np.abs(tr.values - np.exp(-1j * phase))) < 1e-12
        assert np.max(np.abs(tr.magnitude() - 1.0)) < 1e-13


def test_decoupled_convergence_estimate_tiny():
    sd, kern, drive = semicircle_setup(eta=0.0)
    grid = aligned_grid(0.0, 10.0, 0.01, drive)
    _, est = convergence_check(lambda h, max_lag: kern, 0.0, drive, grid)
    assert est < 1e-12


def test_no_drive_matches_u0_magnitude():
    # h = 0.01 keeps |u| within 1e-4 of the closed continuum answer out to
    # t = 50 (the phase accrues a secular O(h^2) shift, the magnitude does
    # not)
    sd, kern, _ = semicircle_setup()
    drive = DrivingField(mean=2.5, amplitude=0.0)
    grid = TimeGrid(0.0, 0.01, 5000)
    tr = evolve(kern, 0.0, drive, grid)
    u0 = compute_u0(sd, 2.5, grid.times())
    assert np.max(np.abs(tr.magnitude() - np.abs(u0))) < 1e-4


def test_second_order_convergence():
    sd, kern, drive = semicircle_setup()
    grid_c = aligned_grid(0.0, 10.0, 0.02, drive)
    grid_f = aligned_grid(0.0, 10.0, 0.01, drive)
    factory = lambda h, max_lag: kern
    _, est_c = convergence_check(factory, 0.0, drive, grid_c)
    _, est_f = convergence_check(factory, 0.0, drive, grid_f)
    assert 3.5 < est_c / est_f < 4.5


def test_contractivity_random_scenarios():
    rng = np.random.default_rng(17)
    for _ in range(6):
        eta = rng.uniform(0.0, 2.0)
        shape = rng.choice(["sine", "square"])
        drive = DrivingField(mean=rng.uniform(-2.0, 2.5),
                             period=rng.uniform(1.0, 6.0), shape=shape,
                             amplitude=rng.uniform(0.0, 2.0))
        sd = Semicircle(eta=eta)
        grid = aligned_grid(0.0, 15.0, 0.01, drive)
        tr = evolve(SemicircleKernel(sd), 0.0, drive, grid)
        assert np.max(tr.magnitude()) <= 1.0 + 1e-6


def test_level_split_invariance():
    # only eps_s + mean enters; moving weight between them changes nothing
    sd, kern, _ = semicircle_setup()
    grid = TimeGrid(0.0, 0.01, 2000)
    d1 = DrivingField(mean=2.5, period=1.25, shape="sine", amplitude=0.5)
    d2 = DrivingField(mean=0.0, period=1.25, shape="sine", amplitude=0.5)
    a = evolve(kern, 0.0, d1, grid)
    b = evolve(kern, 2.5, d2, grid)
    assert np.array_equal(a.values, b.values)


def test_square_switches_must_hit_nodes():
    sd, kern, _ = semicircle_setup()
    drive = DrivingField(mean=2.5, period=1.0, shape="square", amplitude=0.5)
    bad = TimeGrid(0.0, 0.013, 1000)   # T/2 = 0.5 not a multiple
    with pytest.raises(StepTooLarge):
        evolve(kern, 0.0, drive, bad)
    good = aligned_grid(0.0, 10.0, 0.013, drive)
    assert (0.5 / good.h) == pytest.approx(round(0.5 / good.h), abs=1e-9)
    evolve(kern, 0.0, drive, good)


def test_aligned_grid_snaps_down():
    drive = DrivingField(period=1.0, shape="square", amplitude=0.5)
    g = aligned_grid(0.0, 10.0, 0.013, drive)
    assert g.h <= 0.013
    assert g.t_end >= 10.0 - 1e-12


def test_step_limits():
    sd, kern, _ = semicircle_setup()
    fast = DrivingField(mean=9.0, period=1.25, shape="sine", amplitude=5.0)
    with pytest.raises(StepTooLarge):
        evolve(kern, 0.0, fast, TimeGrid(0.0, 0.05, 100))
    slow_sampling = DrivingField(mean=0.0, period=0.2, shape="sine",
                                 amplitude=0.1)
    with pytest.raises(StepTooLarge):
        evolve(kern, 0.0, slow_sampling, TimeGrid(0.0, 0.01, 100))


def test_compare_grid_mismatch():
    v = np.ones(3, dtype=complex)
    a = PropagatorTrace(TimeGrid(0.0, 0.1, 2), v)
    b = PropagatorTrace(TimeGrid(0.0, 0.2, 2), v)
    with pytest.raises(GridMismatch):
        compare(a, b)
    assert compare(a, PropagatorTrace(TimeGrid(0.0, 0.1, 2), 2 * v)) == 1.0


def test_convergence_check_accepts_factory_and_tol():
    sd = Semicircle(eta=1.0)
    drive = DrivingField(mean=2.5, period=1.25, shape="sine", amplitude=0.5)
    grid = aligned_grid(0.0, 5.0, 0.02, drive)

    calls = []

    def factory(h, max_lag):
        calls.append(h)
        return kernel_for(sd, h, max_lag)

    fine, est = convergence_check(factory, 0.0, drive, grid)
    assert sorted(calls) == [0.01, 0.02]
    assert fine.grid.h == pytest.approx(0.01)
    assert est < 1e-3


def test_history_affects_solution():
    # memory really feeds back: zeroing the kernel changes the answer
    sd, kern, drive = semicircle_setup()
    grid = TimeGrid(0.0, 0.01, 500)
    full = evolve(kern, 0.0, drive, grid)
    free = evolve(SemicircleKernel(Semicircle(eta=0.0)), 0.0, drive, grid)
    assert compare(full, free) > 0.01


def _rel_dev(a, b):
    return np.max(np.abs(a.values - b.values)) / np.max(np.abs(b.values))


@pytest.mark.parametrize("shape", ["sine", "square"])
def test_blocked_history_matches_direct_semicircle(shape):
    sd, kern, drive = semicircle_setup(shape=shape)
    h = aligned_grid(0.0, 1.0, 0.01, drive).h
    for n in SCHEDULE_NS:
        grid = TimeGrid(0.0, h, n)
        fast = evolve(kern, 0.0, drive, grid)
        assert _rel_dev(fast, _evolve_direct(kern, 0.0, drive, grid)) \
            <= 1e-12, n


def test_blocked_history_matches_direct_tabulated(kinked_two_band):
    drive = DrivingField(mean=0.2, period=1.25, shape="sine", amplitude=0.5)
    h = 0.01
    kern = QuadratureKernel(kinked_two_band, h, h * max(SCHEDULE_NS))
    for n in SCHEDULE_NS:
        grid = TimeGrid(0.0, h, n)
        fast = evolve(kern, 0.0, drive, grid)
        assert _rel_dev(fast, _evolve_direct(kern, 0.0, drive, grid)) \
            <= 1e-12, n


def test_evolve_is_deterministic(kinked_two_band):
    drive = DrivingField(mean=0.2, period=1.25, shape="square", amplitude=0.5)
    grid = aligned_grid(0.0, 0.01 * SCHEDULE_NS[-1], 0.01, drive)
    kern = QuadratureKernel(kinked_two_band, grid.h, grid.t_end)
    a = evolve(kern, 0.0, drive, grid)
    b = evolve(kern, 0.0, drive, grid)
    assert np.array_equal(a.values, b.values)


class _NanLagKernel:
    """Semicircle kernel with one NaN lag, as a broken table would give."""

    def __init__(self, bad_lag):
        self.inner = SemicircleKernel(Semicircle(eta=1.0))
        self.bad_lag = bad_lag

    def lag_samples(self, h, n):
        g = self.inner.lag_samples(h, n).copy()
        g[self.bad_lag] = np.nan
        return g


def test_non_finite_values_raise_naming_the_node():
    drive = DrivingField(mean=2.5, period=1.25, shape="sine", amplitude=0.5)
    # lag 5 first enters the history at t_5, so u_5 is the first bad node
    with pytest.raises(StepTooLarge, match=r"node 5 \(t = 0\.05\)"):
        evolve(_NanLagKernel(5), 0.0, drive, TimeGrid(0.0, 0.01, 300))


def _columns_match_singles(kern, drives, grid):
    batch = evolve(kern, 0.0, drives, grid)
    assert len(batch) == len(drives)
    for d, col in zip(drives, batch):
        single = evolve(kern, 0.0, d, grid)
        assert _rel_dev(col, single) <= 1e-12, (grid.n_steps, d)


def _batch_drives(shape, means):
    # periods whose half periods are whole multiples of one aligned step
    return [DrivingField(mean=m, period=1.25 * (1 + j), shape=shape,
                         amplitude=0.3 + 0.2 * j)
            for j, m in enumerate(means)]


@pytest.mark.parametrize("shape", ["sine", "square"])
def test_batched_columns_match_single_solves_semicircle(shape):
    drives = _batch_drives(shape, (2.5, 1.0, -0.5))
    kern = SemicircleKernel(Semicircle(eta=1.0))
    h = aligned_grid(0.0, 1.0, 0.01, drives[0]).h
    for n in SCHEDULE_NS:
        _columns_match_singles(kern, drives, TimeGrid(0.0, h, n))


@pytest.mark.parametrize("shape", ["sine", "square"])
def test_batched_columns_match_single_solves_tabulated(kinked_two_band,
                                                       shape):
    drives = _batch_drives(shape, (0.2, 0.5, -1.5))
    h = aligned_grid(0.0, 1.0, 0.01, drives[0]).h
    kern = QuadratureKernel(kinked_two_band, h, h * max(SCHEDULE_NS))
    for n in SCHEDULE_NS:
        _columns_match_singles(kern, drives, TimeGrid(0.0, h, n))


def test_batch_of_five_fft_pieces_divide_the_squares():
    # the batch's FFT piece must divide every square width; a piece of
    # _PIECE // 5 would let the last source piece read unsolved nodes
    piece = volterra._piece(5)
    assert piece % _BLOCK == 0 and (piece // _BLOCK).bit_count() == 1
    assert volterra._piece(1) == _PIECE
    drives = _batch_drives("sine", (2.5, 2.0, 1.0, 0.0, -1.0))
    kern = SemicircleKernel(Semicircle(eta=1.0))
    _columns_match_singles(kern, drives, TimeGrid(0.0, 0.01, 3 * _PIECE + 5))


def test_batched_convergence_check_matches_single():
    drives = _batch_drives("sine", (2.5, 1.0))
    sd = Semicircle(eta=1.0)
    grid = aligned_grid(0.0, 5.0, 0.02, drives[0])
    factory = functools.partial(kernel_for, sd)
    fine, est = convergence_check(factory, 0.0, drives, grid)
    for d, tr, e in zip(drives, fine, est):
        tr1, e1 = convergence_check(factory, 0.0, d, grid)
        assert _rel_dev(tr, tr1) <= 1e-12
        assert e == pytest.approx(e1, rel=1e-9, abs=1e-15)


def test_non_finite_value_in_a_batch_names_the_node():
    drives = _batch_drives("sine", (2.5, 1.0, 0.0))
    with pytest.raises(StepTooLarge, match=r"node 5 \(t = 0\.05\)"):
        evolve(_NanLagKernel(5), 0.0, drives, TimeGrid(0.0, 0.01, 300))


def test_batch_memory_stays_bounded():
    # peak traced allocation of a _BATCH-wide solve at N = 10 000, lag
    # samples included: measured 4.6 MB (numpy 2.4.6), of which the result
    # and the phases are 1.3 MB each
    drives = [DrivingField(mean=1.0, period=1.0 + j, shape="sine",
                           amplitude=0.5) for j in range(sweep._BATCH)]
    kern = SemicircleKernel(Semicircle(eta=0.8))
    grid = TimeGrid(0.0, 0.01, 10_000)
    tracemalloc.start()
    try:
        evolve(kern, 0.0, drives, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 5.0e6, peak
