import numpy as np
import pytest

from drivenlevel import oracle, oscquad, sweep, volterra
from drivenlevel.driving import DrivingField
from drivenlevel.errors import GridMismatch, StepTooLarge
from drivenlevel.kernel import QuadratureKernel, SemicircleKernel, kernel_for
from drivenlevel.spectral import Semicircle, Tabulated, compute_u0
from drivenlevel.volterra import (_BLOCK, PropagatorTrace, TimeGrid,
                                  _check_preconditions, aligned_grid, compare,
                                  convergence_check, evolve)


def _evolve_direct(kern, eps_s, drive, grid):
    """Reference solver: evolve with the O(N^2) history dot at every step.

    Same scheme as `evolve`, but the trapezoid history at t_{k+1} is one
    direct dot over all earlier nodes instead of the blocked FFT sum.
    """
    _check_preconditions(kern.sd, eps_s, drive, grid)
    h = grid.h
    n = grid.n_steps
    t = grid.times()
    g = np.ascontiguousarray(kern.lag_samples(h, n), dtype=complex)
    gr = g[::-1].copy()                 # gr[n-k:n] == [g_k, ..., g_1]
    g0 = g[0]
    static = eps_s + drive.mean
    phi = static * t + drive.modulation_integral(t)
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


# the tests that cut squares into FFT pieces run under a slab of 2^9
# elements, so a piece holds PIECE = _SLAB // 4 = 128 nodes (4096 at the
# default slab) and every piece path runs at a few hundred nodes
SLAB = 1 << 9
PIECE = SLAB // 4
# node counts around the block schedule: single steps, block edges, squares
# two FFT pieces wide (2 PIECE nodes), the doubling squares, and grids that
# end inside their largest square (at 3 PIECE + 5 the second target piece
# is cut short; at 47 B + 5 the square of width 32 B reaches 64 B)
SCHEDULE_NS = [1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK,
               2 * PIECE - 1, 2 * PIECE + 1, 3 * PIECE + 5,
               8 * _BLOCK - 1, 8 * _BLOCK + 1, 47 * _BLOCK + 5]


@pytest.fixture
def small_slab(monkeypatch):
    monkeypatch.setattr(oscquad, "_SLAB", SLAB)


def semicircle_setup(eta=1.0, mean=2.5, shape="sine", amplitude=0.5,
                     period=1.25):
    sd = Semicircle(eta=eta)
    drive = DrivingField(mean=mean, period=period, shape=shape,
                         amplitude=amplitude)
    return sd, SemicircleKernel(sd), drive


def test_time_grid_basics():
    g = TimeGrid(0.25, 8)
    assert g.t_end == pytest.approx(2.0)
    assert np.allclose(g.times(), 0.25 * np.arange(9))
    assert g == TimeGrid(0.25, 8)
    assert g != TimeGrid(0.25, 9)
    assert g != TimeGrid(0.125, 16)
    with pytest.raises(ValueError):
        TimeGrid(-0.1, 5)
    with pytest.raises(ValueError):
        TimeGrid(0.1, 0)


def test_initial_value():
    sd, kern, drive = semicircle_setup()
    tr = evolve(kern, 0.0, drive, TimeGrid(0.01, 10))
    assert tr.values[0] == 1.0 + 0.0j


def test_decoupled_is_exact_phase():
    # eta = 0 removes the memory term; the integrating factor handles the
    # whole drive, so the numerical answer is exact to roundoff
    for shape in ("sine", "square"):
        sd, kern, drive = semicircle_setup(eta=0.0, shape=shape, period=2.0)
        grid = aligned_grid(20.0, 0.01, drive)
        tr = evolve(kern, 0.0, drive, grid)
        t = grid.times()
        phase = 2.5 * t + drive.modulation_integral(t)
        assert np.max(np.abs(tr.values - np.exp(-1j * phase))) < 1e-12
        assert np.max(np.abs(tr.magnitude() - 1.0)) < 1e-13


def test_decoupled_convergence_estimate_tiny():
    sd, kern, drive = semicircle_setup(eta=0.0)
    grid = aligned_grid(10.0, 0.01, drive)
    _, est = convergence_check(kern, 0.0, [drive], grid)
    assert est[0] < 1e-12


def test_no_drive_matches_u0_magnitude():
    # h = 0.01 keeps |u| within 1e-4 of the closed continuum answer out to
    # t = 50 (the phase accrues a secular O(h^2) shift, the magnitude does
    # not)
    sd, kern, _ = semicircle_setup()
    drive = DrivingField(mean=2.5, amplitude=0.0)
    grid = TimeGrid(0.01, 5000)
    tr = evolve(kern, 0.0, drive, grid)
    u0 = compute_u0(sd, 2.5, grid.times())
    assert np.max(np.abs(tr.magnitude() - np.abs(u0))) < 1e-4


def test_second_order_convergence():
    sd, kern, drive = semicircle_setup()
    grid_c = aligned_grid(10.0, 0.02, drive)
    grid_f = aligned_grid(10.0, 0.01, drive)
    _, est_c = convergence_check(kern, 0.0, [drive], grid_c)
    _, est_f = convergence_check(kern, 0.0, [drive], grid_f)
    assert 3.5 < est_c[0] / est_f[0] < 4.5


def test_contractivity_random_scenarios():
    rng = np.random.default_rng(17)
    for _ in range(6):
        eta = rng.uniform(0.0, 2.0)
        shape = rng.choice(["sine", "square"])
        drive = DrivingField(mean=rng.uniform(-2.0, 2.5),
                             period=rng.uniform(1.0, 6.0), shape=shape,
                             amplitude=rng.uniform(0.0, 2.0))
        sd = Semicircle(eta=eta)
        grid = aligned_grid(15.0, 0.01, drive)
        tr = evolve(SemicircleKernel(sd), 0.0, drive, grid)
        assert np.max(tr.magnitude()) <= 1.0 + 1e-6


def test_level_split_invariance():
    # only eps_s + mean enters; moving weight between them changes nothing
    sd, kern, _ = semicircle_setup()
    grid = TimeGrid(0.01, 2000)
    d1 = DrivingField(mean=2.5, period=1.25, shape="sine", amplitude=0.5)
    d2 = DrivingField(mean=0.0, period=1.25, shape="sine", amplitude=0.5)
    a = evolve(kern, 0.0, d1, grid)
    b = evolve(kern, 2.5, d2, grid)
    assert np.array_equal(a.values, b.values)


def test_square_switches_must_hit_nodes():
    sd, kern, _ = semicircle_setup()
    drive = DrivingField(mean=2.5, period=1.0, shape="square", amplitude=0.5)
    bad = TimeGrid(0.013, 1000)   # T/2 = 0.5 not a multiple
    with pytest.raises(StepTooLarge):
        evolve(kern, 0.0, drive, bad)
    good = aligned_grid(10.0, 0.013, drive)
    assert (0.5 / good.h) == pytest.approx(round(0.5 / good.h), abs=1e-9)
    evolve(kern, 0.0, drive, good)


def test_aligned_grid_snaps_down():
    drive = DrivingField(period=1.0, shape="square", amplitude=0.5)
    g = aligned_grid(10.0, 0.013, drive)
    assert g.h <= 0.013
    assert g.t_end >= 10.0 - 1e-12


def test_snapped_switch_times_keep_order_and_extrapolation():
    # why aligned_grid snaps h: with a switch inside a step the scheme
    # still converges, but the halving ratio wanders off 4 and Richardson
    # extrapolation, (4 u_{h/2} - u_h) / 3, gains far less.  Here snapped:
    # ratio 3.9997, gain 5600x; with h left at 0.01: 3.94 and 200x
    sd, kern, _ = semicircle_setup()
    drive = DrivingField(mean=2.5, period=1.2345, shape="square",
                         amplitude=0.5)
    grid = aligned_grid(20.0, 0.01, drive)
    u = [evolve(kern, 0.0, drive,
                TimeGrid(grid.h / 2 ** k, grid.n_steps * 2 ** k))
         .values[::2 ** k] for k in range(4)]
    ratio = np.max(np.abs(u[0] - u[1])) / np.max(np.abs(u[1] - u[2]))
    assert 3.99 <= ratio <= 4.01
    ref = (4.0 * u[3] - u[2]) / 3.0
    extrapolated = (4.0 * u[1] - u[0]) / 3.0
    assert 1000.0 * np.max(np.abs(extrapolated - ref)) \
        <= np.max(np.abs(u[0] - ref))


def test_step_limits():
    sd, kern, _ = semicircle_setup()
    fast = DrivingField(mean=9.0, period=1.25, shape="sine", amplitude=5.0)
    with pytest.raises(StepTooLarge):
        evolve(kern, 0.0, fast, TimeGrid(0.05, 100))
    slow_sampling = DrivingField(mean=0.0, period=0.2, shape="sine",
                                 amplitude=0.1)
    with pytest.raises(StepTooLarge):
        evolve(kern, 0.0, slow_sampling, TimeGrid(0.01, 100))


README_DRIVE = DrivingField(mean=2.5, period=1.25, shape="sine",
                            amplitude=0.5)


@pytest.mark.parametrize("eps0", [1e3, -1e3, 1e8, 1e15])
def test_band_far_from_the_level_is_refused(eps0):
    # h max|eps(t) - e| over the band: 0.01 (|2.5 - eps0| + 2 + 0.5) is
    # 10 rad a step at eps0 1e3, where evolve was 2.4 times the band's
    # whole effect off the exact chain
    kern = SemicircleKernel(Semicircle(eta=1.0, eps0=eps0))
    with pytest.raises(StepTooLarge, match="band energy"):
        evolve(kern, 0.0, README_DRIVE, TimeGrid(0.01, 200))


def test_band_phase_counts_the_hull_of_every_band():
    # at h 0.01 the band [90, 92] alone is 0.01 (91 + 1 + 0.5) = 0.925 rad
    # a step from the level; a second band at [108, 110] sets 1.105 rad
    near = Tabulated(grid=(90.0, 91.0, 92.0), values=(0.0, 1.0, 0.0),
                     band=((90.0, 92.0),))
    both = Tabulated(grid=(90.0, 91.0, 92.0, 108.0, 109.0, 110.0),
                     values=(0.0, 1.0, 0.0, 0.0, 1.0, 0.0),
                     band=((90.0, 92.0), (108.0, 110.0)))
    drive = DrivingField(mean=0.0, period=1.25, shape="sine", amplitude=0.5)
    grid = TimeGrid(0.01, 20)
    evolve(QuadratureKernel(near), 0.0, drive, grid)
    with pytest.raises(StepTooLarge, match="band energy"):
        evolve(QuadratureKernel(both), 0.0, drive, grid)


def test_largest_band_phase_keeps_a_tenth_of_the_band_effect():
    # at the gate, 1 rad a step (eps0 100, h 0.01), evolve stays within a
    # tenth of what the band does to u at all (0.080 measured)
    sd = Semicircle(eta=1.0, eps0=100.0)
    grid = TimeGrid(0.01, 200)
    u = evolve(SemicircleKernel(sd), 0.0, README_DRIVE, grid).values
    ref = oracle.propagate(sd, 0.0, README_DRIVE, grid).values
    t = grid.times()
    free = np.exp(-1j * (2.5 * t + README_DRIVE.modulation_integral(t)))
    assert np.max(np.abs(u - ref)) <= 0.1 * np.max(np.abs(ref - free))


def test_compare_grid_mismatch():
    v = np.ones(3, dtype=complex)
    a = PropagatorTrace(TimeGrid(0.1, 2), v)
    b = PropagatorTrace(TimeGrid(0.2, 2), v)
    with pytest.raises(GridMismatch):
        compare(a, b)
    assert compare(a, PropagatorTrace(TimeGrid(0.1, 2), 2 * v)) == 1.0


def test_convergence_check_is_two_evolves(kinked_two_band):
    # one kernel serves both steps: the check is an evolve at h and one at
    # h/2, compared on the nodes they share
    kern = QuadratureKernel(kinked_two_band)
    drive = DrivingField(mean=0.2, period=1.25, shape="sine", amplitude=0.5)
    grid = aligned_grid(5.0, 0.02, drive)
    half = TimeGrid(0.5 * grid.h, 2 * grid.n_steps)
    (fine,), (est,) = convergence_check(kern, 0.0, [drive], grid)
    coarse = evolve(kern, 0.0, drive, grid)
    direct = evolve(kern, 0.0, drive, half)
    assert fine.grid == half
    assert np.array_equal(fine.values, direct.values)
    assert est == np.max(np.abs(coarse.values - direct.values[::2]))


def test_history_affects_solution():
    # memory really feeds back: zeroing the kernel changes the answer
    sd, kern, drive = semicircle_setup()
    grid = TimeGrid(0.01, 500)
    full = evolve(kern, 0.0, drive, grid)
    free = evolve(SemicircleKernel(Semicircle(eta=0.0)), 0.0, drive, grid)
    assert compare(full, free) > 0.01


def _rel_dev(a, b):
    return np.max(np.abs(a.values - b.values)) / np.max(np.abs(b.values))


@pytest.mark.parametrize("shape", ["sine", "square"])
def test_blocked_history_matches_direct_semicircle(shape, small_slab):
    sd, kern, drive = semicircle_setup(shape=shape)
    h = aligned_grid(1.0, 0.01, drive).h
    for n in SCHEDULE_NS:
        grid = TimeGrid(h, n)
        fast = evolve(kern, 0.0, drive, grid)
        assert _rel_dev(fast, _evolve_direct(kern, 0.0, drive, grid)) \
            <= 1e-12, n


def test_blocked_history_matches_direct_tabulated(kinked_two_band,
                                                  small_slab):
    drive = DrivingField(mean=0.2, period=1.25, shape="sine", amplitude=0.5)
    h = 0.01
    kern = QuadratureKernel(kinked_two_band)
    for n in SCHEDULE_NS:
        grid = TimeGrid(h, n)
        fast = evolve(kern, 0.0, drive, grid)
        assert _rel_dev(fast, _evolve_direct(kern, 0.0, drive, grid)) \
            <= 1e-12, n


def test_evolve_is_deterministic(kinked_two_band, small_slab):
    drive = DrivingField(mean=0.2, period=1.25, shape="square", amplitude=0.5)
    grid = aligned_grid(0.01 * SCHEDULE_NS[-1], 0.01, drive)
    kern = QuadratureKernel(kinked_two_band)
    a = evolve(kern, 0.0, drive, grid)
    b = evolve(kern, 0.0, drive, grid)
    assert np.array_equal(a.values, b.values)


class _NanLagKernel:
    """Semicircle kernel with one NaN lag, as a broken table would give."""

    def __init__(self, bad_lag):
        self.inner = SemicircleKernel(Semicircle(eta=1.0))
        self.sd = self.inner.sd
        self.bad_lag = bad_lag

    def lag_samples(self, h, n):
        g = self.inner.lag_samples(h, n).copy()
        g[self.bad_lag] = np.nan
        return g


def test_non_finite_values_raise_naming_the_node():
    drive = DrivingField(mean=2.5, period=1.25, shape="sine", amplitude=0.5)
    # lag 5 first enters the history at t_5, so u_5 is the first bad node
    with pytest.raises(StepTooLarge, match=r"node 5 \(t = 0\.05\)"):
        evolve(_NanLagKernel(5), 0.0, drive, TimeGrid(0.01, 300))


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
def test_batched_columns_match_single_solves_semicircle(shape, small_slab):
    drives = _batch_drives(shape, (2.5, 1.0, -0.5))
    kern = SemicircleKernel(Semicircle(eta=1.0))
    h = aligned_grid(1.0, 0.01, drives[0]).h
    for n in SCHEDULE_NS:
        _columns_match_singles(kern, drives, TimeGrid(h, n))


@pytest.mark.parametrize("shape", ["sine", "square"])
def test_batched_columns_match_single_solves_tabulated(kinked_two_band,
                                                       shape, small_slab):
    drives = _batch_drives(shape, (0.2, 0.5, -1.5))
    h = aligned_grid(1.0, 0.01, drives[0]).h
    kern = QuadratureKernel(kinked_two_band)
    for n in SCHEDULE_NS:
        _columns_match_singles(kern, drives, TimeGrid(h, n))


def test_wide_batches_match_single_solves(small_slab):
    # every width cuts its squares into the same PIECE-node pieces, and
    # walks the columns of the widest ones in chunks; at 3 PIECE + 5 the
    # second target piece of the widest square is cut short
    kern = SemicircleKernel(Semicircle(eta=1.0))
    grid = TimeGrid(0.01, 3 * PIECE + 5)
    for p in (5, sweep._BATCH):
        drives = _batch_drives("sine", [2.5 - 0.15 * j for j in range(p)])
        _columns_match_singles(kern, drives, grid)


def test_batched_convergence_check_matches_single():
    drives = _batch_drives("sine", (2.5, 1.0))
    sd = Semicircle(eta=1.0)
    grid = aligned_grid(5.0, 0.02, drives[0])
    kern = kernel_for(sd)
    fine, est = convergence_check(kern, 0.0, drives, grid)
    for d, tr, e in zip(drives, fine, est):
        (tr1,), (e1,) = convergence_check(kern, 0.0, [d], grid)
        assert _rel_dev(tr, tr1) <= 1e-12
        assert e == pytest.approx(e1, rel=1e-9, abs=1e-15)


def test_non_finite_value_in_a_batch_names_the_node():
    drives = _batch_drives("sine", (2.5, 1.0, 0.0))
    with pytest.raises(StepTooLarge, match=r"node 5 \(t = 0\.05\)"):
        evolve(_NanLagKernel(5), 0.0, drives, TimeGrid(0.01, 300))


class _NanPhaseDrive(DrivingField):
    """A sine drive whose level phase turns NaN from t = 1.995 on."""

    def modulation_integral(self, t):
        out = super().modulation_integral(t)
        return np.where(np.asarray(t) >= 1.995, np.nan, out)


def test_non_finite_value_past_the_first_scan_slab_names_the_node(
        small_slab):
    # the scan walks u _SLAB // 3 = 170 rows at a time; node 200 of a
    # 3-wide batch lies in its second slab
    drives = _batch_drives("sine", (2.5, 1.0))
    drives.append(_NanPhaseDrive(mean=0.0, period=1.25, shape="sine",
                                 amplitude=0.5))
    kern = SemicircleKernel(Semicircle(eta=1.0))
    with pytest.raises(StepTooLarge, match=r"node 200 \(t = 2\)"):
        evolve(kern, 0.0, drives, TimeGrid(0.01, 250))


def test_batch_memory_stays_bounded(traced_peak, monkeypatch):
    # traced peak of a solve, less its result and its lag samples: the
    # phase window, the far sums' transforms and the scan's slab, none of
    # which grows with the width.  Under a 2^12-element slab the grid and
    # the bound are 1/4 of the default's N = 10 000 and 1.5 MB (measured
    # 0.33 MB at both widths, 1.2-1.4 MB at the default; numpy 2.4.6)
    monkeypatch.setattr(oscquad, "_SLAB", 1 << 12)
    kern = SemicircleKernel(Semicircle(eta=0.8))
    grid = TimeGrid(0.01, 2500)
    for p in (8, sweep._BATCH):
        drives = [DrivingField(mean=1.0, period=1.0 + j, shape="sine",
                               amplitude=0.5) for j in range(p)]
        _, peak = traced_peak(evolve, kern, 0.0, drives, grid)
        result = (grid.n_steps + 1) * (p + 1) * 16
        assert peak - result <= 1.5e6 / 4, (p, peak - result)


def test_far_sum_memory_is_accumulators_plus_live_windows(traced_peak,
                                                          monkeypatch):
    # one square 16 pieces wide on one column, under a 2^10-element slab
    # (pieces of 256 nodes): k = 16 target accumulators, at most k live lag
    # windows, and the source, its zero-padded copy and the product, each
    # a transform of 2 pieces; holding all 2k - 1 lag windows of the
    # square would take 3k + 3
    monkeypatch.setattr(oscquad, "_SLAB", 1 << 10)
    piece = oscquad._SLAB // 4
    k = 16
    size = k * piece
    rng = np.random.default_rng(0)
    u = rng.standard_normal((2 * size + 1, 1)) + 0j
    g = rng.standard_normal(2 * size + 1) + 0j
    transform = 2 * piece * 16
    _, peak = traced_peak(volterra._add_far, u, g, 1, 1 + size, size)
    assert peak <= (2 * k + 4) * transform, peak / transform
