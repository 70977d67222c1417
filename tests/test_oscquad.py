import inspect

import mpmath as mp
import numpy as np
import pytest

from drivenlevel import oscquad, spectral
from drivenlevel.errors import QuadratureFailure
from drivenlevel.oscquad import angle_band_integral, phase_sum


def mp_phase_integral(f, a, b, t, dps=40):
    """High-precision reference for int f(x) e^{-ixt} dx."""
    with mp.workdps(dps):
        val = mp.quad(lambda x: f(x) * mp.e ** (-1j * t * x), [a, b])
        return complex(val)


def test_angle_path_matches_filon_on_smooth_band():
    # semicircle-weighted smooth function, moderate times; the reference is
    # 40-digit quadrature (the name records the Filon rule once used here)
    a, b = -2.0, 2.0
    f = lambda x: np.sqrt(np.maximum(4.0 - x * x, 0.0)) * np.cos(0.3 * x)
    times = np.array([0.0, 0.5, 3.0, 20.0, 80.0])
    got = angle_band_integral(f, a, b, times)
    for t, g in zip(times, got):
        want = mp_phase_integral(
            lambda x: mp.sqrt(4 - x * x) * mp.cos(0.3 * x),
            a, b, mp.mpf(t))
        assert abs(g - want) < 1e-12


def test_angle_path_bessel_identity():
    # int sqrt(4 - x^2) e^{-ixt} dx = 2 pi J1(2t)/t
    from scipy.special import j1

    f = lambda x: np.sqrt(np.maximum(4.0 - x * x, 0.0))
    times = np.array([0.1, 1.0, 10.0, 50.0, 200.0])
    got = angle_band_integral(f, -2.0, 2.0, times)
    want = 2.0 * np.pi * j1(2.0 * times) / times
    assert np.max(np.abs(got - want)) < 1e-11


def test_fourier_integral_budget_exhaustion(monkeypatch):
    # a kink off every panel edge leaves the angle path algebraic
    # convergence only, so tol 1e-13 is out of reach of a 1024-node budget
    monkeypatch.setattr(oscquad, "_MAX_NODES", 1 << 10)
    f = lambda x: np.abs(x - 0.3)
    with pytest.raises(QuadratureFailure):
        angle_band_integral(f, -1.0, 1.0, np.array([5.0]), tol=1e-13)


def test_breaks_split_the_band_at_a_kink():
    # |x - 0.3| sqrt(1 - x^2) converges only algebraically on one piece;
    # broken at the kink, each piece is analytic in its own angle
    f = lambda x: np.abs(x - 0.3) * np.sqrt(np.maximum(1.0 - x * x, 0.0))
    times = np.array([0.0, 1.0, 7.5, 40.0])
    got = angle_band_integral(f, -1.0, 1.0, times, tol=1e-12, breaks=[0.3])
    for t, g in zip(times, got):
        want = sum(mp_phase_integral(
            lambda x: abs(x - mp.mpf("0.3")) * mp.sqrt(1 - x * x),
            a, b, mp.mpf(t)) for a, b in ((-1, mp.mpf("0.3")),
                                          (mp.mpf("0.3"), 1)))
        assert abs(g - want) < 1e-13
    # break points outside the band, on its ends or repeated change nothing
    again = angle_band_integral(f, -1.0, 1.0, times, tol=1e-12,
                                breaks=(0.3, -1.0, 0.3, 1.0, 2.0, -5.0))
    assert np.array_equal(again, got)


def test_band_integral_layout_is_pinned():
    # the benchmark tracer reads f and times positionally (times fourth)
    # and wraps f to count nodes; breaks must never shift them
    params = inspect.signature(angle_band_integral).parameters
    assert list(params)[:4] == ["f", "a", "b", "times"]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD
               for p in list(params.values())[:5])
    assert params["breaks"].kind is inspect.Parameter.KEYWORD_ONLY


def direct_phase_sum(x, w, t):
    """Reference: the phase matrix in full, then one product."""
    return np.exp(-1j * np.outer(t, x)) @ w


def random_nodes(m, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-4.0, 4.0, m)
    w = rng.normal(size=m) + 1j * rng.normal(size=m)
    return x, w


def rel_dev(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.fixture
def blocked_calls(monkeypatch):
    """Count the calls that take the uniform-t blocked path."""
    calls = []
    blocked = oscquad._blocked_phase_sum

    def spy(*args):
        calls.append(args[2].size)
        return blocked(*args)

    monkeypatch.setattr(oscquad, "_blocked_phase_sum", spy)
    return calls


@pytest.mark.parametrize("t0, h, n", [
    (0.0, 0.01, 6001),      # solver grid from the origin
    (3.7, 0.013, 2500),     # t0 != 0, n = 50**2 fills every block
    (-40.0, 0.02, 4001),    # negative and positive times
    (-0.5, 0.1, 1001),      # n not a multiple of the block length
    (60.0, -0.03, 2000),    # descending times
])
def test_phase_sum_uniform_matches_direct(t0, h, n, blocked_calls):
    x, w = random_nodes(700)
    t = t0 + h * np.arange(n)
    got = phase_sum(x, w, t)
    assert got.shape == t.shape
    assert rel_dev(got, direct_phase_sum(x, w, t)) <= 1e-12
    assert blocked_calls == [n]


def test_phase_sum_short_and_scalar_times(blocked_calls):
    x, w = random_nodes(300, seed=1)
    t = 0.25 + 0.01 * np.arange(10)     # uniform but below the cutoff
    assert rel_dev(phase_sum(x, w, t), direct_phase_sum(x, w, t)) <= 1e-12
    one = phase_sum(x, w, 17.5)
    assert np.ndim(one) == 0
    assert rel_dev(np.atleast_1d(one),
                   direct_phase_sum(x, w, [17.5])) <= 1e-12
    assert phase_sum(x, w, np.empty(0)).shape == (0,)
    assert blocked_calls == []


def test_phase_sum_nonuniform_takes_direct_path(blocked_calls):
    x, w = random_nodes(400, seed=2)
    t = np.sort(np.random.default_rng(3).uniform(-50.0, 150.0, 3000))
    got = phase_sum(x, w, t)
    assert rel_dev(got, direct_phase_sum(x, w, t)) <= 1e-12
    # one time off the grid by far more than roundoff
    grid = 0.01 * np.arange(3000)
    grid[1234] += 1e-9
    assert rel_dev(phase_sum(x, w, grid),
                   direct_phase_sum(x, w, grid)) <= 1e-12
    assert blocked_calls == []


def test_phase_sum_slabs_bound_memory(monkeypatch, blocked_calls):
    # a slab budget far below the node count forces several node slabs
    monkeypatch.setattr(oscquad, "_SLAB", 5000)
    x, w = random_nodes(1500, seed=4)
    t = 1.0 + 0.05 * np.arange(5000)
    assert rel_dev(phase_sum(x, w, t), direct_phase_sum(x, w, t)) <= 1e-12
    assert blocked_calls == [5000]


def test_phase_sum_memory_is_output_plus_slabs(traced_peak, monkeypatch):
    # at 60 000 uniform times 64 nodes a slab fit a 2^14-element slab, so
    # every temporary beside the output is at most one slab
    monkeypatch.setattr(oscquad, "_SLAB", 1 << 14)
    x, w = random_nodes(2000, seed=5)
    t = 0.01 * np.arange(60_000)
    out, peak = traced_peak(phase_sum, x, w, t)
    slab_bytes = oscquad._SLAB * np.dtype(complex).itemsize
    assert peak - out.nbytes <= 5 * slab_bytes, peak - out.nbytes


def test_gauss_legendre_constants_match_leggauss():
    glx, glw = np.polynomial.legendre.leggauss(16)
    assert np.array_equal(oscquad._GL16_X, glx)
    assert np.array_equal(oscquad._GL16_W, glw)


def test_u0_readme_run_matches_direct_path(monkeypatch):
    # the README's run: semicircle eta 1, level at 2.5, t <= 200, h = 0.01
    sd = spectral.Semicircle(eta=1.0)
    t = 0.01 * np.arange(20001)
    fast = spectral.compute_u0(sd, 2.5, t)
    monkeypatch.setattr(oscquad, "_BLOCKED_MIN", t.size + 1)
    direct = spectral.compute_u0(sd, 2.5, t)
    assert rel_dev(fast, direct) <= 1e-12


def test_u0_readme_run_frozen_and_node_count(band_nodes):
    # values of the whole-band rule this quadrature replaced (one piece,
    # 3200 -> 6400 nodes); now 800 -> 1600
    sd = spectral.Semicircle(eta=1.0)
    t = 0.01 * np.arange(20001)
    u = spectral.compute_u0(sd, 2.5, t)
    frozen = {
        0: 1.0000000000000362 + 0j,
        1: 0.9996375249212157 - 0.024996562643880373j,
        250: 0.44692700070875574 - 0.6878622303121295j,
        3333: -0.6245753567453969 - 0.5621837702642322j,
        7919: -0.7986303377061447 + 0.26015940908446483j,
        12500: -0.2912415372936603 + 0.7878921465588662j,
        17321: 0.7902733074887848 + 0.2847817140770257j,
        20000: -0.3085842946614102 - 0.781305507941138j,
    }
    for k, want in frozen.items():
        assert abs(u[k] - want) <= 1e-13, k
    assert len(band_nodes) == 1 and band_nodes[0][-1] <= 1600
