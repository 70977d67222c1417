import mpmath as mp
import numpy as np
import pytest
from scipy import integrate
from scipy.special import j1

from drivenlevel import oscquad
from drivenlevel.kernel import QuadratureKernel, SemicircleKernel, kernel_for
from drivenlevel.spectral import Semicircle, Tabulated, eval_j


def brute_force_kernel(sd, s):
    """(1/2pi) int J(e) e^{-i e s} de by direct quadrature, one s at a time."""
    (lo, hi), = sd.band
    re, _ = integrate.quad(lambda e: eval_j(sd, e) * np.cos(e * s), lo, hi,
                           limit=400)
    im, _ = integrate.quad(lambda e: eval_j(sd, e) * np.sin(e * s), lo, hi,
                           limit=400)
    return (re - 1j * im) / (2.0 * np.pi)


def test_zero_lag_value():
    for eta, v0 in ((1.0, 1.0), (2.5, 1.0), (0.8, 0.6)):
        kern = SemicircleKernel(Semicircle(eta=eta, v0=v0))
        assert kern.eval(0.0) == pytest.approx(eta ** 2 * v0 ** 2, rel=1e-14)


def test_matches_brute_force():
    sd = Semicircle(eta=1.0, eps0=0.3)
    kern = SemicircleKernel(sd)
    for s in (0.0, 0.05, 0.7, 3.0, 11.0, 40.0):
        want = brute_force_kernel(sd, s)
        assert kern.eval(s) == pytest.approx(want, abs=1e-10)


def bessel_kernel(sd, s):
    """eta^2 v0 e^{-i eps0 s} J1(2 v0 s)/s, with its s -> 0 limit."""
    s = np.asarray(s, dtype=float)
    safe = np.where(s == 0.0, 1.0, s)
    ratio = np.where(s == 0.0, sd.v0, j1(2.0 * sd.v0 * safe) / safe)
    return sd.eta ** 2 * sd.v0 * np.exp(-1j * sd.eps0 * s) * ratio


@pytest.mark.parametrize("eta, eps0, v0", [
    (1.0, 0.0, 1.0), (0.8, 0.0, 1.0), (2.5, 0.0, 1.0), (1.3, 0.7, 1.7)])
def test_chebyshev_sum_matches_bessel_closed_form(eta, eps0, v0):
    sd = Semicircle(eta=eta, eps0=eps0, v0=v0)
    kern = SemicircleKernel(sd)
    tol = 1e-12 * eta ** 2 * v0 ** 2
    # uniform lag grids (phase_sum's blocked path), the longer one out to a
    # phase range 2 v0 max(s) of 3000
    n_long = int(np.ceil(3000.0 / (2.0 * v0 * 0.02)))
    for h, n in ((0.05, 100), (0.02, n_long)):
        want = bessel_kernel(sd, h * np.arange(n + 1))
        assert np.max(np.abs(kern.lag_samples(h, n) - want)) <= tol
    # scalars, s = 0 among them, and non-uniform arrays (direct path)
    for s in (0.0, 1e-9, 0.37, 12.0, 900.0):
        got = kern.eval(s)
        assert isinstance(got, complex)
        assert abs(got - bessel_kernel(sd, s)) <= tol
    rng = np.random.default_rng(7)
    for s in (np.sort(rng.uniform(0.0, 400.0, 50)),
              np.geomspace(1e-6, 900.0, 300)):
        assert np.max(np.abs(kern.eval(s) - bessel_kernel(sd, s))) <= tol


def test_analytic_vs_quadrature_cache(semicircle_quadrature_lags):
    sd = Semicircle(eta=1.0)
    h, n = 0.05, 400
    a = SemicircleKernel(sd).lag_samples(h, n)
    b = semicircle_quadrature_lags(sd, h, n)
    scale = np.max(np.abs(a))
    assert np.max(np.abs(a - b)) / scale < 1e-8


def test_eps0_shift_is_a_phase():
    base = SemicircleKernel(Semicircle(eta=1.0, eps0=0.0))
    moved = SemicircleKernel(Semicircle(eta=1.0, eps0=0.7))
    s = np.linspace(0.0, 20.0, 101)
    assert np.max(np.abs(moved.eval(s)
                         - np.exp(-0.7j * s) * base.eval(s))) < 1e-12


def test_long_lag_decay_envelope():
    # J1(2 v0 s)/s falls like s^{-3/2} with asymptotic amplitude
    # sqrt(1/pi) = 0.5642; check against that envelope with 2% headroom
    kern = SemicircleKernel(Semicircle(eta=1.0))
    s = np.linspace(5.0, 120.0, 300)
    bound = 1.02 * np.sqrt(1.0 / np.pi) * s ** -1.5
    assert np.all(np.abs(kern.eval(s)) <= bound)


def test_first_zero_location():
    # magnitude vanishes where the Bessel factor does, near s = 3.8317/2
    kern = SemicircleKernel(Semicircle(eta=1.0))
    s0 = 3.8317059702075125 / 2.0
    assert abs(kern.eval(s0)) < 1e-8
    assert abs(kern.eval(s0 + 0.2)) > 1e-3


def test_quadrature_kernel_tabulated_density():
    sc = Semicircle(eta=1.0)
    (lo, hi), = sc.band
    g = np.linspace(lo, hi, 4001)
    tab = Tabulated(grid=tuple(g), values=tuple(eval_j(sc, g)),
                    band=((lo, hi),))
    kq = QuadratureKernel(tab)
    ks = SemicircleKernel(sc)
    lags = np.arange(0, 16) * 0.2
    # limited by the table resolution, not the transform
    assert np.max(np.abs(kq.lag_samples(0.2, 15) - ks.eval(lags))) < 2e-4
    # an all-zero table (a decoupled level) gives exact zeros on both the
    # short-lag series and the long-lag phase sums
    zero = Tabulated(tab.grid, (0.0,) * len(tab.grid), tab.band)
    assert not np.any(QuadratureKernel(zero).lag_samples(0.2, 15))


def mp_tabulated_kernel(sd, s, dps=40):
    """(1/2pi) int J e^{-i e s} de of the interpolated table, cell by cell."""
    with mp.workdps(dps):
        s = mp.mpf(s)
        total = mp.mpc(0)
        cells = zip(sd.grid, sd.grid[1:], sd.values, sd.values[1:])
        for a, b, ja, jb in cells:
            if not any(lo <= a and b <= hi for lo, hi in sd.band):
                continue
            a, b, ja, jb = map(mp.mpf, (a, b, ja, jb))
            total += mp.quad(
                lambda e: (ja + (jb - ja) * (e - a) / (b - a)) * mp.expj(-e * s),
                [a, b])
        return complex(total / (2 * mp.pi))


def test_tabulated_kernel_small_lags(kinked_two_band):
    # the (1/s^2) slope-jump sum cancels at small lags; lag samples of step
    # s hold lag s as their second entry, so each lag shows any loss directly
    g0 = abs(mp_tabulated_kernel(kinked_two_band, 0.0))
    kern = QuadratureKernel(kinked_two_band)
    for s in (1e-7, 1e-5, 1e-3, 0.01, 0.5, 2.0):
        want = mp_tabulated_kernel(kinked_two_band, s)
        got = kern.lag_samples(s, 1)[1]
        assert abs(got - want) <= 1e-12 * g0


def test_tabulated_lag_samples_chunks_agree(kinked_two_band, monkeypatch):
    # a slab of 100 lags fills the 3001 lags in 31 chunks, the last one short
    kern = QuadratureKernel(kinked_two_band)
    whole = kern.lag_samples(0.01, 3000)
    monkeypatch.setattr(oscquad, "_SLAB", 100)
    chunked = kern.lag_samples(0.01, 3000)
    assert np.max(np.abs(chunked - whole)) <= 1e-15 * abs(whole[0])


def test_tabulated_lag_samples_memory_is_result_plus_chunk(
        kinked_two_band, traced_peak, monkeypatch):
    # under a 2^10-element slab, 1/16 of the default, the lags and the
    # allowed working memory are 1/16 of the default's 200 001 lags and 2 MB
    monkeypatch.setattr(oscquad, "_SLAB", 1 << 10)
    kern = QuadratureKernel(kinked_two_band)
    lags, peak = traced_peak(kern.lag_samples, 0.01, 12_500)
    assert lags.size == 12_501
    assert peak <= lags.nbytes + 2e6 / 16, peak - lags.nbytes


def test_kernel_for_dispatch():
    sd = Semicircle(eta=1.0)
    assert isinstance(kernel_for(sd), SemicircleKernel)
    with pytest.raises(TypeError):
        QuadratureKernel(sd)
    tab = Tabulated((-1.0, 0.0, 1.0), (0.0, 1.0, 0.0), ((-1.0, 1.0),))
    assert isinstance(kernel_for(tab), QuadratureKernel)
