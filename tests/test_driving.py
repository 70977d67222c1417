import numpy as np
import pytest
from scipy import integrate

from drivenlevel.driving import DrivingField, fourier_coefficients
from drivenlevel.errors import ConfigError


def reconstruct(f, coeffs, t):
    """Evaluate a truncated harmonic series with the drive's base frequency."""
    t = np.asarray(t, dtype=float)
    w = f.base_frequency
    out = np.zeros_like(t)
    for n, (a, b) in enumerate(coeffs, start=1):
        out = out + a * np.sin(n * w * t) + b * np.cos(n * w * t)
    return out


def random_fields(rng, n):
    for _ in range(n):
        shape = rng.choice(["sine", "square", "harmonics"])
        kwargs = dict(mean=rng.uniform(-2, 2), period=rng.uniform(0.3, 12.0),
                      shape=shape, amplitude=rng.uniform(0.0, 5.0))
        if shape == "harmonics":
            # drawn all the same, so the other shapes' draws do not move
            kwargs["amplitude"] = 0.0
            m = rng.integers(1, 5)
            kwargs["coefficients"] = tuple(
                (rng.normal(), rng.normal()) for _ in range(m))
        yield DrivingField(**kwargs)


def test_validation():
    with pytest.raises(ConfigError):
        DrivingField(period=0.0)
    with pytest.raises(ConfigError):
        DrivingField(period=-1.0)
    with pytest.raises(ConfigError):
        DrivingField(shape="triangle")


def test_unused_fields_are_refused():
    # a field the shape never reads would be accepted and then ignored
    for shape in ("sine", "square"):
        with pytest.raises(ConfigError, match="takes no coefficients"):
            DrivingField(shape=shape, amplitude=0.5,
                         coefficients=((0.5, 0.0),))
    with pytest.raises(ConfigError, match="takes no amplitude"):
        DrivingField(shape="harmonics", amplitude=0.5,
                     coefficients=((0.5, 0.0),))
    f = DrivingField(shape="harmonics", coefficients=((0.5, 0.0),))
    assert f.max_modulation() == pytest.approx(0.5, rel=1e-6)


def test_sine_values():
    f = DrivingField(mean=2.5, period=2.0, shape="sine", amplitude=0.5)
    assert f.base_frequency == pytest.approx(np.pi)
    assert f.modulation(0.5) == pytest.approx(0.5)
    assert f.mean + f.modulation(0.5) == pytest.approx(3.0)
    assert f.modulation(0.0) == 0.0
    assert f.max_modulation() == 0.5


def test_square_absolute_time_pattern():
    # +A on the first half of every period counted from t = 0
    f = DrivingField(period=2.0, shape="square", amplitude=1.5)
    assert f.modulation(0.0) == 1.5
    assert f.modulation(0.999) == 1.5
    assert f.modulation(1.0) == -1.5
    assert f.modulation(1.999) == -1.5
    assert f.modulation(2.0) == 1.5
    assert f.modulation(-0.5) == -1.5   # periodic continuation backwards
    t = np.array([0.1, 1.1, 4.1])
    assert np.allclose(f.modulation(t), [1.5, -1.5, 1.5])


def test_zero_mean_over_period():
    rng = np.random.default_rng(3)
    for f in random_fields(rng, 8):
        val, _ = integrate.quad(f.modulation, 0.0, f.period, limit=200)
        assert abs(val) < 1e-8 * max(1.0, f.max_modulation() * f.period)


def test_integral_matches_numeric_cumulative():
    # trapezoid reference only works for continuous shapes; the square
    # wave's jumps defeat it and get their own exact-area test below
    rng = np.random.default_rng(11)
    fields = [f for f in random_fields(rng, 14) if f.shape != "square"]
    for f in fields[:8]:
        t = np.linspace(0.0, 3.3 * f.period, 40001)
        numeric = integrate.cumulative_trapezoid(f.modulation(t), t,
                                                 initial=0.0)
        closed = f.modulation_integral(t)
        scale = max(1.0, np.max(np.abs(closed)))
        assert np.max(np.abs(closed - numeric)) < 5e-6 * scale


def test_square_integral_exact_areas():
    A, T = 1.5, 2.0
    f = DrivingField(period=T, shape="square", amplitude=A)
    # rises at rate +A for the first half period, falls back at -A
    assert f.modulation_integral(0.3) == pytest.approx(A * 0.3, abs=1e-14)
    assert f.modulation_integral(1.0) == pytest.approx(A * 1.0, abs=1e-14)
    assert f.modulation_integral(1.7) == pytest.approx(A * 0.3, abs=1e-14)
    assert f.modulation_integral(2.0) == pytest.approx(0.0, abs=1e-14)
    # whole periods drop out
    assert f.modulation_integral(2.0 + 0.3) == pytest.approx(A * 0.3,
                                                             abs=1e-13)
    assert f.modulation_integral(7 * T + 1.7) == pytest.approx(A * 0.3,
                                                               abs=1e-12)


def test_integral_is_periodic_offset_free():
    # whole periods contribute nothing
    rng = np.random.default_rng(5)
    for f in random_fields(rng, 6):
        for k in (1, 3, 7):
            assert f.modulation_integral(k * f.period) == pytest.approx(
                0.0, abs=1e-10 * max(1.0, f.amplitude * f.period))


def test_fourier_sine():
    f = DrivingField(period=2.0, shape="sine", amplitude=0.7)
    coeffs = fourier_coefficients(f, 5)
    assert coeffs[0] == (0.7, 0.0)
    assert all(c == (0.0, 0.0) for c in coeffs[1:])


def test_fourier_square_closed_form():
    f = DrivingField(period=2.0, shape="square", amplitude=1.0)
    coeffs = fourier_coefficients(f, 6)
    for n, (a, b) in enumerate(coeffs, start=1):
        want = 4.0 / (n * np.pi) if n % 2 == 1 else 0.0
        assert a == pytest.approx(want, rel=1e-12)
        assert b == 0.0


def test_fourier_matches_projection():
    # independent check: project modulation on sin/cos numerically
    rng = np.random.default_rng(8)
    for f in list(random_fields(rng, 4)) + [
            DrivingField(period=1.7, shape="square", amplitude=2.0)]:
        w = f.base_frequency
        for n, (a, b) in enumerate(fourier_coefficients(f, 4), start=1):
            sa, _ = integrate.quad(
                lambda t: f.modulation(t) * np.sin(n * w * t), 0, f.period,
                limit=300)
            sb, _ = integrate.quad(
                lambda t: f.modulation(t) * np.cos(n * w * t), 0, f.period,
                limit=300)
            assert a == pytest.approx(2.0 * sa / f.period, abs=1e-8)
            assert b == pytest.approx(2.0 * sb / f.period, abs=1e-8)


def test_reconstruct_sine_exact():
    f = DrivingField(period=3.0, shape="sine", amplitude=1.1)
    t = np.linspace(0.0, 9.0, 301)
    r = reconstruct(f, fourier_coefficients(f, 3), t)
    assert np.max(np.abs(r - f.modulation(t))) < 1e-12


def test_reconstruct_square_l2_tail():
    # truncated series misses exactly the energy in the dropped harmonics:
    # sum of (4A/n pi)^2 / 2 over odd n > n_max
    A, n_max = 1.0, 51
    f = DrivingField(period=2.0, shape="square", amplitude=A)
    t = np.linspace(0.0, 2.0, 20001)[:-1]
    r = reconstruct(f, fourier_coefficients(f, n_max), t)
    l2 = np.mean((r - f.modulation(t)) ** 2)
    tail = sum(0.5 * (4 * A / (n * np.pi)) ** 2
               for n in range(n_max + 2, 4001, 2))
    assert l2 == pytest.approx(tail, rel=0.02)


def test_max_modulation_harmonics():
    f = DrivingField(period=2.0, shape="harmonics",
                     coefficients=((1.0, 0.0), (0.5, 0.0)))
    t = np.linspace(0.0, 2.0, 200001)
    brute = np.max(np.abs(f.modulation(t)))
    assert f.max_modulation() == pytest.approx(brute, rel=1e-4)
