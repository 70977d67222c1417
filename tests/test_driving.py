import numpy as np
import pytest
from scipy import integrate

from drivenlevel.driving import DrivingField
from drivenlevel.errors import ConfigError


def reconstruct(f, coeffs, t):
    """Evaluate a truncated harmonic series with the drive's base frequency."""
    t = np.asarray(t, dtype=float)
    w = f.base_frequency
    out = np.zeros_like(t)
    for n, (a, b) in enumerate(coeffs, start=1):
        out = out + a * np.sin(n * w * t) + b * np.cos(n * w * t)
    return out


def sin_cos_pairs(f, n_max):
    """(A_n, B_n) of the series sum_n A_n sin + B_n cos, n = 1..n_max, read
    off the harmonics: V_n = (B_n + i A_n) / 2."""
    return [(2.0 * v.imag, 2.0 * v.real) for v in f.harmonics(n_max)]


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
    coeffs = sin_cos_pairs(f, 5)
    assert coeffs[0] == (0.7, 0.0)
    assert all(c == (0.0, 0.0) for c in coeffs[1:])


def test_fourier_square_closed_form():
    f = DrivingField(period=2.0, shape="square", amplitude=1.0)
    coeffs = sin_cos_pairs(f, 6)
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
        for n, (a, b) in enumerate(sin_cos_pairs(f, 4), start=1):
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
    r = reconstruct(f, sin_cos_pairs(f, 3), t)
    assert np.max(np.abs(r - f.modulation(t))) < 1e-12


def test_reconstruct_square_l2_tail():
    # truncated series misses exactly the energy in the dropped harmonics:
    # sum of (4A/n pi)^2 / 2 over odd n > n_max
    A, n_max = 1.0, 51
    f = DrivingField(period=2.0, shape="square", amplitude=A)
    t = np.linspace(0.0, 2.0, 20001)[:-1]
    r = reconstruct(f, sin_cos_pairs(f, n_max), t)
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


def _fourier_reference(f, n_max):
    """The (A_n, B_n) closed forms the harmonics replace: A for a sine at
    n = 1, 4A/(n pi) on a square's odd n, a harmonics drive's own pairs
    (zero-padded)."""
    if f.shape == "sine":
        return [(f.amplitude if n == 1 else 0.0, 0.0)
                for n in range(1, n_max + 1)]
    if f.shape == "square":
        return [(4.0 * f.amplitude / (n * np.pi) if n % 2 else 0.0, 0.0)
                for n in range(1, n_max + 1)]
    return [f.coefficients[n - 1] if n <= len(f.coefficients) else (0.0, 0.0)
            for n in range(1, n_max + 1)]


def test_harmonics_reproduce_the_closed_forms_exactly():
    # A_n = 2 Im V_n and B_n = 2 Re V_n, bit for bit, up to n = 12
    rng = np.random.default_rng(21)
    fields = list(random_fields(rng, 30)) + [
        DrivingField(period=1.3, shape="square", amplitude=-2.7),
        DrivingField(period=0.7, shape="harmonics",
                     coefficients=((0.5, -1.0),) * 14)]
    for f in fields:
        for n_max in (1, 2, 7, 12):
            assert sin_cos_pairs(f, n_max) == _fourier_reference(f, n_max)


def test_harmonics_sum_to_the_modulation():
    # modulation = sum_k V_k e^{-ikwt} over k = +-1.., V_{-k} = conj V_k
    rng = np.random.default_rng(4)
    for f in random_fields(rng, 8):
        if f.shape == "square":
            continue
        t = np.linspace(0.0, 2.5 * f.period, 501)
        k = np.arange(1, 9)
        terms = f.harmonics(8)[:, None] \
            * np.exp(-1j * f.base_frequency * k[:, None] * t)
        series = 2.0 * np.sum(terms, axis=0).real
        assert np.max(np.abs(series - f.modulation(t))) < 1e-12 * max(
            1.0, f.max_modulation())
    f = DrivingField(period=2.0, shape="square", amplitude=0.8)
    assert f.harmonics(4)[0] == 2j * 0.8 / np.pi
    assert f.harmonics(4)[1] == 0.0


def test_sine_is_the_one_term_series_value_for_value():
    # the series loop gives a sine's closed forms exactly
    rng = np.random.default_rng(17)
    t = np.linspace(-3.0, 40.0, 10001)
    for _ in range(20):
        a, period = rng.uniform(-4.0, 4.0), rng.uniform(0.2, 12.0)
        f = DrivingField(period=period, shape="sine", amplitude=a)
        g = DrivingField(period=period, shape="harmonics",
                         coefficients=((a, 0.0),))
        w = 2.0 * np.pi / period
        for d in (f, g):
            assert np.array_equal(d.modulation(t), a * np.sin(w * t))
            assert np.array_equal(d.modulation_integral(t),
                                  (a / w) * (1.0 - np.cos(w * t)))
