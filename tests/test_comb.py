import numpy as np
import pytest

from drivenlevel.comb import (DISSIPATES, STRONG_DRIVING_UNRELIABLE, SURVIVES,
                              WEAK_DRIVING_VALID, comb_report, comb_reports,
                              late_window_peaks, survival_metric)
from drivenlevel.driving import DrivingField
from drivenlevel.errors import WindowOutOfRange
from drivenlevel.spectral import BoundState, Semicircle, find_bound_states
from drivenlevel.volterra import PropagatorTrace, TimeGrid

BAND = ((-2.0, 2.0),)
STATE = BoundState(2.9, 0.84)


def sine(period, amplitude=0.5, mean=2.5):
    return DrivingField(mean=mean, period=period, shape="sine",
                        amplitude=amplitude)


def test_fast_sine_survives():
    # delta_omega = 5.03 jumps clear over the band from 2.9
    r = comb_report(STATE, sine(1.25), BAND)
    assert r.prediction == SURVIVES
    assert r.overlaps == ()
    assert r.min_order is None
    # 2.9 sits 0.9 above the band, so the default threshold is 0.45 and
    # even A = 0.5 counts as strong driving for this state
    assert r.reliability == STRONG_DRIVING_UNRELIABLE


def test_slower_sine_first_order():
    # 2.9 - 2 pi / 1.32 = -1.86 lands in the band on the first harmonic
    r = comb_report(STATE, sine(1.32), BAND)
    assert r.prediction == DISSIPATES
    assert r.min_order == 1
    assert any(o.n == 1 and o.sign == -1 for o in r.overlaps)


def test_slow_sine_needs_two_quanta():
    # delta_omega = 0.628: n = 1 misses the band, n = 2 hits, but a sine
    # has no second harmonic, so the cheapest process is second order
    r = comb_report(STATE, sine(10.0), BAND)
    assert r.prediction == DISSIPATES
    assert r.min_order == 2


def test_slow_square_first_order():
    # same comb as the slow sine, but the square wave's third harmonic is
    # real drive content: the n = 3 overlap is first order
    f = DrivingField(mean=2.5, period=10.0, shape="square", amplitude=0.5)
    r = comb_report(STATE, f, BAND)
    assert r.prediction == DISSIPATES
    assert r.min_order == 1
    order_by_n = {o.n: o.order for o in r.overlaps}
    assert order_by_n[3] == 1
    assert order_by_n[2] == 2


def test_overlap_energies_inside_band():
    r = comb_report(STATE, sine(1.32), BAND)
    for o in r.overlaps:
        assert BAND[0][0] <= o.energy <= BAND[0][1]
        assert o.energy == pytest.approx(2.9 + o.sign * o.n * r.delta_omega)


def test_strong_driving_flag():
    # default threshold: half the distance to the nearest band edge
    r = comb_report(STATE, sine(1.32, amplitude=5.0), BAND)
    assert r.strong_threshold == pytest.approx(0.45)
    assert r.reliability == STRONG_DRIVING_UNRELIABLE
    weak = comb_report(STATE, sine(1.32, amplitude=0.1), BAND)
    assert weak.reliability == WEAK_DRIVING_VALID


def test_reports_for_real_two_state_system():
    sd = Semicircle(eta=2.5)
    states = find_bound_states(sd, 0.5)
    rs = comb_reports(states, sine(1.25, mean=0.5), sd.band)
    assert [r.prediction for r in rs] == [SURVIVES, SURVIVES]
    rs = comb_reports(states, sine(1.32, mean=0.5), sd.band)
    # upper state gains a channel, lower keeps clear
    by_energy = {round(r.state_energy, 2): r.prediction for r in rs}
    assert by_energy[2.95] == DISSIPATES
    assert by_energy[-2.54] == SURVIVES


def two_tone_trace(h=0.01, n=20000):
    grid = TimeGrid(h, n)
    t = grid.times()
    u = (0.469325 * np.exp(-1j * 2.94629299 * t)
         + 0.340199 * np.exp(+1j * 2.54153109 * t))
    return PropagatorTrace(grid, u)


def test_survival_metric_constant_trace():
    grid = TimeGrid(0.01, 1000)
    tr = PropagatorTrace(grid, 0.7 * np.ones(1001, dtype=complex))
    assert survival_metric(tr, (2.0, 8.0)) == pytest.approx(0.7, rel=1e-12)


def test_survival_metric_window_checks():
    grid = TimeGrid(0.01, 100)
    tr = PropagatorTrace(grid, np.ones(101, dtype=complex))
    with pytest.raises(WindowOutOfRange):
        survival_metric(tr, (0.5, 2.0))     # past the end
    with pytest.raises(WindowOutOfRange):
        survival_metric(tr, (0.8, 0.2))     # reversed
    with pytest.raises(WindowOutOfRange):
        late_window_peaks(tr, (-1.0, 0.5))


def test_peaks_single_line():
    grid = TimeGrid(0.01, 20000)
    t = grid.times()
    tr = PropagatorTrace(grid, 0.34 * np.exp(+1j * 2.5415 * t))
    peaks = late_window_peaks(tr, (150.0, 200.0))
    assert len(peaks) == 1
    freq, weight = peaks[0]
    assert freq == pytest.approx(-2.5415, abs=0.02)
    assert weight == pytest.approx(0.34, abs=0.01)


def test_peaks_two_lines_and_spacing():
    tr = two_tone_trace()
    peaks = late_window_peaks(tr, (150.0, 200.0))
    assert len(peaks) == 2
    (f1, w1), (f2, w2) = peaks
    assert w1 > w2
    assert f1 == pytest.approx(2.94629299, abs=0.02)
    assert f2 == pytest.approx(-2.54153109, abs=0.02)
    # line spacing within the window's frequency resolution
    assert abs(abs(f1 - f2) - 5.48782408) < 2.0 * np.pi / 50.0


def test_peaks_drop_weak_satellites():
    # a drive replica a few percent of its parent is not a second component
    grid = TimeGrid(0.01, 20000)
    t = grid.times()
    u = (0.4 * np.exp(-1j * 2.9 * t)
         + 0.028 * np.exp(+1j * 2.1 * t))          # 7% satellite
    peaks = late_window_peaks(PropagatorTrace(grid, u), (150.0, 200.0))
    assert len(peaks) == 1
    u2 = u + 0.16 * np.exp(+1j * 0.7 * t)          # 40%: a real partner
    peaks = late_window_peaks(PropagatorTrace(grid, u2), (150.0, 200.0))
    assert len(peaks) == 2


def test_peaks_silent_trace():
    grid = TimeGrid(0.01, 20000)
    t = grid.times()
    # residual continuum ripple well below any surviving line
    u = 1.5e-3 * np.exp(-2j * t) + 1e-3 * np.exp(2j * t)
    assert late_window_peaks(PropagatorTrace(grid, u), (150.0, 200.0)) == []
    zero = PropagatorTrace(grid, np.zeros_like(t, dtype=complex))
    assert late_window_peaks(zero, (150.0, 200.0)) == []
