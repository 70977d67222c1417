"""Survival prediction from the drive's frequency comb, plus trace metrics.

A bound state at eps_l only dissipates under periodic driving if some comb
line eps_l +- n * (2 pi / T) lands inside the reservoir band: the drive must
bridge the gap in an integer number of quanta.  The order of the cheapest
bridging process tags how fast the decay is: a harmonic actually present in
the drive's spectrum bridges at first order, a missing one needs an n-quantum
process of the fundamental.

The rule ignores the drive amplitude, so it degrades for strong driving; a
report whose peak modulation reaches half the state's distance to the
nearest band edge is flagged unreliable rather than trusted.  All comb
orders up to N_MAX are tested.
"""

from dataclasses import dataclass

import numpy as np

from .errors import WindowOutOfRange

WEAK_DRIVING_VALID = "weak-driving-valid"
STRONG_DRIVING_UNRELIABLE = "strong-driving-unreliable"

SURVIVES = "survives"
DISSIPATES = "dissipates"

_COEFF_TOL = 1e-12
N_MAX = 12
DEFAULT_PEAK_FLOOR = 1e-2
PEAK_THRESHOLD_RATIO = 10.0
PEAK_DOMINANCE = 0.25


@dataclass(frozen=True)
class CombOverlap:
    """One comb line inside the band: eps_l + sign*n*dw = energy."""

    n: int
    sign: int
    energy: float
    order: int


@dataclass(frozen=True)
class CombReport:
    state_energy: float
    residue: float
    delta_omega: float
    n_max: int
    overlaps: tuple
    min_order: object          # int, or None when nothing bridges
    prediction: str
    strong_threshold: float
    reliability: str


def _in_band(energy, intervals):
    return any(lo <= energy <= hi for lo, hi in intervals)


def comb_report(bound, f, band):
    """Survival verdict for one BoundState under a periodic drive.

    band is the density's tuple of (lo, hi) intervals.
    """
    energy = bound.energy
    dw = f.base_frequency
    # |A_n| + |B_n| of the harmonic's sin and cos terms
    v = f.harmonics(N_MAX)
    present = 2.0 * (np.abs(v.real) + np.abs(v.imag)) > _COEFF_TOL

    overlaps = []
    for n in range(1, N_MAX + 1):
        order = 1 if present[n - 1] else n
        for sign in (+1, -1):
            shifted = energy + sign * n * dw
            if _in_band(shifted, band):
                overlaps.append(CombOverlap(n, sign, float(shifted), order))
    min_order = min((o.order for o in overlaps), default=None)
    prediction = DISSIPATES if overlaps else SURVIVES

    edges = [e for lohi in band for e in lohi]
    strong_threshold = 0.5 * min(abs(energy - e) for e in edges)
    reliability = (STRONG_DRIVING_UNRELIABLE
                   if f.max_modulation() >= strong_threshold
                   else WEAK_DRIVING_VALID)
    return CombReport(float(energy), float(bound.residue), float(dw), N_MAX,
                      tuple(overlaps), min_order, prediction,
                      float(strong_threshold), reliability)


def comb_reports(states, f, band):
    """comb_report over a list of bound states."""
    return [comb_report(s, f, band) for s in states]


def _window_slice(trace, window):
    t1, t2 = float(window[0]), float(window[1])
    if t2 <= t1:
        raise WindowOutOfRange(f"empty window ({t1}, {t2})")
    t = trace.times()
    eps = 1e-9 * trace.grid.h
    if t1 < t[0] - eps or t2 > t[-1] + eps:
        raise WindowOutOfRange(
            f"window ({t1}, {t2}) outside trace span ({t[0]}, {t[-1]})")
    mask = (t >= t1 - eps) & (t <= t2 + eps)
    if np.count_nonzero(mask) < 2:
        raise WindowOutOfRange(f"window ({t1}, {t2}) holds fewer than 2 nodes")
    return t[mask], trace.values[mask]


def survival_metric(trace, window):
    """Time-averaged |u| over the window (trapezoidal)."""
    t, u = _window_slice(trace, window)
    return float(np.trapezoid(np.abs(u), t) / (t[-1] - t[0]))


def late_window_peaks(trace, window):
    """Dominant spectral lines of u on the window.

    Hann-windowed, zero-padded DFT; a line counts as a peak when it is a
    local maximum above PEAK_THRESHOLD_RATIO times the median magnitude and
    above DEFAULT_PEAK_FLOOR.  The absolute floor is what separates genuine
    surviving components (weights of order 0.1) from taper sidelobes (under
    1% of a line) and from the slowly decaying continuum tail a fully
    dissipated trace still carries (|u| of order 1e-3).  Peaks within one
    main lobe of a stronger one are absorbed by it.  A surviving component
    under periodic driving also drags weak replicas at multiples of the
    drive frequency (about beta/2 = A/(2*delta_omega) of the parent line,
    near 10% once a neighboring resonance enhances one); those are
    satellites of one component, not extra components, so peaks below
    PEAK_DOMINANCE times the strongest line are dropped.  Distinct states
    carry comparable weights (ratios well above 0.5 here), so 0.25
    separates the two populations.  Returns (frequency, weight) pairs
    sorted by weight, strongest first; frequencies are signed and a
    component Z e^{-i eps t} peaks at eps with weight ~ Z.
    """
    t, u = _window_slice(trace, window)
    m = u.size
    h = trace.grid.h
    taper = np.hanning(m)
    y = u * taper
    npad = 4 * m
    spec = np.fft.fft(np.conj(y), n=npad)
    mag = np.abs(spec) / np.sum(taper)
    # fft of conj(u) puts the e^{-i eps t} component at +eps
    freqs = 2.0 * np.pi * np.fft.fftfreq(npad, d=h)
    order = np.argsort(freqs)
    freqs, mag = freqs[order], mag[order]

    floor = max(PEAK_THRESHOLD_RATIO * float(np.median(mag)),
                DEFAULT_PEAK_FLOOR)
    local = (mag[1:-1] > mag[:-2]) & (mag[1:-1] >= mag[2:]) & (mag[1:-1] > floor)
    cand = np.nonzero(local)[0] + 1
    cand = cand[np.argsort(mag[cand])[::-1]]

    lobe = 4.0 * 2.0 * np.pi / (t[-1] - t[0])
    peaks = []
    for i in cand:
        if all(abs(freqs[i] - fp) > lobe for fp, _ in peaks):
            peaks.append((float(freqs[i]), float(mag[i])))
    if peaks:
        cut = PEAK_DOMINANCE * peaks[0][1]
        peaks = [p for p in peaks if p[1] >= cut]
    return peaks
