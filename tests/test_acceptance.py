"""End-to-end qualification: ten headline checks spanning every module.

Each test prints a single PASS/FAIL line (run with -s to see them live).
The scenario checks drive the full pipeline: closed-form statics,
kernel, Volterra propagation, lattice cross-validation, peak analysis and
sweeps.  Long evolutions are shared through module-scoped fixtures.
"""

import time

import numpy as np
import pytest

from drivenlevel import oracle
from drivenlevel.comb import (STRONG_DRIVING_UNRELIABLE, comb_report,
                              late_window_peaks, survival_metric)
from drivenlevel.config import RunConfig
from drivenlevel.driving import DrivingField
from drivenlevel.kernel import SemicircleKernel, kernel_for
from drivenlevel.spectral import Semicircle, find_bound_states, spectrum
from drivenlevel.sweep import read_rows, run_sweep
from drivenlevel.volterra import aligned_grid, convergence_check, evolve


def report(name, parts):
    bad = [label for label, ok in parts if not ok]
    verdict = "PASS" if not bad else "FAIL (" + "; ".join(bad) + ")"
    print(f"{name}: {verdict}")
    assert not bad, f"{name}: {verdict}"


def run_case(eta, mean, shape, amplitude, period, t_max, h=0.01):
    sd = Semicircle(eta=eta)
    f = DrivingField(mean=mean, period=period, shape=shape,
                     amplitude=amplitude)
    grid = aligned_grid(t_max, h, f)
    return evolve(kernel_for(sd), 0.0, f, grid)


def mag_at(trace, t_want):
    t = trace.times()
    return float(np.abs(trace.values[np.argmin(np.abs(t - t_want))]))


@pytest.fixture(scope="module")
def single_state_runs():
    return {
        "sine_125": run_case(1.0, 2.5, "sine", 0.5, 1.25, 200.0),
        "sine_132": run_case(1.0, 2.5, "sine", 0.5, 1.32, 200.0),
        "sine_10": run_case(1.0, 2.5, "sine", 0.5, 10.0, 100.0),
        "square_10": run_case(1.0, 2.5, "square", 0.5, 10.0, 100.0),
    }


@pytest.fixture(scope="module")
def two_state_runs():
    states = find_bound_states(Semicircle(eta=2.5), 0.5)
    e_lo = min(s.energy for s in states)
    e_hi = max(s.energy for s in states)
    dw = e_hi - e_lo
    return {
        "e_lo": e_lo, "e_hi": e_hi, "dw": dw,
        "sine_125": run_case(2.5, 0.5, "sine", 0.5, 1.25, 200.0),
        # first-order loss of the upper state is slow (rate ~ 4e-3), so the
        # long-time single-survivor picture needs a horizon of ~1000
        "sine_132": run_case(2.5, 0.5, "sine", 0.5, 1.32, 1000.0),
        "sine_2": run_case(2.5, 0.5, "sine", 0.5, 2.0, 200.0),
        "beat": run_case(2.5, 0.5, "sine", 0.5, 2.0 * np.pi / dw, 200.0),
    }


@pytest.fixture(scope="module")
def strong_drive_runs():
    return {
        "sine_125": run_case(1.0, 2.5, "sine", 5.0, 1.25, 200.0),
        "sine_132": run_case(1.0, 2.5, "sine", 5.0, 1.32, 200.0),
        "sine_1405": run_case(1.0, 2.5, "sine", 5.0, 1.405, 200.0),
    }


def test_c01_single_state_closed_form():
    t0 = time.perf_counter()
    states = find_bound_states(Semicircle(eta=1.0), 2.5)
    elapsed = time.perf_counter() - t0
    parts = [("one state", len(states) == 1)]
    if states:
        parts += [
            ("energy 2.9 to 1e-10", abs(states[0].energy - 2.9) <= 1e-10),
            ("residue 0.84 to 1e-10", abs(states[0].residue - 0.84) <= 1e-10),
        ]
    parts.append(("under 1 s", elapsed < 1.0))
    report("check 01 single-state closed form", parts)


def test_c02_two_state_roots():
    states = find_bound_states(Semicircle(eta=2.5), 0.5)
    # the gap condition reduces to this quadratic outside the band
    expected = np.sort(np.roots([5.25, -2.125, -39.3125]).real)
    got = np.sort([s.energy for s in states])
    parts = [("two states", len(states) == 2)]
    if len(got) == 2:
        parts += [
            ("lower root to 1e-8", abs(got[0] - expected[0]) <= 1e-8),
            ("upper root to 1e-8", abs(got[1] - expected[1]) <= 1e-8),
        ]
    report("check 02 two-state roots", parts)


def test_c03_kernel_closed_form_vs_quadrature(semicircle_quadrature_lags):
    sd = Semicircle(eta=1.0)
    anal = SemicircleKernel(sd)
    s = 0.01 * np.arange(10001)
    a = anal.lag_samples(0.01, 10000)
    q = semicircle_quadrature_lags(sd, 0.01, 10000)
    rel = float(np.max(np.abs(a - q)) / np.max(np.abs(a)))
    parts = [
        ("agreement 1e-8 on [0,100]", rel < 1e-8),
        ("g(0) = eta^2 v0^2", abs(anal.eval(0.0) - 1.0) <= 1e-12
         and abs(q[0] - 1.0) <= 1e-8),
        ("full lag grid", s[-1] == 100.0),
    ]
    report("check 03 kernel closed form vs quadrature", parts)


def test_c04_spectral_sum_rule():
    parts = []
    for eta, eps_on in [(1.0, 2.5), (2.5, 0.5), (0.8, 1.0)]:
        sp = spectrum(Semicircle(eta=eta), eps_on)
        parts.append((f"eta={eta} eps_on={eps_on} within 1e-6",
                      abs(sp.sum_rule - 1.0) <= 1e-6))
    report("check 04 spectral weight sum rule", parts)


def test_c05_volterra_matches_lattice():
    sd = Semicircle(eta=1.0)
    cases = [
        ("no drive", DrivingField(mean=2.5, period=1.0, shape="sine",
                                  amplitude=0.0)),
        ("sine T=1.25", DrivingField(mean=2.5, period=1.25, shape="sine",
                                     amplitude=0.5)),
        ("sine T=1.32", DrivingField(mean=2.5, period=1.32, shape="sine",
                                     amplitude=0.5)),
        ("square T=10", DrivingField(mean=2.5, period=10.0, shape="square",
                                     amplitude=0.5)),
    ]
    parts = []
    for label, f in cases:
        grid = aligned_grid(50.0, 0.005, f)
        tr = evolve(kernel_for(sd), 0.0, f, grid)
        ref = oracle.propagate(sd, 0.0, f, grid)
        dev = oracle.compare(tr, ref)
        parts.append((f"{label} dev {dev:.1e} <= 1e-3", dev <= 1e-3))
    parts.append(("the t = 50 chain fits in 2000 sites",
                  oracle.chain_sites(sd, grid.t_end) <= 2000))
    report("check 05 volterra vs lattice", parts)


def test_c06_single_state_weak_drive(single_state_runs):
    r = single_state_runs
    m_sine10 = survival_metric(r["sine_10"], (50.0, 100.0))
    m_square10 = survival_metric(r["square_10"], (50.0, 100.0))
    parts = [
        ("T=1.25 late metric > 0.3",
         survival_metric(r["sine_125"], (150.0, 200.0)) > 0.3),
        ("T=1.32 |u(200)| < 0.1", mag_at(r["sine_132"], 200.0) < 0.1),
        ("T=10 decays",
         survival_metric(r["sine_10"], (75.0, 100.0))
         < survival_metric(r["sine_10"], (0.0, 25.0))),
        ("T=10 slower than T=1.32 at t=100",
         mag_at(r["sine_10"], 100.0) > mag_at(r["sine_132"], 100.0)),
        ("square T=10 faster than sine T=10", m_square10 < m_sine10),
    ]
    report("check 06 single-state weak driving", parts)


def test_c07_two_state_selective_decay(two_state_runs):
    r = two_state_runs
    peaks_125 = late_window_peaks(r["sine_125"], (150.0, 200.0))
    peaks_132 = late_window_peaks(r["sine_132"], (900.0, 1000.0))
    peaks_beat = late_window_peaks(r["beat"], (150.0, 200.0))
    # line positions from a 50-unit Hann window carry half a main lobe
    # of uncertainty, and on exact resonance the pair also repels
    lobe_half = 2.0 * 2.0 * np.pi / 50.0
    parts = [
        ("T=1.25 both survive, two peaks", len(peaks_125) == 2),
        ("T=1.25 peaks near both levels",
         len(peaks_125) == 2
         and min(abs(p[0] - r["e_hi"]) for p in peaks_125) < 0.1
         and min(abs(p[0] - r["e_lo"]) for p in peaks_125) < 0.1),
        ("T=1.32 exactly one late survivor", len(peaks_132) == 1),
        ("T=1.32 survivor near lower level",
         bool(peaks_132) and abs(peaks_132[0][0] - r["e_lo"]) < 0.1),
        ("T=2 late metric < 0.1",
         survival_metric(r["sine_2"], (150.0, 200.0)) < 0.1),
        ("resonant drive keeps two peaks", len(peaks_beat) == 2),
        ("pair separation = drive frequency",
         len(peaks_beat) == 2
         and abs(abs(peaks_beat[0][0] - peaks_beat[1][0]) - r["dw"])
         <= lobe_half),
    ]
    report("check 07 two-state selective decay", parts)


def test_c08_strong_driving(strong_drive_runs):
    r = strong_drive_runs
    rep = comb_report(
        find_bound_states(Semicircle(eta=1.0), 2.5)[0],
        DrivingField(mean=2.5, period=1.32, shape="sine", amplitude=5.0),
        Semicircle(eta=1.0).band)
    parts = [
        ("T=1.25 survives",
         survival_metric(r["sine_125"], (150.0, 200.0)) > 0.2),
        ("T=1.32 survives despite overlap",
         survival_metric(r["sine_132"], (150.0, 200.0)) > 0.2),
        ("T=1.32 overlap is first order", rep.min_order == 1),
        ("T=1.32 flagged unreliable",
         rep.reliability == STRONG_DRIVING_UNRELIABLE),
        ("T=1.405 dies", mag_at(r["sine_1405"], 200.0) < 0.1),
    ]
    report("check 08 strong driving", parts)


def test_c09_no_generation_without_static_state(tmp_path):
    states = find_bound_states(Semicircle(eta=0.8), 1.0)
    u_t1 = mag_at(run_case(0.8, 1.0, "sine", 0.5, 1.0, 100.0), 100.0)
    u_t10 = mag_at(run_case(0.8, 1.0, "sine", 0.5, 10.0, 100.0), 100.0)

    rng = np.random.default_rng(20260819)
    amps = tuple(np.round(rng.uniform(0.2, 5.0, 4), 6))
    periods = tuple(np.round(rng.uniform(0.5, 10.0, 5), 6))
    cfg = RunConfig(
        sd=Semicircle(eta=0.8), eps_s=0.0,
        drive=DrivingField(mean=1.0, period=1.0, shape="sine",
                           amplitude=0.5),
        t_max=200.0, h=0.01, window=(150.0, 200.0),
        sweep={"axes": [{"name": "amplitude", "values": amps},
                        {"name": "period", "values": periods}],
               "out": str(tmp_path / "nogen.csv")})
    run_sweep(cfg)
    rows = read_rows(cfg.sweep["out"])

    parts = [
        ("no static state", states == []),
        ("T=1 |u(100)| < 0.05", u_t1 < 0.05),
        ("T=10 |u(100)| < 0.05", u_t10 < 0.05),
        ("sweep has 20 points", len(rows) == 20),
        ("all points computed", all(row["status"] == "ok" for row in rows)),
        ("never a bound state",
         all(row["prediction"] == "no-bound-state" for row in rows)),
        ("late metric stays below 0.05",
         all(float(row["metric"]) < 0.05 for row in rows
             if row["status"] == "ok")),
    ]
    report("check 09 nothing generated from nothing", parts)


def test_c10_solver_second_order():
    scenarios = [
        (1.0, 0.0, DrivingField(mean=2.5, period=1.25, shape="sine",
                                amplitude=0.5)),
        (2.5, 0.0, DrivingField(mean=0.5, period=2.0, shape="sine",
                                amplitude=0.5)),
    ]
    parts = []
    for eta, eps_s, f in scenarios:
        kern = kernel_for(Semicircle(eta=eta))
        ests = []
        for h in (0.02, 0.01):
            grid = aligned_grid(20.0, h, f)
            _, est = convergence_check(kern, eps_s, [f], grid)
            ests.append(est[0])
        ratio = ests[0] / ests[1]
        parts.append((f"eta={eta} T={f.period} ratio {ratio:.2f} in [3.5,4.5]",
                      3.5 <= ratio <= 4.5))
    report("check 10 step-halving order", parts)
