import ast
import math
import dataclasses
import os
import pathlib
import pickle
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from drivenlevel import oracle, oscquad, spectral
from drivenlevel.errors import ConfigError, QuadratureFailure
from drivenlevel.spectral import (BoundState, Semicircle,
                                  SystemSpectrum, Tabulated,
                                  band_spectral_function, compute_u0,
                                  eval_j, find_bound_states,
                                  self_energy, self_energy_derivative,
                                  spectrum)


def make_tabulated(eta=1.0, eps0=0.0, v0=1.0, n=4001):
    sc = Semicircle(eta=eta, eps0=eps0, v0=v0)
    lo, hi = sc.band[0]
    grid = np.linspace(lo, hi, n)
    return sc, Tabulated(grid=tuple(grid), values=tuple(eval_j(sc, grid)),
                         band=((lo, hi),))


def test_j_semicircle_values():
    sd = Semicircle(eta=0.8, eps0=0.0, v0=1.0)
    # eta^2 sqrt(4 - eps^2): at eps = 1 that is 0.64*sqrt(3)
    assert eval_j(sd, 1.0) == pytest.approx(0.64 * np.sqrt(3.0), rel=1e-14)
    assert eval_j(sd, 0.0) == pytest.approx(1.28, rel=1e-14)
    assert eval_j(sd, 2.9) == 0.0
    assert eval_j(sd, -2.0000001) == 0.0
    e = np.linspace(-3, 3, 301)
    assert np.all(eval_j(sd, e) >= 0.0)


def test_j_band_support():
    sd = Semicircle(eta=1.0, eps0=0.5, v0=0.75)
    (lo, hi), = sd.band
    assert (lo, hi) == (-1.0, 2.0)
    assert eval_j(sd, lo) == 0.0 and eval_j(sd, hi) == 0.0
    assert eval_j(sd, 0.5) == pytest.approx(1.5, rel=1e-14)


def test_semicircle_j_far_off_the_band_does_not_overflow():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for e in (1e300, -1e300):
            assert eval_j(Semicircle(), e) == 0.0
            assert -2 * self_energy(Semicircle(), e).imag == 0.0
    # in the band, edges included, bit for bit the unclipped formula, kept
    # here as the reference
    sd = Semicircle(eta=0.8, eps0=0.3, v0=1.2)
    (lo, hi), = sd.band
    e = np.concatenate((np.linspace(lo, hi, 100_001),
                        [lo, hi, np.nextafter(lo, 0.0), np.nextafter(hi, 0.0)]))
    x, r = e - sd.eps0, 2.0 * sd.v0
    want = np.where(np.abs(x) <= r,
                    sd.eta ** 2 * np.sqrt(np.maximum(r * r - x * x, 0.0)), 0.0)
    assert np.array_equal(eval_j(sd, e), want)


def test_total_weight_closed_form():
    sd = Semicircle(eta=1.3, v0=0.7)
    assert sd.weight == pytest.approx(1.3 ** 2 * 0.7 ** 2, rel=1e-13)
    # the linear interpolant of a concave arc sits slightly low, so the
    # tabulated weight lands ~1e-5 below the closed form at this resolution
    sc, tab = make_tabulated(eta=1.3, v0=0.7)
    assert tab.weight == pytest.approx(sc.weight, rel=3e-5)


def _reference_cells(sd):
    """A table's cells as every caller used to rebuild them: per band the
    nodes [lo, interior grid nodes, hi] and J there interpolated from the
    tuples, then widths, slopes and slope jumps by np.diff; and the weight,
    the trapezoid sum over them."""
    grid = np.asarray(sd.grid, dtype=float)
    cells, weight = [], 0.0
    for lo, hi in sd.band:
        x = np.concatenate(([lo], grid[(grid > lo) & (grid < hi)], [hi]))
        jv = np.interp(x, sd.grid, sd.values, left=0.0, right=0.0)
        dx = np.diff(x)
        b = np.diff(jv) / dx
        jumps = np.diff(np.concatenate(([0.0], b, [0.0])))
        cells.append((x, jv, dx, b, jumps))
        weight += float(np.trapezoid(jv, x))
    return cells, weight / (2.0 * np.pi)


def _same_cells(sd, other):
    """True when sd's cells and weight equal other's bit for bit."""
    cells, weight = other
    return (len(sd.cells) == len(cells) and sd.weight == weight
            and all(a.dtype == b.dtype and a.tobytes() == b.tobytes()
                    for mine, theirs in zip(sd.cells, cells)
                    for a, b in zip(mine, theirs)))


def test_table_cells_match_the_per_call_construction(kinked_two_band):
    # a band reaching past the grid takes J = 0 at its outer edge
    beyond = Tabulated((-1.0, 0.0, 1.0), (0.5, 1.0, 0.25), ((-2.0, 1.5),))
    tables = [kinked_two_band, two_band_table(), make_tabulated(n=4001)[1],
              beyond]
    for sd in tables:
        assert _same_cells(sd, _reference_cells(sd))
        assert not sd.decoupled
    assert beyond.cells[0].j.tolist() == [0.0, 0.5, 1.0, 0.25, 0.0]
    # a density is immutable, and so is what is built with it
    with pytest.raises(ValueError, match="read-only"):
        kinked_two_band.cells[0].slope[0] = 1.0


def test_density_facts_survive_a_pickle_round_trip(kinked_two_band):
    # sweep workers receive the density pickled
    for sd in (kinked_two_band, Semicircle(eta=0.8, v0=1.2)):
        again = pickle.loads(pickle.dumps(sd))
        assert again == sd and hash(again) == hash(sd)
        assert (again.weight, again.decoupled) == (sd.weight, sd.decoupled)
    again = pickle.loads(pickle.dumps(kinked_two_band))
    assert _same_cells(again, (kinked_two_band.cells, kinked_two_band.weight))
    eps = np.linspace(-4.0, 4.0, 33)
    assert np.array_equal(again.shift(eps), kinked_two_band.shift(eps))


def test_replace_rebuilds_the_density_facts(kinked_two_band):
    sd = dataclasses.replace(Semicircle(eta=1.3, v0=0.7), eta=0.5)
    assert sd.weight == 0.5 ** 2 * 0.7 ** 2
    off = dataclasses.replace(sd, eta=0.0)
    assert off.decoupled and off.weight == 0.0 and not sd.decoupled
    half = dataclasses.replace(
        kinked_two_band, values=tuple(0.5 * v for v in kinked_two_band.values))
    assert _same_cells(half, _reference_cells(half))
    assert half.weight == pytest.approx(0.5 * kinked_two_band.weight,
                                        rel=1e-15)
    zero = dataclasses.replace(half, values=(0.0,) * len(half.values))
    assert zero.decoupled and zero.weight == 0.0


def test_equal_tables_compare_and_hash_equal(kinked_two_band):
    sd = kinked_two_band
    again = Tabulated(list(sd.grid), np.asarray(sd.values),
                      [list(b) for b in sd.band])
    assert again == sd and hash(again) == hash(sd) and len({sd, again}) == 1
    # only the fields are the density: its repr and dict leave out what is
    # built from them
    assert list(dataclasses.asdict(again)) == ["grid", "values", "band"]
    assert "cells" not in repr(again)


def test_level_shift_closed_form():
    sd = Semicircle(eta=1.0)
    # linear inside the band, and 0.4 at 2.9 (makes 2.9 the bound energy
    # when the level sits at 2.5)
    assert self_energy(sd, 1.0).real == pytest.approx(0.5, abs=1e-14)
    assert self_energy(sd, 2.9).real == pytest.approx(0.4, abs=1e-12)
    assert self_energy(sd, -2.9).real == pytest.approx(-0.4, abs=1e-12)
    # derivative: eta^2/2 inside, -4/21 at 2.9
    assert self_energy_derivative(sd, 0.3) == pytest.approx(0.5, abs=1e-12)
    assert self_energy_derivative(sd, 2.9) == pytest.approx(-4.0 / 21.0,
                                                            abs=1e-10)


FAR = (2.000001, 3.0, 10.0, 1e8, 1e20, 1e154, 1e300)


def test_semicircle_shift_off_the_band_keeps_full_precision():
    # x - sqrt(x^2 - r^2) cancelled (Delta(1e8) was 7.45e-9, Delta(1e20)
    # 0) and x^2 overflowed (Delta(1e300) was -inf); just off the edge
    # Delta lost 1e-14 and its slope 1e-9.  700 digits resolve r^2
    # against x^2 at 1e300
    mp = pytest.importorskip("mpmath")
    sd = Semicircle(eta=1.0)
    with mp.workdps(700):
        for eps in FAR + tuple(-e for e in FAR):
            x = mp.mpf(eps)
            want = (x - mp.sign(x) * mp.sqrt(x * x - 4)) / 2
            want_slope = (1 - abs(x) / mp.sqrt(x * x - 4)) / 2
            got = sd.shift(eps)
            assert abs(got - want) <= 1e-15 * abs(want), eps
            # past 1e150 the slope, about -2/x^2, is subnormal or 0
            if abs(eps) < 1e150:
                slope = self_energy_derivative(sd, eps)
                assert abs(slope - want_slope) <= 1e-15 * abs(want_slope)


@pytest.mark.parametrize("eps_on", [1e8, 1e20, 1e160, 1e300])
def test_far_level_keeps_its_bound_state(eps_on):
    # eps_on + reach rounds to eps_on past 1e16, where the bracket end
    # used to sit on the level and find nothing; past 1.3e154 the shift
    # overflowed and put a state at 1.34e154 with Z = 2
    for level in (eps_on, -eps_on):
        state, = find_bound_states(Semicircle(eta=1.0), level)
        assert state.energy == pytest.approx(level, rel=1e-15)
        assert abs(state.residue - 1.0) <= 1e-12


def test_level_shift_odd_symmetry():
    sd = Semicircle(eta=0.9, eps0=0.7)
    rng = np.random.default_rng(7)
    for eps in 0.7 + np.concatenate([rng.uniform(-1.9, 1.9, 5),
                                     rng.uniform(2.2, 6.0, 5)]):
        d1 = self_energy(sd, eps).real
        d2 = self_energy(sd, 2 * 0.7 - eps).real
        assert d1 == pytest.approx(-d2, abs=1e-12)


def test_level_shift_quadrature_matches_closed_form():
    sc, tab = make_tabulated(eta=0.8, n=8001)
    for eps in (-3.5, -1.0, 0.37, 1.5, 2.5, 4.0):
        want = self_energy(sc, eps)
        got = self_energy(tab, eps)
        assert got.real == pytest.approx(want.real, abs=5e-5)
        assert -2 * got.imag == pytest.approx(-2 * want.imag, abs=1e-6)


def test_self_energy_derivative_fd_consistency():
    sd = Semicircle(eta=1.1, eps0=0.2)
    for eps in (2.9, 3.5, -2.6, 0.9):
        d = self_energy_derivative(sd, eps)
        h = 1e-6
        fd = (self_energy(sd, eps + h).real
              - self_energy(sd, eps - h).real) / (2 * h)
        assert d == pytest.approx(fd, rel=2e-4, abs=1e-8)


def _tabulated_shift_slope_mp(sd, eps):
    """40-digit derivative of the tabulated cell sum, cell by cell."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        e = mp.mpf(eps)
        total = mp.mpf(0)
        for band in sd.cells:
            x, jv = band.x, band.j
            for x0, x1, j0, j1 in zip(x[:-1], x[1:], jv[:-1], jv[1:]):
                x0, x1, j0, j1 = map(mp.mpf, (x0, x1, j0, j1))
                b = (j1 - j0) / (x1 - x0)
                c = j0 + b * (e - x0)
                total += (b * (mp.log(abs(e - x0)) - mp.log(abs(e - x1)))
                          + c * (1 / (e - x0) - 1 / (e - x1)))
        return float(total / (2 * mp.pi))


def test_tabulated_derivative_is_exact():
    _, tab = make_tabulated(eta=1.0, n=8001)
    for eps in (2.5, 2.9, -3.1):
        want = _tabulated_shift_slope_mp(tab, eps)
        assert self_energy_derivative(tab, eps) == pytest.approx(
            want, rel=1e-14)
    # inside a band and in the gap of a coarse two-band table
    tb = two_band_table()
    for eps in (1.7, -2.2, 0.0, -1.2):
        want = _tabulated_shift_slope_mp(tb, eps)
        assert self_energy_derivative(tb, eps) == pytest.approx(
            want, rel=1e-14)
    # the residue is smooth in the root: 1e-13 moves it by O(1e-14)
    state = find_bound_states(tab, 2.5)[0]
    z = [1.0 / (1.0 - self_energy_derivative(tab, state.energy + d))
         for d in np.linspace(-1e-13, 1e-13, 9)]
    assert max(z) - min(z) <= 1e-13


def test_tabulated_derivative_at_a_node_is_signed_infinity():
    # the regrouped node sum sum_k (b_k - b_{k-1}) log|e - x_k| diverges
    # like -jump * log|e - x_j| at a node x_j where the slope jumps
    tb = two_band_table()
    for eps in (2.2, 1.4, -2.0):
        x, jv = next((c.x, c.j) for c in tb.cells if c.x[0] < eps < c.x[-1])
        slopes = np.diff(jv) / np.diff(x)
        j = int(np.flatnonzero(x == eps)[0])
        want = -np.sign(slopes[j] - slopes[j - 1]) * np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert self_energy_derivative(tb, eps) == want
    # no slope jump: the node adds nothing and the value is finite and
    # continuous with its neighbours
    straight = Tabulated((0.0, 1.0, 2.0, 3.0), (0.0, 1.0, 2.0, 0.0),
                         ((0.0, 3.0),))
    at = self_energy_derivative(straight, 1.0)
    for d in (-1e-9, 1e-9):
        assert at == pytest.approx(self_energy_derivative(straight, 1.0 + d),
                                   rel=1e-7)


def test_derivative_near_a_band_edge_matches_mpmath():
    # evaluated at every energy: 1e-12 past the edge the slope is
    # (eta^2/2)(1 - |x| / sqrt(x^2 - r^2)) of the float x itself
    mp = pytest.importorskip("mpmath")
    sd = Semicircle(eta=1.0)
    eps = 2.0 + 1e-12
    with mp.workdps(50):
        x = mp.mpf(eps)
        want = float((1 - abs(x) / mp.sqrt(x * x - 4)) / 2)
    assert self_energy_derivative(sd, eps) == pytest.approx(
        want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("make", [
    lambda: Semicircle(eta=0.8, eps0=0.3, v0=1.2),
    lambda: make_tabulated(eta=0.9, n=301)[1], lambda: two_band_table()],
    ids=["semicircle", "table", "two-band-table"])
def test_self_energy_is_one_complex_sigma(make):
    # Sigma(eps + i0) = Delta - i J/2: an array gives each scalar call's
    # value, bit for bit, and the density's own shift and J
    sd = make()
    eps = np.concatenate([np.linspace(-4.0, 4.0, 257),
                          [e for lohi in sd.band for e in lohi]])
    sigma = self_energy(sd, eps)
    assert sigma.dtype == complex and sigma.shape == eps.shape
    scalar = [self_energy(sd, e) for e in eps]
    assert all(type(z) is complex for z in scalar)
    assert np.array_equal(sigma, scalar)
    assert np.array_equal(sigma.real, sd.shift(eps))
    assert np.array_equal(sigma.imag, -sd.j(eps) / 2)
    assert self_energy(sd, eps.reshape(1, -1)).shape == (1, eps.size)


def test_derivative_at_and_near_band_edges(kinked_two_band):
    # the slope at every energy: inside, just outside and at a band edge
    mp = pytest.importorskip("mpmath")
    sd = Semicircle(eta=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for edge in (-2.0, 2.0):
            for d in (1e-12, 1e-9, 1e-6):
                inside = edge - math.copysign(d, edge)
                assert self_energy_derivative(sd, inside) == 0.5
                x = mp.mpf(edge + math.copysign(d, edge))
                with mp.workdps(50):
                    want = float((1 - abs(x) / mp.sqrt(x * x - 4)) / 2)
                assert self_energy_derivative(sd, float(x)) == \
                    pytest.approx(want, rel=1e-13, abs=0.0)
            assert self_energy_derivative(sd, edge) == -np.inf
        # a table edge with J > 0, where Delta diverges like log, and the
        # J = 0 edges of a gap, where the slope diverges like log
        for tab, edges in ((STEP_EDGES, (0.0, 2.0)),
                           (kinked_two_band, (-1.0, 1.0))):
            for edge in edges:
                for d in (-1e-6, -1e-9, -1e-12, 1e-12, 1e-9, 1e-6):
                    assert self_energy_derivative(tab, edge + d) == \
                        pytest.approx(_tabulated_shift_slope_mp(tab, edge + d),
                                      rel=1e-14, abs=0.0), (edge, d)
                assert self_energy_derivative(tab, edge) == -np.inf


def test_single_bound_state_frozen():
    sd = Semicircle(eta=1.0)
    t0 = time.perf_counter()
    states = find_bound_states(sd, 2.5)
    dt = time.perf_counter() - t0
    assert dt < 1.0
    assert len(states) == 1
    assert states[0].energy == pytest.approx(2.9, abs=1e-12)
    assert states[0].residue == pytest.approx(0.84, abs=1e-10)


def test_two_bound_states_frozen():
    # roots of 5.25 e^2 - 2.125 e - 39.3125 outside the band
    roots = np.sort(np.roots([5.25, -2.125, -39.3125]))
    states = find_bound_states(Semicircle(eta=2.5), 0.5)
    assert len(states) == 2
    assert states[0].energy == pytest.approx(roots[0], abs=1e-8)
    assert states[1].energy == pytest.approx(roots[1], abs=1e-8)
    for s in states:
        # root of the level equation, residue from the shift slope
        resid = s.energy - 0.5 - self_energy(sd := Semicircle(eta=2.5),
                                             s.energy).real
        assert abs(resid) < 1e-10
        z = 1.0 / (1.0 - self_energy_derivative(sd, s.energy))
        assert s.residue == pytest.approx(z, rel=1e-12)


@pytest.mark.parametrize("eps_on", [50.0, -50.0])
def test_bound_state_far_outside_band(eps_on):
    # E + sqrt(E^2 - 4) = 2 eps_on gives E = e + 1/e and Z = 1 - 1/e^2
    states = find_bound_states(Semicircle(eta=1.0), eps_on)
    assert len(states) == 1
    assert abs(states[0].energy - (eps_on + 1.0 / eps_on)) <= 1e-12
    assert abs(states[0].residue - (1.0 - 1.0 / eps_on ** 2)) <= 1e-12


def test_no_bound_state_inside_band():
    assert find_bound_states(Semicircle(eta=0.8), 1.0) == []


def test_decoupled_bound_state():
    states = find_bound_states(Semicircle(eta=0.0), 1.7)
    assert states == [BoundState(1.7, 1.0)]


def test_bound_state_properties_random():
    rng = np.random.default_rng(42)
    for _ in range(25):
        eta = rng.uniform(0.1, 3.0)
        eps_on = rng.uniform(-4.0, 4.0)
        sd = Semicircle(eta=eta)
        states = find_bound_states(sd, eps_on)
        (lo, hi), = sd.band
        for s in states:
            assert s.energy < lo or s.energy > hi
            assert 0.0 < s.residue <= 1.0
            gap = s.energy - eps_on - self_energy(sd, s.energy).real
            assert abs(gap) < 1e-9
        # energies strictly sorted
        es = [s.energy for s in states]
        assert es == sorted(es)


def test_strong_coupling_always_two_states():
    # a wide-gap pole on each side once eta^2/2 > v0 region slope allows it
    for eps_on in (-1.5, 0.0, 0.9):
        assert len(find_bound_states(Semicircle(eta=2.5), eps_on)) == 2


def test_tabulated_bound_state_matches():
    sc, tab = make_tabulated(eta=1.0, n=8001)
    got = find_bound_states(tab, 2.5)
    assert len(got) == 1
    assert got[0].energy == pytest.approx(2.9, abs=5e-5)
    assert got[0].residue == pytest.approx(0.84, abs=5e-4)


# J > 0 at both band edges: the shift diverges logarithmically there
STEP_EDGES = Tabulated((0.0, 1.0, 2.0), (0.5, 1.0, 0.5), ((0.0, 2.0),))


def test_threshold_counts_on_a_semicircle():
    # eps_c = 1: phi's limit at the upper edge, 2 - eps_on - eta^2 v0, is
    # 0 there.  The state just above it sits (eps_on - eps_c)^2 past the
    # edge, inside the old 1e-6 collar, which dropped it up to 1 + 1.5e-3
    sd = Semicircle()
    for d, count in ((1e-3, 1), (1e-4, 1), (0.0, 0), (-1e-3, 0)):
        states = find_bound_states(sd, 1.0 + d)
        assert len(states) == count, d
        for s in states:
            assert s.energy - 2.0 == pytest.approx(d * d, rel=1e-2)
            assert s.residue == pytest.approx(2.0 * d, rel=1e-2)


def test_edge_shift_is_the_one_sided_limit(kinked_two_band):
    sd = Semicircle(eta=0.8, eps0=0.3, v0=1.2)
    (lo, hi), = sd.band
    assert sd.edge_shift(hi, 1.0) == pytest.approx(0.64 * 1.2, rel=1e-15)
    assert sd.edge_shift(lo, -1.0) == -sd.edge_shift(hi, 1.0)
    assert sd.shift(hi + 1e-12) == pytest.approx(sd.edge_shift(hi, 1.0),
                                                 abs=1e-5)
    # J = 0 at the edge: the cell sum there, continuous with the outside
    for lo, hi in kinked_two_band.band:
        for edge, side in ((lo, -1.0), (hi, 1.0)):
            limit = kinked_two_band.edge_shift(edge, side)
            want = _tabulated_shift_mp(kinked_two_band, edge,
                                       f"{side:+g}e-30")
            assert limit == pytest.approx(want, rel=1e-14)
            assert kinked_two_band.shift(edge + side * 1e-12) == \
                pytest.approx(limit, abs=1e-9)
    # J > 0 at the edge: the value at the edge is finite, the limit is not
    assert STEP_EDGES.edge_shift(2.0, 1.0) == np.inf
    assert STEP_EDGES.edge_shift(0.0, -1.0) == -np.inf
    assert STEP_EDGES.shift(2.0) == pytest.approx(0.1655, abs=1e-4)
    assert 1.8 < STEP_EDGES.shift(2.0 + 1e-9) < STEP_EDGES.shift(2.0 + 1e-12)


def _thresholds(sd, reference):
    """(edge, side, eps_c) per band edge: side +1 for an upper edge, whose
    gap holds a state for eps_on > eps_c, -1 for a lower one."""
    out = []
    for lo, hi in sd.band:
        out += [(lo, -1.0, lo - reference(lo)), (hi, 1.0, hi - reference(hi))]
    return out


@pytest.mark.parametrize("which", ["semicircle", "table"])
def test_count_changes_once_at_each_threshold(kinked_two_band, which):
    # eps_c from the closed form, or from a 40-digit cell sum 1e-30 off
    # the edge
    if which == "semicircle":
        sd = Semicircle(eta=0.8, eps0=0.3, v0=1.2)
        reference = lambda e: math.copysign(0.64 * 1.2, e - 0.3)
    else:
        sd = kinked_two_band
        reference = lambda e: _tabulated_shift_mp(
            sd, e, "-1e-30" if e in (-3.0, 1.0) else "1e-30")
    rng = np.random.default_rng(12)
    for edge, side, eps_c in _thresholds(sd, reference):
        levels = np.sort(eps_c + rng.uniform(-1e-2, 1e-2, 16))
        found = [find_bound_states(sd, level) for level in levels]
        # the state this edge makes, in its gap, beyond the edge
        near = [[s for s in states if 0.0 < side * (s.energy - edge) < 0.5]
                for states in found]
        counts = [len(states) for states in found]
        bound = side * (levels - eps_c) > 0.0
        assert [len(n) for n in near] == bound.astype(int).tolist()
        # the total count moves once, by one, at eps_c
        below, above = set(np.array(counts)[levels < eps_c]), \
            set(np.array(counts)[levels > eps_c])
        assert len(below) == len(above) == 1
        assert above.pop() - below.pop() == side
        # Z falls toward 0 as the level nears eps_c
        z = [n[0].residue for n in near if n]
        gaps = [n[0].energy - edge for n in near if n]
        order = np.argsort(np.abs(levels[bound] - eps_c))
        assert np.all(np.diff(np.array(z)[order]) > 0.0)
        assert np.all(np.diff(np.abs(np.array(gaps)[order])) > 0.0)
        # and nearer still, 1e-9 past it, the state is there with a smaller Z
        state, = [s for s in find_bound_states(sd, eps_c + side * 1e-9)
                  if 0.0 < side * (s.energy - edge) < 0.5]
        assert 0.0 < state.residue < min(z)


def test_log_divergent_edges_bind_a_state_on_each_side():
    # Delta -> -inf below 0 and +inf above 2, so phi changes sign in both
    # gaps whatever the level; at 3 the lower state sits within 1e-15 of
    # the edge, where the old off-band cell formula gave NaN
    lower, upper = find_bound_states(STEP_EDGES, 3.0)
    assert -1e-15 < lower.energy < 0.0 < 2.0 < upper.energy
    assert 0.0 < lower.residue < 1e-13
    assert 0.0 < upper.residue < 1.0
    assert abs(upper.energy - 3.0 - STEP_EDGES.shift(upper.energy)) < 1e-11


def test_state_a_float_past_an_edge_has_z_near_0():
    # the root lands on the float below the edge 0.534, where
    # 0.534 - 3.358 rounds onto -2 v0: the in-band slope eta^2 / 2 there
    # gave Z = 2
    sd = Semicircle(eta=1.0, eps0=3.358, v0=1.412)
    (lo, _), = sd.band
    state, = find_bound_states(sd, lo + 1.412 - 1e-13)
    assert lo - 1e-15 < state.energy < lo
    assert 0.0 <= state.residue < 1e-6


def test_a_narrow_gap_between_log_divergent_edges_holds_a_state():
    # the gap is 1e-7 wide, narrower than the collars on its two sides
    sd = Tabulated((0.0, 1.0, 1.0 + 1e-7, 2.0), (0.5, 1.0, 1.0, 0.5),
                   ((0.0, 1.0), (1.0 + 1e-7, 2.0)))
    below, gap, above = find_bound_states(sd, 1.0)
    assert below.energy < 0.0 and 2.0 < above.energy
    assert 1.0 < gap.energy < 1.0 + 1e-7
    assert 0.0 < gap.residue < 1e-6


# a two-band 9-node table with J = 0 at every edge (the benchmark's
# tabulated family, seed 0); its upper gap closes at eps_c = 1 - Delta(1)
NEAR_TABLE = Tabulated(
    (-3.0, -2.75, -2.5, -2.25, -2.0, -1.75, -1.5, -1.25, -1.0,
     1.0, 1.25, 1.5, 1.75, 2.0, 2.25, 2.5, 2.75, 3.0),
    (0.0, 0.5591385435566961, 1.026233683733406, 1.3560285376030845,
     1.3791815655712394, 1.2585520345058494, 0.9544418794401045,
     0.514748735685484, 0.0,
     0.0, 0.5342888150896089, 1.0128468803481532, 1.2708813850498093,
     1.3907554950462737, 1.3539288453938902, 1.0045733898115254,
     0.5675950921084056, 0.0),
    ((-3.0, -1.0), (1.0, 3.0)))


@pytest.mark.parametrize("which, offset, sum_tol", [
    *(("semicircle", side * 10.0 ** -k, 1e-10)
      for k in (3, 4, 5, 6) for side in (1, -1)),
    ("semicircle", -1e-7, 1e-10),
    # the floor of floats, not of the quadrature: 1e-14 past the edge the
    # root's rounding moves Z ~ 2e-7 by 2.3e-9, and a level 1e-9 or
    # 1e-11 inside leaves its peak below the float spacing at the edge,
    # where node positions and J round (-6.0e-9 and -6.9e-9)
    ("semicircle", 1e-7, 1e-8), ("semicircle", -1e-9, 1e-8),
    ("semicircle", -1e-11, 1e-8),
    *(("table", offset, 1e-10) for offset in (1e-3, -1e-3, 1e-5, -1e-7)),
    # the root, bisected to TOL_ROOT, moves Z by 9.9e-10 (Z' is 7e3 there);
    # at 1e-7 inside, the shift's rounding leaves phi 1e-9 relative noise
    ("table", -1e-5, 2e-9), ("table", 1e-7, 1e-9)])
def test_sums_near_a_threshold_converge(band_nodes, which, offset, sum_tol):
    # the continuum weight peaks within phi(edge)^2 (a semicircle) or
    # about phi(edge) (a table edge with J = 0) of the edge; the edge
    # ladder of breaks resolves it, where 2^21 nodes failed at 1 + 1e-6
    # and at eps_c + 1e-7, 2 million were spent at 1 + 1e-5, and 1 - 1e-7
    # met its sum rule only to 1e-7
    sd = Semicircle() if which == "semicircle" else NEAR_TABLE
    eps_on = (1.0 if which == "semicircle" else 1.0 - sd.shift(1.0)) + offset
    assert abs(spectrum(sd, eps_on).sum_rule - 1.0) <= sum_tol
    assert sum(map(sum, band_nodes)) <= 1 << 17
    band_nodes.clear()
    u = compute_u0(sd, eps_on, np.linspace(0.0, 50.0, 501))
    assert np.all(np.abs(u) <= 1.0 + spectral.U0_BOUND_SLACK)
    assert sum(map(sum, band_nodes)) <= 1 << 15


def test_sum_rule_three_parameter_sets():
    for eta, eps_on in ((1.0, 2.5), (2.5, 0.5), (0.8, 1.0)):
        spec = spectrum(Semicircle(eta=eta), eps_on)
        assert spec.sum_rule == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("eps_on, want", [
    (0.2, 0.9999999994739739),
    (3.5, 0.99999999945943),
    (-0.9, 0.9999999957244822)])
def test_sum_rule_kinked_two_band(kinked_two_band, eps_on, want):
    # want was frozen from an adaptive (QUADPACK) integration split at the
    # same resonances (a node-split Gauss-Legendre reference agrees to
    # 2e-12), plus the residue of the then finite-difference shift slope,
    # which was off by 5e-10 to 4e-9; that residue is frozen here so the
    # continuum is checked on its own, and the exact residues must close
    # the sum rule
    frozen_residue = {0.2: 0.849202541279169, 3.5: 0.8860813245124165,
                      -0.9: 0.7403593425288385}[eps_on]
    spec = spectrum(kinked_two_band, eps_on)
    continuum = spec.sum_rule - sum(s.residue for s in spec.bound)
    assert abs(continuum - (want - frozen_residue)) <= 1e-10
    assert abs(spec.sum_rule - 1.0) <= 1e-11


def test_import_leaves_out_scipy_optimize_and_integrate():
    src = os.path.dirname(os.path.dirname(spectral.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    # the package loads its modules on demand, so import each one
    code = ("import importlib, pkgutil, sys, drivenlevel\n"
            "for m in pkgutil.iter_modules(drivenlevel.__path__):\n"
            "    importlib.import_module('drivenlevel.' + m.name)\n"
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=120)
    assert out.stdout.strip() == "[]"


def test_spectrum_band_values_nonnegative():
    sd = Semicircle(eta=1.0)
    lo, hi = sd.band[0]
    values = band_spectral_function(sd, 2.5, np.linspace(lo, hi, 2001))
    assert np.all(values >= 0.0)
    assert len(spectrum(sd, 2.5).bound) == 1


def test_u0_decoupled_is_pure_phase():
    t = np.linspace(0.0, 10.0, 101)
    u = compute_u0(Semicircle(eta=0.0), 1.3, t)
    assert np.max(np.abs(u - np.exp(-1.3j * t))) < 1e-14


DECOUPLED = [Semicircle(eta=0.0),
             Tabulated(grid=(-2.0, 0.0, 2.0), values=(0.0, 0.0, 0.0),
                       band=((-2.0, 2.0),))]


@pytest.mark.parametrize("sd", DECOUPLED, ids=["semicircle", "table"])
@pytest.mark.parametrize("eps_on", [-3.1, 0.5, 1.7])
def test_decoupled_answers_come_from_the_general_path(sd, eps_on):
    # no decoupled branch: the level is bound with Z = 1 (in the band too),
    # the continuum weight vanishes, and u0 is its phase alone
    assert spectrum(sd, eps_on) == SystemSpectrum((BoundState(eps_on, 1.0),),
                                                  1.0)
    for e in (-2.5, -1.0, 0.3, 2.0, 4.0):
        assert self_energy(sd, e) == 0j
    t = np.linspace(0.0, 200.0, 20001)
    u = compute_u0(sd, eps_on, t)
    assert np.max(np.abs(u - np.exp(-1j * eps_on * t))) <= 2e-13


@pytest.mark.parametrize("kwargs, field", [
    ({"eta": 1e300}, "eta"), ({"eta": 1e200, "v0": 1e-100}, "eta"),
    ({"v0": 1e300}, "v0"), ({"v0": 1e160, "eta": 1e-200}, "v0"),
    ({"eps0": 1e300}, "eps0"), ({"eps0": -1e300}, "eps0"),
    ({"eps0": 1.7e308, "v0": 1e150}, "eps0")])
def test_semicircle_refuses_overflowing_scales(kwargs, field):
    with pytest.raises(ConfigError, match=field):
        Semicircle(**kwargs)


def test_table_refuses_an_overflowing_weight():
    with pytest.raises(ConfigError, match="values overflow"):
        Tabulated(grid=(-1e300, 0.0, 1e300), values=(0.0, 1e300, 0.0),
                  band=((-1e300, 1e300),))
    with pytest.raises(ConfigError, match="band"):
        Tabulated(grid=(0.0, 1.0), values=(0.0, 0.0),
                  band=((0.0, float("inf")),))
    # large but finite scales stay usable
    assert Semicircle(eta=1e50, v0=1e100).weight == pytest.approx(
        1e300, rel=1e-15)


@pytest.mark.parametrize("grid, values, field", [
    ((0.0, 1.0, np.inf), (0.0, 1.0, 0.0), "grid"),
    ((0.0, np.nan, 2.0), (0.0, 1.0, 0.0), "grid"),
    ((0.0, 1.0, 2.0), (0.0, np.inf, 0.0), "values"),
    ((0.0, 1.0, 2.0), (0.0, np.nan, 0.0), "values")])
def test_table_refuses_non_finite_nodes(grid, values, field):
    # an inf grid node was taken, and J interpolated toward it; a NaN one
    # was refused as an overflowing weight
    with pytest.raises(ConfigError, match=f"^{field} must be finite"):
        Tabulated(grid, values, ((0.0, 2.0),))


def test_u0_short_time_series():
    # u0 ~ 1 - i*eps_on*t - (eps_on^2 + g(0)) t^2/2 for small t
    sd = Semicircle(eta=1.0)
    eps_on = 2.5
    g0 = sd.weight
    t = np.array([0.0, 1e-3, 2e-3, 5e-3])
    u = compute_u0(sd, eps_on, t)
    series = 1.0 - 1j * eps_on * t - 0.5 * (eps_on ** 2 + g0) * t ** 2
    assert np.max(np.abs(u - series)) < 1e-6
    assert u[0] == pytest.approx(1.0, abs=1e-10)


def test_u0_never_exceeds_unity():
    sd = Semicircle(eta=1.0)
    t = np.linspace(0.0, 60.0, 1201)
    u = compute_u0(sd, 2.5, t)
    assert np.max(np.abs(u)) <= 1.0 + 1e-9


def test_u0_late_time_amplitude_is_residue():
    # band part disperses, leaving the bound line Z e^{-i e_l t}
    sd = Semicircle(eta=1.0)
    states = find_bound_states(sd, 2.5)
    t = np.linspace(80.0, 100.0, 41)
    u = compute_u0(sd, 2.5, t)
    line = states[0].residue * np.exp(-1j * states[0].energy * t)
    assert np.max(np.abs(u - line)) < 5e-3


def test_u0_matches_lattice_model():
    sd = Semicircle(eta=1.0)
    from drivenlevel.driving import DrivingField
    from drivenlevel.volterra import TimeGrid

    grid = TimeGrid(0.01, 2000)
    drive = DrivingField(mean=2.5, amplitude=0.0)
    ref = oracle.propagate(sd, 0.0, drive, grid)
    u = compute_u0(sd, 2.5, grid.times())
    assert np.max(np.abs(u - ref.values)) < 5e-4


def test_u0_fully_dissipating_decays():
    u = compute_u0(Semicircle(eta=0.8), 1.0, np.array([0.0, 50.0, 100.0]))
    assert abs(u[0]) == pytest.approx(1.0, abs=1e-10)
    assert abs(u[1]) < 0.02
    assert abs(u[2]) < 0.01


def two_band_table():
    """Coarse two-band table with a gap, zero at every band edge."""
    grid = (-3.0, -2.5, -2.0, -1.5, -1.0, 1.0, 1.4, 2.2, 3.0)
    values = (0.0, 0.9, 1.4, 0.7, 0.0, 0.0, 1.1, 0.6, 0.0)
    return Tabulated(grid, values, ((-3.0, -1.0), (1.0, 3.0)))


@pytest.mark.parametrize("make", [
    lambda: make_tabulated(eta=0.9, n=301)[1], two_band_table])
def test_tabulated_shift_vectorized_matches_scalar(make):
    sd = make()
    # table nodes, band edges, gap and far-outside points included
    eps = np.concatenate([np.linspace(-4.0, 4.0, 257), np.asarray(sd.grid)])
    scalar = np.array([self_energy(sd, e).real for e in eps])
    vec = sd.shift(eps)
    assert vec.shape == eps.shape
    assert np.max(np.abs(vec - scalar)) <= 1e-12 * np.max(np.abs(scalar))
    assert isinstance(sd.shift(0.3), float)
    grid2 = eps[:256].reshape(16, 16)
    assert sd.shift(grid2).shape == (16, 16)
    bsf = band_spectral_function(sd, 0.2, eps)
    bsf_scalar = np.array([band_spectral_function(sd, 0.2, e) for e in eps])
    assert np.max(np.abs(bsf - bsf_scalar)) <= 1e-12 * np.max(bsf_scalar)


@pytest.mark.parametrize("make", [
    lambda: make_tabulated(eta=0.9, n=301)[1], two_band_table])
def test_tabulated_shift_matches_plain_cell_sum(make):
    # the cell sum written plainly, one temporary per operation: the
    # telescoped log form for points in a band, the log1p form off it
    # (from e - x0 itself within a cell width below a cell).
    # The slab form in the package does the same arithmetic on each point,
    # so it must agree bit for bit, at table nodes and band edges too
    sd = make()
    eps = np.concatenate([np.linspace(-4.0, 4.0, 257), np.asarray(sd.grid)])
    want = np.zeros(eps.size)
    for (lo, hi), band in zip(sd.band, sd.cells):
        x, jv = band.x, band.j
        dx = np.diff(x)
        b = np.diff(jv) / dx
        e = eps[:, None]
        c = jv[:-1] + b * (e - x[:-1])
        d = np.abs(e - x)
        logs = np.where(d > 0.0, np.log(np.maximum(d, 1e-300)), 0.0)
        inside = (np.sum(c * (logs[:, :-1] - logs[:, 1:]), axis=1)
                  - np.sum(b * dx))
        d1 = e - x[1:]
        near = e - x[:-1]
        with np.errstate(divide="ignore", invalid="ignore"):
            s = dx / d1
            below = s < -0.5
            log = np.where(below, np.log(np.abs(near)) - np.log(np.abs(d1)),
                           np.log1p(s))
            excess = np.where(below, near / d1 * log - s, spectral._excess(s))
            outside = np.sum(jv[:-1] * log + b * d1 * excess, axis=1)
        want += np.where((eps >= lo) & (eps <= hi), inside, outside)
    assert np.array_equal(sd.shift(eps),
                          want / (2.0 * np.pi))


def _tabulated_shift_mp(sd, eps, offset=0):
    """40-digit tabulated shift, the cell sum taken cell by cell, at eps
    plus offset (a string, so that it keeps its digits)."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        e = mp.mpf(eps) + mp.mpf(offset)
        total = mp.mpf(0)
        for band in sd.cells:
            x, jv = band.x, band.j
            for x0, x1, j0, j1 in zip(x[:-1], x[1:], jv[:-1], jv[1:]):
                x0, x1, j0, j1 = map(mp.mpf, (x0, x1, j0, j1))
                b = (j1 - j0) / (x1 - x0)
                c = j0 + b * (e - x0)
                total += c * mp.log(abs((e - x0) / (e - x1))) - b * (x1 - x0)
        return float(total / (2 * mp.pi))


def test_tabulated_shift_far_from_the_band():
    # each cell's log ratio cancels against its slope term far off the
    # band (the telescoped form was 6.8e-14 / 3.6e-11 / 8.2e-7 off at
    # 10 / 100 / 1e4); just off an edge the shift keeps full precision too
    _, tab = make_tabulated(n=4001)
    for eps in (10.0, 100.0, 1e4, -30.0, 2.1, -2.0000001):
        want = _tabulated_shift_mp(tab, eps)
        assert tab.shift(eps) == pytest.approx(
            want, rel=1e-14, abs=0.0), eps


def test_tabulated_shift_is_finite_just_below_a_band():
    # e - x0 below the rounding of e - x1 rounded 1 + s to 0 in the
    # off-band cell formula, and log1p gave -inf times 0: NaN even with
    # J = 0 at the edge
    sd = Tabulated((0.0, 1.0, 2.0), (0.0, 1.0, 0.0), ((0.0, 2.0),))
    for eps in (-1e-16, -1e-17, -1e-300):
        want = _tabulated_shift_mp(sd, eps)
        assert sd.shift(eps) == pytest.approx(want, rel=1e-14, abs=0.0)
        assert self_energy(sd, eps).real == sd.shift(eps)
        assert np.isfinite(self_energy_derivative(sd, eps - 1e-9))


def test_tabulated_shift_keeps_its_digits_just_below_a_cell():
    # J(x0) > 0: with 1 + s formed from the rounded s the shift lost
    # digits within a cell width below x0, 3.0e-6 / 2.3e-5 / 2.9e-3 /
    # 1.6e-2 relative at these four points
    sd = Tabulated((0.0, 1.0, 2.0), (0.5, 1.0, 0.5), ((0.0, 2.0),))
    for eps in (-1e-12, -1e-14, -1e-15, -1.2e-16):
        assert sd.shift(eps) == pytest.approx(
            _tabulated_shift_mp(sd, eps), rel=1e-15, abs=0.0), eps
        assert sd.shift_slope(eps) == pytest.approx(
            _tabulated_shift_slope_mp(sd, eps), rel=1e-15, abs=0.0), eps


def test_tabulated_shift_chunks_agree(monkeypatch):
    sd = two_band_table()
    eps = np.linspace(-3.5, 3.5, 1001)
    whole = sd.shift(eps)
    # the shift shares the phase sums' slab budget
    monkeypatch.setattr(oscquad, "_SLAB", 50)
    assert np.max(np.abs(sd.shift(eps) - whole)) <= 1e-15


def cell_split_u0(sd, eps_on, t, order=64):
    """u0 with Gauss-Legendre panels split at every table node.

    Each cell is cut into panels of at most pi phase at max|t|, where
    order-64 panels integrate the smooth piece to roundoff.
    """
    out = sum(s.residue * np.exp(-1j * s.energy * t)
              for s in find_bound_states(sd, eps_on))
    glx, glw = np.polynomial.legendre.leggauss(order)
    nodes = np.asarray(sd.grid)
    tmax = np.max(np.abs(t))
    for lo, hi in sd.band:
        cells = nodes[(nodes >= lo) & (nodes <= hi)]
        edges = np.concatenate([
            np.linspace(a, b, int(np.ceil((b - a) * tmax / np.pi)) + 1)[:-1]
            for a, b in zip(cells[:-1], cells[1:])] + [[hi]])
        mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
        x = (mid[:, None] + half[:, None] * glx).ravel()
        w = (half[:, None] * glw).ravel()
        fx = band_spectral_function(sd, eps_on, x) * w
        out = out + oscquad.phase_sum(x, fx, t) / (2.0 * np.pi)
    return out


def test_u0_tabulated_matches_cell_split_reference(kinked_two_band,
                                                   band_nodes):
    # the continuum weight has a kink at every table node; broken there,
    # each band is 8 pieces of 1 -> 4 GL-16 panels
    t = 0.01 * np.arange(5001)
    got = compute_u0(kinked_two_band, 0.2, t)
    assert [sizes[-1] for sizes in band_nodes] == [512, 512]
    want = cell_split_u0(kinked_two_band, 0.2, t)
    assert len(find_bound_states(kinked_two_band, 0.2)) == 1
    assert np.max(np.abs(got - want)) <= 1e-12


def test_sum_rule_continuum_of_a_kinked_band(monkeypatch):
    # two_band_table at 0.2 has no resonance in [1, 3], so that band's
    # continuum is one integral broken at the nodes 1.4 and 2.2; the
    # whole-band doubling once stopped 2.0e-9 off here.  The sum rule's
    # tolerance is 1e-10 and the pieces converge about 16x a doubling, so
    # its stop is good to about 1e-11 (2.5e-12 here)
    sd = two_band_table()
    parts = {}
    real = spectral.angle_band_integral

    def spy(f, a, b, times, *args, **kwargs):
        parts[a, b] = real(f, a, b, times, *args, **kwargs)
        return parts[a, b]

    monkeypatch.setattr(spectral, "angle_band_integral", spy)
    spectrum(sd, 0.2)
    assert list(parts) == [(-3.0, -1.0), (1.0, 3.0)]
    # node-split Gauss-Legendre-64 reference, 256 panels a cell
    glx, glw = np.polynomial.legendre.leggauss(64)
    edges = np.concatenate([np.linspace(a, b, 257)[:-1]
                            for a, b in ((1.0, 1.4), (1.4, 2.2), (2.2, 3.0))]
                           + [[3.0]])
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
    x = (mid[:, None] + half[:, None] * glx).ravel()
    want = band_spectral_function(sd, 0.2, x) @ (half[:, None] * glw).ravel()
    assert abs(parts[1.0, 3.0] - want) <= 1e-11


def test_table_breaks_are_thinned_table_nodes():
    (lo, hi), = Semicircle(eta=1.0).band
    assert Semicircle(eta=1.0).breaks[0].size == 0
    sd = two_band_table()
    assert list(sd.breaks[1]) == [1.4, 2.2]
    # a dense table keeps at most _MAX_PIECES - 1 of its nodes, crowded
    # toward the edges
    _, tab = make_tabulated(n=4001)
    breaks = tab.breaks[0]
    assert breaks.size == spectral._MAX_PIECES - 1
    assert np.all(np.isin(breaks, tab.grid))
    assert np.all((breaks > lo) & (breaks < hi))
    assert np.all(np.diff(breaks) > 0.0)
    gaps = np.diff(np.concatenate(([lo], breaks, [hi])))
    assert gaps[0] < gaps[len(gaps) // 2] / 10


def test_u0_dense_table_node_count(band_nodes):
    # 4000 cells: the band is broken into _MAX_PIECES pieces, not one a
    # cell, and the kinks left inside them cost extra doublings.  The
    # whole-band rule took 3200 nodes here, but only because two levels
    # happened to agree (9.1e-9 apart, stop at 1.01e-8); no break choice
    # tried converges that early
    sc, tab = make_tabulated(n=4001)
    t = 0.01 * np.arange(5001)
    u = compute_u0(tab, 2.5, t)
    (sizes,) = band_nodes
    assert sizes[0] == 16 * spectral._MAX_PIECES
    assert sizes[-1] <= 8192
    # split at every node, order-8 panels are good to about 1e-14 here
    assert (np.max(np.abs(u - cell_split_u0(tab, 2.5, t, order=8)))
            <= spectral.U0_TOL)
    # the table itself is 1e-4 from the semicircle it samples
    assert np.max(np.abs(u - compute_u0(sc, 2.5, t))) <= 2e-4


def test_u0_sum_rule_sees_lost_continuum_weight(kinked_two_band,
                                               monkeypatch):
    # half of one band's weight lost keeps |u0| <= 1, so only the sum rule
    # at t = 0 sees it
    t = 0.01 * np.arange(2001)
    real = spectral.angle_band_integral
    calls = []

    def halve_first(*args, **kwargs):
        calls.append(args[1:3])
        out = real(*args, **kwargs)
        return 0.5 * out if len(calls) == 1 else out

    monkeypatch.setattr(spectral, "angle_band_integral", halve_first)
    with pytest.raises(QuadratureFailure, match="sum rule"):
        compute_u0(kinked_two_band, 0.2, t)
    assert calls == [(-3.0, -1.0), (1.0, 3.0)]
    # the same loss, with t = 0 not among the times: the bound on |u0| is
    # all there is to check, and it holds
    calls.clear()
    u = compute_u0(kinked_two_band, 0.2, t[1:])
    assert np.max(np.abs(u)) <= 1.0


def test_band_resonance_on_the_scan_grid_is_found_once():
    # the root 0 is a scan point, where the shifted level is exactly zero;
    # the cells on either side of it hold no other root
    res = spectral._band_resonances(Semicircle(eta=0.1), 0.0)
    assert len(res) == 1 and abs(res[0]) <= 1e-10


def resonance_split_u0(sd, eps_on, t, resonance, panels=512, order=64):
    """Semicircle u0 (no bound state) with Gauss-Legendre panels in the
    angle of each half of the band split at the resonance."""
    glx, glw = np.polynomial.legendre.leggauss(order)
    (lo, hi), = sd.band
    half = 0.5 * np.pi / panels
    phi = ((half * (2 * np.arange(panels) + 1))[:, None] + half * glx).ravel()
    out = 0.0
    for a, b in ((lo, resonance), (resonance, hi)):
        c, w = 0.5 * (a + b), 0.5 * (b - a)
        x = c - w * np.cos(phi)
        fx = (band_spectral_function(sd, eps_on, x) * w * np.sin(phi)
              * np.tile(half * glw, panels))
        out = out + oscquad.phase_sum(x, fx, t) / (2.0 * np.pi)
    return out


def test_u0_weak_coupling_breaks_at_the_resonance(band_nodes):
    # a level in the band leaves one continuum peak about eta^2 wide; not
    # broken there, this integral took 819 200 nodes
    sd, eps_on = Semicircle(eta=0.01), 0.5
    t = np.linspace(0.0, 200.0, 20001)
    u = compute_u0(sd, eps_on, t)
    assert find_bound_states(sd, eps_on) == []
    (sizes,) = band_nodes
    assert sizes[-1] <= 16384
    # the root of eps - eps_on - eta^2 eps / 2
    resonance = eps_on / (1.0 - 0.5 * sd.eta ** 2)
    want = resonance_split_u0(sd, eps_on, t[::10], resonance)
    assert np.max(np.abs(u[::10] - want)) <= 1e-12


def test_u0_weakest_coupling_converges(band_nodes):
    # not broken at the resonance, this integral ran out of nodes
    t = np.linspace(0.0, 200.0, 20001)
    u = compute_u0(Semicircle(eta=0.005), 1.5, t)
    assert band_nodes[0][-1] <= 32768
    assert abs(u[0] - 1.0) <= 1e-12


def test_spectrum_and_u0_break_the_bands_alike(kinked_two_band, monkeypatch):
    # a level in the upper band: a resonance there, and every table kink
    seen = []
    real = spectral.angle_band_integral

    def spy(f, a, b, times, tol, *, breaks=()):
        seen.append(((a, b), np.sort(breaks)))
        return real(f, a, b, times, tol, breaks=breaks)

    monkeypatch.setattr(spectral, "angle_band_integral", spy)
    spectrum(kinked_two_band, 2.0)
    compute_u0(kinked_two_band, 2.0, 0.01 * np.arange(501))
    by_spectrum, by_u0 = seen[:2], seen[2:]
    assert [band for band, _ in by_u0] == list(kinked_two_band.band)
    for (band, at), (u0_band, u0_at) in zip(by_spectrum, by_u0):
        assert band == u0_band and np.array_equal(at, u0_at)
    (resonance,) = spectral._band_resonances(kinked_two_band, 2.0)
    upper = by_u0[1][1]
    assert resonance in upper
    assert set(kinked_two_band.grid[10:-1]) <= set(upper)


def test_one_band_integral_call_site():
    # spectrum and u0 share one spectral sum, so the band quadrature is
    # called from one place
    tree = ast.parse(pathlib.Path(spectral.__file__).read_text())
    # by its imported name or as oscquad.angle_band_integral
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None))
             == "angle_band_integral"]
    assert len(calls) == 1


@pytest.mark.parametrize("bad", [2.0, np.nan])
def test_u0_invariant_rejects_bad_quadrature(monkeypatch, bad):
    sd = Semicircle(eta=1.0)
    t = np.linspace(0.0, 20.0, 201)
    good = compute_u0(sd, 2.5, t)
    assert np.max(np.abs(good)) <= 1.0 + spectral.U0_BOUND_SLACK
    # a continuum part inflated (or poisoned) by a broken quadrature
    real = spectral.angle_band_integral
    monkeypatch.setattr(spectral, "angle_band_integral",
                        lambda *a, **k: bad * real(*a, **k))
    with pytest.raises(QuadratureFailure):
        compute_u0(sd, 2.5, t)


def test_no_density_type_switch_outside_the_kernel():
    # each per-density formula is a method of the density; only kernel.py,
    # whose classes the benchmark tracer hooks by name, still tests types
    names = {"Semicircle", "Tabulated"}
    found = []
    for path in sorted(pathlib.Path(spectral.__file__).parent.glob("*.py")):
        if path.name == "kernel.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and \
                    getattr(node.func, "id", None) == "isinstance" and \
                    len(node.args) == 2 and names & {
                        getattr(n, "id", getattr(n, "attr", None))
                        for n in ast.walk(node.args[1])}:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
