import numpy as np
import pytest

from drivenlevel import oracle, oscquad, spectral
from drivenlevel.driving import DrivingField
from drivenlevel.errors import DrivenLevelError, GridMismatch
from drivenlevel.kernel import SemicircleKernel, kernel_for
from drivenlevel.spectral import (Semicircle, Tabulated, eval_j,
                                  find_bound_states)
from drivenlevel.volterra import TimeGrid, evolve


def _gauss_star(sd, n):
    """The n-point Gauss rule of a semicircle's measure J de / 2 pi as a
    star: energies at the zeros of U_n and couplings sqrt(weights).  Its
    chain is the first n sites of the semicircle's, exactly."""
    theta = np.arange(1, n + 1) * np.pi / (n + 1)
    energies = sd.eps0 + 2.0 * sd.v0 * np.cos(theta)
    return energies, sd.eta * sd.v0 * np.sqrt(2.0 / (n + 1)) * np.sin(theta)


def _star_eigensystem(energies, couplings, eps_on):
    """Eigenvalues and level row of the whole star Hamiltonian."""
    h = np.diag(np.concatenate(([eps_on], energies)))
    h[0, 1:] = h[1:, 0] = couplings
    lam, vecs = np.linalg.eigh(h)
    return lam, vecs[0, :].copy()


def _propagate_star(energies, couplings, eps_s, drive, grid):
    """Reference oracle: the same unitary split step on the whole star.

    Dense eigendecomposition of the arrow matrix (level, every node)
    instead of the chain cut at the light cone that `propagate` builds.
    """
    lam, q = _star_eigensystem(energies, couplings, eps_s + drive.mean)
    h = grid.h
    t = grid.times()
    pint = drive.modulation_integral
    left = pint(t[:-1] + 0.5 * h) - pint(t[:-1])
    right = pint(t[1:]) - pint(t[:-1] + 0.5 * h)
    phase_step = np.exp(-1j * h * lam)
    psi = q.astype(complex)
    u = np.empty(grid.n_steps + 1, dtype=complex)
    u[0] = q @ psi
    for k in range(grid.n_steps):
        psi = psi + (np.exp(-1j * left[k]) - 1.0) * (q @ psi) * q
        psi = phase_step * psi
        psi = psi + (np.exp(-1j * right[k]) - 1.0) * (q @ psi) * q
        u[k + 1] = q @ psi
    return u


def test_static_hamiltonian_layout():
    # the static (undriven) Hamiltonian propagate diagonalizes: the chain
    sd = Semicircle(eta=0.8)
    H = oracle.chain_hamiltonian(sd, 1.5, 10.0)
    # light cone: b_max * span + CHAIN_MARGIN sites, b_max = v0 = 1
    assert H.shape[0] - 1 == 10 + spectral.CHAIN_MARGIN
    assert H[0, 0] == 1.5
    assert np.array_equal(H, H.T)
    assert np.array_equal(H, np.triu(np.tril(H, 1), -1))    # tridiagonal
    assert H[0, 1] ** 2 == pytest.approx(sd.weight, rel=1e-15)
    assert np.all(np.diag(H, 1) > 0.0)
    # Lanczos on a star smaller than the light cone stops at the whole star
    e, c = _gauss_star(sd, 12)
    c0, a, b = spectral._lanczos(e, c, 10.0)
    assert len(a) == 12
    chain = np.diag([1.5] + a) + np.diag([c0] + b, 1) + np.diag([c0] + b, -1)
    want = _star_eigensystem(e, c, 1.5)[0]
    assert np.max(np.abs(np.linalg.eigvalsh(chain) - want)) < 1e-13


_SINE = DrivingField(mean=2.5, period=1.25, shape="sine", amplitude=0.5)
# narrow coupling in a wide band: J lives on two cells of width 0.01, whose
# Gauss nodes are fewer than the light cone's CHAIN_MARGIN sites
_NARROW = Tabulated((0.0, 4.99, 5.0, 5.01, 10.0), (0.0, 0.0, 1.0, 0.0, 0.0),
                    ((0.0, 10.0),))
# (density or None for kinked_two_band, nodes of a semicircle's Gauss
# star or None for the oracle's own table star, drive, span)
CHAIN_CASES = {
    "sine-n800": (Semicircle(eta=1.0), 800, _SINE, 20.0),
    "square-n800": (Semicircle(eta=1.0), 800,
                    DrivingField(mean=2.5, period=10.0, shape="square",
                                 amplitude=0.5), 20.0),
    "n301-t100": (Semicircle(eta=1.0), 301, _SINE, 100.0),
    "table-capped": (_NARROW, None,
                     DrivingField(mean=5.0, period=2.0, shape="sine",
                                  amplitude=0.3), 20.0),
    "kinked-two-band": (None, None,
                        DrivingField(mean=0.2, period=2.0, shape="sine",
                                     amplitude=0.4), 40.0),
    # the longest span whose light-cone chain a 300-node star still holds
    "near-horizon": (Semicircle(eta=1.0), 300, _SINE,
                     0.95 * (300 - spectral.CHAIN_MARGIN)),
    "eta0": (Semicircle(eta=0.0), 50,
             DrivingField(mean=1.0, period=2.0, shape="sine",
                          amplitude=0.7), 20.0),
}


@pytest.mark.parametrize("case", list(CHAIN_CASES))
def test_chain_matches_star(kinked_two_band, case):
    # the chain cut at the light cone against the whole star: a
    # semicircle's n-node Gauss star, or the same Gauss nodes the oracle
    # runs Lanczos on for a table
    sd, n_nodes, drive, t = CHAIN_CASES[case]
    sd = sd or kinked_two_band
    grid = TimeGrid(0.01, int(t / 0.01))
    if n_nodes is None:
        star = sd.gauss_star(oracle.chain_sites(sd, grid.t_end))
    else:
        star = _gauss_star(sd, n_nodes)
    got = oracle.propagate(sd, 0.0, drive, grid).values
    want = _propagate_star(*star, 0.0, drive, grid)
    assert np.max(np.abs(got - want)) <= 1e-12
    H = oracle.chain_hamiltonian(sd, drive.mean, grid.t_end)
    if case == "table-capped":
        assert H.shape[0] - 1 == np.count_nonzero(star[1]) < 50
    if not star[1].any():
        # no chain at all: the level alone, an exact pure phase
        assert H.shape == (1, 1)
        t = grid.times()
        phase = np.exp(-1j * (drive.mean * t + drive.modulation_integral(t)))
        assert np.max(np.abs(got - phase)) <= 1e-12


def test_semicircle_chain_is_uniform():
    # Chin et al., J. Math. Phys. 51, 092109 (2010): a semicircle reservoir
    # is the uniform chain, on-site eps0, hopping v0, level coupling eta v0
    sd = Semicircle(eta=1.3, eps0=0.3, v0=0.7)
    span = (299.5 - spectral.CHAIN_MARGIN) / sd.v0
    H = oracle.chain_hamiltonian(sd, 0.0, span)
    assert H.shape[0] - 1 == 300
    a, c0, b = np.diag(H)[1:], H[0, 1], np.diag(H, 1)[1:]
    assert np.max(np.abs(a - sd.eps0)) <= 1e-15
    assert abs(c0 - sd.eta * sd.v0) <= 1e-15
    assert np.max(np.abs(b - sd.v0)) <= 1e-15
    # the same chain from Lanczos on the 400-node Gauss star
    c0, a, b = spectral._lanczos(*_gauss_star(sd, 400), span)
    assert len(a) == 300
    assert abs(c0 - H[0, 1]) <= 1e-15
    assert np.max(np.abs(np.array(a) - np.diag(H)[1:])) <= 1e-13
    assert np.max(np.abs(np.array(b) - np.diag(H, 1)[1:])) <= 1e-13


def test_table_node_rule(kinked_two_band, monkeypatch):
    # the node rule against m = L + 1 nodes a cell, which is exact
    span = 200.0
    sites = oracle.chain_sites(kinked_two_band, span)
    rule = spectral._lanczos(*kinked_two_band.gauss_star(sites), span)
    with monkeypatch.context() as m:
        m.setattr(spectral, "_NODE_FLOOR", 10 ** 6)
        star = kinked_two_band.gauss_star(sites)
        exact = spectral._lanczos(*star, span)
    assert star[0].size == 16 * (sites + 1)
    assert len(rule[1]) == len(exact[1]) > 400
    assert abs(rule[0] - exact[0]) <= 1e-13
    assert np.max(np.abs(np.subtract(rule[1], exact[1]))) <= 1e-13
    assert np.max(np.abs(np.subtract(rule[2], exact[2]))) <= 1e-13
    # a dense table needs only a few nodes a cell
    sc = Semicircle(eta=1.0)
    grid = np.linspace(-2.0, 2.0, 4001)
    dense = Tabulated(tuple(grid), tuple(eval_j(sc, grid)), ((-2.0, 2.0),))
    energies, _ = dense.gauss_star(oracle.chain_sites(dense, span))
    assert energies.size <= 100_000


def _two_steps(sd, drives):
    """(oracle at h, at h / 2, evolve at h, at h / 2) per drive, at h = 0.01
    and t <= 100, the h / 2 runs on the h grid's nodes."""
    runs = []
    for h in (0.01, 0.005):
        grid = TimeGrid(h, int(round(100.0 / h)))
        solved = evolve(kernel_for(sd), 0.0, list(drives), grid)
        runs.append(([oracle.propagate(sd, 0.0, f, grid).values
                      for f in drives], [tr.values for tr in solved]))
    return [(o1, o2[::2], e1, e2[::2])
            for o1, e1, o2, e2 in zip(*runs[0], *runs[1])]


def _extrapolated(coarse, fine):
    return (4.0 * fine - coarse) / 3.0


def _agreement(runs):
    return max(np.max(np.abs(_extrapolated(o1, o2) - _extrapolated(e1, e2)))
               for o1, o2, e1, e2 in runs)


@pytest.fixture(scope="module")
def readme_runs():
    """The README level (semicircle eta 1, level 2.5) under a sine A 0.5
    T 1.25, a sine A 2 T 1.32 and a square A 0.5 T 10 drive."""
    return _two_steps(Semicircle(eta=1.0), (
        _SINE,
        DrivingField(mean=2.5, period=1.32, shape="sine", amplitude=2.0),
        DrivingField(mean=2.5, period=10.0, shape="square", amplitude=0.5)))


def test_oracle_error_falls_with_step(readme_runs):
    # the chain is exact, so only the split step's h^2 is left: the midpoint
    # star's error on this drive (3.8e-4 -> 3.3e-4) did not fall
    o1, o2, e1, e2 = readme_runs[0]
    ref = _extrapolated(e1, e2)
    dev = [np.max(np.abs(o - ref)) for o in (o1, o2)]
    assert dev[0] >= 3.5 * dev[1], dev


def test_extrapolated_oracle_agrees_with_evolve(readme_runs):
    assert _agreement(readme_runs) <= 1e-5


def test_extrapolated_oracle_agrees_with_evolve_on_a_table(kinked_two_band):
    drive = DrivingField(mean=0.2, period=2.0, shape="sine", amplitude=0.4)
    assert _agreement(_two_steps(kinked_two_band, (drive,))) <= 1e-7


def test_zero_coupling_pure_phase():
    drive = DrivingField(mean=1.0, period=2.0, shape="sine", amplitude=0.7)
    grid = TimeGrid(0.01, 2000)
    tr = oracle.propagate(Semicircle(eta=0.0), 0.0, drive, grid)
    t = grid.times()
    want = np.exp(-1j * (1.0 * t + drive.modulation_integral(t)))
    assert np.max(np.abs(tr.values - want)) < 1e-10


def test_unitarity_long_run():
    drive = DrivingField(mean=2.5, period=1.25, shape="sine", amplitude=0.5)
    grid = TimeGrid(0.01, 10000)
    tr = oracle.propagate(Semicircle(eta=1.0), 0.0, drive, grid)
    assert np.max(tr.magnitude()) <= 1.0 + 1e-10


def test_propagate_chunks_agree(monkeypatch):
    # kick and read factors come a chunk of _SLAB // 4 steps at a time; a
    # chunk of 7 steps puts boundaries everywhere, and a factor taken from
    # the wrong step would move u far beyond roundoff
    sd = Semicircle(eta=1.0)
    drive = DrivingField(mean=2.5, period=1.25, shape="sine", amplitude=0.5)
    grid = TimeGrid(0.01, 1000)
    whole = oracle.propagate(sd, 0.0, drive, grid)
    monkeypatch.setattr(oscquad, "_SLAB", 4 * 7)
    chunked = oracle.propagate(sd, 0.0, drive, grid)
    assert np.max(np.abs(chunked.values - whole.values)) <= 1e-14


def test_propagate_memory_does_not_grow_with_steps(traced_peak, monkeypatch):
    # the same span in 125 and in 1250 steps: the same chain, so beyond the
    # result the working memory must not grow with the step count.  Under a
    # 2^10-element slab a chunk is 256 steps, so the counts and the allowed
    # growth are 1/16 of the default's 2000, 20 000 and 0.5 MB
    monkeypatch.setattr(oscquad, "_SLAB", 1 << 10)
    sd = Semicircle(eta=1.0)
    drive = DrivingField(mean=2.5, period=1.25, shape="sine", amplitude=0.5)
    above = []
    for n in (125, 1250):
        tr, peak = traced_peak(oracle.propagate, sd, 0.0, drive,
                               TimeGrid(12.5 / n, n))
        above.append(peak - tr.values.nbytes)
    assert above[1] <= above[0] + 0.5e6 / 16, above


def test_static_late_amplitude_is_residue():
    # without modulation the level keeps exactly the bound-state weight
    sd = Semicircle(eta=1.0)
    z = find_bound_states(sd, 2.5)[0].residue
    drive = DrivingField(mean=2.5, amplitude=0.0)
    grid = TimeGrid(0.02, 3000)
    tr = oracle.propagate(sd, 0.0, drive, grid)
    late = tr.magnitude()[grid.times() > 40.0]
    assert np.mean(late) == pytest.approx(z, abs=5e-3)


def test_matches_volterra_driven():
    sd = Semicircle(eta=1.0)
    drive = DrivingField(mean=2.5, period=1.32, shape="sine", amplitude=0.5)
    grid = TimeGrid(0.01, 2000)
    a = oracle.propagate(sd, 0.0, drive, grid)
    b = evolve(SemicircleKernel(sd), 0.0, drive, grid)
    assert oracle.compare(a, b) < 5e-4


@pytest.mark.parametrize("scale", [1.01, np.nan])
def test_propagate_checks_norm_invariant(monkeypatch, scale):
    sd = Semicircle(eta=1.0)
    drive = DrivingField(mean=2.5, period=2.0, shape="sine", amplitude=0.1)
    grid = TimeGrid(0.01, 50)
    oracle.propagate(sd, 0.0, drive, grid)
    # a level column that is not a unit vector (or is poisoned) breaks the
    # unitarity of every kick
    real = oracle._eigensystem

    def scaled(sd, eps_on, span):
        lam, q = real(sd, eps_on, span)
        return lam, scale * q

    monkeypatch.setattr(oracle, "_eigensystem", scaled)
    with pytest.raises(DrivenLevelError):
        oracle.propagate(sd, 0.0, drive, grid)


def test_compare_grid_mismatch():
    sd = Semicircle(eta=1.0)
    drive = DrivingField(mean=0.0, amplitude=0.0)
    a = oracle.propagate(sd, 0.0, drive, TimeGrid(0.1, 10))
    b = oracle.propagate(sd, 0.0, drive, TimeGrid(0.1, 11))
    with pytest.raises(GridMismatch):
        oracle.compare(a, b)
