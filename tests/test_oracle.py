import numpy as np
import pytest

from drivenlevel import oracle, oscquad
from drivenlevel.driving import DrivingField
from drivenlevel.errors import ConfigError, DrivenLevelError, GridMismatch
from drivenlevel.kernel import SemicircleKernel
from drivenlevel.spectral import (Semicircle, Tabulated, find_bound_states,
                                  total_weight)
from drivenlevel.volterra import PropagatorTrace, TimeGrid, evolve


def _star_eigensystem(model, mean):
    """Eigenvalues and level row of the full (n+1)-site star Hamiltonian."""
    h = np.diag(np.concatenate(([model.eps_s + mean], model.energies)))
    h[0, 1:] = h[1:, 0] = model.couplings
    lam, vecs = np.linalg.eigh(h)
    return lam, vecs[0, :].copy()


def _propagate_star(model, drive, grid):
    """Reference oracle: the same unitary split step on the whole star.

    Dense eigendecomposition of the arrow matrix (level, n_modes modes)
    instead of the truncated Lanczos chain `propagate` builds.
    """
    lam, q = _star_eigensystem(model, drive.mean)
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
    return PropagatorTrace(grid, u)


def test_discretize_counts_and_weights():
    sd = Semicircle(eta=1.0)
    model = oracle.discretize(sd, 500)
    assert model.energies.size == 500
    assert model.couplings.size == 500
    # sum of v_k^2 approximates the total kernel weight
    assert np.sum(model.couplings ** 2) == pytest.approx(total_weight(sd),
                                                         rel=1e-3)
    assert model.bandwidth == pytest.approx(4.0)
    with pytest.raises(ConfigError):
        oracle.discretize(sd, 1)


def test_static_hamiltonian_layout():
    # the static (undriven) Hamiltonian propagate diagonalizes: the chain
    sd = Semicircle(eta=0.8)
    model = oracle.discretize(sd, 300, eps_s=0.3)
    H = oracle.chain_hamiltonian(model, 10.0, mean=1.2)
    L = H.shape[0] - 1
    # light cone: b_max * span + CHAIN_MARGIN sites, hoppings near v0 = 1
    assert 10.0 + oracle.CHAIN_MARGIN <= L < 11.0 + oracle.CHAIN_MARGIN + 1
    assert H[0, 0] == pytest.approx(1.5)
    assert np.array_equal(H, H.T)
    assert np.array_equal(H, np.triu(np.tril(H, 1), -1))    # tridiagonal
    assert H[0, 1] ** 2 == pytest.approx(np.sum(model.couplings ** 2),
                                         rel=1e-14)
    assert np.all(np.diag(H, 1) > 0.0)
    # a chain longer than the star is the whole star
    small = oracle.discretize(sd, 12, eps_s=0.3)
    H = oracle.chain_hamiltonian(small, 10.0, mean=1.2)
    assert H.shape == (13, 13)
    want = _star_eigensystem(small, 1.2)[0]
    assert np.max(np.abs(np.linalg.eigvalsh(H) - want)) < 1e-13


_SINE = DrivingField(mean=2.5, period=1.25, shape="sine", amplitude=0.5)
# (density or None for kinked_two_band, n_modes, drive, span or None for
# 0.95 of the trust horizon)
CHAIN_CASES = {
    "sine-n800": (Semicircle(eta=1.0), 800, _SINE, 20.0),
    "square-n800": (Semicircle(eta=1.0), 800,
                    DrivingField(mean=2.5, period=10.0, shape="square",
                                 amplitude=0.5), 20.0),
    "n301-t100": (Semicircle(eta=1.0), 301, _SINE, 100.0),
    "n40-capped": (Semicircle(eta=1.0), 40, _SINE, 30.0),
    "kinked-two-band": (None, 1000,
                        DrivingField(mean=0.2, period=2.0, shape="sine",
                                     amplitude=0.4), 100.0),
    "near-horizon": (Semicircle(eta=1.0), 300, _SINE, None),
    "eta0": (Semicircle(eta=0.0), 50,
             DrivingField(mean=1.0, period=2.0, shape="sine",
                          amplitude=0.7), 20.0),
}


@pytest.mark.parametrize("case", list(CHAIN_CASES))
def test_chain_matches_star(kinked_two_band, case):
    sd, n_modes, drive, t = CHAIN_CASES[case]
    model = oracle.discretize(sd or kinked_two_band, n_modes)
    if t is None:
        t = 0.95 * model.trust_horizon()
    grid = TimeGrid(0.0, 0.01, int(t / 0.01))
    got = oracle.propagate(model, drive, grid).values
    want = _propagate_star(model, drive, grid).values
    assert np.max(np.abs(got - want)) <= 1e-12
    if not model.couplings.any():
        # no chain at all: the level alone, an exact pure phase
        H = oracle.chain_hamiltonian(model, grid.t_end, drive.mean)
        assert H.shape == (1, 1)
        t = grid.times()
        phase = np.exp(-1j * (drive.mean * t + drive.modulation_integral(t)))
        assert np.max(np.abs(got - phase)) <= 1e-12


def test_semicircle_chain_is_uniform():
    # Chin et al., J. Math. Phys. 51, 092109 (2010): a semicircle reservoir
    # is the uniform chain, on-site eps0, hopping v0, level coupling eta v0
    sd = Semicircle(eta=1.3, eps0=0.3, v0=0.7)
    model = oracle.discretize(sd, 4000)
    H = oracle.chain_hamiltonian(model, (300 - oracle.CHAIN_MARGIN) / sd.v0)
    assert H.shape[0] - 1 >= 300
    a = np.diag(H)[1:]
    c0, b = H[0, 1], np.diag(H, 1)[1:]
    assert np.max(np.abs(a - sd.eps0)) <= 1e-13
    assert c0 == pytest.approx(sd.eta * sd.v0, rel=2e-6)
    assert np.max(np.abs(b / sd.v0 - 1.0)) <= 5e-3


def test_discretize_needs_a_mode_per_band():
    three = Tabulated((0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 5.1),
                      (0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0),
                      ((0.0, 1.0), (2.0, 3.0), (4.0, 5.1)))
    with pytest.raises(ConfigError):
        oracle.discretize(three, 2)
    model = oracle.discretize(three, 3)
    assert np.allclose(model.energies, [0.5, 2.5, 4.55])
    # the narrow last band would be left with 4 - 2 - 2 = 0 modes
    narrow = Tabulated((0.0, 1.0, 2.0, 3.0, 4.0, 4.1),
                       (0.0, 1.0, 0.0, 1.0, 0.0, 0.0),
                       ((0.0, 1.0), (2.0, 3.0), (4.0, 4.1)))
    with pytest.raises(ConfigError):
        oracle.discretize(narrow, 4)
    assert oracle.discretize(narrow, 5).energies.size == 5


def test_zero_coupling_pure_phase():
    model = oracle.discretize(Semicircle(eta=0.0), 50)
    drive = DrivingField(mean=1.0, period=2.0, shape="sine", amplitude=0.7)
    grid = TimeGrid(0.0, 0.01, 2000)
    tr = oracle.propagate(model, drive, grid)
    t = grid.times()
    want = np.exp(-1j * (1.0 * t + drive.modulation_integral(t)))
    assert np.max(np.abs(tr.values - want)) < 1e-10


def test_unitarity_long_run():
    model = oracle.discretize(Semicircle(eta=1.0), 301)
    drive = DrivingField(mean=2.5, period=1.25, shape="sine", amplitude=0.5)
    grid = TimeGrid(0.0, 0.01, 10000)
    tr = oracle.propagate(model, drive, grid)
    assert np.max(tr.magnitude()) <= 1.0 + 1e-10


def test_propagate_chunks_agree(monkeypatch):
    # kick and read factors come a chunk of _SLAB // 4 steps at a time; a
    # chunk of 7 steps puts boundaries everywhere, and a factor taken from
    # the wrong step would move u far beyond roundoff
    model = oracle.discretize(Semicircle(eta=1.0), 301)
    drive = DrivingField(mean=2.5, period=1.25, shape="sine", amplitude=0.5)
    grid = TimeGrid(0.0, 0.01, 1000)
    whole = oracle.propagate(model, drive, grid)
    monkeypatch.setattr(oscquad, "_SLAB", 4 * 7)
    chunked = oracle.propagate(model, drive, grid)
    assert np.max(np.abs(chunked.values - whole.values)) <= 1e-14


def test_propagate_memory_does_not_grow_with_steps(traced_peak, monkeypatch):
    # the same span in 125 and in 1250 steps: the same chain, so beyond the
    # result the working memory must not grow with the step count.  Under a
    # 2^10-element slab a chunk is 256 steps, so the counts and the allowed
    # growth are 1/16 of the default's 2000, 20 000 and 0.5 MB
    monkeypatch.setattr(oscquad, "_SLAB", 1 << 10)
    model = oracle.discretize(Semicircle(eta=1.0), 301)
    drive = DrivingField(mean=2.5, period=1.25, shape="sine", amplitude=0.5)
    above = []
    for n in (125, 1250):
        tr, peak = traced_peak(oracle.propagate, model, drive,
                               TimeGrid(0.0, 12.5 / n, n))
        above.append(peak - tr.values.nbytes)
    assert above[1] <= above[0] + 0.5e6 / 16, above


def test_static_late_amplitude_is_residue():
    # without modulation the level keeps exactly the bound-state weight
    sd = Semicircle(eta=1.0)
    z = find_bound_states(sd, 2.5)[0].residue
    model = oracle.discretize(sd, 900)
    drive = DrivingField(mean=2.5, amplitude=0.0)
    grid = TimeGrid(0.0, 0.02, 3000)
    tr = oracle.propagate(model, drive, grid)
    late = tr.magnitude()[grid.times() > 40.0]
    assert np.mean(late) == pytest.approx(z, abs=5e-3)


def test_matches_volterra_driven():
    sd = Semicircle(eta=1.0)
    drive = DrivingField(mean=2.5, period=1.32, shape="sine", amplitude=0.5)
    grid = TimeGrid(0.0, 0.01, 2000)
    model = oracle.discretize(sd, 800)
    a = oracle.propagate(model, drive, grid)
    b = evolve(SemicircleKernel(sd), 0.0, drive, grid)
    assert oracle.compare(a, b) < 5e-4


def test_trust_horizon_enforced():
    model = oracle.discretize(Semicircle(eta=1.0), 40)
    horizon = model.trust_horizon()
    assert horizon == pytest.approx(0.5 * model.recurrence_time())
    drive = DrivingField(mean=2.5, amplitude=0.0)
    n_bad = int(np.ceil(horizon / 0.01)) + 10
    with pytest.raises(ConfigError):
        oracle.propagate(model, drive, TimeGrid(0.0, 0.01, n_bad))


def test_finite_size_revival_exists():
    # a small lattice cannot truly dissipate: past the recurrence time the
    # amplitude must partially return; this is why the horizon matters
    sd = Semicircle(eta=0.8)
    model = oracle.discretize(sd, 48, eps_s=0.0)
    drive = DrivingField(mean=1.0, amplitude=0.0)
    t_rec = model.recurrence_time()
    grid = TimeGrid(0.0, 0.02, int(1.2 * t_rec / 0.02))
    lam, q = _star_eigensystem(model, 1.0)
    # exact eigenmode sum, no step error, just to expose the revival
    t = grid.times()
    mag = np.abs(np.exp(-1j * np.outer(t, lam)) @ (q * q))
    mid = mag[(t > 0.4 * t_rec) & (t < 0.6 * t_rec)].max()
    near_rec = mag[t > 0.9 * t_rec].max()
    assert near_rec > 3.0 * mid


@pytest.mark.parametrize("scale", [1.01, np.nan])
def test_propagate_checks_norm_invariant(monkeypatch, scale):
    model = oracle.discretize(Semicircle(eta=1.0), 60)
    drive = DrivingField(mean=2.5, period=2.0, shape="sine", amplitude=0.1)
    grid = TimeGrid(0.0, 0.01, 50)
    oracle.propagate(model, drive, grid)
    # a level column that is not a unit vector (or is poisoned) breaks the
    # unitarity of every kick
    real = oracle._eigensystem

    def scaled(m, mean, span):
        lam, q = real(m, mean, span)
        return lam, scale * q

    monkeypatch.setattr(oracle, "_eigensystem", scaled)
    with pytest.raises(DrivenLevelError):
        oracle.propagate(model, drive, grid)


def test_compare_grid_mismatch():
    model = oracle.discretize(Semicircle(eta=1.0), 20)
    drive = DrivingField(mean=0.0, amplitude=0.0)
    a = oracle.propagate(model, drive, TimeGrid(0.0, 0.1, 10))
    b = oracle.propagate(model, drive, TimeGrid(0.0, 0.1, 11))
    with pytest.raises(GridMismatch):
        oracle.compare(a, b)
