import numpy as np
import pytest

from drivenlevel import oracle
from drivenlevel.driving import DrivingField
from drivenlevel.errors import ConfigError, DrivenLevelError, GridMismatch
from drivenlevel.kernel import SemicircleKernel
from drivenlevel.spectral import Semicircle, find_bound_states, total_weight
from drivenlevel.volterra import TimeGrid, evolve


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
    sd = Semicircle(eta=0.8)
    model = oracle.discretize(sd, 4, eps_s=0.3)
    H = oracle.static_hamiltonian(model, mean=1.2)
    assert H.shape == (5, 5)
    assert H[0, 0] == pytest.approx(1.5)
    assert np.allclose(H, H.T)
    assert np.allclose(np.diag(H)[1:], model.energies)


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
    lam, q = oracle._eigensystem(model, 1.0)
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

    def scaled(m, mean):
        lam, q = real(m, mean)
        return lam, scale * q

    monkeypatch.setattr(oracle, "_eigensystem", scaled)
    with pytest.raises(DrivenLevelError):
        oracle.propagate(model, drive, grid)


def test_eigensystem_cache_reused():
    model = oracle.discretize(Semicircle(eta=1.0), 60)
    drive = DrivingField(mean=2.5, period=2.0, shape="sine", amplitude=0.1)
    grid = TimeGrid(0.0, 0.01, 50)
    oracle.propagate(model, drive, grid)
    assert len(model._eig_cache) == 1
    oracle.propagate(model, drive, grid)
    assert len(model._eig_cache) == 1
    oracle.propagate(model, DrivingField(mean=1.0, amplitude=0.0), grid)
    assert len(model._eig_cache) == 2


def test_compare_grid_mismatch():
    model = oracle.discretize(Semicircle(eta=1.0), 20)
    drive = DrivingField(mean=0.0, amplitude=0.0)
    a = oracle.propagate(model, drive, TimeGrid(0.0, 0.1, 10))
    b = oracle.propagate(model, drive, TimeGrid(0.0, 0.1, 11))
    with pytest.raises(GridMismatch):
        oracle.compare(a, b)
