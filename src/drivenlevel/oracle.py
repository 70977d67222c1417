"""Independent cross-check: the level coupled to an explicit finite lattice.

The reservoir continuum is replaced by n_modes discrete levels at band-cell
midpoints with couplings v_k = sqrt(J(e_k) d_eps / 2 pi).  The one-particle
Schroedinger equation for the (n_modes + 1)-component amplitude is then
integrated exactly as a matrix evolution; no memory integral, no self-energy.
Agreement with the Volterra route validates both.

Propagation uses the eigenbasis of the static Hamiltonian (dense symmetric
eigendecomposition, done once and cached per drive mean).  The drive only
moves the level's on-site energy, a rank-one perturbation, so one step is

    psi <- K(phi2) exp(-i h Lambda) K(phi1) psi,

with K(phi) = 1 + (e^{-i phi} - 1) q q^T the exact exponential of the
projector onto the level (q is the level's eigenbasis column) and phi the
drive modulation integrated over each half step in closed form.  Every
factor is unitary, so the norm is conserved to roundoff; the splitting is
second order in h.  propagate checks that at run time: a non-finite u, or a
final |psi|^2 further than NORM_SLACK from 1, raises DrivenLevelError.

The discrete spectrum recurs: beyond roughly 2 pi n_modes / bandwidth the
mirror reflections return.  Propagation refuses to run past half that.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy import linalg

from .errors import ConfigError, DrivenLevelError
from .spectral import eval_j
# compare is the solver's own, offered here for oracle-vs-solver checks
from .volterra import PropagatorTrace, compare

_MEAN_KEY_DECIMALS = 12
# |psi|^2 drift allowed at the end of a run: the README run (2000 modes,
# 20 000 steps) drifts by 8e-13, so this leaves three decades of headroom
NORM_SLACK = 1e-9


@dataclass(eq=False)
class LatticeModel:
    """Discretized reservoir plus the system level (eps_s on the dot)."""

    sd: object
    n_modes: int
    eps_s: float
    energies: np.ndarray
    couplings: np.ndarray
    _eig_cache: dict = field(default_factory=dict, repr=False)

    @property
    def bandwidth(self):
        return sum(hi - lo for lo, hi in self.sd.band)

    def recurrence_time(self):
        """Heisenberg time of the level ladder, 2 pi / spacing."""
        return 2.0 * np.pi * self.n_modes / self.bandwidth

    def trust_horizon(self):
        return 0.5 * self.recurrence_time()


def discretize(sd, n_modes, eps_s=0.0):
    """Midpoint discretization of the band(s) into n_modes reservoir levels.

    Modes are split across band intervals proportionally to their widths so
    the level spacing is uniform throughout.
    """
    if n_modes < 2:
        raise ConfigError(f"n_modes must be >= 2, got {n_modes}")
    widths = [hi - lo for lo, hi in sd.band]
    total = sum(widths)
    counts = [max(1, int(round(n_modes * w / total))) for w in widths]
    counts[-1] += n_modes - sum(counts)
    energies, couplings = [], []
    for (lo, hi), m in zip(sd.band, counts):
        de = (hi - lo) / m
        ek = lo + de * (np.arange(m) + 0.5)
        energies.append(ek)
        couplings.append(np.sqrt(eval_j(sd, ek) * de / (2.0 * np.pi)))
    return LatticeModel(sd, n_modes, float(eps_s),
                        np.concatenate(energies), np.concatenate(couplings))


def static_hamiltonian(model, mean=0.0):
    """(n+1) x (n+1) symmetric matrix; index 0 is the system level."""
    n = model.n_modes
    h = np.zeros((n + 1, n + 1))
    h[0, 0] = model.eps_s + mean
    h[0, 1:] = model.couplings
    h[1:, 0] = model.couplings
    h[np.arange(1, n + 1), np.arange(1, n + 1)] = model.energies
    return h


def _eigensystem(model, mean):
    key = round(float(mean), _MEAN_KEY_DECIMALS)
    hit = model._eig_cache.get(key)
    if hit is None:
        lam, vecs = linalg.eigh(static_hamiltonian(model, mean))
        q = np.ascontiguousarray(vecs[0, :])   # level's row = e0 in eigenbasis
        model._eig_cache[key] = (lam, q)
        hit = (lam, q)
    return hit


def propagate(model, drive, grid):
    """Level amplitude u(t_k, t0) on the grid; returns a PropagatorTrace.

    Refuses spans beyond the trust horizon (finite-size recurrences).  Raises
    DrivenLevelError if any u is non-finite or the final norm has drifted
    from 1 by more than NORM_SLACK.
    """
    span = grid.t_end - grid.t0
    horizon = model.trust_horizon()
    if span > horizon:
        raise ConfigError(
            f"span {span:.1f} exceeds trust horizon {horizon:.1f}; "
            f"increase n_modes")
    lam, q = _eigensystem(model, drive.mean)
    h = grid.h
    t = grid.times()
    phase_step = np.exp(-1j * h * lam)

    # closed-form modulation integrals over half steps
    pint = drive.modulation_integral
    left = pint(t[:-1] + 0.5 * h) - pint(t[:-1])
    right = pint(t[1:]) - pint(t[:-1] + 0.5 * h)

    psi = q.astype(complex)               # e0 in the eigenbasis
    u = np.empty(grid.n_steps + 1, dtype=complex)
    u[0] = q @ psi

    def kick(psi, phi):
        if phi == 0.0:
            return psi
        amp = q @ psi
        return psi + (np.exp(-1j * phi) - 1.0) * amp * q

    for k in range(grid.n_steps):
        psi = kick(psi, left[k])
        psi = phase_step * psi
        psi = kick(psi, right[k])
        u[k + 1] = q @ psi

    bad = ~np.isfinite(u)
    if bad.any():
        k = int(np.argmax(bad))
        raise DrivenLevelError(
            f"oracle: non-finite u at node {k} (t = {t[k]:.6g})")
    drift = abs(np.vdot(psi, psi).real - 1.0)
    if not drift <= NORM_SLACK:
        raise DrivenLevelError(
            f"oracle: |psi|^2 drifted from 1 by {drift:.3e} "
            f"(slack {NORM_SLACK:.0e})")
    return PropagatorTrace(grid, u)
