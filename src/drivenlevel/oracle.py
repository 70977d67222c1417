"""Independent cross-check: the level coupled to an explicit finite lattice.

The reservoir continuum is replaced by n_modes discrete levels at band-cell
midpoints with couplings v_k = sqrt(J(e_k) d_eps / 2 pi), a star around the
level.  The one-particle Schroedinger equation for the level's amplitude is
then integrated exactly as a matrix evolution; no memory integral, no
self-energy.  Agreement with the Volterra route validates both.

The star is exactly a chain (Chin, Rivas, Huelga and Plenio, J. Math.
Phys. 51, 092109 (2010)): plain Lanczos on the mode energies, started from
the couplings, gives a tridiagonal Hamiltonian in which the level talks to
the first chain site only.  Amplitude runs along the chain no faster than
2 b_max (b_max the largest hopping), so an echo from a cut at site L
reaches the level no sooner than about L / b_max: over a span only the
first b_max * span + CHAIN_MARGIN sites matter and the rest are cut, and
the level's amplitude is the star's to roundoff.

Propagation uses the eigenbasis of that static chain (a dense symmetric
eigendecomposition of a few hundred sites).  The drive only moves the
level's on-site energy, a rank-one perturbation, so one step is

    psi <- K(phi2) exp(-i h Lambda) K(phi1) psi,

with K(phi) = 1 + (e^{-i phi} - 1) q q^T the exact exponential of the
projector onto the level (q is the level's eigenbasis column) and phi the
drive modulation integrated over each half step in closed form.  The kicks
compose, K(a) K(b) = K(a + b), so the closing kick of one step and the
opening kick of the next are applied as one, and the level amplitude
q^T psi read just before it gives u by one phase: q^T K(phi) psi =
e^{-i phi} q^T psi.  Every factor is unitary, so the norm is conserved to
roundoff; the splitting is second order in h.  propagate checks that at
run time: a non-finite u, or a final |psi|^2 further than NORM_SLACK from
1, raises DrivenLevelError.

The discrete star spectrum recurs: beyond roughly 2 pi n_modes / bandwidth
the mirror reflections return.  Propagation refuses to run past half that.
"""

from dataclasses import dataclass

import numpy as np

from . import oscquad
from .errors import ConfigError, DrivenLevelError
from .spectral import eval_j
# compare is the solver's own, offered here for oracle-vs-solver checks
from .volterra import PropagatorTrace, compare

# |psi|^2 drift allowed at the end of a run: the README run (2000 modes,
# 20 000 steps) drifts by 8e-13, so this leaves three decades of headroom
NORM_SLACK = 1e-9
# chain sites kept beyond the light cone b_max * span (chain_hamiltonian).
# Against the whole star on the README run (2000 modes, t = 200) a margin of
# 10 / 20 / 30 / 50 misses by 5.7e-5 / 1.3e-8 / 5.4e-13 / 2.4e-13; 20 also
# fails tests/test_oracle.py's 1e-12 chain-vs-star cases and 30 passes them
CHAIN_MARGIN = 50


@dataclass(eq=False)
class LatticeModel:
    """Discretized reservoir plus the system level (eps_s on the dot)."""

    sd: object
    n_modes: int
    eps_s: float
    energies: np.ndarray
    couplings: np.ndarray

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
    the level spacing is uniform throughout; every band needs at least one.
    """
    if n_modes < 2:
        raise ConfigError(f"n_modes must be >= 2, got {n_modes}")
    widths = [hi - lo for lo, hi in sd.band]
    total = sum(widths)
    counts = [max(1, int(round(n_modes * w / total))) for w in widths[:-1]]
    counts.append(n_modes - sum(counts))
    if counts[-1] < 1:
        raise ConfigError(
            f"n_modes {n_modes} is too few for {len(widths)} bands "
            f"(mode counts {counts})")
    energies, couplings = [], []
    for (lo, hi), m in zip(sd.band, counts):
        de = (hi - lo) / m
        ek = lo + de * (np.arange(m) + 0.5)
        energies.append(ek)
        couplings.append(np.sqrt(eval_j(sd, ek) * de / (2.0 * np.pi)))
    return LatticeModel(sd, n_modes, float(eps_s),
                        np.concatenate(energies), np.concatenate(couplings))


def chain_hamiltonian(model, span, mean=0.0):
    """(L+1)-site tridiagonal Hamiltonian; index 0 is the system level.

    Plain Lanczos on diag(energies) from the couplings (the discretized
    Stieltjes procedure) maps the star onto a chain: the level, at
    eps_s + mean, couples to chain site 1 with |couplings|, site k has
    on-site a_k and hops to k+1 with b_k.  An echo from the chain's end
    needs about L / b_max to return to the level, so the chain stops at
    L >= b_max * span + CHAIN_MARGIN, or when it holds every coupled mode
    (then it is the whole star).
    """
    c0 = float(np.linalg.norm(model.couplings))
    n_coupled = int(np.count_nonzero(model.couplings))
    e = model.energies
    a, b = [], []
    if n_coupled:
        v, v_prev, b_prev, b_max = model.couplings / c0, 0.0, 0.0, 0.0
        while True:
            w = e * v
            a.append(float(v @ w))
            if len(a) == n_coupled:
                break
            w -= a[-1] * v + b_prev * v_prev
            b_prev = float(np.linalg.norm(w))
            b_max = max(b_max, b_prev)
            if len(a) >= b_max * span + CHAIN_MARGIN:
                break
            b.append(b_prev)
            v_prev, v = v, w / b_prev
    off = ([c0] + b)[:len(a)]
    return (np.diag([model.eps_s + mean] + a)
            + np.diag(off, 1) + np.diag(off, -1))


def _eigensystem(model, mean, span):
    lam, vecs = np.linalg.eigh(chain_hamiltonian(model, span, mean))
    return lam, np.ascontiguousarray(vecs[0, :])   # level's row = e0


def _kicks(drive, grid, lo, hi):
    """Phase factors of steps lo <= k < hi (capped at the last step).

    Returns step lo's opening half-step phase, then the kick factors
    e^{-i phi} - 1 and the read factors as lists of Python complex.  Kick
    k follows phase step k: step k's closing half plus step k+1's opening
    half; the last step closes alone.
    """
    h = grid.h
    # nodes lo .. hi+1: step hi's opening half goes into kick hi - 1
    t = grid.times(lo, hi + 2)
    mid = t[:-1] + 0.5 * h
    # closed-form modulation integrals over half steps
    pint = drive.modulation_integral
    left = pint(mid) - pint(t[:-1])
    right = pint(t[1:]) - pint(mid)
    m = min(hi, grid.n_steps) - lo
    phase = right[:m].copy()
    phase[:left.size - 1] += left[1:m + 1]
    kicks = (np.exp(-1j * phase) - 1.0).tolist()
    return left[0], kicks, np.exp(-1j * right[:m]).tolist()


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
    lam, q = _eigensystem(model, drive.mean, span)
    n = grid.n_steps
    phase_step = np.exp(-1j * grid.h * lam)

    psi = q.astype(complex)               # e0 in the eigenbasis
    u = np.empty(n + 1, dtype=complex)
    u[0] = q @ psi
    chunk = oscquad._SLAB // 4
    for lo in range(0, n, chunk):
        opening, kicks, reads = _kicks(drive, grid, lo, lo + chunk)
        if lo == 0:
            psi += (np.exp(-1j * opening) - 1.0) * u[0] * q
        for k in range(len(reads)):
            psi *= phase_step
            amp = q @ psi
            u[lo + k + 1] = reads[k] * amp
            psi += (kicks[k] * amp) * q

    bad = ~np.isfinite(u)
    if bad.any():
        k = int(np.argmax(bad))
        raise DrivenLevelError(f"oracle: non-finite u at node {k} "
                               f"(t = {grid.times(k, k + 1)[0]:.6g})")
    drift = abs(np.vdot(psi, psi).real - 1.0)
    if not drift <= NORM_SLACK:
        raise DrivenLevelError(
            f"oracle: |psi|^2 drifted from 1 by {drift:.3e} "
            f"(slack {NORM_SLACK:.0e})")
    return PropagatorTrace(grid, u)
