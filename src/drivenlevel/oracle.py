"""Independent cross-check: the level coupled to the reservoir's exact chain.

Every reservoir is exactly a semi-infinite chain (Chin, Rivas, Huelga and
Plenio, J. Math. Phys. 51, 092109 (2010)): the level couples to site 1
with c0, site k sits at a_k and hops to k+1 with b_k, the recurrence
coefficients of the measure J de / 2 pi.  The level's amplitude then comes
from an exact matrix evolution; no memory integral, no self-energy.
Agreement with the Volterra route validates both.

Each density builds its chain (`chain`, in `spectral`): a semicircle's is
closed-form, c0 = eta v0, every a_k = eps0, every b_k = v0; a table's
comes from plain Lanczos on per-cell Gauss-Legendre nodes with weights
J w / 2 pi, the discretized Stieltjes procedure (Gautschi, Orthogonal
Polynomials: Computation and Approximation, OUP 2004, ch. 2): m nodes a
cell are exact for the first m - 1 coefficients.  Amplitude runs along the
chain no faster than 2 b_max, so an echo from a cut at site L returns no
sooner than about L / b_max: a span needs only b_max * span + CHAIN_MARGIN
sites (`chain_sites`, b_max the density's `hop_bound`), and the level's
amplitude is the infinite chain's to roundoff.  Nothing is discretized and
nothing recurs, so the only error is the split step's, second order in h;
the CLI's oracle.n_modes caps the sites.

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
roundoff.  propagate checks that at run time: a non-finite u, or a final
|psi|^2 further than NORM_SLACK from 1, raises DrivenLevelError.
"""

import math

import numpy as np

from . import oscquad
from .errors import DrivenLevelError
from .spectral import CHAIN_MARGIN
# compare is the solver's own, offered here for oracle-vs-solver checks
from .volterra import PropagatorTrace, _non_finite_node, compare

# |psi|^2 drift allowed at the end of a run: the README run (20 000 steps)
# drifts by 1.5e-12, so this leaves more than two decades of headroom
NORM_SLACK = 1e-9


def chain_sites(sd, span):
    """Sites of the chain the oracle builds over span, b_max * span +
    CHAIN_MARGIN, b_max the density's hop_bound (a table's Lanczos may stop
    sooner).  A chain whose dense (L + 1)^2 matrix exceeds oscquad's size
    budget is refused with a ConfigError."""
    if sd.decoupled:
        return 0
    sites = sd.hop_bound * span + CHAIN_MARGIN
    oscquad.check_budget(8.0 * (sites + 1.0) * (sites + 1.0),
                         f"the oracle's chain of {sites:.3g} sites")
    return math.ceil(sites)


def chain_hamiltonian(sd, eps_on, span):
    """Tridiagonal Hamiltonian of the level at eps_on (index 0) and the
    chain that span needs."""
    c0, a, b = sd.chain(chain_sites(sd, span), span)
    off = ([c0] + b)[:len(a)]
    return np.diag([eps_on] + a) + np.diag(off, 1) + np.diag(off, -1)


def _eigensystem(sd, eps_on, span):
    lam, vecs = np.linalg.eigh(chain_hamiltonian(sd, eps_on, span))
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


def propagate(sd, eps_s, drive, grid):
    """Amplitude u(t_k) of the level at eps_s under drive, coupled to
    sd's chain, on the grid; returns a PropagatorTrace.

    Raises DrivenLevelError if any u is non-finite or the final norm has
    drifted from 1 by more than NORM_SLACK, and ConfigError, before
    anything is allocated, if u or the chain exceeds oscquad's size budget.
    """
    n = grid.n_steps
    oscquad.check_budget(16 * (n + 1), f"a grid of {n + 1} nodes")
    lam, q = _eigensystem(sd, eps_s + drive.mean, grid.t_end)
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

    where = _non_finite_node(u, grid)
    if where:
        raise DrivenLevelError(f"oracle: non-finite u at {where}")
    drift = abs(np.vdot(psi, psi).real - 1.0)
    if not drift <= NORM_SLACK:
        raise DrivenLevelError(
            f"oracle: |psi|^2 drifted from 1 by {drift:.3e} "
            f"(slack {NORM_SLACK:.0e})")
    return PropagatorTrace(grid, u)
