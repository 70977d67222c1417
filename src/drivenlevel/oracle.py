"""Independent cross-check: the level coupled to the reservoir's exact chain.

Every reservoir is exactly a semi-infinite chain (Chin, Rivas, Huelga and
Plenio, J. Math. Phys. 51, 092109 (2010)): the level couples to site 1
with c0, site k sits at a_k and hops to k+1 with b_k, the recurrence
coefficients of the measure J de / 2 pi.  The level's amplitude then comes
from an exact matrix evolution; no memory integral, no self-energy.
Agreement with the Volterra route validates both.

A semicircle's chain is closed-form: c0 = eta v0, every a_k = eps0, every
b_k = v0.  A table's comes from plain Lanczos on per-cell Gauss-Legendre
nodes with weights J w / 2 pi, the discretized Stieltjes procedure
(Gautschi, Orthogonal Polynomials: Computation and Approximation, OUP
2004, ch. 2): m nodes a cell are exact for the first m - 1 coefficients.
Amplitude runs along the chain no faster than 2 b_max, so an echo from a
cut at site L returns no sooner than about L / b_max: a span needs only
b_max * span + CHAIN_MARGIN sites (`chain_sites`), and the level's
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
from .spectral import Semicircle, eval_j
# compare is the solver's own, offered here for oracle-vs-solver checks
from .volterra import PropagatorTrace, _non_finite_node, compare

# |psi|^2 drift allowed at the end of a run: the README run (20 000 steps)
# drifts by 1.5e-12, so this leaves more than two decades of headroom
NORM_SLACK = 1e-9
# chain sites beyond the light cone b_max * span.  On the README run (t =
# 200, h 0.01) margins of 10 / 20 / 30 / 40 / 50 miss a margin of 400 by
# 1.4e-4 / 4.6e-8 / 1.8e-12 / 1.8e-13 / 1.8e-13
CHAIN_MARGIN = 50
# a table cell gets min(L + 1, ceil(_NODES_PER_SITE (L + 1) F) + _NODE_FLOOR)
# nodes for L sites, F its arcsine share of its band (`_star`).  Worst
# coefficient error against m = L + 1 over nine tables (edge grading, J zero
# on part of a band, unequal or far narrow bands, dense ones) at spans
# 20-1000, per site 2 / 3: floor 8 2.6e-2 / 3.3e-9, floor 12 2.4e-3 /
# 9.2e-14, floor 16 8.5e-7 / 9.8e-14 (roundoff; 16 keeps a step of margin).
# A 4001-node table at span 200 takes 68 154 nodes, 2.2e-14 off.  Width
# shares, ceil(4 (L + 1) w / W) + 16, miss a 401-node table's chain at span
# 1000: an edge cell holds about L sqrt(w / W) zeros
_NODES_PER_SITE = 3
_NODE_FLOOR = 16


def chain_sites(sd, span):
    """Sites of the chain the oracle builds over span, b_max * span +
    CHAIN_MARGIN: b_max = v0 for a semicircle, and for a table the bound
    b_k <= half its bands' hull (its Lanczos may stop sooner).  A chain
    whose dense (L + 1)^2 matrix exceeds oscquad's size budget is refused
    with a ConfigError."""
    if sd.decoupled:
        return 0
    b_max = sd.v0 if isinstance(sd, Semicircle) else \
        0.5 * (sd.band[-1][1] - sd.band[0][0])
    sites = b_max * span + CHAIN_MARGIN
    oscquad.check_budget(8.0 * (sites + 1.0) * (sites + 1.0),
                         f"the oracle's chain of {sites:.3g} sites")
    return math.ceil(sites)


def _star(sd, sites):
    """Per-cell Gauss-Legendre nodes of a table and their couplings
    sqrt(J w / 2 pi), exact for the first `sites` chain coefficients.  The
    orthogonal polynomials' zeros crowd to the band edges like the arcsine
    law, and a cell needs nodes for the zeros it holds (_NODES_PER_SITE)."""
    # imported here so that a semicircle never loads numpy.polynomial
    from numpy.polynomial.legendre import leggauss

    energies, weights = [], []
    for (lo, hi), band in zip(sd.band, sd.cells):
        x = band.x
        cdf = np.arccos(np.clip((lo + hi - 2.0 * x) / (hi - lo), -1.0, 1.0))
        m = np.minimum(sites + 1, _NODE_FLOOR + np.ceil(
            _NODES_PER_SITE * (sites + 1) * np.diff(cdf) / np.pi).astype(int))
        half = 0.5 * band.width
        for k in np.unique(m):
            t, w = leggauss(k)
            cells = m == k
            energies.append(((x[:-1] + half)[cells, None]
                             + half[cells, None] * t).ravel())
            weights.append((half[cells, None] * w).ravel())
    e = np.concatenate(energies)
    return e, np.sqrt(eval_j(sd, e) * np.concatenate(weights) / (2.0 * np.pi))


def _lanczos(e, couplings, span):
    """(c0, a, b) of the star diag(e) with couplings, by plain Lanczos
    from the couplings: the level couples to chain site 1 with c0, site k
    has on-site a_k and hops to k+1 with b_k.  It stops at L >= b_max *
    span + CHAIN_MARGIN, or with every coupled mode (the whole star)."""
    c0 = float(np.linalg.norm(couplings))
    n_coupled = int(np.count_nonzero(couplings))
    a, b = [], []
    if n_coupled:
        v, v_prev, b_prev, b_max = couplings / c0, 0.0, 0.0, 0.0
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
    return c0, a, b


def chain_hamiltonian(sd, eps_on, span):
    """Tridiagonal Hamiltonian of the level at eps_on (index 0) and the
    chain that span needs."""
    sites = chain_sites(sd, span)
    if isinstance(sd, Semicircle):
        c0, a, b = sd.eta * sd.v0, [sd.eps0] * sites, [sd.v0] * sites
    else:
        c0, a, b = _lanczos(*_star(sd, sites), span)
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
    """Amplitude u(t_k, t0) of the level at eps_s under drive, coupled to
    sd's chain, on the grid; returns a PropagatorTrace.

    Raises DrivenLevelError if any u is non-finite or the final norm has
    drifted from 1 by more than NORM_SLACK, and ConfigError, before
    anything is allocated, if u or the chain exceeds oscquad's size budget.
    """
    n = grid.n_steps
    oscquad.check_budget(16 * (n + 1), f"a grid of {n + 1} nodes")
    lam, q = _eigensystem(sd, eps_s + drive.mean, grid.t_end - grid.t0)
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
