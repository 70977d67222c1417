"""Fourier-type integrals ∫ f(x) e^{-ixt} dx over finite intervals.

Every quadrature here ends in the same phase sum S(t) = sum_j w_j e^{-i t x_j}
over its nodes x_j and weights w_j; `phase_sum` is that one primitive.  The
callers ask for t on a uniform grid t_k = t0 + k*h (solver times, kernel
lags), and there it splits t into blocks of B ~ sqrt(n) steps,
t = t_b + m*h, so that S = P @ F with P[m, j] = e^{-i m h x_j} and
F[j, b] = w_j e^{-i t_b x_j}: one complex matrix product and about
2 sqrt(n) exponentials per node instead of n.  Every phase is the product of
two correctly rounded exponentials, so there is no recurrence and no drift.
Short, scattered or non-uniform t fall back to the direct product.

For bands where f vanishes like a square root at the edges, the angle path
substitutes x = c - w cos(phi) and sums composite Gauss-Legendre panels.
"""

import numpy as np

from .errors import QuadratureFailure

# elements per temporary complex slab; bounds peak memory of every phase sum
_SLAB = 1 << 16
# below this many times the blocked split saves too little to pay off
_BLOCKED_MIN = 64
# uniformity tolerance in units of eps * max|t|
_UNIFORM_ULPS = 8.0
# node budget of the angle quadrature's panel doubling
_MAX_NODES = 1 << 21


def _uniform_step(t):
    """h if t[k] == t[0] + k*h to a few ulp of max|t|, else None."""
    h = (t[-1] - t[0]) / (t.size - 1)
    dev = np.max(np.abs(t - (t[0] + h * np.arange(t.size))))
    # written so that a NaN anywhere in t also fails the test
    if not dev <= _UNIFORM_ULPS * np.finfo(float).eps * np.max(np.abs(t)):
        return None
    return h


def _direct_phase_sum(x, w, t):
    out = np.empty(t.shape, dtype=complex)
    chunk = max(1, _SLAB // max(1, x.size))
    for lo in range(0, t.size, chunk):
        tc = t[lo:lo + chunk, None]
        out[lo:lo + tc.size] = np.exp(-1j * tc * x[None, :]) @ w
    return out


def _blocked_phase_sum(x, w, t, h):
    """Uniform t: S[b*B + m] = sum_j e^{-i m h x_j} (w_j e^{-i t_{bB} x_j})."""
    n = t.size
    blk = int(np.ceil(np.sqrt(n)))
    starts = t[::blk]
    steps = h * np.arange(blk)
    # nodes in slabs so neither P (blk x mc) nor F (mc x n_blocks) outgrows
    # the direct path's budget
    mc = max(1, _SLAB // max(blk, starts.size))
    acc = np.zeros((blk, starts.size), dtype=complex)
    for lo in range(0, x.size, mc):
        xs = x[lo:lo + mc]
        p = np.exp(-1j * steps[:, None] * xs[None, :])
        f = w[lo:lo + mc, None] * np.exp(-1j * xs[:, None] * starts[None, :])
        acc += p @ f
    return acc.T.ravel()[:n]


def phase_sum(x, w, t):
    """sum_j w[j] e^{-i t x[j]} for each t; complex, shaped like t.

    Uniform t of at least a few dozen points takes the blocked product
    (exact rewrite, agrees with the direct sum to roundoff); anything else
    is summed directly.  Temporaries stay below a fixed slab size.
    """
    x = np.asarray(x, dtype=float).ravel()
    w = np.asarray(w, dtype=complex).ravel()
    tt = np.asarray(t, dtype=float)
    flat = tt.ravel()
    h = _uniform_step(flat) if flat.size >= _BLOCKED_MIN else None
    if h is None:
        out = _direct_phase_sum(x, w, flat)
    else:
        out = _blocked_phase_sum(x, w, flat, h)
    return out.reshape(tt.shape)


def angle_band_integral(f, a, b, times, tol=1e-8):
    """∫_a^b f(x) e^{-ixt} dx for bands where f vanishes like sqrt at the edges.

    Substituting x = c - w cos(phi) clusters nodes at the edges and turns a
    sqrt-vanishing integrand into an analytic one, so composite Gauss-Legendre
    panels converge spectrally.  The panel count scales with the phase range
    w * max|t|; a doubling step guards the tolerance, and a band that
    needs more than _MAX_NODES nodes raises QuadratureFailure.
    """
    t = np.atleast_1d(np.asarray(times, dtype=float))
    if t.size == 0:
        return np.empty(0, dtype=complex)
    c = 0.5 * (a + b)
    w = 0.5 * (b - a)
    tmax = float(np.max(np.abs(t))) if t.size else 0.0

    glx, glw = np.polynomial.legendre.leggauss(16)

    def nodes(n_panels):
        edges = np.linspace(0.0, np.pi, n_panels + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1] - edges[0])
        phi = (mid[:, None] + half * glx[None, :]).ravel()
        wts = np.broadcast_to(half * glw, (n_panels, 16)).ravel()
        x = c - w * np.cos(phi)
        fx = np.asarray(f(x), dtype=complex) * (w * np.sin(phi)) * wts
        return x, fx

    idx = np.unique(np.clip(np.linspace(0, t.size - 1, 9).astype(int), 0, t.size - 1))
    order = np.argsort(np.abs(t))
    probe = np.unique(np.concatenate([t[idx], t[order[-3:]]]))

    # ~2 pi phase per panel to start; GL-16 resolves that comfortably
    n = max(16, int(np.ceil(0.5 * w * tmax)))
    x, fx = nodes(n)
    prev = phase_sum(x, fx, probe)
    while True:
        n *= 2
        x, fx = nodes(n)
        cur = phase_sum(x, fx, probe)
        err = np.max(np.abs(cur - prev))
        scale = max(np.max(np.abs(cur)), 1.0)
        if err <= tol * scale:
            break
        if 16 * 2 * n > _MAX_NODES:
            raise QuadratureFailure(
                f"band integral not converged at {n} panels (err {err:.2e})")
        prev = cur
    result = phase_sum(x, fx, t)
    if np.isscalar(times) or np.ndim(times) == 0:
        return result[0]
    return result
