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

`angle_band_integral` is the one band quadrature.  It cuts a band at given
break points (a table's kinks, a resonance) and substitutes
x = c - w cos(phi) on each piece, which makes a square-root end analytic
and puts every kink at a piece end, where the nodes cluster.
Composite GL-16 panels start at about 16 rad of phase each, all pieces
double together until two levels agree on a few probe times, and one
`phase_sum` over every piece's nodes gives the result.
"""

import numpy as np

from .errors import ConfigError, QuadratureFailure

# elements per temporary complex slab (256 KB), the one working-memory size;
# every streaming layer reads it when it runs.  Far-sum FFT pieces and
# oracle chunks are _SLAB // 4 long, trace and SVG chunks _SLAB // 8
_SLAB = 1 << 14
# bytes one result may ask for, the one size budget: a trace's N + 1
# nodes times its drives, a semicircle kernel's nodes and the oracle's
# chain matrix are refused beyond it before anything is allocated
_BUDGET = 1 << 30
# below this many times the blocked split saves too little to pay off
_BLOCKED_MIN = 64
# uniformity tolerance in units of eps * max|t|
_UNIFORM_ULPS = 8.0
# node budget of the angle quadrature's panel doubling
_MAX_NODES = 1 << 21
# Gauss-Legendre 16-point rule on [-1, 1], bit for bit
# numpy.polynomial.legendre.leggauss(16), which would import numpy.polynomial;
# written out, since even a negation at import touches ~64 KB of numpy pages
_GL16_X = np.array((-0.9894009349916499, -0.9445750230732326,
                    -0.8656312023878318, -0.755404408355003,
                    -0.6178762444026438, -0.45801677765722737,
                    -0.2816035507792589, -0.09501250983763744,
                    0.09501250983763744, 0.2816035507792589,
                    0.45801677765722737, 0.6178762444026438,
                    0.755404408355003, 0.8656312023878318,
                    0.9445750230732326, 0.9894009349916499))
_GL16_W = np.array((0.027152459411754176, 0.062253523938647456,
                    0.0951585116824926, 0.12462897125553407,
                    0.1495959888165767, 0.16915651939500265,
                    0.18260341504492364, 0.18945061045506864,
                    0.18945061045506864, 0.18260341504492364,
                    0.16915651939500265, 0.1495959888165767,
                    0.12462897125553407, 0.0951585116824926,
                    0.062253523938647456, 0.027152459411754176))


def check_budget(nbytes, what):
    """Raise ConfigError, naming what and its size, if nbytes exceed
    _BUDGET; nbytes may be a float, inf included."""
    if not nbytes <= _BUDGET:
        raise ConfigError(f"{what} needs {nbytes / 2**30:.3g} GiB, more "
                          f"than the {_BUDGET / 2**30:g} GiB size budget")


def _uniform_step(t):
    """h if t[k] == t[0] + k*h to a few ulp of max|t|, else None."""
    h = (t[-1] - t[0]) / (t.size - 1)
    # max|t| without a temporary; NaN if t holds one
    tol = (_UNIFORM_ULPS * np.finfo(float).eps
           * max(abs(float(t.min())), abs(float(t.max()))))
    for lo in range(0, t.size, _SLAB):
        chunk = t[lo:lo + _SLAB]
        grid = t[0] + h * np.arange(lo, lo + chunk.size)
        dev = np.max(np.abs(chunk - grid))
        # written so that a NaN anywhere in t also fails the test
        if not dev <= tol:
            return None
    return h


def _direct_phase_sum(x, w, t):
    out = np.empty(t.shape, dtype=complex)
    chunk = max(1, _SLAB // max(1, x.size))
    for lo in range(0, t.size, chunk):
        p = np.multiply.outer(-1j * t[lo:lo + chunk], x)
        np.exp(p, out=p)
        out[lo:lo + p.shape[0]] = p @ w
    return out


def _blocked_phase_sum(x, w, t, h):
    """Uniform t: S[b*B + m] = sum_j e^{-i m h x_j} (w_j e^{-i t_{bB} x_j})."""
    n = t.size
    blk = int(np.ceil(np.sqrt(n)))
    starts = t[::blk]
    steps = -1j * (h * np.arange(blk))
    # row b holds block b, so the first n entries of out, flat, are S
    out = np.zeros((starts.size, blk), dtype=complex)
    # nodes in slabs so neither P (blk x mc) nor F (mc x n_blocks) outgrows
    # the slab, and rows of out per product so its temporary fits it too;
    # but 64 of each at least (beyond 2^16 times the three outgrow the
    # slab): each node slab reads and writes all of out, and each product
    # repacks P, so thinner ones cost time (16 rows: +10% at 10^6 times)
    mc = max(64, _SLAB // max(blk, starts.size))
    rows = max(64, _SLAB // blk)
    for lo in range(0, x.size, mc):
        xs = x[lo:lo + mc]
        # each factor built in its own buffer, no temporaries beside it
        p = np.multiply.outer(steps, xs)
        np.exp(p, out=p)
        f = np.multiply.outer(-1j * xs, starts)
        np.exp(f, out=f)
        f *= w[lo:lo + mc, None]
        for r in range(0, starts.size, rows):
            out[r:r + rows] += f[:, r:r + rows].T @ p.T
    return out.ravel()[:n]


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


def angle_band_integral(f, a, b, times, tol=1e-8, *, breaks=()):
    """∫_a^b f(x) e^{-ixt} dx for f smooth between breaks, sqrt-like at ends.

    [a, b] is cut at the given break points (those strictly inside it), and
    each piece [lo, hi] is substituted x = c - w cos(phi) with c its centre
    and w its half width.  That clusters nodes at both ends of every piece,
    turns a sqrt-vanishing end into an analytic one and leaves a kink at a
    break (a table node, say) only at a piece end, so composite
    Gauss-Legendre panels converge fast.  Each piece starts at
    max(1, ceil(w max|t| / 8)) GL-16 panels, about 16 rad of phase each;
    all pieces then double together until two successive levels agree on
    a few probe times, and one phase sum over every piece's nodes gives the
    result.  f is called once per level on all pieces' nodes.  A band that
    needs more than _MAX_NODES nodes raises QuadratureFailure.  times is a
    1-d array or a scalar, and the result has its shape.
    """
    t = np.atleast_1d(np.asarray(times, dtype=float))
    if t.size == 0:
        return np.empty(0, dtype=complex)
    inner = np.asarray(breaks, dtype=float).ravel()
    cuts = np.sort(np.concatenate(([a, b], inner[(inner > a) & (inner < b)])))
    cuts = cuts[np.append(True, cuts[1:] != cuts[:-1])]
    c = 0.5 * (cuts[1:] + cuts[:-1])
    w = 0.5 * np.diff(cuts)
    tmax = float(np.max(np.abs(t)))
    # a piece spans 2 w max|t| rad of phase: about 16 rad per GL-16 panel
    panels = np.maximum(1.0, np.ceil(w * tmax / 8.0))
    # checked before the first level too, which a far band or a long span
    # could make larger than any memory (NaN or inf included)
    first = 16.0 * panels.sum()
    if not first <= _MAX_NODES:
        raise QuadratureFailure(
            f"band integral needs {first:.3g} nodes at its first level, "
            f"more than its budget of {_MAX_NODES}")
    start = panels.astype(int)

    def nodes(scale):
        xs, ws = [], []
        for ci, wi, n in zip(c, w, start * scale):
            half = 0.5 * np.pi / n
            mid = half * (2 * np.arange(n) + 1)
            phi = (mid[:, None] + half * _GL16_X).ravel()
            xs.append(ci - wi * np.cos(phi))
            ws.append(wi * np.sin(phi) * np.tile(half * _GL16_W, n))
        x = np.concatenate(xs)
        return x, np.asarray(f(x), dtype=complex) * np.concatenate(ws)

    # nine spread times and the three largest |t|, sorted and deduplicated
    # (np.unique would import numpy.ma)
    idx = np.linspace(0, t.size - 1, 9).astype(int)
    order = np.argsort(np.abs(t))
    probe = np.sort(np.concatenate([t[idx], t[order[-3:]]]))
    probe = probe[np.append(True, probe[1:] != probe[:-1])]

    scale = 1
    x, fx = nodes(scale)
    prev = phase_sum(x, fx, probe)
    while True:
        scale *= 2
        x, fx = nodes(scale)
        cur = phase_sum(x, fx, probe)
        err = np.max(np.abs(cur - prev))
        if err <= tol * max(np.max(np.abs(cur)), 1.0):
            break
        if 2 * x.size > _MAX_NODES:
            raise QuadratureFailure(
                f"band integral not converged at {x.size} nodes "
                f"(err {err:.2e})")
        prev = cur
    return phase_sum(x, fx, times)
