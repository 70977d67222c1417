"""Minimal SVG line plots, no plotting dependency.

Good enough for |u(t)| curves against t: polylines on a framed axis box
with nice ticks, labels and an optional legend.
"""

import numpy as np

from . import oscquad

_COLORS = ("#1f5fa8", "#c44e52", "#2a8a5c", "#8172b2", "#937860")
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64.0, 16.0, 28.0, 46.0
_WIDTH, _HEIGHT = 720, 440


def _nice_ticks(lo, hi, target=6):
    span = hi - lo
    if span <= 0.0:
        return [lo]
    raw = span / target
    mag = 10.0 ** np.floor(np.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = np.ceil(lo / step) * step
    ticks = np.arange(first, hi + 0.5 * step, step)
    return [float(t) for t in ticks if lo - 1e-12 * span <= t <= hi + 1e-12 * span]


def _fmt_tick(v):
    if v == 0.0:
        return "0"
    if abs(v) >= 1e4 or abs(v) < 1e-3:
        return f"{v:.1e}"
    s = f"{v:.4g}"
    return s


def _drawn(x, y):
    """The points a polyline draws, finite in both coordinates, a chunk of
    points at a time."""
    chunk = oscquad._SLAB // 8
    for lo in range(0, x.size, chunk):
        xc, yc = x[lo:lo + chunk], y[lo:lo + chunk]
        keep = np.isfinite(xc) & np.isfinite(yc)
        yield xc[keep], yc[keep]


def line_plot(path, curves, title="", ylabel=""):
    """Write an SVG of the given curves against t.

    curves: iterable of (x, y, label); label may be "" to skip the legend
    entry.  Points with a non-finite coordinate are skipped.  Axis limits
    come from the points drawn, y is padded slightly and pinned to include
    0 when all values are nonnegative.  The polylines are written a chunk
    of points at a time.
    """
    curves = [(np.asarray(x, dtype=float), np.asarray(y, dtype=float), label)
              for x, y, label in curves]
    if not curves:
        raise ValueError("need at least one curve")
    w, h = _WIDTH, _HEIGHT
    x_lo = y_lo = np.inf
    x_hi = y_hi = -np.inf
    for x, y, _ in curves:
        for xc, yc in _drawn(x, y):
            if xc.size:
                x_lo, x_hi = min(x_lo, xc.min()), max(x_hi, xc.max())
                y_lo, y_hi = min(y_lo, yc.min()), max(y_hi, yc.max())
    if x_lo > x_hi:
        raise ValueError("no curve has a finite point to draw")
    x_lo, x_hi, y_lo, y_hi = map(float, (x_lo, x_hi, y_lo, y_hi))
    if y_lo >= 0.0:
        y_lo = 0.0
    pad = 0.05 * (y_hi - y_lo) or 1.0
    y_hi += pad
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0

    px_w = w - _MARGIN_L - _MARGIN_R
    px_h = h - _MARGIN_T - _MARGIN_B

    def sx(x):
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * px_w

    def sy(y):
        return _MARGIN_T + (y_hi - y) / (y_hi - y_lo) * px_h

    out = []
    out.append(f'<svg xmlns="http://www.w3.org/2000/svg" width="{w:.0f}" '
               f'height="{h:.0f}" viewBox="0 0 {w:.0f} {h:.0f}">')
    out.append(f'<rect width="{w:.0f}" height="{h:.0f}" fill="white"/>')
    out.append(f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{px_w}" '
               f'height="{px_h}" fill="none" stroke="#333" stroke-width="1"/>')

    for tx in _nice_ticks(x_lo, x_hi):
        X = sx(tx)
        out.append(f'<line x1="{X:.2f}" y1="{sy(y_lo):.2f}" x2="{X:.2f}" '
                   f'y2="{sy(y_lo) + 5:.2f}" stroke="#333"/>')
        out.append(f'<text x="{X:.2f}" y="{sy(y_lo) + 18:.2f}" font-size="11" '
                   f'text-anchor="middle" font-family="sans-serif">'
                   f'{_fmt_tick(tx)}</text>')
    for ty in _nice_ticks(y_lo, y_hi):
        Y = sy(ty)
        out.append(f'<line x1="{_MARGIN_L - 5:.2f}" y1="{Y:.2f}" '
                   f'x2="{_MARGIN_L:.2f}" y2="{Y:.2f}" stroke="#333"/>')
        out.append(f'<text x="{_MARGIN_L - 8:.2f}" y="{Y + 4:.2f}" '
                   f'font-size="11" text-anchor="end" '
                   f'font-family="sans-serif">{_fmt_tick(ty)}</text>')

    # after the polylines: title, axis labels, legend and the closing tag
    tail = []
    if title:
        tail.append(f'<text x="{w / 2:.0f}" y="18" font-size="13" '
                    f'text-anchor="middle" font-family="sans-serif">'
                    f'{title}</text>')
    tail.append(f'<text x="{_MARGIN_L + px_w / 2:.0f}" y="{h - 10:.0f}" '
                f'font-size="12" text-anchor="middle" '
                f'font-family="sans-serif">t</text>')
    if ylabel:
        yc = _MARGIN_T + px_h / 2
        tail.append(f'<text x="16" y="{yc:.0f}" font-size="12" '
                    f'text-anchor="middle" font-family="sans-serif" '
                    f'transform="rotate(-90 16 {yc:.0f})">{ylabel}</text>')

    ly = _MARGIN_T + 14
    for i, (_, _, label) in enumerate(curves):
        if not label:
            continue
        color = _COLORS[i % len(_COLORS)]
        lx = _MARGIN_L + px_w - 130
        tail.append(f'<line x1="{lx:.0f}" y1="{ly - 4:.0f}" x2="{lx + 22:.0f}" '
                    f'y2="{ly - 4:.0f}" stroke="{color}" stroke-width="1.4"/>')
        tail.append(f'<text x="{lx + 28:.0f}" y="{ly:.0f}" font-size="11" '
                    f'font-family="sans-serif">{label}</text>')
        ly += 16

    tail.append("</svg>")

    with open(path, "w") as fh:
        fh.write("\n".join(out) + "\n")
        for i, (x, y, _) in enumerate(curves):
            fh.write('<polyline points="')
            sep = ""
            for xc, yc in _drawn(x, y):
                if not xc.size:
                    continue
                # sx, sy on arrays round exactly as on each point; one
                # %-template formats a chunk's points, space-separated
                xy = np.column_stack([sx(xc), sy(yc)])
                fh.write(sep + ("%.2f,%.2f " * len(xy))[:-1]
                         % tuple(xy.ravel().tolist()))
                sep = " "
            color = _COLORS[i % len(_COLORS)]
            fh.write(f'" fill="none" stroke="{color}" stroke-width="1.4"/>\n')
        fh.write("\n".join(tail) + "\n")
