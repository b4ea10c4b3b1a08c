"""Minimal self-contained SVG line plots.

Only what the command-line reports need: one panel, several labeled curves,
linear or logarithmic y axis.  No drawing dependencies; the output is plain
SVG 1.1 text, deterministic for identical input.
"""

from __future__ import annotations

import numpy as np

WIDTH, HEIGHT = 660, 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 78, 18, 40, 52
PALETTE = ["#1f77b4", "#2ca02c", "#d62728", "#9467bd", "#ff7f0e"]
DASHES = ["", "7,4", "2,3", "9,3,2,3"]
LOG_DISPLAY_DECADES = 16


def _escape(text: str) -> str:
    return (str(text).replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))


def _nice_step(span: float, target: int) -> float:
    raw = span / max(target, 1)
    mag = 10.0 ** np.floor(np.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if mult * mag >= raw:
            return mult * mag
    return 10.0 * mag


def _linear_ticks(lo: float, hi: float, target: int = 6):
    if hi <= lo:
        hi = lo + 1.0
    step = _nice_step(hi - lo, target)
    first = np.ceil(lo / step) * step
    ticks = np.arange(first, hi + 0.5 * step, step)
    return [float(t) for t in ticks if lo - 1e-9 * step <= t <= hi + 1e-9 * step]


def _fmt(v: float) -> str:
    if v == 0.0:
        return "0"
    if abs(v) >= 1e4 or abs(v) < 1e-3:
        return f"{v:.0e}".replace("e-0", "e-").replace("e+0", "e")
    return f"{v:g}"


class _Frame:
    """Maps data coordinates to pixel coordinates for one panel."""

    def __init__(self, xlo, xhi, ylo, yhi, log_y):
        self.xlo, self.xhi = xlo, xhi
        self.ylo, self.yhi = ylo, yhi
        self.log_y = log_y

    def px(self, x):
        t = (x - self.xlo) / (self.xhi - self.xlo)
        return MARGIN_L + t * (WIDTH - MARGIN_L - MARGIN_R)

    def py(self, y):
        if self.log_y:
            t = (np.log10(y) - np.log10(self.ylo)) / (
                np.log10(self.yhi) - np.log10(self.ylo))
        else:
            t = (y - self.ylo) / (self.yhi - self.ylo)
        return HEIGHT - MARGIN_B - t * (HEIGHT - MARGIN_T - MARGIN_B)


def _y_range(curves, log_y):
    allvals = np.concatenate([np.asarray(y, dtype=float).ravel() for _, y in curves])
    finite = allvals[np.isfinite(allvals)]
    if log_y:
        pos = finite[finite > 0.0]
        if pos.size == 0:
            return 1e-16, 1.0
        hi = float(pos.max())
        lo = float(max(pos.min(), hi * 10.0 ** (-LOG_DISPLAY_DECADES)))
        return lo, hi * 1.5
    if finite.size == 0:
        return 0.0, 1.0
    lo, hi = float(finite.min()), float(finite.max())
    if hi == lo:
        hi = lo + 1.0
    pad = 0.05 * (hi - lo)
    return min(lo, 0.0) if lo >= 0.0 else lo - pad, hi + pad


def _points(px, py) -> str:
    """Polyline points ``"x,y x,y ..."`` with two decimals per coordinate,
    formatted in one pass over the interleaved coordinates."""
    xy = np.column_stack((px, py)).ravel().tolist()
    return " ".join(["%.2f,%.2f"] * len(px)) % tuple(xy)


def line_plot(path, x, curves, title="", xlabel="", ylabel="", log_y=False):
    """Write an SVG panel of the curves against x.

    ``curves`` is a sequence of (label, values) pairs, each as long as x.
    On a log axis, values more than 16 decades below the panel maximum (or
    nonpositive) are clipped to the display floor; non-finite values are
    left out of the polyline.
    """
    x = np.asarray(x, dtype=float)
    curves = [(label, np.asarray(y, dtype=float)) for label, y in curves]
    for label, y in curves:
        if y.shape != x.shape:
            raise ValueError(f"curve {label!r} has shape {y.shape}, "
                             f"x has shape {x.shape}")
    frame = _Frame(float(x.min()), float(x.max()), *_y_range(curves, log_y), log_y)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]

    if log_y:
        e_lo = int(np.ceil(np.log10(frame.ylo)))
        e_hi = int(np.floor(np.log10(frame.yhi)))
        step = max(1, (e_hi - e_lo) // 8)
        yticks = [10.0 ** e for e in range(e_lo, e_hi + 1, step)]
        ylab = [f"1e{e}" for e in range(e_lo, e_hi + 1, step)]
    else:
        yticks = _linear_ticks(frame.ylo, frame.yhi)
        ylab = [_fmt(t) for t in yticks]
    xticks = _linear_ticks(frame.xlo, frame.xhi)

    for t in xticks:
        px = frame.px(t)
        parts.append(f'<line x1="{px:.2f}" y1="{MARGIN_T}" x2="{px:.2f}" '
                     f'y2="{HEIGHT - MARGIN_B}" stroke="#e0e0e0" stroke-width="1"/>')
    for t, lab in zip(yticks, ylab):
        py = frame.py(t)
        parts.append(f'<line x1="{MARGIN_L}" y1="{py:.2f}" x2="{WIDTH - MARGIN_R}" '
                     f'y2="{py:.2f}" stroke="#e0e0e0" stroke-width="1"/>')
        parts.append(f'<text x="{MARGIN_L - 6}" y="{py + 4:.2f}" font-size="11" '
                     f'font-family="sans-serif" text-anchor="end">{_escape(lab)}</text>')
    for t in xticks:
        px = frame.px(t)
        parts.append(f'<text x="{px:.2f}" y="{HEIGHT - MARGIN_B + 16}" font-size="11" '
                     f'font-family="sans-serif" text-anchor="middle">{_escape(_fmt(t))}</text>')

    for i, (label, y) in enumerate(curves):
        color = PALETTE[i % len(PALETTE)]
        dash = DASHES[i % len(DASHES)]
        if log_y:
            floor = frame.ylo
            y = np.where(np.isfinite(y) & (y > 0.0), np.maximum(y, floor), floor)
        keep = np.isfinite(y)
        pts = _points(frame.px(x[keep]), frame.py(y[keep]))
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.6"{dash_attr}/>')
        lx = WIDTH - MARGIN_R - 150
        ly = MARGIN_T + 16 + 16 * i
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 24}" y2="{ly - 4}" '
                     f'stroke="{color}" stroke-width="1.6"{dash_attr}/>')
        parts.append(f'<text x="{lx + 30}" y="{ly}" font-size="12" '
                     f'font-family="sans-serif">{_escape(label)}</text>')

    parts.append(f'<rect x="{MARGIN_L}" y="{MARGIN_T}" '
                 f'width="{WIDTH - MARGIN_L - MARGIN_R}" '
                 f'height="{HEIGHT - MARGIN_T - MARGIN_B}" fill="none" '
                 f'stroke="#333" stroke-width="1"/>')
    if title:
        parts.append(f'<text x="{WIDTH / 2:.0f}" y="{MARGIN_T - 12}" font-size="14" '
                     f'font-family="sans-serif" text-anchor="middle">{_escape(title)}</text>')
    if xlabel:
        parts.append(f'<text x="{(MARGIN_L + WIDTH - MARGIN_R) / 2:.0f}" '
                     f'y="{HEIGHT - 12}" font-size="12" font-family="sans-serif" '
                     f'text-anchor="middle">{_escape(xlabel)}</text>')
    if ylabel:
        cy = (MARGIN_T + HEIGHT - MARGIN_B) / 2
        parts.append(f'<text x="18" y="{cy:.0f}" font-size="12" '
                     f'font-family="sans-serif" text-anchor="middle" '
                     f'transform="rotate(-90 18 {cy:.0f})">{_escape(ylabel)}</text>')
    parts.append("</svg>")

    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
