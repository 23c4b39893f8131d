"""Minimal self-contained SVG line plots.

Renders to a string; callers decide where it goes. Deliberately small: box
axes, nice-number ticks, optional log scales, a legend, nothing else. Enough
to eyeball a trace without pulling in a plotting stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from html import escape

import numpy as np

__all__ = ["PlotSeries", "render_line_plot"]

_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd",
            "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f"]


@dataclass
class PlotSeries:
    label: str
    x: np.ndarray
    y: np.ndarray
    dash: str | None = None      # e.g. "6,3" for dashed


def _nice_ticks(lo: float, hi: float, target: int = 5):
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return []
    if hi <= lo:
        pad = max(abs(lo), 1.0) * 0.1
        lo, hi = lo - pad, hi + pad
    raw = (hi - lo) / target
    mag = 10.0 ** math.floor(math.log10(raw))
    step = 10.0 * mag
    for m in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= m * mag:
            step = m * mag
            break
    first = math.ceil(lo / step - 1e-9) * step
    ticks = []
    v = first
    while v <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(v) < 1e-12 * step else v)
        v += step
    return ticks


def _log_ticks(lo: float, hi: float):
    lo_d = math.floor(math.log10(lo))
    hi_d = math.ceil(math.log10(hi))
    return [10.0 ** d for d in range(lo_d, hi_d + 1)
            if lo / 1.0001 <= 10.0 ** d <= hi * 1.0001]


def _fmt_tick(v: float) -> str:
    if v != 0 and (abs(v) >= 1e4 or abs(v) < 1e-3):
        return f"{v:.0e}"
    return f"{v:g}"


def render_line_plot(series, title: str, xlabel: str, ylabel: str, *,
                     logx: bool = False, logy: bool = False) -> str:
    """Render the series list into a 720 x 480 SVG document string."""
    width, height = 720, 480
    ml, mr, mt, mb = 64, 16, 36, 48
    pw, ph = width - ml - mr, height - mt - mb

    def finite_vals(get, log):
        vals = []
        for s in series:
            v = np.asarray(get(s), dtype=float)
            v = v[np.isfinite(v)]
            if log:
                v = v[v > 0]
            vals.append(v)
        allv = np.concatenate(vals) if vals else np.empty(0)
        if len(allv) == 0:
            return 0.0, 1.0
        lo, hi = float(np.min(allv)), float(np.max(allv))
        if lo == hi:
            pad = max(abs(lo), 1.0) * 0.1
            return lo - pad, hi + pad
        if not log:
            pad = 0.04 * (hi - lo)
            return lo - pad, hi + pad
        return lo / 1.3, hi * 1.3

    xlo, xhi = finite_vals(lambda s: s.x, logx)
    ylo, yhi = finite_vals(lambda s: s.y, logy)

    def sx(x):
        f = ((math.log10(x) - math.log10(xlo)) / (math.log10(xhi) - math.log10(xlo))
             if logx else (x - xlo) / (xhi - xlo))
        return ml + f * pw

    def sy(y):
        f = ((math.log10(y) - math.log10(ylo)) / (math.log10(yhi) - math.log10(ylo))
             if logy else (y - ylo) / (yhi - ylo))
        return mt + (1.0 - f) * ph

    xticks = _log_ticks(xlo, xhi) if logx else _nice_ticks(xlo, xhi)
    yticks = _log_ticks(ylo, yhi) if logy else _nice_ticks(ylo, yhi)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.0f}" y="22" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{escape(title, quote=False)}</text>',
    ]
    for v in xticks:
        px = sx(v)
        out.append(f'<line x1="{px:.1f}" y1="{mt}" x2="{px:.1f}" y2="{mt + ph}" '
                   f'stroke="#e0e0e0" stroke-width="1"/>')
        out.append(f'<text x="{px:.1f}" y="{mt + ph + 18}" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="11">{_fmt_tick(v)}</text>')
    for v in yticks:
        py = sy(v)
        out.append(f'<line x1="{ml}" y1="{py:.1f}" x2="{ml + pw}" y2="{py:.1f}" '
                   f'stroke="#e0e0e0" stroke-width="1"/>')
        out.append(f'<text x="{ml - 6}" y="{py + 4:.1f}" text-anchor="end" '
                   f'font-family="sans-serif" font-size="11">{_fmt_tick(v)}</text>')
    out.append(f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" '
               f'fill="none" stroke="black" stroke-width="1"/>')
    out.append(f'<text x="{ml + pw / 2:.0f}" y="{height - 10}" text-anchor="middle" '
               f'font-family="sans-serif" font-size="13">{escape(xlabel, quote=False)}</text>')
    out.append(f'<text x="16" y="{mt + ph / 2:.0f}" text-anchor="middle" '
               f'font-family="sans-serif" font-size="13" '
               f'transform="rotate(-90 16 {mt + ph / 2:.0f})">{escape(ylabel, quote=False)}</text>')

    for idx, s in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        x = np.asarray(s.x, dtype=float)
        y = np.asarray(s.y, dtype=float)
        ok = np.isfinite(x) & np.isfinite(y)
        if logx:
            ok &= x > 0
        if logy:
            ok &= y > 0
        parts, pen_down = [], False
        for good, xv, yv in zip(ok, x, y):
            if not good:
                pen_down = False
                continue
            cmd = "L" if pen_down else "M"
            parts.append(f"{cmd}{sx(xv):.2f} {sy(yv):.2f}")
            pen_down = True
        dash = f' stroke-dasharray="{s.dash}"' if s.dash else ""
        if parts:
            out.append(f'<path d="{" ".join(parts)}" fill="none" stroke="{color}" '
                       f'stroke-width="1.6"{dash}/>')
        ly = mt + 16 + 16 * idx
        out.append(f'<line x1="{ml + pw - 150}" y1="{ly - 4}" x2="{ml + pw - 122}" '
                   f'y2="{ly - 4}" stroke="{color}" stroke-width="1.6"{dash}/>')
        out.append(f'<text x="{ml + pw - 116}" y="{ly}" font-family="sans-serif" '
                   f'font-size="11">{escape(s.label, quote=False)}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
