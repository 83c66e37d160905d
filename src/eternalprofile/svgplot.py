"""Minimal deterministic SVG line charts.

Charts are built directly as SVG paths with fixed-format coordinates
and carry no timestamps or generator metadata, so the same data always
yields the same bytes.  Titles and labels are XML-escaped, and the file
is written as UTF-8.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import List, Sequence, Tuple

import numpy as np

from .errors import PlotError

WIDTH = 640
HEIGHT = 420
MARGIN_L = 62
MARGIN_R = 18
MARGIN_T = 34
MARGIN_B = 48

PALETTE = ("#1f6fb4", "#d45500", "#2e8540", "#8031a7", "#b00020")


def _escape(text: str) -> str:
    """XML-escape chart text; ``&`` first, so no entity is escaped twice."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _ticks(lo: float, hi: float, n: int = 5) -> List[float]:
    """Round tick positions covering [lo, hi]."""
    if hi <= lo:
        return [lo]
    span = hi - lo
    step = 10.0 ** math.floor(math.log10(span / n))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if span / (step * mult) <= n:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-12 * span:
        ticks.append(0.0 if abs(t) < 1e-12 * span else t)
        t += step
    return ticks


def _tick_label(v: float) -> str:
    if v == 0:
        return "0"
    if abs(v) >= 1e4 or abs(v) < 1e-3:
        return f"{v:.1e}"
    return f"{v:.4g}"


def line_chart(
    series: Sequence[Tuple[str, np.ndarray, np.ndarray]],
    path,
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    logy: bool = False,
) -> None:
    """Write a line chart of the given (label, x, y) series to ``path``.

    Raises PlotError when no series has a finite point to draw.
    """
    finite = []
    for label, x, y in series:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if logy:
            keep = y > 0
            x, y = x[keep], np.log10(y[keep])
        keep = np.isfinite(x) & np.isfinite(y)
        finite.append((label, x[keep], y[keep]))
    if not any(len(s[1]) for s in finite):
        raise PlotError(f"no finite data to draw in {Path(path).name}")
    xs = np.concatenate([s[1] for s in finite if len(s[1])])
    ys = np.concatenate([s[2] for s in finite if len(s[2])])
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(ys.min()), float(ys.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(v: float) -> float:
        return MARGIN_L + (v - x_lo) / (x_hi - x_lo) * plot_w

    def py(v: float) -> float:
        return MARGIN_T + (y_hi - v) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" '
        f'height="{plot_h}" fill="none" stroke="#444" stroke-width="1"/>',
    ]
    for t in _ticks(x_lo, x_hi):
        X = _fmt(px(t))
        parts.append(
            f'<line x1="{X}" y1="{MARGIN_T + plot_h}" x2="{X}" '
            f'y2="{MARGIN_T + plot_h + 5}" stroke="#444"/>'
        )
        parts.append(
            f'<text x="{X}" y="{MARGIN_T + plot_h + 18}" font-size="11" '
            f'text-anchor="middle" font-family="sans-serif">{_tick_label(t)}</text>'
        )
    for t in _ticks(y_lo, y_hi):
        Y = _fmt(py(t))
        parts.append(
            f'<line x1="{MARGIN_L - 5}" y1="{Y}" x2="{MARGIN_L}" '
            f'y2="{Y}" stroke="#444"/>'
        )
        label = _tick_label(t) if not logy else f"1e{_tick_label(t)}"
        parts.append(
            f'<text x="{MARGIN_L - 8}" y="{Y}" font-size="11" '
            f'text-anchor="end" dominant-baseline="middle" '
            f'font-family="sans-serif">{label}</text>'
        )
    for i, (label, x, y) in enumerate(finite):
        if not len(x):
            continue
        color = PALETTE[i % len(PALETTE)]
        points = " ".join(f"{_fmt(px(a))},{_fmt(py(b))}" for a, b in zip(x, y))
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"/>'
        )
        ly = MARGIN_T + 14 + 14 * i
        parts.append(
            f'<line x1="{WIDTH - 150}" y1="{ly - 4}" x2="{WIDTH - 130}" '
            f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{WIDTH - 125}" y="{ly}" font-size="11" '
            f'font-family="sans-serif">{_escape(label)}</text>'
        )
    if title:
        parts.append(
            f'<text x="{WIDTH / 2:.0f}" y="20" font-size="14" '
            f'text-anchor="middle" font-family="sans-serif">{_escape(title)}</text>'
        )
    if xlabel:
        parts.append(
            f'<text x="{MARGIN_L + plot_w / 2:.0f}" y="{HEIGHT - 10}" '
            f'font-size="12" text-anchor="middle" '
            f'font-family="sans-serif">{_escape(xlabel)}</text>'
        )
    if ylabel:
        parts.append(
            f'<text x="16" y="{MARGIN_T + plot_h / 2:.0f}" font-size="12" '
            f'text-anchor="middle" font-family="sans-serif" '
            f'transform="rotate(-90 16 {MARGIN_T + plot_h / 2:.0f})">{_escape(ylabel)}</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")
