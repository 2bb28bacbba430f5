"""Deterministic SVG line plots of series columns.

Hand-rolled on purpose: the output must be byte-identical across reruns,
so no plotting library (whose SVG embeds generated ids) is involved.  All
coordinates are formatted with fixed precision.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .runio import atomic_write_text, read_series_csv, require_column

__all__ = ["emit_plot"]

_W, _H = 720, 440
_ML, _MR, _MT, _MB = 72, 16, 28, 48
_PW = _W - _ML - _MR  # pixel columns of the plot area


def _ticks(lo: float, hi: float, count: int = 6) -> np.ndarray:
    if hi <= lo:
        hi = lo + 1.0
    return np.linspace(lo, hi, count)


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _m4_rows(t: np.ndarray, y: np.ndarray, tlo: float, thi: float) -> np.ndarray:
    """Mask of the rows the polyline needs at the plot's resolution.

    M4 aggregation (Jugel et al., PVLDB 7(10), 2014): of the rows that fall
    into one pixel column keep the first, the last and one each with the
    least and the greatest y, so at most 4 per column are drawn and the
    rasterized line is that of all rows.
    """
    col = np.minimum(((t - tlo) / (thi - tlo) * _PW).astype(np.int64), _PW - 1)
    order = np.lexsort((y, col))  # by column, then by y, ties in row order
    starts = np.flatnonzero(np.diff(col[order], prepend=-1))
    ends = np.append(starts[1:], len(order)) - 1
    keep = np.zeros(len(t), dtype=bool)
    for rows in (np.minimum.reduceat(order, starts), np.maximum.reduceat(order, starts),
                 order[starts], order[ends]):
        keep[rows] = True
    return keep


def emit_plot(series_path: str | Path, column: str, out_path: str | Path) -> None:
    """Plot `column` against t from a series.csv file as a standalone SVG."""
    cols = read_series_csv(series_path)
    t = require_column(cols, "t", str(series_path))
    y = require_column(cols, column, str(series_path))

    tlo, thi = float(np.min(t)), float(np.max(t))
    ylo, yhi = float(np.min(y)), float(np.max(y))
    if thi <= tlo:
        thi = tlo + 1.0
    if yhi <= ylo:
        ylo, yhi = ylo - 1.0, yhi + 1.0
    pad = 0.05 * (yhi - ylo)
    ylo, yhi = ylo - pad, yhi + pad

    # both maps take a tick value or a whole column
    def px(tv):
        return _ML + (tv - tlo) / (thi - tlo) * _PW

    def py(yv):
        return _H - _MB - (yv - ylo) / (yhi - ylo) * (_H - _MT - _MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_ML}" y="18" font-family="monospace" font-size="13">'
        f"{column} vs t</text>",
    ]
    for tv in _ticks(tlo, thi):
        x = px(tv)
        parts.append(
            f'<line x1="{x:.2f}" y1="{_H - _MB}" x2="{x:.2f}" y2="{_H - _MB + 5}" '
            f'stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{_H - _MB + 18}" font-family="monospace" '
            f'font-size="11" text-anchor="middle">{_fmt(tv)}</text>'
        )
    for yv in _ticks(ylo, yhi):
        yy = py(yv)
        parts.append(
            f'<line x1="{_ML - 5}" y1="{yy:.2f}" x2="{_ML}" y2="{yy:.2f}" '
            f'stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_ML - 8}" y="{yy + 4:.2f}" font-family="monospace" '
            f'font-size="11" text-anchor="end">{_fmt(yv)}</text>'
        )
    parts.append(
        f'<rect x="{_ML}" y="{_MT}" width="{_PW}" height="{_H - _MT - _MB}" '
        f'fill="none" stroke="black" stroke-width="1"/>'
    )
    keep = _m4_rows(t, y, tlo, thi)
    pts = " ".join(f"{tx:.2f},{ty:.2f}"
                   for tx, ty in zip(px(t[keep]).tolist(), py(y[keep]).tolist()))
    parts.append(
        f'<polyline points="{pts}" fill="none" stroke="#1f6fb2" stroke-width="1.3"/>'
    )
    parts.append(
        f'<text x="{(_ML + _W - _MR) // 2}" y="{_H - 10}" font-family="monospace" '
        f'font-size="12" text-anchor="middle">t</text>'
    )
    parts.append("</svg>")
    atomic_write_text(out_path, "\n".join(parts) + "\n")
