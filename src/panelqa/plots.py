"""Tiny dependency-free SVG emitters: line plots, scatter plots, heat maps."""
from __future__ import annotations

import numpy as np

from .data import atomic_write


def _write_svg(path, width, height, body):
    with atomic_write(path) as fh:
        fh.write(f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
                 f'height="{height}" viewBox="0 0 {width} {height}">\n'
                 f'<rect width="{width}" height="{height}" fill="white"/>\n'
                 + body + "</svg>\n")


def _scale(values, lo_px, hi_px):
    v = np.asarray(values, dtype=np.float64)
    lo, hi = float(v.min()), float(v.max())
    if hi == lo:
        hi = lo + 1.0
    return lo_px + (v - lo) / (hi - lo) * (hi_px - lo_px)


def svg_line(path: str, ys, title: str) -> None:
    width, height = 640, 360
    ys = np.asarray(ys, dtype=np.float64)
    px = _scale(np.arange(len(ys)), 40, width - 10)
    py = _scale(ys, height - 30, 10)  # y grows downward in SVG
    pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(px, py))
    body = (f'<polyline points="{pts}" fill="none" stroke="steelblue" '
            f'stroke-width="1.5"/>\n'
            f'<text x="10" y="{height - 8}" font-size="12">{title}</text>\n')
    _write_svg(path, width, height, body)


def svg_scatter(path: str, xs, ys, title: str) -> None:
    size = 480
    px = _scale(xs, 40, size - 10)
    py = _scale(ys, size - 30, 10)
    body = "".join(
        f'<circle cx="{x:.2f}" cy="{y:.2f}" r="2.5" fill="steelblue" '
        f'fill-opacity="0.6"/>\n' for x, y in zip(px, py))
    body += f'<text x="10" y="{size - 8}" font-size="12">{title}</text>\n'
    _write_svg(path, size, size, body)


def svg_heatmap(path: str, matrix, title: str) -> None:
    m = np.asarray(matrix, dtype=np.float64)
    h, w = m.shape
    cell = max(2, min(24, 480 // max(h, w)))
    lo, hi = float(m.min()), float(m.max())
    span = hi - lo if hi > lo else 1.0
    body = ""
    for i in range(h):
        for j in range(w):
            t = (m[i, j] - lo) / span
            r, g, b = int(255 * t), int(64 + 128 * (1 - t)), int(255 * (1 - t))
            body += (f'<rect x="{j * cell}" y="{i * cell}" width="{cell}" '
                     f'height="{cell}" fill="rgb({r},{g},{b})"/>\n')
    height = h * cell + 18
    body += f'<text x="2" y="{height - 4}" font-size="12">{title}</text>\n'
    _write_svg(path, w * cell, height, body)
