"""SVG rendering of chamber polytopes in the figure style of the taxonomy.

The chamber is drawn with its two walls from the origin, the polytope as a
filled crimson polygon (or thick segment), the anchor points labelled
a, b, c1, c2, c3 (coincident anchors share one merged label), and a small
root legend.  Output is deterministic: fixed float formatting, no timestamps.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

from .moment_map import fixed_point_spectra
from .polytope import ChamberPolytope
from .su3 import Root, chamber_coordinates, to_chamber

_WALL_DIRS = ((0.0, 1.0), (math.cos(math.pi / 6), math.sin(math.pi / 6)))


def _fmt(x: float) -> str:
    return f"{x:.4f}"


class _Canvas:
    def __init__(self, width: int, height: int):
        self.width = width
        self.height = height
        self.lines: List[str] = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">',
            "<style>text { font-family: serif; font-style: italic; font-size: 14px; }</style>",
            f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        ]

    def add(self, element: str):
        self.lines.append(element)

    def finish(self) -> str:
        return "\n".join(self.lines + ["</svg>"]) + "\n"


def _transform(points: Sequence[Tuple[float, float]], width: int, height: int, margin: float):
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    span_x = max(xs) - min(xs) or 1.0
    span_y = max(ys) - min(ys) or 1.0
    scale = min((width - 2 * margin) / span_x, (height - 2 * margin) / span_y)
    x0, y1 = min(xs), max(ys)

    def tr(p: Tuple[float, float]) -> Tuple[float, float]:
        return (margin + (p[0] - x0) * scale, margin + (y1 - p[1]) * scale)

    return tr, scale


def render_svg(
    polytope: ChamberPolytope,
    weights=None,
    samples=None,
    width: int = 480,
    height: int = 480,
    max_samples: int = 2000,
) -> str:
    """Render a chamber polytope (plus optional sample cloud) as SVG text.

    ``weights``, when given, label the anchor points; weights that
    :func:`moment_map.fixed_point_spectra` refuses raise its error."""
    pts = [(c.p, c.q) for c in polytope.pq_vertices()]
    anchors = _anchor_points(weights)
    frame = pts + [(0.0, 0.0)] + list(anchors.values())
    reach = max(max(abs(x) for x, _ in frame), max(abs(y) for _, y in frame), 1.0)
    frame += [(d[0] * reach * 1.25, d[1] * reach * 1.25) for d in _WALL_DIRS]
    tr, scale = _transform(frame, width, height, margin=42.0)

    cv = _Canvas(width, height)
    origin = tr((0.0, 0.0))
    for d in _WALL_DIRS:
        end = tr((d[0] * reach * 1.25, d[1] * reach * 1.25))
        cv.add(
            f'<line x1="{_fmt(origin[0])}" y1="{_fmt(origin[1])}" x2="{_fmt(end[0])}" '
            f'y2="{_fmt(end[1])}" stroke="steelblue" stroke-width="1.2"/>'
        )

    if samples is not None and len(samples):
        step = max(1, len(samples) // max_samples)
        for row in samples[::step]:
            x, y = tr((float(row[0]), float(row[1])))
            cv.add(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="1" fill="#999999"/>')

    if polytope.kind == "Polygon":
        path = " ".join(f"{_fmt(tr(p)[0])},{_fmt(tr(p)[1])}" for p in pts)
        cv.add(f'<polygon points="{path}" fill="crimson" fill-opacity="0.75" stroke="black" stroke-width="1.6"/>')
    elif polytope.kind == "Segment":
        (x1, y1), (x2, y2) = tr(pts[0]), tr(pts[1])
        cv.add(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="crimson" stroke-width="3.5"/>'
        )
    else:
        x, y = tr(pts[0])
        cv.add(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="4" fill="crimson"/>')

    for name, pq in anchors.items():
        x, y = tr(pq)
        cv.add(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="2.4" fill="black"/>')
        cv.add(f'<text x="{_fmt(x + 6)}" y="{_fmt(y - 5)}">{name}</text>')

    _root_legend(cv, width, height, scale)
    if polytope.label:
        star = "*" if polytope.starred else ""
        cv.add(f'<text x="12" y="20">type {polytope.label}{star}</text>')
    return cv.finish()


def _anchor_points(weights) -> Dict[str, Tuple[float, float]]:
    """Each anchor point of the weights by its label, coincident anchors under one merged label."""
    if weights is None:
        return {}
    grouped: Dict[Tuple[float, float], List[str]] = {}
    for name, spec in fixed_point_spectra(weights).items():
        c = to_chamber(spec)
        grouped.setdefault((round(c.p, 9), round(c.q, 9)), []).append(name)
    return {"=".join(sorted(names)): key for key, names in grouped.items()}


def _root_legend(cv: _Canvas, width: int, height: int, scale: float):
    cx, cy, r = width - 58.0, height - 52.0, 26.0
    for root in Root:
        c = chamber_coordinates(*root.vector)
        norm = math.hypot(c[0], c[1])
        ex, ey = cx + r * c[0] / norm, cy - r * c[1] / norm
        cv.add(
            f'<line x1="{_fmt(cx)}" y1="{_fmt(cy)}" x2="{_fmt(ex)}" y2="{_fmt(ey)}" '
            f'stroke="steelblue" stroke-width="1" stroke-dasharray="3 2"/>'
        )
        cv.add(f'<text x="{_fmt(ex + 2)}" y="{_fmt(ey)}" font-size="10">{root.label}</text>')
