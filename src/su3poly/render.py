"""SVG rendering of chamber polytopes in the figure style of the taxonomy.

The chamber is drawn with its two walls from the origin, the polytope as a
filled crimson polygon (or thick segment), the anchor points labelled
a, b, c1, c2, c3 (coincident anchors share one merged label), and a small
root legend.  Output is deterministic: fixed float formatting, no timestamps.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from .moment_map import as_gammas, fixed_point_spectra, tripled_fixed_point_diagonals
from .polytope import ChamberPolytope, _over_power, _own_exponent
from .su3 import Root, chamber_coordinates, snap_weights

_WALL_DIRS = ((0.0, 1.0), (math.cos(math.pi / 6), math.sin(math.pi / 6)))


def _fmt(x: float) -> str:
    return f"{x:.4f}"


def _line(a: Tuple[float, float], b: Tuple[float, float], style: str) -> str:
    return f'<line x1="{_fmt(a[0])}" y1="{_fmt(a[1])}" x2="{_fmt(b[0])}" y2="{_fmt(b[1])}" {style}/>'


#: The canvas, in pixels, and the margin round the figure.
_SIZE = 480
_MARGIN = 42.0


def render_svg(polytope: ChamberPolytope, weights=None) -> str:
    """Render a chamber polytope as SVG text on a 480 x 480 canvas.

    ``weights``, when given, label the anchor points; weights that
    :func:`moment_map.fixed_point_spectra` refuses raise its error.  The
    figure is scale-free: the weights t * w draw the bytes of w for any power
    of two t, every point being drawn over the polytope's own power of two
    (:attr:`ChamberPolytope._own_scale`)."""
    e, pts = _own_exponent(polytope, "polytope"), polytope._own_scale[1]
    anchors = _anchor_points(weights, e)
    frame = pts + [(0.0, 0.0)] + list(anchors.values())
    reach = max(max(abs(x) for x, _ in frame), max(abs(y) for _, y in frame)) or 1.0
    walls = [(d[0] * reach * 1.25, d[1] * reach * 1.25) for d in _WALL_DIRS]
    xs, ys = [x for x, _ in frame + walls], [y for _, y in frame + walls]
    # the wall along q has length 1.25 * reach > 0, so no span is 0
    scale = (_SIZE - 2 * _MARGIN) / max(max(xs) - min(xs), max(ys) - min(ys))
    left, top = min(xs), max(ys)

    def tr(p: Tuple[float, float]) -> Tuple[float, float]:
        return (_MARGIN + (p[0] - left) * scale, _MARGIN + (top - p[1]) * scale)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" height="{_SIZE}" viewBox="0 0 {_SIZE} {_SIZE}">',
        "<style>text { font-family: serif; font-style: italic; font-size: 14px; }</style>",
        f'<rect x="0" y="0" width="{_SIZE}" height="{_SIZE}" fill="white"/>',
    ]
    out += [_line(tr((0.0, 0.0)), tr(wall), 'stroke="steelblue" stroke-width="1.2"') for wall in walls]

    if polytope.kind == "Polygon":
        path = " ".join(f"{_fmt(tr(p)[0])},{_fmt(tr(p)[1])}" for p in pts)
        out.append(f'<polygon points="{path}" fill="crimson" fill-opacity="0.75" stroke="black" stroke-width="1.6"/>')
    elif polytope.kind == "Segment":
        out.append(_line(tr(pts[0]), tr(pts[1]), 'stroke="crimson" stroke-width="3.5"'))
    else:
        x, y = tr(pts[0])
        out.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="4" fill="crimson"/>')

    for name, pq in anchors.items():
        x, y = tr(pq)
        out.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="2.4" fill="black"/>')
        out.append(f'<text x="{_fmt(x + 6)}" y="{_fmt(y - 5)}">{name}</text>')

    # the root legend
    cx, cy, r = _SIZE - 58.0, _SIZE - 52.0, 26.0
    for root in Root:
        c = chamber_coordinates(*root.vector)
        norm = math.hypot(c[0], c[1])
        ex, ey = cx + r * c[0] / norm, cy - r * c[1] / norm
        out.append(_line((cx, cy), (ex, ey), 'stroke="steelblue" stroke-width="1" stroke-dasharray="3 2"'))
        out.append(f'<text x="{_fmt(ex + 2)}" y="{_fmt(ey)}" font-size="10">{root.label}</text>')

    if polytope.label:
        star = "*" if polytope.starred else ""
        out.append(f'<text x="12" y="20">type {polytope.label}{star}</text>')
    return "\n".join(out + ["</svg>"]) + "\n"


def _anchor_points(weights, e: int) -> Dict[str, Tuple[float, float]]:
    """Each anchor point of the weights by its label, coincident anchors
    under one merged label: the anchors whose tripled diagonals
    (:func:`moment_map.tripled_fixed_point_diagonals`) of the snapped
    weights are equal, at the chamber point of the first one's spectrum over 2**e."""
    if weights is None:
        return {}
    spectra = fixed_point_spectra(weights)
    grouped: Dict[tuple, List[str]] = {}
    for name, (entries, _) in tripled_fixed_point_diagonals(snap_weights(as_gammas(weights), 1e-9)[0]).items():
        grouped.setdefault(entries, []).append(name)
    return {"=".join(sorted(names)): chamber_coordinates(*(_over_power(x, e) for x in spectra[names[0]])) for names in grouped.values()}

