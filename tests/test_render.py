import hashlib
import re
from fractions import Fraction as F

import pytest

from su3poly.moment_map import InvalidWeight, LengthMismatch
from su3poly.polytope import NotAPolytope, build_polytope, build_polytope_n2, build_polytope_n3, point_polytope
from su3poly.render import render_svg
from su3poly.su3 import Spectrum


#: sha256 of the SVG text of the polytope of each weight of
#: ``SVG_DIGEST_WEIGHTS`` labelled by its anchors, then of one point with no
#: weights: a polygon, merged anchors c1=c2=c3, a starred type, a segment,
#: rational and float weights.  (0.7, 0.35, -0.35), whose figure lies within
#: 1 of the origin, is drawn at its own scale, with no floor of 1.
SVG_DIGEST = "3e253591dd4303fe9f9ba2991110cbf482f1114adff56b6bd8bad185dbcbc3c9"
SVG_DIGEST_WEIGHTS = [(4, 2, -1), (1, 1, 1), (-4, -2, 1), (2, 1), (F(4, 3), 2, -1), (0.7, 0.35, -0.35)]


class TestRenderSvg:
    def test_outputs_match_the_pinned_digest(self):
        h = hashlib.sha256()
        for w in SVG_DIGEST_WEIGHTS:
            h.update(render_svg(build_polytope(w), weights=w).encode())
        h.update(render_svg(point_polytope(Spectrum(2, -1, -1))).encode())
        assert h.hexdigest() == SVG_DIGEST

    def test_polygon_with_anchor_labels(self):
        svg = render_svg(build_polytope_n3((4, 2, -1)), weights=(4, 2, -1))
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
        assert "polygon" in svg and "type C" in svg
        for name in ("a", "b", "c1", "c2", "c3"):
            assert f">{name}<" in svg or name in svg

    def test_merged_anchor_labels(self):
        svg = render_svg(build_polytope_n3((1, 1, 1)), weights=(1, 1, 1))
        assert "c1=c2=c3" in svg

    @pytest.mark.parametrize("k", [-1000, -40, -3, 3, 40, 1000, 1300])
    @pytest.mark.parametrize("w", [(4, 2, -1), (0.7, 0.35, -0.35)], ids=str)
    def test_scaled_weights_draw_the_same_figure(self, w, k):
        # P(t w) = t P(w): anchors once merged when they rounded to the same
        # 9 decimals, and the figure had a floor of 1; exact weights past
        # float range once raised an OverflowError
        tw = tuple(2.0**k * g if abs(k) < 1000 else F(2) ** k * F(g) for g in w)
        for weights in (tw, None):
            svg = render_svg(build_polytope(tw), weights=weights)
            assert svg == render_svg(build_polytope(w), weights=None if weights is None else w)
            assert "nan" not in svg and "inf" not in svg

    def test_tiny_weights_keep_their_anchors_apart(self):
        # (4e-10, 2e-10, -1e-10) once drew one label a=b=c1=c2=c3 at the origin
        svg = render_svg(build_polytope((4e-10, 2e-10, -1e-10)), weights=(4e-10, 2e-10, -1e-10))
        assert all(f">{name}<" in svg for name in ("a", "b", "c1", "c2", "c3"))

    def test_segment_and_point(self):
        seg = render_svg(build_polytope_n2((2, 1)), weights=(2, 1))
        assert 'stroke="crimson"' in seg
        pt = render_svg(point_polytope(Spectrum(2, -1, -1)))
        assert "circle" in pt

    @pytest.mark.parametrize("weights, error", [((float("nan"), 1, 2), InvalidWeight), ((True, 1, 2), InvalidWeight), ((4, 2, -1, 1), LengthMismatch)])
    def test_bad_weights_are_refused_not_dropped(self, weights, error):
        with pytest.raises(error, match="weight 0 " if error is InvalidWeight else "got 4"):
            render_svg(build_polytope_n3((4, 2, -1)), weights=weights)

    @pytest.mark.parametrize("operand", [None, (1, 2, 3)], ids=repr)
    def test_operand_that_is_no_polytope_is_named(self, operand):
        # each once raised a bare AttributeError on '_own_scale'
        with pytest.raises(NotAPolytope, match=f"^polytope is {re.escape(repr(operand))}, not a ChamberPolytope$"):
            render_svg(operand)

    def test_deterministic(self):
        a = render_svg(build_polytope_n3((4, 2, -1)), weights=(4, 2, -1))
        b = render_svg(build_polytope_n3((4, 2, -1)), weights=(4, 2, -1))
        assert a == b
