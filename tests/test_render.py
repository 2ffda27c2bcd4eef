import hashlib
from fractions import Fraction as F

import pytest

from su3poly.moment_map import InvalidWeight, LengthMismatch
from su3poly.oracle import sample_batch
from su3poly.polytope import build_polytope, build_polytope_n2, build_polytope_n3, point_polytope
from su3poly.render import render_svg
from su3poly.su3 import Spectrum


#: sha256 of the SVG text, without samples, of the polytope of each weight
#: of ``SVG_DIGEST_WEIGHTS`` labelled by its anchors, then of one point with
#: no weights: a polygon, merged anchors c1=c2=c3, a starred type, a
#: segment, rational and float weights.
SVG_DIGEST = "2a45ad0d05d6716bf5c6903b7ca6beb2839b3b3cbfefe6089803afd9af2dfd1e"
SVG_DIGEST_WEIGHTS = [(4, 2, -1), (1, 1, 1), (-4, -2, 1), (2, 1), (F(4, 3), 2, -1), (0.7, 0.35, -0.35)]


class TestRenderSvg:
    def test_outputs_match_the_pinned_digest(self):
        h = hashlib.sha256()
        for w in SVG_DIGEST_WEIGHTS:
            h.update(render_svg(build_polytope(w), weights=w).encode())
        h.update(render_svg(point_polytope(Spectrum(2, -1, -1))).encode())
        assert h.hexdigest() == SVG_DIGEST

    def test_polygon_with_samples(self):
        poly = build_polytope_n3((4, 2, -1))
        batch = sample_batch((4, 2, -1), 500, 1)
        svg = render_svg(poly, weights=(4, 2, -1), samples=batch.chamber_points)
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
        assert "polygon" in svg and "type C" in svg
        for name in ("a", "b", "c1", "c2", "c3"):
            assert f">{name}<" in svg or name in svg

    def test_merged_anchor_labels(self):
        svg = render_svg(build_polytope_n3((1, 1, 1)), weights=(1, 1, 1))
        assert "c1=c2=c3" in svg

    def test_segment_and_point(self):
        seg = render_svg(build_polytope_n2((2, 1)), weights=(2, 1))
        assert 'stroke="crimson"' in seg
        pt = render_svg(point_polytope(Spectrum(2, -1, -1)))
        assert "circle" in pt

    @pytest.mark.parametrize("weights, error", [((float("nan"), 1, 2), InvalidWeight), ((True, 1, 2), InvalidWeight), ((4, 2, -1, 1), LengthMismatch)])
    def test_bad_weights_are_refused_not_dropped(self, weights, error):
        with pytest.raises(error, match="weight 0 " if error is InvalidWeight else "got 4"):
            render_svg(build_polytope_n3((4, 2, -1)), weights=weights)

    def test_deterministic(self):
        a = render_svg(build_polytope_n3((4, 2, -1)), weights=(4, 2, -1))
        b = render_svg(build_polytope_n3((4, 2, -1)), weights=(4, 2, -1))
        assert a == b
