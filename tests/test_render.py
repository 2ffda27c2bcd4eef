import pytest

from su3poly.moment_map import InvalidWeight, LengthMismatch
from su3poly.oracle import sample_batch
from su3poly.polytope import build_polytope_n2, build_polytope_n3, point_polytope
from su3poly.render import render_svg
from su3poly.su3 import Spectrum


class TestRenderSvg:
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
