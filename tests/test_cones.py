import itertools
import math
import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import GENERIC_FIXTURES, POLYTOPE_FIXTURES, random_rational_gammas
from su3poly.classifier import canonicalize, classify_n3
from su3poly.cones import (
    LINE,
    AnchorKernel,
    RAY_NEG,
    RAY_POS,
    CoincidentWeights,
    Definiteness,
    Generator,
    Germ,
    InvalidGeneratorKind,
    OnWall,
    QuadraticForm2,
    ZeroSum,
    a_discriminant,
    a_slice_form,
    b_slice_coefficients,
    c_alpha1_coefficient,
    c_alpha3_form,
    c_vertex_criterion,
    definiteness,
    slice_cone_a,
    slice_cone_b,
    slice_cone_c,
)
from su3poly import polytope
from su3poly.polytope import AllWeightsDegenerate, build_polytope_n3, polytope_cones
from su3poly.moment_map import FIXED_CONFIGURATIONS, tangent_weights, weighted_moment
from su3poly.su3 import SQRT2, SQRT6, InvalidIndex, Root, integer_scaled, lift_2d, sgn


def embed(v):
    return ((v[0] - v[1]) / SQRT2, (v[0] + v[1] - 2 * v[2]) / SQRT6)


def gens_as_set(cone):
    return {(g.root, g.kind) for g in cone.generators}


class TestDefiniteness:
    @pytest.mark.parametrize(
        "form,expected",
        [
            (QuadraticForm2(1, 0, 1), Definiteness.POSITIVE_DEFINITE),
            (QuadraticForm2(1, 2, 1), Definiteness.INDEFINITE),
            (QuadraticForm2(-2, 1, -3), Definiteness.NEGATIVE_DEFINITE),
            (QuadraticForm2(1, 1, 1), Definiteness.DEGENERATE),
        ],
    )
    def test_classification(self, form, expected):
        assert definiteness(form) is expected


class TestSliceConeB:
    def test_paper_coefficients(self):
        assert b_slice_coefficients((4, 2, -1)) == (F(-3, 2), 20, 1)

    def test_all_positive_signs(self):
        # (3,2,1): coefficients ((1/2)(1), (3)(-2), (2/3)(1)) -> rays +, -, +
        cone = slice_cone_b((3, 2, 1))
        assert gens_as_set(cone) == {
            (Root.ALPHA1, RAY_POS),
            (Root.ALPHA2, RAY_NEG),
            (Root.ALPHA3, RAY_POS),
        }
        assert not cone.weyl_folded

    def test_mixed_signs(self):
        cone = slice_cone_b((4, 2, -1))
        assert gens_as_set(cone) == {
            (Root.ALPHA1, RAY_NEG),
            (Root.ALPHA2, RAY_POS),
            (Root.ALPHA3, RAY_POS),
        }

    def test_coincident_weights_raise(self):
        with pytest.raises(CoincidentWeights):
            slice_cone_b((1, 1, 1))

    @pytest.mark.parametrize(
        "near,exact",
        [
            ((3.0, 1.0, 1.0000000000000002), (3, 1, 1)),
            ((3.0, 1.0000000000000002, 1.0), (3, 1, 1)),
            ((1.0, 1.0000000000000002, -3.0), (1, 1, -3)),
            ((2.0, 2.0000000000000004, 1.0), (2, 2, 1)),
            ((1.0, 1.0 + 1e-12, 1.0 - 1e-12), (1, 1, 1)),
        ],
    )
    def test_snapped_coincidence_takes_the_exact_limit(self, near, exact):
        # floats that snap as coincident give the cone of the coincident
        # weights: the same rays and the same fold, whatever their binary order
        cone = slice_cone_b(near, allow_coincident=True)
        limit = slice_cone_b(exact, allow_coincident=True)
        assert (cone.generators, cone.weyl_folded) == (limit.generators, limit.weyl_folded)
        assert max(abs(x - y) for x, y in zip(cone.apex, limit.apex)) < 1e-9

    def test_unsorted_weights_fold(self):
        cone = slice_cone_b((2, 4, -1))
        sorted_cone = slice_cone_b((4, 2, -1))
        assert cone.weyl_folded
        assert cone.apex == sorted_cone.apex
        assert gens_as_set(cone) == gens_as_set(sorted_cone)

    def test_hull_is_120_degrees(self):
        rnd = random.Random(5)
        checked = 0
        while checked < 500:
            g = random_rational_gammas(rnd)
            if g[0] == g[1] or g[1] == g[2] or g[0] == g[2]:
                continue
            cone = slice_cone_b(g)
            vecs = [embed(gen.vector) for gen in cone.generators]
            cosines = sorted(
                (u[0] * w[0] + u[1] * w[1]) / (math.hypot(*u) * math.hypot(*w))
                for i, u in enumerate(vecs)
                for w in vecs[i + 1 :]
            )
            # one pair at 120 degrees, the middle ray 60 degrees from both
            assert math.isclose(cosines[0], -0.5, abs_tol=1e-9)
            assert math.isclose(cosines[1], 0.5, abs_tol=1e-9)
            assert math.isclose(cosines[2], 0.5, abs_tol=1e-9)
            checked += 1


class TestSliceConeC:
    def test_indefinite_case(self):
        cone = slice_cone_c(1, (4, 2, -1))
        assert gens_as_set(cone) == {(Root.ALPHA1, RAY_POS), (Root.ALPHA3, LINE)}
        assert not cone.weyl_folded
        assert c_vertex_criterion(1, (4, 2, -1)) == -24

    def test_definite_case(self):
        cone = slice_cone_c(1, (4, 1, 1))
        kinds = {g.kind for g in cone.generators}
        assert LINE not in kinds
        assert c_vertex_criterion(1, (4, 1, 1)) == 8

    def test_on_wall(self):
        with pytest.raises(OnWall):
            slice_cone_c(1, (2, 1, 1))
        with pytest.raises(OnWall):
            slice_cone_c(1, (3, 1, -1))  # g2 + g3 = 0

    def test_folding_keeps_rays_in_chamber(self):
        rnd = random.Random(17)
        checked = 0
        while checked < 300:
            g = random_rational_gammas(rnd)
            for j in (1, 2, 3):
                try:
                    cone = slice_cone_c(j, g)
                except OnWall:
                    continue
                apex = cone.apex
                for gen in cone.generators:
                    if gen.is_line:
                        continue
                    v = gen.vector
                    # directional derivative of active wall functionals
                    if apex.l1 == apex.l2:
                        assert v[0] - v[1] >= 0
                    if apex.l2 == apex.l3:
                        assert v[1] - v[2] >= 0
                checked += 1

    def test_vertex_criterion_matches_regions(self):
        rnd = random.Random(31)
        for _ in range(1000):
            g = random_rational_gammas(rnd)
            label, can = classify_n3(g)
            if not label.is_generic:
                continue
            crit = c_vertex_criterion(1, can.sorted_gammas)
            assert (crit > 0) == (label.value in ("B", "D")), (g, label)


class TestSliceConeA:
    def test_positive_definite_half_plane(self):
        cone = slice_cone_a((4, 1, 1))
        assert a_discriminant((4, 1, 1)) == 24
        assert [g.kind for g in cone.generators] == [LINE]
        assert cone.generators[0].root is Root.ALPHA3
        assert cone.side_normal is not None
        # side contains the centroid of the other fixed points: l3 >= -2
        assert cone.apex.astuple() == (4, -2, -2)

    def test_negative_definite_half_plane(self):
        cone = slice_cone_a((5, -1, -2))
        assert cone.generators[0].root is Root.ALPHA2
        assert cone.side_normal is not None

    def test_wedge(self):
        cone = slice_cone_a((4, 2, -1))
        assert a_discriminant((4, 2, -1)) == -40
        assert gens_as_set(cone) == {(Root.ALPHA2, RAY_NEG), (Root.ALPHA3, RAY_NEG)}

    def test_zero_sum(self):
        with pytest.raises(ZeroSum):
            slice_cone_a((2, 1, -3))

    def test_negative_sum_via_star(self):
        cone = slice_cone_a((-4, -2, 1))
        assert cone.apex.astuple() == (F(5, 3), F(5, 3), F(-10, 3))
        assert gens_as_set(cone) == {(Root.ALPHA2, RAY_NEG), (Root.ALPHA1, RAY_NEG)}

    def test_discriminant_matches_regions(self):
        rnd = random.Random(77)
        for _ in range(1000):
            g = random_rational_gammas(rnd)
            label, can = classify_n3(g)
            if not label.is_generic:
                continue
            disc = a_discriminant(can.sorted_gammas)
            assert (disc > 0) == (label.value in ("A", "B", "D")), (g, label)


def _one_float_weight_per_label():
    by_label = {}
    for gammas in sorted(POLYTOPE_FIXTURES):
        by_label.setdefault(POLYTOPE_FIXTURES[gammas][0], tuple(float(g) for g in gammas))
    return list(by_label.values())


ONE_FLOAT_WEIGHT_PER_LABEL = _one_float_weight_per_label()


def in_cone(cone, s):
    """Whether the triple ``s`` lies in the cone ``apex + cone(generators)``
    of a ConeSpec, in (l1, l2) coordinates: a half-plane cone by its side
    normal, any other by Caratheodory, as some two generators (a line counts
    as both its rays) that hold ``s - apex`` with nonnegative coefficients."""
    w = tuple(x - a for x, a in zip(s, cone.apex))
    if cone.side_normal is not None:
        return sum(n * x for n, x in zip(cone.side_normal, w)) >= 0
    gens = []
    for g in cone.generators:
        v = g.vector[:2]
        gens += [v, (-v[0], -v[1])] if g.is_line else [v]
    for u, v in itertools.combinations(gens, 2):
        det = u[0] * v[1] - u[1] * v[0]
        if det and (w[0] * v[1] - w[1] * v[0]) / det >= 0 and (u[0] * w[1] - u[1] * w[0]) / det >= 0:
            return True
    return False


class TestConesBoundPolytope:
    @pytest.mark.parametrize("sign", [1, -1])
    def test_polytope_inside_every_cone(self, sign):
        # the cones of starred weights are the star images of the canonical
        # cones, as the polytope is
        for gammas in POLYTOPE_FIXTURES:
            w = tuple(sign * g for g in gammas)
            poly = build_polytope_n3(w)
            for name, cone in polytope_cones(w).items():
                if cone is None:
                    continue
                for v in poly.vertices:
                    assert in_cone(cone, v.astuple()), (w, name, v)

    def test_cone_test_rejects_points_outside(self):
        cone = polytope_cones((4, 2, -1))["b"]
        apex = cone.apex.astuple()
        inside = [tuple(a + sum(g.vector[k] for g in cone.generators) for k, a in enumerate(apex))]
        outside = [tuple(a - sum(g.vector[k] for g in cone.generators) for k, a in enumerate(apex))]
        assert all(in_cone(cone, s) for s in inside) and not any(in_cone(cone, s) for s in outside)

    @pytest.mark.parametrize("gammas", sorted(POLYTOPE_FIXTURES) + ONE_FLOAT_WEIGHT_PER_LABEL)
    def test_each_cone_is_its_germs_view(self, gammas):
        # apex over the kernel's scale, the rays then the line as
        # generators, the side as its sum-zero normal
        kernel, germs = polytope._germs(canonicalize(gammas))
        cones = polytope_cones(gammas)
        assert list(cones) == list(germs)
        for name, germ in germs.items():
            cone = cones[name]
            if germ is None:
                assert cone is None, name
                continue
            assert cone.apex.astuple() == tuple(F(x, kernel.scale) for x in germ.apex)
            lines = [] if germ.line is None else [germ.line]
            assert [g.vector for g in cone.generators] == list(germ.rays) + lines
            assert [g.is_line for g in cone.generators] == [False] * len(germ.rays) + [True] * len(lines)
            assert cone.side_normal == (None if germ.side is None else lift_2d(*germ.side))
            assert cone.weyl_folded == germ.folded

    @pytest.mark.parametrize("gammas", sorted(POLYTOPE_FIXTURES) + ONE_FLOAT_WEIGHT_PER_LABEL)
    def test_builder_lines_are_the_walls_and_the_germ_lines(self, gammas):
        # in the same order, over one denominator, and read as half-planes
        # with the offsets c / t of the kernel's scale t
        kernel, germs = polytope._germs(canonicalize(gammas))
        expected = [(1, -1, 0, "wall:l1=l2"), (1, 2, 0, "wall:l2=l3")]
        for name, germ in germs.items():
            if germ is not None:
                expected += polytope._germ_lines(germ, name)
        poly = build_polytope_n3(canonicalize(gammas).sorted_gammas)
        m, rest = divmod(poly.den, kernel.scale)
        assert rest == 0
        assert poly.lines == tuple((a, b, c * m, p) for a, b, c, p in expected)
        assert [(a, b, F(c, poly.den), p) for a, b, c, p in poly.lines] == [(a, b, F(c, kernel.scale), p) for a, b, c, p in expected]

    @pytest.mark.parametrize(
        "germ, match",
        [
            (Germ((1, 0, -1), (), Root.ALPHA3.vector), "0 rays"),
            (Germ((1, 0, -1), (Root.ALPHA3.vector,), Root.ALPHA3.vector), "ray along its line"),
            (Germ((1, 0, -1), (Root.ALPHA1.vector, Root.ALPHA1.vector)), "single-ray"),
            (Germ((1, 0, -1), (Root.ALPHA1.vector, tuple(-x for x in Root.ALPHA1.vector))), "not salient"),
        ],
    )
    def test_hand_made_germ_without_a_polygon_side_is_refused(self, germ, match):
        with pytest.raises(AllWeightsDegenerate, match=match):
            polytope._germ_lines(germ, "x")

    def test_extreme_c_matches_definiteness(self):
        for gammas, (label, vertices, extreme_cs, _, _) in GENERIC_FIXTURES.items():
            for j in (1, 2, 3):
                crit = c_vertex_criterion(j, gammas)
                assert (crit > 0) == (f"c{j}" in extreme_cs), (gammas, j)


nonzero_rational = st.fractions(min_value=-12, max_value=12, max_denominator=6).filter(bool)
integer_grid = st.tuples(*[st.integers(-4, 4).filter(bool)] * 3)


def kernel_of(g):
    """The kernel of weights taken exactly (floats at their binary values)."""
    ints, den = integer_scaled(g)
    return AnchorKernel.scaled(ints, 3 * den)


class TestAnchorKernel:
    """The kernel's integer signs stand for the paper's rational quantities."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(integer_grid, st.tuples(nonzero_rational, nonzero_rational, nonzero_rational)))
    def test_signs_match_public_quantities(self, g):
        kernel = kernel_of(g)
        if len(set(g)) == 3:
            assert kernel.b_ray_signs() == tuple(sgn(c) for c in b_slice_coefficients(g))
        for j in (1, 2, 3):
            a1_sign, form = kernel.c_signs(j)
            assert a1_sign == sgn(c_alpha1_coefficient(j, g))
            assert definiteness(form) is definiteness(c_alpha3_form(j, g))
        assert sgn(kernel.a_form().discriminant) == sgn(a_discriminant(g))
        assert definiteness(kernel.a_form()) is definiteness(a_slice_form(g))

    @settings(max_examples=100, deadline=None)
    @given(st.tuples(nonzero_rational, nonzero_rational, nonzero_rational))
    def test_anchors_are_the_fixed_point_diagonals_on_the_integer_scale(self, g):
        kernel = kernel_of(g)
        assert kernel.gammas == tuple(kernel.scale * x / 3 for x in g)
        for name, config in FIXED_CONFIGURATIONS.items():
            m = weighted_moment(config, g)
            raw = (m.d1, m.d2, m.d3)
            entries, perm = kernel.anchors[name]
            assert entries == tuple(sorted((kernel.scale * x for x in raw), reverse=True))
            assert entries == tuple(kernel.scale * raw[k] for k in perm)

    def test_float_weights_enter_exactly(self):
        kernel = kernel_of((0.1, 2.0, -1.0))
        assert kernel.gammas == tuple(kernel.scale * F(x) / 3 for x in (0.1, 2.0, -1.0))


INDEXED = {
    "slice_cone_c": lambda j: slice_cone_c(j, (4, 2, -1)),
    "c_vertex_criterion": lambda j: c_vertex_criterion(j, (4, 2, -1)),
    "c_alpha1_coefficient": lambda j: c_alpha1_coefficient(j, (4, 2, -1)),
    "c_alpha3_form": lambda j: c_alpha3_form(j, (4, 2, -1)),
    "tangent_weights": tangent_weights,
    "AnchorKernel.c_signs": lambda j: kernel_of((4, 2, -1)).c_signs(j),
}


@pytest.mark.parametrize("j", [0, 4, True, 1.0], ids=repr)
@pytest.mark.parametrize("name", INDEXED)
def test_index_other_than_the_int_1_2_or_3_is_refused(name, j):
    with pytest.raises(InvalidIndex, match=f"^index {re.escape(repr(j))} is not 1, 2 or 3$"):
        INDEXED[name](j)
    INDEXED[name](2)


@pytest.mark.parametrize("kind", ["ray", "Line", "", None, 1], ids=repr)
def test_generator_kind_other_than_ray_or_line_is_refused(kind):
    with pytest.raises(InvalidGeneratorKind, match=f"^generator kind {re.escape(repr(kind))} is not 'ray\\+', 'ray-' or 'line'$"):
        Generator(Root.ALPHA1, kind)
    assert [Generator(Root.ALPHA1, k).vector for k in (RAY_POS, RAY_NEG, LINE)] == [(0, 1, -1), (0, -1, 1), (0, 1, -1)]
