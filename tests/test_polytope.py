import hashlib
import itertools
import json
import math
import random
import re
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURE_ORDERS_AND_SIGNS, N2_FIXTURES, POLYTOPE_FIXTURES, distance_loop, gaussian_anchor_spectra, random_rational_gammas
from su3poly import classifier, moment_map, oracle, polytope
from su3poly.classifier import GENERIC_N3, canonicalize, classify_n3
from su3poly.cones import AnchorKernel, ConeSpec, Germ, QuadraticForm2
from su3poly.moment_map import fixed_point_spectra
from su3poly.oracle import sample_batch
from su3poly.polytope import (
    AllWeightsDegenerate,
    ChamberPolytope,
    DegenerateWeight,
    InvalidHalfPlane,
    InvalidHullPoints,
    InvalidPolytopeDocument,
    NotAPolytope,
    build_polytope,
    build_polytope_n2,
    build_polytope_n3,
    distance_to_polytope_pq,
    hausdorff,
    hull2d,
    point_polytope,
    polytope_cones,
)
from su3poly.su3 import _FORMS, InvalidTolerance, InvalidWeight, LengthMismatch, Root, Spectrum, _form_values, chamber_coordinates, chamber_to_spectrum_floats, lift_2d, sgn, snap_weights, star_involution, to_chamber


def vertex_set(poly):
    return {tuple(F(x) for x in v) for v in poly.vertices}


def line_values(poly, s):
    """a*l1 + b*l2 - c / den for each stored line at the sum-zero triple ``s``."""
    return [a * s[0] + b * s[1] - F(c, poly.den) for a, b, c, _ in poly.lines]


_rnd = random.Random(29)
RANDOM_RATIONALS = [random_rational_gammas(_rnd) for _ in range(40)]


class TestFixtureTable:
    @pytest.mark.parametrize("gammas", sorted(POLYTOPE_FIXTURES))
    def test_exact_vertices_and_combinatorics(self, gammas):
        label, vertices, extreme_cs, n_left, n_right = POLYTOPE_FIXTURES[gammas]
        poly = build_polytope_n3(gammas)
        assert poly.label == label
        assert poly.kind == "Polygon"
        assert vertex_set(poly) == {tuple(F(x) for x in v) for v in vertices}
        fps = fixed_point_spectra(gammas)
        got_extreme = {name for name in ("c1", "c2", "c3") if fps[name] in poly.vertices}
        assert got_extreme == extreme_cs
        assert fps["a"] in poly.vertices and fps["b"] in poly.vertices
        left = sum(1 for v in poly.vertices if v.l2 == v.l3)
        right = sum(1 for v in poly.vertices if v.l1 == v.l2)
        assert (left, right) == (n_left, n_right)

    @pytest.mark.parametrize("gammas", sorted(POLYTOPE_FIXTURES))
    def test_anchors_on_boundary(self, gammas):
        poly = build_polytope_n3(gammas)
        for name, spec in fixed_point_spectra(gammas).items():
            assert poly.contains(spec, 0), (gammas, name)
            assert min(line_values(poly, spec.astuple())) == 0, (gammas, name)

    @pytest.mark.parametrize("gammas", sorted(POLYTOPE_FIXTURES) + RANDOM_RATIONALS)
    def test_vertices_consistent_with_halfplanes(self, gammas):
        poly = build_polytope_n3(gammas)
        for v in poly.vertices:
            vals = line_values(poly, v.astuple())
            assert all(x >= 0 for x in vals)
            assert sum(1 for x in vals if x == 0) >= 2

    @pytest.mark.parametrize("gammas", sorted(POLYTOPE_FIXTURES) + RANDOM_RATIONALS)
    def test_ordering_ccw_from_a(self, gammas):
        poly = build_polytope_n3(gammas)
        assert poly.vertices[0] == fixed_point_spectra(gammas)["a"]
        pts = [(c.p, c.q) for c in poly.pq_vertices()]
        area2 = sum(
            pts[i][0] * pts[(i + 1) % len(pts)][1] - pts[(i + 1) % len(pts)][0] * pts[i][1]
            for i in range(len(pts))
        )
        assert area2 > 0


class TestSymmetries:
    def test_star_and_permutation_exact(self):
        rnd = random.Random(23)
        for _ in range(200):
            g = random_rational_gammas(rnd)
            poly = build_polytope_n3(g)
            mirrored = build_polytope_n3(tuple(-x for x in g))
            assert vertex_set(mirrored) == {
                tuple(F(x) for x in star_involution(v)) for v in poly.vertices
            }
            for perm in itertools.permutations(g):
                assert vertex_set(build_polytope_n3(perm)) == vertex_set(poly)

    def test_star_label_pairs_at_zero_sum(self):
        d0 = build_polytope_n3((3, -1, -2))
        g0 = build_polytope_n3((-3, 1, 2))
        assert (d0.label, g0.label) == ("D0", "G0")
        assert vertex_set(g0) == {tuple(star_involution(v)) for v in d0.vertices}

    def test_starred_flag(self):
        poly = build_polytope_n3((-1, -1, -1))
        assert poly.starred and poly.label == "AAA"
        assert vertex_set(poly) == {(1, 1, -2), (0, 0, 0), (1, F(-1, 2), F(-1, 2))}


nonzero_rational = st.fractions(min_value=-12, max_value=12, max_denominator=6).filter(bool)
nonzero_float = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False).filter(lambda x: abs(x) >= 1e-3)
nonzero_weights = st.one_of(st.tuples(*[nonzero_rational] * 3), st.tuples(*[nonzero_float] * 3))


class TestSymmetryProperties:
    """The paper's symmetries of P(gamma), over rational and float weights."""

    @settings(max_examples=150, deadline=None)
    @given(nonzero_weights)
    def test_permutation_invariance(self, g):
        poly = build_polytope(g)
        for perm in itertools.permutations(g):
            other = build_polytope(perm)
            assert (other.label, vertex_set(other)) == (poly.label, vertex_set(poly))

    @settings(max_examples=150, deadline=None)
    @given(nonzero_weights)
    def test_star_involution(self, g):
        poly = build_polytope(g)
        mirrored = build_polytope(tuple(-x for x in g))
        assert vertex_set(mirrored) == {tuple(F(x) for x in star_involution(v)) for v in poly.vertices}
        assert mirrored.label == poly.label or {mirrored.label, poly.label} in ({"D0", "G0"}, {"DD0", "GG0"})


@dataclass(frozen=True)
class HalfPlane:
    """The half-plane view of one stored line that containment once read,
    {s : normal . s >= offset} with Fraction normals: the reference for
    :meth:`ChamberPolytope.contains`, which reads the lines as stored."""

    normal: tuple
    offset: object

    def value(self, s):
        n = self.normal
        return n[0] * s[0] + n[1] * s[1] + n[2] * s[2] - self.offset

    def unit(self):
        n = self.normal
        return math.sqrt(float(n[0]) ** 2 + float(n[1]) ** 2 + float(n[2]) ** 2)

    def signed_distance(self, s):
        return float(self.value(s)) / self.unit()


def reference_contains(poly, s, tol):
    """Containment through :class:`HalfPlane` views, as it was computed before
    the lines were read directly."""
    den = poly.den
    halfplanes = [HalfPlane(lift_2d(a, b), c if den == 1 else F(c, den)) for a, b, c, _ in poly.lines]
    if tol == 0 and poly.is_exact and all(type(x) in (int, F) for x in s):
        return all(hp.value(s) >= 0 for hp in halfplanes)
    scale = poly.diameter() or max(abs(float(x)) for v in poly.vertices for x in v)
    return all(hp.signed_distance(s) >= -tol * scale for hp in halfplanes)


#: Every fixture polygon, its star image and every two-factor segment.
CONTAINMENT_POLYTOPES = [
    *(build_polytope_n3(g) for g in sorted(POLYTOPE_FIXTURES)),
    *(build_polytope_n3(g).star() for g in sorted(POLYTOPE_FIXTURES)),
    *(build_polytope_n2(row[0]) for row in N2_FIXTURES),
]


@st.composite
def points_near_the_lines(draw):
    """A polytope and, for each of its lines, a point on that line moved off
    it along its normal by 0, a few ulps, or up to 1e-6 of the polytope's
    scale; each point exact and as floats."""
    poly = draw(st.sampled_from(CONTAINMENT_POLYTOPES))
    corners = [v.astuple() for v in poly.vertices]
    weights = draw(st.lists(st.fractions(-1, 2, max_denominator=16), min_size=len(corners), max_size=len(corners)))
    p = [sum((w * v[i] for w, v in zip(weights, corners)), F(0)) for i in range(3)]
    p = [x - sum(p) / 3 for x in p]
    scale = max(abs(x) for v in corners for x in v) or 1
    push = draw(st.sampled_from([0, 1e-17, 1e-16, 1e-15, 1e-13, 1e-10, 0.9e-9, 1e-9, 1.1e-9, 1e-6])) * draw(st.sampled_from([1, -1]))
    points = []
    for a, b, c, _ in poly.lines:
        n = (2 * a - b, 2 * b - a, -a - b)
        k = (sum(x * y for x, y in zip(n, p)) - 3 * F(c, poly.den)) / sum(y * y for y in n)
        s = tuple(x - (k - F(push) * scale / 3) * y for x, y in zip(p, n))
        points += [s, tuple(map(float, s))]
    return poly, points


def scales(got: float, want: float, t: F, scale) -> bool:
    """``got`` is t * ``want`` within 1e-14 * t * (|want| + ``scale``) plus the
    least subnormal, so 0 below float range, or an infinity where that
    interval reaches past float range."""
    slack = F(1, 10**14) * t * (abs(F(want)) + scale) + F(2) ** -1074
    if math.isinf(got):
        return got > 0 and t * F(want) + slack > sys.float_info.max
    return abs(F(got) - t * F(want)) <= slack


class TestContains:
    @settings(max_examples=200, deadline=None)
    @given(points_near_the_lines())
    def test_matches_the_halfplane_reference(self, case):
        poly, points = case
        for s in points:
            for tol in (0, 0.0, 1e-9):
                assert poly.contains(s, tol) == reference_contains(poly, s, tol), (s, tol)

    def test_exact_containment_makes_no_fraction(self, monkeypatch):
        poly = build_polytope_n3((4, 2, -1))
        probes = [v.astuple() for v in poly.vertices] + [(0, 0, 0), (3, -1, -2)]
        made = []
        new = F.__new__

        def counted(cls, *args, **kwargs):
            made.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(F, "__new__", counted)
        assert [poly.contains(s, 0) for s in probes] == [True] * 4 + [False, True]
        assert made == []

    @pytest.mark.parametrize("point, k", [((math.nan, 0.0, 0.0), 0), ((1, 0.0, math.inf), 2), ((0.5, -math.inf, 0), 1)], ids=repr)
    def test_non_finite_point_is_named(self, point, k):
        # a NaN point was once reported outside: every comparison with NaN is False
        with pytest.raises(InvalidWeight, match=re.escape(f"point entry {k} is {point[k]!r}, not finite")):
            build_polytope_n3((4, 2, -1)).contains(point)

    @pytest.mark.parametrize("point", [(1, -1), (1, 0, 0, -1), (1.0, -1.0), (), [0.5, 0.5, -0.5, -0.5]], ids=repr)
    def test_point_of_other_than_three_entries_is_refused(self, point):
        # an unpacking ValueError once, or an IndexError
        for poly in (build_polytope_n3((4, 2, -1)), hull2d([(0.5, 1.0), (1.0, 3.0), (0.25, 1.5)])):
            for call in (poly.contains, lambda s: poly.contains(s, 0)):
                with pytest.raises(LengthMismatch, match=f"^point has {len(point)} entries, not 3$"):
                    call(point)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1, -1e-300, True, False, "0", None, 1j])
    def test_tolerance_is_checked(self, tol):
        poly = build_polytope_n3((4, 2, -1))
        with pytest.raises(InvalidTolerance, match=re.escape(repr(tol))):
            poly.contains((0, 0, 0), tol)
        assert poly.contains(poly.vertices[0], 0) and poly.contains(poly.vertices[0], F(0))

    def test_aaa_examples(self):
        poly = build_polytope_n3((1, 1, 1))
        assert poly.contains(Spectrum(0, 0, 0), 1e-9)
        assert not poly.contains(Spectrum(3, 0, -3), 1e-9)
        for v in poly.vertices:
            assert poly.contains(v, 1e-9)
            assert poly.contains(v, 0)

    def test_interior_and_tolerance(self):
        poly = build_polytope_n3((1, 1, 1))
        assert poly.contains(Spectrum(1, 0, -1), 0)
        just_out = Spectrum(1 + 1e-12, 0, -1 - 1e-12)
        assert poly.contains(just_out, 1e-9)


    def test_no_absolute_floor(self):
        # diameter 3.7e-12: points 1.2 times as far from the centroid as a
        # vertex lie 2.4e-13 outside, far beyond 1e-9 of the diameter
        poly = build_polytope((4e-12, 2e-12, -1e-12))
        verts = [np.array(v.as_floats()) for v in poly.vertices]
        centroid = sum(verts) / len(verts)
        for v in verts:
            assert not poly.contains(tuple(centroid + F(6, 5) * (v - centroid)))
            assert poly.contains(tuple(centroid + F(9, 10) * (v - centroid)))
        # a point beyond float range in the polytope's own scale is outside, and raises nothing
        for far in ((1e300, 0.0, -1e300), (10**400, 0, -10**400)):
            assert not poly.contains(far)

    @pytest.mark.parametrize("gammas", [(4, 2, -1), (1, 1, 1), (2, 1), (3, 0, 0)])
    @pytest.mark.parametrize("k", [*range(-12, 13, 3), -400, -330, -300, 300, 308, 400])
    def test_scale_invariance(self, gammas, k):
        # contains(tP, tx) == contains(P, x) for t = 10^k, on points inside,
        # on and outside the boundary by 1e-6 and 1e-12 of the scale; past
        # float range too, where the polytope and the points stay exact
        t = F(10) ** k
        poly = build_polytope(gammas)
        scaled = build_polytope(tuple(t * g for g in gammas))
        n = len(poly.vertices)
        centroid = [sum(v.astuple()[i] for v in poly.vertices) / n for i in range(3)]
        scale = max(abs(x) for v in poly.vertices for x in v.astuple()) or 1
        probes = [v.astuple() for v in poly.vertices]
        for v in poly.vertices:
            for push in (F(-1, 10**6), F(-1, 10**12), F(1, 10**12), F(1, 10**6)):
                away = [x - c for x, c in zip(v.astuple(), centroid)]
                if not any(away):  # a point polytope: move off it along a root
                    away = [1, -1, 0]
                probes.append(tuple(x + push * scale * a for x, a in zip(v.astuple(), away)))
        for s in probes:
            assert scaled.contains(tuple(t * x for x in s)) == poly.contains(s), (gammas, k, s)
        # the diameter scales too, to an infinity past float range
        d = F(poly.diameter()) * t
        assert scaled.diameter() == (math.inf if d > sys.float_info.max else pytest.approx(float(d), rel=1e-14, abs=0)), (gammas, k)
        # and so does every float reader of the vertices, which raises nothing:
        # each value t times its unscaled one within 1e-14 of the scale, an
        # infinity past float range
        for got, want in zip(scaled.pq_vertices(), poly.pq_vertices()):
            assert scales(got.p, want.p, t, scale) and scales(got.q, want.q, t, scale), (gammas, k, got, want)
        for s in probes:
            pq = [F(x) for x in chamber_coordinates(*map(float, s))]
            got = polytope.distance_to_polytope_pq([t * x for x in pq], scaled)
            assert scales(got, polytope.distance_to_polytope_pq(pq, poly), t, scale), (gammas, k, s, got)
        other = gammas[:-1] + (gammas[-1] + 1,)
        got = hausdorff(scaled, build_polytope(tuple(t * g for g in other)))
        assert scales(got, hausdorff(poly, build_polytope(other)), t, scale), (gammas, k, got)


class TestN2:
    @pytest.mark.parametrize("gammas,label,a,c,a_wall,c_wall", N2_FIXTURES)
    def test_seven_cases(self, gammas, label, a, c, a_wall, c_wall):
        poly = build_polytope_n2(gammas)
        assert poly.label == label
        assert poly.kind == "Segment"
        got_a, got_c = poly.vertices
        assert got_a.astuple() == tuple(F(x) for x in a)
        assert got_c.astuple() == tuple(F(x) for x in c)
        assert (got_a.l1 == got_a.l2 or got_a.l2 == got_a.l3) == a_wall
        assert (got_c.l1 == got_c.l2 or got_c.l2 == got_c.l3) == c_wall

    @pytest.mark.parametrize("gammas,label,a,c,a_wall,c_wall", N2_FIXTURES)
    def test_segment_parallel_to_root(self, gammas, label, a, c, a_wall, c_wall):
        poly = build_polytope_n2(gammas)
        d = tuple(x - y for x, y in zip(poly.vertices[1], poly.vertices[0]))
        parallel = any(
            d[0] * r.vector[1] - d[1] * r.vector[0] == 0
            and d[1] * r.vector[2] - d[2] * r.vector[1] == 0
            for r in Root
        )
        assert parallel

    def test_transf_lies_on_l2_zero(self):
        poly = build_polytope_n2((1, -1))
        assert all(v.l2 == 0 for v in poly.vertices)

    def test_containment_of_midpoint(self):
        poly = build_polytope_n2((2, 1))
        assert poly.contains(Spectrum(F(3, 2), F(-1, 2), -1), 0)
        assert not poly.contains(Spectrum(F(3, 2), F(-1, 4), F(-5, 4)), 1e-9)


class TestDelegation:
    def test_zero_weight_delegates_to_segment(self):
        poly = build_polytope((2, 1, 0))
        direct = build_polytope_n2((2, 1))
        assert vertex_set(poly) == vertex_set(direct)

    def test_two_zero_weights_give_point(self):
        poly = build_polytope((3, 0, 0))
        assert poly.kind == "Point"
        assert poly.vertices[0].astuple() == (2, -1, -1)

    def test_n3_rejects_zero_weight(self):
        with pytest.raises(DegenerateWeight):
            build_polytope_n3((1, 0, 2))

    def test_n2_and_the_cones_reject_zero_weight(self):
        with pytest.raises(DegenerateWeight, match="^zero weight"):
            build_polytope_n2((2, 0))
        with pytest.raises(DegenerateWeight, match=re.escape("(1.0, 1e-12, 2.0) have a zero within tolerance")):
            polytope_cones((1.0, 1e-12, 2.0))

    def test_tiny_float_weights_are_not_zero(self):
        # no absolute floor: classification and construction both see C
        g = (4e-9, 2e-9, -1e-9)
        assert classify_n3(g)[0].value == "C"
        poly = build_polytope(g)
        assert (poly.label, poly.kind) == ("C", "Polygon")

    def test_huge_exact_weight_stays_exact(self):
        poly = build_polytope((10**400, 1, 1))
        assert poly.label == "BB"
        assert poly.vertices[0].astuple() == (F(2 * 10**400 + 4, 3), F(-(10**400) - 2, 3), F(-(10**400) - 2, 3))


    def test_huge_exact_weight_beside_floats(self):
        # a weight beyond float range takes the floats beside it exactly,
        # as for (10**400, 1, 1), instead of overflowing in a sum
        poly = build_polytope((10**400, 1.0, 1.0))
        exact = build_polytope((10**400, 1, 1))
        assert (poly.label, poly.vertices) == ("BB", exact.vertices)

    @pytest.mark.parametrize(
        "gammas", [(2, -0.3, -1.7), (-2, 1.1, 0.9), (3, 1.0, 1.0000000000000002), (4, 2.0, -1.0), (1, 0.1, 0.2)]
    )
    def test_mixed_weights_build_as_classified(self, gammas):
        # an exact largest weight beside floats: (2 + -0.3) + -1.7 == 0.0,
        # though the binary values sum to 5.6e-17, so the label is D0; the
        # build agrees with the classifier and with the cones it is given
        label, can = classify_n3(gammas)
        poly = build_polytope(gammas)
        assert poly.label == label.value
        cones = polytope_cones(can.sorted_gammas)
        tags = {p.split(":")[0] for *_, p in poly.lines}
        assert tags == {"wall"} | {name for name, cone in cones.items() if cone is not None}

    def test_near_zero_float_beside_exact_weights_snaps(self):
        assert build_polytope((2, 1e-12, -1)).vertices == build_polytope((2, -1)).vertices


class TestPolygonVertices:
    """The vertex solve on integer lines (a, b, c): a*l1 + b*l2 >= c."""

    WALLS = [(1, -1, 0), (1, 2, 0)]  # l1 >= l2 and l2 >= l3

    def test_rejects_normal_outside_the_facet_directions(self):
        # 2*l1 + l2 is no wall and vanishes on no root
        with pytest.raises(AllWeightsDegenerate):
            polytope._integer_vertices([*self.WALLS, (2, 1, 0)])

    def test_rejects_empty_intersection(self):
        # l1 <= -1 misses the chamber
        with pytest.raises(AllWeightsDegenerate):
            polytope._integer_vertices([*self.WALLS, (-1, 0, 1)])

    def test_rejects_unbounded_intersection(self):
        # the chamber cut by l1 >= 1 and l1 + l2 >= 1: three vertices, open
        with pytest.raises(AllWeightsDegenerate, match="unbounded"):
            polytope._integer_vertices([*self.WALLS, (1, 0, 1), (1, 1, 1)])

    def test_keeps_tightest_offset_per_direction(self):
        # the chamber cut by l1 <= 2, also given as the slack l1 <= 5
        hull, m = _solved([*self.WALLS, (-1, 0, -5), (-1, 0, -2)])
        assert [(F(x, m), F(y, m)) for x, y in hull] == [(0, 0), (2, -1), (2, 2)]


def _pairwise_vertices(lines):
    """The vertex solve of every pair of lines, kept when it satisfies every
    line and ordered by Andrew's monotone chain: the reference for
    :func:`polytope._integer_vertices`, which walks the fixed order."""
    tightest = {}
    for a, b, c in lines:
        if (a, b) not in polytope._FACET_NORMALS:
            raise AllWeightsDegenerate(f"functional {a}*l1 + {b}*l2 is no facet direction")
        tightest[a, b] = max(c, tightest.get((a, b), c))
    lines = [(a, b, c) for (a, b), c in tightest.items()]
    rays = [d for a, b, _ in lines for d in ((-b, a), (b, -a))]
    if any(all(a * dx + b * dy >= 0 for a, b, _ in lines) for dx, dy in rays):
        raise AllWeightsDegenerate("half-plane intersection is unbounded")
    points = set()
    for i, (a1, b1, c1) in enumerate(lines):
        for a2, b2, c2 in lines[i + 1:]:
            det = a1 * b2 - a2 * b1
            x, y = c1 * b2 - c2 * b1, a1 * c2 - a2 * c1
            if det and all((a * x + b * y) * det >= c * det * det for a, b, c in lines):
                points.add((F(x, det), F(y, det)))

    def half(seq):
        h = []
        for x, y in seq:
            while len(h) >= 2 and ((h[-1][0] - h[-2][0]) * (y - h[-2][1]) - (h[-1][1] - h[-2][1]) * (x - h[-2][0])) <= 0:
                h.pop()
            h.append((x, y))
        return h

    pts = sorted(points)
    lower, upper = half(pts), half(pts[::-1])
    hull = lower[:-1] + upper[:-1] if len(lower) > 1 else lower
    if len(hull) < 3:
        raise AllWeightsDegenerate(f"half-plane intersection has {len(hull)} vertices")
    return hull


def _solved(lines):
    """The walk's ring of ``lines``, solved into integer vertices over m from
    the lexicographic minimum, the monotone chain's first vertex, and m."""
    hull, m = polytope._ring_vertices(lines, polytope._integer_vertices(lines))
    i = hull.index(min(hull))
    return hull[i:] + hull[:i], m


def _walked_vertices(lines):
    hull, m = _solved(lines)
    return [(F(x, m), F(y, m)) for x, y in hull]


def _outcome(solve, *args):
    try:
        return solve(*args)
    except AllWeightsDegenerate as exc:
        return type(exc)


DIRECTIONS = list(polytope._FACET_NORMALS)


def facet_lines(offsets):
    return st.lists(st.tuples(st.sampled_from(DIRECTIONS), offsets).map(lambda d: (*d[0], d[1])), max_size=12)


# every direction at least once is bounded, and offsets <= 0 keep the
# origin inside, so these are mostly polygons
closed_facet_lines = st.builds(
    lambda offsets, extra: [(*d, c) for d, c in zip(DIRECTIONS, offsets)] + extra,
    st.lists(st.integers(-6, 0), min_size=8, max_size=8),
    facet_lines(st.integers(-6, 1)),
)


class TestWalkAgainstPairwise:
    """The walk round the fixed facet directions against the all-pairs solve
    and monotone chain it replaced."""

    WALLS = TestPolygonVertices.WALLS

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(facet_lines(st.integers(-4, 4)), closed_facet_lines), st.randoms(use_true_random=False))
    def test_matches_the_pairwise_solve(self, lines, rnd):
        rnd.shuffle(lines)
        assert _outcome(_walked_vertices, lines) == _outcome(_pairwise_vertices, lines)

    @pytest.mark.parametrize(
        "extra, vertices",
        [
            # l1 <= 2 given three times: the tightest offset wins
            ([(-1, 0, -5), (-1, 0, -2), (-1, 0, -3)], [(0, 0), (2, -1), (2, 2)]),
            # l1 + l2 <= 4 touches the triangle l1 <= 2 only at (2, 2): three lines through one vertex
            ([(-1, 0, -2), (-1, -1, -4)], [(0, 0), (2, -1), (2, 2)]),
            # l2 <= 1 and l1 + l2 <= 2 both pass through (1, 1), cutting the same corner
            ([(-1, 0, -2), (0, -1, -1), (-1, -1, -2)], [(0, 0), (2, -1), (2, 0), (1, 1)]),
            # every direction, five of them redundant
            ([(1, 0, -9), (1, 1, -9), (0, 1, -9), (-1, 0, -3), (-1, -1, -9), (0, -1, -9)], [(0, 0), (3, F(-3, 2)), (3, 3)]),
        ],
    )
    def test_polygons(self, extra, vertices):
        lines = [*self.WALLS, *extra]
        assert _walked_vertices(lines) == _pairwise_vertices(lines) == vertices

    @pytest.mark.parametrize(
        "lines, match",
        [
            ([*WALLS, (-1, 0, 1)], "no interior"),  # l1 <= -1: empty
            ([*WALLS, (-1, 0, 0)], "no interior"),  # l1 <= 0: the point (0, 0)
            ([*WALLS, (0, 1, 0), (0, -1, 0), (-1, 0, -3)], "no interior"),  # l2 = 0, l1 <= 3: a segment
            ([*WALLS, (0, 1, 1), (0, -1, 0)], "unbounded"),  # 0 >= l2 >= 1: an empty strip
            ([*WALLS, (1, 0, 1), (1, 1, 1)], "unbounded"),
            (WALLS, "unbounded"),
            ([(1, 0, 0), (-1, 0, -1)], "unbounded"),
            ([(1, 0, 0)], "unbounded"),
            ([], "unbounded"),
        ],
    )
    def test_degenerate_intersections(self, lines, match):
        with pytest.raises(AllWeightsDegenerate, match=match):
            polytope._integer_vertices(lines)
        with pytest.raises(AllWeightsDegenerate):
            _pairwise_vertices(lines)


def _pairwise_extreme_rays(germ, tag):
    """The O(r^3) search for the two extreme rays of an edge cone: the
    reference for the fixed-order ray walk of :func:`polytope._germ_lines`."""
    x, y, _ = germ.apex
    vecs = list(dict.fromkeys((v[0], v[1]) for v in germ.rays))
    if len(vecs) == 1:
        raise AllWeightsDegenerate(f"single-ray cone at {tag}")

    def cross(u, v):
        return u[0] * v[1] - u[1] * v[0]

    for u in vecs:
        for v in vecs:
            if u is v or cross(u, v) <= 0:
                continue
            if all(cross(u, w) >= 0 and cross(w, v) >= 0 for w in vecs):
                return [(-u[1], u[0], -u[1] * x + u[0] * y, f"{tag}:edge"), (v[1], -v[0], v[1] * x - v[0] * y, f"{tag}:edge")]
    raise AllWeightsDegenerate(f"cone at {tag} is not salient")


SIGNED_ROOTS = [tuple(sign * x for x in root.vector) for root in Root for sign in (1, -1)]


@pytest.mark.parametrize("rays", [rays for k in range(1, 7) for rays in itertools.combinations(SIGNED_ROOTS, k)])
def test_edge_cone_lines_match_the_pairwise_search(rays):
    for order in (rays, rays[::-1], rays + rays[:1]):
        germ = Germ((5, 1, -6), order)
        try:
            want = _pairwise_extreme_rays(germ, "x")
        except AllWeightsDegenerate as exc:
            with pytest.raises(AllWeightsDegenerate, match=f"^{re.escape(str(exc))}$"):
                polytope._germ_lines(germ, "x")
        else:
            assert polytope._germ_lines(germ, "x") == want


class TestHull2d:
    def test_square(self):
        square = [(1, 2), (2, 2), (2, 3), (1, 3)]
        hull = hull2d(square + [(1.5, 2.5)])
        assert hull.kind == "Polygon"
        assert len(hull.vertices) == 4
        assert math.isclose(hull.diameter(), math.sqrt(2), rel_tol=1e-12)

    def test_collinear(self):
        hull = hull2d([(0.0, 1.0), (0.0, 2.0), (0.0, 3.0)])
        assert hull.kind == "Segment"
        assert math.isclose(hull.diameter(), 2.0, rel_tol=1e-12)

    def test_single_point(self):
        hull = hull2d([(0.5, 1.0)])
        assert hull.kind == "Point"

    def test_no_points_is_a_typed_error(self):
        for empty in ([], np.empty((0, 2))):
            with pytest.raises(InvalidHullPoints, match="at least one point"):
                hull2d(empty)

    @pytest.mark.parametrize(
        "points, shape",
        [(np.full((4, 3), 0.5), (4, 3)), (np.full((4, 1), 0.5), (4, 1)), (np.full(4, 0.5), (4,)), ([(0.5,), (1.0,)], (2, 1)),
         ([(0.5, 1.0, 0.0), (1.0, 3.0, 0.0)], (2, 3)), ([0.5, 1.0], (2,))],
        ids=["array-4x3", "array-4x1", "array-1d", "one-tuples", "triples", "flat-list"],
    )
    def test_points_that_are_not_n_by_2_are_refused_naming_the_shape(self, points, shape):
        # an (n, 3) array was once read as its first two columns, and (n, 1)
        # or 1-D input raised an IndexError
        with pytest.raises(InvalidHullPoints, match=re.escape(f"points of shape {shape} are not (n, 2)")):
            hull2d(points)

    def test_points_of_different_lengths_are_refused(self):
        with pytest.raises(InvalidHullPoints, match=re.escape("points are not (p, q) pairs")):
            hull2d([(0.5, 1.0), (1.0, 3.0, 0.0)])

    def test_point_outside_the_chamber_is_named(self):
        # p < 0 breaks l1 >= l2, q < p / sqrt(3) breaks l2 >= l3
        for outside in ((-0.5, 2.0), (2.0, 0.5)):
            with pytest.raises(InvalidHullPoints, match=re.escape(f"({outside[0]!r}, {outside[1]!r})")):
                hull2d([(0.5, 1.0), (1.0, 3.0), outside, (0.25, 1.5)])

    def test_non_finite_point_in_a_list_is_named(self):
        # numpy's reduction once raised a bare ValueError here
        with pytest.raises(InvalidHullPoints, match=re.escape("point 1 (p, q) = (nan, 2.0) is not finite")):
            hull2d([(0.1, 1.0), (math.nan, 2.0), (0.5, 3.0)])

    def test_non_finite_row_of_an_array_is_named(self):
        # a NaN row was once left out of the hull without a word
        pts = np.array([(0.1, 1.0), (0.5, 3.0), (0.2, 2.0), (0.3, 2.0)])
        for bad, name in ((math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf")):
            cloud = pts.copy()
            cloud[2, 1] = bad
            with pytest.raises(InvalidHullPoints, match=re.escape(f"point 2 (p, q) = (0.2, {name}) is not finite")):
                hull2d(cloud)

    def test_chamber_slack_is_the_spectrum_slack(self):
        # a wall point off by rounding is in the chamber, as for Spectrum
        hull = hull2d([(-1e-12, 1.0), (0.5, 1.0), (0.5, 2.0)])
        assert hull.kind == "Polygon"

    def test_collinear_off_root_contains_inputs(self):
        # direction (1, 2) in the embedding is parallel to no root
        pts = [(0.25 + t, 1.0 + 2 * t) for t in (0.0, 0.5, 1.25, 2.0)]
        hull = hull2d(pts)
        assert hull.kind == "Segment"
        for p, q in pts:
            assert hull.contains(chamber_to_spectrum_floats(p, q))

    def test_prefilter_keeps_large_cloud_hull(self):
        # the quickhull on the filtered points gives the vertices of the
        # quickhull on every point
        rng = np.random.default_rng(4)
        pts = np.abs(rng.standard_normal((20000, 2))) + (0.0, 1.0)
        pts = np.concatenate([pts, np.round(pts[:500] * 64) / 64])
        scale = float(np.abs(pts).max())
        kept = pts[polytope._extreme_point_filter(pts[:, 0], pts[:, 1], 1e-9 * scale**2)]
        assert len(kept) < 1000
        assert np.array_equal(polytope._quickhull(kept, 1e-9 * scale), polytope._quickhull(pts, 1e-9 * scale))

    def test_integer_array_is_read_as_floats(self):
        pts = [(0, 1), (1, 3), (2, 5), (0, 4), (1, 6), (1, 4)]
        assert hull2d(np.array(pts)) == hull2d(np.array(pts, dtype=float))

    def test_object_array_of_real_numbers_is_read_as_floats(self):
        # an object array of ints once raised AttributeError on .item()
        pts = [(0, 1), (1, 3), (2, 5), (0, 4), (1, 6), (1, 4)]
        expected = hull2d(np.array(pts, dtype=float))
        for points in (np.array(pts, dtype=object), np.array([(F(p), F(q)) for p, q in pts], dtype=object), [(F(p), F(q)) for p, q in pts]):
            assert hull2d(points) == expected

    @pytest.mark.parametrize(
        "points, message",
        [
            (np.array([(False, True), (True, True), (False, True)]), "points of dtype bool are not real numbers"),  # once numpy's TypeError
            (np.array([(0.5, 1.0), (1.0, 3.0)], dtype=complex), "points of dtype complex128 are not real numbers"),  # once a TypeError
            (np.array([("0.5", "1.0"), ("1.0", "3.0")]), "points of dtype <U3 are not real numbers"),  # once UFuncTypeError
            ([(False, True), (True, True), (False, True)], "points hold False, not a real number"),  # once a Segment
            ([(0.5, True), (1.0, 3.0)], "points hold True, not a real number"),  # once read as (0.5, 1.0)
            (np.array([(0.5, None), (1.0, 3.0)], dtype=object), "points hold None, not a real number"),
            (np.array([(0.5, True), (1.0, 3.0)], dtype=object), "points hold True, not a real number"),
        ],
        ids=["bool-array", "complex-array", "str-array", "bool-pairs", "mixed-bool-pairs", "object-none", "object-bool"],
    )
    def test_points_that_are_not_real_numbers_are_refused_naming_the_dtype_or_entry(self, points, message):
        with pytest.raises(InvalidHullPoints, match=f"^{re.escape(message)}$"):
            hull2d(points)

    def test_nearly_coincident_corners_are_merged(self):
        # the largest x and the largest x + y are two points 1e-10 apart, as
        # in a targeted cluster: no cross product along the edge between
        # them exceeds eps_abs, so unmerged they would keep every point
        rng = np.random.default_rng(12)
        angle, radius = 2.0 * np.pi * rng.random(5000), 0.3 * np.sqrt(rng.random(5000))
        disk = np.stack([0.6 + radius * np.cos(angle), 0.9 + radius * np.sin(angle)], axis=1)
        pts = np.concatenate([disk, [(1.0, 1.0), (1.0 - 5e-11, 1.0 + 1e-10)]])
        x, y = pts[:, 0].copy(), pts[:, 1].copy()
        assert x.argmax() == 5000 and (x + y).argmax() == 5001
        scale = float(np.abs(pts).max())
        kept = polytope._extreme_point_filter(x, y, 1e-9 * scale**2)
        assert len(kept) < len(pts) // 5 and {5000, 5001} <= set(kept.tolist())
        every = polytope._quickhull(pts, 1e-9 * scale)
        assert np.array_equal(polytope._quickhull(pts[kept], 1e-9 * scale), every)
        assert [v.astuple() for v in hull2d(pts).vertices] == [chamber_to_spectrum_floats(*v) for v in every.tolist()]

    def test_pooled_verify_cloud_has_one_hull(self):
        # the uniform rows of verify((4, 2, -1), 1e5, seed 7) pooled with
        # Gaussian clusters near the anchors, at verify's power of two: an
        # area tolerance gave 10 vertices with the filter and 10 others
        # without it
        w, seed = (4, 2, -1), 7
        uniform = oracle._draw_spectra(*oracle._float_weights(w), 100_000, seed)[0]
        pq = oracle.chamber_points_of_spectra(np.concatenate([uniform, gaussian_anchor_spectra(w, 500, seed)]) / 8)
        scale = float(np.abs(pq).max())
        kept = pq[polytope._extreme_point_filter(pq[:, 0], pq[:, 1], 1e-9 * scale**2)]
        assert len(kept) < 0.02 * len(pq)
        got = polytope._quickhull(kept, 1e-9 * scale)
        assert np.array_equal(got, polytope._quickhull(pq, 1e-9 * scale))
        assert len(got) == 23
        assert [v.astuple() for v in hull2d(pq).vertices] == [chamber_to_spectrum_floats(*v) for v in got.tolist()]
        rows = {tuple(r) for r in pq.tolist()}
        assert all(tuple(v) in rows for v in got.tolist())

    def test_ten_thousand_points_on_a_circle(self):
        # every point is a vertex; the chords wait on a stack, not in recursion
        angles = 2.0 * np.pi * np.arange(10_000) / 10_000
        pts = np.stack([2.0 + np.cos(angles), 4.0 + np.sin(angles)], axis=1)
        got = polytope._quickhull(pts, 1e-9 * 5.0)
        assert len(got) == 10_000
        assert sorted(map(tuple, got.tolist())) == sorted(map(tuple, pts.tolist()))
        assert np.array_equal(polytope._quickhull(pts[::-1], 1e-9 * 5.0), got)

    @pytest.mark.parametrize("gammas", [x[0] for x in N2_FIXTURES])
    def test_two_factor_clouds_give_the_lexicographic_extremes(self, gammas):
        # a two-factor cloud lies on a segment about 1e-15 wide, inside the
        # distance tolerance: the hull is [p0, p1], filtered or not
        pts = sample_batch(gammas, 20000, 4).chamber_points
        scale = float(np.abs(pts).max())
        ends = [min(map(tuple, pts.tolist())), max(map(tuple, pts.tolist()))]
        assert polytope._quickhull(pts, 1e-9 * scale).tolist() == [list(p) for p in ends]
        kept = pts[polytope._extreme_point_filter(pts[:, 0], pts[:, 1], 1e-9 * scale**2)]
        assert polytope._quickhull(kept, 1e-9 * scale).tolist() == [list(p) for p in ends]
        hull = hull2d(pts)
        assert hull.kind == "Segment"
        assert [v.astuple() for v in hull.vertices] == [chamber_to_spectrum_floats(*p) for p in ends]

    def test_distance_tolerance_bound(self):
        # the chord from (0, 0) to (1, 0) has length 1 and the scale is 1, so
        # a point is a vertex exactly when it lies more than 1e-9 off it
        tol = 1e-9
        for h, polygon in ((tol * (1 - 1e-6), False), (tol * (1 + 1e-6), True)):
            pts = np.array([(0.0, 0.0), (0.25, -h), (0.5, h), (1.0, 0.0)])
            got = polytope._quickhull(pts, tol).tolist()
            assert got == ([[0.0, 0.0], [0.25, -h], [1.0, 0.0], [0.5, h]] if polygon else [[0.0, 0.0], [1.0, 0.0]])
            pts = np.array([(0.0, 1.0), (0.25, 1.0 - h), (0.5, 1.0 + h), (1.0, 1.0)])
            assert hull2d(pts).kind == ("Polygon" if polygon else "Segment")


def exact_hull_vertices(points):
    """Brute-force hull vertices of integer points.

    (a, b) is a counterclockwise hull edge when no point lies to its right
    and the points on its line lie between a and b; the vertices are the
    edge endpoints.
    """
    pts = sorted(set(points))
    if len(pts) == 1:
        return set(pts)
    out = set()
    for a in pts:
        for b in pts:
            if a == b:
                continue
            ab = (b[0] - a[0], b[1] - a[1])
            length2 = ab[0] * ab[0] + ab[1] * ab[1]
            for x in pts:
                ax = (x[0] - a[0], x[1] - a[1])
                cross = ab[0] * ax[1] - ab[1] * ax[0]
                if cross < 0 or (cross == 0 and not 0 <= ab[0] * ax[0] + ab[1] * ax[1] <= length2):
                    break
            else:
                out |= {a, b}
    return out


coord = st.integers(0, 40)
point = st.tuples(coord, coord)
random_clouds = st.lists(point, min_size=1, max_size=40)
with_duplicates = st.lists(point, min_size=1, max_size=10).map(lambda pts: pts * 3)
collinear = st.builds(
    lambda a, d, ts: [(a[0] + t * d[0], a[1] + t * d[1]) for t in ts],
    point,
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    st.lists(st.integers(0, 8), min_size=1, max_size=20),
)
single_point = point.map(lambda p: [p])
fewer_than_directions = st.lists(point, min_size=1, max_size=7)  # the prefilter has 8 directions
on_wall = st.builds(lambda ys, rest: [(0, y) for y in ys] + rest, st.lists(coord, min_size=1, max_size=30), st.lists(point, max_size=5))


class TestHullPrefilter:
    @settings(max_examples=150, deadline=None)
    @given(st.one_of(random_clouds, with_duplicates, collinear, single_point, fewer_than_directions, on_wall))
    def test_matches_brute_force(self, points):
        # coordinates k/8 put every point off a chord more than 1/500 away
        # or exactly on it, so the tolerance cannot decide a vertex and the
        # exact hull is the reference; the grid is not inside the chamber,
        # so hull2d's two stages are called directly
        arr = np.array(points, dtype=float) / 8
        got = [tuple(v) for v in polytope._quickhull(arr[polytope._extreme_point_filter(arr[:, 0], arr[:, 1], 1e-9)], 1e-9).tolist()]
        assert got == [tuple(v) for v in polytope._quickhull(arr, 1e-9).tolist()]
        assert {(round(x * 8), round(y * 8)) for x, y in got} == exact_hull_vertices(points)
        assert len(got) == len(set(got))
        if len(got) > 2:  # strictly convex, counterclockwise
            for o, p, q in zip(got, got[1:] + got[:1], got[2:] + got[:2]):
                assert (p[0] - o[0]) * (q[1] - o[1]) - (p[1] - o[1]) * (q[0] - o[0]) > 0


thin_clouds = st.builds(
    lambda angle, pts: [(1 + u * math.cos(angle) - v * math.sin(angle), 1 + u * math.sin(angle) + v * math.cos(angle)) for u, v in pts],
    st.floats(0, 2 * math.pi),
    st.lists(st.tuples(st.floats(0, 4), st.floats(-1e-10, 1e-10)), min_size=2, max_size=40),
)


class TestHullScaling:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([(4, 2, -1), (1, 1, 1), (2, 1, -4), (2, 1)]), st.integers(0, 10**6), st.integers(-12, 12))
    def test_hull_of_scaled_cloud_is_scaled_hull(self, gammas, seed, k):
        # hull2d's tolerance is relative to the cloud's own scale, with no
        # absolute floor, so hull2d(t * cloud) = t * hull2d(cloud)
        cloud = sample_batch(gammas, 2000, seed).chamber_points
        t = 10.0**k
        ref = hull2d(cloud)
        got = hull2d(t * cloud)
        assert got.kind == ref.kind
        assert len(got.vertices) == len(ref.vertices)
        bound = 1e-12 * t * float(np.abs(cloud).max())
        for u, v in zip(got.pq_vertices(), ref.pq_vertices()):
            assert abs(u.p - t * v.p) <= bound and abs(u.q - t * v.q) <= bound


class TestQuickhull:
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(thin_clouds, random_clouds.map(lambda pts: [(x / 8, y / 8) for x, y in pts])))
    def test_clouds_within_the_tolerance_of_a_chord_give_its_ends(self, points):
        # the hull is [p0, p1], the lexicographic extremes, exactly when every
        # point lies within the tolerance of the chord p0 p1 (decided here in
        # rationals); its vertices are always points of the cloud
        arr = np.array(points, dtype=float)
        tol = 1e-9 * float(np.abs(arr).max())
        got = [tuple(v) for v in polytope._quickhull(arr, tol).tolist()]
        p0, p1 = min(points), max(points)
        if p0 == p1:
            assert got == [p0]
            return
        assert got[0] == p0 and p1 in got and set(got) <= set(points)
        (ax, ay), (bx, by) = (tuple(map(F, p)) for p in (p0, p1))
        crosses = ((bx - ax) * (F(y) - ay) - (by - ay) * (F(x) - ax) for x, y in points)
        worst = max(c * c for c in crosses) / ((bx - ax) ** 2 + (by - ay) ** 2)
        if worst < F(tol) ** 2 * (1 - F(1, 10**6)):
            assert got == [p0, p1]
        elif worst > F(tol) ** 2 * (1 + F(1, 10**6)):
            assert len(got) > 2

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(random_clouds, with_duplicates, on_wall), st.integers(1, 30), st.integers(0, 2**32 - 1))
    def test_interior_points_leave_the_vertices_unchanged(self, points, count, seed):
        arr = np.array(points, dtype=float) / 8
        ref = polytope._quickhull(arr, 1e-9 * float(np.abs(arr).max()))
        if len(ref) < 3:
            return
        # convex combinations of the vertices with every weight bounded away
        # from 0 lie strictly inside; they go in at random places
        rng = np.random.default_rng(seed)
        w = rng.random((count, len(ref))) + 0.05
        inner = (w / w.sum(axis=1, keepdims=True)) @ ref
        cloud = np.insert(arr, np.sort(rng.integers(0, len(arr) + 1, count)), inner, axis=0)
        assert np.array_equal(polytope._quickhull(cloud, 1e-9 * float(np.abs(cloud).max())), ref)


class TestDistances:
    SHAPES = [(4, 2, -1), (1, 1, 1), (-5, 20, 10), (3, -1, -2), (2, 1), (1, -1), (1, 1), (4, 0, 0), (0, 0, 0)]

    @pytest.mark.parametrize("gammas", SHAPES)
    def test_distance_is_the_loop(self, gammas):
        # points inside, on every edge, at every vertex and outside the
        # polygons, segments and points
        P = build_polytope(gammas)
        corners = [(c.p, c.q) for c in P.pq_vertices()]
        verts = np.array(corners)
        rng = np.random.default_rng(17)
        lo, hi = verts.min(axis=0) - 1.0, verts.max(axis=0) + 1.0
        ends = np.roll(verts, -1, axis=0)
        t = rng.random((len(verts), 4))[:, :, None]
        on_edges = (verts[:, None, :] + t * (ends - verts)[:, None, :]).reshape(-1, 2)
        points = np.concatenate([verts, verts.mean(axis=0, keepdims=True), on_edges, lo + (hi - lo) * rng.random((200, 2))]).tolist()
        got = [distance_to_polytope_pq(p, P) for p in points]
        want = [distance_loop(p, corners) for p in points]
        assert all(type(d) is float for d in got)
        assert got == want
        assert polytope._farthest(points, corners) == max(want)
        # a ChamberPoint, as pq_vertices gives, once raised a bare TypeError
        assert [distance_to_polytope_pq(c, P) for c in P.pq_vertices()] == [0.0] * len(verts)
        # a point past float range is at an infinite distance; it once raised a bare OverflowError
        assert distance_to_polytope_pq((10**400, 0), P) == math.inf
        if P.kind == "Polygon":
            assert got[len(verts)] == 0.0
            assert not any(got[: len(verts)])

    def test_polygon_fallen_together_has_no_inside(self):
        # vertices that fell together, as below float range, or onto one line
        # once put every point, or every point of their line, inside
        for points, verts in FALLEN_TOGETHER:
            assert [polytope._farthest([p], verts) for p in points] == [distance_loop(p, verts) for p in points] == [1.0, 0.0]
            assert polytope._farthest(points, verts) == 1.0

    @pytest.mark.parametrize("point, k", [((math.nan, 1.0), 0), ((1.0, math.inf), 1), ((True, 1.0), 0)], ids=repr)
    def test_point_that_is_no_finite_real_is_named(self, point, k):
        # a NaN point was once at distance 0.0
        with pytest.raises(InvalidWeight, match=f"^point coordinate {k} is {re.escape(repr(point[k]))}, not"):
            distance_to_polytope_pq(point, build_polytope((4, 2, -1)))

    @pytest.mark.parametrize("point", [(1.0,), (1.0, 2.0, 3.0), ()], ids=repr)
    def test_point_of_other_than_two_entries_is_refused(self, point):
        # (1.0,) once raised an IndexError, and a third entry was ignored
        with pytest.raises(LengthMismatch, match=re.escape(f"point has {len(point)} entries, not (p, q)")):
            distance_to_polytope_pq(point, build_polytope((4, 2, -1)))

    @pytest.mark.parametrize(
        "call, name, operand",
        [
            (lambda P: hausdorff(P, None), "Q", None),
            (lambda P: hausdorff(P, (1, 2, 3)), "Q", (1, 2, 3)),
            (lambda P: hausdorff(None, P), "P", None),
            (lambda P: distance_to_polytope_pq((1.0, 2.0), None), "P", None),
        ],
        ids=["hausdorff-None", "hausdorff-tuple", "hausdorff-first-None", "distance-None"],
    )
    def test_operand_that_is_no_polytope_is_named(self, call, name, operand):
        # each once raised a bare AttributeError on '_own_scale'
        with pytest.raises(NotAPolytope, match=f"^{name} is {re.escape(repr(operand))}, not a ChamberPolytope$"):
            call(build_polytope((4, 2, -1)))
        assert issubclass(NotAPolytope, ValueError)

    def test_hausdorff_is_the_loop_over_vertices(self):
        P, Q = build_polytope((4, 2, -1)), build_polytope((3, -1, -2))
        p, q = ([(c.p, c.q) for c in R.pq_vertices()] for R in (P, Q))
        want = max(max(distance_loop(v, q) for v in p), max(distance_loop(v, p) for v in q))
        assert hausdorff(P, Q) == want


#: The two fallen-together polygons: vertices that coincide, as below float
#: range, and vertices on one line, each with a point off them and one on them.
FALLEN_TOGETHER = [
    ([(1.0, 0.0), (0.0, 0.0)], [(0.0, 0.0)] * 3),
    ([(3.0, 0.0), (1.5, 0.0)], [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]),
]


def _convex_polygon(rnd):
    """Counterclockwise vertices of a random convex polygon of 3 to 9 corners."""
    cx, cy, r = rnd.uniform(-3, 3), rnd.uniform(-3, 3), rnd.uniform(0.01, 4)
    angles = sorted(rnd.uniform(0, 2 * math.pi) for _ in range(rnd.randint(3, 9)))
    verts = [(cx + r * math.cos(a), cy + r * math.sin(a)) for a in angles]
    return verts if len(set(verts)) == len(verts) and len(polytope._quickhull(np.array(verts), 0.0)) == len(verts) else None


def _probe_points(rnd, verts):
    """Points at the vertices, on the edges, inside (convex combinations with
    every weight bounded away from 0) and around ``verts``, by group."""
    n = len(verts)
    ends = verts[1:] + verts[:1] if n > 2 else verts[1:] or verts
    on_edges = [(ax + t * (bx - ax), ay + t * (by - ay)) for (ax, ay), (bx, by) in zip(verts, ends) for t in (rnd.random(), rnd.random())]
    weights = [[rnd.random() + 0.05 for _ in verts] for _ in range(4)]
    inside = [tuple(sum(w * v[k] for w, v in zip(ws, verts)) / sum(ws) for k in (0, 1)) for ws in weights]
    xs, ys = [x for x, _ in verts], [y for _, y in verts]
    around = [(rnd.uniform(min(xs) - 2, max(xs) + 2), rnd.uniform(min(ys) - 2, max(ys) + 2)) for _ in range(12)]
    return list(verts), on_edges, inside, around


class TestFarthest:
    """``_farthest`` is the largest of the scalar reference loop's distances, bit for bit."""

    @staticmethod
    def shapes(rnd):
        atlas = [[(c.p, c.q) for c in build_polytope(g).pq_vertices()] for g in [(4, 2, -1), (7, 6, -8), (5, 4, 3), (2, 1), (1, -1), (1, 1, 1), (3, 0, 0)]]
        yield from atlas
        for _ in range(150):
            kind = rnd.randrange(3)
            if kind == 0:
                verts = _convex_polygon(rnd)
                if verts:
                    yield verts
            else:
                yield [(rnd.uniform(-4, 4), rnd.uniform(-4, 4)) for _ in range(kind)]  # a point or a segment

    def test_farthest_is_the_largest_loop_distance(self):
        rnd = random.Random(2029)
        checked = Counter()
        for verts in self.shapes(rnd):
            at, on, inside, around = _probe_points(rnd, verts)
            if len(verts) > 2:
                # a polygon's inside is at distance 0, and so are its vertices
                assert [distance_loop(p, verts) for p in at + inside] == [0.0] * (len(at) + len(inside))
            for points in (at, on, inside, around, at + on + inside + around):
                points = rnd.sample(points, len(points))
                want = [distance_loop(p, verts) for p in points]
                got = polytope._farthest(points, verts)
                assert type(got) is float and got == max(want), verts
                # every suffix and every single point, so the largest so far differs at each start
                assert [polytope._farthest(points[k:], verts) for k in range(len(points))] == [max(want[k:]) for k in range(len(points))]
                assert [polytope._farthest([p], verts) for p in points] == want
            checked[min(len(verts), 3)] += 1
        for points, verts in FALLEN_TOGETHER:
            assert polytope._farthest(points, verts) == max(distance_loop(p, verts) for p in points) == 1.0
        assert checked[1] > 20 and checked[2] > 20 and checked[3] > 40

    def test_a_point_on_a_segments_line_is_never_inside_it(self):
        # the two segments run from one end along one line, sqrt(2) apart at
        # the far ends; rounding puts the far end of Q left of both of P's
        # edges, which an inside test on a segment read as inside it
        P, Q = build_polytope((2, -3)), build_polytope((3, -4))
        p, q = ([(c.p, c.q) for c in R.pq_vertices()] for R in (P, Q))
        assert p[0] == q[0] and polytope._farthest(q[1:], p) == distance_loop(q[1], p)
        assert math.isclose(hausdorff(P, Q), math.sqrt(2), rel_tol=1e-12) and hausdorff(P, Q) == hausdorff(Q, P)

    def test_hausdorff_is_symmetric_and_zero_on_itself(self):
        rnd = random.Random(7)
        polys = [build_polytope(g) for g in TRANSITION_GRID[::7]] + [build_polytope(g) for g in [(2, 1), (1, -1), (3, 0, 0)]]
        polys += [hull2d([(1, 2), (2, 2), (2, 3), (1, 3)]), hull2d([(1, 2), (2, 3)])]
        for P in polys:
            assert hausdorff(P, P) == 0.0, P
        # each end of a segment lies on its own edge's start, so no rounding
        # moves it off itself; 24 of these were once a few ulp from zero
        segments = [P for P in map(build_polytope, itertools.product(range(-4, 5), repeat=3)) if P.kind == "Segment"]
        assert len(segments) == 192
        assert [hausdorff(P, P) for P in segments] == [0.0] * 192
        for _ in range(300):
            P, Q = rnd.choice(polys), rnd.choice(polys)
            assert hausdorff(P, Q) == hausdorff(Q, P)


GENERIC_LABELS = {t.value for t in GENERIC_N3} | {"GenA", "GenB", "GenC", "GenD"}
#: every canonical weight of the grid below (sorted, sum >= 0) on a transition
CANONICAL_TRANSITIONS = [
    g
    for g in itertools.product(range(-4, 5), repeat=3)
    if any(g) and g[0] >= g[1] >= g[2] and sum(g) >= 0 and build_polytope(g).label not in GENERIC_LABELS
]
# every nonzero integer weight in [-4, 4]^3: all 27 nonzero labels, every
# transition and the two-factor shapes of weights with a zero entry
TRANSITION_GRID = [g for g in itertools.product(range(-4, 5), repeat=3) if any(g)]
rational = st.fractions(min_value=-12, max_value=12, max_denominator=6)
weights = st.one_of(st.sampled_from(TRANSITION_GRID), st.tuples(rational, rational, rational).filter(any))


class TestScaling:
    """P(t*gamma) = t*P(gamma) for t > 0, exactly and in floating point."""

    @staticmethod
    def assert_float_build_is_scaled(g, k):
        t = F(10) ** k
        ref = build_polytope(g)
        poly = build_polytope(tuple(float(t * x) for x in g))
        assert (poly.label, poly.starred) == (ref.label, ref.starred)
        bound = 1e-12 * float(t * max(abs(x) for x in g))
        assert len(poly.vertices) == len(ref.vertices)
        for u, v in zip(poly.vertices, ref.vertices):
            assert all(abs(float(a) - float(t * b)) <= bound for a, b in zip(u, v))

    @settings(max_examples=300, deadline=None)
    @given(weights, st.integers(-12, 12))
    def test_float_label_and_vertices_at_every_scale(self, g, k):
        self.assert_float_build_is_scaled(g, k)

    def test_every_canonical_transition_at_every_scale(self):
        # float weights on a transition snap onto it and build the transition's
        # own polygon, with no vertex too many or too few at any scale
        assert len(CANONICAL_TRANSITIONS) == 68
        for g in CANONICAL_TRANSITIONS:
            for k in range(-12, 13):
                self.assert_float_build_is_scaled(g, k)

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("g", list(itertools.permutations((-4, -3, -1))))
    def test_ef_example_in_every_order(self, g, sign):
        # (-4, -3, -1) is EF, whose polygon has 4 vertices; its float copies
        # at 1e-12 once built 5
        self.assert_float_build_is_scaled(tuple(sign * x for x in g), -12)

    @settings(max_examples=150, deadline=None)
    @given(weights, st.fractions(min_value=F(1, 1000), max_value=1000).filter(lambda t: t > 0))
    def test_exact_scaling(self, g, t):
        ref = build_polytope(g)
        poly = build_polytope(tuple(t * x for x in g))
        assert poly.label == ref.label
        assert [v.astuple() for v in poly.vertices] == [tuple(t * x for x in v) for v in ref.vertices]


#: One 100-step sweep across each transition wall that the benchmark's
#: sweeps cross, B|A, C|H, E|F, F|G and C|E, from start to end: the label
#: at each end and the wall's label at the middle step.
HAUSDORFF_SWEEPS = [
    ((F(7, 2), 2, 1), (F(5, 2), 2, 1), ("B", "AB", "A")),
    ((6, 3, -2), (4, 3, -2), ("C", "CH", "H")),
    ((F(17, 2), 3, -4), (F(11, 2), 3, -4), ("E", "EF", "F")),
    ((5, 3, -4), (5, 3, -6), ("F", "FG", "G")),
    ((3, 1, F(-1, 2)), (3, 1, F(-3, 2)), ("C", "CE", "E")),
]

#: sha256 of ``float.hex`` of :func:`hausdorff` over every consecutive pair of
#: ``HAUSDORFF_SWEEPS``, then of ``verify(w, 2000, 0).hausdorff_inner`` for
#: (4, 2, -1) and (7, 6, -8).  Pinned on the kernel that took every point's
#: distance to every edge and kept every distance.
HAUSDORFF_DIGEST = "d832934009c363734c96777bece38c37b3ea8e7e1ee18ada2ad9b5ffbde96512"


class TestHausdorff:
    def test_outputs_match_the_pinned_digest(self):
        h = hashlib.sha256()
        for start, end, labels in HAUSDORFF_SWEEPS:
            polys = [build_polytope(tuple(a + F(i, 100) * (b - a) for a, b in zip(start, end))) for i in range(101)]
            assert (polys[0].label, polys[50].label, polys[100].label) == labels
            for P, Q in zip(polys, polys[1:]):
                h.update(hausdorff(P, Q).hex().encode())
        for w in [(4, 2, -1), (7, 6, -8)]:
            h.update(oracle.verify(w, 2000, 0).hausdorff_inner.hex().encode())
        assert h.hexdigest() == HAUSDORFF_DIGEST

    def test_identity(self):
        poly = build_polytope_n3((4, 2, -1))
        assert hausdorff(poly, poly) == 0.0

    def test_shifted_square(self):
        sq1 = hull2d([(1, 2), (2, 2), (2, 3), (1, 3)])
        sq2 = hull2d([(1.1, 2), (2.1, 2), (2.1, 3), (1.1, 3)])
        assert math.isclose(hausdorff(sq1, sq2), 0.1, rel_tol=1e-9)

    def test_point_in_polygon(self):
        poly = build_polytope_n3((1, 1, 1))
        pt = point_polytope(Spectrum(1, 0, -1))
        d = hausdorff(poly, pt)
        expected = max(to_chamber(Spectrum(1, 0, -1)).distance(c) for c in poly.pq_vertices())
        assert math.isclose(d, expected, rel_tol=1e-12)

    def test_chamber_points_are_converted_once_per_polytope(self):
        poly = build_polytope_n3((4, 2, -1))
        pts = poly.pq_vertices()
        assert pts is poly.pq_vertices() and isinstance(pts, tuple)
        assert pts == tuple(to_chamber(v) for v in poly.vertices)
        assert poly.star().pq_vertices() == tuple(to_chamber(v) for v in poly.star().vertices)


class TestSerialization:
    def test_exact_roundtrip(self):
        poly = build_polytope_n3((4, 2, -1))
        data = json.loads(json.dumps(poly.to_json_dict()))
        back = ChamberPolytope.from_json_dict(data)
        assert back.vertices == poly.vertices
        assert back.label == poly.label and back.starred == poly.starred
        assert [(a, b, F(c, back.den), p) for a, b, c, p in back.lines] == [(a, b, F(c, poly.den), p) for a, b, c, p in poly.lines]

    def test_float_roundtrip_tolerance(self):
        poly = build_polytope_n3((1.5, 1.0, -0.25))
        back = ChamberPolytope.from_json_dict(json.loads(json.dumps(poly.to_json_dict())))
        for u, v in zip(back.vertices, poly.vertices):
            assert max(abs(float(a) - float(b)) for a, b in zip(u, v)) < 1e-12

    @pytest.mark.parametrize("normal", [(0, 0, 0), (1, 1, 1), ("-2/3", "-2/3", "-2/3")])
    def test_normal_that_vanishes_on_the_plane_is_refused_when_read(self, normal):
        data = build_polytope_n3((4, 2, -1)).to_json_dict()
        data["halfplanes"][3]["normal"] = list(normal)
        read = tuple(F(x) if isinstance(x, str) else x for x in normal)
        with pytest.raises(InvalidHalfPlane, match=re.escape(f"normal {read} vanishes on the sum-zero plane")):
            ChamberPolytope.from_json_dict(data)

    @pytest.mark.parametrize(
        "path, value, error, message",
        [
            (("vertices", 1, 0), True, InvalidWeight, "vertex 1 entry 0 is True"),
            (("vertices", 0, 2), "1/0", InvalidWeight, "vertex 0 entry 2 is '1/0'"),
            (("vertices", 2, 1), math.nan, InvalidWeight, "vertex 2 entry 1 is nan"),
            (("vertices", 2), [1, -1], LengthMismatch, "vertex 2 has 2 entries, not 3"),
            (("halfplanes", 3, "normal", 1), False, InvalidHalfPlane, "half-plane 3 normal entry 1 is False"),
            (("halfplanes", 3, "normal", 0), "abc", InvalidHalfPlane, "half-plane 3 normal entry 0 is 'abc'"),
            (("halfplanes", 3, "normal", 2), -math.inf, InvalidHalfPlane, "half-plane 3 normal entry 2 is -inf"),
            (("halfplanes", 3, "normal"), [1, -1], InvalidHalfPlane, "half-plane 3 normal has 2 entries, not 3"),
            (("halfplanes", 2, "offset"), True, InvalidHalfPlane, "half-plane 2 offset is True"),
            (("halfplanes", 2, "offset"), math.nan, InvalidHalfPlane, "half-plane 2 offset is nan"),
            (("halfplanes", 2, "offset"), math.inf, InvalidHalfPlane, "half-plane 2 offset is inf"),
            (("halfplanes", 2, "offset"), "1/0", InvalidHalfPlane, "half-plane 2 offset is '1/0'"),
            (("halfplanes", 2, "offset"), "abc", InvalidHalfPlane, "half-plane 2 offset is 'abc'"),
            (("halfplanes", 2, "offset"), None, InvalidHalfPlane, "half-plane 2 offset is None"),
        ],
    )
    def test_entry_that_is_no_finite_number_is_refused_naming_its_field(self, path, value, error, message):
        # read through json, which writes and reads NaN and the infinities
        data = json.loads(json.dumps(build_polytope_n3((4, 2, -1)).to_json_dict()))
        entry = data
        for key in path[:-1]:
            entry = entry[key]
        entry[path[-1]] = value
        with pytest.raises(error, match=f"^{re.escape(message)}"):
            ChamberPolytope.from_json_dict(json.loads(json.dumps(data)))

    @pytest.mark.parametrize(
        "change, error, message",
        [
            (lambda d: d.pop("halfplanes"), InvalidPolytopeDocument, "halfplanes is None, not a list"),
            (lambda d: d.pop("vertices"), InvalidPolytopeDocument, "vertices is None, not a list"),
            (lambda d: d.update(vertices=5), InvalidPolytopeDocument, "vertices is 5, not a list"),
            (lambda d: d["vertices"].__setitem__(1, 5), InvalidPolytopeDocument, "vertex 1 is 5, not a list"),
            (lambda d: d.update(halfplanes=[1]), InvalidHalfPlane, "half-plane 0 is 1, not an object"),
            (lambda d: d["halfplanes"][2].pop("offset"), InvalidHalfPlane, "half-plane 2 offset is None"),
            (lambda d: d["halfplanes"][2].pop("normal"), InvalidHalfPlane, "half-plane 2 normal is None, not a list"),
            (lambda d: d["halfplanes"][2].update(normal=4), InvalidHalfPlane, "half-plane 2 normal is 4, not a list"),
            (lambda d: d.update(kind="Blob"), InvalidPolytopeDocument, "kind is 'Blob', not Point, Segment or Polygon"),
            (lambda d: d.pop("kind"), InvalidPolytopeDocument, "kind is None, not Point, Segment or Polygon"),
            (lambda d: d.update(kind="Point"), InvalidPolytopeDocument, "kind is 'Point', which does not hold 4 vertices"),
            (lambda d: d.update(kind="Segment"), InvalidPolytopeDocument, "kind is 'Segment', which does not hold 4 vertices"),
            (lambda d: d.update(vertices=[]), InvalidPolytopeDocument, "kind is 'Polygon', which does not hold 0 vertices"),
            (lambda d: d.update(starred="false"), InvalidPolytopeDocument, "starred is 'false', not a bool"),
            (lambda d: d.update(starred=0), InvalidPolytopeDocument, "starred is 0, not a bool"),
            (lambda d: d.update(label=7), InvalidPolytopeDocument, "label is 7, not a string or null"),
            (lambda d: d["halfplanes"][2].update(provenance=None), InvalidHalfPlane, "half-plane 2 provenance is None, not a string"),
            (lambda d: d["halfplanes"][2].update(provenance=3), InvalidHalfPlane, "half-plane 2 provenance is 3, not a string"),
            (lambda d: d["vertices"].__setitem__(1, ["10", "-5", "-5"]), InvalidPolytopeDocument, "vertex 1 (10, -5, -5) is outside the document's half-planes"),
        ],
        ids=["no halfplanes", "no vertices", "vertices 5", "vertex 5", "halfplane 1", "no offset", "no normal", "normal 4", "kind Blob", "no kind", "Point of 4", "Segment of 4", "Polygon of 0", "starred string", "starred 0", "label 7", "provenance None", "provenance 3", "vertex outside"],
    )
    def test_document_of_the_wrong_shape_is_refused_naming_its_field(self, change, error, message):
        data = json.loads(json.dumps(build_polytope_n3((4, 2, -1)).to_json_dict()))
        change(data)
        with pytest.raises(error, match=f"^{re.escape(message)}"):
            ChamberPolytope.from_json_dict(data)

    def test_missing_provenance_label_and_starred_read_as_their_defaults(self):
        data = json.loads(json.dumps(build_polytope_n2((4, -1)).to_json_dict()))
        for key in ("label", "starred"):
            data.pop(key)
        for h in data["halfplanes"]:
            h.pop("provenance")
        back = ChamberPolytope.from_json_dict(data)
        assert (back.label, back.starred, back.kind) == (None, False, "Segment")
        assert {p for *_, p in back.lines} == {""}

    def test_document_that_is_no_object_is_refused(self):
        with pytest.raises(InvalidPolytopeDocument, match=re.escape("polytope is [1], not an object")):
            ChamberPolytope.from_json_dict([1])

    def test_views_are_the_stored_form_over_its_denominator(self):
        poly = build_polytope_n3((4, 2, -1))
        assert poly.vertices == tuple(Spectrum(*(F(x, poly.den) for x in v)) for v in poly.corners)
        for (a, b, c, p), h in zip(poly.lines, poly.to_json_dict()["halfplanes"], strict=True):
            n = [F(x) for x in h["normal"]]
            assert (n[0] - n[2], n[1] - n[2], F(h["offset"]), h["provenance"]) == (a, b, F(c, poly.den), p)
            assert sum(n) == 0
        assert poly.vertices is poly.vertices

    def test_star_of_the_stored_form(self):
        poly = build_polytope_n3((4, 2, -1))
        starred = poly.star()
        assert starred.starred and starred.label == poly.label and starred.den == poly.den
        assert [line[:3] for line in starred.lines] == [(a, a - b, c) for a, b, c, _ in poly.lines]
        assert [v.astuple() for v in starred.vertices] == [tuple(star_involution(v)) for v in poly.vertices[:1] + poly.vertices[:0:-1]]
        assert starred.star() == poly
        # built on (-4, -2, 1) itself: the same polygon and half-planes, in
        # another order, each under the name of its image
        built = build_polytope_n3((-4, -2, 1))
        assert (built.corners, built.den, built.label, built.starred) == (starred.corners, starred.den, starred.label, starred.starred)
        assert sorted(built.lines) == sorted(starred.lines)

    @pytest.mark.parametrize("w", sorted(POLYTOPE_FIXTURES), ids=str)
    def test_star_names_each_line_as_the_build_on_the_negated_weights(self, w):
        # the walls l1 = l2 and l2 = l3 trade names, and so do alpha1 and alpha3
        starred, built = build_polytope_n3(w).star(), build_polytope_n3(tuple(-g for g in w))
        assert starred.den == built.den
        assert set(starred.lines) == set(built.lines)

    def test_deterministic_serialization(self):
        a = json.dumps(build_polytope_n3((4, 2, -1)).to_json_dict(), sort_keys=True)
        b = json.dumps(build_polytope_n3((4, 2, -1)).to_json_dict(), sort_keys=True)
        assert a == b


#: sha256 of the JSON form of the exact polytope of every weight of
#: ``_digest_weights``, half-planes in the builder's order with the
#: provenance of the weights as given.
EXACT_DIGEST = "7b04e1fd8e0b16c55dd9fee8cdb433bf867abf200731b111fd627dd22533b2bf"

#: sha256 of what of each polytope of ``_digest_weights`` is the same in any
#: frame of the weights: label, starred flag, kind, denominator, the vertices
#: in order and the sorted (a, b, c) of the lines.  Pinned on the builder that
#: built on the canonical weights and star-reflected the result.
FRAME_FREE_DIGEST = "869292da5a9b0aa05aa8c6f11740bc7f08ec3a0987f4486cc4a5b01e04239945"

#: sha256 of the :func:`polytope_cones` views (``asdict``, None, or the
#: error type) of every weight of ``_digest_weights``, each also reversed and
#: negated: the non-extreme rays at b, the fold flags and the side normals
#: of non-canonical weights, which no polytope shows.  Pinned on the kernel
#: that decided each cone with polynomials of its own and reached a
#: negative total through the star involution.
CONES_DIGEST = "8b85dbb8db28e277e970345b2e7f9ebae07f224fc0870a2843c610f7c7e89e41"


def _digest_weights():
    rnd = random.Random(20261018)
    weights = [g for g in itertools.product(range(-5, 6), repeat=3) if all(g)]
    return weights + [random_rational_gammas(rnd) for _ in range(500)]


class TestExactBuilder:
    def test_outputs_match_the_pinned_digest(self):
        h = hashlib.sha256()
        for gammas in _digest_weights():
            try:
                out = build_polytope(gammas).to_json_dict()
            except ValueError as exc:
                out = {"error": type(exc).__name__}
            h.update(json.dumps(out, sort_keys=True).encode())
        assert h.hexdigest() == EXACT_DIGEST

    def test_frame_free_outputs_match_the_pinned_digest(self):
        h = hashlib.sha256()
        for gammas in _digest_weights():
            try:
                poly = build_polytope(gammas)
                out = {
                    "label": poly.label,
                    "starred": poly.starred,
                    "kind": poly.kind,
                    "den": poly.den,
                    "corners": [[str(x) for x in v] for v in poly.corners],
                    "lines": [[str(x) for x in line] for line in sorted(line[:3] for line in poly.lines)],
                }
            except ValueError as exc:
                out = {"error": type(exc).__name__}
            h.update(json.dumps(out, sort_keys=True).encode())
        assert h.hexdigest() == FRAME_FREE_DIGEST

    def test_cone_views_match_the_pinned_digest(self):
        h = hashlib.sha256()
        for gammas in _digest_weights():
            for w in (gammas, gammas[::-1], tuple(-g for g in gammas)):
                try:
                    out = {name: None if cone is None else cone.asdict() for name, cone in polytope_cones(w).items()}
                except ValueError as exc:
                    out = {"error": type(exc).__name__}
                h.update(json.dumps(out, sort_keys=True).encode())
        assert h.hexdigest() == CONES_DIGEST

    def test_kernel_germs_are_none_exactly_where_their_forms_vanish(self):
        # on the snapped weights as given, in any order and sign: c_j where
        # g_j equals the sum of the others or they sum to zero, a on a zero
        # total
        n_none = Counter()
        for gammas in _digest_weights() + FIXTURE_ORDERS_AND_SIGNS:
            label, _ = classify_n3(gammas)
            if label is classifier.N3Type.DEGENERATE_ZERO_WEIGHT:
                continue
            ints, den = snap_weights(gammas, 1e-9)
            kernel = AnchorKernel.scaled(ints, 3 * den)
            total = sum(ints)
            expected = {f"c{j}": 2 * g == total or g == total for j, g in enumerate(ints, 1)}
            expected["a"] = total == 0
            got = {"c1": kernel.germ_c(1), "c2": kernel.germ_c(2), "c3": kernel.germ_c(3), "a": kernel.germ_a()}
            assert {name: germ is None for name, germ in got.items()} == expected, gammas
            n_none.update(name for name, vanishes in expected.items() if vanishes)
        assert min(n_none.values()) > 20

    def test_every_cone_line_passes_through_the_anchor_it_names(self):
        # in every order and sign: the provenance "c2:edge" names c2 of the
        # weights as given, where factor 2 sits alone
        for w in FIXTURE_ORDERS_AND_SIGNS:
            poly = build_polytope_n3(w)
            anchors = fixed_point_spectra(w)
            for a, b, c, provenance in poly.lines:
                if not provenance.startswith("wall:"):
                    s = anchors[provenance.split(":")[0]]
                    assert a * s.l1 + b * s.l2 == F(c, poly.den), (w, provenance)

    def test_emitted_cone_apexes_are_anchor_spectra_of_the_weights(self):
        # starred weights included: their cones are built on them, as their
        # polytope is, so no apex is an anchor of the canonical weights only
        n_starred = 0
        for gammas in _digest_weights():
            try:
                poly = build_polytope(gammas)
            except ValueError:
                continue
            if poly.kind != "Polygon":
                continue
            n_starred += poly.starred
            anchors = set(fixed_point_spectra(gammas).values())
            for name, cone in polytope_cones(gammas).items():
                assert cone is None or cone.apex in anchors, (gammas, name)
        assert n_starred > 400

    def test_one_straight_line_per_build(self, monkeypatch):
        # one weight check and one snap per exact build after the first in
        # its cell, and no classification, canonical form, re-validated
        # spectrum, sum-zero normal or ConeSpec on the way: the sign cell
        # gives the label, and the vertices are a view, made when read; and
        # no slice form, since every cone is read from the signs of the
        # transition forms
        weights = sorted(POLYTOPE_FIXTURES) + RANDOM_RATIONALS
        for gammas in weights:
            build_polytope(gammas)
        counts = Counter()

        def count(owner, name):
            original = getattr(owner, name)

            def counted(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            for module in [m for key, m in sys.modules.items() if key.startswith("su3poly") and m is not None]:
                for key, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, key, counted)
            if isinstance(owner, type):
                monkeypatch.setattr(owner, name, counted)

        count(moment_map, "as_gammas")
        count(polytope, "snap_weights")
        count(classifier, "classify_n3")
        count(classifier, "canonicalize")
        count(classifier.Canonicalization, "__init__")
        count(Spectrum, "__init__")
        count(polytope, "lift_2d")
        count(ConeSpec, "__init__")
        count(QuadraticForm2, "__init__")
        for gammas in weights:
            build_polytope(gammas)
        assert counts == {"as_gammas": len(weights), "snap_weights": len(weights)}


def _dot(coefs, w):
    return sum(c * g for c, g in zip(coefs, w))


def _sign_key(w):
    return tuple(map(sgn, _form_values(w)))


#: The normals of the 13 transition forms, and the primitive cross products
#: of two of them, with both signs: every edge ray of every face of the
#: arrangement of the forms' planes is one of these.
FORM_NORMALS = _FORMS[3]
CELL_RAYS = sorted(
    {
        tuple(s * x // math.gcd(*c) for x in c)
        for n, k in itertools.combinations(FORM_NORMALS, 2)
        for c in [(n[1] * k[2] - n[2] * k[1], n[2] * k[0] - n[0] * k[2], n[0] * k[1] - n[1] * k[0])]
        if any(c)
        for s in (1, -1)
    }
)


def _faces(box):
    """One point of each face of the arrangement met by the nonzero points of {-box..box}^3, by sign key."""
    faces = {}
    for w in itertools.product(range(-box, box + 1), repeat=3):
        if any(w):
            faces.setdefault(_sign_key(w), w)
    return faces


class TestSignCells:
    """The entry of each sign cell (:func:`polytope._cell`), derived from one
    weight, is the build of every weight of the cell.

    The cells are the faces of the arrangement of the 13 planes of the
    transition forms with no weight zero.  The closure of a face is a
    pointed cone generated by edge rays of the arrangement, each a primitive
    cross product of two form normals (``CELL_RAYS``, entries at most 2 in
    size), and the sum of at most 3 independent generators lies in its
    relative interior, so {-6..6}^3 meets every face.  Every sign the
    derivation reads is a linear form in the weights with the cell's sorts
    fixed, so it is checked at the generators: a form >= 0 at each one and
    > 0 at one is > 0 on the whole relative interior."""

    def test_the_box_meets_every_face_of_the_arrangement(self):
        assert len(CELL_RAYS) == 50 and max(abs(x) for r in CELL_RAYS for x in r) == 2
        # Zaslavsky: the regions are the sum of |mu| over the intersection
        # lattice, and each flat X adds the regions of the arrangement restricted to it
        lines = {r for r in CELL_RAYS if r > tuple(-x for x in r)}
        through = {line: sum(_dot(n, line) == 0 for n in FORM_NORMALS) for line in lines}
        mu_lines = sum(m - 1 for m in through.values())
        regions = 1 + len(FORM_NORMALS) + mu_lines + abs(1 - len(FORM_NORMALS) + mu_lines)
        arcs = sum(2 * sum(_dot(n, line) == 0 for line in lines) for n in FORM_NORMALS)
        faces = _faces(6)
        assert len(faces) == regions + arcs + 2 * len(lines)
        assert sum(all(key) for key in faces) == regions
        cells = {key for key in faces if all(key[:3])}
        assert len(cells) == 248
        assert sorted(faces) == sorted(_faces(14))

    def test_every_sign_the_derivation_reads_holds_on_its_whole_cell(self):
        checked = 0
        for key, w in _faces(6).items():
            if not all(key[:3]):
                continue
            rays = [r for r in CELL_RAYS if all(s * f >= 0 if s else f == 0 for s, f in zip(key, _form_values(r)))]
            lines, ring, m, label = polytope._cell(w)
            kernel = AnchorKernel.scaled(w, 3)
            rows = {name: [moment_map._ANCHOR_ROWS[3][name][k] for k in perm] for name, (_, perm) in kernel.anchors.items()}

            def positive(values, what):
                # >= 0 at every generator and > 0 at one
                assert min(values) >= 0 and max(values) > 0, (w, what, values)

            # the canonical flip and sort: the total's sign is the key's at every
            # generator, and each adjacent pair of the flipped weights is
            # strictly apart or tied on the whole cell in index order
            can = canonicalize(w)
            starred, perm = can.starred, can.permutation
            flip = -1 if starred else 1
            assert starred == (key[-1] < 0), w
            if key[-1]:
                positive([flip * sum(r) for r in rays], "total")
            for k in (0, 1):
                values = [flip * (r[perm[k]] - r[perm[k + 1]]) for r in rays]
                if any(values):
                    positive(values, "canonical sort")
                else:
                    assert perm[k] < perm[k + 1], w
            assert label == classify_n3(w)[0].value, w
            # the anchors' sorts: each adjacent pair strictly apart, or tied on the whole cell in index order
            for name, (_, perm) in kernel.anchors.items():
                for k in (0, 1):
                    values = [_dot(rows[name][k], r) - _dot(rows[name][k + 1], r) for r in rays]
                    if any(values):
                        positive(values, f"sort of {name}")
                    else:
                        assert perm[k] < perm[k + 1], (w, name)
            # germ_a's side: the other anchors' centroid inside the half-plane cone at a
            for a, b, _, p in lines:
                if p.startswith("a:") and p.endswith("-halfplane"):
                    positive([sum(a * (_dot(rows[o][0], r) - _dot(rows["a"][0], r)) + b * (_dot(rows[o][1], r) - _dot(rows["a"][1], r)) for o in ("b", "c1", "c2", "c3")) for r in rays], "side of a")
            # the ring: each edge of positive length, every line slack at each
            # corner, corner 0 the a anchor and m the lcm of the determinants
            edges, slacks = [], []
            for r in rays:
                at_r = [(a, b, _dot(coefs, r), p) for a, b, coefs, p in lines]
                corners = polytope._corners(at_r, ring)
                (x, y, d), a0, a1 = corners[0], *rows["a"][:2]
                assert (x, y) == (_dot(a0, r) * d, _dot(a1, r) * d), (w, r)
                assert m == math.lcm(*(d for *_, d in corners)), (w, r)
                checked += 1
                edges.append([b * (x1 * d0 - x0 * d1) - a * (y1 * d0 - y0 * d1) for (a, b, *_), (x0, y0, d0), (x1, y1, d1) in zip([at_r[i] for i in ring], corners, corners[1:] + corners[:1])])
                slacks += [a * x + b * y - c * d for a, b, c, _ in at_r for x, y, d in corners]
            for k, values in enumerate(zip(*edges)):
                positive(values, f"edge {k}")
            assert min(slacks) >= 0, w
        # every generating ray of each of the 248 cells
        assert checked == 560

    def test_a_cold_build_equals_a_warm_one(self, monkeypatch):
        # warm: each cell's entry derived from the first of these weights in
        # it; the fixtures in every order and sign meet every cell
        weights = FIXTURE_ORDERS_AND_SIGNS + [tuple(float(g) for g in w) for w in FIXTURE_ORDERS_AND_SIGNS]
        monkeypatch.setattr(polytope, "_CELLS", {})
        warm = [build_polytope(w) for w in weights]
        assert len(polytope._CELLS) == 248
        for w, hot in zip(weights, warm):
            monkeypatch.setattr(polytope, "_CELLS", {})
            cold = build_polytope(w)
            assert (cold.lines, cold.corners, cold.den, cold.label, cold.starred) == (hot.lines, hot.corners, hot.den, hot.label, hot.starred), w
            # the cell fixes the label and the flip
            assert (hot.label, hot.starred) == (classify_n3(w)[0].value, canonicalize(w).starred), w

    def test_a_build_after_the_first_in_its_cell_calls_no_germs_and_no_walk(self, monkeypatch):
        # the first build in a cell labels it with one classify_n3 of its snapped integers
        counts = Counter()
        germs, walk, label = AnchorKernel.germs, polytope._integer_vertices, polytope.classify_n3
        monkeypatch.setattr(AnchorKernel, "germs", lambda self: counts.update(["germs"]) or germs(self))
        monkeypatch.setattr(polytope, "_integer_vertices", lambda lines: counts.update(["walk"]) or walk(lines))
        monkeypatch.setattr(polytope, "classify_n3", lambda ints: counts.update(["classify"]) or label(ints))
        monkeypatch.setattr(polytope, "_CELLS", {})
        for w in ((4, 2, -1), (8, 4, -2), (4.0, 2.25, -1.25), (F(7, 2), 2, -1)):
            build_polytope(w)
        assert counts == {"germs": 1, "walk": 1, "classify": 1}
        build_polytope((-4, -2, 1))
        assert counts == {"germs": 2, "walk": 2, "classify": 2}
