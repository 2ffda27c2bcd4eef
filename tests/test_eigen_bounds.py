import math
import random
import re
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import POLYTOPE_FIXTURES
from su3poly import eigen_bounds
from su3poly.eigen_bounds import (
    DoubleEigMatrixSpec,
    check_spectrum,
    gamma_of_lambda,
    realize,
    sum_bounds_three,
    sum_bounds_two,
)
from su3poly.moment_map import InvalidWeight, NotNormalized
from su3poly.polytope import build_polytope, build_polytope_n2, hausdorff
from su3poly.su3 import LengthMismatch, Spectrum, spectrum


def haar_unitary(rng):
    z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_double_eig_matrix(lam, rng):
    u = haar_unitary(rng)
    return u @ np.diag([lam, lam, -2 * lam]) @ u.conj().T


class TestGammaBridge:
    @pytest.mark.parametrize("lam,gamma", [(1, -3), (0, 0), (F(-1, 3), 1)])
    def test_values(self, lam, gamma):
        assert gamma_of_lambda(DoubleEigMatrixSpec(lam)) == gamma

    def test_plain_number_is_a_lambda(self):
        # once an AttributeError; the sum_bounds_* functions take plain numbers too
        assert gamma_of_lambda(2) == -6
        assert gamma_of_lambda(F(1, 3)) == -1

    @pytest.mark.parametrize(
        "line, error, match",
        [([0, 0, 0], NotNormalized, "zero or not finite"), ([1.0, math.nan, 0.0], NotNormalized, "zero or not finite"),
         ([math.inf, 1.0, 0.0], NotNormalized, "zero or not finite"), ([1.0, 1.0], LengthMismatch, "shape (2,) is not three entries"),
         ([1.0, 0.0, 0.0, 0.0], LengthMismatch, "shape (4,) is not three entries"), ([[1.0, 0.0, 0.0]], LengthMismatch, "shape (1, 3) is not three entries")],
        ids=repr,
    )
    def test_line_that_is_no_nonzero_finite_triple_is_refused(self, line, error, match):
        # [0, 0, 0] once divided by a zero norm, and a 2-vector hit numpy's broadcast error
        with pytest.raises(error, match=re.escape(match)):
            DoubleEigMatrixSpec(0.7).realize(line)

    def test_realized_matrix_has_double_spectrum(self, rng_seeded):
        # measured via the matrix route: the closed-form cubic loses half the
        # digits exactly at a double root, LAPACK does not
        spec = DoubleEigMatrixSpec(0.7)
        z = rng_seeded.standard_normal(3) + 1j * rng_seeded.standard_normal(3)
        m = spec.realize(z)
        assert np.allclose(np.linalg.eigvalsh(m.as_numpy())[::-1], (0.7, 0.7, -1.4), atol=1e-12)
        assert np.allclose(spectrum(m).as_floats(), (0.7, 0.7, -1.4), atol=1e-7)


class TestSumBoundsTwo:
    @pytest.mark.parametrize(
        "la,lb,lam1,interval",
        [(1, 1, 2, (-1, 2)), (1, -1, 0, (0, 3)), (1, 0, 1, (1, 1))],
    )
    def test_examples(self, la, lb, lam1, interval):
        got1, got_int = sum_bounds_two(la, lb)
        assert got1 == lam1 and got_int == interval

    def test_equality_and_interval_over_rotations(self, rng_seeded):
        for _ in range(1000):
            la = rng_seeded.uniform(0.2, 2.0)
            lb = rng_seeded.uniform(0.2, 2.0) * rng_seeded.choice([1.0, -1.0])
            x = random_double_eig_matrix(la, rng_seeded) + random_double_eig_matrix(lb, rng_seeded)
            eig = np.linalg.eigvalsh(x)
            lam1, (lo, hi) = sum_bounds_two(la, lb)
            k = int(np.argmin(np.abs(eig - lam1)))
            assert abs(eig[k] - lam1) < 1e-9
            rest = sorted(np.delete(eig, k))
            assert lo - 1e-9 <= rest[1] <= hi + 1e-9 or lo - 1e-9 <= rest[0] <= hi + 1e-9

    def test_endpoints_attained_by_diagonal_configurations(self):
        for la, lb in [(1.0, 0.7), (1.0, -0.7), (0.4, 1.3)]:
            a_aligned = np.diag([-2 * la, la, la])
            b_aligned = np.diag([-2 * lb, lb, lb])
            b_orth = np.diag([lb, -2 * lb, lb])
            lam1, (lo, hi) = sum_bounds_two(la, lb)
            attained = set()
            for x in (a_aligned + b_aligned, a_aligned + b_orth):
                eig = np.linalg.eigvalsh(x)
                k = int(np.argmin(np.abs(eig - lam1)))
                rest = np.delete(eig, k)
                attained.update(round(float(v), 9) for v in rest)
            assert any(abs(v - lo) < 1e-9 for v in attained)
            assert any(abs(v - hi) < 1e-9 for v in attained)


class TestSumBoundsThree:
    def test_symmetric_bound(self):
        poly = sum_bounds_three(1, 1, 1)
        assert poly.starred
        assert max(v.l1 for v in poly.vertices) == 3

    def test_zero_class_delegates_to_segment(self):
        poly = sum_bounds_three(1, 1, 0)
        segment = build_polytope_n2((-3, -3))
        assert poly.kind == "Segment"
        assert hausdorff(poly, segment) < 1e-12

    def test_mixed_signs_classified(self):
        poly = sum_bounds_three(1, 1, -1)
        assert poly.label is not None
        assert poly.kind == "Polygon"

    def test_random_sums_stay_inside(self, rng_seeded):
        for _ in range(1000):
            lams = [rng_seeded.uniform(0.2, 1.5) * rng_seeded.choice([1.0, -1.0]) for _ in range(3)]
            poly = sum_bounds_three(*lams)
            x = sum(random_double_eig_matrix(l, rng_seeded) for l in lams)
            eig = np.linalg.eigvalsh(x)[::-1]
            assert poly.contains(tuple(eig), 1e-9)


class TestCheckSpectrum:
    def test_examples(self):
        assert check_spectrum(1, 1, 1, (3, 0, -3))
        assert not check_spectrum(1, 1, 1, (4, 0, -4))
        assert check_spectrum(1, 1, 0, (2, 2, -4))


class TestRealize:
    def test_vertex_targets(self):
        res = realize(1, 1, 1, (3, 3, -6), budget=10, seed=0)
        assert res.found and res.distance < 1e-9
        res = realize(1, 1, 1, (0, 0, 0), budget=10, seed=0)
        assert res.found and res.distance < 1e-9

    def test_interior_target(self):
        res = realize(1, 1, 1, (1.25, 0.25, -1.5), budget=100, seed=1)
        assert res.found and res.distance < 1e-6
        total = sum((m.as_numpy() for m in res.matrices), np.zeros((3, 3), dtype=complex))
        eig = np.linalg.eigvalsh(total)[::-1]
        assert np.allclose(eig, (1.25, 0.25, -1.5), atol=1e-5)
        for m in res.matrices:
            s = np.linalg.eigvalsh(m.as_numpy())[::-1]
            assert abs(s[2] - s[1]) < 1e-10 and abs(s[0] + 2 * s[2]) < 1e-10 or (
                abs(s[0] - s[1]) < 1e-10 and abs(s[2] + 2 * s[0]) < 1e-10
            )

    def test_outside_target_reports_immediately(self):
        res = realize(1, 1, 1, (4, 0, -4), budget=10, seed=0)
        assert not res.found and res.restarts_used == 0
        assert "outside" in res.reason


# ---------------------------------------------------------------------------
# The constructive realization: the linear program, the split and the checks
# ---------------------------------------------------------------------------

#: Realized distances, as a multiple of max |gamma|, for exact weights.
EXACT_BOUND = 1e-13

ZERO_ENTRY_WEIGHTS = [(4, 2, 0), (3, -1, 0), (2, -2, 0), (-1, -1, 0), (0, 5, 0), (0, 0, 0), (F(1, 3), 0, F(-7, 2))]


def lp_feasible(gammas, target, k3):
    """The linear program of realize with weight k3 peeled, on exact data."""
    g = [F(x) for x in gammas]
    g1, g2 = (x for k, x in enumerate(g) if k != k3)
    d = [F(x) + sum(g) / 3 for x in target]
    return eigen_bounds._peel(g[k3], g1 * g2, d) is not None


def rational_grid(poly, n):
    """Sorted sum-zero rational points on a grid over the polytope's box with
    one step of margin, plus its vertices and the points a third of the way
    along each edge."""
    verts = [v.astuple() for v in poly.vertices]
    points = set(verts)
    for u, v in zip(verts, verts[1:] + verts[:1]):
        points.add(tuple(a + (b - a) / 3 for a, b in zip(u, v)))
    lo1, hi1 = min(v[0] for v in verts), max(v[0] for v in verts)
    lo2, hi2 = min(v[1] for v in verts), max(v[1] for v in verts)
    h1, h2 = (hi1 - lo1) / n or F(1, 2), (hi2 - lo2) / n or F(1, 2)
    for i in range(-1, n + 2):
        for j in range(-1, n + 2):
            l1, l2 = lo1 + i * h1, lo2 + j * h2
            if l1 >= l2 >= -l1 - l2:
                points.add((l1, l2, -l1 - l2))
    return sorted(points)


def membership_weights(permuted=True):
    """Every fixture weight and its negative, one permutation of each, and
    weights with a zero entry."""
    out = []
    for g in list(POLYTOPE_FIXTURES) + ZERO_ENTRY_WEIGHTS:
        out += [g, tuple(-x for x in g)] + [(g[2], g[0], g[1])] * permuted
    return out


def assert_built(res, lams, target, bound):
    """Each matrix has spectrum (lam, lam, -2 lam), and the three sum to
    diag(target) entrywise, within ``bound``; the distance is within it too."""
    assert res.found and res.restarts_used == 1 and res.distance <= bound
    total = sum(m.as_numpy() for m in res.matrices)
    assert np.abs(total - np.diag([float(x) for x in target])).max() <= bound
    for m, lam in zip(res.matrices, lams):
        got = np.linalg.eigvalsh(m.as_numpy())
        want = sorted([float(lam), float(lam), -2 * float(lam)])
        assert np.abs(got - want).max() <= bound


class TestBadLambda:
    """A NaN, infinite, bool or non-number lambda is refused, naming it, at
    every entry point that takes lambdas."""

    ENTRY_POINTS = (
        lambda lam: DoubleEigMatrixSpec(lam),
        lambda lam: gamma_of_lambda(lam),
        lambda lam: sum_bounds_two(lam, 1),
        lambda lam: sum_bounds_two(1, lam),
        lambda lam: sum_bounds_three(1, lam, 1),
        lambda lam: check_spectrum(lam, 1, 1, (0, 0, 0)),
        lambda lam: realize(1, 1, lam, (0, 0, 0)),
    )

    @pytest.mark.parametrize(
        "lam,problem",
        [(float("nan"), "not finite"), (math.inf, "not finite"), (-math.inf, "not finite"), (True, "not a real number"),
         (np.bool_(False), "not a real number"), ("1", "not a real number"), (1j, "not a real number")],
    )
    def test_refused_naming_the_lambda(self, lam, problem):
        for call in self.ENTRY_POINTS:
            with pytest.raises(InvalidWeight, match=re.escape(f"lambda is {lam!r}, {problem}")):
                call(lam)

    def test_valid_scalar_types_accepted(self):
        assert sum_bounds_two(np.float64(1.0), F(1, 2)) == (1.5, (0.0, 1.5))
        assert sum_bounds_three(np.int64(1), 1, 1).label == "AAA"
        assert sum_bounds_three(np.float32(0.5), np.int32(1), np.float64(1.0)).label == build_polytope((-1.5, -3, -3)).label == "AA"


class TestBadTarget:
    """A NaN, infinite or bool target entry is refused, naming the entry."""

    @pytest.mark.parametrize(
        "target,entry",
        [((math.inf, 0, -math.inf), 0), ((True, False, -1), 0), ((float("nan"), 0, 0), 0), ((0, 1, -math.inf), 2), ((1, "0", -1), 1)],
    )
    def test_refused(self, target, entry):
        for call in (check_spectrum, realize):
            with pytest.raises(InvalidWeight, match=f"spectrum entry {entry} "):
                call(1, 1, 1, target)


class TestLinearProgram:
    def test_feasible_exactly_on_the_polytope(self):
        """Feasibility of the linear program, for every nonzero weight peeled,
        equals exact membership on rational grids; the classifier and the
        cones play no part in it."""
        checked = mismatches = 0
        for gammas in membership_weights():
            poly = build_polytope(gammas)
            for s in rational_grid(poly, 5):
                inside = poly.contains(s, 0)
                peeled = [k for k in range(3) if gammas[k] != 0 or not any(gammas)]
                for k3 in peeled:
                    checked += 1
                    mismatches += lp_feasible(gammas, s, k3) != inside
                # the order of the target's entries does not matter either
                mismatches += lp_feasible(gammas, (s[1], s[2], s[0]), peeled[0]) != inside
        assert checked > 10_000 and mismatches == 0

    def test_outside_targets_are_reported(self):
        for gammas in membership_weights()[::4]:
            lams = [-F(g) / 3 for g in gammas]
            poly = build_polytope(gammas)
            for s in rational_grid(poly, 3):
                if not poly.contains(s, 1e-9):
                    res = realize(*lams, s)
                    assert not res.found and res.restarts_used == 0 and res.matrices is None

    def test_every_quantity_is_exact(self, monkeypatch):
        # float lambdas and targets enter the program as Fractions and ints only
        seen = []
        peel = eigen_bounds._peel

        def spy(g3, product, d):
            out = peel(g3, product, d)
            seen.append((g3, product, *d, *out[0], out[1]))
            return out

        monkeypatch.setattr(eigen_bounds, "_peel", spy)
        for lams, target in [((0.7, -0.4, 0.25), (0.6, 0.1, -0.7)), ((1.0, 1e-12, 0.0), (1.0, 1.0, -2.0)), ((1, 1, 1), (1.2, 0.3, -1.5))]:
            assert realize(*lams, target).found
        assert len(seen) == 3
        assert all(type(v) in (int, F) for row in seen for v in row)


class TestConstruction:
    def test_fixture_grids(self):
        """Every rational grid point inside every fixture polygon, as an exact
        and as a float target, is built within the exact bound."""
        for gammas in membership_weights(permuted=False):
            lams = [-F(g) / 3 for g in gammas]
            poly = build_polytope(gammas)
            bound = EXACT_BOUND * max(max(abs(g) for g in gammas), 1)
            for s in rational_grid(poly, 3):
                if poly.contains(s, 0):
                    for target in (s, tuple(float(x) for x in s)):
                        assert_built(realize(*lams, target), lams, target, bound)

    def test_seeded_mixed_sign_targets(self):
        # rational lambdas of both signs, targets at vertices and inside, as floats and exact
        rnd = random.Random(20261019)
        for _ in range(150):
            lams = [F(rnd.randint(1, 40), rnd.choice([1, 3, 7, 10])) * rnd.choice([1, -1]) for _ in range(3)]
            verts = [v.astuple() for v in sum_bounds_three(*lams).vertices]
            coeffs = [rnd.randint(0, 6) for _ in verts] if rnd.random() < 0.75 else [0] * len(verts)
            coeffs[rnd.randrange(len(verts))] += 1
            point = tuple(sum(c * v[k] for c, v in zip(coeffs, verts)) / sum(coeffs) for k in range(3))
            bound = EXACT_BOUND * 3 * max(abs(x) for x in lams)
            for target in (point, tuple(float(x) for x in point)):
                assert_built(realize(*lams, target), lams, target, bound)

    @pytest.mark.parametrize("gammas", [(3, 2, 1), (2, 2, 1), (1, 1, 1), (3, 1, -1), (6, 3, -3), (3, -1, -2), (1, 1, -2), (4, 2, 0), (1, -1, 0)])
    def test_float_lambdas_near_a_transition(self, gammas):
        """Float lambdas within 1e-9 of a transition build the snapped
        transition polygon's points within 1e-9 max |gamma|."""
        rnd = random.Random(repr(gammas))
        for _ in range(20):
            lams = [-g / 3 * (1 + rnd.uniform(-2e-10, 2e-10)) for g in gammas]
            poly = sum_bounds_three(*lams)
            assert poly.label == build_polytope(gammas).label
            verts = [v.astuple() for v in poly.vertices]
            coeffs = [rnd.randint(0, 4) for _ in verts]
            coeffs[rnd.randrange(len(verts))] += 1
            point = tuple(float(sum(c * v[k] for c, v in zip(coeffs, verts)) / sum(coeffs)) for k in range(3))
            assert_built(realize(*lams, point), lams, point, 1e-9 * max(abs(g) for g in gammas))

    def test_float_target_just_outside_is_built_at_the_nearest_point(self):
        # vertices and edge midpoints off the walls (across a wall the sorted
        # target is back inside), pushed 1e-10 of their radius away from the centre
        lams = (1, -1, F(1, 2))
        verts = [v.astuple() for v in sum_bounds_three(*lams).vertices]
        centre = [sum(v[k] for v in verts) / len(verts) for k in range(3)]
        pushed = 0
        for u, v in zip(verts, verts[1:] + verts[:1]):
            for p in (u, tuple((a + b) / 2 for a, b in zip(u, v))):
                if not p[0] > p[1] > p[2]:
                    continue
                pushed += 1
                target = tuple(float(c + (x - c) * (1 + F(1, 10**10))) for x, c in zip(p, centre))
                res = realize(*lams, target)
                assert res.found
                gap = math.dist(target, [float(x) for x in p])
                assert 0 < res.distance <= gap + EXACT_BOUND * 3
                if p == u:  # beyond each of these vertices, the vertex is the nearest point
                    assert res.distance >= gap - EXACT_BOUND * 3
        assert pushed >= 4

    def test_budget_and_seed_have_no_effect(self):
        a = realize(1, -1, F(1, 2), (0.5, 0.1, -0.6), budget=1, seed=3)
        b = realize(1, -1, F(1, 2), (0.5, 0.1, -0.6))
        assert a.distance == b.distance and all(np.array_equal(u, v) for u, v in zip(a.lines, b.lines))


small_lambda = st.builds(F, st.integers(-9, 9), st.sampled_from([1, 2, 3, 5]))


class TestRealizeSymmetries:
    """realize answers alike under a permutation of the lambdas, a positive
    scaling of lambdas and target, and the star map."""

    @settings(max_examples=120, deadline=None)
    @given(
        st.lists(small_lambda, min_size=3, max_size=3),
        st.lists(st.integers(0, 5), min_size=5, max_size=5),
        st.sampled_from([F(1), F(3, 2), F(5, 2)]),
        st.sampled_from([F(1, 7), F(3), F(1000)]),
        st.permutations(range(3)),
        st.booleans(),
    )
    def test_same_answer(self, lams, coeffs, stretch, t, perm, as_float):
        poly = sum_bounds_three(*lams)
        verts = [v.astuple() for v in poly.vertices]
        centre = tuple(sum(v[k] for v in verts) / len(verts) for k in range(3))
        inner = [c for c, _ in zip(coeffs, verts)]
        inner[0] += 1
        point = tuple(sum(c * v[k] for c, v in zip(inner, verts)) / sum(inner) for k in range(3))
        # stretched away from the centre, the point may leave the polytope
        point = tuple(c + stretch * (x - c) for x, c in zip(point, centre))
        cast = (lambda v: tuple(float(x) for x in v)) if as_float else tuple
        gamma = 3 * max(abs(x) for x in lams)

        def answer(lams, target, scale=1):
            res = realize(*lams, cast(target))
            if res.found:
                assert_built(res, lams, cast(target), EXACT_BOUND * max(gamma * scale, 1e-300))
            return res.found

        found = answer(lams, point)
        assert answer([lams[i] for i in perm], point) == found
        assert answer([t * x for x in lams], [t * x for x in point], t) == found
        assert answer([-x for x in lams], (-point[2], -point[1], -point[0])) == found
