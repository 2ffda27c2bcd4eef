"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; every
tolerance is pinned here, nothing is deferred to later calibration.
"""

import itertools
import random
import time
from fractions import Fraction as F

import numpy as np
import pytest

from conftest import GENERIC_FIXTURES, N2_FIXTURES, POLYTOPE_FIXTURES, random_rational_gammas
from su3poly.classifier import classify_n3
from su3poly.cones import a_discriminant, b_slice_coefficients, c_vertex_criterion
from su3poly.eigen_bounds import realize, sum_bounds_two
from su3poly.moment_map import E1, E2, E3, fixed_point_spectra, weighted_moment
from su3poly.oracle import empirical_polytope, sample_batch, verify
from su3poly.polytope import build_polytope, build_polytope_n2, build_polytope_n3, distance_to_polytope_pq, hausdorff
from su3poly.su3 import Root, spectrum, star_involution


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {status} {name} {detail}".rstrip())
    assert ok, f"criterion {num} failed: {name} {detail}"


def test_criterion_01_fixed_point_spectra_exact():
    rnd = random.Random(101)
    configs = {
        "a": (E1, E1, E1),
        "b": (E1, E2, E3),
        "c1": (E2, E1, E1),
        "c2": (E1, E2, E1),
        "c3": (E1, E1, E2),
    }
    t0 = time.perf_counter()
    ok = True
    for _ in range(100):
        g = random_rational_gammas(rnd)
        fps = fixed_point_spectra(g)
        for name, config in configs.items():
            if fps[name] != spectrum(weighted_moment(config, g)):
                ok = False
    elapsed = time.perf_counter() - t0
    report(1, "fixed-point spectra match direct evaluation exactly", ok and elapsed < 1.0, f"({elapsed:.2f}s)")


def test_criterion_02_slice_coefficients_at_b():
    got = b_slice_coefficients((4, 2, -1))
    report(2, "slice coefficients at b for (4,2,-1)", got == (F(-3, 2), 20, 1), f"got {got}")


def test_criterion_03_region_criteria():
    rng = np.random.default_rng(303)
    t0 = time.perf_counter()
    bad = 0
    n = 10_000
    for _ in range(n):
        g = tuple(rng.uniform(-5, 5) for _ in range(3))
        if min(abs(x) for x in g) < 1e-3:
            continue
        label, can = classify_n3(g)
        cg = can.sorted_gammas
        in_bd = label.value in ("B", "D")
        in_abd = label.value in ("A", "B", "D")
        if (c_vertex_criterion(1, cg) > 0) != in_bd:
            bad += 1
        if (a_discriminant(cg) > 0) != in_abd:
            bad += 1
    elapsed = time.perf_counter() - t0
    report(3, "vertex criterion <-> {B,D} and discriminant <-> {A,B,D}", bad == 0 and elapsed < 5.0,
           f"({bad} exceptions, {elapsed:.2f}s)")


def test_criterion_04_taxonomy_and_combinatorics():
    ok = True
    detail = ""
    for gammas, (label, vertices, extreme_cs, n_left, n_right) in POLYTOPE_FIXTURES.items():
        got_label, _ = classify_n3(gammas)
        poly = build_polytope_n3(gammas)
        verts = {tuple(F(x) for x in v) for v in poly.vertices}
        fps = fixed_point_spectra(gammas)
        got_extreme = {n for n in ("c1", "c2", "c3") if fps[n] in poly.vertices}
        left = sum(1 for v in poly.vertices if v.l2 == v.l3)
        right = sum(1 for v in poly.vertices if v.l1 == v.l2)
        if (
            got_label.value != label
            or verts != {tuple(F(x) for x in v) for v in vertices}
            or got_extreme != extreme_cs
            or (left, right) != (n_left, n_right)
        ):
            ok = False
            detail = f"first failure at {gammas}"
            break
    report(4, f"taxonomy fixtures ({len(POLYTOPE_FIXTURES)} labels) exact", ok, detail)


def test_criterion_05_oracle_containment():
    ok = True
    slowest = 0.0
    worst = ""
    for gammas in POLYTOPE_FIXTURES:
        t0 = time.perf_counter()
        rep = verify(gammas, 100_000, seed=505, tol=1e-6)
        elapsed = time.perf_counter() - t0
        slowest = max(slowest, elapsed)
        if rep.n_violations != 0 or elapsed >= 30.0:
            ok = False
            worst = f"{gammas}: {rep.n_violations} violations in {elapsed:.1f}s"
            break
    report(5, "zero containment violations, 1e5 samples per fixture", ok, worst or f"(slowest {slowest:.1f}s)")


def test_criterion_06_oracle_tightness():
    ok = True
    detail = []
    for gammas in GENERIC_FIXTURES:
        t0 = time.perf_counter()
        _, hull = empirical_polytope(gammas, 1_000_000, seed=606)
        poly = build_polytope_n3(gammas)
        deficit = max(distance_to_polytope_pq((c.p, c.q), hull) for c in poly.pq_vertices())
        elapsed = time.perf_counter() - t0
        rel = deficit / poly.diameter()
        detail.append(f"{poly.label}:{rel:.3f}")
        if rel >= 0.05 or elapsed >= 180.0:
            ok = False
            break
    report(6, "empirical hull deficit < 0.05 diameter at 1e6 samples", ok, " ".join(detail))


def test_criterion_07_symmetry_suite():
    rnd = random.Random(707)
    ok = True
    for _ in range(1000):
        g = random_rational_gammas(rnd)
        poly = build_polytope_n3(g)
        verts = set(poly.vertices)
        mirrored = build_polytope_n3(tuple(-x for x in g))
        if set(mirrored.vertices) != {star_involution(v) for v in verts}:
            ok = False
            break
        for perm in itertools.permutations(g):
            if set(build_polytope_n3(perm).vertices) != verts:
                ok = False
                break
        if not ok:
            break
    report(7, "star and permutation symmetry, exact, 1000 random weights", ok)


def test_criterion_08_two_factor_reproduction():
    ok = True
    for gammas, label, a, c, a_wall, c_wall in N2_FIXTURES:
        poly = build_polytope_n2(gammas)
        got_a, got_c = poly.vertices
        d = tuple(x - y for x, y in zip(got_c, got_a))
        parallel = any(
            d[0] * r.vector[1] - d[1] * r.vector[0] == 0 and d[1] * r.vector[2] - d[2] * r.vector[1] == 0
            for r in Root
        )
        if (
            poly.label != label
            or got_a.astuple() != tuple(F(x) for x in a)
            or got_c.astuple() != tuple(F(x) for x in c)
            or ((got_a.l1 == got_a.l2 or got_a.l2 == got_a.l3) != a_wall)
            or ((got_c.l1 == got_c.l2 or got_c.l2 == got_c.l3) != c_wall)
            or not parallel
        ):
            ok = False
            break
    report(8, "seven two-factor segments with stated endpoints, root-parallel", ok)


def _haar(rng):
    z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_criterion_09_two_matrix_bounds():
    rng = np.random.default_rng(909)
    ok = True
    for _ in range(1000):
        la = rng.uniform(0.2, 2.0)
        lb = rng.uniform(0.2, 2.0) * rng.choice([1.0, -1.0])
        u, v = _haar(rng), _haar(rng)
        x = u @ np.diag([la, la, -2 * la]) @ u.conj().T + v @ np.diag([lb, lb, -2 * lb]) @ v.conj().T
        eig = np.linalg.eigvalsh(x)
        lam1, (lo, hi) = sum_bounds_two(la, lb)
        k = int(np.argmin(np.abs(eig - lam1)))
        rest = np.delete(eig, k)
        if abs(eig[k] - lam1) > 1e-9 or not any(lo - 1e-9 <= t <= hi + 1e-9 for t in rest):
            ok = False
            break
    # endpoint attainment by diagonal configurations
    for la, lb in [(1.0, 0.7), (1.0, -0.7)]:
        lam1, (lo, hi) = sum_bounds_two(la, lb)
        aligned = np.diag([-2 * la, la, la]) + np.diag([-2 * lb, lb, lb])
        orth = np.diag([-2 * la, la, la]) + np.diag([lb, -2 * lb, lb])
        seen = []
        for x in (aligned, orth):
            eig = np.linalg.eigvalsh(x)
            k = int(np.argmin(np.abs(eig - lam1)))
            seen.extend(np.delete(eig, k))
        if min(abs(t - lo) for t in seen) > 1e-9 or min(abs(t - hi) for t in seen) > 1e-9:
            ok = False
    report(9, "two-matrix bound: constant eigenvalue and interval, endpoints attained", ok)


def test_criterion_10_three_matrix_desk_scale():
    batch = sample_batch((-3, -3, -3), 100_000, seed=1010)
    max_eig = float(batch.spectra[:, 0].max())
    ok = max_eig <= 3 + 1e-9
    res_a = realize(1, 1, 1, (3, 3, -6), budget=50, seed=0)
    res_b = realize(1, 1, 1, (0, 0, 0), budget=50, seed=0)
    ok = ok and res_a.found and res_a.distance < 1e-6 and res_b.found and res_b.distance < 1e-6
    report(10, "unit doubled eigenvalues: all sums below 3, vertices realized", ok,
           f"(max eigenvalue {max_eig:.9f})")


def test_criterion_11_transition_continuity():
    start, end = (F(7, 2), 2, 1), (F(5, 2), 2, 1)
    steps = 100
    labels, polys = [], []
    for i in range(steps + 1):
        t = F(i, steps)
        g = tuple(g0 + t * (g1 - g0) for g0, g1 in zip(start, end))
        poly = build_polytope_n3(g)
        labels.append(poly.label)
        polys.append(poly)
    step_norm = float(abs(start[0] - end[0])) / steps
    max_jump = max(hausdorff(p, q) for p, q in zip(polys, polys[1:]))
    expected = ["B"] * (steps // 2) + ["AB"] + ["A"] * (steps // 2)
    ok = labels == expected and max_jump <= 20 * step_norm
    report(11, "sweep across the AB wall: monotone labels, O(step) motion", ok,
           f"(max step distance {max_jump:.4f})")
