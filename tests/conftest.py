"""Shared fixtures: the frozen weight/polytope table and random generators.

Every vertex below was derived by hand from the slice-cone half-plane
construction and cross-checked against the published transition figures; the
Monte Carlo suite re-validates them statistically.
"""

import itertools
from fractions import Fraction as F

import pytest

H = F(1, 2)
T = F(1, 3)


def fr(*nums):
    return tuple(F(n) for n in nums)


# gammas -> (label, vertex set, extreme c's, n left-wall verts, n right-wall verts)
POLYTOPE_FIXTURES = {
    (5, 4, 3): ("A", {(8, -4, -4), (2, 2, -4), (1, 1, -2), (1, 0, -1), (2, -1, -1)}, set(), 2, 2),
    (4, 2, 1): (
        "B",
        {(F(14, 3), F(-7, 3), F(-7, 3)), (F(5, 3), F(2, 3), F(-7, 3)), (F(5, 3), F(-1, 3), F(-4, 3)), (F(8, 3), F(-4, 3), F(-4, 3))},
        {"c1"},
        2,
        0,
    ),
    (4, 2, -1): (
        "C",
        {(F(10, 3), F(-5, 3), F(-5, 3)), (F(13, 3), F(-5, 3), F(-8, 3)), (F(7, 3), F(1, 3), F(-8, 3)), (F(4, 3), F(1, 3), F(-5, 3))},
        {"c2", "c3"},
        1,
        0,
    ),
    (5, -1, -2): (
        "D",
        {(F(4, 3), F(-2, 3), F(-2, 3)), (F(13, 3), F(-2, 3), F(-11, 3)), (F(13, 3), F(-5, 3), F(-8, 3)), (F(10, 3), F(-5, 3), F(-5, 3))},
        {"c1"},
        2,
        0,
    ),
    (4, 1, -2): ("E", {(2, -1, -1), (4, -1, -3), (3, 0, -3), (1, 0, -1)}, {"c2", "c3"}, 1, 0),
    (7, 4, -5): ("F", {(4, -2, -2), (9, -2, -7), (5, 2, -7), (2, 2, -4), (1, 1, -2)}, {"c3"}, 1, 2),
    (7, 6, -8): (
        "G",
        {(F(10, 3), F(-5, 3), F(-5, 3)), (F(34, 3), F(-5, 3), F(-29, 3)), (F(16, 3), F(13, 3), F(-29, 3)), (F(13, 3), F(13, 3), F(-26, 3)), (F(5, 6), F(5, 6), F(-5, 3))},
        {"c3"},
        1,
        2,
    ),
    (7, 5, -3): ("H", {(6, -3, -3), (9, -3, -6), (4, 2, -6), (2, 2, -4), (F(3, 2), F(3, 2), -3)}, {"c3"}, 1, 2),
    (3, 2, 1): ("AB", {(4, -2, -2), (1, 1, -2), (1, 0, -1), (2, -1, -1)}, {"c1"}, 2, 1),
    (2, 2, 1): (
        "AA",
        {(F(10, 3), F(-5, 3), F(-5, 3)), (F(5, 6), F(5, 6), F(-5, 3)), (T, T, -2 * T), (F(4, 3), F(-2, 3), F(-2, 3))},
        set(),
        2,
        2,
    ),
    (3, 2, 2): (
        "AA",
        {(F(14, 3), F(-7, 3), F(-7, 3)), (F(7, 6), F(7, 6), F(-7, 3)), (F(2, 3), F(2, 3), F(-4, 3)), (F(2, 3), F(-1, 3), F(-1, 3))},
        set(),
        2,
        2,
    ),
    (1, 1, 1): ("AAA", {(2, -1, -1), (0, 0, 0), (H, H, -1)}, set(), 2, 2),
    (2, 1, 1): ("AAB", {(F(8, 3), F(-4, 3), F(-4, 3)), (F(2, 3), F(2, 3), F(-4, 3)), (F(2, 3), F(-1, 3), F(-1, 3))}, {"c1"}, 2, 1),
    (4, 1, 1): ("BB", {(4, -2, -2), (2, 0, -2), (2, -1, -1)}, {"c1"}, 2, 0),
    (5, -2, -2): ("DD", {(F(2, 3), F(-1, 3), F(-1, 3)), (F(14, 3), F(-1, 3), F(-13, 3)), (F(14, 3), F(-7, 3), F(-7, 3))}, {"c1"}, 2, 0),
    (3, 1, -1): ("CE", {(2, -1, -1), (3, -1, -2), (2, 0, -2), (1, 0, -1)}, {"c1", "c2", "c3"}, 1, 0),
    (5, 3, -2): ("CH", {(4, -2, -2), (6, -2, -4), (3, 1, -4), (1, 1, -2)}, {"c2", "c3"}, 1, 1),
    (6, 3, -3): ("CEFH", {(4, -2, -2), (7, -2, -5), (4, 1, -5), (1, 1, -2)}, {"c1", "c2", "c3"}, 1, 1),
    (7, 3, -4): ("EF", {(4, -2, -2), (8, -2, -6), (5, 1, -6), (1, 1, -2)}, {"c2", "c3"}, 1, 1),
    (4, 3, -3): (
        "FH",
        {(F(8, 3), F(-4, 3), F(-4, 3)), (F(17, 3), F(-4, 3), F(-13, 3)), (F(8, 3), F(5, 3), F(-13, 3)), (F(5, 3), F(5, 3), F(-10, 3)), (F(2, 3), F(2, 3), F(-4, 3))},
        {"c1", "c3"},
        1,
        2,
    ),
    (5, 4, -5): (
        "FG",
        {(F(8, 3), F(-4, 3), F(-4, 3)), (F(23, 3), F(-4, 3), F(-19, 3)), (F(11, 3), F(8, 3), F(-19, 3)), (F(8, 3), F(8, 3), F(-16, 3)), (F(2, 3), F(2, 3), F(-4, 3))},
        {"c2", "c3"},
        1,
        2,
    ),
    (3, 3, -3): ("FGH", {(2, -1, -1), (5, -1, -4), (2, 2, -4), (H, H, -1)}, {"c1", "c2", "c3"}, 1, 2),
    (5, 5, -6): (
        "GG",
        {(F(8, 3), F(-4, 3), F(-4, 3)), (F(26, 3), F(-4, 3), F(-22, 3)), (F(11, 3), F(11, 3), F(-22, 3)), (F(2, 3), F(2, 3), F(-4, 3))},
        {"c3"},
        1,
        2,
    ),
    (4, 4, -3): (
        "HH",
        {(F(10, 3), F(-5, 3), F(-5, 3)), (F(19, 3), F(-5, 3), F(-14, 3)), (F(7, 3), F(7, 3), F(-14, 3)), (F(5, 6), F(5, 6), F(-5, 3))},
        {"c3"},
        1,
        2,
    ),
    (3, -1, -2): ("D0", {(0, 0, 0), (3, 0, -3), (3, -1, -2), (2, -1, -1)}, {"c1"}, 2, 1),
    (4, -2, -2): ("DD0", {(0, 0, 0), (4, 0, -4), (4, -2, -2)}, {"c1"}, 2, 1),
    (2, 1, -3): ("G0", {(0, 0, 0), (3, 0, -3), (2, 1, -3), (1, 1, -2)}, {"c3"}, 1, 2),
    (1, 1, -2): ("GG0", {(0, 0, 0), (2, 0, -2), (1, 1, -2)}, {"c3"}, 1, 2),
}

GENERIC_FIXTURES = {g: v for g, v in POLYTOPE_FIXTURES.items() if len(v[0]) == 1}

#: Every order and sign of every ``POLYTOPE_FIXTURES`` weight, each once:
#: the frames in which a cone or a line must name the caller's anchor.
FIXTURE_ORDERS_AND_SIGNS = sorted({tuple(s * g for g in p) for gammas in POLYTOPE_FIXTURES for p in itertools.permutations(gammas) for s in (1, -1)})

# (gammas, label, endpoint a, endpoint c, a on wall, c on wall)
N2_FIXTURES = [
    ((2, 1), "GenA", (2, -1, -1), (1, 0, -1), True, False),
    ((2, -1), "GenB", fr(F(2, 3), F(-1, 3), F(-1, 3)), (F(5, 3), F(-1, 3), F(-4, 3)), True, False),
    ((1, -2), "GenC", (T, T, -2 * T), (F(4, 3), T, F(-5, 3)), True, False),
    ((-1, -2), "GenD", (1, 1, -2), (1, 0, -1), True, False),
    ((1, 1), "TransE", (F(4, 3), F(-2, 3), F(-2, 3)), (T, T, -2 * T), True, True),
    ((1, -1), "TransF", (0, 0, 0), (1, 0, -1), True, False),
    ((-1, -1), "TransG", (F(2, 3), F(2, 3), F(-4, 3)), (F(2, 3), F(-1, 3), F(-1, 3)), True, True),
]


def gaussian_anchor_spectra(gammas, per_config, seed):
    """Spectra in tight clusters near the anchor images: each torus-fixed
    configuration plus complex Gaussians of scale 0.5, 0.1, 0.02 and 0.004,
    ``per_config`` rows per scale from generator
    ``(seed, 1_000_003 + 31 idx + k)``, the targeted rows of earlier versions
    of ``verify``."""
    import numpy as np

    from su3poly.moment_map import FIXED_CONFIGURATIONS, FIXED_CONFIGURATIONS_N2
    from su3poly.oracle import _rng_for_block, spectra_of_configurations

    configs = FIXED_CONFIGURATIONS if len(gammas) == 3 else FIXED_CONFIGURATIONS_N2
    chunks = []
    for idx, config in enumerate(sorted(configs)):
        base = np.array([list(p.coords) for p in configs[config]])
        for k, scale in enumerate((0.5, 0.1, 0.02, 0.004)):
            noise = _rng_for_block(seed, 1_000_003 + idx * 31 + k).standard_normal((per_config, len(base), 3, 2))
            chunks.append(spectra_of_configurations(base + scale * noise.view(complex)[..., 0], gammas))
    return np.concatenate(chunks)


def random_rational_gammas(rnd, n=3, lo=-12, hi=12):
    """Random nonzero rational weights with small denominators."""
    while True:
        g = tuple(F(rnd.randint(lo, hi), rnd.choice([1, 2, 3, 4, 6])) for _ in range(n))
        if all(x != 0 for x in g):
            return g


def distance_loop(point, verts):
    """The point-to-polytope distance of one point, one edge at a time: the
    scalar reference for :func:`polytope._farthest`, whose result is the
    largest of these over its points.  ``verts`` is a ring: a segment's edges
    run a -> b and b -> a, and a point's one edge has length zero.  A
    polygon's inside is on the right of no edge and on the left of one; a
    segment has none."""
    import math

    px, py = float(point[0]), float(point[1])
    n = len(verts)
    inside, left = n > 2, False
    best = math.inf
    for i in range(n):
        ax, ay = verts[i]
        bx, by = verts[(i + 1) % n]
        cross = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
        inside, left = inside and cross >= 0, left or cross > 0
        dx, dy = bx - ax, by - ay
        denom = dx * dx + dy * dy
        t = 0.0 if denom == 0.0 else max(0.0, min(1.0, ((px - ax) * dx + (py - ay) * dy) / denom))
        best = min(best, math.hypot(px - (ax + t * dx), py - (ay + t * dy)))
    return 0.0 if inside and left else best


@pytest.fixture
def rng_seeded():
    import numpy as np

    return np.random.default_rng(20240817)
