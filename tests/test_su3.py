import itertools
import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from su3poly.su3 import (
    SQRT2,
    SQRT6,
    XI1,
    XI2,
    Hermitian3,
    Root,
    Spectrum,
    SumNotZero,
    pairing,
    snap_sign,
    sort_descending,
    spectrum,
    star_involution,
    to_chamber,
    to_positive_chamber,
)


def haar_unitary(rng):
    z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestPairing:
    def test_root_pairing_table(self):
        expected = {
            (Root.ALPHA1, XI1): 2,
            (Root.ALPHA2, XI1): -1,
            (Root.ALPHA3, XI1): -1,
            (Root.ALPHA1, XI2): -1,
            (Root.ALPHA2, XI2): 2,
            (Root.ALPHA3, XI2): -1,
        }
        for (root, xi), want in expected.items():
            assert pairing(root.hermitian, xi) == want

    def test_zero_matrix(self):
        assert pairing(Hermitian3(0, 0), XI1) == 0

    @given(
        a=st.floats(-5, 5),
        b=st.floats(-5, 5),
        d=st.tuples(st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3)),
    )
    def test_bilinear(self, a, b, d):
        mu1 = Hermitian3(d[0], d[1], complex(d[2], d[3]))
        mu2 = Hermitian3(d[1], d[3], complex(d[0], -d[2]))
        combo = mu1.scaled(a) + mu2.scaled(b)
        lhs = pairing(combo, XI2)
        rhs = a * pairing(mu1, XI2) + b * pairing(mu2, XI2)
        assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs) + abs(rhs))


class TestSpectrum:
    def test_diagonal(self):
        assert spectrum(Hermitian3.diag(2, -1, -1)).astuple() == (2, -1, -1)

    def test_exact_rational_diagonal(self):
        s = spectrum(Hermitian3.diag(F(7, 3), F(1, 3), F(-8, 3)))
        assert s.astuple() == (F(7, 3), F(1, 3), F(-8, 3))
        assert s.is_exact

    def test_single_offdiagonal(self):
        # characteristic polynomial x^3 - x, roots 1, 0, -1
        s = spectrum(Hermitian3(0, 0, off12=1))
        assert np.allclose(s.as_floats(), (1, 0, -1), atol=1e-12)

    def test_matches_lapack(self, rng_seeded):
        for _ in range(200):
            m = rng_seeded.standard_normal((3, 3)) + 1j * rng_seeded.standard_normal((3, 3))
            h = m + m.conj().T
            h -= np.trace(h) / 3 * np.eye(3)
            mine = spectrum(Hermitian3.from_numpy(h)).as_floats()
            ref = np.linalg.eigvalsh(h)[::-1]
            assert np.allclose(mine, ref, atol=1e-10)

    def test_unitary_invariance(self, rng_seeded):
        base = Hermitian3(0.7, -0.2, 0.3 + 0.4j, -0.1j, 0.25 - 0.6j)
        ref = np.array(spectrum(base).as_floats())
        m = base.as_numpy()
        for _ in range(1000):
            u = haar_unitary(rng_seeded)
            conj = Hermitian3.from_numpy(u @ m @ u.conj().T)
            assert np.allclose(spectrum(conj).as_floats(), ref, atol=1e-10)

    def test_float_checks_are_relative_to_scale_without_floor(self):
        with pytest.raises(ValueError, match="not sorted"):
            Spectrum(1e-12, 2e-12, -3e-12)
        with pytest.raises(SumNotZero):
            Spectrum(2e-12, 1e-12, -2.9e-12)
        assert Spectrum(2e-12, 1e-12, -3e-12).astuple() == (2e-12, 1e-12, -3e-12)

    def test_near_degenerate_is_stable(self):
        h = Hermitian3(1.0, 1.0 - 1e-14, off12=1e-15)
        s = spectrum(h)
        assert np.allclose(s.as_floats(), (1, 1, -2), atol=1e-9)


class TestChamberEmbedding:
    def test_origin(self):
        c = to_chamber(Spectrum(0, 0, 0))
        assert (c.p, c.q) == (0.0, 0.0)

    def test_fixed_examples(self):
        c = to_chamber(Spectrum(2, -1, -1))
        assert math.isclose(c.p, 3 / SQRT2, rel_tol=1e-15)
        assert math.isclose(c.q, 3 / SQRT6, rel_tol=1e-15)
        c = to_chamber(Spectrum(1, 1, -2))
        assert abs(c.p) < 1e-15 and math.isclose(c.q, 6 / SQRT6, rel_tol=1e-15)

    def test_isometry(self, rng_seeded):
        for _ in range(200):
            x = rng_seeded.standard_normal(3)
            y = rng_seeded.standard_normal(3)
            x -= x.mean()
            y -= y.mean()
            sx = to_positive_chamber(tuple(x))[0]
            sy = to_positive_chamber(tuple(y))[0]
            d3 = np.linalg.norm(np.array(sorted(x, reverse=True)) - np.array(sorted(y, reverse=True)))
            d2 = to_chamber(sx).distance(to_chamber(sy))
            assert abs(d3 - d2) <= 1e-12 * (1 + d3)

    def test_roots_at_120_degrees(self):
        vecs = []
        for root in Root:
            v = root.vector
            vecs.append(((v[0] - v[1]) / SQRT2, (v[0] + v[1] - 2 * v[2]) / SQRT6))
        for i in range(3):
            u, w = vecs[i], vecs[(i + 1) % 3]
            cosang = (u[0] * w[0] + u[1] * w[1]) / (math.hypot(*u) * math.hypot(*w))
            assert math.isclose(cosang, -0.5, abs_tol=1e-12)


class TestPositiveChamber:
    def test_swap(self):
        s, perm = to_positive_chamber((-1, 2, -1))
        assert s.astuple() == (2, -1, -1) and perm == (1, 0, 2)

    def test_identity(self):
        s, perm = to_positive_chamber((1, 0, -1))
        assert s.astuple() == (1, 0, -1) and perm == (0, 1, 2)

    def test_cycle(self):
        s, perm = to_positive_chamber((-1, -1, 2))
        assert s.astuple() == (2, -1, -1) and perm == (2, 0, 1)

    def test_tie_breaks_lexicographically(self):
        _, perm = to_positive_chamber((0, 0, 0))
        assert perm == (0, 1, 2)

    def test_sum_not_zero(self):
        with pytest.raises(SumNotZero):
            to_positive_chamber((1.0, 1.0, 1.0))

    @given(st.lists(st.integers(-2, 2), min_size=3, max_size=3))
    def test_sort_is_lexicographically_smallest(self, v):
        # ties are frequent on this range
        out, perm = sort_descending(v)
        descending = [p for p in itertools.permutations(range(3)) if all(v[p[i]] >= v[p[i + 1]] for i in range(2))]
        assert perm == min(descending)
        assert out == tuple(v[i] for i in perm)

    def test_root_sum_vanishes(self):
        total = tuple(sum(r.vector[k] for r in Root) for k in range(3))
        assert total == (0, 0, 0)


class TestSnapSign:
    def test_exact_values_compare_exactly(self):
        assert snap_sign(F(1, 10**30), 1, 1e-9) == 1
        assert snap_sign(1, 10**400, 1e-9) == 1  # never converted to float
        assert snap_sign(0, 0, 1e-9) == 0

    def test_float_tolerance_is_relative_without_floor(self):
        assert snap_sign(1e-18, 4e-9, 1e-9) == 0
        assert snap_sign(-1e-17, 4e-9, 1e-9) == -1
        assert snap_sign(-1e-9, 1.0, 1e-9) == 0

    def test_float_beside_exact_scale_snaps_without_overflow(self):
        # tol * scale would overflow a float
        assert snap_sign(1.0, 10**400, 1e-9) == 0
        assert snap_sign(-1e300, 10**300, 1e-9) == -1
        assert snap_sign(-1e-18, 4, 1e-9) == 0
        assert snap_sign(0.0, 4, 1e-9) == 0
        assert snap_sign(-4.001e-9, 4, 1e-9) == -1
        assert snap_sign(1e-300, 10**400, 1e-9) == 0
        assert snap_sign(F(1, 10**20), 4, 1e-9) == 1  # an exact x stays exact


class TestStar:
    def test_examples(self):
        assert star_involution(Spectrum(2, -1, -1)).astuple() == (1, 1, -2)
        assert star_involution(Spectrum(1, 0, -1)).astuple() == (1, 0, -1)

    @given(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0))
    def test_involution(self, x, y):
        s, _ = to_positive_chamber((x, y, -x - y))
        assert star_involution(star_involution(s)) == s
        assert sorted(star_involution(s).as_floats(), reverse=True) == list(star_involution(s).as_floats())
