import itertools
import math
import re
import warnings
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from su3poly import su3
from su3poly.oracle import _CORNERS, _frame_spectra, _rng_for_block
from su3poly.su3 import (
    SPECTRA_ERROR,
    _FORMS,
    _form_values,
    SQRT2,
    SQRT6,
    XI1,
    XI2,
    Hermitian3,
    InvalidTolerance,
    InvalidWeight,
    LengthMismatch,
    NotHermitian,
    NotSorted,
    Root,
    Spectrum,
    SumNotZero,
    chamber_coordinates,
    num_out,
    pairing,
    sgn,
    snap_weights,
    sort_descending,
    spectra_of_entries,
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

    @pytest.mark.parametrize("entries", [(1, 2, -3), (F(1, 3), F(2, 3), -1), (1.0, 2.0, -3.0)])
    def test_unsorted_spectrum_is_named(self, entries):
        with pytest.raises(NotSorted, match=re.escape(f"spectrum not sorted: {entries}")):
            Spectrum(*entries)

    @pytest.mark.parametrize(
        "entries, k, problem",
        [((math.nan, 0.0, 0.0), 0, "not finite"), ((2.0, -1.0, -math.inf), 2, "not finite"), ((math.inf, 0, -math.inf), 0, "not finite"),
         ((True, False, -1), 0, "not a real number"), ((1, "a", -1), 1, "not a real number"), ((1, 0, None), 2, "not a real number")],
        ids=repr,
    )
    def test_entry_that_is_no_finite_real_is_named(self, entries, k, problem):
        # NaN once read NotSorted, "a" raised a TypeError and bools were accepted
        with pytest.raises(InvalidWeight, match=re.escape(f"spectrum entry {k} is {entries[k]!r}, {problem}")):
            Spectrum(*entries)

    @pytest.mark.parametrize(
        "make, error, message",
        [
            (lambda: Hermitian3.diag(math.nan, 0, 0), InvalidWeight, "diagonal entry 0 is nan, not finite"),
            (lambda: Hermitian3.diag(0, 0, -math.inf), InvalidWeight, "diagonal entry 2 is -inf, not finite"),
            (lambda: Hermitian3.diag(True, False, -1), InvalidWeight, "diagonal entry 0 is True, not a real number"),
            (lambda: Hermitian3(math.inf, 0), InvalidWeight, "diagonal entry 0 is inf, not finite"),
            (lambda: Hermitian3(0.5, "a", off12=1.0), InvalidWeight, "diagonal entry 1 is 'a', not a real number"),
            (lambda: Hermitian3(0.5, 0.0, off13=complex(0.0, math.nan)), NotHermitian, "entry 13 is nanj, not a finite number"),
            (lambda: Hermitian3(0.5, 0.0, off23=-math.inf), NotHermitian, "entry 23 is -inf, not a finite number"),
            (lambda: Hermitian3(0.5, 0.0, off12=True), NotHermitian, "entry 12 is True, not a finite number"),
        ],
    )
    def test_entry_that_is_no_finite_number_is_refused(self, make, error, message):
        # NaN, infinite and bool entries were once stored, and a NaN matrix read NotSorted
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            make()

    def test_spectrum_of_an_overflowing_matrix_is_refused(self):
        # d3 = -d1 - d2 overflows although both stored entries are finite
        with pytest.raises(NotHermitian, match="NaN or infinite"):
            spectrum(Hermitian3(1e308, 1e308, off12=1.0))

    def test_float_checks_are_relative_to_scale_without_floor(self):
        with pytest.raises(NotSorted, match="not sorted"):
            Spectrum(1e-12, 2e-12, -3e-12)
        with pytest.raises(SumNotZero):
            Spectrum(2e-12, 1e-12, -2.9e-12)
        assert Spectrum(2e-12, 1e-12, -3e-12).astuple() == (2e-12, 1e-12, -3e-12)

    def test_from_numpy_checks_have_no_floor(self):
        # the trace is the whole scale; an absolute floor of 1 let it through
        with pytest.raises(SumNotZero):
            Hermitian3.from_numpy(1e-12 * np.eye(3))
        with pytest.raises(NotHermitian):
            Hermitian3.from_numpy(1e-12 * np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0]]))
        small = Hermitian3.from_numpy(1e-12 * Hermitian3(0.7, -0.2, 0.3 + 0.4j).as_numpy())
        assert math.isclose(small.d3, -0.5e-12, rel_tol=1e-12)
        assert Hermitian3.from_numpy(np.zeros((3, 3))).frobenius() == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    def test_from_numpy_rejects_non_finite_entries(self, bad):
        m = np.zeros((3, 3), dtype=complex)
        m[1, 2] = bad
        with pytest.raises(NotHermitian, match="NaN or infinite"):
            Hermitian3.from_numpy(m)
        with pytest.raises(NotHermitian, match="NaN or infinite"):
            Hermitian3.from_numpy(np.full((3, 3), bad))

    def test_diagonal_sum_check_has_no_floor(self):
        # the diagonal sums to its whole scale; an absolute floor of 1 let it through
        with pytest.raises(SumNotZero):
            Hermitian3.diag(1e-12, 1e-12, -1e-12)
        with pytest.raises(SumNotZero):
            to_positive_chamber((1e-12, 1e-12, -1e-12))
        assert Hermitian3.diag(2e-12, -1e-12, -1e-12).d1 == 2e-12

    def test_near_degenerate_is_stable(self):
        h = Hermitian3(1.0, 1.0 - 1e-14, off12=1e-15)
        s = spectrum(h)
        assert np.allclose(s.as_floats(), (1, 1, -2), atol=1e-9)

    @pytest.mark.parametrize("s", [1e-200, 1e-110, 1e105, 1e150])
    def test_matches_lapack_at_extreme_scales(self, s):
        # unscaled, the cube of the scale gave (0, 0, 0) at 1e-200, a NaN
        # at 1e-110 and an overflow warning at 1e105
        h = Hermitian3(s, -s, 0.1 * s)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = np.array(spectrum(h).as_floats())
        assert np.abs(got - np.linalg.eigvalsh(h.as_numpy())[::-1]).max() <= SPECTRA_ERROR * s

    def test_a_power_of_two_scales_the_spectrum_bit_for_bit(self, rng_seeded):
        rows = [Hermitian3(1.0, 1.0 - 1e-14, off12=1e-15), Hermitian3(0.7, -0.2, 0.3 + 0.4j, -0.1j, 0.25 - 0.6j)]
        for _ in range(20):
            m = rng_seeded.standard_normal((3, 3)) + 1j * rng_seeded.standard_normal((3, 3))
            h = m + m.conj().T
            rows.append(Hermitian3.from_numpy(h - np.trace(h) / 3 * np.eye(3)))
        for h in rows:
            base = spectrum(h).as_floats()
            for k in (-600, -599, -1, 1, 599, 600):
                t = math.ldexp(1.0, k)
                assert spectrum(h.scaled(t)).as_floats() == tuple(t * x for x in base), (h, k)


def _trace_free_charpoly(diag, off):
    """Exact coefficients, highest first, of det(x I - (H - tr H / 3 I)) for
    the Hermitian matrix H with float diagonal ``diag`` and complex upper
    entries ``off`` (12, 13, 23), each entry read at its exact binary value."""
    d = [F(x) for x in diag]
    mean = sum(d) / 3
    d1, d2, d3 = (x - mean for x in d)
    (r12, i12), (r13, i13), (r23, i23) = ((F(z.real), F(z.imag)) for z in map(complex, off))
    a12, a13, a23 = r12 * r12 + i12 * i12, r13 * r13 + i13 * i13, r23 * r23 + i23 * i23
    triple = (r12 * r23 - i12 * i23) * r13 + (r12 * i23 + i12 * r23) * i13  # Re(o12 o23 conj(o13))
    return [F(1), F(0), d1 * d2 + d1 * d3 + d2 * d3 - a12 - a13 - a23, -(d1 * d2 * d3 + 2 * triple - d1 * a23 - d2 * a13 - d3 * a12)]


def _remainder(p, q):
    p = list(p)
    while len(p) >= len(q):
        c = p[0] / q[0]
        p = [x - c * y for x, y in zip(p[1:], q[1:] + [0] * (len(p) - len(q)))]
    while p and p[0] == 0:
        p.pop(0)
    return p


def _variations(sequence, x):
    signs = []
    for q in sequence:
        v = F(0)
        for c in q:
            v = v * x + c
        if v:
            signs.append(v > 0)
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _roots_in(p, lo, hi):
    """The roots of the real-rooted ``p`` in (lo, hi], with multiplicity: the
    Sturm count of p's distinct roots, then of those of gcd(p, p'), which are
    p's multiple roots, one multiplicity lower, and so on."""
    count = 0
    while len(p) > 1:
        sequence = [p, [c * (len(p) - 1 - k) for k, c in enumerate(p[:-1])]]
        while len(sequence[-1]) > 1:
            r = _remainder(sequence[-2], sequence[-1])
            if not r:
                break
            sequence.append([-c for c in r])
        count += _variations(sequence, lo) - _variations(sequence, hi)
        p = sequence[-1]
    return count


def _certified(diag, off, eigenvalues):
    """Whether the eigenvalues lie within ``SPECTRA_ERROR`` times the largest
    absolute entry of the exact eigenvalues of the trace-free part: every
    connected component of the intervals round them holds as many roots of
    the exact characteristic polynomial as it holds computed eigenvalues."""
    err = F(SPECTRA_ERROR) * max(F(abs(x)) for z in list(diag) + [complex(z) for z in off] for x in (z.real, z.imag))
    p = _trace_free_charpoly(diag, off)
    components = []
    for lo, hi in sorted((F(x) - err, F(x) + err) for x in eigenvalues):
        if components and lo <= components[-1][1]:
            components[-1][1:] = [max(hi, components[-1][1]), components[-1][2] + 1]
        else:
            components.append([lo, hi, 1])
    return all(_roots_in(p, lo, hi) == k for lo, hi, k in components)


def _frame_entries(u, gs):
    """The diagonal and upper entries, in float, of the reduced-frame
    configurations of the uniforms ``u`` at the weights ``gs``: the matrices
    whose spectra :func:`oracle._frame_spectra` computes from their invariants."""
    g1, g2, g3 = gs
    s2 = np.sqrt(u[:, 0])
    c2 = 1.0 - s2
    lo, hi = np.minimum(u[:, 1], u[:, 2]), np.maximum(u[:, 1], u[:, 2])
    t2, t3 = hi - lo, 1.0 - hi
    phase = np.exp(2j * math.pi * u[:, 3])
    diag = np.stack([g1 + g2 * c2 + g3 * lo, g2 * s2 + g3 * t2, g3 * t3], axis=1)
    off = np.stack([g2 * np.sqrt(c2 * s2) + g3 * np.sqrt(lo * t2) * phase.conj(), g3 * np.sqrt(lo * t3) + 0j, g3 * np.sqrt(t2 * t3) * phase], axis=1)
    return diag, off


class TestSpectraCertificate:
    """``SPECTRA_ERROR`` checked exactly: the kernel's eigenvalues of each
    row, each widened by the bound, hold the roots of the row's exact
    characteristic polynomial (:func:`_certified`)."""

    def test_the_bound_holds_exactly_on_every_kind_of_row(self):
        rng = np.random.default_rng(2030)
        diag, off = [], []

        def add(h):
            diag.append(h.diagonal().real)
            off.append(h[[0, 0, 1], [1, 2, 2]])

        for k in range(150):  # near-diagonal
            add(np.diag(rng.standard_normal(3)) + 10.0 ** -(4 + k % 13) * haar_unitary(rng) @ np.diag(rng.standard_normal(3)) @ haar_unitary(rng).conj().T)
        for k in range(200):  # a pair 10^-3 to 10^-15 apart, at the top or the bottom
            lam, gap = rng.standard_normal(), 10.0 ** -(3 + k % 13)
            q = haar_unitary(rng)
            add(q @ np.diag([lam, lam + gap, lam + (3.0 if k % 2 else -3.0)]) @ q.conj().T)
        for k in range(60):  # triple: c I, then nudged by 10^-15 to 10^-6
            q = haar_unitary(rng)
            add(rng.standard_normal() * np.eye(3) + (k % 5 and 10.0 ** -(3 * (k % 5) + 3)) * q @ np.diag(rng.standard_normal(3)) @ q.conj().T)
        diag, off = np.array(diag), np.array(off)
        rows = list(zip(diag, off, spectra_of_entries(diag, off)))

        # the sampler's own kernel on uniform rows and on rows pulled toward each anchor's corner
        for gs in (np.array([1.0, 0.5, -0.25]), np.array([1.0, 1.0, -1.0])):
            u = [_rng_for_block(9, 0).random((150, 4))]
            for idx, corner in enumerate(_CORNERS.values()):
                pulled = _rng_for_block(9, 1_000_003 + idx).random((4, 20, 4))
                pulled[:, :, :3] = corner + np.array([0.5, 1e-3, 1e-6, 1e-9])[:, None, None] * (pulled[:, :, :3] - corner)
                u.append(pulled.reshape(-1, 4))
            u = np.concatenate(u)
            rows += zip(*_frame_entries(u, gs), _frame_spectra(u, gs, np.empty((len(u), 3))))

        # spectrum at 2^1000 and 2^-1000, where a cube of the scale leaves float range
        for k in range(20):
            q, gap = haar_unitary(rng), 10.0 ** -(k % 10) if k % 2 else 1.0
            h = Hermitian3.from_numpy(q @ np.diag([1.0, 1.0 - gap, -2.0 + gap]) @ q.conj().T)
            for t in (2.0**1000, 2.0**-1000):
                ht = h.scaled(t)
                entries = (float(ht.d1), float(ht.d2), float(ht.d3)), (ht.off12, ht.off13, ht.off23)
                rows.append((*entries, spectrum(ht).as_floats()))

        assert len(rows) == 1550
        failed = [k for k, (d, o, lam) in enumerate(rows) if not _certified(d, o, lam)]
        assert failed == []


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
        vecs = [chamber_coordinates(*root.vector) for root in Root]
        for i in range(3):
            u, w = vecs[i], vecs[(i + 1) % 3]
            cosang = (u[0] * w[0] + u[1] * w[1]) / (math.hypot(*u) * math.hypot(*w))
            assert math.isclose(cosang, -0.5, abs_tol=1e-12)

    def test_columns_and_floats_give_the_same_bits(self, rng_seeded):
        rows = np.sort(rng_seeded.standard_normal((50, 3)), axis=1)[:, ::-1]
        p, q = chamber_coordinates(rows[:, 0], rows[:, 1], rows[:, 2])
        assert [(a, b) for a, b in zip(p.tolist(), q.tolist())] == [chamber_coordinates(*row) for row in rows.tolist()]
        assert chamber_coordinates(2, -1, -1) == (3 / SQRT2, 3 / SQRT6)


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

    @pytest.mark.parametrize("raw", [(1.0, 0.0, -1.0 + 1e-12), (1.0, 0.0, -1.0 + 1e-7), (0.0, 1.0, -1.0 - 1e-7), (F(1, 3), 0, F(-1, 3)), (0, 1, 0)])
    def test_sum_test_is_the_spectrum_test(self, raw):
        # one rule: the sorted triple is accepted exactly when Spectrum accepts it
        entries = sorted(raw, reverse=True)
        try:
            expected = Spectrum(*entries)
        except SumNotZero as exc:
            with pytest.raises(SumNotZero, match=re.escape(str(exc))):
                to_positive_chamber(raw)
        else:
            assert to_positive_chamber(raw)[0] == expected

    @pytest.mark.parametrize("raw", [(), (1, -1), (1, 0, 0, -1)])
    def test_no_triple_is_a_length_mismatch(self, raw):
        with pytest.raises(LengthMismatch, match=f"got {len(raw)} entries"):
            to_positive_chamber(raw)

    @pytest.mark.parametrize(
        "raw,entry,problem",
        [((math.inf, 0, -math.inf), 0, "not finite"), ((1, 0, -math.inf), 2, "not finite"), ((float("nan"), 0, 0), 0, "not finite"),
         ((True, False, -1), 0, "not a real number"), ((1, np.bool_(False), -1), 1, "not a real number"), ((1, None, -1), 1, "not a real number")],
    )
    def test_non_finite_or_bool_entries_are_named(self, raw, entry, problem):
        with pytest.raises(InvalidWeight, match=re.escape(f"spectrum entry {entry} is {raw[entry]!r}, {problem}")):
            to_positive_chamber(raw)

    def test_numpy_reals_are_entries(self):
        s, perm = to_positive_chamber((np.float64(-1.0), np.int64(0), np.float32(1.0)))
        assert s.as_floats() == (1.0, 0.0, -1.0) and perm == (2, 1, 0)

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


def snapped(gs, tol=1e-9):
    ints, den = snap_weights(gs, tol)
    return tuple(F(n, den) for n in ints)


def form_values(gs):
    """Every transition form of exact or float weights, exactly."""
    g = [F(x) for x in gs]
    if len(g) == 2:
        return (g[0], g[1], g[0] + g[1], g[0] - g[1])
    a, b, c = g
    return (a, b, c, b + c, a + c, a + b, a - b, a - c, b - c, a - b - c, b - a - c, c - a - b, a + b + c)


def form_signs(gs):
    return tuple(map(sgn, form_values(gs)))


#: integer weights, a power of ten and a perturbation of each entry far
#: below the default tolerance: the snapped weights must be on exactly the
#: transitions of the integer weights
near_transitions = st.tuples(
    st.one_of(st.tuples(*[st.integers(-4, 4)] * 3), st.tuples(*[st.integers(-4, 4)] * 2)).filter(any),
    st.integers(-12, 12),
    st.lists(st.integers(-100, 100), min_size=3, max_size=3),
)


def perturbed(g, k, noise):
    t = 10.0**k
    return tuple(float(x) * t + e * 1e-13 * t for x, e in zip(g, noise))


class TestSnapWeights:
    """The one tolerance rule for weights (the cases of the former per-form rule)."""

    def test_exact_values_are_untouched(self):
        assert snapped((1, F(1, 10**30), -1)) == (1, F(1, 10**30), -1)
        assert snapped((10**400, 1, 1)) == (10**400, 1, 1)  # never converted to float
        assert snap_weights((0, 0, 0), 1e-9) == ((0, 0, 0), 1)
        assert snap_weights((0.0, -0.0), 1e-9) == ((0, 0), 1)

    def test_exact_weights_are_read_in_one_type_loop(self, monkeypatch):
        # ints and Fractions, negative ones and ones past float range: the
        # values integer_scaled gives, which only the general path calls
        cases = [(4, 2, -1), (-4, -2, 1), (F(7, 2), 2, -1), (F(-1, 6), F(4, 9), F(3)), (10**400, -1, F(1, 10**400)), (2, F(-5, 3)), (0, 0)]
        expected = [su3.integer_scaled(gs) for gs in cases]
        calls, scaled = [], su3.integer_scaled
        monkeypatch.setattr(su3, "integer_scaled", lambda xs: calls.append(xs) or scaled(xs))
        for gs, want in zip(cases, expected):
            ints, den = snap_weights(gs, 1e-9)
            assert (ints, den) == want and all(type(n) is int for n in ints) and type(den) is int, gs
        assert calls == []
        # numpy numbers and floats still take the general path
        others = [(np.int64(4), 2, -1), (F(7, 2), np.int32(2), -1), (4.0, 2, -1), (np.float64(4.0), 2.0, -1.0)]
        for gs in others:
            assert snap_weights(gs, 1e-9) == scaled(gs), gs
        assert calls == others

    def test_float_tolerance_is_relative_without_floor(self):
        # largest weight 4e-9: the bound is 4e-18
        assert snapped((4e-9, 1e-18, -2e-9))[1] == 0
        assert snapped((4e-9, -1e-17, -2e-9))[1] == F(-1e-17)
        assert snapped((1.0, -1e-9, 0.5))[1] == 0

    def test_floats_beside_a_huge_or_exact_weight_do_not_overflow(self):
        # tol * 10**400 is no float, but the comparison is in integers
        assert snapped((10**400, 1.0, 1.0)) == (10**400, 0, 0)
        # g2 + g3 and g3 - g2 involve the float and lie within the bound too,
        # so they snap, and the projection moves the exact g3 to 0 with g2
        assert snapped((10**400, 1e-300, 1)) == (10**400, 0, 0)
        # 10**300 - 1e300 is within tol * 10**300 and snaps; the weights keep their signs
        g1, g2, g3 = snapped((10**300, -1e300, 2e299))
        assert g1 + g2 == 0 and g1 > 0 > g2 and g3 == F(2e299)
        assert snapped((4, -1e-18, 1)) == (4, 0, 1)
        assert snapped((4, 0.0, 1)) == (4, 0, 1)
        assert snapped((4, -4.001e-9, 1)) == (4, F(-4.001e-9), 1)

    def test_a_form_over_exact_weights_alone_compares_exactly(self):
        # g2 is within tol * 4 of zero, but no float enters the form g2
        assert snapped((4, F(1, 10**20), 1.0)) == (4, F(1, 10**20), 1)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), float("-inf"), -1, -1e-9, True, False, "1e-9", None, 1j])
    def test_bad_tolerance_is_named(self, tol):
        for gs in [(3.0, 2.0, 1.0 + 1e-13), (3, 2, 1)]:
            with pytest.raises(InvalidTolerance, match=re.escape(repr(tol))):
                snap_weights(gs, tol)

    @settings(max_examples=300, deadline=None)
    @given(near_transitions)
    def test_snaps_onto_exactly_the_transitions_nearby(self, case):
        g, k, noise = case
        gs = perturbed(g, k, noise)
        out = snapped(gs)
        assert form_signs(out) == form_signs(g)
        scale = max(abs(x) for x in gs)
        assert all(abs(x - F(y)) <= F(2e-11) * F(scale) for x, y in zip(out, gs))

    @settings(max_examples=300, deadline=None)
    @given(near_transitions, st.floats(0, 1e-6))
    def test_snapped_forms_vanish_and_other_signs_stay(self, case, tol):
        gs = perturbed(*case)
        ints, den = snap_weights(gs, tol)
        before, after = form_signs(gs), form_signs(ints)
        bound = F(tol) * max(abs(F(x)) for x in gs)
        near = [abs(v) <= bound for v in form_values(gs)]
        for was, now, snaps in zip(before, after, near):
            assert now == 0 if snaps else now in (was, 0)

    def test_one_projection_gives_no_form_the_opposite_sign(self):
        # every integer weight up to 4 in size, each weight exact or a float
        # (up to order), at every bound that snaps a different set of forms
        for n in (2, 3):
            for pairs in itertools.combinations_with_replacement(itertools.product(range(-4, 5), (int, float)), n):
                g = [x for x, _ in pairs]
                if float not in {kind for _, kind in pairs} or not any(g):
                    continue
                gs = tuple(kind(x) for x, kind in pairs)
                values, top = _form_values(g), max(map(abs, g))
                for bound in sorted(set(map(abs, values))):
                    after = _form_values(snap_weights(gs, (bound + 0.5) / top)[0])
                    for form, was, now in zip(_FORMS[n], values, after):
                        # a snapped form vanishes; the others keep their sign or vanish
                        if abs(was) <= bound and any(c and kind is float for c, (_, kind) in zip(form, pairs)):
                            assert now == 0, (gs, bound)
                        else:
                            assert sgn(now) in (sgn(was), 0), (gs, bound)

    @settings(max_examples=300, deadline=None)
    @given(near_transitions)
    def test_idempotent(self, case):
        ints, den = snap_weights(perturbed(*case), 1e-9)
        assert snap_weights(tuple(F(n, den) for n in ints), 1e-9) == (ints, den)
        again = snap_weights(tuple(float(F(n, den)) for n in ints), 1e-9)
        assert form_signs(again[0]) == form_signs(ints)

    @settings(max_examples=300, deadline=None)
    @given(near_transitions, st.data())
    def test_commutes_with_permutation_and_negation(self, case, data):
        gs = perturbed(*case)
        perm = data.draw(st.permutations(range(len(gs))))
        out = snapped(gs)
        assert snapped(tuple(gs[i] for i in perm)) == tuple(out[i] for i in perm)
        assert snapped(tuple(-x for x in gs)) == tuple(-x for x in out)


class TestStar:
    def test_examples(self):
        assert star_involution(Spectrum(2, -1, -1)).astuple() == (1, 1, -2)
        assert star_involution(Spectrum(1, 0, -1)).astuple() == (1, 0, -1)

    @given(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0))
    def test_involution(self, x, y):
        s, _ = to_positive_chamber((x, y, -x - y))
        assert star_involution(star_involution(s)) == s
        assert sorted(star_involution(s).as_floats(), reverse=True) == list(star_involution(s).as_floats())


class TestNumOut:
    @pytest.mark.parametrize("x,out", [(3, "3"), (-7, "-7"), (F(-2, 6), "-1/3"), (F(4, 2), "2"), (10**30, str(10**30)), (0.25, 0.25), (True, 1.0)])
    def test_exact_as_strings_floats_as_floats(self, x, out):
        got = num_out(x)
        assert got == out and type(got) is type(out)
