import math
import random
import re
from fractions import Fraction as F

import numpy as np
import pytest

from conftest import random_rational_gammas
from su3poly.moment_map import (
    E1,
    E2,
    E3,
    CPPoint,
    InvalidWeight,
    LengthMismatch,
    NotNormalized,
    StabilizerClass,
    Weights,
    configuration_stabilizer,
    fixed_point_spectra,
    fubini_study_moment,
    tangent_weights,
    tripled_fixed_point_diagonals,
    weighted_moment,
)
from su3poly import su3
from su3poly.classifier import classify_n2, classify_n3
from su3poly.cones import slice_cone_a, slice_cone_b, slice_cone_c
from su3poly.oracle import InvalidCount, empirical_polytope, sample_batch, verify
from su3poly.polytope import build_polytope, build_polytope_n2, build_polytope_n3, polytope_cones
from su3poly.su3 import InvalidTolerance, Root, spectrum


class TestCPPoint:
    def test_normalizes_and_fixes_phase(self):
        z = CPPoint.of(0, 2j, 0)
        assert z.coords == (0, 1, 0)
        assert z.basis_index() == 2

    def test_zero_vector_is_refused(self):
        with pytest.raises(NotNormalized, match="^zero vector$"):
            CPPoint.of(0, 0, 0)

    @pytest.mark.parametrize("coords", [(float("nan"), 0, 0), (float("inf"), 0, 0), (1, 0, complex(0, float("-inf")))])
    def test_non_finite_coordinates_are_named(self, coords):
        with pytest.raises(NotNormalized, match=re.escape(", ".join(map(repr, coords)))):
            CPPoint.of(*coords)

    def test_projective_equality(self):
        a = CPPoint.of(1, 1j, 0.5)
        b = CPPoint.of(-2, -2j, -1)
        assert a.same_line(b)
        assert np.allclose(a.coords, b.coords)

    def test_json_roundtrip(self):
        a = CPPoint.of(1, 1j, 0.5)
        back = CPPoint.from_json_list(a.to_json_list())
        assert back == a


class TestFubiniStudy:
    def test_basis_values(self):
        m = fubini_study_moment(E1)
        assert (m.d1, m.d2, m.d3) == (F(2, 3), F(-1, 3), F(-1, 3))
        m = fubini_study_moment(E2)
        assert (m.d1, m.d2, m.d3) == (F(-1, 3), F(2, 3), F(-1, 3))

    def test_superposition(self):
        z = CPPoint.of(1, 1, 0)
        m = fubini_study_moment(z)
        assert math.isclose(m.d1, 1 / 6, abs_tol=1e-12)
        assert math.isclose(m.d2, 1 / 6, abs_tol=1e-12)
        assert math.isclose(float(m.d3), -1 / 3, abs_tol=1e-12)
        assert abs(m.off12 - 0.5) < 1e-12

    def test_spectrum_of_j0(self):
        s = spectrum(fubini_study_moment(E1))
        assert s.astuple() == (F(2, 3), F(-1, 3), F(-1, 3))

    def test_equivariance(self, rng_seeded):
        z = rng_seeded.standard_normal(3) + 1j * rng_seeded.standard_normal(3)
        Z = CPPoint.of(*z)
        q, r = np.linalg.qr(rng_seeded.standard_normal((3, 3)) + 1j * rng_seeded.standard_normal((3, 3)))
        u = q * (np.diag(r) / np.abs(np.diag(r)))
        lhs = fubini_study_moment(CPPoint.of(*(u @ np.array(Z.coords)))).as_numpy()
        rhs = u @ fubini_study_moment(Z).as_numpy() @ u.conj().T
        assert np.allclose(lhs, rhs, atol=1e-12)


class TestWeightedMoment:
    def test_two_orthogonal(self):
        m = weighted_moment((E1, E2), (1, 1))
        assert (m.d1, m.d2, m.d3) == (F(1, 3), F(1, 3), F(-2, 3))

    def test_triple_diagonal(self):
        m = weighted_moment((E1, E1, E1), (1, 1, 1))
        assert (m.d1, m.d2, m.d3) == (2, -1, -1)

    def test_all_orthogonal_exact(self):
        m = weighted_moment((E1, E2, E3), (4, 2, -1))
        assert (m.d1, m.d2, m.d3) == (F(7, 3), F(1, 3), F(-8, 3))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            weighted_moment((E1, E2), (1, 1, 1))

    def test_weight_negation(self):
        m = weighted_moment((E1, E2, E3), (4, 2, -1))
        n = weighted_moment((E1, E2, E3), (-4, -2, 1))
        assert (n.d1, n.d2, n.d3) == (-m.d1, -m.d2, -m.d3)

    def test_equivariance_of_spectra(self, rng_seeded):
        for _ in range(500):
            gam = tuple(rng_seeded.uniform(-3, 3) for _ in range(3))
            z = rng_seeded.standard_normal((3, 3)) + 1j * rng_seeded.standard_normal((3, 3))
            config = [CPPoint.of(*row) for row in z]
            q, r = np.linalg.qr(rng_seeded.standard_normal((3, 3)) + 1j * rng_seeded.standard_normal((3, 3)))
            u = q * (np.diag(r) / np.abs(np.diag(r)))
            moved = [CPPoint.of(*(u @ np.array(p.coords))) for p in config]
            s1 = spectrum(weighted_moment(config, gam)).as_floats()
            s2 = spectrum(weighted_moment(moved, gam)).as_floats()
            assert np.allclose(s1, s2, atol=1e-10)


class TestFixedPointSpectra:
    def test_symmetric_case(self):
        fps = fixed_point_spectra((1, 1, 1))
        assert fps["a"].astuple() == (2, -1, -1)
        assert fps["b"].astuple() == (0, 0, 0)
        assert fps["c1"] == fps["c2"] == fps["c3"]
        assert fps["c1"].astuple() == (1, 0, -1)

    def test_mixed_sign_case(self):
        fps = fixed_point_spectra((4, 2, -1))
        assert fps["a"].astuple() == (F(10, 3), F(-5, 3), F(-5, 3))
        assert fps["b"].astuple() == (F(7, 3), F(1, 3), F(-8, 3))
        assert fps["c1"].astuple() == (F(7, 3), F(-2, 3), F(-5, 3))
        assert fps["c2"].astuple() == (F(4, 3), F(1, 3), F(-5, 3))
        assert fps["c3"].astuple() == (F(13, 3), F(-5, 3), F(-8, 3))

    def test_two_factor_case(self):
        fps = fixed_point_spectra((2, 1))
        assert fps["a"].astuple() == (2, -1, -1)
        assert fps["c"].astuple() == (1, 0, -1)

    def test_matches_direct_momentum_evaluation(self):
        # Closed forms against independent evaluation through the momentum
        # map at the representative configurations, exactly.
        rnd = random.Random(1234)
        configs = {
            "a": (E1, E1, E1),
            "b": (E1, E2, E3),
            "c1": (E2, E1, E1),
            "c2": (E1, E2, E1),
            "c3": (E1, E1, E2),
        }
        for _ in range(100):
            g = random_rational_gammas(rnd)
            fps = fixed_point_spectra(g)
            for name, config in configs.items():
                direct = spectrum(weighted_moment(config, g))
                assert fps[name] == direct, (g, name)

    def test_a_has_repeated_eigenvalue(self):
        rnd = random.Random(99)
        for _ in range(100):
            g = random_rational_gammas(rnd)
            a = fixed_point_spectra(g)["a"]
            assert a.l1 == a.l2 or a.l2 == a.l3

    def test_tripled_diagonals_sum_to_zero(self):
        for entries, _ in tripled_fixed_point_diagonals((4, 2, -1)).values():
            assert sum(entries) == 0


class TestStabilizer:
    def test_pairs(self):
        assert configuration_stabilizer((E1, E1)) is StabilizerClass.U2
        assert configuration_stabilizer((E1, E2)) is StabilizerClass.T2
        assert configuration_stabilizer((E1, CPPoint.of(1, 1, 0))) is StabilizerClass.U1

    def test_triples(self):
        u = CPPoint.of(1, 1, 0)
        w = CPPoint.of(1, 0.3, 0.4)
        assert configuration_stabilizer((E1, E1, E1)) is StabilizerClass.U2
        assert configuration_stabilizer((E1, E1, E2)) is StabilizerClass.T2
        assert configuration_stabilizer((E1, E2, E3)) is StabilizerClass.T2
        assert configuration_stabilizer((E1, u, E3)) is StabilizerClass.U1  # (u, u', v)
        assert configuration_stabilizer((E1, E1, u)) is StabilizerClass.U1  # doubled, spans a plane
        assert configuration_stabilizer((E1, E2, u)) is StabilizerClass.U1  # coplanar
        assert configuration_stabilizer((E1, E2, w)) is StabilizerClass.TRIVIAL

    @pytest.mark.parametrize("config", [(E1,), (E1, E2, E3, E1)])
    def test_configuration_of_wrong_length(self, config):
        with pytest.raises(LengthMismatch, match=f"got {len(config)}"):
            configuration_stabilizer(config)

    def test_tolerance_is_configurable(self):
        # a coordinate perturbation eps moves |<u, v>| only by ~eps^2/2
        nearly_e1 = CPPoint.of(1, 1e-3, 0)
        assert configuration_stabilizer((E1, nearly_e1), tol=1e-9) is StabilizerClass.U1
        assert configuration_stabilizer((E1, nearly_e1), tol=1e-4) is StabilizerClass.U2


class TestTangentWeights:
    def test_table(self):
        for idx, (first, second) in {
            1: ((-1, Root.ALPHA3), (1, Root.ALPHA2)),
            2: ((-1, Root.ALPHA1), (1, Root.ALPHA3)),
            3: ((-1, Root.ALPHA2), (1, Root.ALPHA1)),
        }.items():
            got = tangent_weights(idx)
            assert (got[0].sign, got[0].root) == first
            assert (got[1].sign, got[1].root) == second

    def test_bad_index(self):
        with pytest.raises(ValueError):
            tangent_weights(0)


class TestWeights:
    def test_zero_weight_needs_flag(self):
        with pytest.raises(ValueError):
            Weights((1, 0, 2))
        w = Weights((1, 0, 2), allow_zero=True)
        assert w.n == 3

    def test_exactness_flag(self):
        assert Weights((F(1, 3), 2, -1)).is_exact
        assert not Weights((0.5, 2, -1)).is_exact

    def test_a_list_is_stored_as_a_tuple(self):
        w = Weights([4, 2, -1])
        assert w.gammas == (4, 2, -1)
        assert hash(w) == hash(Weights((4, 2, -1)))


class TestInvalidWeight:
    """Every entry point rejects a bad weight, naming its position."""

    ENTRY_POINTS = (
        lambda w: build_polytope(w),
        lambda w: classify_n3(w),
        lambda w: sample_batch(w, 10, 0),
        lambda w: Weights(w),
    )

    def assert_rejected(self, w, position):
        for call in self.ENTRY_POINTS:
            with pytest.raises(InvalidWeight, match=f"weight {position} "):
                call(w)

    def test_nan(self):
        self.assert_rejected((1.0, float("nan"), 2.0), 1)

    def test_positive_infinity(self):
        self.assert_rejected((float("inf"), 1, 2), 0)

    def test_negative_infinity(self):
        self.assert_rejected((1, 2, -math.inf), 2)

    def test_bool(self):
        self.assert_rejected((True, 1, 2), 0)
        self.assert_rejected((1, 2, np.bool_(False)), 2)

    def test_valid_scalar_types_accepted(self):
        assert build_polytope((np.float64(4.0), np.int64(2), F(-1))).label == "C"
        # numpy integers alone, and numpy floats that are no Python float subclass
        assert build_polytope((np.int64(4), np.int64(2), np.int64(-1))).label == "C"
        assert build_polytope((np.float32(4.0), np.int32(2), np.float32(-1.0))).label == "C"

    def test_invalid_weight_is_the_one_class_of_su3(self):
        assert InvalidWeight is su3.InvalidWeight


class TestBadArguments:
    """Bad lengths, counts and tolerances raise typed errors that name them."""

    def test_length_mismatch_is_the_one_class_of_su3(self):
        assert LengthMismatch is su3.LengthMismatch

    @pytest.mark.parametrize("w", [(1,), (1, 2, 3, 4), ()])
    def test_weight_count(self, w):
        for call in (lambda: Weights(w), lambda: build_polytope(w), lambda: sample_batch(w, 10, 0)):
            with pytest.raises(LengthMismatch, match=f"got {len(w)}"):
                call()

    @pytest.mark.parametrize("count", [-5, True, 2.5, "10"])
    def test_sample_count(self, count):
        for call in (sample_batch, empirical_polytope, verify):
            with pytest.raises(InvalidCount, match=re.escape(f"count {count!r} ")):
                call((4, 2, -1), count, 0)

    def test_zero_count(self):
        assert sample_batch((4, 2, -1), 0, 0).spectra.shape == (0, 3)
        for call in (empirical_polytope, verify):
            with pytest.raises(InvalidCount, match="count 0 "):
                call((4, 2, -1), 0, 0)

    ENTRY_POINTS = (
        lambda w, tol: build_polytope(w, tol),
        lambda w, tol: build_polytope_n3(w, tol),
        lambda w, tol: classify_n3(w, tol),
        lambda w, tol: polytope_cones(w, tol),
        lambda w, tol: slice_cone_a(w, tol),
        lambda w, tol: slice_cone_b(w, tol, allow_coincident=True),
        lambda w, tol: slice_cone_c(1, w, tol),
        lambda w, tol: classify_n2(w[:2], tol),
        lambda w, tol: build_polytope_n2(w[:2], tol),
    )

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1, True])
    def test_tolerance(self, tol):
        # a NaN or negative tolerance would snap nothing, and (3, 2, 1 + 1e-13) would build A, not AB
        for call in self.ENTRY_POINTS:
            with pytest.raises(InvalidTolerance, match=re.escape(repr(tol))):
                call((3.0, 2.0, 1.0 + 1e-13), tol)
        assert build_polytope((3.0, 2.0, 1.0 + 1e-13)).label == "AB"
