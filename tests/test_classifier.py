import itertools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import POLYTOPE_FIXTURES, random_rational_gammas
from su3poly.classifier import (
    N2Type,
    N3Type,
    canonicalize,
    classify_n2,
    classify_n3,
)
from su3poly.su3 import LengthMismatch, snap_weights

#: Coefficients of the transition hyperplanes in (g1, g2, g3): a weight is
#: zero, two are equal, a pair sums to zero, one is the sum of the others,
#: or the total is zero.
_TRANSITIONS = [
    (1, 0, 0), (0, 1, 0), (0, 0, 1),
    (1, -1, 0), (1, 0, -1), (0, 1, -1),
    (0, 1, 1), (1, 0, 1), (1, 1, 0),
    (1, -1, -1), (-1, 1, -1), (-1, -1, 1),
    (1, 1, 1),
]


class TestCanonicalize:
    def test_sorting(self):
        can = canonicalize((2, 4, -1))
        assert can.sorted_gammas == (4, 2, -1)
        assert can.permutation == (1, 0, 2)
        assert not can.starred

    def test_sign_flip(self):
        can = canonicalize((-4, -2, 1))
        assert can.sorted_gammas == (4, 2, -1)
        assert can.starred

    def test_identity(self):
        can = canonicalize((1, 1, 1))
        assert can.sorted_gammas == (1, 1, 1)
        assert can.permutation == (0, 1, 2)
        assert not can.starred

    def test_restore_roundtrip(self):
        rnd = random.Random(3)
        for _ in range(200):
            g = random_rational_gammas(rnd)
            assert canonicalize(g).restore() == g

    def test_restore_keeps_types_and_signed_zeros(self):
        # build_polytope takes its checked weights from restore()
        for g in [(0.0, -0.0, 1.5), (-0.0, 2, -3.0), (1, F(1, 2), -2.5), (-1.0, -0.0, -2)]:
            back = canonicalize(g).restore()
            assert [(type(x), math.copysign(1, x)) for x in back] == [(type(x), math.copysign(1, x)) for x in g]
            assert back == g

    def test_snapped_are_the_weights_as_given_as_snapped(self):
        # the weights as given, snapped: read through the permutation and
        # the flip they are the sorted weights as snapped
        rnd = random.Random(4)
        for g in [random_rational_gammas(rnd) for _ in range(50)] + [(3.0, 1.0, 1.0000000000000002), (-2, 1.1, 0.9), (0.9, -2, 1.1)]:
            can = canonicalize(g)
            ints, den = snap_weights(g, 1e-9)
            sign = -1 if can.starred else 1
            canonical = [sign * ints[k] for k in can.permutation]
            assert (canonical, den) == (list(snap_weights(can.sorted_gammas, 1e-9)[0]), snap_weights(can.sorted_gammas, 1e-9)[1])
            assert canonical == sorted(canonical, reverse=True)
            assert classify_n3(g)[1] == can

    def test_zero_sum_not_flipped(self):
        assert not canonicalize((3, -1, -2)).starred
        assert not canonicalize((-3, 1, 2)).starred


class TestClassifyN3:
    @pytest.mark.parametrize(
        "gammas,label",
        [((4, 2, -1), "C"), ((1, 1, 1), "AAA"), ((3, -1, -2), "D0"), ((2, 4, -1), "C")],
    )
    def test_examples(self, gammas, label):
        got, _ = classify_n3(gammas)
        assert got.value == label

    def test_fixture_labels(self):
        for gammas, (label, *_rest) in POLYTOPE_FIXTURES.items():
            got, _ = classify_n3(gammas)
            assert got.value == label, gammas

    def test_every_label_reachable(self):
        fixture_labels = {label for (label, *_r) in POLYTOPE_FIXTURES.values()}
        fixture_labels.add(classify_n3((2, 1, 0))[0].value)
        all_labels = {t.value for t in N3Type}
        assert fixture_labels == all_labels

    def test_permutation_invariance(self):
        rnd = random.Random(11)
        for _ in range(1000):
            g = random_rational_gammas(rnd)
            labels = {classify_n3(p)[0] for p in itertools.permutations(g)}
            assert len(labels) == 1

    def test_negation_toggles_star(self):
        rnd = random.Random(13)
        for _ in range(500):
            g = random_rational_gammas(rnd)
            if sum(g) == 0:
                continue  # star maps the zero-sum family to its mirror labels
            l1, c1 = classify_n3(g)
            l2, c2 = classify_n3(tuple(-x for x in g))
            assert l1 is l2 and c1.starred != c2.starred

    def test_zero_sum_star_pairs(self):
        assert classify_n3((3, -1, -2))[0] is N3Type.D0
        assert classify_n3((-3, 1, 2))[0] is N3Type.G0
        assert classify_n3((4, -2, -2))[0] is N3Type.DD0
        assert classify_n3((-4, 2, 2))[0] is N3Type.GG0

    def test_zero_weight(self):
        label, _ = classify_n3((2, 1, 0))
        assert label is N3Type.DEGENERATE_ZERO_WEIGHT
        # the double-zero-at-infinity corner also degenerates
        assert classify_n3((1, 0, -1))[0] is N3Type.DEGENERATE_ZERO_WEIGHT

    def test_four_weights_are_refused(self):
        with pytest.raises(LengthMismatch, match="^expected 3 weights, got 4$"):
            classify_n3((1, 2, 3, 4))

    def test_exact_stability_under_small_perturbation(self):
        quantities = lambda g: (
            g[0],
            g[1],
            g[2],
            g[0] - g[1],
            g[1] - g[2],
            g[0] - g[1] - g[2],
            g[1] - g[0] - g[2],
            g[1] + g[2],
            g[0] + g[2],
            g[0] + g[1] + g[2],
        )
        rnd = random.Random(17)
        tested = 0
        while tested < 200:
            g = random_rational_gammas(rnd)
            label, can = classify_n3(g)
            if not label.is_generic:
                continue
            margin = min(abs(q) for q in quantities(can.sorted_gammas))
            eps = margin / 4
            for k in range(3):
                for s in (1, -1):
                    g2 = tuple(x + (s * eps if i == k else 0) for i, x in enumerate(g))
                    assert classify_n3(g2)[0] is label, (g, g2)
            tested += 1

    def test_float_snapping(self):
        label, _ = classify_n3((3.0 + 1e-13, 2.0, 1.0))
        assert label is N3Type.AB
        label, _ = classify_n3((3.0 + 1e-6, 2.0, 1.0))
        assert label is N3Type.B

    def test_float_beside_exact_weight_beyond_float_range(self):
        # the floats enter through their exact binary values instead of
        # overflowing in a sum with the huge weight
        assert classify_n3((10**400, 1.0, 1.0))[0] is classify_n3((10**400, 1, 1))[0] is N3Type.BB

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.floats(-100, 100, allow_subnormal=False), min_size=3, max_size=3),
        st.sampled_from(_TRANSITIONS),
        st.integers(0, 2),
        st.floats(-1e-12, 1e-12),
    )
    def test_float_weights_near_a_transition_classify_as_their_snapped_fractions(self, g, form, k, rel):
        # put a weight i that the form involves on the hyperplane
        # form . g = 0, then move it by up to 1e-12 of itself
        i = [j for j in range(3) if form[j]][k % sum(map(abs, form))]
        g[i] = -form[i] * sum(form[j] * g[j] for j in range(3) if j != i)
        g[i] *= 1 + rel
        ints, den = snap_weights(g, 1e-9)
        label, can = classify_n3(g)
        exact_label, exact = classify_n3(tuple(F(n, den) for n in ints))
        assert (label, can.permutation, can.starred) == (exact_label, exact.permutation, exact.starred)


class TestClassifyN2:
    @pytest.mark.parametrize(
        "gammas,label",
        [
            ((2, 1), N2Type.GEN_A),
            ((1, -2), N2Type.GEN_C),
            ((1, -1), N2Type.TRANS_F),
            ((2, -1), N2Type.GEN_B),
            ((-1, -2), N2Type.GEN_D),
            ((1, 1), N2Type.TRANS_E),
            ((-1, -1), N2Type.TRANS_G),
            ((1, 2), N2Type.GEN_A),
            ((0, 1), N2Type.DEGENERATE_ZERO_WEIGHT),
        ],
    )
    def test_examples(self, gammas, label):
        assert classify_n2(gammas) is label

    def test_float_beside_exact_weight_beyond_float_range(self):
        assert classify_n2((10**400, 1.0)) is classify_n2((10**400, 1)) is N2Type.GEN_A
