import copy
import math
import os
import pickle
import re
import sys
import threading
from fractions import Fraction as F

import numpy as np
import pytest

from conftest import N2_FIXTURES, POLYTOPE_FIXTURES
from su3poly import oracle
from su3poly.moment_map import FIXED_CONFIGURATIONS, FIXED_CONFIGURATIONS_N2, InvalidWeight
from su3poly.oracle import (
    BLOCK,
    InvalidCount,
    _draw_spectra,
    _float_weights,
    _rng_for_block,
    empirical_polytope,
    sample_batch,
    sample_cp2,
    spectra_of_configurations,
    verify,
    violation_distances,
)
from su3poly.polytope import ChamberPolytope, build_polytope, build_polytope_n2, build_polytope_n3
from su3poly.su3 import SPECTRA_ERROR, InvalidTolerance, lift_2d


def _gaussian_blocks(seed, count, n_factors):
    """Yield ``(start, z)`` for each block of ``count`` Gaussian configurations,
    one block after another: unitarily invariant draws, read as points of
    CP^2, the reference law of the sampler's reduced-frame rows.

    ``z`` is the block's (size, n_factors, 3) array of complex Gaussians, a
    complex view of one float buffer that every block reuses, so it is valid
    only until the next block is drawn.
    """
    buf = np.empty((min(BLOCK, count), n_factors, 3, 2))
    for block, start in enumerate(range(0, count, BLOCK)):
        part = buf[: min(BLOCK, count - start)]
        _rng_for_block(seed, block).standard_normal(out=part)
        yield start, part.view(complex)[..., 0]


def _uniform_blocks(seed, count, n_factors):
    """Yield ``(start, u)`` for each block of the first ``count`` samples, one
    block after another: the uniforms of the sampler's reduced frame, (size,
    4) per block, (size, 1) with two factors."""
    for block, start in enumerate(range(0, count, BLOCK)):
        yield start, _rng_for_block(seed, block).random((min(BLOCK, count - start), 4 if n_factors == 3 else 1))


def frame_configurations(u):
    """The (n, N, 3) configurations that the uniforms ``u`` stand for:
    e1, (c, s, 0) with s^2 = sqrt(U), and, for three factors,
    (sqrt t1, sqrt t2 e^{i alpha}, sqrt t3) with t = (lo, hi - lo, 1 - hi)
    and alpha = 2 pi U."""
    s2 = np.sqrt(u[:, 0])
    z = np.zeros((len(u), 2 if u.shape[1] == 1 else 3, 3), dtype=complex)
    z[:, 0, 0] = 1.0
    z[:, 1, 0], z[:, 1, 1] = np.sqrt(1.0 - s2), np.sqrt(s2)
    if u.shape[1] == 4:
        lo, hi = np.minimum(u[:, 1], u[:, 2]), np.maximum(u[:, 1], u[:, 2])
        z[:, 2, 0] = np.sqrt(lo)
        z[:, 2, 1] = np.sqrt(hi - lo) * np.exp(2j * np.pi * u[:, 3])
        z[:, 2, 2] = np.sqrt(1.0 - hi)
    return z


def serial_spectra(gammas, count, seed):
    """``sample_batch(gammas, count, seed).spectra``, one block after another."""
    floats, power = _float_weights(gammas)
    spectra = np.empty((count, 3))
    for start, u in _uniform_blocks(seed, count, len(gammas)):
        oracle._frame_spectra(u, np.array(floats) / power, spectra[start : start + len(u)])
    return spectra * power


def serial_targeted_spectra(gammas, per_config, seed):
    """The targeted rows of ``_draw_spectra``, one configuration and scale
    after another."""
    configs = FIXED_CONFIGURATIONS if len(gammas) == 3 else FIXED_CONFIGURATIONS_N2
    chunks = []
    for idx, config in enumerate(sorted(configs)):
        base = np.array([list(p.coords) for p in configs[config]])
        for k, scale in enumerate((0.5, 0.1, 0.02, 0.004)):
            noise = _rng_for_block(seed, 1_000_003 + idx * 31 + k).standard_normal((per_config, len(base), 3, 2))
            chunks.append(spectra_of_configurations(base + scale * noise.view(complex)[..., 0], gammas))
    return np.concatenate(chunks)


def _gaussians(seed, count, n_factors):
    """(count, n_factors, 3) complex Gaussians: the reference stream."""
    return np.concatenate([z.copy() for _, z in _gaussian_blocks(seed, count, n_factors)])


def _sample_vectors(seed, count, n_factors):
    """The reference stream as unit vectors."""
    z = _gaussians(seed, count, n_factors)
    return z / np.linalg.norm(z, axis=-1, keepdims=True)


class TestSampling:
    def test_pinned_first_draw(self):
        z = sample_cp2(_rng_for_block(42, 0))
        pinned = (
            0.38020177859875354 + 0j,
            -0.2426391331909976 + 0.3454467864859902j,
            0.24595263084802851 - 0.7853322097559108j,
        )
        assert z.coords == pinned

    def test_unit_norm(self, rng_seeded):
        for _ in range(50):
            z = sample_cp2(rng_seeded)
            assert abs(sum(abs(c) ** 2 for c in z.coords) - 1.0) < 1e-12

    def test_bitwise_determinism(self):
        b1 = sample_batch((1, 1, 1), 3000, 7)
        b2 = sample_batch((1, 1, 1), 3000, 7)
        assert np.array_equal(b1.spectra, b2.spectra)
        assert np.array_equal(b1.chamber_points, b2.chamber_points)

    def test_batches_compare_and_hash_by_their_arrays(self):
        # equality once asked numpy for the truth value of an array
        a, b = sample_batch((4, 2, -1), 10, 0), sample_batch((4, 2, -1), 10, 0)
        other_seed = sample_batch((4, 2, -1), 10, 1)
        assert a == b and hash(a) == hash(b) and a is not b
        assert a != other_seed and not a == other_seed
        assert a != sample_batch((4, 2, -1), 11, 0)
        assert len({a, b, other_seed}) == 2
        for back in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
            assert back == a and hash(back) == hash(a)
            assert np.array_equal(back.spectra, a.spectra) and np.array_equal(back.chamber_points, a.chamber_points)

    def test_block_prefix_property(self):
        # results do not depend on how many samples were requested
        long = sample_batch((2, 1), 40000, 9)
        short = sample_batch((2, 1), 20000, 9)
        assert np.array_equal(long.spectra[:20000], short.spectra)

    def test_pinned_spectra_row(self):
        pinned = (0.6874273305594544, -0.12223071472141367, -0.5651966158380407)
        batch = sample_batch((1, 1, 1), 5, 123)
        assert np.allclose(batch.spectra[0], pinned, rtol=0, atol=1e-15)
        # the configuration of the first four uniforms of generator (123, 0)
        z = frame_configurations(_rng_for_block(123, 0).random((1, 4)))
        assert np.abs(reference_spectra(z, (1, 1, 1))[0] - pinned).max() <= SPECTRA_ERROR

    def test_spectra_sum_to_zero(self):
        batch = sample_batch((4, 2, -1), 2000, 1)
        assert np.abs(batch.spectra.sum(axis=1)).max() < 1e-10

    @pytest.mark.parametrize("count", [BLOCK - 1, BLOCK, BLOCK + 1])
    def test_prefix_across_block_boundaries(self, count):
        # a partial last block draws the prefix of the full one
        long = sample_batch((4, 2, -1), 3 * BLOCK + 5, 9)
        assert np.array_equal(sample_batch((4, 2, -1), count, 9).spectra, long.spectra[:count])

    def test_mean_moment_vanishes(self):
        z = _sample_vectors(0, 200_000, 1)
        mean = np.einsum("ni,nj->ij", z[:, 0, :], z[:, 0, :].conj()) / len(z) - np.eye(3) / 3
        assert np.abs(mean).max() < 5e-3


class BlockFailure(RuntimeError):
    pass


class TestBlockRunner:
    """The blocks run on several threads and give the serial rows bit for bit."""

    @pytest.mark.parametrize("count", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5, 200_000])
    @pytest.mark.parametrize("gammas", [(2, 1), (4, 2, -1)], ids=str)
    def test_equal_to_the_serial_loop_at_every_worker_count(self, monkeypatch, gammas, count):
        expected = serial_spectra(gammas, count, 8)
        for workers in (1, 2, 3):
            monkeypatch.setattr(oracle, "_worker_count", lambda: workers)
            batch = sample_batch(gammas, count, 8)
            assert np.array_equal(batch.spectra, expected), workers
            assert np.array_equal(batch.chamber_points, oracle.chamber_points_of_spectra(expected)), workers

    @pytest.mark.parametrize("gammas", [(2, 1), (4, 2, -1)], ids=str)
    def test_targeted_draws_equal_to_the_serial_loop(self, monkeypatch, gammas):
        expected = serial_targeted_spectra(gammas, 300, 5)
        for workers in (1, 2, 3):
            monkeypatch.setattr(oracle, "_worker_count", lambda: workers)
            assert np.array_equal(_draw_spectra(*_float_weights(gammas), 0, 5, 300), expected), workers

    @pytest.mark.parametrize(
        "gammas, count, targeted",
        [
            ((4, 2, -1), 2 * BLOCK, 0),
            ((4, 2, -1), 1000, BLOCK + 3),  # the targeted rows set the buffer's size
            ((4, 2, -1), BLOCK + 1, 300),  # a partial uniform block before the targeted ones
            ((2, 1), 3 * BLOCK + 7, 500),  # two factors: 8 targeted blocks
        ],
        ids=str,
    )
    def test_verify_equal_to_the_serial_streams_at_every_worker_count(self, monkeypatch, gammas, count, targeted):
        # the report verify makes from the serial uniform and targeted rows
        # verify's rows are at the weights over the sampler's power of two
        rows = np.concatenate([serial_spectra(gammas, count, 6), serial_targeted_spectra(gammas, targeted, 6)]) / _float_weights(gammas)[1]
        with monkeypatch.context() as patched:
            patched.setattr(oracle, "_draw_spectra", lambda *args: rows.copy())
            expected = verify(gammas, count, 6, targeted=targeted).to_json_dict()
        for workers in (1, 2, 3):
            monkeypatch.setattr(oracle, "_worker_count", lambda: workers)
            assert verify(gammas, count, 6, targeted=targeted).to_json_dict() == expected, workers

    @pytest.mark.parametrize("workers", [1, 3])
    def test_a_failing_block_raises_its_own_error_and_every_helper_is_joined(self, monkeypatch, workers):
        def failing(seed, block):
            if block == 2:
                raise BlockFailure(f"block {block}")
            return _rng_for_block(seed, block)

        before = threading.active_count()
        monkeypatch.setattr(oracle, "_worker_count", lambda: workers)
        monkeypatch.setattr(oracle, "_rng_for_block", failing)
        with pytest.raises(BlockFailure, match="block 2"):
            sample_batch((4, 2, -1), 6 * BLOCK, 1)
        assert threading.active_count() == before

    def test_every_block_runs_once_with_more_workers_than_cores(self, monkeypatch):
        # a lost update on the shared block iterator would run a block twice
        # or skip one, leaving its rows unwritten
        drawn = []

        def recording(seed, block):
            drawn.append(block)
            return _rng_for_block(seed, block)

        count = 10 * BLOCK + 7
        expected = serial_spectra((2, 1), count, 4)
        monkeypatch.setattr(oracle, "_worker_count", lambda: 8)
        monkeypatch.setattr(oracle, "_rng_for_block", recording)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            batch = sample_batch((2, 1), count, 4)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(drawn) == list(range(11))
        assert np.array_equal(batch.spectra, expected)

    def test_worker_count_is_the_cpus_the_process_may_use(self):
        if hasattr(os, "sched_getaffinity"):
            assert oracle._worker_count() == len(os.sched_getaffinity(0))
        assert oracle._worker_count() >= 1


class TestVerifySlack:
    """The violation slack is relative to the polytope, with no absolute floor."""

    def test_tiny_weights_verify(self):
        report = verify((4e-9, 2e-9, -1e-9), 20000, seed=2, tol=1e-6)
        assert report.label == "C"
        assert report.n_violations == 0
        assert report.hausdorff_inner < 0.05 * report.diameter

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1, -1e-9, True, "1e-6"])
    def test_bad_tolerance_is_named(self, monkeypatch, tol):
        # refused before anything is sampled: a NaN slack would count no violation
        monkeypatch.setattr(oracle, "_draw_spectra", None)
        with pytest.raises(InvalidTolerance, match=re.escape(repr(tol))):
            verify((4, 2, -1), 1000, seed=1, tol=tol)

    @pytest.mark.parametrize("targeted", [-1, True, 1.5, "500"])
    def test_bad_targeted_count_is_refused_before_drawing(self, monkeypatch, targeted):
        monkeypatch.setattr(oracle, "_draw_spectra", None)
        with pytest.raises(InvalidCount, match=re.escape(repr(targeted))):
            verify((4, 2, -1), 10**6, seed=1, targeted=targeted)

    def test_point_prediction_slack_scales_with_weight(self):
        for g in (1.0, 1e-9):
            report = verify((g, 0, 0), 2000, seed=2, tol=1e-6)
            assert report.diameter == 0 and report.n_violations == 0

    @pytest.mark.parametrize("t", [1.0, 1e-9])
    def test_segment_shifted_by_twice_the_slack_is_caught(self, monkeypatch, t):
        # every sample lies on the segment, so moving the half-planes of the
        # prediction off its line by 2 * slack makes every sample a
        # violation, at any scale (the vertices, and so the slack, stay)
        w = (2 * t, 1 * t)
        predicted = build_polytope(w)
        normals = [np.array(lift_2d(a, b), dtype=float) for a, b, _, _ in predicted.lines]
        shift = 2e-6 * predicted.diameter() * normals[0] / np.linalg.norm(normals[0])
        moved = tuple(
            (a, b, float(F(c, predicted.den)) + float(normal @ shift), p)
            for (a, b, c, p), normal in zip(predicted.lines, normals)
        )
        shifted = ChamberPolytope(moved, predicted.corners, 1, predicted.kind, predicted.label, predicted.starred)
        assert verify(w, 2000, seed=4, tol=1e-6).n_violations == 0
        monkeypatch.setattr(oracle, "build_polytope", lambda _: shifted)
        report = verify(w, 2000, seed=4, tol=1e-6)
        assert report.n_violations == report.n_samples


class TestFloatRange:
    """Sampling works at any scale whose spectra are floats, and says so
    with a typed error beyond it."""

    @pytest.mark.parametrize("k", [-150, -110, 110, 150, 300])
    def test_spectra_scale_with_the_weights(self, k):
        t = 10.0**k
        gammas = (4, 2, -1)
        base = sample_batch(gammas, 2000, 5).spectra
        scaled = sample_batch(tuple(t * g for g in gammas), 2000, 5).spectra
        assert np.abs(scaled - t * base).max() <= SPECTRA_ERROR * t * 4

    @pytest.mark.parametrize("k", [-110, 110])
    def test_verify_far_from_unit_scale(self, k):
        report = verify(tuple(10.0**k * g for g in (4, 2, -1)), 20000, 1)
        assert report.label == "C"
        assert report.n_violations == 0

    @pytest.mark.parametrize("k", [-200, -160, 160, 200])
    @pytest.mark.parametrize("gammas", [(4, 2, -1), (2, 1)])
    def test_verify_lengths_scale_with_the_weights(self, gammas, k):
        # beyond about 1e+-154 the hull's orientation test, the distances and
        # a segment's end offsets would square coordinates out of float range
        base = verify(gammas, 4000, 1)
        report = verify(tuple(10.0**k * g for g in gammas), 4000, 1)
        assert report.n_violations == 0
        assert report.diameter == pytest.approx(10.0**k * base.diameter, rel=1e-12)
        assert report.hausdorff_inner / report.diameter == pytest.approx(base.hausdorff_inner / base.diameter, rel=1e-8)
        assert report.max_violation <= 1e-12 * report.diameter

    def test_weights_checked_once_per_batch(self, monkeypatch):
        for run in (sample_batch, verify):
            calls, checks = [], []
            monkeypatch.setattr(oracle, "as_gammas", lambda w: calls.append(w) or tuple(w))
            monkeypatch.setattr(oracle, "_float_weights", lambda g: checks.append(g) or _float_weights(g))
            run((4, 2, -1), 2 * BLOCK + 1, 1)
            assert len(calls) == 1 and len(checks) == 1, run.__name__

    def test_direct_spectra_call_checks_the_weights(self):
        z = _gaussians(1, 10, 3)
        with pytest.raises(InvalidWeight, match="beyond float range"):
            spectra_of_configurations(z, (1e308, 1e308, 1e308))

    def test_exact_weight_beyond_float_range(self):
        with pytest.raises(InvalidWeight, match="weight 0 is beyond float range"):
            verify((10**400, 1, 1), 100, 1)

    @pytest.mark.parametrize("run", [sample_batch, verify])
    def test_spectra_beyond_float_range(self, run):
        with pytest.raises(InvalidWeight, match="beyond float range"):
            run((1e308, 1e308, 1e308), 100, 1)


class TestEmpiricalPolytope:
    def test_n2_segment_containment(self):
        batch, hull = empirical_polytope((1, 1), 20000, 5)
        predicted = build_polytope_n2((1, 1))
        excess = violation_distances(predicted, batch.spectra)
        assert excess.max() < 1e-9
        assert hull.kind in ("Segment", "Polygon")  # numerically a sliver

    def test_hull_inside_prediction(self):
        batch, hull = empirical_polytope((1, 1, 1), 20000, 5)
        predicted = build_polytope_n3((1, 1, 1))
        for v in hull.vertices:
            assert predicted.contains(v, 1e-9)


class TestVerify:
    def test_symmetric_weights_no_violations(self):
        report = verify((1, 1, 1), 20000, seed=2, tol=1e-6)
        assert report.ok and report.n_violations == 0
        assert report.hausdorff_inner < 0.05 * report.diameter

    def test_harness_detects_violations(self):
        # samples of the full-size polytope must violate a shrunken one
        batch = sample_batch((1, 1, 1), 5000, 2)
        shrunk = build_polytope_n3((0.8, 0.8, 0.8))
        excess = violation_distances(shrunk, batch.spectra)
        assert (excess > 1e-3).sum() > 0

    def test_vertex_coverage_with_targeted_sampling(self):
        report = verify((1, 1, 1), 5000, seed=2, tol=1e-6, targeted=500)
        # first vertex is the diagonal anchor a
        assert report.vertex_coverage[0] < 0.05
        assert max(report.vertex_coverage) < 0.2

    def test_zero_weight_delegates(self):
        report = verify((2, 1, 0), 10000, seed=2, tol=1e-6)
        assert report.ok

    def test_star_consistency(self):
        _, hull_pos = empirical_polytope((2, 1, -4), 50000, 6)
        _, hull_neg = empirical_polytope((-2, -1, 4), 50000, 6)
        from su3poly.polytope import hausdorff

        mirrored = hull_pos.star()
        d = hausdorff(mirrored, hull_neg)
        diam = build_polytope((2, 1, -4)).diameter()
        assert d < 0.05 * diam

    def test_report_json(self):
        report = verify((1, 1), 2000, seed=2, tol=1e-6)
        d = report.to_json_dict()
        assert d["n_violations"] == 0 and d["label"] == "TransE"

    @pytest.mark.parametrize("fixture", N2_FIXTURES, ids=lambda f: f[1])
    def test_n2_fixtures_no_violations(self, fixture):
        gammas, label = fixture[:2]
        report = verify(gammas, 20000, seed=3, tol=1e-6)
        assert report.label == label
        assert report.n_violations == 0

    def test_thin_segment_no_violations(self):
        # diameter 1.4e-3 of max|gamma|: the slack is 1.4e-9, so spectra must
        # be accurate next to the double eigenvalue at the endpoint a
        report = verify((1, F(1, 1000)), 20000, seed=3, tol=1e-6)
        assert report.label == "GenA"
        assert report.n_violations == 0


def reference_spectra(z, gammas):
    """Batched LAPACK eigenvalues of the explicitly built matrices."""
    m = np.zeros((z.shape[0], 3, 3), dtype=complex)
    for j, g in enumerate(gammas):
        m += float(g) * np.einsum("ni,nj->nij", z[:, j, :], z[:, j, :].conj())
    m -= (sum(float(g) for g in gammas) / 3.0) * np.eye(3)
    return np.linalg.eigvalsh(m)[:, ::-1]


def near_fixed_configurations(gammas, per_scale, seed):
    """Configurations within 1e-2 .. 1e-8 of every torus-fixed one."""
    configs = FIXED_CONFIGURATIONS if len(gammas) == 3 else FIXED_CONFIGURATIONS_N2
    chunks = []
    for idx, config in enumerate(sorted(configs)):
        base = np.array([list(p.coords) for p in configs[config]])
        for k, scale in enumerate((1e-2, 1e-4, 1e-6, 1e-8)):
            z = _rng_for_block(seed, 1_000 + idx * 31 + k).standard_normal((per_scale, len(base), 3, 2))
            vec = base[None, :, :] + scale * (z[..., 0] + 1j * z[..., 1])
            chunks.append(vec / np.linalg.norm(vec, axis=-1, keepdims=True))
    return np.concatenate(chunks, axis=0)


def random_factor_scalars(shape, seed):
    """Nonzero complex scalars, one per row and factor, of size 1e-4 .. 1e4."""
    rng = np.random.default_rng(seed)
    size = 10.0 ** rng.uniform(-4, 4, shape)
    return (size * np.exp(2j * np.pi * rng.uniform(size=shape)))[..., None]


FIXTURE_WEIGHTS = list(POLYTOPE_FIXTURES) + [f[0] for f in N2_FIXTURES]
SPECTRA_WEIGHTS = FIXTURE_WEIGHTS + [(4, 2, -1), (2, 1, 0), (1, F(1, 1000))]


class TestBatchedSpectra:
    @pytest.mark.parametrize("gammas", SPECTRA_WEIGHTS, ids=str)
    @pytest.mark.parametrize("draws", ["uniform", "near-fixed"])
    def test_matches_lapack_within_bound(self, gammas, draws):
        if draws == "uniform":
            z = _sample_vectors(11, 20000, len(gammas))
        else:
            z = near_fixed_configurations(gammas, 500, 11)
        scale = max(abs(float(g)) for g in gammas)
        got = spectra_of_configurations(z, gammas)
        assert np.abs(got - reference_spectra(z, gammas)).max() <= SPECTRA_ERROR * scale
        assert np.all(got[:, :-1] >= got[:, 1:])
        assert np.abs(got.sum(axis=1)).max() <= 1e-12 * scale

    def test_bound_below_verify_slack(self):
        # the slack of verify at its default tol, over every fixture
        for gammas in FIXTURE_WEIGHTS:
            scale = max(abs(float(g)) for g in gammas)
            assert SPECTRA_ERROR * scale < 1e-6 * build_polytope(gammas).diameter()

    @pytest.mark.parametrize("gammas", SPECTRA_WEIGHTS, ids=str)
    @pytest.mark.parametrize("draws", ["uniform", "near-fixed"])
    def test_invariant_under_rescaling_each_factor(self, gammas, draws):
        if draws == "uniform":
            z = _sample_vectors(13, 5000, len(gammas))
        else:
            z = near_fixed_configurations(gammas, 100, 13)
        scale = max(abs(float(g)) for g in gammas)
        got = spectra_of_configurations(z * random_factor_scalars(z.shape[:2], 14), gammas)
        assert np.abs(got - spectra_of_configurations(z, gammas)).max() <= SPECTRA_ERROR * scale

    @pytest.mark.parametrize("gammas", SPECTRA_WEIGHTS, ids=str)
    @pytest.mark.parametrize("draws", ["uniform", "near-fixed"])
    def test_unnormalised_input_matches_lapack(self, gammas, draws):
        if draws == "uniform":
            z = _gaussians(15, 5000, len(gammas))
        else:
            z = near_fixed_configurations(gammas, 100, 15)
            z = z * random_factor_scalars(z.shape[:2], 16)
        scale = max(abs(float(g)) for g in gammas)
        unit = z / np.linalg.norm(z, axis=-1, keepdims=True)
        got = spectra_of_configurations(z, gammas)
        assert np.abs(got - reference_spectra(unit, gammas)).max() <= SPECTRA_ERROR * scale

    def test_out_is_written_in_place(self):
        z = _sample_vectors(3, 5000, 3)
        expected = spectra_of_configurations(z, (4, 2, -1))
        block = np.full((6000, 3), np.nan)
        out = block[1000:]
        assert spectra_of_configurations(z, (4, 2, -1), out=out) is out
        assert np.array_equal(block[1000:], expected)
        assert np.isnan(block[:1000]).all()

    def test_zero_weights_give_zero_spectra(self):
        z = _sample_vectors(1, 100, 3)
        assert np.array_equal(spectra_of_configurations(z, (0, 0, 0)), np.zeros((100, 3)))


def gaussian_spectra(gammas, count, seed):
    """Spectra of ``count`` Gaussian configurations: the reference law."""
    spectra = np.empty((count, 3))
    for start, z in _gaussian_blocks(seed, count, len(gammas)):
        spectra_of_configurations(z, gammas, out=spectra[start : start + len(z)])
    return spectra


def two_sample_chi2(a, b, gammas, bins=16):
    """Two-sample chi^2 statistic and degrees of freedom of two equal-size
    spectra samples, on a fixed bins x bins grid of (l1, l3) over the
    bounding box of the predicted polytope; cells with fewer than 20 rows
    in both samples together are pooled into one.  A coordinate that is
    constant on the polytope (l3 = -1 for the weights (2, 1)) is left out,
    and the other one gets bins^2 bins: its rounding would otherwise fall
    on either side of an edge."""
    corners = np.array([v.astuple() for v in build_polytope(gammas).vertices], dtype=float)
    lo, hi = corners.min(axis=0), corners.max(axis=0)
    pad = 1e-9 * float((hi - lo).max())
    live = [k for k in (0, 2) if hi[k] - lo[k] > pad]
    edges = [np.linspace(lo[k] - pad, hi[k] + pad, (bins if len(live) == 2 else bins * bins) + 1) for k in live]
    r, s = (np.histogramdd(x[:, live], bins=edges)[0].ravel() for x in (a, b))
    small = r + s < 20
    r, s = np.append(r[~small], r[small].sum()), np.append(s[~small], s[small].sum())
    keep = r + s > 0
    return float(((r - s)[keep] ** 2 / (r + s)[keep]).sum()), int(keep.sum()) - 1


def chi2_upper(dof, z=4.265):
    """Wilson-Hilferty upper quantile of chi^2 with ``dof`` degrees of
    freedom at the standard normal quantile ``z`` (4.265: tail 1e-5)."""
    return dof * (1.0 - 2.0 / (9.0 * dof) + z * math.sqrt(2.0 / (9.0 * dof))) ** 3


#: A generic weight (C), a transition weight (EF) and two factors.
GATE_WEIGHTS = [(4, 2, -1), (3, 1, -2), (2, 1)]


class TestReducedFrame:
    """The uniform rows are spectra of their reduced-frame configurations,
    with the law of unitarily invariant Gaussian configurations."""

    @pytest.mark.parametrize("gammas", GATE_WEIGHTS, ids=str)
    def test_rows_have_the_law_of_gaussian_configurations(self, gammas):
        # Two-sample chi^2 against the Gaussian reference, 2e5 rows each, at a
        # nominal false-alarm rate of 1e-5 (thresholds 1.42-1.72 times dof).
        # Over seeds 0..39 of each weight (reference seed + 1000) it fired 0
        # times in 120, median chi^2/dof 0.99, largest 1.32.  Sampler faults
        # it rejects, by chi^2/dof: c^2 uniform instead of Beta(1, 2) (154-222),
        # alpha = 0 (24-72; no alpha with two factors) and real Gaussian
        # RP^2 draws (113-343).
        stat, dof = two_sample_chi2(sample_batch(gammas, 200_000, 1).spectra, gaussian_spectra(gammas, 200_000, 1001), gammas)
        assert dof >= 20
        assert stat < chi2_upper(dof), stat / dof

    @pytest.mark.parametrize("gammas", SPECTRA_WEIGHTS, ids=str)
    def test_rows_are_the_spectra_of_their_configurations(self, gammas):
        count = BLOCK + 100
        z = np.concatenate([frame_configurations(u) for _, u in _uniform_blocks(17, count, len(gammas))])
        scale = max(abs(float(g)) for g in gammas)
        got = sample_batch(gammas, count, 17).spectra
        assert np.abs(got - spectra_of_configurations(z, gammas)).max() <= SPECTRA_ERROR * scale

    def test_frame_vectors_are_unit_vectors(self):
        z = frame_configurations(_rng_for_block(3, 0).random((1000, 4)))
        assert np.abs(np.linalg.norm(z, axis=-1) - 1.0).max() < 1e-15 * 4
