"""Monte Carlo ground truth for the predicted polytopes.

Configurations are drawn Fubini-Study-uniformly (complex Gaussian vectors,
whose distribution is unitarily invariant, read as points of CP^2), pushed
through the weighted momentum map and the eigenvalue map, and compared with
the exact half-plane prediction: containment violations, the inner Hausdorff
deficit of the empirical hull, and per-vertex coverage.

Sampling is block-seeded: sample ``i`` lives in block ``i // BLOCK`` with its
own generator derived from ``(seed, block)``, so batches are bitwise
reproducible and independent of how work is partitioned.

Sampling and spectra are one pass over the blocks.  Each block's Gaussians
are drawn into one reused float buffer and read through its complex view, so
no array of unit vectors is ever built: the momentum map is projective
(``z z^* / |z|^2`` does not change when ``z`` is rescaled), so
:func:`spectra_of_configurations` weights each factor by ``g_j / |z_j|^2``
instead of normalising it.  It sums the six independent entries of each
momentum-map matrix in cache-sized chunks and hands them to the closed-form
3x3 eigenvalue kernel of :mod:`su3` (no LAPACK call), writing each block's
rows straight into the batch.  Containment forms one (half-planes, n) array,
coverage one (vertices, n) array, and the hull deficit is the scalar
point-to-polygon distance of :mod:`polytope` from the predicted vertices to
:func:`polytope.hull2d`'s distance-tolerance quickhull, whose vertices do not
depend on the points inside the hull.

Numpy is imported inside the functions that batch floats, not with the
module, so importing the package and running the exact pipeline never load
it.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Optional, Tuple

from .moment_map import CPPoint, FIXED_CONFIGURATIONS, FIXED_CONFIGURATIONS_N2, InvalidWeight, as_gammas
from .polytope import ChamberPolytope, _distances, _float_lines, _pq_array, build_polytope, hull2d
from .su3 import SQRT2, SQRT6, check_tolerance, is_exact, spectra_of_entries

if TYPE_CHECKING:  # annotations only: importing the package loads no numpy
    import numpy as np

BLOCK = 1 << 14
_ROW, _COL = [0, 0, 1], [1, 2, 2]  # upper entries 12, 13, 23
_CHUNK = 2048  # rows per spectra chunk


class PredictionUnavailable(ValueError):
    """No predicted polytope exists for the requested weights."""


class InvalidCount(ValueError):
    """A sample count that is not an integer of at least the required size."""


def _checked_count(count, least: int) -> int:
    if type(count) is bool or not isinstance(count, numbers.Integral) or count < least:
        raise InvalidCount(f"count {count!r} is not an integer >= {least}")
    return int(count)


def _rng_for_block(seed: int, block: int) -> np.random.Generator:
    import numpy as np

    return np.random.default_rng([int(seed), int(block)])


def sample_cp2(rng: np.random.Generator) -> CPPoint:
    """One Fubini-Study-uniform point of CP^2."""
    z = rng.standard_normal((3, 2))
    vec = z[:, 0] + 1j * z[:, 1]
    return CPPoint.of(*vec)


def _gaussian_blocks(seed: int, count: int, n_factors: int):
    """Yield ``(start, z)`` for each block of the first ``count`` samples.

    ``z`` is the block's (size, n_factors, 3) array of complex Gaussians, a
    complex view of one float buffer that every block reuses, so it is valid
    only until the next block is drawn.  ``standard_normal`` fills its output
    in order, so a partial block is the prefix of the full one.
    """
    import numpy as np

    buf = np.empty((min(BLOCK, count), n_factors, 3, 2))
    for block, start in enumerate(range(0, count, BLOCK)):
        part = buf[: min(BLOCK, count - start)]
        _rng_for_block(seed, block).standard_normal(out=part)
        yield start, part.view(complex)[..., 0]


@dataclass(frozen=True)
class _SamplingWeights:
    """Weights checked for sampling, and the power of two they are run at.

    Spectra are homogeneous of degree 1 in the weights, and the eigenvalue
    kernel forms cubic terms: it runs on ``floats / power``, with ``power``
    the power of two nearest max |gamma| (an exact division), and its rows
    are multiplied back.  :func:`verify` compares the samples with the
    prediction at the same scale.
    """

    floats: Tuple[float, ...]
    power: float

    @classmethod
    def of(cls, w) -> "_SamplingWeights":
        """Check the weights: every spectrum entry is at most (2/3) sum |gamma_j|
        in size and every chamber coordinate at most 2 sum |gamma_j|, so that
        bound must be a finite float; otherwise :class:`moment_map.InvalidWeight`
        names the weight, where the sampler would give an ``OverflowError`` or
        NaN rows."""
        gammas = as_gammas(w)
        for k, g in enumerate(gammas):
            if abs(g) > sys.float_info.max:
                raise InvalidWeight(f"weight {k} is beyond float range; its spectra cannot be sampled")
        floats = tuple(float(g) for g in gammas)
        if not math.isfinite(2.0 * sum(abs(g) for g in floats)):
            raise InvalidWeight(f"weights {floats} give spectra beyond float range")
        return cls(floats, math.ldexp(1.0, math.frexp(max(abs(g) for g in floats))[1]))


def spectra_of_configurations(z: np.ndarray, gammas, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Sorted momentum-map spectra of an array of configurations.

    ``z`` has shape (n, N, 3), each factor a nonzero vector that need not be
    a unit one; the result is (n, 3) with rows descending, written into
    ``out`` when given.  The momentum map is projective, so factor j enters
    as ``g_j z_j z_j^* / |z_j|^2``: the six independent entries of that sum
    are formed from ``z`` with the weights ``g_j / |z_j|^2`` and handed to
    the closed-form eigenvalue kernel :func:`su3.spectra_of_entries`; no unit
    vector and no (n, 3, 3) matrix is built.  Rows are processed in chunks
    small enough for the temporaries to stay in cache.  The samplers pass
    their weights already checked, so the check runs once per batch.
    """
    import numpy as np

    checked = gammas if isinstance(gammas, _SamplingWeights) else _SamplingWeights.of(gammas)
    power = checked.power
    gs = np.array(checked.floats) / power
    if out is None:
        out = np.empty((z.shape[0], 3))
    for start in range(0, z.shape[0], _CHUNK):
        zc = z[start : start + _CHUNK]
        sq = zc.real * zc.real + zc.imag * zc.imag
        w = gs / (sq[:, :, 0] + sq[:, :, 1] + sq[:, :, 2])  # g_j / |z_j|^2
        diag = np.einsum("cj,cjk->ck", w, sq)
        wzbar = zc.conj()
        wzbar *= w[:, :, None]
        off = np.empty((len(zc), 3), dtype=complex)
        for k, (a, b) in enumerate(zip(_ROW, _COL)):
            off[:, k] = np.einsum("cj,cj->c", zc[:, :, a], wzbar[:, :, b])
        out[start : start + len(zc)] = spectra_of_entries(diag, off)
    if power != 1.0:
        out *= power
    return out


def chamber_points_of_spectra(spectra: np.ndarray) -> np.ndarray:
    """(n, 2) isometric chamber coordinates of sorted spectra rows."""
    import numpy as np

    l1, l2, l3 = spectra[:, 0], spectra[:, 1], spectra[:, 2]
    return np.stack([(l1 - l2) / SQRT2, (l1 + l2 - 2 * l3) / SQRT6], axis=1)


@dataclass(frozen=True)
class SampleBatch:
    """Reproducible batch of momentum-map spectra."""

    seed: int
    count: int
    spectra: np.ndarray  # (count, 3), rows sorted descending, sum ~ 0
    chamber_points: np.ndarray  # (count, 2)

    def csv_rows(self):
        for lam, pq in zip(self.spectra, self.chamber_points):
            yield (lam[0], lam[1], lam[2], pq[0], pq[1])


def sample_batch(w, count: int, seed: int) -> SampleBatch:
    """``count`` uniform samples of the weights' momentum-map spectra.

    Raises :class:`moment_map.InvalidWeight` before drawing anything when
    the spectra would leave float range, and :class:`InvalidCount` for a
    count that is not an integer >= 0.
    """
    import numpy as np

    count = _checked_count(count, 0)
    checked = _SamplingWeights.of(w)
    spectra = np.empty((count, 3))
    for start, z in _gaussian_blocks(seed, count, len(checked.floats)):
        spectra_of_configurations(z, checked, out=spectra[start : start + len(z)])
    return SampleBatch(seed, count, spectra, chamber_points_of_spectra(spectra))


def empirical_polytope(w, count: int, seed: int) -> Tuple[SampleBatch, ChamberPolytope]:
    """Uniform batch plus the convex hull of its chamber image.

    The hull is an inner approximation of the true momentum polytope.
    """
    batch = sample_batch(w, _checked_count(count, 1), seed)
    return batch, hull2d(batch.chamber_points)


def _targeted_spectra(w, per_config: int, seed: int) -> np.ndarray:
    """Extra samples concentrated near the torus-fixed configurations.

    Uniform draws reach polytope vertices slowly; perturbing the fixed
    configurations at a few shrinking scales covers them quickly.  All draws
    are genuine momentum-map images, so they may be pooled with the uniform
    batch.
    """
    import numpy as np

    checked = _SamplingWeights.of(w)
    configs = FIXED_CONFIGURATIONS if len(checked.floats) == 3 else FIXED_CONFIGURATIONS_N2
    scales = (0.5, 0.1, 0.02, 0.004)
    out = np.empty((len(configs) * len(scales) * per_config, 3))
    start = 0
    for idx, config in enumerate(sorted(configs)):
        base = np.array([list(p.coords) for p in configs[config]])  # (N, 3)
        for k, scale in enumerate(scales):
            rng = _rng_for_block(seed, 1_000_003 + idx * 31 + k)
            noise = rng.standard_normal((per_config, len(base), 3, 2)).view(complex)[..., 0]
            spectra_of_configurations(base + scale * noise, checked, out=out[start : start + per_config])
            start += per_config
    return out


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of checking samples against the predicted polytope."""

    label: Optional[str]
    seed: int
    n_samples: int
    n_violations: int
    max_violation: float
    hausdorff_inner: float
    vertex_coverage: Tuple[float, ...]
    diameter: float
    tolerance: float

    @property
    def ok(self) -> bool:
        return self.n_violations == 0

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "seed": self.seed,
            "n_samples": self.n_samples,
            "n_violations": self.n_violations,
            "max_violation": self.max_violation,
            "hausdorff_inner": self.hausdorff_inner,
            "vertex_coverage": list(self.vertex_coverage),
            "diameter": self.diameter,
            "tolerance": self.tolerance,
        }


def violation_distances(P: ChamberPolytope, spectra: np.ndarray) -> np.ndarray:
    """Per-sample distance outside the polytope (0 inside), from one (lines, n) array."""
    import numpy as np

    rows = _float_lines(P)
    normals = np.array([normal for normal, _ in rows])
    offsets = np.array([offset for _, offset in rows])
    units = np.linalg.norm(normals, axis=1)
    signed = normals @ spectra.T
    signed -= offsets[:, None]
    signed /= units[:, None]
    return np.maximum(0.0, -signed.min(axis=0))


def verify(w, count: int, seed: int, tol: float = 1e-6, targeted: int = 500) -> VerificationReport:
    """Sample, then report violations, hull deficit and vertex coverage.

    A sample counts as a violation when it falls outside the predicted
    polytope by more than ``tol`` times the polytope diameter, or ``tol``
    times max|gamma| when the prediction is a point; the slack has no
    absolute floor, so it scales with the weights.  The computed spectra lie
    within ``su3.SPECTRA_ERROR * max|gamma|`` = 1e-13 max|gamma| of the true
    ones, below that slack whenever the diameter exceeds ``1e-13 / tol``
    times max|gamma| (1e-7 at the default ``tol``; every fixture of the test
    suite has a diameter of at least 0.7 max|gamma|), so there a violation is
    never an artefact of the eigenvalue computation.  ``targeted`` adds draws
    concentrated near each torus-fixed configuration, which drive the
    per-vertex coverage distances to zero much faster than uniform sampling.
    A count that is not a positive integer raises :class:`InvalidCount`, and
    a ``tol`` that :func:`su3.check_tolerance` refuses raises its error.
    """
    import numpy as np

    count = _checked_count(count, 1)
    check_tolerance(tol)
    try:
        gammas = as_gammas(w)
    except ValueError as exc:
        raise PredictionUnavailable(str(exc)) from exc
    checked = _SamplingWeights.of(gammas)
    # The comparison runs at the weights over the sampler's power of two: a
    # segment's end half-planes have offsets quadratic in the weights, and
    # the hull's prefilter and the distances square coordinates.  The
    # scaling is exact, and every reported length is scaled back.
    power = checked.power
    try:
        predicted = build_polytope(tuple(g / power if not is_exact(g) else Fraction(g) / Fraction(power) for g in gammas))
    except ValueError as exc:
        raise PredictionUnavailable(str(exc)) from exc

    batch = sample_batch(w, count, seed)
    spectra, pq = batch.spectra, batch.chamber_points
    if _checked_count(targeted, 0):
        extra = _targeted_spectra(w, targeted, seed)
        spectra = np.concatenate([spectra, extra], axis=0)
        pq = np.concatenate([pq, chamber_points_of_spectra(extra)], axis=0)
    # in place: neither the batch nor the pooled arrays leave this function
    spectra /= power
    pq /= power

    diam = predicted.diameter()
    slack = tol * (diam if diam > 0 else max(abs(g) for g in checked.floats) / power)
    excess = violation_distances(predicted, spectra)

    corners = _pq_array(predicted)
    deficit = max(_distances(corners, _pq_array(hull2d(pq))))

    # each vertex's nearest sample, picked on (vertices, n) squared distances
    corners = np.array(corners)
    nearest = pq[((pq[:, 0] - corners[:, :1]) ** 2 + (pq[:, 1] - corners[:, 1:]) ** 2).argmin(axis=1)]
    coverage = np.hypot(nearest[:, 0] - corners[:, 0], nearest[:, 1] - corners[:, 1])

    return VerificationReport(
        label=predicted.label,
        seed=seed,
        n_samples=int(spectra.shape[0]),
        n_violations=int(np.count_nonzero(excess > slack)),
        max_violation=power * float(excess.max()),
        hausdorff_inner=power * deficit,
        vertex_coverage=tuple(power * float(d) for d in coverage),
        diameter=power * diam,
        tolerance=tol,
    )
