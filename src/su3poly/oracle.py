"""Monte Carlo ground truth for the predicted polytopes.

Configurations are drawn Fubini-Study-uniformly (normalised complex
Gaussians, whose distribution is unitarily invariant), pushed through the
weighted momentum map and the eigenvalue map, and compared with the exact
half-plane prediction: containment violations, the inner Hausdorff deficit
of the empirical hull, and per-vertex coverage.

Sampling is block-seeded: sample ``i`` lives in block ``i // BLOCK`` with its
own generator derived from ``(seed, block)``, so batches are bitwise
reproducible and independent of how work is partitioned.

The two hot stages use the problem's structure instead of general tools.
Spectra come from the six independent entries of each momentum-map matrix
through the closed-form 3x3 eigenvalue kernel of :mod:`su3` (no LAPACK
call), and :func:`polytope.hull2d` sends every cloud through an
Akl-Toussaint prefilter, so its Python chain sees a few thousand points
instead of every sample.  The filter drops only points strictly inside the
hull, but the chain's area tolerance can still pick a different vertex
inside clusters finer than about ``sqrt(eps)`` of the scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .moment_map import CPPoint, FIXED_CONFIGURATIONS, FIXED_CONFIGURATIONS_N2, as_gammas
from .polytope import ChamberPolytope, build_polytope, distance_to_polytope_pq, hull2d
from .su3 import SQRT2, SQRT6, spectra_of_entries

BLOCK = 1 << 14
_ROW, _COL = [0, 0, 1], [1, 2, 2]  # upper entries 12, 13, 23
_CHUNK = 2048  # rows per spectra chunk


class PredictionUnavailable(ValueError):
    """No predicted polytope exists for the requested weights."""


def _rng_for_block(seed: int, block: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), int(block)])


def sample_cp2(rng: np.random.Generator) -> CPPoint:
    """One Fubini-Study-uniform point of CP^2."""
    z = rng.standard_normal((3, 2))
    vec = z[:, 0] + 1j * z[:, 1]
    return CPPoint.of(*vec)


def _sample_vectors(seed: int, count: int, n_factors: int) -> np.ndarray:
    """(count, n_factors, 3) unit complex vectors, block-reproducible."""
    out = np.empty((count, n_factors, 3), dtype=complex)
    pos = 0
    block = 0
    while pos < count:
        size = min(BLOCK, count - pos)
        rng = _rng_for_block(seed, block)
        # standard_normal fills its output in order, so a partial block is
        # the prefix of the full one
        z = rng.standard_normal((size, n_factors, 3, 2))
        vec = z[..., 0] + 1j * z[..., 1]
        out[pos : pos + size] = vec
        pos += size
        block += 1
    out /= np.linalg.norm(out, axis=-1, keepdims=True)
    return out


def spectra_of_configurations(z: np.ndarray, gammas) -> np.ndarray:
    """Sorted momentum-map spectra of an array of configurations.

    ``z`` has shape (n, N, 3); the result is (n, 3) with rows descending.
    The six independent entries of ``sum_j gamma_j z_j z_j^*`` are summed
    straight from ``z`` and handed to the closed-form eigenvalue kernel
    :func:`su3.spectra_of_entries`; no (n, 3, 3) matrix is built.  Rows are
    processed in chunks small enough for the temporaries to stay in cache,
    which halves the time at 1e6 rows; each row's arithmetic is unchanged.
    """
    gs = [float(g) for g in gammas]
    out = np.empty((z.shape[0], 3))
    for start in range(0, z.shape[0], _CHUNK):
        zc = z[start : start + _CHUNK]
        diag = np.zeros((len(zc), 3))
        off = np.zeros((len(zc), 3), dtype=complex)
        for j, g in enumerate(gs):
            zj = zc[:, j, :]
            diag += g * (zj.real * zj.real + zj.imag * zj.imag)
            off += g * zj[:, _ROW] * zj[:, _COL].conj()
        out[start : start + _CHUNK] = spectra_of_entries(diag, off)
    return out


def chamber_points_of_spectra(spectra: np.ndarray) -> np.ndarray:
    """(n, 2) isometric chamber coordinates of sorted spectra rows."""
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
    gammas = as_gammas(w)
    z = _sample_vectors(seed, count, len(gammas))
    spectra = spectra_of_configurations(z, gammas)
    return SampleBatch(seed, count, spectra, chamber_points_of_spectra(spectra))


def empirical_polytope(w, count: int, seed: int) -> Tuple[SampleBatch, ChamberPolytope]:
    """Uniform batch plus the convex hull of its chamber image.

    The hull is an inner approximation of the true momentum polytope.
    """
    if count < 1:
        raise ValueError("count must be positive")
    batch = sample_batch(w, count, seed)
    return batch, hull2d(batch.chamber_points)


def _targeted_spectra(w, per_config: int, seed: int) -> np.ndarray:
    """Extra samples concentrated near the torus-fixed configurations.

    Uniform draws reach polytope vertices slowly; perturbing the fixed
    configurations at a few shrinking scales covers them quickly.  All draws
    are genuine momentum-map images, so they may be pooled with the uniform
    batch.
    """
    gammas = as_gammas(w)
    configs = FIXED_CONFIGURATIONS if len(gammas) == 3 else FIXED_CONFIGURATIONS_N2
    scales = (0.5, 0.1, 0.02, 0.004)
    chunks = []
    for idx, config in enumerate(sorted(configs)):
        base = np.array([list(p.coords) for p in configs[config]])  # (N, 3)
        for k, scale in enumerate(scales):
            rng = _rng_for_block(seed, 1_000_003 + idx * 31 + k)
            z = rng.standard_normal((per_config, len(base), 3, 2))
            noise = z[..., 0] + 1j * z[..., 1]
            vec = base[None, :, :] + scale * noise
            vec /= np.linalg.norm(vec, axis=-1, keepdims=True)
            chunks.append(spectra_of_configurations(vec, gammas))
    return np.concatenate(chunks, axis=0)


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
    """Per-sample distance outside the polytope (0 inside), vectorised."""
    normals = np.array([[float(c) for c in hp.normal] for hp in P.halfplanes])
    offsets = np.array([float(hp.offset) for hp in P.halfplanes])
    units = np.linalg.norm(normals, axis=1)
    signed = (spectra @ normals.T - offsets) / units
    return np.maximum(0.0, -signed.min(axis=1))


def verify(w, count: int, seed: int, tol: float = 1e-6, targeted: int = 500) -> VerificationReport:
    """Sample, then report violations, hull deficit and vertex coverage.

    A sample counts as a violation when it falls outside the predicted
    polytope by more than ``tol`` times the polytope diameter (with a 1e-12
    absolute floor).  The computed spectra lie within
    ``su3.SPECTRA_ERROR * max|gamma|`` = 1e-13 max|gamma| of the true ones,
    below that slack whenever the diameter exceeds ``1e-13 / tol`` times
    max|gamma| (1e-7 at the default ``tol``; every fixture of the test suite
    has a diameter of at least 0.7 max|gamma|), so there a violation is
    never an artefact of the eigenvalue computation.  ``targeted`` adds draws
    concentrated near each torus-fixed configuration, which drive the
    per-vertex coverage distances to zero much faster than uniform sampling.
    """
    if count < 1:
        raise ValueError("count must be positive")
    try:
        predicted = build_polytope(w)
    except ValueError as exc:
        raise PredictionUnavailable(str(exc)) from exc

    batch = sample_batch(w, count, seed)
    spectra, pq = batch.spectra, batch.chamber_points
    if targeted > 0:
        extra = _targeted_spectra(w, targeted, seed)
        spectra = np.concatenate([spectra, extra], axis=0)
        pq = np.concatenate([pq, chamber_points_of_spectra(extra)], axis=0)

    diam = predicted.diameter()
    slack = max(tol * diam, 1e-12)
    excess = violation_distances(predicted, spectra)
    n_viol = int(np.count_nonzero(excess > slack))
    max_viol = float(excess.max()) if len(excess) else 0.0

    hull = hull2d(pq)
    deficit = max(distance_to_polytope_pq((c.p, c.q), hull) for c in predicted.pq_vertices())

    coverage = []
    for v in predicted.pq_vertices():
        d = np.hypot(pq[:, 0] - v.p, pq[:, 1] - v.q)
        coverage.append(float(d.min()))

    return VerificationReport(
        label=predicted.label,
        seed=seed,
        n_samples=int(spectra.shape[0]),
        n_violations=n_viol,
        max_violation=max_viol,
        hausdorff_inner=float(deficit),
        vertex_coverage=tuple(coverage),
        diameter=diam,
        tolerance=tol,
    )
