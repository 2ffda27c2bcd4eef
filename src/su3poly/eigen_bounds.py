"""Eigenvalue bounds for sums of Hermitian matrices with double eigenvalues.

A trace-zero 3x3 Hermitian matrix with spectrum (lam, lam, -2 lam) can be
written ``lam (I - 3 Z (x) conj(Z))`` for a line Z, which equals the weighted
momentum map value with weight ``-3 lam``.  Sums of two or three such
matrices therefore have spectra confined to the momentum segment or polytope
at weights ``gamma_j = -3 lam_j``, and every point of that set is attained.

The bounds are exact and load no numpy; the realization search imports it
when it runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from .polytope import ChamberPolytope, build_polytope
from .su3 import Hermitian3, Scalar, Spectrum, to_positive_chamber


@dataclass(frozen=True)
class DoubleEigMatrixSpec:
    """A trace-zero Hermitian matrix class with spectrum (lam, lam, -2 lam)."""

    lam: Scalar

    def realize(self, line: np.ndarray) -> Hermitian3:
        """The matrix lam (I - 3 Z conj(Z)^T) with simple eigenvector line Z."""
        import numpy as np

        z = np.asarray(line, dtype=complex)
        z = z / np.linalg.norm(z)
        m = float(self.lam) * (np.eye(3) - 3.0 * np.outer(z, z.conj()))
        return Hermitian3.from_numpy(m)


def gamma_of_lambda(spec: DoubleEigMatrixSpec) -> Scalar:
    """Weight corresponding to a double-eigenvalue class: gamma = -3 lam."""
    return -3 * spec.lam


def _as_spec(x) -> DoubleEigMatrixSpec:
    return x if isinstance(x, DoubleEigMatrixSpec) else DoubleEigMatrixSpec(x)


def sum_bounds_two(a, b) -> Tuple[Scalar, Tuple[Scalar, Scalar]]:
    """Spectrum constraints for A + B with doubled eigenvalues lamA, lamB.

    One eigenvalue equals lamA + lamB; a second one ranges over the closed
    interval between lamA - 2 lamB and lamA + lamB (returned as (lo, hi));
    the third is determined by the zero trace.
    """
    la, lb = _as_spec(a).lam, _as_spec(b).lam
    lam1 = la + lb
    ends = (la - 2 * lb, la + lb)
    return lam1, (min(ends), max(ends))


def sum_bounds_three(a, b, c) -> ChamberPolytope:
    """Spectrum region for A + B + C as a chamber polytope.

    Zero classes delegate to fewer summands (a segment or a point).
    """
    specs = [_as_spec(x) for x in (a, b, c)]
    gammas = tuple(gamma_of_lambda(s) for s in specs)
    return build_polytope(gammas)


def check_spectrum(a, b, c, target, tol: float = 1e-9) -> bool:
    """Is a sorted trace-zero triple attainable as the spectrum of A+B+C?"""
    s = target if isinstance(target, Spectrum) else to_positive_chamber(tuple(target))[0]
    return sum_bounds_three(a, b, c).contains(s, tol)


# ---------------------------------------------------------------------------
# Realization search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RealizeResult:
    """Outcome of the stochastic realization search.

    ``found`` means the best distance is below the success threshold; a
    negative outcome only reports search failure, never impossibility.
    """

    found: bool
    distance: float
    matrices: Optional[Tuple[Hermitian3, Hermitian3, Hermitian3]]
    lines: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]
    restarts_used: int
    reason: str = ""


_BASIS_STARTS = (
    (0, 0, 0),
    (0, 1, 2),
    (1, 0, 0),
    (0, 1, 0),
    (0, 0, 1),
)


def _spectrum_and_frame(z: np.ndarray, gammas: np.ndarray):
    import numpy as np

    m = np.zeros((3, 3), dtype=complex)
    for j in range(len(gammas)):
        m += gammas[j] * np.outer(z[j], z[j].conj())
    m -= (gammas.sum() / 3.0) * np.eye(3)
    vals, vecs = np.linalg.eigh(m)
    return vals[::-1], vecs[:, ::-1]


def _descend(z0: np.ndarray, target: np.ndarray, gammas: np.ndarray, iters: int = 400) -> Tuple[float, np.ndarray]:
    """Projected gradient descent on the spectral misfit over (CP^2)^3.

    The gradient of an eigenvalue with respect to the matrix is the projector
    onto its eigenvector, so the misfit gradient in each line Z_j is
    gamma_j W Z_j with W = sum_i 2 (lam_i − t_i) v_i v_i^dagger, projected to
    the unit-sphere tangent space.  Step size adapts by doubling/halving.
    """
    import numpy as np

    z = z0.copy()
    vals, vecs = _spectrum_and_frame(z, gammas)
    f = float(np.sum((vals - target) ** 2))
    eta = 0.05 / max(1.0, float(np.abs(gammas).max()) ** 2)
    for _ in range(iters):
        w = (vecs * (2.0 * (vals - target))) @ vecs.conj().T
        g = gammas[:, None] * (z @ w.T)
        # Tangent projection on each unit sphere.
        inner = np.sum(z.conj() * g, axis=1, keepdims=True)
        g = g - inner.real * z
        gnorm = float(np.linalg.norm(g))
        if gnorm < 1e-14 or f < 1e-30:
            break
        step = z - eta * g
        step /= np.linalg.norm(step, axis=1, keepdims=True)
        nvals, nvecs = _spectrum_and_frame(step, gammas)
        nf = float(np.sum((nvals - target) ** 2))
        if nf < f:
            z, vals, vecs, f = step, nvals, nvecs, nf
            eta *= 1.5
        else:
            eta *= 0.5
            if eta < 1e-12:
                break
    return math.sqrt(f), z


def realize(a, b, c, target, budget: int = 200, seed: int = 0, success: float = 1e-6) -> RealizeResult:
    """Search for matrices A, B, C realizing a target spectrum of the sum.

    Restarts begin at the five torus-fixed configurations (which realize the
    polytope anchor spectra exactly) and continue from seeded random
    configurations, each refined by projected gradient descent.  Existence is
    guaranteed for targets inside the predicted polytope, so a miss within
    ``budget`` restarts is a search failure, not a disproof.
    """
    import numpy as np

    specs = [_as_spec(x) for x in (a, b, c)]
    gammas = np.array([float(gamma_of_lambda(s)) for s in specs])
    s = target if isinstance(target, Spectrum) else to_positive_chamber(tuple(target))[0]
    tgt = np.array(s.as_floats())

    polytope = sum_bounds_three(*specs)
    if not polytope.contains(s, 1e-9):
        return RealizeResult(False, math.inf, None, None, 0, "target outside the predicted polytope")

    eye = np.eye(3, dtype=complex)
    best = (math.inf, None)
    used = 0
    for r in range(max(1, budget)):
        used = r + 1
        if r < len(_BASIS_STARTS):
            z0 = np.array([eye[k] for k in _BASIS_STARTS[r]])
        else:
            rng = np.random.default_rng([int(seed), r])
            zr = rng.standard_normal((3, 3, 2))
            z0 = zr[..., 0] + 1j * zr[..., 1]
            z0 /= np.linalg.norm(z0, axis=1, keepdims=True)
        dist, z = _descend(z0, tgt, gammas)
        if dist < best[0]:
            best = (dist, z)
        if best[0] < success:
            break

    dist, z = best
    if z is None or dist >= success:
        return RealizeResult(False, dist, None, None, used, "budget exhausted")
    matrices = tuple(spec.realize(z[j]) for j, spec in enumerate(specs))
    return RealizeResult(True, dist, matrices, tuple(z), used)
