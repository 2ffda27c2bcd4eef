"""Eigenvalue bounds for sums of Hermitian matrices with double eigenvalues.

A trace-zero 3x3 Hermitian matrix with spectrum (lam, lam, -2 lam) can be
written ``lam (I - 3 Z (x) conj(Z))`` for a line Z, which equals the weighted
momentum map value with weight ``-3 lam``.  Sums of two or three such
matrices therefore have spectra confined to the momentum segment or polytope
at weights ``gamma_j = -3 lam_j``, and every point of that set is attained.

:func:`realize` builds the matrices: with D = diag(s) + (sum gamma / 3) I,
det and e2 of R = D - gamma_3 u3 u3* are linear in x_k = |u3_k|^2 (the
matrix determinant lemma), so an exact linear program on the simplex decides
whether s is attained; R then splits in closed form, the one numpy step.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, Optional, Sequence, Tuple

from .moment_map import NotNormalized
from .polytope import ChamberPolytope, build_polytope
from .su3 import Frozen, Hermitian3, LengthMismatch, Scalar, Spectrum, _set, check_real, snap_weights, to_positive_chamber

if TYPE_CHECKING:  # annotations only: importing the package loads no numpy
    import numpy as np


class DoubleEigMatrixSpec(Frozen):
    """A trace-zero Hermitian matrix class with spectrum (lam, lam, -2 lam)."""

    __slots__ = _fields = ("lam",)
    lam: Scalar

    def __init__(self, lam: Scalar):
        check_real(lam, "lambda")
        _set(self, "lam", lam)

    def realize(self, line: np.ndarray) -> Hermitian3:
        """The matrix lam (I - 3 Z conj(Z)^T) with simple eigenvector line Z.

        A line of other than three entries raises :class:`su3.LengthMismatch`,
        a zero or non-finite one :class:`moment_map.NotNormalized`."""
        import numpy as np

        z = np.asarray(line, dtype=complex)
        if z.shape != (3,):
            raise LengthMismatch(f"line of shape {z.shape} is not three entries")
        norm = float(np.linalg.norm(z))
        if norm == 0.0 or not math.isfinite(norm):
            raise NotNormalized(f"line {z.tolist()} is zero or not finite")
        z = z / norm
        m = float(self.lam) * (np.eye(3) - 3.0 * np.outer(z, z.conj()))
        return Hermitian3.from_numpy(m)


def gamma_of_lambda(spec) -> Scalar:
    """Weight corresponding to a double-eigenvalue class (a
    :class:`DoubleEigMatrixSpec` or its lam): gamma = -3 lam."""
    return -3 * _as_spec(spec).lam


def _as_spec(x) -> DoubleEigMatrixSpec:
    return x if isinstance(x, DoubleEigMatrixSpec) else DoubleEigMatrixSpec(x)


def sum_bounds_two(a, b) -> Tuple[Scalar, Tuple[Scalar, Scalar]]:
    """Spectrum constraints for A + B with doubled eigenvalues lamA, lamB.

    One eigenvalue equals lamA + lamB; a second one ranges over the closed
    interval between lamA - 2 lamB and lamA + lamB (returned as (lo, hi));
    the third is determined by the zero trace.
    """
    la, lb = _as_spec(a).lam, _as_spec(b).lam
    ends = (la - 2 * lb, la + lb)
    return la + lb, (min(ends), max(ends))


def sum_bounds_three(a, b, c) -> ChamberPolytope:
    """Spectrum region for A + B + C as a chamber polytope.

    Zero classes delegate to fewer summands (a segment or a point).
    """
    return build_polytope(tuple(gamma_of_lambda(_as_spec(x)) for x in (a, b, c)))


def check_spectrum(a, b, c, target, tol: float = 1e-9) -> bool:
    """Is a sorted trace-zero triple attainable as the spectrum of A+B+C?"""
    s = target if isinstance(target, Spectrum) else to_positive_chamber(tuple(target))[0]
    return sum_bounds_three(a, b, c).contains(s, tol)


# ---------------------------------------------------------------------------
# Realization
# ---------------------------------------------------------------------------


class RealizeResult(Frozen):
    """Outcome of :func:`realize`; ``lines`` are the unit vectors u_j with
    A_j = lam_j (I - 3 u_j u_j^T).  Results compare and hash by each line's
    shape, dtype and bytes in place of the arrays."""

    __slots__ = _fields = ("found", "distance", "matrices", "lines", "restarts_used", "reason")
    found: bool
    distance: float
    matrices: Optional[Tuple[Hermitian3, Hermitian3, Hermitian3]]
    lines: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]
    restarts_used: int
    reason: str

    def __init__(self, found: bool, distance: float, matrices: Optional[Tuple[Hermitian3, Hermitian3, Hermitian3]], lines: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]], restarts_used: int, reason: str = ""):
        _set(self, "found", found)
        _set(self, "distance", distance)
        _set(self, "matrices", matrices)
        _set(self, "lines", lines)
        _set(self, "restarts_used", restarts_used)
        _set(self, "reason", reason)

    def _values(self) -> tuple:
        values = super()._values()
        if self.lines is None:
            return values
        import numpy as np

        lines = tuple((a.shape, a.dtype.str, a.tobytes()) for a in map(np.asarray, self.lines))
        return values[:3] + (lines,) + values[4:]


def _nearest_point(polytope: ChamberPolytope, s: Spectrum) -> Tuple[Fraction, ...]:
    """The point of an exact polytope nearest to ``s``, in Fractions: ``s`` if
    inside, else the nearest corner or in-polytope projection onto a line that
    ``s`` violates, the only lines whose edges can hold that point."""
    p = [Fraction(x) for x in s]
    mean = sum(p) / 3  # a float's exact value may miss the sum-zero plane
    p = tuple(x - mean for x in p)
    if polytope.contains(p, 0):
        return p
    points = [v.astuple() for v in polytope.vertices]
    for a, b, c, _ in polytope.lines:
        n = (2 * a - b, 2 * b - a, -a - b)  # three times the sum-zero normal of a*l1 + b*l2
        k = (sum(x * y for x, y in zip(n, p)) - 3 * Fraction(c, polytope.den)) / sum(y * y for y in n)
        q = tuple(x - k * y for x, y in zip(p, n))
        if k < 0 and polytope.contains(q, 0):
            points.append(q)
    return min(points, key=lambda q: sum((x - y) ** 2 for x, y in zip(p, q)))


def _peel(g3: Fraction, product: Fraction, d: Sequence[Fraction]):
    """The linear program: ``(x, phi)`` with x on the simplex, det R = 0 and
    e2(R) = phi between 0 and ``product``, or None.  At the vertex e_k they
    are the f_k and g_k below, and both are linear in x, so det R = 0 on the
    hull of the vertices with f_k = 0 and the edge points where f changes sign.
    """
    det, e2, tr = d[0] * d[1] * d[2], d[0] * d[1] + d[0] * d[2] + d[1] * d[2], sum(d)
    f = [det - g3 * d[k - 1] * d[k - 2] for k in range(3)]
    g = [e2 - g3 * (tr - d[k]) for k in range(3)]
    unit = [tuple(int(i == k) for i in range(3)) for k in range(3)]
    points = [(g[k], unit[k]) for k in range(3) if f[k] == 0]
    for i, j in ((0, 1), (0, 2), (1, 2)):
        if f[i] * f[j] < 0:
            w = f[j] / (f[j] - f[i])  # the weight on e_i
            points.append((w * g[i] + (1 - w) * g[j], tuple(w * a + (1 - w) * b for a, b in zip(unit[i], unit[j]))))
    lo, hi = sorted((0, product))
    if not points or min(points)[0] > hi or max(points)[0] < lo:
        return None
    (pa, xa), (pb, xb) = min(points), max(points)
    phi = Fraction(max(pa, lo) + min(pb, hi)) / 2
    w = 0 if pa == pb else (phi - pa) / (pb - pa)
    return tuple(a + w * (b - a) for a, b in zip(xa, xb)), phi


def _split(g1: Fraction, g2: Fraction, g3: Fraction, d: Sequence[Fraction], x, phi: Fraction):
    """Unit vectors (u1, u2, u3) with g1 u1 u1^T + g2 u2 u2^T + g3 u3 u3^T = diag(d)."""
    import numpy as np

    u3 = np.sqrt([float(v) for v in x])
    r = np.array([[float(d[i] - g3 * x[i]) if i == j else -float(g3) * math.sqrt(x[i] * x[j]) for j in range(3)] for i in range(3)])
    # R has eigenvalues 0 and r+ >= r-, and eigh lists them ascending
    w, vecs = np.linalg.eigh(r)
    zero = int(np.argmin(np.abs(w)))
    vm, vp = (vecs[:, i] for i in range(3) if i != zero)
    sigma = g1 + g2
    delta = sigma * sigma - 4 * phi  # (r+ - r-)^2
    if delta == 0:
        # R = r I on its range: u1 = u2 when phi = 0, else u1 is orthogonal to u2
        return vp, vm if phi else vp, u3
    lines = []
    for g, sign in ((g1, 1), (g2, -1 if g1 * g2 > 0 else 1)):
        # cos^2 = 1/2 + p/sqrt(delta) on v+ with p = sigma/2 - phi/g (any line for g = 0);
        # of cos^2 and sin^2, the one that would cancel comes from the exact (delta/4 - p^2) / delta
        p = sigma / 2 - phi / g if g else 0
        big = 0.5 + math.sqrt(p * p / delta)
        small = float((delta / 4 - p * p) / delta) / big
        cos2, sin2 = (big, small) if p >= 0 else (small, big)
        lines.append(math.sqrt(cos2) * vp + sign * math.sqrt(sin2) * vm)
    return lines[0], lines[1], u3


def realize(a, b, c, target, budget: int = 200, seed: int = 0) -> RealizeResult:
    """Matrices A, B, C of spectra (lam, lam, -2 lam) with A + B + C = diag(target).

    A target that ``contains(s, 1e-9)`` rejects is outside (0 restarts); any
    other is built (1) at the nearest point of the exact polytope, on the
    weights ``snap_weights(gammas, 1e-9)`` that built it, with the lambdas as
    given.  ``distance`` = |A + B + C - diag(target)|_F bounds every
    eigenvalue gap (Weyl).  ``budget`` and ``seed`` have no effect.
    """
    import numpy as np

    specs = [_as_spec(x) for x in (a, b, c)]
    raw = target.astuple() if isinstance(target, Spectrum) else tuple(target)
    s, perm = to_positive_chamber(raw)
    polytope = sum_bounds_three(*specs)
    if not polytope.contains(s, 1e-9):
        return RealizeResult(False, math.inf, None, None, 0, "target outside the predicted polytope")
    ints, den = snap_weights([gamma_of_lambda(spec) for spec in specs], 1e-9)
    gammas = [Fraction(n, den) for n in ints]
    nearest = _nearest_point(polytope, s)
    d = [nearest[perm.index(k)] + sum(gammas) / 3 for k in range(3)]
    order = sorted(range(3), key=lambda k: abs(gammas[k]))  # peel the largest, zero only when all are
    g1, g2, g3 = (gammas[k] for k in order)
    peeled = _peel(g3, g1 * g2, d)
    if peeled is None:
        return RealizeResult(False, math.inf, None, None, 1, "linear program infeasible inside the polytope")
    u = _split(g1, g2, g3, d, *peeled)
    lines = tuple(u[order.index(k)] for k in range(3))
    matrices = tuple(spec.realize(z) for spec, z in zip(specs, lines))
    total = sum(m.as_numpy() for m in matrices)
    distance = float(np.linalg.norm(total - np.diag([float(x) for x in raw])))
    return RealizeResult(True, distance, matrices, lines, 1)
