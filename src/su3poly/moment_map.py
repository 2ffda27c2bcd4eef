"""Points of CP^2, the Fubini-Study momentum map and its weighted sums.

The momentum map of a single projective plane sends ``Z`` to the rank-one
projector ``Z (x) conj(Z)`` minus a third of the identity.  Products of two
or three planes carry the weighted map ``sum_j gamma_j J0(Z_j)``.  The images
of the torus-fixed configurations (tuples of standard basis lines) are the
anchor points of every momentum polytope, so their spectra are computed in
closed form, exactly for rational weights.
"""

from __future__ import annotations

import math
import sys
from enum import Enum
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

from .su3 import (
    Frozen,
    Hermitian3,
    InvalidWeight,  # the one class of su3, raised by check_real and read from here too
    LengthMismatch,
    Root,
    Scalar,
    SignedRoot,
    Spectrum,
    _set,
    all_exact,
    check_index,
    check_real,
    sort_descending,
    third,
    to_positive_chamber,
)


class NotNormalized(ValueError):
    """A homogeneous coordinate vector that is zero or has a NaN or infinite
    coordinate."""


class DegenerateWeight(ValueError):
    """A zero weight was passed where a nonzero one is required."""


class CPPoint(Frozen):
    """Point of CP^2 stored as a unit vector with a canonical phase.

    The phase is fixed by making the first nonzero coordinate real and
    positive, so projectively equal points compare equal.
    """

    __slots__ = _fields = ("z1", "z2", "z3")
    z1: complex
    z2: complex
    z3: complex

    def __init__(self, z1: complex, z2: complex, z3: complex):
        _set(self, "z1", z1)
        _set(self, "z2", z2)
        _set(self, "z3", z3)

    @classmethod
    def of(cls, z1, z2, z3) -> "CPPoint":
        """The point of the line through (z1, z2, z3), normalized and
        phase-fixed; a zero or non-finite vector raises :class:`NotNormalized`."""
        z = [complex(z1), complex(z2), complex(z3)]
        norm = math.sqrt(sum(abs(c) ** 2 for c in z))
        if norm == 0.0:
            raise NotNormalized("zero vector")
        if not math.isfinite(norm):
            raise NotNormalized(f"coordinates {z1!r}, {z2!r}, {z3!r} are not all finite")
        z = [c / norm for c in z]
        for c in z:
            if c != 0:
                phase = c.conjugate() / abs(c)
                z = [w * phase for w in z]
                break
        # Exact basis vectors stay exact (1+0j / 0j entries).
        z = [complex(1.0) if w == 1 else w for w in z]
        return cls(z[0], z[1], z[2])

    @property
    def coords(self) -> Tuple[complex, complex, complex]:
        return (self.z1, self.z2, self.z3)

    def basis_index(self) -> Optional[int]:
        """1..3 when this is exactly a standard basis line, else None."""
        for k, c in enumerate(self.coords):
            others = [self.coords[j] for j in range(3) if j != k]
            if c == 1 and all(o == 0 for o in others):
                return k + 1
        return None

    def inner(self, other: "CPPoint") -> complex:
        return sum(a.conjugate() * b for a, b in zip(self.coords, other.coords))

    def same_line(self, other: "CPPoint", tol: float = 1e-9) -> bool:
        return abs(abs(self.inner(other)) - 1.0) <= tol

    def to_json_list(self):
        """Homogeneous coordinates as [re, im] pairs."""
        return [[c.real, c.imag] for c in self.coords]

    @classmethod
    def from_json_list(cls, data) -> "CPPoint":
        return cls.of(*(complex(re, im) for re, im in data))


E1 = CPPoint.of(1, 0, 0)
E2 = CPPoint.of(0, 1, 0)
E3 = CPPoint.of(0, 0, 1)


class Weights(Frozen):
    """Symplectic weight vector for a product of 2 or 3 projective planes,
    checked and stored as a tuple by :func:`as_gammas`."""

    __slots__ = _fields = ("gammas", "allow_zero")
    gammas: Tuple[Scalar, ...]
    allow_zero: bool

    def __init__(self, gammas: Sequence[Scalar], allow_zero: bool = False):
        _set(self, "gammas", as_gammas(gammas, allow_zero=allow_zero))
        _set(self, "allow_zero", allow_zero)

    @property
    def n(self) -> int:
        return len(self.gammas)

    @property
    def is_exact(self) -> bool:
        return all_exact(self.gammas)


def as_gammas(w, n: Optional[int] = None, allow_zero: bool = True) -> Tuple[Scalar, ...]:
    """Normalise a Weights instance or plain sequence to a tuple of scalars.

    Raises :class:`InvalidWeight`, naming the entry, for a bool, a
    non-number, NaN or an infinity, :class:`LengthMismatch` for a length
    other than ``n`` (by default, other than 2 or 3) and, unless
    ``allow_zero``, :class:`DegenerateWeight` for a zero.  Beside an exact
    weight beyond float range the floats are returned as their exact binary
    values, since any sum of that weight with a float overflows.
    """
    gs = w.gammas if isinstance(w, Weights) else tuple(w)
    n_exact = 0
    for k, g in enumerate(gs):
        # Exact type tests first: the exact builder calls this often, and
        # the numbers.Real check is an order of magnitude slower.
        kind = type(g)
        if kind is int or kind is Fraction:
            n_exact += 1
        else:
            check_real(g, f"weight {k}")
    if n is not None and len(gs) != n:
        raise LengthMismatch(f"expected {n} weights, got {len(gs)}")
    if len(gs) not in (2, 3):
        raise LengthMismatch(f"expected 2 or 3 weights, got {len(gs)}")
    if not allow_zero and any(g == 0 for g in gs):
        raise DegenerateWeight("weights must be nonzero here")
    if 0 < n_exact < len(gs) and any(type(g) in (int, Fraction) and abs(g) > sys.float_info.max for g in gs):
        gs = tuple(g if type(g) in (int, Fraction) else Fraction(g) for g in gs)
    return gs


# ---------------------------------------------------------------------------
# Momentum maps
# ---------------------------------------------------------------------------

_THIRD = Fraction(1, 3)
_J0_BASIS = {
    1: Hermitian3.diag(2 * _THIRD, -_THIRD, -_THIRD),
    2: Hermitian3.diag(-_THIRD, 2 * _THIRD, -_THIRD),
    3: Hermitian3.diag(-_THIRD, -_THIRD, 2 * _THIRD),
}


def fubini_study_moment(Z: CPPoint) -> Hermitian3:
    """Momentum map value ``Z (x) conj(Z) - I/3`` of a single plane.

    Equivariant: conjugating Z by a unitary conjugates the value.  Standard
    basis lines produce exact rational diagonal matrices.
    """
    k = Z.basis_index()
    if k is not None:
        return _J0_BASIS[k]
    z1, z2, z3 = Z.coords
    return Hermitian3(
        abs(z1) ** 2 - 1.0 / 3.0,
        abs(z2) ** 2 - 1.0 / 3.0,
        z1 * z2.conjugate(),
        z1 * z3.conjugate(),
        z2 * z3.conjugate(),
    )


def weighted_moment(config: Sequence[CPPoint], w) -> Hermitian3:
    """Weighted momentum map ``sum_j gamma_j J0(Z_j)`` of a configuration."""
    gammas = as_gammas(w)
    if len(config) != len(gammas):
        raise LengthMismatch(f"{len(config)} points vs {len(gammas)} weights")
    total = Hermitian3(0, 0)
    for Z, g in zip(config, gammas):
        total = total + fubini_study_moment(Z).scaled(g)
    return total


# ---------------------------------------------------------------------------
# Torus-fixed configurations and their spectra
# ---------------------------------------------------------------------------

#: Representative torus-fixed configurations for the five anchor points.
FIXED_CONFIGURATIONS = {
    "a": (E1, E1, E1),
    "b": (E1, E2, E3),
    "c1": (E1, E2, E2),
    "c2": (E2, E1, E2),
    "c3": (E2, E2, E1),
}

FIXED_CONFIGURATIONS_N2 = {
    "a": (E1, E1),
    "c": (E1, E2),
}


#: The closed forms of the anchor points, in one place: for two and three
#: weights, three times the raw diagonal at each representative fixed point
#: as rows of integer coefficients over the weights.  Each entry is a linear
#: form, so integer weights give integer triples.
_ANCHOR_ROWS = {
    2: {"a": ((2, 2), (-1, -1), (-1, -1)), "c": ((2, -1), (-1, 2), (-1, -1))},
    3: {
        "a": ((2, 2, 2), (-1, -1, -1), (-1, -1, -1)),
        "b": ((2, -1, -1), (-1, 2, -1), (-1, -1, 2)),
        "c1": ((2, -1, -1), (-1, 2, 2), (-1, -1, -1)),
        "c2": ((-1, 2, -1), (2, -1, 2), (-1, -1, -1)),
        "c3": ((-1, -1, 2), (2, 2, -1), (-1, -1, -1)),
    },
}


def tripled_fixed_point_diagonals(gammas: Sequence[Scalar]) -> Dict[str, Tuple[tuple, Tuple[int, ...]]]:
    """The anchor table: :data:`_ANCHOR_ROWS` evaluated on the weights, each
    tripled diagonal as the ``(entries, perm)`` of :func:`su3.sort_descending`.
    For N=3 the keys are a, b, c1, c2, c3; for N=2 they are a, c.
    """
    return {k: sort_descending([sum(c * g for c, g in zip(row, gammas)) for row in rows]) for k, rows in _ANCHOR_ROWS[len(gammas)].items()}


def fixed_point_spectra(w) -> Dict[str, Spectrum]:
    """Closed-form sorted spectra of the torus-fixed configurations by
    anchor name: a third of each entry of the anchor table, which keeps the
    order.  Exact in rational arithmetic for rational weights; the ``a``
    point always carries a repeated eigenvalue (it sits on a chamber wall).
    :func:`su3.to_positive_chamber` refuses an entry that overflowed.
    """
    table = tripled_fixed_point_diagonals(as_gammas(w))
    return {k: to_positive_chamber(tuple(third(x) for x in entries))[0] for k, (entries, _) in table.items()}


# ---------------------------------------------------------------------------
# Stabilizers and tangent weights
# ---------------------------------------------------------------------------


class StabilizerClass(Enum):
    """Conjugacy class of the stabilizer of a configuration."""

    U2 = "U2"
    T2 = "T2"
    U1 = "U1"
    TRIVIAL = "Trivial"


def _gram_rank_deficient(config: Sequence[CPPoint], tol: float) -> bool:
    """True when the three lines span only a plane (Gram determinant ~ 0)."""
    g = [[complex(a.inner(b)) for b in config] for a in config]
    det = (
        g[0][0] * (g[1][1] * g[2][2] - g[1][2] * g[2][1])
        - g[0][1] * (g[1][0] * g[2][2] - g[1][2] * g[2][0])
        + g[0][2] * (g[1][0] * g[2][1] - g[1][1] * g[2][0])
    )
    return abs(det) <= tol


def configuration_stabilizer(config: Sequence[CPPoint], tol: float = 1e-9) -> StabilizerClass:
    """Classify the stabilizer of a 2- or 3-point configuration.

    The class is read off the pattern of pairwise |<Z_i, Z_j>| values:
    equality (=1), orthogonality (=0), or generic, plus coplanarity for
    triples.  ``tol`` bounds how far from the exact geometric condition a
    floating configuration may sit.
    """
    n = len(config)
    if n not in (2, 3):
        raise LengthMismatch(f"expected 2 or 3 points, got {n}")
    absinner = {}
    for i in range(n):
        for j in range(i + 1, n):
            absinner[(i, j)] = abs(config[i].inner(config[j]))

    def equal(i, j):
        return abs(absinner[(min(i, j), max(i, j))] - 1.0) <= tol

    def orth(i, j):
        return absinner[(min(i, j), max(i, j))] <= tol

    if n == 2:
        if equal(0, 1):
            return StabilizerClass.U2
        if orth(0, 1):
            return StabilizerClass.T2
        return StabilizerClass.U1

    pairs = [(0, 1), (0, 2), (1, 2)]
    if all(equal(i, j) for i, j in pairs):
        return StabilizerClass.U2
    if all(orth(i, j) for i, j in pairs):
        return StabilizerClass.T2
    for i, j in pairs:
        if equal(i, j):
            k = 3 - i - j
            # (u, u, v): the doubled line plus an orthogonal one.
            if orth(i, k) and orth(j, k):
                return StabilizerClass.T2
            return StabilizerClass.U1  # doubled line spans a plane with the third
    for k in range(3):
        i, j = [m for m in range(3) if m != k]
        # (u, u', v): one line orthogonal to both others, which are oblique.
        if orth(i, k) and orth(j, k) and not orth(i, j):
            return StabilizerClass.U1
    if _gram_rank_deficient(config, tol):
        return StabilizerClass.U1
    return StabilizerClass.TRIVIAL


_TANGENT_WEIGHTS = {
    1: (SignedRoot(-1, Root.ALPHA3), SignedRoot(1, Root.ALPHA2)),
    2: (SignedRoot(-1, Root.ALPHA1), SignedRoot(1, Root.ALPHA3)),
    3: (SignedRoot(-1, Root.ALPHA2), SignedRoot(1, Root.ALPHA1)),
}


def tangent_weights(basis_index: int) -> Tuple[SignedRoot, SignedRoot]:
    """Torus weights of the tangent plane to CP^2 at a basis line."""
    return _TANGENT_WEIGHTS[check_index(basis_index)]
