"""Weight-space taxonomy of the momentum polytopes.

For three weighted planes the closed parameter sector ``g1 >= g2 >= g3`` with
nonnegative sum splits into eight open regions A..H with a fixed polytope
shape each, separated by transition hyperplanes (coincident weights, a pair
summing to zero, one weight equalling the sum of the others, or a zero total)
that carry their own labels.  Only the label is read from the canonical
form, sorted and sign-flipped into that sector (:class:`Canonicalization`);
the builders work on the weights in the caller's order and sign.

Weights pass :func:`su3.snap_weights` once, which snaps floats to the
transitions they lie on within ``tol`` times the largest weight and returns
integers.  Every decision after it reads the signs of their transition
forms, from the one list of them, :func:`su3._form_values`, that the snap uses.
"""

from __future__ import annotations

from enum import Enum
from typing import Tuple

from .moment_map import as_gammas
from .su3 import Frozen, Scalar, _form_values, _set, apply_perm, sgn, snap_weights, sort_descending


class N3Type(Enum):
    A = "A"
    B = "B"
    C = "C"
    D = "D"
    E = "E"
    F = "F"
    G = "G"
    H = "H"
    AB = "AB"
    AA = "AA"
    AAA = "AAA"
    AAB = "AAB"
    BB = "BB"
    CE = "CE"
    CH = "CH"
    CEFH = "CEFH"
    DD = "DD"
    EF = "EF"
    FG = "FG"
    FGH = "FGH"
    FH = "FH"
    GG = "GG"
    HH = "HH"
    D0 = "D0"
    DD0 = "DD0"
    G0 = "G0"
    GG0 = "GG0"
    DEGENERATE_ZERO_WEIGHT = "DegenerateZeroWeight"

    @property
    def is_generic(self) -> bool:
        return self.value in "ABCDEFGH" and len(self.value) == 1


GENERIC_N3 = tuple(t for t in N3Type if t.is_generic)


class N2Type(Enum):
    GEN_A = "GenA"
    GEN_B = "GenB"
    GEN_C = "GenC"
    GEN_D = "GenD"
    TRANS_E = "TransE"
    TRANS_F = "TransF"
    TRANS_G = "TransG"
    DEGENERATE_ZERO_WEIGHT = "DegenerateZeroWeight"


class Canonicalization(Frozen):
    """Sorted, sign-normalised weights plus the bookkeeping to undo it.

    ``sorted_gammas[i] == (-1 if starred else 1) * original[permutation[i]]``.
    ``snapped`` is ``(ints, den)`` from :func:`su3.snap_weights` in the
    caller's order and sign, read through ``permutation`` and ``starred``
    for the label; it takes no part in comparisons or in the repr.
    """

    __slots__ = ("sorted_gammas", "permutation", "starred", "snapped")
    _fields = __slots__[:3]
    sorted_gammas: Tuple[Scalar, ...]
    permutation: Tuple[int, ...]
    starred: bool
    snapped: Tuple[Tuple[int, ...], int]

    def __init__(self, sorted_gammas: Tuple[Scalar, ...], permutation: Tuple[int, ...], starred: bool, snapped: Tuple[Tuple[int, ...], int]):
        _set(self, "sorted_gammas", sorted_gammas)
        _set(self, "permutation", permutation)
        _set(self, "starred", starred)
        _set(self, "snapped", snapped)

    def __reduce__(self):
        # the constructor takes the uncompared field too
        return (Canonicalization, tuple(getattr(self, name) for name in self.__slots__))

    def restore(self) -> Tuple[Scalar, ...]:
        sign = -1 if self.starred else 1
        out = [None] * len(self.sorted_gammas)
        for i, p in enumerate(self.permutation):
            out[p] = sign * self.sorted_gammas[i]
        return tuple(out)


def canonicalize(w, tol: float = 1e-9) -> Canonicalization:
    """Flip all signs when the sum is negative, then sort descending.

    Both are read from the weights snapped at ``tol``, so a sum that snaps
    to zero is not flipped and weights that snap together are ties.  The
    recorded permutation is the lexicographically smallest one realising
    the descending order.
    """
    g = as_gammas(w, n=3)
    ints, den = snap_weights(g, tol)
    starred = sum(ints) < 0
    _, permutation = sort_descending([-n for n in ints] if starred else ints)
    g = apply_perm(g, permutation)
    return Canonicalization(tuple(-x for x in g) if starred else g, permutation, starred, (ints, den))


def _classify_canonical(ints) -> N3Type:
    """Type of the snapped canonical integers, read from the signs of their
    transition forms (:func:`su3._form_values`)."""
    g1, g2, g3, z23, z13, _, e12, _, e23, t1, t2, _, total = map(sgn, _form_values(ints))
    if g1 == 0 or g2 == 0 or g3 == 0:
        return N3Type.DEGENERATE_ZERO_WEIGHT
    if total == 0:
        if e12 == 0:
            return N3Type.GG0
        if e23 == 0:
            return N3Type.DD0
        return N3Type.D0 if g2 < 0 else N3Type.G0
    # Double transitions first.
    if e12 == 0 and e23 == 0:
        return N3Type.AAA
    if e12 == 0 and z13 == 0:
        return N3Type.FGH
    if e23 == 0 and t1 == 0:
        return N3Type.AAB
    if z23 == 0 and t2 == 0:
        return N3Type.CEFH
    # Single transitions.
    if e12 == 0:
        if g3 > 0:
            return N3Type.AA
        return N3Type.HH if z23 > 0 else N3Type.GG
    if e23 == 0:
        if g2 < 0:
            return N3Type.DD
        return N3Type.AA if t1 < 0 else N3Type.BB
    if t1 == 0:
        return N3Type.AB
    if z23 == 0:
        return N3Type.CE if t2 < 0 else N3Type.FH
    if z13 == 0:
        return N3Type.FG
    if t2 == 0:
        return N3Type.CH if z23 > 0 else N3Type.EF
    # Generic regions.
    if g3 > 0:
        return N3Type.A if t1 < 0 else N3Type.B
    if g2 < 0:
        return N3Type.D
    if z13 < 0:
        return N3Type.G
    if z23 > 0:
        return N3Type.C if t2 < 0 else N3Type.H
    return N3Type.E if t2 < 0 else N3Type.F


def classify_n3(w, tol: float = 1e-9) -> Tuple[N3Type, Canonicalization]:
    """Polytope type of a weight triple plus its canonicalization."""
    can = canonicalize(w, tol)
    ints = apply_perm(can.snapped[0], can.permutation)
    return _classify_canonical([-n for n in ints] if can.starred else ints), can


def classify_n2(w, tol: float = 1e-9) -> N2Type:
    """Segment taxonomy for two weighted planes (after sorting g1 >= g2)."""
    return _classify_n2(snap_weights(as_gammas(w, n=2), tol)[0])


def _classify_n2(ints) -> N2Type:
    """Type of two snapped integers, sorted g1 >= g2, from the signs of their transition forms."""
    g1, g2, total, e12 = map(sgn, _form_values(sorted(ints, reverse=True)))
    if g1 == 0 or g2 == 0:
        return N2Type.DEGENERATE_ZERO_WEIGHT
    if e12 == 0:
        return N2Type.TRANS_E if g1 > 0 else N2Type.TRANS_G
    if total == 0:
        return N2Type.TRANS_F
    if g2 > 0:
        return N2Type.GEN_A
    if g1 < 0:
        return N2Type.GEN_D
    return N2Type.GEN_B if total > 0 else N2Type.GEN_C
