"""Weight-space taxonomy of the momentum polytopes.

For three weighted planes the closed parameter sector ``g1 >= g2 >= g3`` with
nonnegative sum splits into eight open regions A..H with a fixed polytope
shape each, separated by transition hyperplanes (coincident weights, a pair
summing to zero, one weight equalling the sum of the others, or a zero total)
that carry their own labels.  Canonicalization records the sorting
permutation and whether a global sign flip was applied; flipped inputs
produce the star-reflected polytope.

Weights pass :func:`su3.snap_weights` once, which snaps floats to the
transitions they lie on within ``tol`` times the largest weight and returns
integers; every decision after it is the sign of an integer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Tuple

from .moment_map import as_gammas
from .su3 import Scalar, apply_perm, integer_scaled, sgn, snap_weights, sort_descending


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


@dataclass(frozen=True)
class Canonicalization:
    """Sorted, sign-normalised weights plus the bookkeeping to undo it.

    ``sorted_gammas[i] == (-1 if starred else 1) * original[permutation[i]]``.
    ``snapped`` is ``(ints, den)`` from :func:`su3.snap_weights`, ordered and
    signed as ``sorted_gammas``; ``profile`` holds their transition signs.
    Neither takes part in comparisons.
    """

    sorted_gammas: Tuple[Scalar, ...]
    permutation: Tuple[int, ...]
    starred: bool
    profile: SignProfile = field(compare=False, repr=False)
    snapped: Tuple[Tuple[int, ...], int] = field(compare=False, repr=False)

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
    starred = ints[0] + ints[1] + ints[2] < 0
    if starred:
        g, ints = tuple(-x for x in g), tuple(-n for n in ints)
    ints, permutation = sort_descending(ints)
    return Canonicalization(apply_perm(g, permutation), permutation, starred, sign_profile(ints), (ints, den))


@dataclass(frozen=True)
class SignProfile:
    """Snapped signs of the transition quantities for canonical weights."""

    zero_weight: bool
    sum: int  # sign of g1+g2+g3
    e12: bool  # g1 == g2
    e23: bool  # g2 == g3
    t1: bool  # g1 == g2 + g3
    t2: bool  # g2 == g1 + g3
    z23: bool  # g2 + g3 == 0
    z13: bool  # g1 + g3 == 0
    sign_g2: int
    sign_g3: int
    sign_z23: int  # sign of g2 + g3
    sign_t1: int  # sign of g1 - g2 - g3
    sign_t2: int  # sign of g2 - g1 - g3
    sign_z13: int  # sign of g1 + g3


def sign_profile(canonical_gammas) -> SignProfile:
    """Exact signs of the ten transition forms, each form evaluated once.

    The signs are taken on integers (a float at its binary value), so they
    are scale-free; snap float weights first with :func:`su3.snap_weights`.
    """
    g1, g2, g3 = integer_scaled(canonical_gammas)[0]
    s_g2, s_g3 = sgn(g2), sgn(g3)
    s_z23, s_z13 = sgn(g2 + g3), sgn(g1 + g3)
    s_t1, s_t2 = sgn(g1 - g2 - g3), sgn(g2 - g1 - g3)
    return SignProfile(
        zero_weight=sgn(g1) == 0 or s_g2 == 0 or s_g3 == 0,
        sum=sgn(g1 + g2 + g3),
        e12=sgn(g1 - g2) == 0,
        e23=sgn(g2 - g3) == 0,
        t1=s_t1 == 0,
        t2=s_t2 == 0,
        z23=s_z23 == 0,
        z13=s_z13 == 0,
        sign_g2=s_g2,
        sign_g3=s_g3,
        sign_z23=s_z23,
        sign_t1=s_t1,
        sign_t2=s_t2,
        sign_z13=s_z13,
    )


def _classify_canonical(p: SignProfile) -> N3Type:
    if p.zero_weight:
        return N3Type.DEGENERATE_ZERO_WEIGHT
    if p.sum == 0:
        if p.e12:
            return N3Type.GG0
        if p.e23:
            return N3Type.DD0
        return N3Type.D0 if p.sign_g2 < 0 else N3Type.G0
    # Double transitions first.
    if p.e12 and p.e23:
        return N3Type.AAA
    if p.e12 and p.z13:
        return N3Type.FGH
    if p.e23 and p.t1:
        return N3Type.AAB
    if p.z23 and p.t2:
        return N3Type.CEFH
    # Single transitions.
    if p.e12:
        if p.sign_g3 > 0:
            return N3Type.AA
        return N3Type.HH if p.sign_z23 > 0 else N3Type.GG
    if p.e23:
        if p.sign_g2 < 0:
            return N3Type.DD
        return N3Type.AA if p.sign_t1 < 0 else N3Type.BB
    if p.t1:
        return N3Type.AB
    if p.z23:
        return N3Type.CE if p.sign_t2 < 0 else N3Type.FH
    if p.z13:
        return N3Type.FG
    if p.t2:
        return N3Type.CH if p.sign_z23 > 0 else N3Type.EF
    # Generic regions.
    if p.sign_g3 > 0:
        return N3Type.A if p.sign_t1 < 0 else N3Type.B
    if p.sign_g2 < 0:
        return N3Type.D
    if p.sign_z13 < 0:
        return N3Type.G
    if p.sign_z23 > 0:
        return N3Type.C if p.sign_t2 < 0 else N3Type.H
    return N3Type.E if p.sign_t2 < 0 else N3Type.F


def classify_n3(w, tol: float = 1e-9) -> Tuple[N3Type, Canonicalization]:
    """Polytope type of a weight triple plus its canonicalization."""
    can = canonicalize(w, tol)
    return _classify_canonical(can.profile), can


def classify_n2(w, tol: float = 1e-9) -> N2Type:
    """Segment taxonomy for two weighted planes (after sorting g1 >= g2)."""
    g1, g2 = sorted(snap_weights(as_gammas(w, n=2), tol)[0], reverse=True)
    if g1 == 0 or g2 == 0:
        return N2Type.DEGENERATE_ZERO_WEIGHT
    if g1 == g2:
        return N2Type.TRANS_E if g1 > 0 else N2Type.TRANS_G
    if g1 + g2 == 0:
        return N2Type.TRANS_F
    if g2 > 0:
        return N2Type.GEN_A
    if g1 < 0:
        return N2Type.GEN_D
    return N2Type.GEN_B if g1 + g2 > 0 else N2Type.GEN_C
