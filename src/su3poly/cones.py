"""Local momentum cones at the torus-fixed anchor points.

Each anchor point of a three-fold product carries a quadratic slice momentum
map whose image germ is a cone in the chamber: three signed root rays at the
triple-orthogonal point ``b``, a root ray plus a root ray-or-line at the
doubled points ``c_j``, and a root line or a root wedge at the diagonal point
``a``.  When the raw fixed-point value lands outside the chamber the cone is
folded back by the sorting permutation (a Weyl reflection), applied to the
generators as well.

All coefficient arithmetic stays exact for rational weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence, Tuple

from .moment_map import as_gammas, fixed_point_spectra, raw_fixed_point_diagonals
from .su3 import (
    Root,
    Scalar,
    Spectrum,
    apply_perm,
    exact_div,
    identify_signed_root,
    lift_2d,
    num_out,
    sgn,
    snap_sign,
    sort_descending,
    star_vector,
)


class CoincidentWeights(ValueError):
    """Two weights coincide, putting the triple-orthogonal point on a wall."""


class OnWall(ValueError):
    """The requested doubled point sits on a chamber wall (transition case)."""


class ZeroSum(ValueError):
    """The weights sum to zero, collapsing the diagonal point to the origin."""


class Definiteness(Enum):
    POSITIVE_DEFINITE = "PositiveDefinite"
    NEGATIVE_DEFINITE = "NegativeDefinite"
    INDEFINITE = "Indefinite"
    DEGENERATE = "Degenerate"


@dataclass(frozen=True)
class QuadraticForm2:
    """Real form A|u|^2 + B(u conj(v) + conj(u) v) + C|v|^2 on C^2."""

    A: Scalar
    B: Scalar
    C: Scalar

    @property
    def discriminant(self) -> Scalar:
        return self.A * self.C - self.B * self.B


def definiteness(q: QuadraticForm2) -> Definiteness:
    """Definite iff AC > B^2, with the sign of A deciding which; AC = B^2 is
    degenerate, AC < B^2 indefinite."""
    d = q.discriminant
    if d > 0:
        return Definiteness.POSITIVE_DEFINITE if q.A > 0 else Definiteness.NEGATIVE_DEFINITE
    if d == 0:
        return Definiteness.DEGENERATE
    return Definiteness.INDEFINITE


# ---------------------------------------------------------------------------
# Cone data
# ---------------------------------------------------------------------------

RAY_POS = "ray+"
RAY_NEG = "ray-"
LINE = "line"


@dataclass(frozen=True)
class Generator:
    """One generator of a local cone: a signed root ray or a full root line."""

    root: Root
    kind: str  # ray+, ray-, line

    def __post_init__(self):
        if self.kind not in (RAY_POS, RAY_NEG, LINE):
            raise ValueError(f"bad generator kind {self.kind!r}")

    @property
    def vector(self) -> Tuple[int, int, int]:
        v = self.root.vector
        if self.kind == RAY_NEG:
            return (-v[0], -v[1], -v[2])
        return v

    @property
    def is_line(self) -> bool:
        return self.kind == LINE

    def asdict(self) -> dict:
        return {"root": self.root.label, "kind": self.kind}


@dataclass(frozen=True)
class ConeSpec:
    """Apex plus generators of a local momentum cone.

    ``side_normal``, when present, records the chamber-side of a single-line
    cone as a sum-zero functional pointing into the cone (the cone is then
    the half-plane ``side_normal . (s - apex) >= 0`` bounded by the line).
    """

    apex: Spectrum
    generators: Tuple[Generator, ...]
    weyl_folded: bool = False
    side_normal: Optional[Tuple[Scalar, Scalar, Scalar]] = None

    def asdict(self) -> dict:
        d = {
            "apex": [num_out(x) for x in self.apex],
            "generators": [g.asdict() for g in self.generators],
            "weyl_folded": self.weyl_folded,
        }
        if self.side_normal is not None:
            d["side_normal"] = [num_out(x) for x in self.side_normal]
        return d


def _ray(sign: int, root: Root) -> Generator:
    return Generator(root, RAY_POS if sign > 0 else RAY_NEG)


def _fold(raw_point: Sequence[Scalar], raw_gens: Sequence[Generator]):
    """Sort a raw fixed-point value into the chamber, folding the generators.

    The stable sort breaks ties the way a perturbation towards strictly
    decreasing entries would, which is the one-sided limit used at weight
    coincidences.
    """
    entries, order = sort_descending(tuple(raw_point))
    apex = Spectrum(*entries)
    folded = []
    for g in raw_gens:
        v = apply_perm(g.vector, order)
        sr = identify_signed_root(v)
        kind = LINE if g.is_line else (RAY_POS if sr.sign > 0 else RAY_NEG)
        folded.append(Generator(sr.root, kind))
    return apex, tuple(folded), order != (0, 1, 2), order


# ---------------------------------------------------------------------------
# Slice cones
# ---------------------------------------------------------------------------


def b_slice_coefficients(w) -> Tuple[Scalar, Scalar, Scalar]:
    """Coefficients of the three root directions in the slice map at ``b``.

    Returned on (alpha1, alpha2, alpha3):
    ((g3/g2)(g2-g3), (g1/g3)(g3-g1), (g2/g1)(g1-g2)); exact for rational
    weights.
    """
    g1, g2, g3 = as_gammas(w, n=3, allow_zero=False)
    return (
        exact_div(g3, g2) * (g2 - g3),
        exact_div(g1, g3) * (g3 - g1),
        exact_div(g2, g1) * (g1 - g2),
    )


def slice_cone_b(w, tol: float = 1e-9, allow_coincident: bool = False) -> ConeSpec:
    """Local cone at the triple-orthogonal point: three signed root rays.

    The hull of the rays is always a 120-degree cone for pairwise distinct
    weights.  With ``allow_coincident`` the one-sided limit is taken at weight
    coincidences (sign of a vanishing difference g_i - g_j taken positive for
    i < j), which is the continuity limit used at transition values.
    """
    g = as_gammas(w, n=3, allow_zero=False)
    scale = max(abs(x) for x in g)
    diff_signs = [snap_sign(g[i] - g[j], scale, tol) for i, j in ((1, 2), (0, 2), (0, 1))]
    if 0 in diff_signs and not allow_coincident:
        raise CoincidentWeights(f"weights {g} are not pairwise distinct")
    # one-sided limit from g_i > g_j (i < j) where a difference vanishes
    d23, d13, d12 = (d or 1 for d in diff_signs)

    s1 = d23 * sgn(g[2]) * sgn(g[1])  # sign of (g3/g2)(g2-g3)
    s2 = -d13 * sgn(g[0]) * sgn(g[2])  # sign of (g1/g3)(g3-g1)
    s3 = d12 * sgn(g[1]) * sgn(g[0])  # sign of (g2/g1)(g1-g2)

    raw_gens = (_ray(s1, Root.ALPHA1), _ray(s2, Root.ALPHA2), _ray(s3, Root.ALPHA3))
    raw_point = raw_fixed_point_diagonals(g)["b"]
    apex, gens, folded, _ = _fold(raw_point, raw_gens)
    return ConeSpec(apex, gens, folded)


_C_WALL_QUANTITIES = {
    # j -> (u, v): raw point gaps x1-x2 = u and x2-x3 = v
    1: lambda g: (g[0] - g[1] - g[2], g[1] + g[2]),
    2: lambda g: (g[1] - g[0] - g[2], g[0] + g[2]),
    3: lambda g: (g[2] - g[0] - g[1], g[0] + g[1]),
}


def c_alpha1_coefficient(j: int, w) -> Scalar:
    """Coefficient of the alpha1-family ray in the slice map at c_j."""
    g1, g2, g3 = as_gammas(w, n=3, allow_zero=False)
    if j == 1:
        return -exact_div(g2, g3) * (g2 + g3)
    if j == 2:
        return -exact_div(g3, g1) * (g1 + g3)
    if j == 3:
        return -exact_div(g1, g2) * (g1 + g2)
    raise ValueError("j must be 1, 2 or 3")


def c_alpha3_form(j: int, w) -> QuadraticForm2:
    """Quadratic form multiplying the alpha3-family direction at c_j."""
    g1, g2, g3 = as_gammas(w, n=3, allow_zero=False)
    if j == 1:
        return QuadraticForm2(
            exact_div(g1, g2) * (g1 - g2), exact_div(g1 * g3, g2), exact_div(g3, g2) * (g3 + g2)
        )
    if j == 2:
        return QuadraticForm2(
            exact_div(g2, g3) * (g2 - g3), exact_div(g1 * g2, g3), exact_div(g1, g3) * (g1 + g3)
        )
    if j == 3:
        return QuadraticForm2(
            exact_div(g3, g1) * (g3 - g1), exact_div(g2 * g3, g1), exact_div(g2, g1) * (g1 + g2)
        )
    raise ValueError("j must be 1, 2 or 3")


def c_vertex_criterion(j: int, w) -> Scalar:
    """g1 g2 g3 (g_j - sum of the others); positive iff the c_j form is definite."""
    g = as_gammas(w, n=3, allow_zero=False)
    u = _C_WALL_QUANTITIES[j](g)[0]
    return g[0] * g[1] * g[2] * u


def slice_cone_c(j: int, w, tol: float = 1e-9) -> ConeSpec:
    """Local cone at a doubled point c_j: an alpha1-family ray plus an
    alpha3-family ray (definite form) or full line (indefinite form).

    Raises :class:`OnWall` when c_j sits on a chamber wall, which happens
    exactly when one of the transition quantities for index j vanishes.
    """
    g = as_gammas(w, n=3, allow_zero=False)
    scale = max(abs(x) for x in g)
    u, v = _C_WALL_QUANTITIES[j](g)
    if snap_sign(u, scale, tol) == 0 or snap_sign(v, scale, tol) == 0:
        raise OnWall(f"c{j} lies on a chamber wall for weights {g}")

    a1_sign = sgn(c_alpha1_coefficient(j, g))
    form = c_alpha3_form(j, g)
    defin = definiteness(form)
    assert defin is not Definiteness.DEGENERATE  # excluded by the wall check

    gens = [_ray(a1_sign, Root.ALPHA1)]
    if defin is Definiteness.INDEFINITE:
        gens.append(Generator(Root.ALPHA3, LINE))
    else:
        gens.append(_ray(1 if defin is Definiteness.POSITIVE_DEFINITE else -1, Root.ALPHA3))

    raw_point = raw_fixed_point_diagonals(g)[f"c{j}"]
    apex, folded_gens, folded, _ = _fold(raw_point, gens)
    return ConeSpec(apex, folded_gens, folded)


def a_discriminant(w) -> Scalar:
    """(g1 g2 / g3)(g1 + g2 + g3), the discriminant of the slice forms at a."""
    g1, g2, g3 = as_gammas(w, n=3, allow_zero=False)
    return exact_div(g1 * g2, g3) * (g1 + g2 + g3)


def a_slice_form(w) -> QuadraticForm2:
    """Common quadratic form on each weight space of the slice at a."""
    g1, g2, g3 = as_gammas(w, n=3, allow_zero=False)
    return QuadraticForm2(
        exact_div(g1, g3) * (g1 + g3), exact_div(g1 * g2, g3), exact_div(g2, g3) * (g2 + g3)
    )


def _line_cone_with_side(apex: Spectrum, line_root: Root, centroid) -> ConeSpec:
    """Half-plane cone bounded by a root line, on the side of the centroid."""
    d = line_root.vector
    # Sum-zero functional vanishing on the line (2D cross product with d).
    n = lift_2d(-d[1], d[0])
    side = sgn(sum(nc * (c - a) for nc, c, a in zip(n, centroid, apex)))
    if side == 0:
        raise ValueError("ambiguous side for the half-plane cone at a")
    normal = tuple(side * nc for nc in n)
    return ConeSpec(apex, (Generator(line_root, LINE),), False, normal)


def slice_cone_a(w, tol: float = 1e-9) -> ConeSpec:
    """Local cone at the diagonal point a (on the chamber wall).

    Positive sum: positive-definite slice forms give a half-plane bounded by
    the alpha3 line through a, negative-definite the alpha2 line (side chosen
    towards the centroid of the other fixed points); indefinite forms give
    the wedge spanned by -alpha2 and -alpha3.  Negative sums are handled via
    the star involution; a zero sum raises :class:`ZeroSum`.
    """
    g = as_gammas(w, n=3, allow_zero=False)
    s = g[0] + g[1] + g[2]
    if snap_sign(s, max(abs(x) for x in g), tol) == 0:
        raise ZeroSum(f"weights {g} sum to zero")
    if s < 0:
        return _star_cone(slice_cone_a(tuple(-x for x in g), tol))

    disc = a_discriminant(g)
    apex = Spectrum(*(exact_div(2 * s, 3), exact_div(-s, 3), exact_div(-s, 3)))
    if disc < 0:
        gens = (Generator(Root.ALPHA2, RAY_NEG), Generator(Root.ALPHA3, RAY_NEG))
        return ConeSpec(apex, gens, False)
    form = a_slice_form(g)
    defin = definiteness(form)
    assert defin in (Definiteness.POSITIVE_DEFINITE, Definiteness.NEGATIVE_DEFINITE)
    fps = fixed_point_spectra(g)
    centroid = tuple(
        exact_div(fps.b.astuple()[k] + fps.c1.astuple()[k] + fps.c2.astuple()[k] + fps.c3.astuple()[k], 4)
        for k in range(3)
    )
    line_root = Root.ALPHA3 if defin is Definiteness.POSITIVE_DEFINITE else Root.ALPHA2
    return _line_cone_with_side(apex, line_root, centroid)


def _star_cone(cone: ConeSpec) -> ConeSpec:
    """Image of a cone under the star involution (reflection across l2 = 0)."""
    apex = Spectrum(*star_vector(cone.apex.astuple()))
    gens = []
    for gsp in cone.generators:
        v = star_vector(gsp.vector if not gsp.is_line else gsp.root.vector)
        sr = identify_signed_root(v)
        kind = LINE if gsp.is_line else (RAY_POS if sr.sign > 0 else RAY_NEG)
        gens.append(Generator(sr.root, kind))
    side = None if cone.side_normal is None else star_vector(cone.side_normal)
    return ConeSpec(apex, tuple(gens), cone.weyl_folded, side)
