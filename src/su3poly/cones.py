"""Local momentum cones at the torus-fixed anchor points.

Each anchor point of a three-fold product carries a quadratic slice momentum
map whose image germ is a cone in the chamber: three signed root rays at the
triple-orthogonal point ``b``, a root ray plus a root ray-or-line at the
doubled points ``c_j``, and a root line or a root wedge at the diagonal point
``a``.  When the raw fixed-point value lands outside the chamber the cone is
folded back by the sorting permutation (a Weyl reflection), applied to the
generators as well.

The cones are built on one integer scale (:class:`AnchorKernel`).  The
weights, as :func:`su3.snap_weights` gives them (integers over a
denominator d) in the caller's order and sign, are multiplied by t / 3 with
t = 3 d, so the weights and the five anchor points scaled by t are integer
triples.  Every slice-cone decision, a ray's sign or a form's
definiteness, is a product of the signs of the transition forms
(:func:`su3._form_values`: each weight, each sum and difference of two,
each weight minus the others, the total), which the snap and the
classifier read too: the discriminants AC - B^2 of the slice forms factor
as x y^3 z (x - y - z) at c_j (weights rotated to start at g_j, form times
y^2) and g1 g2 g3^3 (g1 + g2 + g3) at a (form times g3^2).  So each cone
is a function of the form signs and changes only on a transition wall; its
fold is the anchor's sort, and the side of the half-plane cone at ``a``
points to the other anchors' centroid.  The kernel gives each cone as a
:class:`Germ`, all integers: the scaled apex, the folded root rays, the
line root if any and the side of the half-plane cone at ``a``, in the
caller's frame whatever the sign of the total; c_j is where factor j sits
alone.  The exact builder runs on germs.  A :class:`ConeSpec`, with
``Fraction`` apex entries over t and :class:`Generator` objects, is a view
of a germ, made for output and for the ``slice_cone_*`` functions.  The
public coefficient functions below (:func:`b_slice_coefficients`,
:func:`c_alpha3_form`, ...) keep the paper's rational forms; the tests
check the kernel's germs against them.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import Dict, Optional, Tuple

from .moment_map import DegenerateWeight, as_gammas, tripled_fixed_point_diagonals
from .su3 import (
    Frozen,
    Root,
    Scalar,
    Spectrum,
    _form_values,
    _set,
    apply_perm,
    check_index,
    exact_div,
    lift_2d,
    num_out,
    sgn,
    snap_weights,
)


class CoincidentWeights(ValueError):
    """Two weights coincide, putting the triple-orthogonal point on a wall."""


class OnWall(ValueError):
    """The requested doubled point sits on a chamber wall (transition case)."""


class ZeroSum(ValueError):
    """The weights sum to zero, collapsing the diagonal point to the origin."""


class InvalidGeneratorKind(ValueError):
    """A cone generator kind other than ``ray+``, ``ray-`` or ``line``."""


class Definiteness(Enum):
    POSITIVE_DEFINITE = "PositiveDefinite"
    NEGATIVE_DEFINITE = "NegativeDefinite"
    INDEFINITE = "Indefinite"
    DEGENERATE = "Degenerate"


class QuadraticForm2(Frozen):
    """Real form A|u|^2 + B(u conj(v) + conj(u) v) + C|v|^2 on C^2."""

    __slots__ = _fields = ("A", "B", "C")
    A: Scalar
    B: Scalar
    C: Scalar

    def __init__(self, A: Scalar, B: Scalar, C: Scalar):
        _set(self, "A", A)
        _set(self, "B", B)
        _set(self, "C", C)

    @property
    def discriminant(self) -> Scalar:
        return self.A * self.C - self.B * self.B


def definiteness(q: QuadraticForm2) -> Definiteness:
    """Definite iff AC > B^2, with the sign of A deciding which; AC = B^2 is
    degenerate, AC < B^2 indefinite."""
    return _definiteness(q.discriminant, q.A)


def _definiteness(disc: Scalar, a: Scalar) -> Definiteness:
    """The rule of :func:`definiteness` on AC - B^2 and A, or on any numbers
    of their signs."""
    if disc > 0:
        return Definiteness.POSITIVE_DEFINITE if a > 0 else Definiteness.NEGATIVE_DEFINITE
    if disc == 0:
        return Definiteness.DEGENERATE
    return Definiteness.INDEFINITE


# ---------------------------------------------------------------------------
# Cone data
# ---------------------------------------------------------------------------

RAY_POS = "ray+"
RAY_NEG = "ray-"
LINE = "line"


class Generator(Frozen):
    """One generator of a local cone: a signed root ray or a full root line."""

    __slots__ = _fields = ("root", "kind")
    root: Root
    kind: str  # ray+, ray-, line

    def __init__(self, root: Root, kind: str):
        if kind not in (RAY_POS, RAY_NEG, LINE):
            raise InvalidGeneratorKind(f"generator kind {kind!r} is not {RAY_POS!r}, {RAY_NEG!r} or {LINE!r}")
        _set(self, "root", root)
        _set(self, "kind", kind)

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


class ConeSpec(Frozen):
    """Apex plus generators of a local momentum cone.

    ``side_normal``, when present, records the chamber-side of a single-line
    cone as a sum-zero functional pointing into the cone (the cone is then
    the half-plane ``side_normal . (s - apex) >= 0`` bounded by the line).

    A view for output and for the slice-cone functions: the exact builder
    works on :class:`Germ` and makes none of these.
    """

    __slots__ = _fields = ("apex", "generators", "weyl_folded", "side_normal")
    apex: Spectrum
    generators: Tuple[Generator, ...]
    weyl_folded: bool
    side_normal: Optional[Tuple[Scalar, Scalar, Scalar]]

    def __init__(self, apex: Spectrum, generators: Tuple[Generator, ...], weyl_folded: bool = False, side_normal: Optional[Tuple[Scalar, Scalar, Scalar]] = None):
        _set(self, "apex", apex)
        _set(self, "generators", generators)
        _set(self, "weyl_folded", weyl_folded)
        _set(self, "side_normal", side_normal)

    def asdict(self) -> dict:
        d = {
            "apex": [num_out(x) for x in self.apex],
            "generators": [g.asdict() for g in self.generators],
            "weyl_folded": self.weyl_folded,
        }
        if self.side_normal is not None:
            d["side_normal"] = [num_out(x) for x in self.side_normal]
        return d


#: The generator of each signed root vector as a ray, and of each root
#: vector (the positive one) as a line; ``_LINE_VECTOR`` sends either sign
#: of a root to its line.
_RAY_GENERATORS = {
    tuple(sign * x for x in root.vector): Generator(root, RAY_POS if sign > 0 else RAY_NEG)
    for root in Root
    for sign in (1, -1)
}
_LINE_GENERATORS = {root.vector: Generator(root, LINE) for root in Root}
_LINE_VECTOR = {v: g.root.vector for v, g in _RAY_GENERATORS.items()}

_ALPHA1, _ALPHA2, _ALPHA3 = (root.vector for root in Root)


class Germ:
    """A local cone on its kernel's integer scale.

    ``apex`` is the apex times the kernel's scale, an integer triple;
    ``rays`` are signed root vectors; ``line`` is the vector of a root whose
    full line the cone contains, or None; ``side`` is, for the half-plane
    cone at ``a``, the facet direction (a, b) of the functional a*l1 + b*l2
    that is nonnegative on the cone side of ``line``; ``folded`` says whether
    the raw fixed point was sorted into the chamber.  Everything is already
    Weyl-folded.
    """

    __slots__ = ("apex", "rays", "line", "side", "folded")

    def __init__(self, apex, rays, line=None, side=None, folded: bool = False):
        self.apex = apex
        self.rays = rays
        self.line = line
        self.side = side
        self.folded = folded


class AnchorKernel:
    """Weights and anchor points on one integer scale.

    ``scale`` is t = 3 times a common denominator of the weights, ``gammas``
    is the integer triple t * gamma / 3, and ``anchors`` is their anchor table
    (:func:`moment_map.tripled_fixed_point_diagonals`): t times the raw
    diagonal of each anchor point, sorted into the chamber once, as the pair
    ``(entries, perm)`` of :func:`su3.sort_descending`.  The stable sort
    breaks ties the way a perturbation towards strictly decreasing entries
    would, which is the one-sided limit used at weight coincidences.

    ``signs`` are the signs of the 13 transition forms of ``gammas``
    (:func:`su3._form_values`), read once, in the caller's frame; every
    germ's rays and line, before the fold, are products of them.  With
    (x, y, z) the weights rotated to start at g_j, the form at c_j times
    y^2 has AC - B^2 = x y^3 z (x - y - z), and the form at a times g3^2
    has AC - B^2 = g1 g2 g3^3 (g1 + g2 + g3), so no slice form is made,
    and a cone changes only where a transition form changes sign.  The
    ``germ_*`` methods give each cone as a :class:`Germ`, which
    :meth:`view` wraps in a :class:`ConeSpec`, or None where the cone
    degenerates (c_j on a wall, a zero sum at a): the one place where that
    is decided.
    """

    __slots__ = ("scale", "gammas", "anchors", "signs")

    def __init__(self, scale: int, gammas: Tuple[int, int, int], anchors: Dict[str, Tuple[tuple, Tuple[int, ...]]]):
        self.scale = scale
        self.gammas = gammas
        self.anchors = anchors
        self.signs = tuple(map(sgn, _form_values(gammas)))

    @classmethod
    def scaled(cls, gammas: Tuple[int, int, int], scale: int) -> "AnchorKernel":
        """Kernel of the integer triple ``gammas`` = t * gamma / 3, t = ``scale``."""
        return cls(scale, gammas, tripled_fixed_point_diagonals(gammas))

    def germ_b(self) -> Germ:
        """Three signed root rays, of the signs of :func:`b_slice_coefficients`:
        e23 g2 g3, -e13 g1 g3 and e12 g1 g2, with e_ij = g_i - g_j.  Where
        e_ij vanishes the one-sided limit from g_i > g_j (i < j) is taken."""
        g1, g2, g3, _, _, _, e12, e13, e23 = self.signs[:9]
        s1, s2, s3 = (e23 or 1) * g2 * g3, -(e13 or 1) * g1 * g3, (e12 or 1) * g1 * g2
        return self._folded("b", ((0, s1, -s1), (-s2, 0, s2), (s3, -s3, 0)))

    def germ_c(self, j: int) -> Optional[Germ]:
        """An alpha1-family ray, of sign -y z z_j, plus an alpha3-family ray
        (definite form) or line (indefinite form); None when c_j sits on a
        wall.  (x, y, z) are the weight signs rotated to start at g_j; the
        form has AC - B^2 of sign x y z t_j and A of sign x y e, with
        e = e12, e23, -e13 for j = 1, 2, 3."""
        g = self.signs
        x, y, z = _rotated(check_index(j), g)
        a1_sign = -y * z * g[2 + j]
        defin = _definiteness(x * y * z * g[8 + j], x * y * (g[6], g[8], -g[7])[j - 1])
        # a vanishing coefficient or a degenerate form is a wall transition
        if a1_sign == 0 or defin is Definiteness.DEGENERATE:
            return None
        a1_ray = (0, a1_sign, -a1_sign)
        if defin is Definiteness.INDEFINITE:
            return self._folded(f"c{j}", (a1_ray,), _ALPHA3)
        s = 1 if defin is Definiteness.POSITIVE_DEFINITE else -1
        return self._folded(f"c{j}", (a1_ray, (s, -s, 0)))

    def germ_a(self) -> Optional[Germ]:
        """The cone at a, None at a zero sum.  The form has AC - B^2 of sign
        g1 g2 g3 total and A of sign g1 g3 z13.  A negative total negates
        the form (A flips) and star-reflects the cone of -gamma, whose lines
        alpha3 and alpha2 read alpha1 and alpha2 here, its wedge (-alpha2,
        -alpha1)."""
        g1, g2, g3, _, z13, *_, total = self.signs
        if total == 0:
            return None
        apex = self.anchors["a"][0]
        defin = _definiteness(g1 * g2 * g3 * total, g1 * g3 * z13 * total)
        if defin is Definiteness.INDEFINITE:
            # -alpha2, then -alpha3 (a positive total) or -alpha1 (a negative one)
            return Germ(apex, ((1, 0, -1), (-1, 1, 0) if total > 0 else (0, -1, 1)))
        line = (_ALPHA3 if total > 0 else _ALPHA1) if defin is Definiteness.POSITIVE_DEFINITE else _ALPHA2
        # The side towards the centroid of the other four anchors, in
        # integers: 3 * lift_2d(a, b) dotted with 4 * (centroid - apex).
        a, b = -line[1], line[0]
        normal3 = (2 * a - b, 2 * b - a, -a - b)
        others = [self.anchors[k][0] for k in ("b", "c1", "c2", "c3")]
        side = sgn(sum(n * (sum(p[i] for p in others) - 4 * apex[i]) for i, n in enumerate(normal3)))
        if side == 0:
            raise ValueError("ambiguous side for the half-plane cone at a")
        return Germ(apex, (), line, (side * a, side * b))

    def _folded(self, name: str, rays, line=None) -> Germ:
        entries, order = self.anchors[name]
        if order == (0, 1, 2):
            return Germ(entries, rays, line)
        rays = tuple(apply_perm(v, order) for v in rays)
        line = None if line is None else _LINE_VECTOR[apply_perm(line, order)]
        return Germ(entries, rays, line, None, True)

    def germs(self) -> Dict[str, Optional[Germ]]:
        """The five germs by anchor name (a, b, c1, c2, c3), None where degenerate."""
        return {"a": self.germ_a(), "b": self.germ_b(), "c1": self.germ_c(1), "c2": self.germ_c(2), "c3": self.germ_c(3)}

    # -- views ---------------------------------------------------------------

    def view(self, germ: Germ) -> ConeSpec:
        """``germ`` as a :class:`ConeSpec`: the apex over the scale, the
        rays then the line as generators, the side as a sum-zero normal."""
        t = self.scale
        apex = Spectrum._trusted(*(Fraction(x, t) for x in germ.apex))
        gens = tuple(_RAY_GENERATORS[v] for v in germ.rays)
        if germ.line is not None:
            gens += (_LINE_GENERATORS[germ.line],)
        side = None if germ.side is None else lift_2d(*germ.side)
        return ConeSpec(apex, gens, germ.folded, side)


def _snapped_kernel(w, tol: float) -> AnchorKernel:
    """Kernel of three nonzero weights snapped by :func:`su3.snap_weights`;
    a weight that snaps to zero is refused as an exact zero is."""
    ints, den = snap_weights(as_gammas(w, n=3, allow_zero=False), tol)
    if 0 in ints:
        raise DegenerateWeight(f"weights {as_gammas(w)} have a zero within tolerance")
    return AnchorKernel.scaled(ints, 3 * den)


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
    Coincidence is read from the weights snapped by :func:`su3.snap_weights`,
    on which the cone is built, so the rays and the fold of the apex take
    the same limit.
    """
    kernel = _snapped_kernel(w, tol)
    if not allow_coincident and len(set(kernel.gammas)) < 3:
        raise CoincidentWeights(f"weights {as_gammas(w)} are not pairwise distinct")
    return kernel.view(kernel.germ_b())


def _rotated(j: int, g) -> Tuple[Scalar, Scalar, Scalar]:
    """The three weights ``g`` rotated to start at g_j: (x, y, z)."""
    return g[j - 1], g[j % 3], g[(j + 1) % 3]


def c_alpha1_coefficient(j: int, w) -> Scalar:
    """Coefficient of the alpha1-family ray in the slice map at c_j:
    -(y / z)(y + z) on the weights rotated to start at g_j."""
    x, y, z = _rotated(check_index(j), as_gammas(w, n=3, allow_zero=False))
    return -exact_div(y, z) * (y + z)


def c_alpha3_form(j: int, w) -> QuadraticForm2:
    """Quadratic form multiplying the alpha3-family direction at c_j:
    ((x / y)(x - y), xz / y, (z / y)(z + y)) on the weights rotated to
    start at g_j."""
    x, y, z = _rotated(check_index(j), as_gammas(w, n=3, allow_zero=False))
    return QuadraticForm2(exact_div(x, y) * (x - y), exact_div(x * z, y), exact_div(z, y) * (z + y))


def c_vertex_criterion(j: int, w) -> Scalar:
    """g1 g2 g3 (g_j - sum of the others); positive iff the c_j form is definite."""
    check_index(j)
    g = as_gammas(w, n=3, allow_zero=False)
    return g[0] * g[1] * g[2] * (2 * g[j - 1] - g[0] - g[1] - g[2])


def slice_cone_c(j: int, w, tol: float = 1e-9) -> ConeSpec:
    """Local cone at a doubled point c_j: an alpha1-family ray plus an
    alpha3-family ray (definite form) or full line (indefinite form).

    Raises :class:`OnWall` when c_j sits on a chamber wall, which happens
    exactly when one of the transition quantities for index j vanishes on
    the weights snapped by :func:`su3.snap_weights`.
    """
    kernel = _snapped_kernel(w, tol)
    germ = kernel.germ_c(j)
    if germ is None:
        raise OnWall(f"c{j} lies on a chamber wall for integer weights {kernel.gammas}")
    return kernel.view(germ)


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


def slice_cone_a(w, tol: float = 1e-9) -> ConeSpec:
    """Local cone at the diagonal point a (on the chamber wall).

    Positive sum: positive-definite slice forms give a half-plane bounded by
    the alpha3 line through a, negative-definite the alpha2 line (side chosen
    towards the centroid of the other fixed points); indefinite forms give
    the wedge spanned by -alpha2 and -alpha3.  Negative sums are handled via
    the star involution; a zero sum of the weights snapped by
    :func:`su3.snap_weights` raises :class:`ZeroSum`.
    """
    kernel = _snapped_kernel(w, tol)
    germ = kernel.germ_a()
    if germ is None:
        raise ZeroSum(f"integer weights {kernel.gammas} sum to zero")
    return kernel.view(germ)
