"""Momentum polytopes as exact half-plane intersections in the chamber.

The polytope of a weighted product is assembled as the intersection of the
local cones at the five torus-fixed anchor points together with the two
chamber walls: at most a dozen half-planes.  Cones that degenerate at a
transition value (a wall-hitting doubled point, a zero total weight) are
dropped; the cone at the triple-orthogonal point is kept as its one-sided
limit at weight coincidences, which reproduces the transition shapes.

Every cone edge is a root ray or a root line, so every facet normal is one
of eight fixed directions: the two walls and the six directions
perpendicular to a root, and the directions meet in a fixed cyclic order.
The vertices are therefore one walk round that order: the tightest offset
per direction, one 2x2 integer solve of each line with the next, and
redundant lines dropped until every edge has positive length.  The exact
path runs no hull algorithm.

The three-factor build is one straight line in integers: one check and one
snap of the weights to integers (:func:`su3.snap_weights`).  The signs of
the transition forms of the snapped weights, in the caller's order and sign,
name a sign cell, which fixes all but the offsets.  The first build in a
cell labels it by one :func:`classifier.classify_n3` of the snapped weights
and takes one :class:`cones.AnchorKernel`, which gives each cone as a
:class:`cones.Germ`, or None where the cone degenerates; one line-maker
turns each germ into lines a*l1 + b*l2 >= c / t, c an integer linear form
in the weights on the scale t = 3 * den; the walk gives which lines meet at
each vertex, from the a anchor, and the directions fix m, the lcm of the
solves' determinants, so each vertex's solve is an integer linear map of the
weights.  A build takes each offset times m and each vertex coordinate as
one three-term dot product, over m * t.  Each line's provenance names
the anchor of the weights as given (c_j: factor j alone).  The two-factor
build snaps once too and takes its two anchors from the same integers.  A
:class:`ChamberPolytope` stores these lines and vertices over one
denominator and nothing else (segments, points and float hulls over 1);
its :class:`su3.Spectrum` vertices, its one float view over a power of two
near its size, which every float reader takes, and the
:class:`cones.ConeSpec` views of the germs (:func:`polytope_cones`) are
made only when read.  Every reader takes the lines as stored: three times
the sum-zero normal of a*l1 + b*l2 is the integer triple (2a - b, 2b - a,
-a - b), and signed distances divide by the normal's norm, the gradient
norm in the isometric chamber embedding.

Everything here but the hull is plain Python: the builder, containment, and
the farthest-point kernel behind :func:`distance_to_polytope_pq`,
:func:`hausdorff` and :func:`oracle.verify`'s hull deficit, a scalar loop
over a ring's edges (a segment's two, a point's one of length zero): inside
test first, then an early exit.  Only :func:`hull2d`, which batches sampled
points, imports numpy, when called.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

from .classifier import _classify_n2, classify_n3
from .cones import AnchorKernel, ConeSpec, Germ, _snapped_kernel
from .moment_map import _ANCHOR_ROWS, DegenerateWeight, as_gammas, tripled_fixed_point_diagonals
from .su3 import (
    SQRT2,
    SQRT6,
    ChamberPoint,
    Frozen,
    InvalidWeight,
    LengthMismatch,
    Root,
    Scalar,
    Spectrum,
    _form_values,
    _ratio,
    _set,
    all_exact,
    chamber_coordinates,
    chamber_to_spectrum_floats,
    check_real,
    check_tolerance,
    integer_scaled,
    is_exact,
    lift_2d,
    num_out,
    real_rows,
    sgn,
    snap_weights,
)


class AllWeightsDegenerate(ValueError):
    """The half-plane intersection collapsed or failed to close up."""


class InvalidHullPoints(ValueError):
    """Points no chamber hull can be made of: none at all, not (n, 2), a NaN
    or infinite coordinate, or a hull vertex outside the positive chamber."""


class InvalidHalfPlane(ValueError):
    """A half-plane read back that is none: no object, a normal that is no
    list or has n0 = n1 = n2 (it vanishes on the sum-zero plane), a normal
    or offset entry that is not a finite number, or a provenance that is no
    string."""


class NotAPolytope(ValueError):
    """An operand that is no :class:`ChamberPolytope` of :func:`hausdorff`, :func:`distance_to_polytope_pq`,
    :func:`oracle.violation_distances` or :func:`render.render_svg`."""


class InvalidPolytopeDocument(ValueError):
    """A polytope read back from a document of the wrong shape: no object,
    ``vertices``, ``halfplanes`` or a vertex that is no list, a ``kind``
    that is none of Point, Segment and Polygon or does not match the vertex
    count, a ``label`` that is no string or null, a ``starred`` that is
    no bool, or a vertex outside the document's own half-planes."""


#: The chamber walls l1 >= l2 and l2 >= l3 as lines (a, b, offset coefficients, provenance).
_WALLS = ((1, -1, (0, 0, 0), "wall:l1=l2"), (1, 2, (0, 0, 0), "wall:l2=l3"))

#: Provenance suffixes (after the anchor or ``wall``) under the star
#: involution: the two walls trade places, and so do the root axes alpha1 =
#: (0, 1, -1) and alpha3 = (1, -1, 0), while alpha2 = (-1, 0, 1) is its own
#: image.  Anchor names stay: the anchors of -w carry the names of w's.
_STAR_NAMES = {"l1=l2": "l2=l3", "l2=l3": "l1=l2", "alpha1-halfplane": "alpha3-halfplane", "alpha3-halfplane": "alpha1-halfplane"}


def _star_name(provenance: str) -> str:
    tag, colon, suffix = provenance.partition(":")
    return f"{tag}{colon}{_STAR_NAMES.get(suffix, suffix)}"


# ---------------------------------------------------------------------------
# Exact vertices from the fixed facet directions (coordinates are (l1, l2))
# ---------------------------------------------------------------------------

#: Primitive integer functionals (a, b), read as a*l1 + b*l2, of the eight
#: possible facet directions, counterclockwise by angle in the (l1, l2)
#: plane: the walls l2 >= l3 (1, 2) and l1 >= l2 (1, -1), and the two
#: directions perpendicular to each root; each with its sum-zero normal in
#: floats, every entry rounded once from the exact one.
_FACET_NORMALS = {d: tuple(map(float, lift_2d(*d))) for d in ((1, 0), (1, 1), (1, 2), (0, 1), (-1, 0), (-1, -1), (0, -1), (1, -1))}


def _integer_vertices(lines: Sequence[Tuple[int, int, int]]) -> List[int]:
    """The ring of the polygon {a*l1 + b*l2 >= c for each line (a, b, c)}:
    the indices into ``lines`` of its edge lines, counterclockwise.

    ``(a, b)`` must be a facet direction (a key of ``_FACET_NORMALS``) and
    every ``c`` an integer over one common denominator; each direction
    keeps its first tightest line.  The lines are walked in the fixed
    counterclockwise order of their directions.  The intersection is
    unbounded exactly when two neighbours are half a turn or more apart;
    otherwise each line meets the next in one 2x2 integer solve with a
    positive determinant (:func:`_corners`), and its edge runs along
    (b, -a) from the vertex with its predecessor to the vertex with its
    successor.  A line whose edge has signed length <= 0 is redundant or
    the polygon is empty or flat; it is dropped until every edge is
    positive.  Raises :class:`AllWeightsDegenerate` for another direction,
    an unbounded intersection, or one that is empty, a point or a segment
    (a determinant <= 0 after a drop).
    """
    tightest: Dict[Tuple[int, int], int] = {}
    for i, (a, b, c) in enumerate(lines):
        if (a, b) not in _FACET_NORMALS:
            raise AllWeightsDegenerate(f"functional {a}*l1 + {b}*l2 is no facet direction")
        if c > lines[tightest.setdefault((a, b), i)][2]:
            tightest[a, b] = i
    ring = [tightest[d] for d in _FACET_NORMALS if d in tightest]
    if len(ring) < 3 or any(lines[i][0] * lines[j][1] - lines[j][0] * lines[i][1] <= 0 for i, j in zip(ring, ring[1:] + ring[:1])):
        raise AllWeightsDegenerate("half-plane intersection is unbounded")
    while True:
        corners = _corners(lines, ring)
        # the edge of line i runs from corner k to corner k + 1 along (b, -a)
        for k, (i, (x0, y0, d0), (x1, y1, d1)) in enumerate(zip(ring, corners, corners[1:] + corners[:1])):
            a, b = lines[i][:2]
            if b * (x1 * d0 - x0 * d1) - a * (y1 * d0 - y0 * d1) <= 0:
                del ring[k]
                break
        else:
            return ring


def _corners(lines: Sequence[tuple], ring: Sequence[int]) -> List[Tuple[int, int, int]]:
    """Corner k of ``ring``, where line ring[k - 1] meets line ring[k], as
    (x, y, det) for the vertex (x / det, y / det): one 2x2 integer solve.
    A determinant <= 0 raises :class:`AllWeightsDegenerate`."""
    corners = []
    for i, j in zip(ring[-1:] + ring[:-1], ring):
        (a1, b1, c1), (a2, b2, c2) = lines[i][:3], lines[j][:3]
        det = a1 * b2 - a2 * b1
        if det <= 0:
            raise AllWeightsDegenerate("half-plane intersection has no interior")
        corners.append((c1 * b2 - c2 * b1, a1 * c2 - a2 * c1, det))
    return corners


def _ring_vertices(lines: Sequence[tuple], ring: Sequence[int]) -> Tuple[List[Tuple[int, int]], int]:
    """The corners of ``ring``, in its order, as integers over m = lcm of
    the determinants, and m."""
    corners = _corners(lines, ring)
    m = math.lcm(*(det for _, _, det in corners))
    return [(x * m // det, y * m // det) for x, y, det in corners], m


# ---------------------------------------------------------------------------
# Chamber polytopes
# ---------------------------------------------------------------------------


class ChamberPolytope(Frozen):
    """Convex polygon, segment or point in the positive chamber, stored as
    the builder makes it, over one positive integer denominator ``den``.

    ``lines`` are (a, b, c, provenance), each the half-plane
    a*l1 + b*l2 >= c / den, redundant lines included; ``corners`` are
    (x, y, z), each the vertex (x, y, z) / den, counterclockwise in the
    chamber embedding, from the a anchor for three nonzero weights.
    Entries are ints or Fractions, or floats over ``den`` 1 for a sampled
    hull.  :attr:`vertices` is a view made when first read; over ``den`` 1
    it keeps the entries as stored.  No ``__slots__``: the cached views
    live in the instance ``__dict__``.
    """

    _fields = ("lines", "corners", "den", "kind", "label", "starred")
    lines: Tuple[Tuple[Scalar, Scalar, Scalar, str], ...]
    corners: Tuple[Tuple[Scalar, Scalar, Scalar], ...]
    den: int
    kind: str  # Polygon | Segment | Point
    label: Optional[str]
    starred: bool

    def __init__(self, lines: Tuple[Tuple[Scalar, Scalar, Scalar, str], ...], corners: Tuple[Tuple[Scalar, Scalar, Scalar], ...], den: int, kind: str, label: Optional[str] = None, starred: bool = False):
        _set(self, "lines", lines)
        _set(self, "corners", corners)
        _set(self, "den", den)
        _set(self, "kind", kind)
        _set(self, "label", label)
        _set(self, "starred", starred)

    @cached_property
    def vertices(self) -> Tuple[Spectrum, ...]:
        """The corners over ``den``; every maker keeps them sorted and summing to zero."""
        den = self.den
        return tuple(Spectrum._trusted(*(v if den == 1 else [Fraction(x, den) for x in v])) for v in self.corners)

    @property
    def is_exact(self) -> bool:
        return all(all_exact(v) for v in self.corners)

    @cached_property
    def _chamber_points(self) -> Tuple[ChamberPoint, ...]:
        e, pts = self._own_scale[:2]
        return tuple(ChamberPoint(_over_power(p, -e), _over_power(q, -e)) for p, q in pts)

    def pq_vertices(self) -> Tuple[ChamberPoint, ...]:
        """The vertices in the chamber embedding: :attr:`_own_scale`'s points
        times 2**e, an infinity past float range, made once per polytope."""
        return self._chamber_points

    def diameter(self) -> float:
        e, _, diam, _ = self._own_scale  # over 2**e: an infinity past float range
        return _over_power(diam, -e)

    @cached_property
    def _own_scale(self) -> Tuple[int, List[Tuple[float, float]], float, float]:
        """The one float view of the corners, each entry rounded once over
        2**e near the largest (the first entry of a sorted sum-zero triple
        is within 2 of it, and 0 only at 0): e; each vertex's chamber point;
        the diameter; and the scale of :meth:`contains` (a point's largest entry).
        Integer entries over an integer ``den``, as every three-factor build
        makes them, are rounded by one int division each, as
        :func:`_over_power` rounds them; one past float range takes the
        general path, which gives it its infinity."""
        den, corners, verts = self.den, self.corners, None
        if type(den) is int and all(type(x) is int for v in corners for x in v):
            e = max((v[0].bit_length() - 1 for v in corners if v[0]), default=0) - den.bit_length()
            try:
                if e >= 0:
                    d = den << e
                    verts = [[x / d for x in v] for v in corners]
                else:
                    verts = [[(x << -e) / den for x in v] for v in corners]
            except OverflowError:
                pass
        else:
            e = max((_exponent(v[0]) for v in corners if v[0]), default=0) - den.bit_length()
        if verts is None:
            verts = [[_over_power(x, e, den) for x in v] for v in corners]
        pts = [chamber_coordinates(*v) for v in verts]
        diam = max((math.dist(p, q) for i, p in enumerate(pts) for q in pts[i + 1:]), default=0.0)
        return e, pts, diam, diam or max(abs(x) for v in verts for x in v)

    @cached_property
    def _own_lines(self) -> List[Tuple[List[float], float, int, float]]:
        """Each line in floats in the scale of :attr:`_own_scale`: normal over
        2**f (f = 0 for a facet direction, else near its size), offset over
        2**(e + f), f and norm, each rounded once."""
        e, den, rows = self._own_scale[0], self.den, []
        for a, b, c, _ in self.lines:
            f = 0 if (a, b) in _FACET_NORMALS else _exponent(max(abs(a), abs(b)))
            n = _FACET_NORMALS.get((a, b)) or [_over_power(x, f) for x in lift_2d(a, b)]
            rows.append((n, _over_power(c, e + f, den), f, math.sqrt(n[0] ** 2 + n[1] ** 2 + n[2] ** 2)))
        return rows

    def contains(self, s, tol: float = 1e-9) -> bool:
        """Membership within ``tol`` scaled by the polytope diameter (for a
        point, by its largest absolute entry), with no absolute floor, so
        ``contains(t P, t s) == contains(P, s)`` for every t > 0.

        Exact when the polytope, the point and ``tol == 0`` are all exact:
        one integer sign test per line.  Otherwise the signed distances are
        floats in the polytope's own scale (:attr:`_own_lines`, the point
        over the same power of two), each rounded once from its exact value
        on exact input (a non-finite entry raises :class:`su3.InvalidWeight`,
        a point of other than three entries :class:`su3.LengthMismatch`)."""
        check_tolerance(tol)
        triple = s.astuple() if isinstance(s, Spectrum) else tuple(s)
        if len(triple) != 3:
            raise LengthMismatch(f"point has {len(triple)} entries, not 3")
        exact = self.is_exact and all_exact(triple)
        if exact:
            # 3 * d * den * (n . s - c / den) for s = (x, y, z) / d, an integer on integer lines
            (x, y, z), d = integer_scaled(triple)
            gaps = [self.den * ((2 * a - b) * x + (2 * b - a) * y - (a + b) * z) - 3 * c * d for a, b, c, _ in self.lines]
            inside = min(gaps) >= 0
            if inside or tol == 0:
                return inside
        (e, _, _, scale), rows = self._own_scale, self._own_lines
        if exact:
            values = [_over_power(g, e + f, 3 * d * self.den) for g, (_, _, f, _) in zip(gaps, rows)]
        else:
            for k, v in enumerate(triple):
                check_real(v, f"point entry {k}")
            x, y, z = (_over_power(v, e) for v in triple)
            values = [n0 * x + n1 * y + n2 * z - offset for (n0, n1, n2), offset, _, _ in rows]
        return all(v / norm >= -tol * scale for v, (*_, norm) in zip(values, rows))

    def star(self) -> "ChamberPolytope":
        """Image under the star involution (l1, l2, l3) -> (-l3, -l2, -l1),
        the reflection across l2 = 0: the functional a*l1 + b*l2 becomes
        a*l1 + (a - b)*l2, and each provenance names the image line
        (:data:`_STAR_NAMES`).  All vertices but the leading (anchor) one are
        reversed, which keeps the order counterclockwise."""
        lines = tuple((a, a - b, c, _star_name(p)) for a, b, c, p in self.lines)
        corners = [(-z, -y, -x) for x, y, z in self.corners]
        return ChamberPolytope(lines, tuple(corners[:1] + corners[:0:-1]), self.den, self.kind, self.label, not self.starred)

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "starred": self.starred,
            "kind": self.kind,
            "vertices": [[num_out(x) for x in v] for v in self.vertices],
            "halfplanes": [
                {
                    "normal": [num_out(x) for x in lift_2d(a, b)],
                    "offset": num_out(c if self.den == 1 else Fraction(c, self.den)),
                    "provenance": p,
                }
                for a, b, c, p in self.lines
            ],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "ChamberPolytope":
        """:meth:`to_json_dict` read back over ``den`` 1, each vertex checked
        as a spectrum and each normal n read as the line
        (n0 - n2, n1 - n2), which is exact for an exact sum-zero normal.
        A vertex entry that is no finite number raises
        :class:`su3.InvalidWeight` and a vertex that is no triple
        :class:`su3.LengthMismatch`; a bad half-plane raises
        :class:`InvalidHalfPlane` and a document of any other wrong shape
        :class:`InvalidPolytopeDocument`, each listing its cases.  Each
        error names its field, a missing one reading as None; a missing
        ``provenance`` reads as "" and a missing ``starred`` as False.
        Every vertex must satisfy the half-planes: exactly for an exact
        document, within the default tolerance of :meth:`contains`
        otherwise."""
        doc, lists = InvalidPolytopeDocument, (list, tuple)
        _json_in(d, dict, "polytope", doc)
        corners = []
        for i, v in enumerate(_json_in(d.get("vertices"), lists, "vertices", doc)):
            entries = [_num_in(x, f"vertex {i} entry {k}", InvalidWeight) for k, x in enumerate(_json_in(v, lists, f"vertex {i}", doc))]
            if len(entries) != 3:
                raise LengthMismatch(f"vertex {i} has {len(entries)} entries, not 3")
            corners.append(Spectrum(*entries).astuple())
        lines = []
        for i, h in enumerate(_json_in(d.get("halfplanes"), lists, "halfplanes", doc)):
            h = _json_in(h, dict, f"half-plane {i}", InvalidHalfPlane)
            normal = _json_in(h.get("normal"), lists, f"half-plane {i} normal", InvalidHalfPlane)
            n = tuple(_num_in(x, f"half-plane {i} normal entry {k}", InvalidHalfPlane) for k, x in enumerate(normal))
            if len(n) != 3:
                raise InvalidHalfPlane(f"half-plane {i} normal has {len(n)} entries, not 3")
            if n[0] == n[1] == n[2]:
                raise InvalidHalfPlane(f"normal {n} vanishes on the sum-zero plane")
            offset = _num_in(h.get("offset"), f"half-plane {i} offset", InvalidHalfPlane)
            provenance = _json_in(h.get("provenance", ""), str, f"half-plane {i} provenance", InvalidHalfPlane)
            lines.append((n[0] - n[2], n[1] - n[2], offset, provenance))
        kind, n = d.get("kind"), len(corners)
        if kind not in ("Point", "Segment", "Polygon"):
            raise doc(f"kind is {kind!r}, not Point, Segment or Polygon")
        if n == 0 or kind != ("Point" if n == 1 else "Segment" if n == 2 else "Polygon"):
            raise doc(f"kind is {kind!r}, which does not hold {n} vertices")
        label = _json_in(d.get("label"), (str, type(None)), "label", doc)
        poly = cls(tuple(lines), tuple(corners), 1, kind, label, _json_in(d.get("starred", False), bool, "starred", doc))
        for i, v in enumerate(poly.vertices):
            if not (poly.contains(v, 0) if poly.is_exact else poly.contains(v)):
                raise doc(f"vertex {i} ({', '.join(map(str, v))}) is outside the document's half-planes")
        return poly


def _exponent(x: Scalar) -> int:
    """An e with 2**e within a factor 2 of |x| > 0."""
    n, d = _ratio(x)
    return n.bit_length() - d.bit_length()


def _over_power(x: Scalar, e: int, den: int = 1) -> float:
    """``x / (den * 2**e)`` rounded once to a float, a float over ``den`` 1
    keeping its sign, or an infinity past float range."""
    try:
        if type(x) is float and den == 1:
            return math.ldexp(x, -e)
        n, d = _ratio(x)
        return n / (d * den << e) if e >= 0 else (n << -e) / (d * den)  # int / int is correctly rounded
    except OverflowError:
        return math.inf if x > 0 else -math.inf


#: What each type check of :func:`_json_in` asks for, as its errors say it.
_JSON_KINDS = {dict: "an object", (list, tuple): "a list", str: "a string", (str, type(None)): "a string or null", bool: "a bool"}


def _json_in(x, kinds, name: str, error: type):
    """``x`` if it is an instance of ``kinds``, a key of ``_JSON_KINDS``;
    otherwise ``error`` names ``name``."""
    if not isinstance(x, kinds):
        raise error(f"{name} is {x!r}, not {_JSON_KINDS[kinds]}")
    return x


def _num_in(x, name: str, error: type) -> Scalar:
    """A JSON entry as a scalar: an "n" or "n/d" string as a Fraction, an
    exact number as itself and any other finite real as a float.  Anything
    else, a bool, NaN or an infinity among it, raises ``error``, naming
    ``name`` and ``x``."""
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            raise error(f"{name} is {x!r}, not a decimal or a fraction n/d with d nonzero") from None
    if type(x) is bool or not isinstance(x, numbers.Real) or not (is_exact(x) or math.isfinite(x)):
        raise error(f"{name} is {x!r}, not a finite real number")
    return x if is_exact(x) else float(x)


# ---------------------------------------------------------------------------
# Cone germs -> lines
# ---------------------------------------------------------------------------


def _germ_lines(germ: Germ, tag: str) -> List[Tuple[int, int, int, str]]:
    """Lines (a, b, c, provenance) of a local cone germ: a*l1 + b*l2 >= c / t.

    ``(a, b)`` is one of the facet directions and c an integer, from the
    germ's apex on the integer scale t.  Since the apex sums to zero, c / t
    is also the offset ``lift_2d(a, b) . apex`` of the cone's half-plane.
    """
    x, y, _ = germ.apex

    def line(a: int, b: int, suffix: str) -> Tuple[int, int, int, str]:
        return (a, b, a * x + b * y, f"{tag}:{suffix}")

    rays = [(v[0], v[1]) for v in germ.rays]
    if germ.line is not None:
        d = germ.line
        if germ.side is not None:
            a, b = germ.side
        else:
            if not rays:
                raise AllWeightsDegenerate(f"cone at {tag} has 1 lines and 0 rays")
            # a*r0 + b*r1 is the cross product of the line with the ray r
            a, b = -d[1], d[0]
            side = a * rays[0][0] + b * rays[0][1]
            if side == 0 or any((a * r0 + b * r1) * side <= 0 for r0, r1 in rays):
                raise AllWeightsDegenerate(f"cone at {tag} has a ray along its line")
            if side < 0:
                a, b = -a, -b
        return [line(a, b, f"{_ROOT_LABELS[d]}-halfplane")]

    ring = [r for r in _ROOT_RAYS if r in rays]
    if len(ring) == 1:
        raise AllWeightsDegenerate(f"single-ray cone at {tag}")
    for v, u in zip(ring, ring[1:] + ring[:1]):
        if v[0] * u[1] - v[1] * u[0] < 0:
            # the gap from v to u is wider than half a turn, so u and v are
            # the extreme rays, counterclockwise from u to v
            return [line(-u[1], u[0], "edge"), line(v[1], -v[0], "edge")]
    raise AllWeightsDegenerate(f"cone at {tag} is not salient")


#: The six signed roots in (l1, l2) coordinates, counterclockwise by angle.
_ROOT_RAYS = ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))
_ROOT_LABELS = {root.vector: root.label for root in Root}


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def polytope_cones(w, tol: float = 1e-9) -> Dict[str, Optional[ConeSpec]]:
    """The five local cones of the polytope of three nonzero weights, as
    :class:`ConeSpec` views of the builder's germs; None where degenerate.
    Each sits at the anchor of ``w`` as given that names it, as in
    ``slice_cone_*`` and :func:`moment_map.fixed_point_spectra`."""
    kernel = _snapped_kernel(w, tol)
    return {name: None if g is None else kernel.view(g) for name, g in kernel.germs().items()}


def build_polytope_n3(w, tol: float = 1e-9) -> ChamberPolytope:
    """Momentum polytope of three weighted planes with nonzero weights.

    Intersects the wall and cone half-planes of the weights as given
    exactly.  The returned label is the taxonomy type of the input, and
    ``starred`` says whether its canonical form flipped the sign.
    """
    g = as_gammas(w, n=3)
    ints, den = snap_weights(g, tol)
    if not all(ints):
        raise DegenerateWeight(f"weights {g} have a zero within tolerance: use build_polytope for the delegated shape")
    return _build_n3(ints, den)


#: The :func:`_cell` entry of each sign cell a three-factor build has met: at
#: most one per face of the arrangement of the transition forms' planes (248
#: with no zero weight), so no eviction; a race derives one entry twice.
_CELLS: Dict[Tuple[int, ...], tuple] = {}


def _build_n3(ints: Tuple[int, int, int], den: int) -> ChamberPolytope:
    """:func:`build_polytope_n3` of the snapped weights ``ints`` / ``den``,
    none zero, in the caller's order and sign.  The signs of their
    transition forms fix the label, ``starred`` (the total's sign), the
    lines, the integer maps of the corners from the a anchor and m: their
    cell's entry (:func:`_cell`).  Each offset times m and each corner's
    two coordinates are three-term dot products with ``ints``, exact over
    m * t on the scale t = 3 * den."""
    key = tuple(map(sgn, _form_values(ints)))
    spec, maps, m, label = _CELLS.get(key) or _CELLS.setdefault(key, _cell(ints))
    g1, g2, g3 = ints
    lines = tuple((a, b, u * g1 + v * g2 + w * g3, p) for a, b, (u, v, w), p in spec)
    corners = []
    # the vertices satisfy both walls and sum to zero by construction
    for (x1, x2, x3), (y1, y2, y3) in maps:
        x, y = x1 * g1 + x2 * g2 + x3 * g3, y1 * g1 + y2 * g2 + y3 * g3
        corners.append((x, y, -x - y))
    return ChamberPolytope(lines, tuple(corners), 3 * m * den, "Polygon", label, key[-1] < 0)


def _cell(ints: Tuple[int, int, int]) -> tuple:
    """The entry of the sign cell of the snapped weights ``ints``: the walls
    and each germ's lines as (a, b, offset, provenance), each offset times m
    as its coefficients over the weights (anchor table rows in the anchor's
    sorted order); one integer map (X, Y) of each corner, from the a anchor
    round the ring of :func:`_integer_vertices` on ``ints``; m, the lcm of
    the ring's determinants; and the label.

    The corner where the lines (a1, b1, u1) and (a2, b2, u2) meet, u1 and u2
    their offsets' coefficients, is (X . g, Y . g, -X . g - Y . g) / (3 * m) at the
    weights g, with X = (m / d) (b2 u1 - b1 u2) and Y = (m / d) (a1 u2 - a2 u1):
    their 2x2 solve, whose determinant d = a1 b2 - a2 b1 > 0 is fixed on the
    cell and divides m.  The ring is used only here.  The tests check each
    part on a whole cell."""
    kernel = AnchorKernel.scaled(ints, 3)
    rows = {name: [_ANCHOR_ROWS[3][name][k] for k in perm] for name, (_, perm) in kernel.anchors.items()}
    lines = list(_WALLS)
    for name, germ in kernel.germs().items():
        if germ is not None:
            lines += [(a, b, tuple(a * u + b * v for u, v in zip(*rows[name][:2])), p) for a, b, _, p in _germ_lines(germ, name)]
    at_w = [(a, b, sum(c * g for c, g in zip(coefs, ints))) for a, b, coefs, _ in lines]
    ring = _integer_vertices(at_w)
    hull, m = _ring_vertices(at_w, ring)
    k = hull.index(tuple(sum(c * g for c, g in zip(row, ints)) * m for row in rows["a"][:2]))
    ring = ring[k:] + ring[:k]
    maps = []
    for i, j in zip(ring[-1:] + ring[:-1], ring):
        (a1, b1, u1, _), (a2, b2, u2, _) = lines[i], lines[j]
        q = m // (a1 * b2 - a2 * b1)
        maps.append((tuple(q * (b2 * s - b1 * t) for s, t in zip(u1, u2)), tuple(q * (a1 * t - a2 * s) for s, t in zip(u1, u2))))
    spec = tuple((a, b, tuple(m * c for c in coefs), p) for a, b, coefs, p in lines)
    return spec, tuple(maps), m, classify_n3(ints)[0].value


def _segment(a: Sequence[Scalar], c: Sequence[Scalar], tag: str, label: Optional[str] = None) -> ChamberPolytope:
    """The segment from the sum-zero triple ``a`` to ``c`` over ``den`` 1.

    With d = c - a, the lines (-d1, d0) and (d1, -d0) hold the segment's
    line and the lines +-(d0 - d2, d1 - d2) its ends.
    """
    d0, d1, d2 = (cc - aa for cc, aa in zip(c, a))
    e0, e1 = d0 - d2, d1 - d2
    on_line = -d1 * a[0] + d0 * a[1]
    lines = (
        (-d1, d0, on_line, f"{tag}:line"),
        (d1, -d0, -on_line, f"{tag}:line"),
        (e0, e1, e0 * a[0] + e1 * a[1], f"{tag}:end-a"),
        (-e0, -e1, -(e0 * c[0] + e1 * c[1]), f"{tag}:end-c"),
    )
    return ChamberPolytope(lines, (tuple(a), tuple(c)), 1, "Segment", label)


def point_polytope(s: Spectrum, label: Optional[str] = None) -> ChamberPolytope:
    """The point ``s`` over ``den`` 1, held by both walls' directions from either side."""
    l1, l2, _ = s
    lines = []
    for a, b in ((1, -1), (1, 2)):
        lines += [(a, b, a * l1 + b * l2, "point"), (-a, -b, -(a * l1 + b * l2), "point")]
    return ChamberPolytope(tuple(lines), (s.astuple(),), 1, "Point", label)


def build_polytope_n2(w, tol: float = 1e-9) -> ChamberPolytope:
    """Momentum segment of two weighted planes with nonzero weights.

    Endpoints are the sorted spectra of the doubled and the orthogonal
    configurations of the snapped weights; the segment is parallel to a root.
    """
    g = as_gammas(w, n=2)
    if any(x == 0 for x in g):
        raise DegenerateWeight("zero weight: use build_polytope for the delegated shape")
    return _build_n2(*snap_weights(g, tol))


def _build_n2(ints: Tuple[int, int], den: int) -> ChamberPolytope:
    """:func:`build_polytope_n2` of the snapped weights ``ints`` / ``den``:
    the label from the signs of their transition forms, the anchors from
    their anchor table over 3 * den."""
    label = _classify_n2(ints).value
    a, c = (tuple(Fraction(x, 3 * den) for x in entries) for entries, _ in tripled_fixed_point_diagonals(ints).values())
    if a == c:
        return point_polytope(Spectrum._trusted(*a), label)
    return _segment(a, c, "segment", label)


def build_polytope(w, tol: float = 1e-9) -> ChamberPolytope:
    """Polytope for 2 or 3 weights, delegating zero weights to fewer factors.

    A factor with zero weight is invisible to the momentum map, so the shape
    equals the one for the remaining weights (a segment for one surviving
    pair, a point for a single weight or none) of the snapped weights.
    """
    ints, den = snap_weights(as_gammas(w), tol)
    nz = tuple(n for n in ints if n)
    if len(nz) == 3:
        return _build_n3(ints, den)
    # padded with zero weights, one weight or none makes the point of its
    # two anchors, which coincide, labelled DegenerateZeroWeight
    return _build_n2((nz + (0, 0))[:2], den)


# ---------------------------------------------------------------------------
# Hulls and distances (floating point, chamber-embedding metric)
# ---------------------------------------------------------------------------


#: The relative tolerance of :func:`hull2d`.
_HULL_EPS = 1e-9


def _extreme_point_filter(x, y, eps_abs: float):
    """Akl-Toussaint prefilter (Inf. Proc. Lett. 7(5), 1978) of the points
    (x[i], y[i]): the indices, in order, of the points it keeps.

    The extreme points in the eight directions x, x + y, y, y - x and their
    negatives span, in angular order, a convex polygon inside the hull.  A
    corner within sqrt(``eps_abs``) of the previous kept one is merged into
    it, and so is the last one while it is that close to the first: along so
    short an edge no cross product exceeds ``eps_abs``, and one such edge
    would keep every point (two corners of a targeted cluster can lie 1e-10
    times the scale apart).  The remaining corners span a polygon inside the
    first one, and a point whose cross product with every edge of it exceeds
    ``eps_abs`` lies strictly inside the hull and is dropped.  The
    projections and the crosses are formed elementwise on ``x`` and ``y``,
    no matrix product, so no BLAS thread runs; contiguous columns are read
    fastest.  Their rounding never reaches the hull: a point is dropped only
    when it is inside by more than ``eps_abs``.  Every index is kept when
    fewer than three corners remain.  On 1e6 samples of (4, 2, -1), on a
    shared 2-vCPU x86-64 host, the eight directions keep 4,741 points in
    50-65 ms."""
    import numpy as np

    diag, anti = x + y, y - x
    root, corners = math.sqrt(eps_abs), []
    for i in (x.argmax(), diag.argmax(), y.argmax(), anti.argmax(), x.argmin(), diag.argmin(), y.argmin(), anti.argmin()):
        corner = (x[i].item(), y[i].item())
        if not corners or math.dist(corner, corners[-1]) > root:
            corners.append(corner)
    while len(corners) > 1 and math.dist(corners[-1], corners[0]) <= root:
        corners.pop()
    if len(corners) < 3:
        return np.arange(len(x))
    inside = np.ones(len(x), dtype=bool)
    beyond = np.empty(len(x), dtype=bool)
    cross, term = diag, anti  # the projections' arrays, reused
    for (ax, ay), (bx, by) in zip(corners, corners[1:] + corners[:1]):
        # cross(b - a, p - a) = ex * y - ey * x - (ex * ay - ey * ax)
        ex, ey = bx - ax, by - ay
        np.multiply(y, ex, out=cross)
        np.multiply(x, ey, out=term)
        cross -= term
        inside &= np.greater(cross, ex * ay - ey * ax + eps_abs, out=beyond)
    return np.flatnonzero(~inside)


def _hull_candidates(x, y, first: int = 0):
    """``(kept, scale)`` of the points (x[i], y[i]), two non-empty float
    columns: ``scale`` is their largest absolute entry and ``kept`` the
    indices of the points :func:`_extreme_point_filter` keeps at
    :func:`hull2d`'s rule, ``_HULL_EPS * scale**2``.  This is the one place
    that rule is applied.  Every hull vertex is kept, and ``scale`` is
    reached at one (|x| and |y| are convex), so the hull of the points kept
    from several work items, each at its own scale, has the hull vertices and
    the scale of the whole cloud.  A NaN or infinite coordinate raises
    :class:`InvalidHullPoints`, naming the first such point as point
    ``first + i``."""
    import numpy as np

    scale = float(np.maximum(np.abs(x).max(), np.abs(y).max()))  # NaN if any entry is
    if not math.isfinite(scale):
        i = int(np.argmin(np.isfinite(x) & np.isfinite(y)))
        raise InvalidHullPoints(f"point {first + i} (p, q) = {(x[i].item(), y[i].item())} is not finite")
    return _extreme_point_filter(x, y, _HULL_EPS * scale * scale), scale


def _quickhull(arr, tol: float):
    """Counterclockwise hull vertices of a non-empty (n, 2) float array, as a
    (k, 2) array from the lexicographic minimum p0 (Barber, Dobkin and
    Huhdanpaa, ACM TOMS 22(4), 1996).

    The chord from p0 to the lexicographic maximum p1 splits the cloud, and
    each chord's outside set holds the points more than ``tol`` to its
    right.  The outside point farthest from a chord (on a tie, the farthest
    along it) is a vertex, an extreme point of the cloud, and the outside set
    is split between the two child chords; so points strictly inside the
    hull, by more than rounding, never change the result.  Chords wait on an
    explicit stack, left child on top, so vertices come out in order with no
    recursion.  A cloud within ``tol`` of the chord p0 p1, such as every
    two-factor cloud, gives [p0, p1].
    """
    import numpy as np

    x, y = arr[:, 0], arr[:, 1]
    xmin, xmax = x.min(), x.max()
    p0 = np.array([xmin, y[x == xmin].min()])
    p1 = np.array([xmax, y[x == xmax].max()])
    if np.array_equal(p0, p1):
        return p0[None, :]

    def chord(a, b, pts):  # cross products are exactly 0 at copies of a and b
        dx, dy = b - a
        cross = dy * (pts[:, 0] - a[0]) - dx * (pts[:, 1] - a[1])
        out = cross > tol * math.hypot(dx, dy)
        return a, b, pts[out], cross[out]

    hull = [p0]
    stack = [chord(p1, p0, arr), chord(p0, p1, arr)]
    while stack:
        a, b, pts, cross = stack.pop()
        if len(pts) == 0:
            hull.append(b)
            continue
        far = pts[cross == cross.max()]
        c = far[np.argmax((far - a) @ (b - a))]
        stack += [chord(c, b, pts), chord(a, c, pts)]
    return np.array(hull[:-1])


def hull2d(points) -> ChamberPolytope:
    """Convex hull of chamber points: the Akl-Toussaint prefilter
    (:func:`_hull_candidates`), then :func:`_quickhull`.

    ``points`` may be an (n, 2) array, a sequence of ChamberPoint, or (p, q)
    pairs, all inside the closed chamber.  Collinear inputs collapse to a
    Segment, coincident ones to a Point.  A point becomes a vertex only when
    it lies more than ``_HULL_EPS`` = 1e-9 times the cloud's largest absolute
    entry outside the chord it is tested against (no absolute floor, so
    ``hull2d(t * points)`` is ``t`` times the hull).  The filter drops only
    points strictly inside the hull, which never change the quickhull's
    vertices, so they are the same without it.
    An array of integers, or of objects that are real numbers, is read as
    its float array (:func:`su3.real_rows`).  No points, points not of shape
    (n, 2), points of another dtype (bool, complex or text) or an object
    that is no real number, a non-finite point or a hull vertex outside the
    chamber (beyond the slack that :class:`su3.Spectrum` allows) raise
    :class:`InvalidHullPoints`, naming the shape, the dtype, the object or
    the point.
    """
    import numpy as np

    if not isinstance(points, np.ndarray):
        points = [(p.p, p.q) if isinstance(p, ChamberPoint) else p for p in points]
    if (points.size if isinstance(points, np.ndarray) else len(points)) == 0:
        raise InvalidHullPoints("hull2d needs at least one point")
    try:
        arr = real_rows(points, 2, "points", InvalidHullPoints, InvalidHullPoints)
    except InvalidHullPoints:
        raise
    except ValueError as exc:  # rows of different lengths
        raise InvalidHullPoints(f"points are not (p, q) pairs: {exc}") from None
    kept, scale = _hull_candidates(arr[:, 0], arr[:, 1])
    hull = _quickhull(arr.take(kept, axis=0), _HULL_EPS * scale).tolist()

    # the chamber is convex, so the cloud lies in it iff every hull vertex does
    verts = []
    for x, y in hull:
        try:
            verts.append(Spectrum(*chamber_to_spectrum_floats(x, y)))
        except ValueError:
            raise InvalidHullPoints(f"point (p, q) = ({x!r}, {y!r}) lies outside the chamber p >= 0, q >= p / sqrt(3)") from None
    if len(verts) == 1:
        return point_polytope(verts[0], None)
    corners = tuple(v.astuple() for v in verts)
    if len(corners) == 2:
        return _segment(*corners, "hull")
    lines = []
    for i, ((px, py), (qx, qy), (l1, l2, _)) in enumerate(zip(hull, hull[1:] + hull[:1], corners)):
        # the inward normal (n_p, n_q) of the edge, for CCW order, as a*l1 + b*l2
        n_p, n_q = py - qy, qx - px
        a, b = n_p / SQRT2 + 3 * n_q / SQRT6, -n_p / SQRT2 + 3 * n_q / SQRT6
        lines.append((a, b, a * l1 + b * l2, f"hull:edge{i}"))
    return ChamberPolytope(tuple(lines), corners, 1, "Polygon")


def _scaled_points(P: ChamberPolytope, e: int) -> List[Tuple[float, float]]:
    """``P``'s chamber points over 2**e, e at least its own: exact, or below float range."""
    own, pts = P._own_scale[:2]
    return pts if e == own else [(math.ldexp(p, own - e), math.ldexp(q, own - e)) for p, q in pts]


def _own_exponent(P, name: str) -> int:
    """The exponent of ``P``'s own scale; :class:`NotAPolytope`, naming ``name``, for any other operand."""
    if not isinstance(P, ChamberPolytope):
        raise NotAPolytope(f"{name} is {P!r}, not a ChamberPolytope")
    return P._own_scale[0]


def _farthest(points, verts) -> float:
    """The largest Euclidean distance from the (p, q) ``points`` to the convex
    ring ``verts``, each edge formed once: a counterclockwise polygon, a
    segment (edges a -> b and b -> a) or a point (one edge of length zero).
    A point inside a polygon, right of no edge and left of one (none once the
    vertices fall together), is skipped after its crosses up to the first
    negative one.  A segment has no inside, though rounding may put a point
    on its line left of both edges.  A point's projections stop once its
    distance is at most the largest so far.  Every float is formed as in one
    full loop over the edges, so the result is bitwise the largest of that
    loop's."""
    edges = [(ax, ay, bx - ax, by - ay) for (ax, ay), (bx, by) in zip(verts, verts[1:] + verts[:1])]
    edges = [(ax, ay, dx, dy, dx * dx + dy * dy) for ax, ay, dx, dy in edges]
    far = 0.0
    for px, py in points:
        left = False  # a point with no negative cross and a positive one is inside
        for ax, ay, dx, dy, _ in edges if len(verts) > 2 else ():
            cross = dx * (py - ay) - dy * (px - ax)
            if cross < 0.0:
                break
            left = left or cross > 0.0
        else:
            if left:
                continue
        best = math.inf
        for ax, ay, dx, dy, denom in edges:
            # a point's one edge has zero length, so t is 0 there; the clamp is max(0, min(1, t))
            t = 0.0 if denom == 0.0 else ((px - ax) * dx + (py - ay) * dy) / denom
            t = (t if t > 0.0 else 0.0) if t < 1.0 else 1.0
            d = math.hypot(px - (ax + t * dx), py - (ay + t * dy))
            best = d if d < best else best
            if best <= far:
                break
        else:
            far = best
    return far


def distance_to_polytope_pq(point, P: ChamberPolytope) -> float:
    """Euclidean distance from an embedding point, a :class:`su3.ChamberPoint`
    or a (p, q) pair, to a convex polytope; a pair of other than two entries
    raises :class:`su3.LengthMismatch`, a non-finite coordinate
    :class:`su3.InvalidWeight`, a ``P`` that is no polytope
    :class:`NotAPolytope`.  Taken over the larger power of two of the
    point and ``P``'s own scale; an infinity past float range."""
    if isinstance(point, ChamberPoint):
        point = (point.p, point.q)
    if len(point) != 2:
        raise LengthMismatch(f"point has {len(point)} entries, not (p, q)")
    for k in (0, 1):
        check_real(point[k], f"point coordinate {k}")  # raises InvalidWeight
    e = max([_own_exponent(P, "P")] + [_exponent(x) for x in point if x])
    return _over_power(_farthest([(_over_power(point[0], e), _over_power(point[1], e))], _scaled_points(P, e)), -e)


def hausdorff(P: ChamberPolytope, Q: ChamberPolytope) -> float:
    """Symmetric Hausdorff distance in the chamber-embedding metric; both sets
    are convex, so each one-sided supremum is attained at a vertex.  Taken
    over the larger power of two of their own scales; an infinity past float
    range.  An operand that is no polytope raises :class:`NotAPolytope`."""
    e = max(_own_exponent(P, "P"), _own_exponent(Q, "Q"))
    p, q = _scaled_points(P, e), _scaled_points(Q, e)
    return _over_power(max(_farthest(p, q), _farthest(q, p)), -e)
