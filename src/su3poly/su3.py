"""su(3) root-system primitives acting on trace-zero Hermitian matrices.

The dual of su(3) is modelled by trace-zero 3x3 Hermitian matrices, paired
with skew-Hermitian generators through Im(tr(mu.xi)).  A coadjoint orbit is
identified with its sorted spectrum, a point of the closed positive Weyl
chamber ``l1 >= l2 >= l3`` inside the sum-zero plane.

:class:`SkewHermitian3` (the Lie algebra su(3)), :func:`pairing` (the
paper's duality pairing Im(tr(mu.xi))) and :data:`XI1`, :data:`XI2` (its
Cartan basis of diagonal generators) are the paper's definitions as
written.  The rest of the library works on spectra and calls none of them;
``tests/test_su3.py`` checks the root pairing table and bilinearity on them.

Scalars may be int, Fraction or float.  Operations keep exact inputs exact
wherever the mathematics allows it: diagonal spectra, root arithmetic, the
star involution and chamber sorting never leave the rationals.
"""

from __future__ import annotations

import math
import numbers
from enum import Enum
from fractions import Fraction
from typing import Iterator, Sequence, Tuple, Union

Scalar = Union[int, Fraction, float]

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)
SQRT6 = math.sqrt(6.0)

#: Default relative tolerance for floating-point sum-zero / tie checks.
SUM_TOL = 1e-9


def _sum_slack(entries: Sequence[Scalar]) -> Scalar:
    """The one sum-zero rule, of :class:`Spectrum` and :meth:`Hermitian3.diag`:
    0 for exact entries, else ``SUM_TOL`` times the largest, with no floor."""
    return 0 if all_exact(entries) else SUM_TOL * max(abs(x) for x in entries)


class SumNotZero(ValueError):
    """A would-be spectrum whose entries do not sum to zero."""


class NotSorted(ValueError):
    """A would-be spectrum whose entries are not in descending order."""


class LengthMismatch(ValueError):
    """A sequence of the wrong length: a spectrum that is no triple, or a
    configuration or weight vector of the wrong size."""


class InvalidWeight(ValueError):
    """A weight, eigenvalue or spectrum entry that is not a finite real
    number: NaN, an infinity, a bool or no number at all."""


def check_real(x, name: str) -> None:
    """Raise :class:`InvalidWeight`, naming ``name`` and ``x``, unless ``x``
    is a finite real number other than a bool."""
    kind = type(x)
    if kind is not float and (kind is bool or not isinstance(x, numbers.Real)):
        raise InvalidWeight(f"{name} is {x!r}, not a real number")
    if not is_exact(x) and not math.isfinite(x):
        raise InvalidWeight(f"{name} is {x!r}, not finite")


def real_rows(values, width: int, name: str, shape_error: type = LengthMismatch, value_error: type = InvalidWeight):
    """``values`` as an (n, ``width``) array of real numbers: a float array
    as it is, an array of integers, or of objects that are real numbers, as
    its float array.  Another shape raises ``shape_error`` and another dtype,
    bool and complex included, or an object that is no real number (a bool
    is none) raises ``value_error``, each naming ``name`` and the shape, the
    dtype or the object.  The entries of a sequence are checked as given,
    as numpy would read a bool among numbers as 1.0; rows of different
    lengths raise numpy's ``ValueError``."""
    import numpy as np

    arr = np.asarray(values)
    if not isinstance(values, np.ndarray) and arr.dtype.kind in "biuf":
        arr = np.array(values, dtype=object)
    if arr.ndim != 2 or arr.shape[1] != width:
        raise shape_error(f"{name} of shape {arr.shape} are not (n, {width})")
    if arr.dtype.kind == "O":
        for x in arr.flat:
            if type(x) is bool or not isinstance(x, numbers.Real):
                raise value_error(f"{name} hold {x!r}, not a real number")
    elif arr.dtype.kind not in "iuf":
        raise value_error(f"{name} of dtype {arr.dtype} are not real numbers")
    return arr if arr.dtype.kind == "f" else arr.astype(float)


class NotHermitian(ValueError):
    """A matrix with a NaN or infinite entry, or that differs from its
    conjugate transpose beyond tolerance."""


def is_exact(x) -> bool:
    """True for int/Fraction scalars (bool excluded)."""
    # plain type tests first: the builders call this often
    kind = type(x)
    if kind is float:
        return False
    return kind in (int, Fraction) or (isinstance(x, (int, Fraction)) and not isinstance(x, bool))


def all_exact(xs) -> bool:
    return all(is_exact(x) for x in xs)


def sgn(x) -> int:
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


class InvalidTolerance(ValueError):
    """A tolerance that is not a finite nonnegative real number."""


def check_tolerance(tol) -> None:
    """Raise :class:`InvalidTolerance`, naming ``tol``, unless it is a finite
    nonnegative real number other than a bool: the library's one check."""
    # a plain type test first: every build checks its tolerance
    if type(tol) is bool or not (type(tol) is float or isinstance(tol, numbers.Real)) or not 0 <= tol < math.inf:
        raise InvalidTolerance(f"tolerance {tol!r} is not a finite nonnegative number")


class InvalidIndex(ValueError):
    """An anchor or basis index that is not the int 1, 2 or 3."""


def check_index(j) -> int:
    """``j`` when it is the int 1, 2 or 3 (not a bool); anything else
    raises :class:`InvalidIndex`, naming it."""
    if type(j) is bool or not isinstance(j, int) or j not in (1, 2, 3):
        raise InvalidIndex(f"index {j!r} is not 1, 2 or 3")
    return j


def _form_values(x: Sequence[int]) -> tuple:
    """The transition forms: each weight, then (for three weights) each sum
    and difference of two, each weight minus the others, and the total.

    For three weights the 13 values are, by index, (g1, g2, g3, z23, z13,
    z12, e12, e13, e23, t1, t2, t3, total): z_ij = g_i + g_j, e_ij =
    g_i - g_j, t_j = g_j minus the other two.  So z_j, the sum of the
    weights other than g_j, is at index 2 + j, and t_j at 8 + j.  For two
    weights they are (g1, g2, total, e12).  The snap and the classifier
    read these, and the cone kernel reads their signs."""
    if len(x) == 2:
        a, b = x
        return (a, b, a + b, a - b)
    a, b, c = x
    return (a, b, c, b + c, a + c, a + b, a - b, a - c, b - c, a - b - c, b - a - c, c - a - b, a + b + c)


#: Coefficients of each form, for two and three weights: the forms of the unit vectors, transposed.
_FORMS = {n: tuple(zip(*(_form_values([int(i == j) for j in range(n)]) for i in range(n)))) for n in (2, 3)}


def snap_weights(gs: Sequence[Scalar], tol: float) -> Tuple[Tuple[int, ...], int]:
    """Two or three weights snapped to the transitions they lie on within
    ``tol``, as integers over one positive denominator: the library's one
    tolerance rule for weights.

    A form of :func:`_form_values` that involves a float snaps when it is
    within ``tol`` times the largest absolute weight, b, compared in integers
    on the exact binary values.  The weights are projected orthogonally onto
    the null space of the snapped forms.  Exact weights keep their values.
    A ``tol`` that :func:`check_tolerance` refuses raises
    :class:`InvalidTolerance`.  Exact weights alone (int and Fraction) are
    read in one type loop and returned as :func:`integer_scaled` gives them;
    any other weight takes the general path, the tolerance read exactly
    through :func:`_ratio` (a numpy number among the tolerances).

    The projection gives no other form the opposite sign, so one projection
    suffices.  The forms are the nonzero vectors of {-1, 0, 1}^n, one of
    each pair +-c.  Snapped forms that span the whole space project to 0.
    Along one snapped form c the projection moves a form g by
    (g.c / |c|^2) c.x, at most b, which is less than |g.x| when g involves
    a float and did not snap.  When g involves exact weights alone, a sign
    change would put the form c - sign(g.c) g, which involves c's float,
    within b too, and it would have snapped beside c.  For snapped forms
    spanning a plane, linear programs over each pattern of exact weights
    and each position of every form about +-b admit no sign change either;
    the tests check every integer weight up to 4 in size.
    """
    check_tolerance(tol)
    den = 1
    for g in gs:
        kind = type(g)
        if kind is Fraction:
            den = math.lcm(den, g.denominator)
        elif kind is not int:
            break
    else:
        return tuple(g.numerator * (den // g.denominator) for g in gs), den
    ints, den = integer_scaled(gs)
    exact = [is_exact(g) for g in gs]
    if all(exact):
        return ints, den
    values = _form_values(ints)
    p, q = _ratio(tol)
    bound = p * max(map(abs, ints)) // q  # |v| <= tol * max|x| for an integer v
    if min(map(abs, values)) > bound:
        return ints, den
    forms = _FORMS[len(ints)]
    x, f = _null_projection(ints, [form for form, v in zip(forms, values) if abs(v) <= bound and not all(e for e, c in zip(exact, form) if c)])
    g = math.gcd(*x, den * f)
    return tuple(n // g for n in x), den * f // g


def _null_projection(x: Sequence[int], rows) -> Tuple[tuple, int]:
    """``x`` projected orthogonally onto the common null space of the
    integer vectors ``rows``, times a positive integer, and that integer.

    Gram-Schmidt in integers: each step replaces v by |b|^2 v - (v.b) b."""
    basis = []
    for r in rows:
        for b, bb in basis:
            r = tuple(bb * ri - _dot(r, b) * bi for ri, bi in zip(r, b))
        if any(r):
            basis.append((r, _dot(r, r)))
    f = 1
    for b, bb in basis:
        x, f = tuple(bb * xi - _dot(x, b) * bi for xi, bi in zip(x, b)), f * bb
    return x, f


def _dot(u, v) -> int:
    return sum(ui * vi for ui, vi in zip(u, v))


def num_out(x) -> Union[str, float]:
    """JSON form of a scalar: exact values as "n" or "n/d" strings."""
    if is_exact(x):
        n, d = x.numerator, x.denominator
        return str(n) if d == 1 else f"{n}/{d}"
    return float(x)


def exact_div(a: Scalar, b: Scalar) -> Scalar:
    """a / b, staying in Fraction when both operands are exact."""
    if is_exact(a) and is_exact(b):
        return Fraction(a) / Fraction(b)
    return a / b


def third(x: Scalar) -> Scalar:
    return exact_div(x, 3)


def integer_scaled(xs: Sequence[Scalar]) -> Tuple[Tuple[int, ...], int]:
    """``xs`` times the lcm of their denominators, as integers, and the lcm.

    A float enters through its exact binary value.  The factor is positive,
    so every sign of a homogeneous polynomial in ``xs`` is kept.
    """
    ratios = [_ratio(x) for x in xs]
    lcm = math.lcm(*(d for _, d in ratios))
    return tuple(n * (lcm // d) for n, d in ratios), lcm


def _ratio(x: Scalar) -> Tuple[int, int]:
    if type(x) is int:
        return x, 1
    if type(x) is Fraction:
        return x.numerator, x.denominator
    if type(x) is float:
        return x.as_integer_ratio()
    # other reals, numpy's among them, as Python ints, which snap_weights needs:
    # its integer products overflow in numpy integers
    if isinstance(x, numbers.Rational):
        return int(x.numerator), int(x.denominator)
    return float(x).as_integer_ratio()


# ---------------------------------------------------------------------------
# Immutable values
# ---------------------------------------------------------------------------


class Frozen:
    """Base of the library's immutable value classes.

    A subclass names its compared fields in ``_fields``, in constructor
    order, and sets them in an explicit ``__init__`` through :func:`_set`
    (``object.__setattr__``); it declares ``__slots__`` unless a
    ``cached_property`` needs an instance ``__dict__``.  The base gives it
    equality and a hash over ``_values()`` (those fields, unless overridden),
    a repr ``Name(field=value, ...)`` and an ``AttributeError`` on
    assignment or deletion; pickle and copy rebuild through the constructor.

    Plain classes rather than dataclasses: the ``dataclasses`` module, with
    the ``inspect`` and ``ast`` it loads, and the methods it generates with
    ``exec`` cost about 30 ms at import, which every command-line call would
    pay; an explicit ``__init__`` also costs less per instance than the
    generated one.
    """

    __slots__ = ()
    _fields: Tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (self.__class__, tuple([getattr(self, name) for name in self._fields]))


#: Sets a field of a :class:`Frozen` instance past its ``__setattr__``.
_set = object.__setattr__


# ---------------------------------------------------------------------------
# Spectra and the chamber embedding
# ---------------------------------------------------------------------------


class Spectrum(Frozen):
    """Sorted trace-zero eigenvalue triple ``l1 >= l2 >= l3``.

    An entry that is NaN, an infinity, a bool or no number raises
    :class:`InvalidWeight`, naming it; then unsorted entries raise
    :class:`NotSorted` and a nonzero sum :class:`SumNotZero`."""

    __slots__ = _fields = ("l1", "l2", "l3")
    l1: Scalar
    l2: Scalar
    l3: Scalar

    @classmethod
    def _trusted(cls, l1: Scalar, l2: Scalar, l3: Scalar) -> "Spectrum":
        """A spectrum whose entries are sorted and sum to zero by
        construction, made without the constructor's checks."""
        s = object.__new__(cls)
        _set(s, "l1", l1)
        _set(s, "l2", l2)
        _set(s, "l3", l3)
        return s

    def __init__(self, l1: Scalar, l2: Scalar, l3: Scalar):
        _check_entries((l1, l2, l3))
        _set(self, "l1", l1)
        _set(self, "l2", l2)
        _set(self, "l3", l3)
        slack = _sum_slack((l1, l2, l3))
        # sorted exactly, or (for floats) within the slack of the sum
        if not (l1 >= l2 >= l3 or slack and l1 >= l2 - slack and l2 >= l3 - slack):
            raise NotSorted(f"spectrum not sorted: {(l1, l2, l3)}")
        if abs(l1 + l2 + l3) > slack:
            raise SumNotZero(f"spectrum does not sum to zero: {(l1, l2, l3)}")

    @property
    def is_exact(self) -> bool:
        return all_exact((self.l1, self.l2, self.l3))

    def __iter__(self) -> Iterator[Scalar]:
        return iter((self.l1, self.l2, self.l3))

    def astuple(self) -> Tuple[Scalar, Scalar, Scalar]:
        return (self.l1, self.l2, self.l3)

    def as_floats(self) -> Tuple[float, float, float]:
        return (float(self.l1), float(self.l2), float(self.l3))


class ChamberPoint(Frozen):
    """Image of a spectrum under the fixed isometric plane embedding."""

    __slots__ = _fields = ("p", "q")
    p: float
    q: float

    def __init__(self, p: float, q: float):
        _set(self, "p", p)
        _set(self, "q", q)

    def distance(self, other: "ChamberPoint") -> float:
        return math.hypot(self.p - other.p, self.q - other.q)


def chamber_coordinates(l1, l2, l3):
    """Isometric coordinates (p, q) of the sum-zero triple (l1, l2, l3):
    floats, or numpy columns of spectra.

    Uses the orthonormal basis f1 = (1,-1,0)/sqrt2, f2 = (1,1,-2)/sqrt6, so
    Euclidean distances and angles between spectra are preserved; adjacent
    roots come out at 120 degrees.
    """
    return (l1 - l2) / SQRT2, (l1 + l2 - 2 * l3) / SQRT6


def to_chamber(s: Spectrum) -> ChamberPoint:
    """Isometric coordinates of a spectrum (:func:`chamber_coordinates`)."""
    return ChamberPoint(*chamber_coordinates(*s.as_floats()))


def chamber_to_spectrum_floats(p: float, q: float) -> Tuple[float, float, float]:
    """Inverse of :func:`to_chamber` (floating point)."""
    l1 = p / SQRT2 + q / SQRT6
    l2 = -p / SQRT2 + q / SQRT6
    l3 = -2 * q / SQRT6
    return (l1, l2, l3)


def to_positive_chamber(raw: Sequence[Scalar]):
    """Sort a sum-zero triple into the chamber, reporting the permutation.

    Returns ``(Spectrum, perm)`` where ``sorted[i] == raw[perm[i]]``.  Among
    permutations achieving the descending order (ties) the lexicographically
    smallest index tuple is reported.  Raises :class:`SumNotZero` when the
    input does not sum to zero (the :class:`Spectrum` test),
    :class:`LengthMismatch` when it is no triple, and
    :class:`InvalidWeight`, naming the entry, for a NaN, an infinity, a
    bool or a non-number.
    """
    raw = tuple(raw)
    if len(raw) != 3:
        raise LengthMismatch(f"expected a triple, got {len(raw)} entries")
    _check_entries(raw)
    entries, perm = sort_descending(raw)
    return Spectrum(*entries), perm


def _check_entries(entries: Sequence[Scalar]) -> None:
    """:func:`check_real` on each entry of a would-be spectrum, naming it."""
    for k, x in enumerate(entries):
        # the exact types need no check, and fixed_point_spectra sorts them often
        if type(x) is not int and type(x) is not Fraction:
            check_real(x, f"spectrum entry {k}")


def sort_descending(v: Sequence[Scalar]) -> Tuple[tuple, Tuple[int, ...]]:
    """Entries of ``v`` in descending order and the permutation used.

    Returns ``(out, perm)`` with ``out[k] == v[perm[k]]``.  The sort is
    stable, so tied entries keep their index order: ``perm`` is the
    lexicographically smallest permutation achieving the order, which is
    also the one-sided limit from strictly decreasing entries.
    """
    perm = tuple(sorted(range(len(v)), key=v.__getitem__, reverse=True))
    return apply_perm(v, perm), perm


def star_involution(s: Spectrum) -> Spectrum:
    """Chamber representative of ``-s``; an involution.

    Acts as the reflection of the chamber across the line l2 = 0.
    """
    return Spectrum(-s.l3, -s.l2, -s.l1)


def lift_2d(a: Scalar, b: Scalar) -> Tuple[Scalar, Scalar, Scalar]:
    """Sum-zero normal matching the functional a*l1 + b*l2 on sum-zero triples."""
    m = exact_div(a + b, 3)
    return (a - m, b - m, -m)


# ---------------------------------------------------------------------------
# Matrices
# ---------------------------------------------------------------------------


class Hermitian3(Frozen):
    """Trace-zero 3x3 Hermitian matrix.

    Stores the two free diagonal entries (``d3 = -d1-d2``) and the three
    upper-triangular entries; the lower triangle is implied by Hermiticity,
    the trace is zero by construction.  A diagonal entry that is NaN, an
    infinity, a bool or no number raises :class:`InvalidWeight`, naming it,
    and an upper entry that is no finite number :class:`NotHermitian`.
    """

    __slots__ = _fields = ("d1", "d2", "off12", "off13", "off23")
    d1: Scalar
    d2: Scalar
    off12: complex
    off13: complex
    off23: complex

    def __init__(self, d1: Scalar, d2: Scalar, off12: complex = 0, off13: complex = 0, off23: complex = 0):
        check_real(d1, "diagonal entry 0")
        check_real(d2, "diagonal entry 1")
        for name, z in (("12", off12), ("13", off13), ("23", off23)):
            if type(z) is bool or not isinstance(z, numbers.Complex) or not (is_exact(z) or math.isfinite(z.real) and math.isfinite(z.imag)):
                raise NotHermitian(f"entry {name} is {z!r}, not a finite number")
        _set(self, "d1", d1)
        _set(self, "d2", d2)
        _set(self, "off12", off12)
        _set(self, "off13", off13)
        _set(self, "off23", off23)

    @property
    def d3(self) -> Scalar:
        return -self.d1 - self.d2

    @classmethod
    def diag(cls, a: Scalar, b: Scalar, c: Scalar) -> "Hermitian3":
        for k, x in enumerate((a, b, c)):
            check_real(x, f"diagonal entry {k}")
        if abs(a + b + c) > _sum_slack((a, b, c)):
            raise SumNotZero(f"diagonal sums to {a + b + c}")
        return cls(a, b)

    @classmethod
    def from_numpy(cls, m) -> "Hermitian3":
        """The trace-zero Hermitian matrix of a 3x3 array, checked to ``SUM_TOL`` times its largest entry."""
        import numpy as np

        m = np.asarray(m, dtype=complex)
        if not np.isfinite(m).all():
            raise NotHermitian(f"matrix has a NaN or infinite entry: {m.tolist()}")
        scale = float(np.abs(m).max())
        if np.abs(m - m.conj().T).max() > SUM_TOL * scale:
            raise NotHermitian("matrix is not Hermitian")
        if abs(m.trace()) > SUM_TOL * scale:
            raise SumNotZero(f"trace is {m.trace()}")
        return cls(m[0, 0].real, m[1, 1].real, m[0, 1], m[0, 2], m[1, 2])

    def as_numpy(self):
        import numpy as np

        return np.array(
            [
                [complex(self.d1), complex(self.off12), complex(self.off13)],
                [complex(self.off12).conjugate(), complex(self.d2), complex(self.off23)],
                [complex(self.off13).conjugate(), complex(self.off23).conjugate(), complex(self.d3)],
            ]
        )

    @property
    def is_diagonal(self) -> bool:
        return self.off12 == self.off13 == self.off23 == 0

    def __add__(self, other: "Hermitian3") -> "Hermitian3":
        return Hermitian3(
            self.d1 + other.d1,
            self.d2 + other.d2,
            self.off12 + other.off12,
            self.off13 + other.off13,
            self.off23 + other.off23,
        )

    def scaled(self, c: Scalar) -> "Hermitian3":
        return Hermitian3(c * self.d1, c * self.d2, c * self.off12, c * self.off13, c * self.off23)

    def frobenius(self) -> float:
        off = abs(complex(self.off12)) ** 2 + abs(complex(self.off13)) ** 2 + abs(complex(self.off23)) ** 2
        return math.sqrt(float(self.d1) ** 2 + float(self.d2) ** 2 + float(self.d3) ** 2 + 2 * off)


class SkewHermitian3(Frozen):
    """Trace-zero 3x3 skew-Hermitian matrix, diag = (i t1, i t2, -i(t1+t2))."""

    __slots__ = _fields = ("t1", "t2", "off12", "off13", "off23")
    t1: Scalar
    t2: Scalar
    off12: complex
    off13: complex
    off23: complex

    def __init__(self, t1: Scalar, t2: Scalar, off12: complex = 0, off13: complex = 0, off23: complex = 0):
        _set(self, "t1", t1)
        _set(self, "t2", t2)
        _set(self, "off12", off12)
        _set(self, "off13", off13)
        _set(self, "off23", off23)

    @property
    def t3(self) -> Scalar:
        return -self.t1 - self.t2

    @property
    def is_diagonal(self) -> bool:
        return self.off12 == self.off13 == self.off23 == 0


#: Cartan basis of diagonal skew-Hermitian generators.
XI1 = SkewHermitian3(0, 1)  # diag[0, i, -i]
XI2 = SkewHermitian3(-1, 0)  # diag[-i, 0, i]


def pairing(mu: Hermitian3, xi: SkewHermitian3) -> Scalar:
    """Duality pairing Im(tr(mu.xi)); bilinear in both arguments.

    Exact for diagonal arguments with exact entries.
    """
    diag = mu.d1 * xi.t1 + mu.d2 * xi.t2 + mu.d3 * xi.t3
    if mu.is_diagonal and xi.is_diagonal:
        return diag
    off = 0.0
    for m, x in ((mu.off12, xi.off12), (mu.off13, xi.off13), (mu.off23, xi.off23)):
        off += 2.0 * (complex(m).conjugate() * complex(x)).imag
    return float(diag) + off


# ---------------------------------------------------------------------------
# Roots
# ---------------------------------------------------------------------------


class Root(Enum):
    """The three root axes of A2, as sum-zero diagonal vectors."""

    ALPHA1 = (0, 1, -1)
    ALPHA2 = (-1, 0, 1)
    ALPHA3 = (1, -1, 0)

    @property
    def vector(self) -> Tuple[int, int, int]:
        return self.value

    @property
    def hermitian(self) -> Hermitian3:
        a, b, _ = self.value
        return Hermitian3(a, b)

    @property
    def label(self) -> str:
        return {"ALPHA1": "alpha1", "ALPHA2": "alpha2", "ALPHA3": "alpha3"}[self.name]


class SignedRoot(Frozen):
    """A root axis together with a sign, i.e. one of the six roots."""

    __slots__ = _fields = ("sign", "root")
    sign: int
    root: Root

    def __init__(self, sign: int, root: Root):
        _set(self, "sign", sign)
        _set(self, "root", root)


def apply_perm(v: Sequence, perm: Sequence[int]) -> tuple:
    """Coordinate permutation ``out[k] = v[perm[k]]``."""
    return tuple(map(v.__getitem__, perm))


# ---------------------------------------------------------------------------
# Eigenvalues
# ---------------------------------------------------------------------------


def spectrum(mu: Hermitian3) -> Spectrum:
    """Sorted eigenvalues of a trace-zero Hermitian matrix.

    Diagonal matrices are sorted exactly (Fractions stay Fractions).  The
    general case is one row of the closed-form kernel
    :func:`spectra_of_entries`; a NaN or infinite entry there raises
    :class:`NotHermitian`.
    """
    if mu.is_diagonal:
        return to_positive_chamber((mu.d1, mu.d2, mu.d3))[0]
    import numpy as np

    diag = np.array([[float(mu.d1), float(mu.d2), float(mu.d3)]])
    off = np.array([[complex(mu.off12), complex(mu.off13), complex(mu.off23)]])
    if not (np.isfinite(diag).all() and np.isfinite(off).all()):
        raise NotHermitian(f"matrix has a NaN or infinite entry: {mu!r}")
    l1, l2, l3 = spectra_of_entries(diag, off)[0].tolist()
    return Spectrum(l1, l2, l3)


#: Rows whose cubic angle lies this close to 0 or pi/3 have two nearly equal
#: eigenvalues; :func:`_spectra_of_invariants` splits that pair by deflation.
_NEAR_DOUBLE = 0.01

#: Bound on the absolute error of :func:`_spectra_of_invariants`, and so of
#: :func:`spectra_of_entries`, as a multiple of the largest absolute matrix
#: entry (for a weighted momentum map, of max |gamma|).  The measured worst
#: case, over uniform configurations and configurations within 1e-8 of every
#: torus-fixed one, is below 1e-14.
SPECTRA_ERROR = 1e-13


def spectra_of_entries(diag, off):
    """Sorted eigenvalues of a batch of Hermitian 3x3 matrices, closed form.

    ``diag`` is an (n, 3) real array of diagonals and ``off`` an (n, 3)
    complex array of the upper entries (12, 13, 23).  The trace is removed
    first, so the rows describe the trace-free parts and sum to zero.  The
    result is (n, 3) with rows descending, within :data:`SPECTRA_ERROR` times
    the entry scale of the true eigenvalues.

    A thin wrapper over the kernel :func:`_spectra_of_invariants`, which
    reads real invariants: the entries are reduced to their squared moduli
    and Re(o12 o23 conj(o13)), and the kernel takes the complex entries of
    the rows it deflates, those with nearly double eigenvalues, from ``off``.
    Each row is first divided by the power of two nearest above its largest
    entry and its eigenvalues multiplied back, both exactly, so no cube of
    the scale under- or overflows and a row times 2^k gives its eigenvalues
    times 2^k, bit for bit, wherever both are in range.
    """
    import numpy as np

    big = np.maximum(np.abs(diag).max(axis=1), np.maximum(np.abs(off.real), np.abs(off.imag)).max(axis=1))
    power = np.ldexp(1.0, np.frexp(big)[1])[:, None]
    diag, off = diag / power, off / power
    d = diag - ((diag[:, 0] + diag[:, 1] + diag[:, 2]) / 3.0)[:, None]
    a = off.real * off.real + off.imag * off.imag
    triple = (off[:, 0] * off[:, 2] * off[:, 1].conj()).real
    return _spectra_of_invariants(d, a[:, 0], a[:, 1], a[:, 2], triple, off.__getitem__, np.empty((len(d), 3))) * power


def _spectra_of_invariants(d, a12, a13, a23, triple, near_entries, out):
    """Sorted eigenvalues of a batch of trace-free Hermitian 3x3 matrices,
    from their real invariants: the one eigenvalue kernel of the library.

    ``d`` is the (n, 3) trace-free diagonal, ``a12``, ``a13`` and ``a23`` the
    squared moduli of the upper entries and ``triple`` Re(o12 o23 conj(o13)),
    each an (n,) array or a scalar.  ``near_entries(idx)`` gives the (k, 3)
    complex upper entries of the rows ``idx``; it is called only for the rows
    whose eigenvalues are nearly double, so a caller that holds no complex
    entries forms them for those rows alone.  The rows are written into the
    (n, 3) array ``out``, which is returned.

    Trigonometric solution of the depressed characteristic cubic
    ``u^3 + p u + q = 0`` (Smith, CACM 4(4), 1961): with r = sqrt(-p/3) the
    eigenvalues are 2 r cos(theta + 2 pi k / 3), theta = acos(-q / (2 r^3)) / 3.
    The acos argument is clamped to [-1, 1], which keeps the formula defined
    at repeated eigenvalues, and for theta in [0, pi/3] the order is k = 0,
    2, 1, so no sort is needed; the least one is taken as
    -r (cos theta + sqrt(3) sin theta).  The middle value is taken from the
    zero trace, which keeps the rows summing to zero to rounding.

    Near a double eigenvalue acos loses half the digits of the pair's gap
    (Kopp, arXiv:physics/0610206), so on those rows the isolated eigenvalue
    is kept and the pair is split by :func:`_pair_half_gap` instead.
    """
    import numpy as np

    d1, d2, d3 = d[:, 0], d[:, 1], d[:, 2]
    tr2 = d1 * d1 + d2 * d2 + d3 * d3 + 2.0 * (a12 + a13 + a23)
    det = d1 * d2 * d3 + 2.0 * triple - d1 * a23 - d2 * a13 - d3 * a12
    r = np.sqrt(tr2 / 6.0)
    arg = np.divide(det, 2.0 * r * r * r, out=np.zeros_like(r), where=r > 0.0)
    theta = np.arccos(np.clip(arg, -1.0, 1.0)) / 3.0
    top = r * np.cos(theta)
    out[:, 0] = 2.0 * top
    # 2 r cos(theta + 2 pi / 3), as a sum of two terms of one sign
    out[:, 2] = -top - SQRT3 * r * np.sin(theta)

    near = np.flatnonzero(np.minimum(theta, math.pi / 3.0 - theta) < _NEAR_DOUBLE)
    if near.size:
        # theta near 0: the bottom pair is close and the top value isolated.
        bottom_pair = theta[near] < math.pi / 6.0
        iso = np.where(bottom_pair, out[near, 0], out[near, 2])
        half_gap = _pair_half_gap(d[near], near_entries(near), iso)
        out[near, 0] = np.where(bottom_pair, iso, -0.5 * iso + half_gap)
        out[near, 2] = np.where(bottom_pair, -0.5 * iso - half_gap, iso)

    out[:, 1] = np.clip(-(out[:, 0] + out[:, 2]), out[:, 2], out[:, 0])
    return out


def _pair_half_gap(d, off, iso):
    """Half the gap between the two eigenvalues other than ``iso``.

    ``d`` (k, 3) are trace-free diagonals, ``off`` (k, 3) the upper entries
    and ``iso`` (k,) an eigenvalue well apart from the other two.  Its
    eigenvector v is the largest cross product of two rows of A - iso I.
    The pair is m +- g/2 with m = -iso/2, and g^2 / 2 is the squared
    Frobenius norm of A - m I - (iso - m) v v* / |v|^2, whose entries are
    formed without cancellation, so g keeps full absolute accuracy.
    """
    import numpy as np

    d1, d2, d3 = d[:, 0], d[:, 1], d[:, 2]
    o12, o13, o23 = off[:, 0], off[:, 1], off[:, 2]
    c12, c13, c23 = o12.conj(), o13.conj(), o23.conj()
    p1, p2, p3 = d1 - iso, d2 - iso, d3 - iso
    candidates = (
        (o12 * o23 - o13 * p2, o13 * c12 - p1 * o23, p1 * p2 - o12 * c12),
        (o12 * p3 - o13 * c23, o13 * c13 - p1 * p3, p1 * c23 - o12 * c13),
        (p2 * p3 - o23 * c23, o23 * c13 - c12 * p3, c12 * c23 - p2 * c13),
    )
    norms = [sum(abs(x) ** 2 for x in v) for v in candidates]
    best = np.argmax(np.stack(norms), axis=0)
    v1, v2, v3 = (np.choose(best, [v[k] for v in candidates]) for k in range(3))
    vv = np.choose(best, norms)
    c = np.divide(1.5 * iso, vv, out=np.zeros_like(iso), where=vv > 0.0)
    m = -0.5 * iso
    diag_sq = sum((dk - m - c * abs(vk) ** 2) ** 2 for dk, vk in ((d1, v1), (d2, v2), (d3, v3)))
    off_sq = sum(abs(o - c * vi * vj.conj()) ** 2 for o, vi, vj in ((o12, v1, v2), (o13, v1, v3), (o23, v2, v3)))
    return 0.5 * np.sqrt(2.0 * (diag_sq + 2.0 * off_sq))
