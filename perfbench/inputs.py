"""Seeded input generators for the benchmark workloads.

Every generator takes a ``random.Random`` built from the workload seed and
returns plain Python data (``Fraction`` weights, floats, argv strings), so the
same seed always gives the same inputs and the program under test sees only
the generated values.

Weights are either fixed representatives of a type or built type by type in
canonical coordinates (``g1 >= g2 >= g3``, nonnegative sum) from the region
inequalities of the taxonomy; either way they are then moved by a random
permutation, an optional global sign flip and a positive rational rescaling.  None of those moves changes the polytope type,
so each weight carries the label it was generated for; the benchmark checks
that label against the classifier during set-up.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction as F
from typing import Callable, Dict, List, Sequence, Tuple

Weight = Tuple[F, ...]

DEFAULT_SEED = 1
# Kept out of every tuning run; a later performance claim must also hold here.
HELDOUT_SEED = 7919


def _pos(rnd: random.Random) -> F:
    """Small positive rational."""
    return F(rnd.randint(1, 12), rnd.randint(1, 6))


def _unit(rnd: random.Random) -> F:
    """Rational strictly between 0 and 1."""
    q = rnd.randint(2, 7)
    return F(rnd.randint(1, q - 1), q)


def _between(rnd: random.Random, lo: F, hi: F) -> F:
    return lo + (hi - lo) * _unit(rnd)


# Canonical constructions, one per type.  Each returns (g1, g2, g3) with
# g1 >= g2 >= g3 and g1 + g2 + g3 >= 0 inside the region the label names.
def _gen_a(r):
    c, d = _pos(r), _pos(r)
    return (2 * c + d - c * _unit(r), c + d, c)  # g3 > 0, g1 < g2 + g3


def _gen_b(r):
    c, d = _pos(r), _pos(r)
    return (2 * c + d + _pos(r), c + d, c)  # g3 > 0, g1 > g2 + g3


def _gen_c(r):
    c, d = _pos(r), _pos(r)
    return (2 * c + d + _pos(r), c + d, -c)  # g2 + g3 > 0, g2 < g1 + g3


def _gen_d(r):
    c, d = _pos(r), _pos(r)
    return (2 * c + d + _pos(r), -c, -c - d)  # g2 < 0 < sum


def _gen_e(r):
    c = _pos(r)
    g2 = c * _unit(r)
    return (g2 + c + _pos(r), g2, -c)  # g2 + g3 < 0, g2 < g1 + g3


def _gen_f(r):
    c = _pos(r)
    g2 = c * _unit(r)
    return (c + g2 * _unit(r), g2, -c)  # g2 + g3 < 0 < g1 + g3, g2 > g1 + g3


def _gen_g(r):
    c = _pos(r)
    u1 = _between(r, F(1, 2), F(1))
    u2 = _between(r, 1 - u1, u1)
    return (c * u1, c * u2, -c)  # 0 < g2, g1 + g3 < 0 < sum


def _gen_h(r):
    c, d = _pos(r), _pos(r)
    return (c + d + c * _unit(r), c + d, -c)  # g2 + g3 > 0, g2 > g1 + g3


def _gen_ab(r):
    c = _pos(r)
    b = c + _pos(r)
    return (b + c, b, c)


def _gen_aa(r):
    c = _pos(r)
    a = c + _pos(r)
    return (a, a, c)


def _gen_aaa(r):
    a = _pos(r)
    return (a, a, a)


def _gen_aab(r):
    b = _pos(r)
    return (2 * b, b, b)


def _gen_bb(r):
    b = _pos(r)
    return (2 * b + _pos(r), b, b)


def _gen_ce(r):
    b = _pos(r)
    return (2 * b + _pos(r), b, -b)


def _gen_fh(r):
    b = _pos(r)
    return (b + b * _unit(r), b, -b)


def _gen_cefh(r):
    b = _pos(r)
    return (2 * b, b, -b)


def _gen_fg(r):
    b = _pos(r)
    a = b + _pos(r)
    return (a, b, -a)


def _gen_fgh(r):
    a = _pos(r)
    return (a, a, -a)


def _gen_ch(r):
    b = _pos(r)
    a = b + b * _unit(r)
    return (a, b, b - a)


def _gen_ef(r):
    b = _pos(r)
    a = 2 * b + _pos(r)
    return (a, b, b - a)


def _gen_gg(r):
    a = _pos(r)
    return (a, a, -a - a * _unit(r))  # sum stays positive


def _gen_hh(r):
    a = _pos(r)
    return (a, a, -a * _unit(r))


def _gen_dd(r):
    b = _pos(r)
    return (2 * b + _pos(r), -b, -b)


def _gen_d0(r):
    b = _pos(r)
    c = b + _pos(r)
    return (b + c, -b, -c)


def _gen_g0(r):
    b = _pos(r)
    a = b + _pos(r)
    return (a, b, -a - b)


def _gen_gg0(r):
    a = _pos(r)
    return (a, a, -2 * a)


def _gen_dd0(r):
    a = _pos(r)
    return (2 * a, -a, -a)


def _gen_gena(r):
    b = _pos(r)
    return (b + _pos(r), b)


def _gen_genb(r):
    b = _pos(r)
    return (b + _pos(r), -b)


GENERIC = ("A", "B", "C", "D", "E", "F", "G", "H")
TRANSITIONS = (
    "AB", "AA", "AAA", "AAB", "BB", "CE", "CH", "CEFH", "DD", "EF",
    "FG", "FGH", "FH", "GG", "HH", "D0", "DD0", "G0", "GG0",
)
CONSTRUCTIONS: Dict[str, Callable[[random.Random], tuple]] = {
    "A": _gen_a, "B": _gen_b, "C": _gen_c, "D": _gen_d,
    "E": _gen_e, "F": _gen_f, "G": _gen_g, "H": _gen_h,
    "AB": _gen_ab, "AA": _gen_aa, "AAA": _gen_aaa, "AAB": _gen_aab,
    "BB": _gen_bb, "CE": _gen_ce, "CH": _gen_ch, "CEFH": _gen_cefh,
    "DD": _gen_dd, "EF": _gen_ef, "FG": _gen_fg, "FGH": _gen_fgh,
    "FH": _gen_fh, "GG": _gen_gg, "HH": _gen_hh, "D0": _gen_d0,
    "DD0": _gen_dd0, "G0": _gen_g0, "GG0": _gen_gg0,
    "GenA": _gen_gena, "GenB": _gen_genb,
}


def _move(rnd: random.Random, g: Sequence[F]) -> Weight:
    """Random permutation, global sign flip, positive rescaling.

    Two-factor and zero-sum weights are never sign-flipped: the flip maps
    ``GenB`` to ``GenC`` and ``D0`` to ``G0``.
    """
    out = list(g)
    rnd.shuffle(out)
    may_flip = len(out) == 3 and sum(out) != 0
    sign = -1 if may_flip and rnd.random() < 0.5 else 1
    scale = _pos(rnd)
    return tuple(sign * scale * x for x in out)


def typed_weight(rnd: random.Random, label: str) -> Weight:
    """A weight of the given type."""
    return _move(rnd, CONSTRUCTIONS[label](rnd))


@dataclass(frozen=True)
class Labelled:
    label: str
    weight: Weight


# Representatives of the types the Monte Carlo workload checks: the eight
# generic types, transition and zero-sum types, and one two-factor weight.
# The two-factor weight is of type GenA: ``verify`` flags every sample of a
# GenB weight as a violation (the predicted segment's half-planes are wrong
# for that direction), which the benchmark's README reports rather than times.
MC_REPRESENTATIVES = {
    "A": (5, 4, 3), "B": (4, 2, 1), "C": (4, 2, -1), "D": (5, -1, -2),
    "E": (4, 1, -2), "F": (7, 4, -5), "G": (7, 6, -8), "H": (7, 5, -3),
    "AB": (3, 2, 1), "AA": (2, 2, 1), "AAA": (1, 1, 1),
    "D0": (3, -1, -2), "DD0": (4, -2, -2), "GenA": (2, 1),
}


def mc_weights(rnd: random.Random) -> List[Labelled]:
    """Seeded rescalings, permutations and sign flips of the representatives,
    in seeded order."""
    out = [Labelled(lab, _move(rnd, [F(x) for x in g])) for lab, g in MC_REPRESENTATIVES.items()]
    rnd.shuffle(out)
    return out


def atlas_weights(rnd: random.Random, count: int) -> List[Labelled]:
    """Four fifths generic weights (types cycled), one fifth on transitions."""
    out = []
    for i in range(count):
        if i % 5 == 4:
            lab = TRANSITIONS[(i // 5) % len(TRANSITIONS)]
        else:
            lab = GENERIC[(i - i // 5) % len(GENERIC)]
        out.append(Labelled(lab, typed_weight(rnd, lab)))
    rnd.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# Sweeps across one transition wall
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Sweep:
    start: Weight
    end: Weight
    steps: int
    labels: Tuple[str, ...]  # expected label at each of the steps + 1 points

    def points(self) -> List[Weight]:
        return [
            tuple(a + F(i, self.steps) * (b - a) for a, b in zip(self.start, self.end))
            for i in range(self.steps + 1)
        ]


def _wall_b_a(r):
    c = _pos(r)
    b = c + _pos(r)
    return (b + c, b, c), (1, 0, 0), c, "B", "AB", "A"


def _wall_c_h(r):
    b = _pos(r)
    a = b + b * _unit(r)
    return (a, b, b - a), (1, 0, 0), a - b, "C", "CH", "H"


def _wall_e_f(r):
    b = _pos(r)
    a = 2 * b + _pos(r)
    return (a, b, b - a), (1, 0, 0), b, "E", "EF", "F"


def _wall_f_g(r):
    b = _pos(r)
    a = b + _pos(r)
    return (a, b, -a), (0, 0, 1), min(b, a - b), "F", "FG", "G"


def _wall_c_e(r):
    b = _pos(r)
    a = 2 * b + _pos(r)
    return (a, b, -b), (0, 0, 1), min(b, a - 2 * b), "C", "CE", "E"


WALLS = (_wall_b_a, _wall_c_h, _wall_e_f, _wall_f_g, _wall_c_e)


def sweep(rnd: random.Random, wall: Callable, steps: int = 100) -> Sweep:
    """Straight path through a wall point, crossing it exactly at the middle step.

    The path moves along ``direction`` by less than ``room``, the distance to
    the next wall, so the labels read ``plus * (steps/2), wall, minus * (steps/2)``.
    """
    point, direction, room, plus, on_wall, minus = wall(rnd)
    delta = room * _unit(rnd)
    start = tuple(p + delta * d for p, d in zip(point, direction))
    end = tuple(p - delta * d for p, d in zip(point, direction))
    labels = (plus,) * (steps // 2) + (on_wall,) + (minus,) * (steps // 2)
    # Apply one common move so the whole path keeps its labels.
    perm = list(range(3))
    rnd.shuffle(perm)
    sign = -1 if rnd.random() < 0.5 else 1
    scale = _pos(rnd)
    start, end = (tuple(sign * scale * v[p] for p in perm) for v in (start, end))
    if rnd.random() < 0.5:
        start, end, labels = end, start, labels[::-1]
    return Sweep(start, end, steps, labels)


def sweeps(rnd: random.Random, count: int, steps: int = 100) -> List[Sweep]:
    return [sweep(rnd, WALLS[i % len(WALLS)], steps) for i in range(count)]


# ---------------------------------------------------------------------------
# Eigenvalue-bound targets
# ---------------------------------------------------------------------------


def mixed_lambdas(rnd: random.Random) -> Tuple[F, F, F]:
    """Three nonzero doubled eigenvalues, at least one of each sign."""
    while True:
        lams = tuple(_pos(rnd) * rnd.choice((1, -1)) for _ in range(3))
        if min(lams) < 0 < max(lams):
            return lams


def convex_target(rnd: random.Random, vertices: Sequence[Sequence[F]]) -> Tuple[Tuple[F, F, F], bool]:
    """A point of the polytope with the given vertices: a vertex one time in
    four, otherwise a random rational convex combination.  Returns the point
    and whether it is a vertex."""
    if rnd.random() < 0.25:
        return tuple(rnd.choice(vertices)), True
    coeffs = [F(rnd.randint(0, 6)) for _ in vertices]
    if sum(coeffs) == 0:
        coeffs[0] = F(1)
    total = sum(coeffs)
    point = tuple(sum(c * v[k] for c, v in zip(coeffs, vertices)) / total for k in range(3))
    return point, False


def fmt_vector(v: Sequence[F]) -> str:
    """Comma-separated exact numbers in the CLI's input syntax."""
    return ",".join(str(x) for x in v)
