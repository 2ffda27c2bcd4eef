"""Monte Carlo ground truth for the predicted polytopes.

Configurations are drawn Fubini-Study-uniformly, pushed through the weighted
momentum map and the eigenvalue map, and compared with the exact half-plane
prediction: containment violations, the inner Hausdorff deficit of the
empirical hull, and per-vertex coverage.

The spectra depend on a configuration only modulo U(3), so uniform draws are
made in a reduced frame.  The first factor is fixed at e1.  The second is put
in the (e1, e2) plane as (c, s, 0), c, s >= 0, where c^2 = |<e1, u2>|^2 of a
uniform point of CP^2 is Beta(1, 2): s^2 = sqrt(U) for a uniform U.  By
Duistermaat-Heckman (Invent. Math. 69, 1982) the moduli |z_k|^2 of a uniform
point are uniform on the simplex, independent of its phases, which are
uniform; the overall phase and the unitaries fixing e1 and u2 absorb the
phases of z_1 and z_3, so the third factor is
(sqrt t1, sqrt t2 e^{i alpha}, sqrt t3), with t cut from the simplex by the
min and max of two uniforms and alpha = 2 pi U.  A sample costs 4 uniforms
(1 with two factors) instead of 3 complex Gaussians per factor.  The
closed-form 3x3 eigenvalue kernel :func:`su3._spectra_of_invariants` (no
LAPACK call) reads real invariants of sum g_j u_j u_j^*: the trace-free
diagonal, the squared moduli of the upper entries and Re(o12 o23 conj(o13)).
:func:`_frame_spectra` forms them in closed form from the uniforms and
cos alpha alone, in float64, and forms complex entries only for the rows
whose eigenvalues are nearly double, which the kernel deflates.  The rows
differ from those of earlier versions, which drew the Gaussians, at the
same seed; their law is the same.

Sampling is block-seeded: sample ``i`` lives in block ``i // BLOCK`` with its
own generator derived from ``(seed, block)``, whose uniforms fill the block's
rows in order, so batches are bitwise reproducible, independent of how work
is partitioned, and a shorter batch is a prefix of a longer one.

Sampling, spectra and their reductions are one pass, :func:`_draw_spectra`,
on every CPU the process may use (``os.sched_getaffinity``).  A block is the
unit of seeding and an item the unit of work: an item is up to two
consecutive uniform blocks, or all of :func:`verify`'s targeted blocks, one
per anchor, together; with one worker, or with fewer than two such items
per worker, it is one block.  One :func:`_run_blocks` call runs the items: the
calling thread and one helper thread per further CPU pull item indices from
one shared iterator.  The worker that runs an item draws each block's
uniforms from the block's own generator into its reused buffer, then makes
one kernel call over the item's rows, writes only those rows of spectra and
chamber points, the points formed once as two contiguous columns, and
reduces the columns while they are in its cache.  Fewer, larger kernel calls
hand the interpreter lock between workers less often.  The calling thread
merges one small result per item, in item order.  Every step is elementwise
per row, or a reduction whose exactness holds for any set of rows, so every
output is bitwise the same at any worker count and any grouping of blocks.
The torus-fixed configurations are corners of the frame's cube of uniforms,
so a targeted block pulls its uniforms toward its anchor's corner at four
scales.

Each item keeps its hull candidates, the indices of the rows whose points
the prefilter of :func:`polytope.hull2d` keeps at the item's own scale.
They hold every vertex of the batch's hull and its largest entry, so one
``hull2d`` of the candidates is the hull of the batch:
:func:`empirical_polytope` returns it, and :func:`verify` takes the scalar
point-to-polygon distance of :mod:`polytope` from the predicted vertices to
it.  For :func:`verify` an item also keeps, per predicted vertex, its
nearest row and their squared distance, from one ``argmin`` over one
(vertices, rows) array.  The first item that reaches a vertex's least
distance gives its nearest row, as one ``argmin`` over every row would.
After the items, :func:`verify` runs :func:`_excess`, the containment
kernel of :func:`violation_distances`, on the candidate rows: they hold the
largest excess of the batch, and only when it exceeds the slack does
``_excess`` run over every row, to count the violations.  All of it runs in
the prediction's own scale: the rows are drawn at the weights over its power of two 2**e,
the one float view of its vertices and lines
(:attr:`polytope.ChamberPolytope._own_scale`), and every length is
multiplied back by 2**e.

Numpy is imported inside the functions that batch floats, not with the
module, so importing the package and running the exact pipeline never load
it.
"""

from __future__ import annotations

import math
import numbers
import os
import sys
import threading
from typing import TYPE_CHECKING, Callable, Optional, Tuple

from .moment_map import CPPoint, InvalidWeight, as_gammas
from .polytope import ChamberPolytope, _farthest, _hull_candidates, _over_power, _own_exponent, build_polytope, hull2d
from .su3 import Frozen, _set, _spectra_of_invariants, chamber_coordinates, check_tolerance, real_rows, spectra_of_entries

if TYPE_CHECKING:  # annotations only: importing the package loads no numpy
    import numpy as np

BLOCK = 1 << 14
_LINE_CHUNK = 1 << 11
_ROW, _COL = [0, 0, 1], [1, 2, 2]  # upper entries 12, 13, 23
#: Each anchor's torus-fixed configuration as a corner of the frame's
#: uniforms (U0, U1, U2) of :func:`_frame_spectra`, keyed as the anchor
#: table: U0 = 0 puts u2 at e1, U0 = 1 at e2, and (U1, U2) = (1, 1), (0, 1)
#: and (0, 0) put u3 at e1, e2 and e3.
_CORNERS = {"a": (0, 1, 1), "b": (1, 0, 0), "c1": (1, 0, 1), "c2": (1, 1, 1), "c3": (0, 0, 0)}
_CORNERS_N2 = {"a": (0,), "c": (1,)}
#: The draws of :func:`verify` per (anchor, scale) pair, pulled toward the
#: anchor's corner.
_TARGETED = 500


class PredictionUnavailable(ValueError):
    """No predicted polytope exists for the requested weights."""


class InvalidCount(ValueError):
    """A sample count that is not an integer of at least the required size."""


class InvalidSeed(ValueError):
    """A seed that is not an integer >= 0."""


def _checked_integer(value, least: int, error: type = InvalidCount, name: str = "count") -> int:
    """``value`` as an int, or ``error`` naming it when it is a bool, no
    ``numbers.Integral`` or below ``least``."""
    if type(value) is bool or not isinstance(value, numbers.Integral) or value < least:
        raise error(f"{name} {value!r} is not an integer >= {least}")
    return int(value)


def _rng_for_block(seed: int, block: int) -> np.random.Generator:
    import numpy as np

    return np.random.default_rng([int(seed), int(block)])


def sample_cp2(rng: np.random.Generator) -> CPPoint:
    """One Fubini-Study-uniform point of CP^2."""
    z = rng.standard_normal((3, 2))
    vec = z[:, 0] + 1j * z[:, 1]
    return CPPoint.of(*vec)


def _worker_count() -> int:
    """The number of CPUs this process may run on."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _run_blocks(n_items: int, buffer_size: int, work: Callable) -> None:
    """Run ``work(item, buf)`` for every work item in ``range(n_items)``.

    The workers are the calling thread and up to W - 1 helper threads, W
    being :func:`_worker_count` capped at ``n_items``.  Each worker owns one
    flat float buffer of ``buffer_size``, reused for every item it runs, and
    takes the next item index from one shared iterator.  ``work`` must
    depend only on the item (its blocks' own seeded generators) and write
    only that item's rows and its own result, so the result is bitwise the
    same at every W.  The first error stops the items not yet started; every
    helper is joined before it is raised again here.  Helpers run only
    private functions and the :mod:`su3` kernels, none of the public oracle
    and polytope functions a tracer may wrap: an item's reduction calls
    :func:`polytope._hull_candidates`, never :func:`polytope.hull2d`.
    """
    import numpy as np

    items = iter(range(n_items))
    lock = threading.Lock()
    errors = []

    def drain():
        try:
            buf = np.empty(buffer_size)
            while not errors:
                with lock:
                    item = next(items, None)
                if item is None:
                    return
                work(item, buf)
        except BaseException as exc:  # raised again in the caller, after every join
            errors.append(exc)

    helpers = []
    for _ in range(min(_worker_count(), n_items) - 1):
        helper = threading.Thread(target=drain, daemon=True)
        try:
            helper.start()
        except RuntimeError:  # no thread to spare: fewer workers give the same rows
            break
        helpers.append(helper)
    drain()
    for helper in helpers:
        helper.join()
    if errors:
        raise errors[0]


def _float_weights(gammas) -> Tuple[Tuple[float, ...], float]:
    """Weights that :func:`moment_map.as_gammas` has read, as floats, and
    ``power``, the power of two nearest max |gamma|: spectra are homogeneous
    of degree 1 in the weights and the eigenvalue kernel forms cubic terms,
    so it runs on ``floats / power`` (an exact division) and its rows are
    multiplied back.  Every spectrum entry is at most (2/3) sum |gamma_j| in
    size and every chamber coordinate at most 2 sum |gamma_j|, so that bound
    must be a finite float; otherwise :class:`moment_map.InvalidWeight` names
    the weight, where the sampler would give an ``OverflowError`` or NaN rows.
    """
    for k, g in enumerate(gammas):
        if abs(g) > sys.float_info.max:
            raise InvalidWeight(f"weight {k} is beyond float range; its spectra cannot be sampled")
    floats = tuple(float(g) for g in gammas)
    if not math.isfinite(2.0 * sum(abs(g) for g in floats)):
        raise InvalidWeight(f"weights {floats} give spectra beyond float range")
    return floats, math.ldexp(1.0, math.frexp(max(abs(g) for g in floats))[1])


def spectra_of_configurations(z: np.ndarray, gammas) -> np.ndarray:
    """Sorted momentum-map spectra of an array of configurations.

    ``z`` has shape (n, N, 3), each factor a nonzero vector that need not be
    a unit one; the result is (n, 3) with rows descending.  The momentum map
    is projective, so factor j enters as ``g_j z_j z_j^* / |z_j|^2``: the
    six independent entries of that sum are formed from ``z`` with the
    weights ``g_j / |z_j|^2``, ``BLOCK`` rows at a time so that the
    temporaries stay small, and handed to the closed-form eigenvalue kernel
    :func:`su3.spectra_of_entries`; no unit vector and no (n, 3, 3) matrix
    is built.
    """
    import numpy as np

    floats, power = _float_weights(as_gammas(gammas))
    gs = np.array(floats) / power
    out = np.empty((z.shape[0], 3))
    for start in range(0, z.shape[0], BLOCK):
        zc = z[start : start + BLOCK]
        sq = zc.real * zc.real + zc.imag * zc.imag
        w = gs / (sq[:, :, 0] + sq[:, :, 1] + sq[:, :, 2])  # g_j / |z_j|^2
        diag = np.einsum("cj,cjk->ck", w, sq)
        wzbar = zc.conj()
        wzbar *= w[:, :, None]
        off = np.empty((len(zc), 3), dtype=complex)
        for k, (a, b) in enumerate(zip(_ROW, _COL)):
            off[:, k] = np.einsum("cj,cj->c", zc[:, :, a], wzbar[:, :, b])
        out[start : start + len(zc)] = spectra_of_entries(diag, off)
    if power != 1.0:
        out *= power
    return out


def _frame_spectra(u: np.ndarray, gs: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Spectra at the weights ``gs`` of the reduced-frame configurations of
    the uniforms ``u``, written into ``out``.

    ``u`` is (n, 4) for three factors and (n, 1) for two.  Column 0 gives
    s^2 = sqrt(U) and c^2 = 1 - s^2 of u2 = (c, s, 0); for three factors
    columns 1 and 2 cut the simplex point t = (lo, hi - lo, 1 - hi) of
    u3 = (sqrt t1, sqrt t2 e^{i alpha}, sqrt t3) and column 3 gives
    alpha = 2 pi U; u1 = e1.

    The kernel :func:`su3._spectra_of_invariants` reads real invariants of
    g1 e1 e1^* + g2 u2 u2^* + g3 u3 u3^*, formed here in float64 from the
    uniforms and cos alpha alone.  With x = g2 c s and r12 = g3 sqrt(t1 t2)
    the entries are o12 = x + r12 e^{-i alpha}, o13 = g3 sqrt(t1 t3) and
    o23 = g3 sqrt(t2 t3) e^{i alpha}, so |o12|^2 = x^2 + 2 x r12 cos alpha +
    r12^2, |o13|^2 = g3^2 t1 t3, |o23|^2 = g3^2 t2 t3 and Re(o12 o23
    conj(o13)) = g3 t3 r12 (x cos alpha + r12).  The diagonal is made
    trace-free by subtracting the mean weight.  The complex entries, and
    sin alpha, are formed only for the rows the kernel deflates, whose
    eigenvalues are nearly double.
    """
    import numpy as np

    g1, g2 = gs[0], gs[1]
    g3 = gs[2] if len(gs) == 3 else 0.0
    mean = (g1 + g2 + g3) / 3.0
    s2 = np.sqrt(u[:, 0])
    c2 = 1.0 - s2
    x = np.sqrt(c2 * s2)
    x *= g2
    d = np.empty((3, len(u)))  # the trace-free diagonal, one row per entry; the kernel reads d.T
    np.multiply(c2, g2, out=d[0])
    d[0] += g1 - mean
    np.multiply(s2, g2, out=d[1])
    d[1] -= mean
    d[2] = -mean
    if len(gs) == 2:

        def near_entries(idx):
            off = np.zeros((len(idx), 3), dtype=complex)
            off.real[:, 0] = x[idx]
            return off

        return _spectra_of_invariants(d.T, x * x, 0.0, 0.0, 0.0, near_entries, out)

    lo = np.minimum(u[:, 1], u[:, 2])
    t2 = np.maximum(u[:, 1], u[:, 2])
    t3 = 1.0 - t2
    t2 -= lo
    # cos(2 pi U) as sin(pi (|2U - 1| - 1/2)): the same value, from an exact
    # argument within pi/2 of 0, where sin costs least
    cos = np.abs(2.0 * u[:, 3] - 1.0)
    cos -= 0.5
    cos *= math.pi
    np.sin(cos, out=cos)
    r12 = np.sqrt(lo * t2)
    r12 *= g3
    g3t3 = g3 * t3
    d[0] += g3 * lo
    d[1] += g3 * t2
    d[2] += g3t3
    q = x * cos
    q += r12  # x cos alpha + r12
    a12 = q + q
    a12 -= r12
    a12 *= r12
    a12 += x * x  # x^2 + r12 (2 x cos alpha + r12)
    a13 = g3t3 * lo
    a13 *= g3
    a23 = g3t3 * t2
    a23 *= g3
    q *= r12
    q *= g3t3

    def near_entries(idx):
        sin = np.sin(u[idx, 3] * (2.0 * math.pi))
        off = np.empty((len(idx), 3), dtype=complex)
        off.real[:, 0] = x[idx] + r12[idx] * cos[idx]
        off.imag[:, 0] = -r12[idx] * sin
        off.real[:, 1] = g3 * np.sqrt(lo[idx] * t3[idx])
        off.imag[:, 1] = 0.0
        r23 = g3 * np.sqrt(t2[idx] * t3[idx])
        off.real[:, 2] = r23 * cos[idx]
        off.imag[:, 2] = r23 * sin
        return off

    return _spectra_of_invariants(d.T, a12, a13, a23, q, near_entries, out)


def chamber_points_of_spectra(spectra: np.ndarray) -> np.ndarray:
    """(n, 2) isometric chamber coordinates of sorted spectra rows; spectra
    that are not (n, 3) real numbers are refused as by :func:`su3.real_rows`."""
    import numpy as np

    spectra = real_rows(spectra, 3, "spectra")
    return np.stack(chamber_coordinates(spectra[:, 0], spectra[:, 1], spectra[:, 2]), axis=1)


class SampleBatch(Frozen):
    """Reproducible batch of momentum-map spectra.  Batches compare and hash
    by the seed, the count and each array's shape, dtype and bytes."""

    __slots__ = _fields = ("seed", "count", "spectra", "chamber_points")
    seed: int
    count: int
    spectra: np.ndarray  # (count, 3), rows sorted descending, sum ~ 0
    chamber_points: np.ndarray  # (count, 2)

    def __init__(self, seed: int, count: int, spectra: np.ndarray, chamber_points: np.ndarray):
        _set(self, "seed", seed)
        _set(self, "count", count)
        _set(self, "spectra", spectra)
        _set(self, "chamber_points", chamber_points)

    def _values(self) -> tuple:
        import numpy as np

        return (self.seed, self.count) + tuple((a.shape, a.dtype.str, a.tobytes()) for a in map(np.asarray, (self.spectra, self.chamber_points)))

    def csv_rows(self):
        for lam, pq in zip(self.spectra, self.chamber_points):
            yield (lam[0], lam[1], lam[2], pq[0], pq[1])


def _draw_spectra(floats: Tuple[float, ...], power: float, count: int, seed: int, targeted: int = 0, reduce: Optional[Callable] = None):
    """``(spectra, points, reduced)``: the spectra and chamber points of
    ``count`` uniform draws, then of ``targeted`` draws per (anchor, scale)
    pair, and per work item, in item order, ``reduce(start, p, q)`` of the
    chamber columns p and q of the item's rows from row ``start`` (None
    without ``reduce``), all in one :func:`_run_blocks` call.

    Block ``b < ceil(count / BLOCK)`` is uniform, from generator
    ``(seed, b)``; a partial last block is the prefix of the full one, as
    ``random`` fills in order.  Each later block is one anchor ``idx`` of
    :data:`_CORNERS` (:data:`_CORNERS_N2`), from generator
    ``(seed, 1_000_003 + idx)``: its k-th ``targeted`` rows have their first
    3 uniforms (1) pulled to ``corner + scales[k] (u - corner)``.  Uniform
    draws reach the polytope vertices slowly, these cover the anchor images
    quickly, and all are genuine momentum-map images, so they may be pooled.
    The pulls shrink fast because s^2 = sqrt(U0) moves as the fourth root
    of a pull toward U0 = 0.

    An item is two consecutive uniform blocks (the last one may be alone)
    or every targeted block, whose rows are consecutive too, when there are
    at least two such items per worker.  Otherwise every block is an item
    of its own: with fewer items than that, a worker running a pair could
    finish well after the others, which would share the single blocks; and
    one worker hands no lock over, while on a 2-vCPU x86-64 host its paired
    32,768-row temporaries made a repeated ``verify`` about a fifth slower,
    from pages the allocator gives back and faults in again.  Pairs were
    measured at 2 workers only, on ``verify`` of 100,000 rows (5 items) and
    ``empirical_polytope`` of 1e6 (31 items).  The worker that runs an item draws each block's
    4 uniforms per row (1 with two factors) into its own rows of the
    worker's buffer, by one ``random`` call on the block's generator, then
    reads the whole item by one :func:`_frame_spectra` call.  The kernel
    runs at ``floats / power`` (an exact division) and the rows are
    multiplied back by ``power``; :func:`verify` passes its weights over its
    prediction's 2**e and power 1, so its rows stay in the prediction's own
    scale.  The worker then forms the item's chamber columns once, as two
    contiguous arrays, writes them into ``points`` and runs ``reduce`` on
    them, while the rows are in its cache; ``reduce`` must call only private
    functions, as :func:`_run_blocks` requires.
    """
    import numpy as np

    scales = np.array([0.5, 1e-3, 1e-6, 1e-9])[:, None, None]
    corners = list((_CORNERS if len(floats) == 3 else _CORNERS_N2).values()) if targeted else []
    gs = np.array(floats) / power
    width = 4 if len(floats) == 3 else 1  # uniforms per row
    near = len(scales) * targeted  # rows per anchor
    uniform = -(-count // BLOCK)
    spectra = np.empty((count + len(corners) * near, 3))
    points = np.empty((len(spectra), 2))
    blocks = range(uniform + len(corners))
    starts = [b * BLOCK for b in range(uniform)] + [count + idx * near for idx in range(len(corners) + 1)]  # block b: rows starts[b]:starts[b + 1]
    if 1 < _worker_count() <= (-(-uniform // 2) + bool(corners)) // 2:
        items = [blocks[b : min(b + 2, uniform)] for b in range(0, uniform, 2)] + ([blocks[uniform:]] if corners else [])
    else:
        items = [blocks[b : b + 1] for b in blocks]
    reduced = [None] * len(items)

    def draw(item, buf):
        start, stop = starts[items[item][0]], starts[items[item][-1] + 1]
        u = buf[: (stop - start) * width].reshape(stop - start, width)
        for block in items[item]:
            idx = block - uniform
            part = u[starts[block] - start : starts[block + 1] - start]
            _rng_for_block(seed, block if idx < 0 else 1_000_003 + idx).random(out=part)
            if idx >= 0:
                pulled = part.reshape(len(scales), targeted, width)[:, :, : len(corners[idx])]
                pulled -= corners[idx]
                pulled *= scales
                pulled += corners[idx]
        rows = _frame_spectra(u, gs, spectra[start:stop])
        if power != 1.0:
            rows *= power
        p, q = chamber_coordinates(rows[:, 0], rows[:, 1], rows[:, 2])
        points[start:stop, 0], points[start:stop, 1] = p, q
        if reduce is not None:
            reduced[item] = reduce(start, p, q)

    _run_blocks(len(items), max((starts[r[-1] + 1] - starts[r[0]] for r in items), default=0) * width, draw)
    return spectra, points, reduced


def sample_batch(w, count: int, seed: int) -> SampleBatch:
    """``count`` uniform samples of the weights' momentum-map spectra.

    Raises :class:`moment_map.InvalidWeight` before drawing anything when
    the spectra would leave float range, :class:`InvalidCount` for a
    count and :class:`InvalidSeed` for a seed that is not an integer >= 0
    (a bool is none).  The rows are those of :func:`_draw_spectra` with no
    targeted draws: reduced-frame uniform draws, which differ from the
    Gaussian draws of earlier versions at the same seed.
    """
    count = _checked_integer(count, 0)
    seed = _checked_integer(seed, 0, InvalidSeed, "seed")
    spectra, points, _ = _draw_spectra(*_float_weights(as_gammas(w)), count, seed)
    return SampleBatch(seed, count, spectra, points)


def empirical_polytope(w, count: int, seed: int) -> Tuple[SampleBatch, ChamberPolytope]:
    """Uniform batch plus the convex hull of its chamber image.

    The hull is an inner approximation of the true momentum polytope.  It
    is :func:`polytope.hull2d` of the batch's chamber points, taken on the
    points each work item keeps as hull candidates.  The count, the seed and
    the weights are checked as by :func:`sample_batch`, but the count must
    be positive.
    """
    import numpy as np

    count = _checked_integer(count, 1)
    seed = _checked_integer(seed, 0, InvalidSeed, "seed")
    spectra, points, kept = _draw_spectra(*_float_weights(as_gammas(w)), count, seed, reduce=lambda start, p, q: start + _hull_candidates(p, q, start)[0])
    return SampleBatch(seed, count, spectra, points), hull2d(points.take(np.concatenate(kept), axis=0))


class VerificationReport(Frozen):
    """Outcome of checking samples against the predicted polytope;
    ``n_samples`` counts the uniform draws plus the targeted ones."""

    __slots__ = _fields = ("label", "seed", "n_samples", "n_violations", "max_violation", "hausdorff_inner", "vertex_coverage", "diameter", "tolerance")
    label: Optional[str]
    seed: int
    n_samples: int
    n_violations: int
    max_violation: float
    hausdorff_inner: float
    vertex_coverage: Tuple[float, ...]
    diameter: float
    tolerance: float

    def __init__(self, label: Optional[str], seed: int, n_samples: int, n_violations: int, max_violation: float, hausdorff_inner: float, vertex_coverage: Tuple[float, ...], diameter: float, tolerance: float):
        _set(self, "label", label)
        _set(self, "seed", seed)
        _set(self, "n_samples", n_samples)
        _set(self, "n_violations", n_violations)
        _set(self, "max_violation", max_violation)
        _set(self, "hausdorff_inner", hausdorff_inner)
        _set(self, "vertex_coverage", vertex_coverage)
        _set(self, "diameter", diameter)
        _set(self, "tolerance", tolerance)

    @property
    def ok(self) -> bool:
        return self.n_violations == 0

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "seed": self.seed,
            "n_samples": self.n_samples,
            "n_violations": self.n_violations,
            "max_violation": self.max_violation,
            "hausdorff_inner": self.hausdorff_inner,
            "vertex_coverage": list(self.vertex_coverage),
            "diameter": self.diameter,
            "tolerance": self.tolerance,
        }


def _line_arrays(P: ChamberPolytope) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The float normals of ``P``'s lines as a (lines, 3) array, and offsets
    and norms as (lines, 1) columns in ``P``'s own scale, for :func:`_excess`."""
    import numpy as np

    rows = P._own_lines
    normals = np.array([normal for normal, *_ in rows])
    offsets = np.array([[offset] for _, offset, *_ in rows])
    return normals, offsets, np.linalg.norm(normals, axis=1)[:, None]


def _excess(lines: Tuple[np.ndarray, np.ndarray, np.ndarray], spectra: np.ndarray) -> np.ndarray:
    """Each row's distance outside the half-planes ``lines`` of
    :func:`_line_arrays` (0 inside), from one (lines, rows) array per
    ``_LINE_CHUNK`` rows.  Each entry has the same bits as in one product
    over every row.  OpenBLAS runs a product of at most 65,536 x 4
    multiply-adds on the calling thread by default, and a predicted
    polytope has at most a dozen lines (2,048 x 3 x 12 = 73,728), so
    :func:`verify` wakes no BLAS threads, which would compete with the
    sampler's workers for the CPUs.  A row on a line reads +0.0, never
    -0.0.
    """
    import numpy as np

    normals, offsets, units = lines
    least = np.empty(len(spectra))
    for start in range(0, len(spectra), _LINE_CHUNK):
        signed = normals @ spectra[start : start + _LINE_CHUNK].T
        signed -= offsets
        signed /= units
        signed.min(axis=0, out=least[start : start + _LINE_CHUNK])
    # 0 - x, unlike -x, is +0.0 at x = 0
    return np.maximum(np.subtract(0.0, least, out=least), 0.0, out=least)


def violation_distances(P: ChamberPolytope, spectra: np.ndarray) -> np.ndarray:
    """Per-sample distance outside the polytope (0 inside), from one
    (lines, n) array in ``P``'s own scale 2**e, multiplied back.  Spectra
    that are not (n, 3) real numbers are refused as by :func:`su3.real_rows`,
    and a row that is not finite raises :class:`moment_map.InvalidWeight`
    naming it."""
    import numpy as np

    e = _own_exponent(P, "P")
    spectra = real_rows(spectra, 3, "spectra")
    finite = np.isfinite(spectra).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        raise InvalidWeight(f"spectra row {i} {spectra[i].tolist()} is not finite")
    return np.ldexp(_excess(_line_arrays(P), np.ldexp(spectra, -e)), e)


def verify(w, count: int, seed: int, tol: float = 1e-6) -> VerificationReport:
    """Sample, then report violations, hull deficit and vertex coverage.

    A sample counts as a violation when it falls outside the predicted
    polytope by more than ``tol`` times the polytope diameter, or ``tol``
    times max|gamma| when the prediction is a point; the slack has no
    absolute floor, so it scales with the weights.  The computed spectra lie
    within ``su3.SPECTRA_ERROR * max|gamma|`` = 1e-13 max|gamma| of the true
    ones, below that slack whenever the diameter exceeds ``1e-13 / tol``
    times max|gamma| (1e-7 at the default ``tol``; every fixture of the test
    suite has a diameter of at least 0.7 max|gamma|), so there a violation is
    never an artefact of the eigenvalue computation.  :data:`_TARGETED`
    adds 500 draws per (anchor, scale) pair, uniforms pulled toward the
    corner of the torus-fixed configuration, which drive the coverage
    distances of the anchor vertices to zero much faster than uniform
    sampling.  Every argument is checked before anything is drawn: a count
    that is not a positive integer raises :class:`InvalidCount`, a seed that
    is not an integer >= 0 :class:`InvalidSeed`, and a ``tol`` that
    :func:`su3.check_tolerance` refuses raises its error.  The weights are
    checked for sampling once, the prediction is built once at the weights
    as given, and one pass of :func:`_draw_spectra` draws the rows in the
    prediction's own scale and reduces them (see the module docstring).

    Containment is checked on the hull candidates, the rows that the
    prefilter of :func:`polytope.hull2d` keeps in each work item.  A row's
    excess, its distance outside the predicted half-planes, is the larger of
    0 and its largest signed distance beyond a line.  Each such distance is
    affine in the row's chamber point (unit, sum-zero normals), so the
    excess is convex in it, as the polytope itself is (Kirwan, Invent. Math.
    77, 1984).  A row the prefilter drops lies inside its item's prefilter
    polygon, whose corners are candidates, by delta >= 1e-9 scale**2 / edge
    >= 3.5e-10 scale, with scale the item's largest absolute entry and
    every edge at most 2 sqrt(2) scale long.  So its distance beyond each
    line is at least delta below the candidates' largest, and its excess is
    0 or more than delta below theirs, far above the rounding of either.
    The largest excess over the candidates is therefore the largest over
    every row, bit for bit.  When it is at most the slack no row is a
    violation; otherwise :func:`_excess` runs over every row to count them.
    """
    import numpy as np

    count = _checked_integer(count, 1)
    seed = _checked_integer(seed, 0, InvalidSeed, "seed")
    check_tolerance(tol)
    try:
        gammas = as_gammas(w)
    except ValueError as exc:
        raise PredictionUnavailable(str(exc)) from exc
    floats, _ = _float_weights(gammas)
    try:
        predicted = build_polytope(gammas)
    except ValueError as exc:
        raise PredictionUnavailable(str(exc)) from exc

    e, corners, diam, _ = predicted._own_scale
    slack = tol * (diam if diam > 0 else math.ldexp(max(abs(g) for g in floats), -e))
    vertices = np.array(corners)
    each = np.arange(len(corners))

    def check(start, p, q):
        # (vertices, rows) squared distances
        d2 = np.square(p - vertices[:, :1])
        d2 += np.square(q - vertices[:, 1:])
        nearest = d2.argmin(axis=1)
        return start + _hull_candidates(p, q, start)[0], d2[each, nearest], start + nearest

    spectra, points, items = _draw_spectra(tuple(math.ldexp(g, -e) for g in floats), 1.0, count, seed, _TARGETED, check)
    kept, least, rows = zip(*items)
    kept = np.concatenate(kept)
    lines = _line_arrays(predicted)
    excess = _excess(lines, spectra.take(kept, axis=0))
    if excess.max() > slack:  # a violation: count every row
        excess = _excess(lines, spectra)
    deficit = _farthest(corners, [(c.p, c.q) for c in hull2d(points.take(kept, axis=0)).pq_vertices()])
    # each vertex's nearest row, from the first item with its least distance
    nearest = points[np.array(rows)[np.argmin(least, axis=0), each]]
    coverage = np.hypot(nearest[:, 0] - vertices[:, 0], nearest[:, 1] - vertices[:, 1])

    return VerificationReport(
        label=predicted.label,
        seed=seed,
        n_samples=len(spectra),
        n_violations=int(np.count_nonzero(excess > slack)),
        max_violation=_over_power(float(excess.max()), -e),
        hausdorff_inner=_over_power(deficit, -e),
        vertex_coverage=tuple(_over_power(float(d), -e) for d in coverage),
        diameter=predicted.diameter(),
        tolerance=tol,
    )
