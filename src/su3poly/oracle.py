"""Monte Carlo ground truth for the predicted polytopes.

Configurations are drawn Fubini-Study-uniformly (complex Gaussian vectors,
whose distribution is unitarily invariant, read as points of CP^2), pushed
through the weighted momentum map and the eigenvalue map, and compared with
the exact half-plane prediction: containment violations, the inner Hausdorff
deficit of the empirical hull, and per-vertex coverage.

Sampling is block-seeded: sample ``i`` lives in block ``i // BLOCK`` with its
own generator derived from ``(seed, block)``, so batches are bitwise
reproducible and independent of how work is partitioned.

Sampling and spectra are one pass, :func:`_draw_spectra`: one
:func:`_run_blocks` call over the uniform blocks and, for :func:`verify`, one
more block per (torus-fixed configuration, scale) pair, on every CPU the
process may use (``os.sched_getaffinity``): the calling thread and one helper
thread per further CPU pull block indices from one shared iterator, and each
block writes only its own rows, so the rows are bitwise the same at any
worker count.  Each worker draws its blocks' Gaussians into one reused float
buffer, read through its complex view, so no array of unit vectors is ever
built: the momentum map is projective (``z z^* / |z|^2`` does not change when
``z`` is rescaled), so
:func:`spectra_of_configurations` weights each factor by ``g_j / |z_j|^2``
instead of normalising it.  It sums the six independent entries of each
momentum-map matrix in cache-sized chunks and hands them to the closed-form
3x3 eigenvalue kernel of :mod:`su3` (no LAPACK call), writing each block's
rows straight into the batch.  Containment forms one (half-planes, n) array,
coverage one (vertices, n) array, and the hull deficit is the scalar
point-to-polygon distance of :mod:`polytope` from the predicted vertices to
:func:`polytope.hull2d`'s distance-tolerance quickhull, whose vertices do not
depend on the points inside the hull.

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
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Optional, Tuple

from .moment_map import CPPoint, FIXED_CONFIGURATIONS, FIXED_CONFIGURATIONS_N2, InvalidWeight, as_gammas
from .polytope import ChamberPolytope, _distances, _float_lines, _pq_array, build_polytope, hull2d
from .su3 import Frozen, _set, chamber_coordinates, check_tolerance, is_exact, spectra_of_entries

if TYPE_CHECKING:  # annotations only: importing the package loads no numpy
    import numpy as np

BLOCK = 1 << 14
_ROW, _COL = [0, 0, 1], [1, 2, 2]  # upper entries 12, 13, 23
_CHUNK = 2048  # rows per spectra chunk


class PredictionUnavailable(ValueError):
    """No predicted polytope exists for the requested weights."""


class InvalidCount(ValueError):
    """A sample count that is not an integer of at least the required size."""


def _checked_count(count, least: int) -> int:
    if type(count) is bool or not isinstance(count, numbers.Integral) or count < least:
        raise InvalidCount(f"count {count!r} is not an integer >= {least}")
    return int(count)


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


def _run_blocks(n_blocks: int, buffer_shape, work: Callable) -> None:
    """Run ``work(block, buf)`` for every block in ``range(n_blocks)``.

    The workers are the calling thread and up to W - 1 helper threads, W
    being :func:`_worker_count` capped at ``n_blocks``.  Each worker owns one
    float buffer of ``buffer_shape``, reused for every block it runs, and
    takes the next block index from one shared iterator.  ``work`` must
    depend only on the block (its own seeded generator) and write only that
    block's rows, so the result is bitwise the same at every W.  The first
    error stops the blocks not yet started; every helper is joined before
    it is raised again here.  Helpers run only private functions, none of
    the public ones a tracer may wrap.
    """
    import numpy as np

    blocks = iter(range(n_blocks))
    lock = threading.Lock()
    errors = []

    def drain():
        try:
            buf = np.empty(buffer_shape)
            while not errors:
                with lock:
                    block = next(blocks, None)
                if block is None:
                    return
                work(block, buf)
        except BaseException as exc:  # raised again in the caller, after every join
            errors.append(exc)

    helpers = []
    for _ in range(min(_worker_count(), n_blocks) - 1):
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


def spectra_of_configurations(z: np.ndarray, gammas, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Sorted momentum-map spectra of an array of configurations.

    ``z`` has shape (n, N, 3), each factor a nonzero vector that need not be
    a unit one; the result is (n, 3) with rows descending, written into
    ``out`` when given.  The momentum map is projective, so factor j enters
    as ``g_j z_j z_j^* / |z_j|^2``: the six independent entries of that sum
    are formed from ``z`` with the weights ``g_j / |z_j|^2`` and handed to
    the closed-form eigenvalue kernel :func:`su3.spectra_of_entries`; no unit
    vector and no (n, 3, 3) matrix is built.  Rows are processed in chunks
    small enough for the temporaries to stay in cache.
    """
    import numpy as np

    return _spectra_rows(z, *_float_weights(as_gammas(gammas)), np.empty((z.shape[0], 3)) if out is None else out)


def _spectra_rows(z: np.ndarray, floats: Tuple[float, ...], power: float, out: np.ndarray) -> np.ndarray:
    """The kernel of :func:`spectra_of_configurations` on the weights and
    power of :func:`_float_weights`; the sampler's workers call it directly."""
    import numpy as np

    gs = np.array(floats) / power
    for start in range(0, z.shape[0], _CHUNK):
        zc = z[start : start + _CHUNK]
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


def chamber_points_of_spectra(spectra: np.ndarray) -> np.ndarray:
    """(n, 2) isometric chamber coordinates of sorted spectra rows."""
    import numpy as np

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


def _draw_spectra(floats: Tuple[float, ...], power: float, count: int, seed: int, targeted: int = 0) -> np.ndarray:
    """Spectra of ``count`` uniform draws, then of ``targeted`` draws per
    (torus-fixed configuration, scale) pair, in one :func:`_run_blocks` call.

    Block ``b < ceil(count / BLOCK)`` is uniform, from generator ``(seed, b)``;
    a partial last block is the prefix of the full one, as ``standard_normal``
    fills in order.  Each later block perturbs fixed configuration ``idx`` by
    Gaussians of ``scales[k]`` from generator ``(seed, 1_000_003 + 31 idx + k)``:
    uniform draws reach the polytope vertices slowly, these cover them quickly,
    and all are genuine momentum-map images, so they may be pooled.
    """
    import numpy as np

    scales = (0.5, 0.1, 0.02, 0.004)
    configs = FIXED_CONFIGURATIONS if len(floats) == 3 else FIXED_CONFIGURATIONS_N2
    bases = [np.array([list(p.coords) for p in configs[config]]) for config in sorted(configs)] if targeted else []  # each (N, 3)
    uniform = -(-count // BLOCK)
    out = np.empty((count + len(bases) * len(scales) * targeted, 3))

    def draw(block, buf):
        near = block - uniform  # the (configuration, scale) pair of a targeted block
        if near < 0:
            start, rows, stream = block * BLOCK, min(BLOCK, count - block * BLOCK), block
        else:
            idx, k = divmod(near, len(scales))
            start, rows, stream = count + near * targeted, targeted, 1_000_003 + idx * 31 + k
        part = buf[:rows]
        _rng_for_block(seed, stream).standard_normal(out=part)
        z = part.view(complex)[..., 0]
        if near >= 0:
            z *= scales[k]
            z += bases[idx]
        _spectra_rows(z, floats, power, out[start : start + rows])

    _run_blocks(uniform + len(bases) * len(scales), (max(min(BLOCK, count), targeted), len(floats), 3, 2), draw)
    return out


def sample_batch(w, count: int, seed: int) -> SampleBatch:
    """``count`` uniform samples of the weights' momentum-map spectra.

    Raises :class:`moment_map.InvalidWeight` before drawing anything when
    the spectra would leave float range, and :class:`InvalidCount` for a
    count that is not an integer >= 0.  The rows are those of
    :func:`_draw_spectra` with no targeted draws.
    """
    count = _checked_count(count, 0)
    spectra = _draw_spectra(*_float_weights(as_gammas(w)), count, seed)
    return SampleBatch(seed, count, spectra, chamber_points_of_spectra(spectra))


def empirical_polytope(w, count: int, seed: int) -> Tuple[SampleBatch, ChamberPolytope]:
    """Uniform batch plus the convex hull of its chamber image.

    The hull is an inner approximation of the true momentum polytope.
    """
    batch = sample_batch(w, _checked_count(count, 1), seed)
    return batch, hull2d(batch.chamber_points)


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


def violation_distances(P: ChamberPolytope, spectra: np.ndarray) -> np.ndarray:
    """Per-sample distance outside the polytope (0 inside), from one (lines, n) array."""
    import numpy as np

    rows = _float_lines(P)
    normals = np.array([normal for normal, _ in rows])
    offsets = np.array([offset for _, offset in rows])
    units = np.linalg.norm(normals, axis=1)
    signed = normals @ spectra.T
    signed -= offsets[:, None]
    signed /= units[:, None]
    return np.maximum(0.0, -signed.min(axis=0))


def verify(w, count: int, seed: int, tol: float = 1e-6, targeted: int = 500) -> VerificationReport:
    """Sample, then report violations, hull deficit and vertex coverage.

    A sample counts as a violation when it falls outside the predicted
    polytope by more than ``tol`` times the polytope diameter, or ``tol``
    times max|gamma| when the prediction is a point; the slack has no
    absolute floor, so it scales with the weights.  The computed spectra lie
    within ``su3.SPECTRA_ERROR * max|gamma|`` = 1e-13 max|gamma| of the true
    ones, below that slack whenever the diameter exceeds ``1e-13 / tol``
    times max|gamma| (1e-7 at the default ``tol``; every fixture of the test
    suite has a diameter of at least 0.7 max|gamma|), so there a violation is
    never an artefact of the eigenvalue computation.  ``targeted`` adds that
    many draws per (torus-fixed configuration, scale) pair, which drive the
    per-vertex coverage distances to zero much faster than uniform sampling;
    :func:`_draw_spectra` makes both kinds of row in one pass.
    Every argument is checked before anything is drawn: a count that is not
    a positive integer, or a ``targeted`` that is not an integer >= 0,
    raises :class:`InvalidCount`, and a ``tol`` that
    :func:`su3.check_tolerance` refuses raises its error.  The weights are
    checked for sampling once.
    """
    import numpy as np

    count = _checked_count(count, 1)
    check_tolerance(tol)
    targeted = _checked_count(targeted, 0)
    try:
        gammas = as_gammas(w)
    except ValueError as exc:
        raise PredictionUnavailable(str(exc)) from exc
    floats, power = _float_weights(gammas)
    # The comparison runs at the weights over the sampler's power of two: a
    # segment's end half-planes have offsets quadratic in the weights, and
    # the hull's prefilter and the distances square coordinates.  The
    # scaling is exact, and every reported length is scaled back.
    try:
        predicted = build_polytope(tuple(g / power if not is_exact(g) else Fraction(g) / Fraction(power) for g in gammas))
    except ValueError as exc:
        raise PredictionUnavailable(str(exc)) from exc

    spectra = _draw_spectra(floats, power, count, seed, targeted)
    spectra /= power  # in place: the rows do not leave this function
    pq = chamber_points_of_spectra(spectra)

    diam = predicted.diameter()
    slack = tol * (diam if diam > 0 else max(abs(g) for g in floats) / power)
    excess = violation_distances(predicted, spectra)

    corners = _pq_array(predicted)
    deficit = max(_distances(corners, _pq_array(hull2d(pq))))

    # each vertex's nearest sample, picked on (vertices, n) squared distances
    corners = np.array(corners)
    nearest = pq[((pq[:, 0] - corners[:, :1]) ** 2 + (pq[:, 1] - corners[:, 1:]) ** 2).argmin(axis=1)]
    coverage = np.hypot(nearest[:, 0] - corners[:, 0], nearest[:, 1] - corners[:, 1])

    return VerificationReport(
        label=predicted.label,
        seed=seed,
        n_samples=int(spectra.shape[0]),
        n_violations=int(np.count_nonzero(excess > slack)),
        max_violation=power * float(excess.max()),
        hausdorff_inner=power * deficit,
        vertex_coverage=tuple(power * float(d) for d in coverage),
        diameter=power * diam,
        tolerance=tol,
    )
