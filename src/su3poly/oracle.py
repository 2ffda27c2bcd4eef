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
(1 with two factors) instead of 3 complex Gaussians per factor;
:func:`_frame_spectra` forms the six entries of sum g_j u_j u_j^* in closed
form and hands them to the closed-form 3x3 eigenvalue kernel
:func:`su3.spectra_of_entries` (no LAPACK call).  The rows differ from those
of earlier versions, which drew the Gaussians, at the same seed; their law
is the same.

Sampling is block-seeded: sample ``i`` lives in block ``i // BLOCK`` with its
own generator derived from ``(seed, block)``, whose uniforms fill the block's
rows in order, so batches are bitwise reproducible, independent of how work
is partitioned, and a shorter batch is a prefix of a longer one.

Sampling and spectra are one pass, :func:`_draw_spectra`: one
:func:`_run_blocks` call over the uniform blocks and, for :func:`verify`, one
more block per torus-fixed configuration, on every CPU the process may use
(``os.sched_getaffinity``): the calling thread and one helper thread per
further CPU pull block indices from one shared iterator, and each block
writes only its own rows, so the rows are bitwise the same at any worker
count.  A uniform block is one kernel call.  A targeted block perturbs its
configuration by complex Gaussians at four scales, drawn into the worker's
reused buffer, and :func:`spectra_of_configurations` weights each factor by
``g_j / |z_j|^2`` instead of normalising it, since the momentum map is
projective.  Containment forms one (half-planes, n) array, coverage one
(vertices, n) array, and the hull deficit is the scalar point-to-polygon
distance of :mod:`polytope` from the predicted vertices to
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


def _run_blocks(n_blocks: int, buffer_size: int, work: Callable) -> None:
    """Run ``work(block, buf)`` for every block in ``range(n_blocks)``.

    The workers are the calling thread and up to W - 1 helper threads, W
    being :func:`_worker_count` capped at ``n_blocks``.  Each worker owns one
    flat float buffer of ``buffer_size``, reused for every block it runs, and
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
            buf = np.empty(buffer_size)
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
    vector and no (n, 3, 3) matrix is built.
    """
    import numpy as np

    floats, power = _float_weights(as_gammas(gammas))
    out = _spectra_rows(z, np.array(floats) / power, np.empty((z.shape[0], 3)) if out is None else out)
    if power != 1.0:
        out *= power
    return out


def _spectra_rows(z: np.ndarray, gs: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The kernel of :func:`spectra_of_configurations` at the weights ``gs``
    (the caller's floats over their power), in chunks of ``BLOCK`` rows so
    that the temporaries stay small; the targeted draws call it directly."""
    import numpy as np

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
    return out


def _frame_spectra(u: np.ndarray, gs: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Spectra at the weights ``gs`` of the reduced-frame configurations of
    the uniforms ``u``, written into ``out``.

    ``u`` is (n, 4) for three factors and (n, 1) for two.  Column 0 gives
    s^2 = sqrt(U) and c^2 = 1 - s^2 of u2 = (c, s, 0); for three factors
    columns 1 and 2 cut the simplex point t = (lo, hi - lo, 1 - hi) of
    u3 = (sqrt t1, sqrt t2 e^{i alpha}, sqrt t3) and column 3 gives
    alpha = 2 pi U; u1 = e1.  The entries of g1 e1 e1^* + g2 u2 u2^* +
    g3 u3 u3^* are formed in closed form for one kernel call.
    """
    import numpy as np

    s2 = np.sqrt(u[:, 0])
    c2 = 1.0 - s2
    diag = np.zeros((len(u), 3))
    off = np.zeros((len(u), 3), dtype=complex)
    real, imag = off.real, off.imag
    np.multiply(np.sqrt(c2 * s2), gs[1], out=real[:, 0])
    np.multiply(c2, gs[1], out=diag[:, 0])
    diag[:, 0] += gs[0]
    np.multiply(s2, gs[1], out=diag[:, 1])
    if len(gs) == 3:
        g3 = gs[2]
        lo = np.minimum(u[:, 1], u[:, 2])
        hi = np.maximum(u[:, 1], u[:, 2])
        t2 = hi - lo
        t3 = 1.0 - hi
        alpha = u[:, 3] * (2.0 * math.pi)
        cos, sin = np.cos(alpha), np.sin(alpha)
        r12 = np.sqrt(lo * t2)
        r12 *= g3
        r23 = np.sqrt(t2 * t3)
        r23 *= g3
        diag[:, 0] += g3 * lo
        diag[:, 1] += g3 * t2
        np.multiply(t3, g3, out=diag[:, 2])
        real[:, 0] += r12 * cos
        np.multiply(r12, -sin, out=imag[:, 0])
        np.multiply(np.sqrt(lo * t3), g3, out=real[:, 1])
        np.multiply(r23, cos, out=real[:, 2])
        np.multiply(r23, sin, out=imag[:, 2])
    out[:] = spectra_of_entries(diag, off)
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

    The kernels run at ``floats / power`` (an exact division) and the batch
    is multiplied back by ``power`` once; :func:`verify` passes the divided
    weights and power 1, so its rows stay at that scale.

    Block ``b < ceil(count / BLOCK)`` is uniform: 4 uniforms per row (1 with
    two factors) from generator ``(seed, b)``, read by :func:`_frame_spectra`;
    a partial last block is the prefix of the full one, as ``random`` fills
    in order.  Each later block is one fixed configuration ``idx``, perturbed
    by complex Gaussians of ``scales[k]`` from generator
    ``(seed, 1_000_003 + 31 idx + k)`` for each k, all drawn into one buffer
    and diagonalised together: uniform draws reach the polytope vertices
    slowly, these cover them quickly, and all are genuine momentum-map images,
    so they may be pooled.
    """
    import numpy as np

    scales = (0.5, 0.1, 0.02, 0.004)
    configs = FIXED_CONFIGURATIONS if len(floats) == 3 else FIXED_CONFIGURATIONS_N2
    bases = [np.array([list(p.coords) for p in configs[config]]) for config in sorted(configs)] if targeted else []  # each (N, 3)
    gs = np.array(floats) / power
    width = 4 if len(floats) == 3 else 1  # uniforms per uniform row
    near = len(scales) * targeted  # rows per configuration
    uniform = -(-count // BLOCK)
    out = np.empty((count + len(bases) * near, 3))

    def draw(block, buf):
        if block < uniform:
            start = block * BLOCK
            rows = min(BLOCK, count - start)
            u = buf[: rows * width].reshape(rows, width)
            _rng_for_block(seed, block).random(out=u)
            _frame_spectra(u, gs, out[start : start + rows])
            return
        idx = block - uniform
        part = buf[: near * len(floats) * 6].reshape(len(scales), targeted, len(floats), 3, 2)
        z = part.view(complex)[..., 0]
        for k, scale in enumerate(scales):
            _rng_for_block(seed, 1_000_003 + idx * 31 + k).standard_normal(out=part[k])
            z[k] *= scale
        z += bases[idx]
        start = count + idx * near
        _spectra_rows(z.reshape(near, len(floats), 3), gs, out[start : start + near])

    _run_blocks(uniform + len(bases), max(min(BLOCK, count) * width, near * len(floats) * 6), draw)
    if power != 1.0:
        out *= power
    return out


def sample_batch(w, count: int, seed: int) -> SampleBatch:
    """``count`` uniform samples of the weights' momentum-map spectra.

    Raises :class:`moment_map.InvalidWeight` before drawing anything when
    the spectra would leave float range, and :class:`InvalidCount` for a
    count that is not an integer >= 0.  The rows are those of
    :func:`_draw_spectra` with no targeted draws: reduced-frame uniform
    draws, which differ from the Gaussian draws of earlier versions at the
    same seed.
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
    # scaling is exact, the draws run at the same weights, and every
    # reported length is scaled back.
    try:
        predicted = build_polytope(tuple(g / power if not is_exact(g) else Fraction(g) / Fraction(power) for g in gammas))
    except ValueError as exc:
        raise PredictionUnavailable(str(exc)) from exc

    spectra = _draw_spectra(tuple(g / power for g in floats), 1.0, count, seed, targeted)
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
