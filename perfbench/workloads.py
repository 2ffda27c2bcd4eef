"""The benchmark's workloads: closed loops of library calls and CLI runs.

Each workload generates its inputs from the seed (:mod:`inputs`), then runs
one operation at a time, in a fixed seeded order, until the run's time is
up.  Only the library calls (or CLI subprocesses) are timed; each operation
then checks its outputs outside the timed region and counts as failed when a
check fails or the call raises.

The end-to-end figures are scaled to the host's full speed: each timing is
divided by the host slowdown over its interval, read from a fixed probe
timed between and inside operations (:mod:`host`).

Why each workload exists:

- ``mc-verify``: the Monte Carlo checker (sampling, batched spectra,
  containment, hull, coverage).  Exact construction is a negligible share.
- ``exact-atlas``: the exact builder (classifier, cones, half-plane
  intersection) on rational weights and their float copies, plus sweeps
  across transition walls.  No Monte Carlo.
- ``realize-search``: eigenvalue bounds and the ``realize`` descent, which
  computes eigenvalues one 3x3 matrix at a time.  Run by hand only and not
  listed in ``BENCHMARK.json``; the README says why.
- ``cli-cold``: fresh ``su3poly`` processes, the only place import time and
  JSON/SVG formatting are measured.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import permutations
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

import inputs
from host import EVERY_S, HostSpeed
from spans import Instrumentation, Target, Tracer, totals
from stats import Tally, percentile, summarize

from su3poly import classifier, cli, eigen_bounds, oracle, polytope

Check = Callable[[], Tuple[bool, str]]
Op = Callable[["Run"], Check]


class BenchmarkError(RuntimeError):
    """The benchmark itself cannot run (as opposed to a failed operation)."""


# ---------------------------------------------------------------------------
# Traced library functions and their counts
# ---------------------------------------------------------------------------


def _count_spectra(counts, args, kwargs, result):
    z = args[0]
    n = z.shape[0]
    counts["oracle.spectra.matrices"] += n
    # Computed, not measured: configurations read, Hermitian matrices built,
    # eigenvalues written.
    counts["oracle.spectra.bytes_computed"] += z.nbytes + n * 9 * 16 + result.nbytes


def _count_hull(counts, args, kwargs, result):
    counts["polytope.hull2d.points_in"] += len(args[0])
    counts["polytope.hull2d.vertices_out"] += len(result.vertices)


def _count_verify(counts, args, kwargs, result):
    counts["oracle.samples"] += result.n_samples


def _count_empirical(counts, args, kwargs, result):
    counts["oracle.samples"] += result[0].count


def _count_realize(counts, args, kwargs, result):
    counts["eigen_bounds.realize.restarts"] += result.restarts_used


TARGETS = (
    Target("su3poly.oracle", "verify", "oracle.verify", _count_verify),
    Target("su3poly.oracle", "empirical_polytope", "oracle.empirical_polytope", _count_empirical),
    Target("su3poly.oracle", "sample_batch", "oracle.sample_batch"),
    Target("su3poly.oracle", "spectra_of_configurations", "oracle.spectra", _count_spectra),
    Target("su3poly.oracle", "violation_distances", "oracle.violation_distances"),
    Target("su3poly.polytope", "hull2d", "polytope.hull2d", _count_hull),
    Target("su3poly.polytope", "distance_to_polytope_pq", "polytope.distance_to_polytope_pq"),
    Target("su3poly.polytope", "build_polytope", "polytope.build_polytope"),
    Target("su3poly.polytope", "hausdorff", "polytope.hausdorff"),
    Target("su3poly.polytope", "polytope_cones", "cones.polytope_cones"),
    Target("su3poly.classifier", "classify_n3", "classifier.classify_n3"),
    Target("su3poly.eigen_bounds", "realize", "eigen_bounds.realize", _count_realize),
    Target("su3poly.eigen_bounds", "sum_bounds_three", "eigen_bounds.sum_bounds_three"),
    Target("su3poly.eigen_bounds", "check_spectrum", "eigen_bounds.check_spectrum"),
    Target("su3poly.render", "render_svg", "render.render_svg"),
)

CLI_KEYS = ("classify", "polytope", "polytope-svg", "bounds", "sweep", "verify")


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------


@dataclass
class Measures:
    timings: Dict[str, List[float]] = field(default_factory=lambda: defaultdict(list))
    work: Dict[str, float] = field(default_factory=lambda: defaultdict(float))
    units: float = 0.0  # operations, in the workload's unit, for per-layer figures
    stamps: Dict[str, List[Tuple[float, float, float]]] = field(default_factory=lambda: defaultdict(list))


class Run:
    """One measured run: timings and work of traced and untraced operations,
    the failure tally, and the operations executed, in order."""

    def __init__(self, tracer: Optional[Tracer] = None, host: Optional[HostSpeed] = None):
        self.tracer = tracer
        self.instrumentation = Instrumentation(tracer, TARGETS) if tracer else None
        self.tally = Tally()
        self.host = host or HostSpeed()
        self.plain = Measures()
        self.under_trace = Measures()
        self.traced = False
        self.executed: List[Tuple[str, Op]] = []

    @property
    def current(self) -> Measures:
        return self.under_trace if self.traced else self.plain

    def time(self, kind: str, fn, *args, **kwargs):
        """Time a library call.  Untraced, the host is probed inside it too."""
        probing = self.host.probing_s
        t0 = time.perf_counter()
        with contextlib.nullcontext() if self.traced else self.host.sampling():
            result = fn(*args, **kwargs)
        t1 = time.perf_counter()
        self._record(kind, t0, t1, t1 - t0 - (self.host.probing_s - probing))
        return result

    def time_child(self, kind: str, fn, *args, **kwargs):
        """Time a call that waits for a subprocess.  The host is not probed
        inside it: a probe there would run beside the child and read its load."""
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        t1 = time.perf_counter()
        self._record(kind, t0, t1, t1 - t0)
        return result

    def _record(self, kind: str, t0: float, t1: float, elapsed: float) -> None:
        self.current.timings[kind].append(elapsed)
        self.current.stamps[kind].append((t0, t1, elapsed))

    def scaled(self, kind: str) -> List[float]:
        """Untraced timings of ``kind``, each divided by the host slowdown
        over its interval."""
        return [elapsed / self.host.slowdown(t0, t1) for t0, t1, elapsed in self.plain.stamps.get(kind, [])]

    def add(self, work: str, amount: float, units: float) -> None:
        self.current.work[work] += amount
        self.current.units += units

    def span(self, name: str):
        return self.tracer.span(name) if self.traced else contextlib.nullcontext()

    def all_timings(self, kind: str) -> List[float]:
        return self.plain.timings.get(kind, []) + self.under_trace.timings.get(kind, [])

    def execute(self, kind: str, op: Op, traced: bool) -> None:
        self.traced = traced
        try:
            if traced:
                with self.instrumentation, self.tracer.span("bench.op"):
                    check = op(self)
            else:
                check = op(self)
            ok, reason = check()
        except Exception as exc:  # one failed operation is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            ok, reason = False, repr(exc)
        self.traced = False
        self.tally.record(kind, ok, reason)
        self.executed.append((kind, op))


def measure(ops: Sequence[Tuple[str, Op]], seconds: float, tracer: Optional[Tracer] = None,
            host: Optional[HostSpeed] = None, probe_gap: float = EVERY_S) -> Run:
    """Run the operations in order, cycling, until ``seconds`` have passed
    and at least one full cycle has run, so every figure has a sample.

    With a tracer every operation is traced; :func:`replay_untraced` then
    gives the untraced side of the overhead comparison.  The host is probed
    before an operation when the last reading is ``probe_gap`` seconds old.
    """
    run = Run(tracer, host)
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        run.host.maybe_probe(probe_gap)
        kind, op = ops[i % len(ops)]
        run.execute(kind, op, traced=tracer is not None)
        i += 1
        if i >= len(ops) and time.perf_counter() >= deadline:
            run.host.probe()
            return run


def replay_untraced(run: Run, kind: str, seconds: float, min_pairs: int = 3) -> None:
    """Run again, untraced and in the same order, the executed operations of
    ``kind``, until ``seconds`` have passed and ``min_pairs`` have run, so
    traced and untraced timings pair up input by input."""
    deadline = time.perf_counter() + seconds
    done = 0
    for op_kind, op in list(run.executed):
        if op_kind != kind:
            continue
        run.execute(op_kind, op, traced=False)
        done += 1
        if done >= min_pairs and time.perf_counter() >= deadline:
            return


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def label_of(w) -> str:
    if len(w) == 2:
        return classifier.classify_n2(w).value
    return classifier.classify_n3(w)[0].value


def check_labels(pairs) -> None:
    """Every generated weight must classify as the type it was made for."""
    for label, w in pairs:
        got = label_of(w)
        if got != label:
            raise BenchmarkError(f"generator made {w} for type {label}, classifier says {got}")


def distance_to_polygon(point, vertices) -> float:
    """Distance from a point to a convex polygon, segment or point (0 inside)."""
    p = np.asarray(point, dtype=float)
    v = np.asarray(vertices, dtype=float)
    if len(v) == 1:
        return float(np.hypot(*(p - v[0])))
    a, b = (v[:1], v[1:]) if len(v) == 2 else (v, np.roll(v, -1, axis=0))
    d = b - a
    t = np.clip(((p - a) * d).sum(axis=1) / np.maximum((d * d).sum(axis=1), 1e-300), 0.0, 1.0)
    nearest = float(np.hypot(*(a + t[:, None] * d - p).T).min())
    if len(v) > 2:
        cross = d[:, 0] * (p[1] - a[:, 1]) - d[:, 1] * (p[0] - a[:, 0])
        if (cross >= 0).all() or (cross <= 0).all():
            return 0.0
    return nearest


def p50(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def rate(amount: float, seconds: Sequence[float]) -> float:
    return amount / sum(seconds)


def _line(name: str, run: Run, kind: str) -> str:
    """One timing, scaled to full host speed and raw."""
    return (f"{name}: {summarize(run.scaled(kind)).describe('s')};"
            f" raw {summarize(run.plain.timings[kind]).describe('s')}")


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """Interface shared by the workloads.

    ``prepare`` generates and validates the inputs and warms the code paths;
    it is what ``setup_s`` times.  ``ops`` lists the operations of one cycle.
    ``end_to_end`` maps a finished untraced run to the end-to-end metrics and
    returns text lines naming each figure.
    """

    name = ""
    op_unit = ""  # what one per-layer "op" is
    main_kind = ""  # timing compared between traced and untraced operations
    replay_kind = ""  # operation re-run untraced for that comparison
    probe_gap = EVERY_S  # see measure()

    def prepare(self, seed: int):
        raise NotImplementedError

    def ops(self, prepared) -> List[Tuple[str, Op]]:
        raise NotImplementedError

    def end_to_end(self, run: Run) -> Tuple[Dict[str, float], List[str]]:
        raise NotImplementedError


class McVerify(Workload):
    name = "mc-verify"
    op_unit = "1e5 uniform samples requested"
    main_kind = "verify"
    replay_kind = "verify"
    COUNT = 100_000
    EMPIRICAL_COUNT = 1_000_000
    HULL_DEFICIT = 0.05  # of the diameter, as in the acceptance suite

    def prepare(self, seed):
        rnd = random.Random(f"{self.name}:{seed}")
        weights = inputs.mc_weights(rnd)
        check_labels((x.label, x.weight) for x in weights)
        seeds = tuple(rnd.randrange(2**31) for _ in weights)
        empirical = rnd.choice([x for x in weights if x.label in inputs.GENERIC])
        prepared = (tuple(weights), seeds, empirical, rnd.randrange(2**31))
        oracle.verify(weights[0].weight, 2_000, 0)
        return prepared

    def ops(self, prepared):
        weights, seeds, empirical, empirical_seed = prepared
        ops = [("empirical", self._empirical(empirical, empirical_seed))]
        ops += [("verify", self._verify(x, s)) for x, s in zip(weights, seeds)]
        return ops

    def _verify(self, x: inputs.Labelled, seed: int) -> Op:
        def op(run: Run) -> Check:
            report = run.time("verify", oracle.verify, x.weight, self.COUNT, seed)
            run.add("samples", self.COUNT, self.COUNT / 1e5)

            def check():
                if report.n_violations:
                    return False, f"{x.weight}: {report.n_violations} violations, max {report.max_violation:.3g}"
                if report.label != x.label:
                    return False, f"{x.weight}: label {report.label}, expected {x.label}"
                return True, ""

            return check

        return op

    def _empirical(self, x: inputs.Labelled, seed: int) -> Op:
        def op(run: Run) -> Check:
            _, hull = run.time("empirical", oracle.empirical_polytope, x.weight, self.EMPIRICAL_COUNT, seed)
            run.add("samples", self.EMPIRICAL_COUNT, self.EMPIRICAL_COUNT / 1e5)

            def check():
                predicted = polytope.build_polytope(x.weight)
                corners = [(c.p, c.q) for c in hull.pq_vertices()]
                deficit = max(distance_to_polygon((c.p, c.q), corners) for c in predicted.pq_vertices())
                limit = self.HULL_DEFICIT * predicted.diameter()
                return deficit < limit, f"{x.weight}: hull deficit {deficit:.4g} >= {limit:.4g}"

            return check

        return op

    def end_to_end(self, run):
        t = run.plain.timings
        samples_per_s = rate(run.plain.work["samples"], run.scaled("verify") + run.scaled("empirical"))
        metrics = {
            "work_per_s": samples_per_s,
            "main_call_s.p50": p50(run.scaled("verify")),
            "second_call_s.p50": p50(run.scaled("empirical")),
        }
        lines = [
            f"mc.samples_per_s: {samples_per_s:.6g} 1/s (uniform samples requested per second of calls;"
            f" raw {rate(run.plain.work['samples'], t['verify'] + t['empirical']):.6g} 1/s)",
            _line("mc.verify_s", run, "verify"),
            _line("mc.empirical_1e6_s", run, "empirical"),
        ]
        return metrics, lines


class ExactAtlas(Workload):
    name = "exact-atlas"
    op_unit = "top-level polytope build"
    main_kind = "build"
    replay_kind = "weight"
    N_WEIGHTS = 1200
    N_SWEEPS = 24
    SWEEP_STEPS = 100
    PERMUTATION_EVERY = 10

    def prepare(self, seed):
        rnd = random.Random(f"{self.name}:{seed}")
        weights = inputs.atlas_weights(rnd, self.N_WEIGHTS)
        sweeps = inputs.sweeps(rnd, self.N_SWEEPS, self.SWEEP_STEPS)
        check_labels((x.label, x.weight) for x in weights)
        check_labels(pair for s in sweeps for pair in zip(s.labels, s.points()))
        polytope.build_polytope(weights[0].weight)
        return tuple(weights), tuple(sweeps)

    def ops(self, prepared):
        weights, sweeps = prepared
        per_sweep = len(weights) // len(sweeps)
        ops = []
        for k, s in enumerate(sweeps):
            for i in range(k * per_sweep, (k + 1) * per_sweep):
                ops.append(("weight", self._weight(weights[i], i % self.PERMUTATION_EVERY == 0)))
            ops.append(("sweep", self._sweep(s)))
        return ops

    def _weight(self, x: inputs.Labelled, check_permutations: bool) -> Op:
        exact = x.weight
        floats = tuple(float(g) for g in exact)

        def op(run: Run) -> Check:
            label_e, _ = run.time("classify", classifier.classify_n3, exact)
            poly_e = run.time("build", polytope.build_polytope, exact)
            label_f, _ = run.time("classify_float", classifier.classify_n3, floats)
            poly_f = run.time("build_float", polytope.build_polytope, floats)
            run.add("weights", 1, 2)

            def check():
                labels = {label_e.value, poly_e.label, label_f.value, poly_f.label}
                if labels != {x.label}:
                    return False, f"{exact}: labels {sorted(labels)}, expected {x.label}"
                if check_permutations:
                    vertices = set(poly_e.vertices)
                    for perm in permutations(exact):
                        if set(polytope.build_polytope(perm).vertices) != vertices:
                            return False, f"{exact}: vertex set changes under permutation {perm}"
                return True, ""

            return check

        return op

    def _sweep(self, s: inputs.Sweep) -> Op:
        points = s.points()

        def walk():
            labels, jumps, prev = [], [], None
            for g in points:
                poly = polytope.build_polytope(g)
                labels.append(poly.label)
                if prev is not None:
                    jumps.append(polytope.hausdorff(prev, poly))
                prev = poly
            return labels, jumps

        def op(run: Run) -> Check:
            labels, jumps = run.time("sweep", walk)
            run.add("sweep_steps", s.steps, len(points))

            def check():
                if tuple(labels) != s.labels:
                    return False, f"sweep {s.start} -> {s.end}: labels {labels[0]} .. {labels[-1]} out of order"
                if not all(math.isfinite(j) and j >= 0 for j in jumps):
                    return False, f"sweep {s.start} -> {s.end}: bad Hausdorff step"
                return True, ""

            return check

        return op

    def end_to_end(self, run):
        t = run.plain.timings
        kinds = ("classify", "build", "classify_float", "build_float")
        weights_per_s = rate(run.plain.work["weights"], [x for k in kinds for x in run.scaled(k)])
        raw_weights_per_s = rate(run.plain.work["weights"], [x for k in kinds for x in t[k]])
        steps_per_s = rate(run.plain.work["sweep_steps"], run.scaled("sweep"))
        metrics = {
            "work_per_s": weights_per_s,
            "main_call_s.p50": p50(run.scaled("build")),
            "second_call_s.p50": p50(run.scaled("sweep")),
        }
        lines = [
            f"atlas.weights_per_s: {weights_per_s:.6g} 1/s (n={len(t['build'])} weights; exact and float classify"
            f" + build; raw {raw_weights_per_s:.6g} 1/s)",
            _line("atlas.build_s", run, "build"),
            _line("atlas.build_float_s", run, "build_float"),
            f"atlas.sweep_steps_per_s: {steps_per_s:.6g} 1/s (n={len(t['sweep'])} sweeps of {self.SWEEP_STEPS} steps)",
            _line("atlas.sweep_s", run, "sweep"),
        ]
        return metrics, lines


class RealizeSearch(Workload):
    name = "realize-search"
    op_unit = "target"
    main_kind = "realize"
    replay_kind = "target"
    N_TARGETS = 120
    BUDGET = 200
    MATCH = 1e-6  # eigenvalues of A+B+C against the target

    def prepare(self, seed):
        rnd = random.Random(f"{self.name}:{seed}")
        cases = []
        for _ in range(self.N_TARGETS):
            lams = inputs.mixed_lambdas(rnd)
            region = eigen_bounds.sum_bounds_three(*lams)
            target, _ = inputs.convex_target(rnd, [v.astuple() for v in region.vertices])
            cases.append((lams, target, rnd.randrange(2**31)))
        eigen_bounds.realize(*cases[0][0], tuple(float(x) for x in cases[0][1]), budget=1, seed=0)
        return tuple(cases)

    def ops(self, prepared):
        return [("target", self._target(*case)) for case in prepared]

    def _target(self, lams, target, seed) -> Op:
        floats = tuple(float(x) for x in target)

        def op(run: Run) -> Check:
            inside = run.time("check_spectrum", eigen_bounds.check_spectrum, *lams, target)
            result = run.time("realize", eigen_bounds.realize, *lams, floats, budget=self.BUDGET, seed=seed)
            run.add("targets", 1, 1)

            def check():
                if not inside:
                    return False, f"{lams}: check_spectrum rejects {target} built inside the region"
                if not result.found:
                    return False, f"{lams} -> {floats}: search miss after {result.restarts_used} restarts, distance {result.distance:.3g}"
                total = sum(m.as_numpy() for m in result.matrices)
                got = np.linalg.eigvalsh(total)[::-1]
                err = float(np.abs(got - np.array(floats)).max())
                return err <= self.MATCH, f"{lams} -> {floats}: eigenvalues of A+B+C off by {err:.3g}"

            return check

        return op

    def end_to_end(self, run):
        t = run.plain.timings
        targets_per_s = rate(run.plain.work["targets"], run.scaled("check_spectrum") + run.scaled("realize"))
        metrics = {
            "work_per_s": targets_per_s,
            "main_call_s.p50": p50(run.scaled("realize")),
            "second_call_s.p50": p50(run.scaled("check_spectrum")),
        }
        lines = [
            f"realize.targets_per_s: {targets_per_s:.6g} 1/s (n={len(t['realize'])} targets)",
            _line("realize.call_s", run, "realize"),
            _line("realize.check_spectrum_s", run, "check_spectrum"),
        ]
        return metrics, lines


class CliCold(Workload):
    name = "cli-cold"
    op_unit = "CLI invocation"
    main_kind = "main:classify"
    replay_kind = "classify"
    # The host is not probed inside a subprocess wait, so probe before every
    # invocation.
    probe_gap = 0.0
    VERIFY_COUNT = 100_000

    def __init__(self, src: str, root: str):
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=src)
        self.reference: Dict[Tuple[str, ...], bytes] = {}
        self.first: Dict[Tuple[str, ...], bytes] = {}

    def prepare(self, seed):
        rnd = random.Random(f"{self.name}:{seed}")
        fmt = inputs.fmt_vector
        typed = {key: inputs.Labelled(lab, inputs.typed_weight(rnd, lab))
                 for key, lab in zip(("classify", "polytope", "polytope-svg", "verify"), rnd.sample(inputs.GENERIC, 4))}
        lams = inputs.mixed_lambdas(rnd)
        region = eigen_bounds.sum_bounds_three(*lams)
        target, _ = inputs.convex_target(rnd, [v.astuple() for v in region.vertices])
        sweep = inputs.sweep(rnd, rnd.choice(inputs.WALLS))
        check_labels((x.label, x.weight) for x in typed.values())
        check_labels(zip(sweep.labels, sweep.points()))
        argvs = (
            ("classify", ("classify", "--gamma=" + fmt(typed["classify"].weight))),
            ("polytope", ("polytope", "--gamma=" + fmt(typed["polytope"].weight), "--emit-cones")),
            ("polytope-svg", ("polytope", "--gamma=" + fmt(typed["polytope-svg"].weight), "--format", "svg")),
            ("bounds", ("bounds", "--lambdas=" + fmt(lams), "--target=" + fmt(target))),
            ("sweep", ("sweep", "--start=" + fmt(sweep.start), "--end=" + fmt(sweep.end), "--steps", str(sweep.steps))),
            ("verify", ("verify", "--gamma=" + fmt(typed["verify"].weight), "--count", str(self.VERIFY_COUNT),
                        "--seed", str(rnd.randrange(1000)))),
        )
        return argvs

    def ops(self, prepared):
        return [(key, self._invoke(key, argv)) for key, argv in prepared]

    @staticmethod
    def in_process(argv) -> Tuple[int, bytes]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(argv))
        return code, buf.getvalue().encode()

    def _invoke(self, key: str, argv: Tuple[str, ...]) -> Op:
        command = [sys.executable, "-m", "su3poly.cli", *argv]

        def op(run: Run) -> Check:
            proc = run.time_child(key, subprocess.run, command, capture_output=True, env=self.env, cwd=self.root, timeout=150)
            if run.tracer is not None:
                with run.span(f"cli.main.{key}"):
                    run.time(f"main:{key}", self.in_process, argv)
            run.add("invocations", 1, 1)

            def check():
                if proc.returncode != 0:
                    return False, f"{' '.join(argv)}: exit {proc.returncode}: {proc.stderr.decode()[-300:]}"
                if proc.stdout != self.first.setdefault(argv, proc.stdout):
                    return False, f"{' '.join(argv)}: output differs between repeats"
                if argv not in self.reference:
                    self.reference[argv] = self.in_process(argv)[1]
                if proc.stdout != self.reference[argv]:
                    return False, f"{' '.join(argv)}: output differs from in-process cli.main"
                return True, ""

            return check

        return op

    def end_to_end(self, run):
        walls = [x for key in CLI_KEYS for x in run.scaled(key)]
        invocations_per_s = rate(run.plain.work["invocations"], walls)
        metrics = {
            "work_per_s": invocations_per_s,
            "main_call_s.p50": p50(run.scaled("classify")),
            "second_call_s.p50": p50(run.scaled("verify")),
        }
        lines = [f"cli.invocations_per_s: {invocations_per_s:.6g} 1/s (n={len(walls)})"]
        lines += [_line(f"cli.{key}_s", run, key) for key in CLI_KEYS]
        return metrics, lines


# ---------------------------------------------------------------------------
# Per-layer figures from a traced run
# ---------------------------------------------------------------------------

PER_OP_SPANS = {
    "oracle.sample_batch.s": "oracle.sample_batch",
    "oracle.spectra.s": "oracle.spectra",
    "oracle.violation_distances.s": "oracle.violation_distances",
    "polytope.hull2d.s": "polytope.hull2d",
    "polytope.distance_to_polytope_pq.s": "polytope.distance_to_polytope_pq",
    "polytope.build_polytope.s": "polytope.build_polytope",
    "polytope.hausdorff.s": "polytope.hausdorff",
    "classifier.classify_n3.s": "classifier.classify_n3",
    "cones.polytope_cones.s": "cones.polytope_cones",
    "eigen_bounds.realize.s": "eigen_bounds.realize",
    "eigen_bounds.sum_bounds_three.s": "eigen_bounds.sum_bounds_three",
    "eigen_bounds.check_spectrum.s": "eigen_bounds.check_spectrum",
    "render.render_svg.s": "render.render_svg",
}
PER_OP_SELF = {
    "oracle.verify.unattributed_s": "oracle.verify",
    "polytope.intersect.self_s": "polytope.build_polytope",
    "bench.unattributed_s": "bench.op",
}
PER_OP_COUNTS = (
    "oracle.samples",
    "oracle.spectra.matrices",
    "oracle.spectra.bytes_computed",
    "polytope.hull2d.points_in",
    "polytope.hull2d.vertices_out",
    "eigen_bounds.realize.restarts",
)


def per_layer(workload: Workload, run: Run, import_s: float) -> Tuple[Dict[str, float], List[str]]:
    """Per-layer figures per traced operation, plus CLI and overhead figures.

    Span times are inclusive unless the name ends in ``self_s`` or
    ``unattributed_s``; a layer the workload never calls reads 0.
    """
    table = totals(run.tracer.spans)
    units = run.under_trace.units
    metrics: Dict[str, float] = {}
    for metric, span in PER_OP_SPANS.items():
        metrics[metric] = table.get(span, (0, 0.0, 0.0))[1] / units
    for metric, span in PER_OP_SELF.items():
        metrics[metric] = table.get(span, (0, 0.0, 0.0))[2] / units
    for metric in PER_OP_COUNTS:
        metrics[metric] = run.tracer.counts.get(metric, 0.0) / units
    metrics["cli.import_s"] = import_s
    startups = []
    for key in CLI_KEYS:
        inproc = run.all_timings(f"main:{key}")
        metrics[f"cli.main.{key}.s"] = p50(inproc) if inproc else 0.0
        if inproc:
            startups.append(p50(run.all_timings(key)) - p50(inproc))
    metrics["cli.startup_s"] = p50(startups) if startups else 0.0
    traced = run.under_trace.timings.get(workload.main_kind, [])
    plain = run.plain.timings.get(workload.main_kind, [])
    pairs = [t - u for t, u in zip(traced, plain)]
    if not pairs:
        raise BenchmarkError(f"no untraced '{workload.main_kind}' calls to compare with traced ones")
    metrics["trace.overhead_s"] = p50(pairs)

    lines = [f"per-layer figures per op; one op = one {workload.op_unit}; {units:g} traced ops",
             f"{'span':40s} {'calls':>8s} {'inclusive/op':>14s} {'self/op':>14s}"]
    for name, (calls, inclusive, own) in sorted(table.items()):
        lines.append(f"{name:40s} {calls:8d} {inclusive / units:14.6g} {own / units:14.6g}")
    lines.append("counts per op: " + ", ".join(f"{name} {metrics[name]:.6g}" for name in PER_OP_COUNTS))
    lines.append(f"unattributed (benchmark glue and untraced library code) per op: {metrics['bench.unattributed_s']:.6g} s")
    lines.append(
        f"tracing overhead on '{workload.main_kind}': p50 of traced minus untraced on the same input"
        f" {metrics['trace.overhead_s']:.6g} s (n={len(pairs)}); p50 traced {p50(traced):.6g} s (n={len(traced)}),"
        f" untraced {p50(plain):.6g} s (n={len(plain)})"
    )
    return metrics, lines
