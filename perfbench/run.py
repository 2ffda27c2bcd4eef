"""su3poly benchmark: one workload, one seed, one closed-loop run.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload mc-verify --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics named in ``BENCHMARK.json``.
``--trace 1`` runs the same loop with every operation traced, then re-runs
some of the main operations untraced to measure the tracing overhead, and
prints the per-layer metrics.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The program is imported from ``src/`` of the
checkout and never installed; the run exits with status 2, printing no
result, when that source is missing.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

# Cap BLAS threads before numpy is first imported, here and in every
# subprocess the benchmark starts (they inherit the environment).
BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import compileall  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "su3poly"
OUT = ROOT / ".perfbench-out"
SETUP_REPEATS = 9

IMPORT_PROBE = "import time; t = time.perf_counter(); import su3poly; print(time.perf_counter() - t)"


def fresh_import_seconds(env) -> float:
    """Time of ``import su3poly`` in a new interpreter, measured inside it."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=60, check=True)
    return float(proc.stdout.strip())


def environment() -> dict:
    import numpy

    commit = "unavailable"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT,
                                    timeout=10).stdout.strip() or commit
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "machine": f"{platform.machine()} {platform.processor() or ''}".strip(),
        "git_commit": commit,
        "source_sha256": digest.hexdigest()[:16],
    }


def declared_metrics() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def main(argv=None) -> int:
    import inputs

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (PACKAGE / "__init__.py").is_file():
        print(f"su3poly source not found at {PACKAGE}; run from a source checkout", file=sys.stderr)
        return 2
    # Build step: byte-compile once so no timed import pays for compilation.
    compileall.compile_dir(str(PACKAGE), quiet=1)
    sys.path.insert(0, str(SRC))
    import su3poly

    if Path(su3poly.__file__).resolve().parent != PACKAGE.resolve():
        print(f"imported su3poly from {su3poly.__file__}, not from {PACKAGE}", file=sys.stderr)
        return 2

    import workloads
    from host import HostSpeed
    from spans import Tracer
    from stats import summarize

    env = dict(os.environ, PYTHONPATH=str(SRC))
    choices = {
        "mc-verify": workloads.McVerify,
        "exact-atlas": workloads.ExactAtlas,
        "realize-search": workloads.RealizeSearch,
        "cli-cold": lambda: workloads.CliCold(str(SRC), str(ROOT)),
    }
    if args.workload not in choices:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(choices)}")
    workload = choices[args.workload]()
    names = declared_metrics()[args.trace]

    try:
        tracer = Tracer() if args.trace else None
        host = HostSpeed()
        raw_setups, imports, prepared = [], [], None
        for _ in range(SETUP_REPEATS):
            host.probe()
            start = time.perf_counter()
            # Interpreter start-up is Python's cost, not the program's: the
            # import is timed inside the fresh interpreter.
            imports.append(fresh_import_seconds(env))
            t0 = time.perf_counter()
            again = workload.prepare(args.seed)
            end = time.perf_counter()
            raw_setups.append((imports[-1] + end - t0, start, end))
            if prepared is not None and again != prepared:
                raise workloads.BenchmarkError("two generations from one seed differ")
            prepared = again
        run = workloads.measure(workload.ops(prepared), args.seconds, tracer, host, workload.probe_gap)
        if tracer is not None:
            workloads.replay_untraced(run, workload.replay_kind, args.seconds / 4)
        setups = [raw / host.slowdown(start, end) for raw, start, end in raw_setups]
        if tracer is None:
            metrics, lines = workload.end_to_end(run)
            metrics["setup_s"] = statistics.median(setups)
        else:
            metrics, lines = workloads.per_layer(workload, run, statistics.median(imports))
            OUT.mkdir(exist_ok=True)
            tracer.write(OUT / f"spans-{args.workload}-{args.seed}.json")
    except workloads.BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    missing = sorted(set(names) - set(metrics))
    if missing:
        print(f"benchmark error: metrics not computed: {missing}", file=sys.stderr)
        return 2

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("environment: " + " ".join(f"{k}={v}" for k, v in environment().items()))
    print(f"setup_s: {summarize(setups).describe('s')}; raw {summarize([r[0] for r in raw_setups]).describe('s')};"
          f" cli.import_s: {summarize(imports).describe('s')}")
    print(host.describe())
    for line in lines:
        print(line)
    tally = run.tally
    print(tally.describe())
    for kind, (attempted, failed) in sorted(tally.by_kind.items()):
        print(f"  {kind}: {failed} failed of {attempted}")
    for reason in tally.reasons:
        print(f"  failure: {reason}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in names.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
