"""In-memory spans around calls into the library.

The library itself carries no tracing.  :class:`Instrumentation` swaps selected
public functions, in every loaded ``su3poly`` module namespace that refers
to them, for wrappers that record a span (name, start, end, parent) and
optional counts, and puts the originals back on exit.  Calls the library
makes internally therefore nest under the call that caused them, so a
layer's self time is its span minus the part covered by its child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]

    @property
    def duration(self) -> float:
        return self.end - self.start


Counter = Callable[[Dict[str, float], tuple, dict, object], None]


class Tracer:
    """Collects spans and counts for one run; nothing is written until
    :meth:`write` is called at the end."""

    def __init__(self):
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        self._next_id = 0

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(sid, name, start, end, parent))

    def wrap(self, name: str, fn: Callable, count: Optional[Counter] = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "spans": [[s.id, s.name, s.start, s.end, s.parent] for s in self.spans],
                    "counts": dict(self.counts),
                },
                fh,
            )


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> duration minus the part of its interval its children cover."""
    children: Dict[int, List[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach, s.start), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = s.duration - covered
    return out


def totals(spans: Sequence[Span]) -> Dict[str, Tuple[int, float, float]]:
    """Span name -> (calls, inclusive seconds, self seconds)."""
    selfs = self_times(spans)
    out: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    for s in spans:
        row = out[s.name]
        row[0] += 1
        row[1] += s.duration
        row[2] += selfs[s.id]
    return {k: (int(v[0]), v[1], v[2]) for k, v in out.items()}


@dataclass(frozen=True)
class Target:
    """One library function to trace: ``module.attr`` recorded as ``name``."""

    module: str
    attr: str
    name: str
    count: Optional[Counter] = None


class Instrumentation:
    """Context manager that swaps each target, in every loaded module of
    ``package`` that holds it, for a traced wrapper.

    The list of replacements is worked out once, so entering and leaving is
    cheap enough to do around every operation.
    """

    def __init__(self, tracer: Tracer, targets: Sequence[Target], package: str = "su3poly"):
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == package or key.startswith(package + "."))]
        self._swaps = []
        for t in targets:
            original = getattr(sys.modules[t.module], t.attr)
            wrapper = tracer.wrap(t.name, original, t.count)
            for mod in modules:
                for key, value in vars(mod).items():
                    if value is original:
                        self._swaps.append((mod, key, original, wrapper))

    def __enter__(self):
        for mod, key, _, wrapper in self._swaps:
            setattr(mod, key, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, key, original, _ in self._swaps:
            setattr(mod, key, original)
        return False
