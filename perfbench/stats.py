"""Percentiles under the sample-count rule, and failure accounting.

A tail percentile is reported only when at least ``MIN_BEYOND`` samples lie
beyond it, so a p99 is never read off a handful of values.  The median is
always reported, with its sample count beside it.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

MIN_BEYOND = 10
TAIL_LADDER = (90.0, 99.0, 99.9)


def nearest_rank(p: float, n: int) -> int:
    """1-based rank of the p-th percentile of n samples (nearest-rank method).

    The product is rounded first so that 90% of 100 is exactly rank 90.
    """
    return max(1, math.ceil(round(p * n / 100.0, 6)))


def samples_beyond(p: float, n: int) -> int:
    """Number of samples ranked above the p-th percentile of n."""
    return n - nearest_rank(p, n)


def tail_percentile(n: int, ladder: Sequence[float] = TAIL_LADDER) -> Optional[float]:
    """Highest percentile of the ladder with at least ``MIN_BEYOND`` samples
    beyond it, or None when even the lowest one has too few."""
    allowed = [p for p in ladder if samples_beyond(p, n) >= MIN_BEYOND]
    return max(allowed) if allowed else None


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile.  The median is always allowed; any other
    percentile raises ``ValueError`` unless the sample-count rule holds."""
    if not values:
        raise ValueError("no samples")
    n = len(values)
    if p != 50.0 and samples_beyond(p, n) < MIN_BEYOND:
        raise ValueError(f"p{p:g} needs {MIN_BEYOND} samples beyond it; {n} samples give {samples_beyond(p, n)}")
    if p == 50.0:
        return float(statistics.median(values))
    return float(sorted(values)[nearest_rank(p, n) - 1])


@dataclass(frozen=True)
class Summary:
    """Median, and the highest allowed tail percentile, of one timing."""

    n: int
    p50: float
    tail_p: Optional[float]
    tail: Optional[float]

    def describe(self, unit: str) -> str:
        text = f"p50 {self.p50:.6g} {unit} (n={self.n})"
        if self.tail_p is not None:
            text += f", p{self.tail_p:g} {self.tail:.6g} {unit} (n={self.n})"
        return text


def summarize(values: Sequence[float]) -> Summary:
    tail_p = tail_percentile(len(values))
    tail = percentile(values, tail_p) if tail_p is not None else None
    return Summary(len(values), percentile(values, 50.0), tail_p, tail)


@dataclass
class Tally:
    """Attempted and failed operations, with the first few failure reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: List[str] = field(default_factory=list)
    by_kind: Dict[str, List[int]] = field(default_factory=dict)

    def record(self, kind: str, ok: bool, reason: str = "") -> None:
        self.attempted += 1
        counts = self.by_kind.setdefault(kind, [0, 0])
        counts[0] += 1
        if not ok:
            self.failed += 1
            counts[1] += 1
            if len(self.reasons) < 20:
                self.reasons.append(f"{kind}: {reason}")

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def describe(self) -> str:
        return f"failed_ratio {self.failed_ratio:.6g} ({self.failed} failed of {self.attempted} attempted)"

