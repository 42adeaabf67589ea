"""Small measurement helpers: percentiles, span self time, open-loop latency."""

from __future__ import annotations

import math
from pathlib import Path

#: Percentiles a tail may be reported at, highest first.
TAIL_CANDIDATES = (99.0, 90.0, 80.0)


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank ``p``-th percentile (the smallest value with at
    least ``p`` percent of the sample at or below it)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(n: int, p: float) -> int:
    """How many of ``n`` samples lie beyond the nearest-rank ``p``-th percentile."""
    return n - max(1, math.ceil(p / 100.0 * n))


def tail_percentile(n: int, candidates=TAIL_CANDIDATES, min_beyond: int = 10) -> float | None:
    """The highest candidate percentile with ``min_beyond`` samples past it.

    None when even the lowest candidate has too few samples beyond it.
    """
    for p in candidates:
        if beyond(n, p) >= min_beyond:
            return p
    return None


def median(values: list[float]) -> float:
    return percentile(values, 50.0)


def self_time(start: float, end: float, children: list[tuple[float, float]]) -> float:
    """``end - start`` minus the part of it covered by child intervals.

    Children may overlap each other (batch members run on a thread
    pool) and may stick out of the parent; only the union of their
    intersection with ``[start, end]`` is subtracted.
    """
    covered = 0.0
    reach = start
    for child_start, child_end in sorted(children):
        lo = max(child_start, reach)
        hi = min(child_end, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return (end - start) - covered


def due_latencies(due: list[float], done: list[float]) -> list[float]:
    """Open-loop latency: completion time minus the time the request was due.

    Timing from the due time rather than the send time charges a stall
    to every request it delayed, not just to the one that met it.
    """
    if len(due) != len(done):
        raise ValueError("due and done must pair up")
    return [finish - scheduled for scheduled, finish in zip(due, done)]


def lateness(due: list[float], sent: list[float]) -> list[float]:
    """How late the generator sent each request (0 when on time)."""
    return [max(0.0, at - scheduled) for scheduled, at in zip(due, sent)]


def overlaps(interval: tuple[float, float], others: list[tuple[float, float]]) -> bool:
    start, end = interval
    return any(lo < end and start < hi for lo, hi in others)


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")
