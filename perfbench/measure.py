"""Arithmetic of the benchmark: percentiles, goodput, spreads, open loop.

Pure Python, so that it can be tested without the program.

Rules kept here:

* A percentile is *supported* only when at least :data:`MIN_BEYOND`
  samples lie beyond it, so p99 needs 1000 samples and p50 needs 20.
* Open-loop latency runs from the moment a request was *due*, not from
  when the generator got round to sending it, so a generator stall is
  charged to every request it delayed. Generator lateness is reported
  on its own.
* Goodput counts requests answered correctly within the latency limit;
  a refused or failed request misses the limit.
"""

from __future__ import annotations

import math
import statistics
from array import array
from typing import Callable, List, NamedTuple, Optional, Sequence

__all__ = [
    "MIN_BEYOND",
    "LATENCY_LIMIT_S",
    "beyond_count",
    "percentile_supported",
    "spread",
    "SLICES",
    "slice_members",
    "slice_median",
    "due_latency",
    "goodput",
    "OpenLoop",
    "drive_open_loop",
]

#: Samples that must lie beyond a percentile before it is reported.
MIN_BEYOND = 10

#: Time slices of a window whose median a rate or percentile reports.
SLICES = 10

#: The latency limit behind ``goodput_rps``.
LATENCY_LIMIT_S = 0.100


def beyond_count(n: int, q: float) -> int:
    """Samples strictly above the ``q``-th percentile of ``n`` samples."""
    if n < 0 or not 0 <= q <= 100:
        raise ValueError(f"need n >= 0 and 0 <= q <= 100, got n={n}, q={q}")
    # Round before flooring so that 1000 * (1 - 0.99) counts as 10, not 9.
    return int(math.floor(round(n * (100.0 - q) / 100.0, 9)))


def percentile_supported(n: int, q: float) -> bool:
    """Whether ``n`` samples leave at least :data:`MIN_BEYOND` beyond ``q``."""
    return beyond_count(n, q) >= MIN_BEYOND


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (run-to-run noise)."""
    if len(values) < 2:
        raise ValueError("spread needs at least two values")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    if q2 == 0:
        raise ValueError("spread of values with a zero median")
    return (q3 - q1) / abs(q2)


def slice_members(
    t_s: Sequence[float], window_s: float, slices: int = SLICES
) -> List[List[int]]:
    """Indices of the operations starting in each equal slice of a window.

    ``t_s`` holds each operation's start (or due) time from the start of
    the window; a time past the end counts in the last slice.
    """
    if window_s <= 0 or slices <= 0:
        raise ValueError(
            f"need a positive window and slice count, got {window_s}, {slices}"
        )
    width = window_s / slices
    members: List[List[int]] = [[] for _ in range(slices)]
    for i, t in enumerate(t_s):
        members[min(max(int(t // width), 0), slices - 1)].append(i)
    return members


def slice_median(
    t_s: Sequence[float],
    window_s: float,
    metric: Callable[[List[int], float], float],
    slices: int = SLICES,
) -> float:
    """Median over equal time slices of ``metric(indices, slice_seconds)``.

    A disturbance shorter than a slice moves one slice, not the median.
    """
    members = slice_members(t_s, window_s, slices)
    return statistics.median(metric(m, window_s / slices) for m in members)


def due_latency(due_s: float, sent_s: float, service_s: float) -> float:
    """Latency as the arrival sees it: generator lateness plus service time."""
    return (sent_s - due_s) + service_s


def goodput(
    latencies_s: Sequence[Optional[float]],
    window_s: float,
    limit_s: float = LATENCY_LIMIT_S,
) -> float:
    """Requests per second answered within ``limit_s``.

    ``None`` marks a request that was refused, failed or answered wrongly;
    it misses the limit whatever its timing.
    """
    if window_s <= 0:
        raise ValueError(f"window_s must be positive, got {window_s}")
    met = sum(1 for lat in latencies_s if lat is not None and lat <= limit_s)
    return met / window_s


class OpenLoop(NamedTuple):
    """When each arrival was due, sent, and how long its submit call took."""

    due_s: array
    sent_s: array
    submit_s: array


def drive_open_loop(
    due_offsets_s: Sequence[float],
    submit: Callable[[int], object],
    clock,
    before_send: Optional[Callable[[int, float], None]] = None,
) -> OpenLoop:
    """Send arrival ``i`` at ``start + due_offsets_s[i]`` from one thread.

    The schedule is fixed in advance: when a send runs late, later
    arrivals keep their due times, so the backlog is sent as a burst and
    every delayed request is charged the delay. ``clock`` is a
    :class:`repro.utils.clock.Clock`. ``before_send(i, offset)`` runs just
    before arrival ``i`` is sent, outside the timed submit call.
    """
    run = OpenLoop(array("d"), array("d"), array("d"))
    start = clock.monotonic()
    for i, offset in enumerate(due_offsets_s):
        due = start + offset
        delay = due - clock.monotonic()
        if delay > 0:
            clock.sleep(delay)
        if before_send is not None:
            before_send(i, offset)
        sent = clock.monotonic()
        submit(i)
        run.due_s.append(due)
        run.sent_s.append(sent)
        run.submit_s.append(clock.monotonic() - sent)
    return run
