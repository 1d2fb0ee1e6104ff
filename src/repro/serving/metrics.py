"""Serving metrics: QPS, latency percentiles, batch histogram, counters.

One :class:`MetricsRegistry` is shared by every worker thread (all
mutation, including the per-section wall-time totals, is guarded by its
one lock, and all time comes from its one injected clock).
``snapshot()`` produces an immutable :class:`ServerStats` — the object
``InferenceServer.stats()`` returns — and :class:`StatsReporter` prints
one periodically from a daemon thread.

Percentiles and QPS are computed over a sliding window of the most
recent observations (``window`` entries), so a long-running server
reports current behaviour, not lifetime averages.
"""

from __future__ import annotations

import threading
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Optional

import numpy as np

from repro.utils.clock import MONOTONIC, Clock

__all__ = ["MetricsRegistry", "ServerStats", "StatsReporter"]

_PERCENTILES = (50.0, 95.0, 99.0)


@dataclass(frozen=True)
class ServerStats:
    """Immutable snapshot of a server's service statistics."""

    uptime_s: float
    queue_depth: int
    counters: Dict[str, int]
    qps: float
    latency_ms: Dict[str, float]  # p50/p95/p99/mean over the window
    queue_wait_ms: Dict[str, float]
    batch_histogram: Dict[int, int]  # executed batch size -> count
    section_totals_s: Dict[str, float]  # timed section -> total seconds

    @property
    def submitted(self) -> int:
        return self.counters.get("submitted", 0)

    @property
    def completed(self) -> int:
        return self.counters.get("completed", 0)

    @property
    def rejected(self) -> int:
        return self.counters.get("rejected", 0)

    @property
    def shed(self) -> int:
        return self.counters.get("shed", 0)

    @property
    def timed_out(self) -> int:
        return self.counters.get("timed_out", 0)

    @property
    def failed(self) -> int:
        return self.counters.get("failed", 0)

    @property
    def worker_restarts(self) -> int:
        """Pool worker processes respawned after dying mid-service."""
        return self.counters.get("pool_worker_restarts", 0)

    @property
    def requeued(self) -> int:
        """In-flight slots re-sent to a fresh worker after a death."""
        return self.counters.get("pool_requeued", 0)

    @property
    def mean_batch_size(self) -> float:
        total = sum(size * n for size, n in self.batch_histogram.items())
        batches = sum(self.batch_histogram.values())
        return total / batches if batches else 0.0

    def report(self) -> str:
        """Multi-line human-readable summary."""
        lines = [
            (
                f"serving {self.uptime_s:8.1f}s up | queue depth {self.queue_depth} | "
                f"{self.qps:,.0f} QPS (window)"
            ),
            (
                f"  requests: {self.submitted} submitted, "
                f"{self.completed} completed, {self.rejected} rejected, "
                f"{self.shed} shed, {self.timed_out} timed out, "
                f"{self.failed} failed"
            ),
        ]
        if self.latency_ms:
            lines.append(
                "  latency ms: "
                + ", ".join(f"{k}={v:.2f}" for k, v in self.latency_ms.items())
            )
        if self.queue_wait_ms:
            lines.append(
                "  queue wait ms: "
                + ", ".join(f"{k}={v:.2f}" for k, v in self.queue_wait_ms.items())
            )
        if self.batch_histogram:
            hist = ", ".join(
                f"{size}x{count}"
                for size, count in sorted(self.batch_histogram.items())
            )
            lines.append(
                f"  batches (size x count): {hist} "
                f"(mean size {self.mean_batch_size:.1f})"
            )
        extra = {
            k: v
            for k, v in self.counters.items()
            if k
            not in (
                "submitted",
                "completed",
                "rejected",
                "shed",
                "timed_out",
                "failed",
            )
            and v
        }
        if extra:
            lines.append(
                "  counters: " + ", ".join(f"{k}={v}" for k, v in sorted(extra.items()))
            )
        return "\n".join(lines)


def _distribution(values) -> Dict[str, float]:
    if not values:
        return {}
    arr = np.asarray(values, dtype=np.float64) * 1e3  # -> ms
    out = {f"p{int(p)}": float(np.percentile(arr, p)) for p in _PERCENTILES}
    out["mean"] = float(arr.mean())
    return out


class MetricsRegistry:
    """Thread-safe accumulator for the serving layer's observability."""

    def __init__(
        self,
        window: int = 4096,
        clock: Clock = MONOTONIC,
    ) -> None:
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self.clock = clock
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._section_totals: Dict[str, float] = {}  # seconds
        self._latencies: deque = deque(maxlen=window)  # seconds
        self._waits: deque = deque(maxlen=window)  # seconds
        self._completion_marks: deque = deque(maxlen=window)  # monotonic stamps
        self._batch_histogram: Dict[int, int] = {}
        self._started_at = clock.monotonic()

    # -- recording -----------------------------------------------------------
    def increment(self, name: str, n: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + n

    def _add_section(self, name: str, seconds: float) -> None:
        # Caller holds self._lock.
        self._section_totals[name] = self._section_totals.get(name, 0.0) + seconds

    @contextmanager
    def section(self, name: str) -> Iterator[None]:
        """Add the wall time of a ``with`` block to section ``name``.

        The lock is held only for the bookkeeping, never across the
        timed body, so concurrent sections run in parallel.
        """
        start = self.clock.monotonic()
        try:
            yield
        finally:
            elapsed = self.clock.monotonic() - start
            with self._lock:
                self._add_section(name, elapsed)

    def observe_completion(self, latency_s: float) -> None:
        """A request completed end-to-end in ``latency_s`` seconds."""
        now = self.clock.monotonic()
        with self._lock:
            self._counters["completed"] = self._counters.get("completed", 0) + 1
            self._latencies.append(latency_s)
            self._completion_marks.append(now)
            self._add_section("request.latency", latency_s)

    def observe_queue_wait(self, wait_s: float) -> None:
        with self._lock:
            self._waits.append(wait_s)
            self._add_section("request.queue_wait", wait_s)

    def observe_batch(self, size: int) -> None:
        """A micro-batch of ``size`` requests was executed."""
        with self._lock:
            self._batch_histogram[size] = self._batch_histogram.get(size, 0) + 1

    # -- reading -------------------------------------------------------------
    def counter(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    def snapshot(self, queue_depth: int = 0) -> ServerStats:
        now = self.clock.monotonic()
        with self._lock:
            counters = dict(self._counters)
            latencies = list(self._latencies)
            waits = list(self._waits)
            marks = list(self._completion_marks)
            histogram = dict(self._batch_histogram)
            section_totals = dict(self._section_totals)
            uptime = now - self._started_at
        if len(marks) >= 2 and marks[-1] > marks[0]:
            qps = (len(marks) - 1) / (marks[-1] - marks[0])
        elif marks and uptime > 0:
            qps = len(marks) / uptime
        else:
            qps = 0.0
        return ServerStats(
            uptime_s=uptime,
            queue_depth=int(queue_depth),
            counters=counters,
            qps=float(qps),
            latency_ms=_distribution(latencies),
            queue_wait_ms=_distribution(waits),
            batch_histogram=histogram,
            section_totals_s=section_totals,
        )


class StatsReporter:
    """Daemon thread emitting a stats report every ``interval_s``.

    ``source`` is any zero-arg callable returning a :class:`ServerStats`
    (typically ``server.stats``); ``sink`` receives the rendered report
    string (default: ``print``).
    """

    def __init__(
        self,
        source: Callable[[], ServerStats],
        interval_s: float = 1.0,
        sink: Callable[[str], None] = print,
    ) -> None:
        if interval_s <= 0:
            raise ValueError(f"interval_s must be positive, got {interval_s}")
        self._source = source
        self._sink = sink
        self.interval_s = float(interval_s)
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "StatsReporter":
        if self._thread is not None:
            raise RuntimeError("reporter already started")
        self._thread = threading.Thread(
            target=self._run, name="serving-stats-reporter", daemon=True
        )
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self._sink(self._source().report())

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None
