"""Dynamic micro-batching: coalesce requests by size *or* deadline.

FINN-style streaming accelerators (and, less dramatically, numpy GEMMs)
reach their rated throughput only when fed full batches — but a gate
camera submits one face at a time. The micro-batcher resolves the
tension: a batch closes as soon as it holds ``max_batch_size`` requests
(**size trigger**, the bulk-throughput path) or once ``max_wait_ms`` has
elapsed since its first request (**deadline trigger**, bounding the
latency a lone request can pay to at most the wait window plus one
inference).

Requests whose per-request deadline expires while queued are resolved as
TIMED_OUT here, at collection time — they never occupy a batch slot.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.serving.admission import AdmissionQueue
from repro.serving.request import InferenceRequest, RequestStatus
from repro.utils.clock import MONOTONIC, Clock

__all__ = ["MicroBatcher"]


class MicroBatcher:
    """Pulls from the admission queue, emits coalesced micro-batches.

    Multiple workers may call :meth:`next_batch` concurrently — the
    underlying queue hands each popped request to exactly one caller, so
    batches never share requests.
    """

    def __init__(
        self,
        queue: AdmissionQueue,
        max_batch_size: int = 32,
        max_wait_ms: float = 5.0,
        on_timeout: Optional[Callable[[InferenceRequest], None]] = None,
        clock: Clock = MONOTONIC,
    ) -> None:
        if max_batch_size <= 0:
            raise ValueError(
                f"max_batch_size must be positive, got {max_batch_size}"
            )
        if max_wait_ms < 0:
            raise ValueError(f"max_wait_ms must be >= 0, got {max_wait_ms}")
        self.queue = queue
        self.max_batch_size = int(max_batch_size)
        self.max_wait_s = float(max_wait_ms) / 1e3
        self._on_timeout = on_timeout
        self._clock = clock

    def _admit(self, request: InferenceRequest, batch: List[InferenceRequest]) -> None:
        """Add a live request to the batch; expire/skip dead ones."""
        if request.status is not RequestStatus.PENDING:
            return  # cancelled while queued
        if request.expired(now=self._clock.monotonic()):
            if request.resolve(
                RequestStatus.TIMED_OUT, detail="deadline expired while queued"
            ):
                if self._on_timeout is not None:
                    self._on_timeout(request)
            return
        batch.append(request)

    def next_batch(
        self, poll_timeout_s: float = 0.05
    ) -> List[InferenceRequest]:
        """The next micro-batch (possibly empty if the queue stayed idle).

        Blocks up to ``poll_timeout_s`` for the *first* request; once one
        arrives, keeps collecting until the size trigger
        (``max_batch_size`` reached → returns immediately) or the
        deadline trigger (``max_wait_ms`` since the first admit) fires.
        """
        batch: List[InferenceRequest] = []
        close_at: Optional[float] = None
        while True:
            if close_at is None:
                request = self.queue.pop(timeout=poll_timeout_s)
                if request is None:
                    return batch  # idle poll expired (or queue closed)
            else:
                remaining = close_at - self._clock.monotonic()
                if remaining <= 0:
                    return batch  # deadline trigger
                request = self.queue.pop(timeout=remaining)
                if request is None:
                    if self.queue.closed or self._clock.monotonic() >= close_at:
                        return batch
                    continue  # spurious wakeup; deadline not reached yet
            self._admit(request, batch)
            if batch and close_at is None:
                close_at = self._clock.monotonic() + self.max_wait_s
            if len(batch) >= self.max_batch_size:
                return batch  # size trigger
