"""The one configuration object behind every inference path.

The repo runs one BNN datapath three ways — the interpreted
XNOR/popcount reference, precompiled BLAS plans and a shared-memory
process pool. FINN's lesson is that one compiled representation should
feed every deployment target; :class:`ExecutionConfig` is the single
frozen value that names a target, and :mod:`repro.runtime.registry`
maps it to an engine.

The dataclass is frozen and hashable on purpose: accelerators cache one
engine instance per distinct config, so repeated ``predict`` calls with
the same config reuse plan caches, arenas and worker pools.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Optional, Tuple

__all__ = ["ExecutionConfig"]

_ISOLATIONS = ("none", "process")


@dataclass(frozen=True)
class ExecutionConfig:
    """Every knob of the inference runtime, in one frozen value.

    * ``engine`` — pin a registered engine by name (``"interpreted"``
      names the reference datapath); ``None`` lets the registry resolve
      one from the remaining fields (the normal case).
    * ``isolation`` / ``workers`` — ``"process"`` fans batches over a
      shared-memory :class:`~repro.parallel.ProcessPool` of ``workers``
      processes; ``workers`` is meaningless (and rejected) without it.
    * ``chunk_size`` — bound how many images flow through the
      interpreted engine at once (memory ceiling for coalesced serving
      batches). The planned engine needs no such bound: its pieces
      never exceed ``max_batch``.
    * ``max_batch`` — the planned engine's piece ceiling: every batch
      runs as pieces of ``max_batch`` and smaller powers of two (see
      :func:`~repro.parallel.bucketing.split_batch`). Also the process
      pool's largest batch.
    * ``bucket_sizes`` / ``slots`` — batch-shape buckets and ring
      sizing for the process pool.
    * ``trace_sample`` — telemetry binding: sample every Nth pool task
      into the worker span journals (``None`` = tracing off in workers).
    """

    engine: Optional[str] = None
    isolation: str = "none"
    workers: Optional[int] = None
    chunk_size: Optional[int] = None
    bucket_sizes: Optional[Tuple[int, ...]] = None
    max_batch: int = 32
    slots: Optional[int] = None
    trace_sample: Optional[int] = None

    def __post_init__(self) -> None:
        if self.isolation not in _ISOLATIONS:
            raise ValueError(
                f"isolation must be one of {_ISOLATIONS}, "
                f"got {self.isolation!r}"
            )
        for name in ("workers", "chunk_size", "max_batch", "slots",
                     "trace_sample"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        if self.workers is not None and self.isolation != "process":
            raise ValueError(
                "workers sizes the process pool and needs "
                f"isolation='process', got isolation={self.isolation!r}"
            )
        if self.bucket_sizes is not None:
            object.__setattr__(
                self, "bucket_sizes", tuple(int(b) for b in self.bucket_sizes)
            )

    def merged(self, **overrides) -> "ExecutionConfig":
        """A copy with the non-``None`` overrides applied."""
        updates = {k: v for k, v in overrides.items() if v is not None}
        return replace(self, **updates) if updates else self

    def describe(self) -> dict:
        """JSON-ready field dump (for ``repro engines`` and logs)."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = list(value) if isinstance(value, tuple) else value
        return out
