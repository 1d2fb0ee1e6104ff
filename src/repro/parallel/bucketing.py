"""Batch-shape bucketing: a fixed set of batch geometries for plan reuse.

An :class:`~repro.hw.plan.ExecutionPlan` is compiled per batch size, so
a workload whose batches arrive at arbitrary sizes (7, 13, 31, ...)
would churn the plan LRU and pay a recompile on almost every call. Both
planned paths therefore map every batch onto a small fixed set of sizes
(powers of two up to ``max_batch`` by default), in one of two ways:

* **pad** (:func:`pad_to_bucket`, the process pool): round the batch
  *up* to the nearest bucket, filling the tail with zero images. One
  plan call per batch; the pad rows cost compute.
* **split** (:func:`split_batch`, the in-process planned engine): cut
  the batch into pieces whose sizes are all in the set — as many full
  ``max_batch`` pieces as fit, then the binary digits of the remainder.
  No pad rows, at the price of up to ``log2(max_batch)`` extra plan
  calls.

Either way is legal because every planned stage is row-wise in the
batch axis: im2col, the GEMM lowering, thresholding and pooling all
treat image ``i``'s rows independently of image ``j``'s, so logits
``[:n_valid]`` of a padded batch — and each piece of a split one — are
bit-identical to the unpadded run (pinned by ``tests/test_parallel.py``
and ``tests/test_runtime_contract.py``). With ``K`` sizes a thread
compiles at most ``K`` plans ever, regardless of traffic shape.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Sequence, Tuple

import numpy as np

__all__ = [
    "default_buckets",
    "validate_buckets",
    "bucket_for",
    "pad_to_bucket",
    "split_batch",
]


def default_buckets(max_batch: int) -> Tuple[int, ...]:
    """Powers of two up to ``max_batch``, plus ``max_batch`` itself."""
    if max_batch <= 0:
        raise ValueError(f"max_batch must be positive, got {max_batch}")
    buckets = []
    b = 1
    while b < max_batch:
        buckets.append(b)
        b *= 2
    buckets.append(max_batch)
    return tuple(buckets)


def validate_buckets(buckets: Sequence[int], max_batch: int) -> Tuple[int, ...]:
    """Normalised ``buckets`` (sorted, unique) or a raised ``ValueError``.

    The largest bucket must cover ``max_batch`` — otherwise some formed
    batch would have no geometry to round up to.
    """
    out = sorted({int(b) for b in buckets})
    if not out:
        raise ValueError("buckets must not be empty")
    if out[0] <= 0:
        raise ValueError(f"buckets must be positive, got {out[0]}")
    if out[-1] < max_batch:
        raise ValueError(
            f"largest bucket {out[-1]} does not cover max_batch {max_batch}"
        )
    return tuple(out)


def bucket_for(n: int, buckets: Sequence[int]) -> int:
    """The smallest bucket that holds ``n`` items."""
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    for b in buckets:
        if b >= n:
            return b
    raise ValueError(f"no bucket in {tuple(buckets)} holds {n} items")


def pad_to_bucket(
    images: np.ndarray, buckets: Sequence[int]
) -> Tuple[np.ndarray, int]:
    """``(padded_batch, n_valid)`` — rounds the batch up with zero rows.

    Returns the input untouched (no copy) when it already sits on a
    bucket boundary. Zero pixels are valid in both input domains the
    datapath accepts (uint8 ``[0, 255]`` and float ``[0, 1]``), so the
    pad rows flow through the plan as ordinary — discarded — images.
    """
    n = images.shape[0]
    bucket = bucket_for(n, buckets)
    if bucket == n:
        return images, n
    pad = np.zeros((bucket - n,) + images.shape[1:], dtype=images.dtype)
    return np.concatenate([images, pad], axis=0), n


def split_batch(n: int, max_batch: int) -> Tuple[Tuple[int, int], ...]:
    """``(start, stop)`` pieces that tile ``n`` items, largest first.

    Every piece size is in :func:`default_buckets` (``max_batch``): as
    many full ``max_batch`` pieces as fit, then one power of two per set
    bit of the remainder. So with ``max_batch=32``, 200 splits as
    6×32 + 8, 31 as 16+8+4+2+1 and 70 as 32+32+4+2; 0 yields no piece.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if max_batch <= 0:
        raise ValueError(f"max_batch must be positive, got {max_batch}")
    full, rest = divmod(n, max_batch)
    sizes = [max_batch] * full + [
        1 << bit for bit in reversed(range(rest.bit_length())) if rest >> bit & 1
    ]
    stops = tuple(accumulate(sizes))
    return tuple(zip((0,) + stops[:-1], stops))
