"""Host CPU topology: how much process parallelism is actually available.

The repository benchmark and the process pool both need an honest
picture of the machine they run on: logical CPU count, *physical* cores
(SMT siblings share execution ports, so two hyperthreads running the
XNOR GEMM are nowhere near two cores), and a sensible default worker
count.
Everything here is best-effort and dependency-free — on hosts where
``/proc`` or ``sched_getaffinity`` is unavailable the logical count is
the fallback.
"""

from __future__ import annotations

import os
from typing import Dict, Optional

__all__ = [
    "logical_cpu_count",
    "physical_cpu_count",
    "recommended_workers",
    "host_info",
]


def logical_cpu_count() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # pragma: no cover - non-Linux hosts
        return os.cpu_count() or 1


def physical_cpu_count() -> Optional[int]:
    """Physical core count, or ``None`` when the host does not say.

    Parsed from ``/proc/cpuinfo`` by counting distinct
    ``(physical id, core id)`` pairs — the standard Linux recipe. Hosts
    without cpuinfo topology fields (containers, exotic kernels) return
    ``None`` rather than guessing.
    """
    try:
        text = open("/proc/cpuinfo", "r", encoding="ascii").read()
    except OSError:  # pragma: no cover - no procfs
        return None
    cores = set()
    phys_id = core_id = None
    for line in text.splitlines():
        if ":" not in line:
            phys_id = core_id = None
            continue
        key, _, value = line.partition(":")
        key = key.strip()
        if key == "physical id":
            phys_id = value.strip()
        elif key == "core id":
            core_id = value.strip()
        if phys_id is not None and core_id is not None:
            cores.add((phys_id, core_id))
            phys_id = core_id = None
    return len(cores) or None


def recommended_workers(cap: int = 4) -> int:
    """Default process-pool size: physical cores, capped, at least one.

    Capped because the simulator's per-image work is small enough that
    queue/IPC overheads dominate past a handful of workers, and because
    the parent process itself needs a core to feed them.
    """
    if cap <= 0:
        raise ValueError(f"cap must be positive, got {cap}")
    cores = physical_cpu_count() or logical_cpu_count()
    return max(1, min(cap, cores))


def host_info() -> Dict:
    """The host record benchmarks embed next to their timings."""
    return {
        "cpu_count": os.cpu_count(),
        "logical_cpus": logical_cpu_count(),
        "physical_cores": physical_cpu_count(),
    }
