"""The two workloads: inputs, set-up, the timed window, the traced window.

The program is driven only through its public calls:
``FinnAccelerator.predict``, ``InferenceServer.submit`` and ``.stats()``,
and ``PlanCache.stats()``. Import this module only after the BLAS thread
count is pinned (``run.py`` does that).

* ``crowd`` — closed loop, one caller, n-CNV. Each frame is one
  ``predict`` call on a seeded, heavy-tailed number of face tiles.
* ``hub`` — open loop, Poisson arrivals at a rate well under capacity,
  µ-CNV behind ``InferenceServer.from_accelerator`` with the default
  ``ServingConfig``.
"""

from __future__ import annotations

import gc
import statistics
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from measure import SLICES, drive_open_loop, due_latency
from repro.core.architectures import build_architecture, table1_folding
from repro.hw.compiler import compile_model
from repro.hw.pipeline import analyze_pipeline
from repro.runtime import ExecutionConfig
from repro.serving import InferenceServer
from repro.serving.loadgen import face_tile_pool
from repro.serving.request import RequestStatus
from repro.telemetry import SpanJournal, Tracer, activate, deactivate
from repro.testing import randomize_bn_stats
from repro.utils.clock import MONOTONIC

ARCH = {"crowd": "n-cnv", "hub": "u-cnv"}
HUB_RATE_HZ = 300.0

N_TILES = 64
SETUP_REPEATS = 25
SETUP_GAP_S = 0.15
WARMUP_IMAGES = 32
FRAME_MEAN_FACES = 32
FRAME_MAX_FACES = 200
FRAME_SIGMA = 1.0
FRAME_BLOCK = 200
CLOCK_MHZ = 100.0
TRACE_SEGMENT_S = 1.0
DRAIN_TIMEOUT_S = 60.0


# -- inputs and set-up ---------------------------------------------------------


def render_tiles(seed: int) -> np.ndarray:
    """The face crops every workload draws from (not part of set-up time)."""
    return face_tile_pool(N_TILES, rng=np.random.default_rng([seed, 1]))


def build_accelerator(arch: str):
    """An untrained Table I model with non-degenerate thresholds, compiled."""
    model = build_architecture(arch, rng=0)
    randomize_bn_stats(model, seed=1)
    return compile_model(model, table1_folding(arch), name=arch)


def reference_labels(arch: str, tiles: np.ndarray) -> np.ndarray:
    """Labels from the interpreted engine, pinned by name: the output check."""
    acc = build_accelerator(arch)
    return np.asarray(
        acc.predict(tiles, execution=ExecutionConfig(engine="interpreted"))
    )


def modelled(acc) -> Tuple[Tuple[Tuple[str, int], ...], float]:
    """Per-stage modelled II and calibrated FPS: simulated, so exact."""
    return (
        tuple(acc.stage_intervals()),
        float(analyze_pipeline(acc, CLOCK_MHZ).fps_calibrated),
    )


@dataclass
class Deployment:
    workload: str
    accelerator: object
    server: Optional[InferenceServer]
    setup_s: List[float]
    modelled: Tuple

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()


def _deploy_once(workload: str, tiles: np.ndarray):
    """Build, compile, start and warm up.

    Returns (accelerator, server, seconds). The seconds cover build,
    compile and server start; the warm-up that follows is not timed. On
    ``hub`` it drains 32 requests through the batcher, and how long that
    takes depends on which worker thread takes which batch: it fell
    either near 18 ms or near 30 ms, so it flipped the median of a run.
    Plan compiles on first use are paid in the window on both workloads,
    where the plan cache misses anyway.
    """
    t0 = time.perf_counter()
    acc = build_accelerator(ARCH[workload])
    if workload == "crowd":
        seconds = time.perf_counter() - t0
        acc.predict(tiles[:WARMUP_IMAGES])
        return acc, None, seconds
    server = InferenceServer.from_accelerator(acc).start()
    seconds = time.perf_counter() - t0
    try:
        handles = [server.submit(tile) for tile in tiles[:WARMUP_IMAGES]]
        for handle in handles:
            handle.result(timeout=DRAIN_TIMEOUT_S)
    except BaseException:
        server.stop()
        raise
    return acc, server, seconds


def set_up(workload: str, tiles: np.ndarray) -> Deployment:
    """Deploy :data:`SETUP_REPEATS` times, keep the last, time each.

    The repeats are :data:`SETUP_GAP_S` apart, so that they sample several
    of the host's fast and slow spells rather than one. Every repeat must
    model the same per-stage II and FPS; a mismatch means simulated
    statistics depend on something other than the model.
    """
    times: List[float] = []
    models = set()
    server = None
    for repeat in range(SETUP_REPEATS):
        if server is not None:
            server.stop()
        if repeat:
            time.sleep(SETUP_GAP_S)
        # Free the previous deployment (plan arenas sit in reference
        # cycles) before timing, so no repeat pays for another's garbage
        # and the kept deployment starts from the same resident memory.
        acc = server = None
        gc.collect()
        acc, server, seconds = _deploy_once(workload, tiles)
        times.append(seconds)
        models.add(modelled(acc))
    if len(models) != 1:
        if server is not None:
            server.stop()
        raise RuntimeError(f"modelled II/FPS differ between set-ups: {models}")
    return Deployment(workload, acc, server, times, models.pop())


# -- peak memory per slice -------------------------------------------------------


def _vm_hwm_mib() -> float:
    """This process's resident-set high-water mark (VmHWM), in MiB."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError("no VmHWM in /proc/self/status")


class SlicePeaks:
    """Peak resident memory of each slice of the window (Linux).

    The kernel's high-water mark is read and restarted (``clear_refs``)
    at every slice boundary, so one slice's peak does not carry over.
    """

    def __init__(self, window_s: float) -> None:
        self.width = window_s / SLICES
        self.peaks_mib: List[float] = []
        self._slice = 0
        self._restart()

    @staticmethod
    def _restart() -> None:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")

    def at(self, offset_s: float) -> None:
        """Note progress; closes the current slice once ``offset_s`` leaves it."""
        if int(offset_s // self.width) > self._slice and len(self.peaks_mib) < SLICES - 1:
            self.close_slice()

    def close_slice(self) -> None:
        self.peaks_mib.append(_vm_hwm_mib())
        self._slice += 1
        self._restart()


# -- probes for the traced run -------------------------------------------------


@dataclass
class Probe:
    """Public counters at one instant (a boundary between stretches)."""

    wall_s: float
    cpu_s: float
    faces: int
    plans: Dict
    server: Optional[object]


class Stretches:
    """Alternates untraced and traced stretches of :data:`TRACE_SEGMENT_S`.

    In a trace run, counters and externally timed figures come from the
    untraced stretches, spans from the traced ones; comparing CPU time per
    face between the two gives the tracing overhead.
    """

    def __init__(self, tracer: Tracer, probe: Callable[[], Probe]) -> None:
        self.tracer = tracer
        self._probe = probe
        self.current: Optional[bool] = None
        self.marks: List[Tuple[Optional[bool], Probe]] = []

    @staticmethod
    def traced_at(offset_s: float) -> bool:
        return int(offset_s // TRACE_SEGMENT_S) % 2 == 1

    def enter(self, offset_s: float) -> None:
        traced = self.traced_at(offset_s)
        if traced is not self.current:
            self.marks.append((self.current, self._probe()))
            if traced:
                activate(self.tracer)
            else:
                deactivate()
            self.current = traced

    def close(self) -> None:
        self.marks.append((self.current, self._probe()))
        deactivate()

    def pairs(self, traced: bool) -> List[Tuple[Probe, Probe]]:
        """(start, end) probes of every stretch with this tracing state."""
        return [
            (self.marks[i][1], self.marks[i + 1][1])
            for i in range(len(self.marks) - 1)
            if self.marks[i + 1][0] is traced
        ]


def make_tracer() -> Tracer:
    return Tracer(sample_every=1, journal=SpanJournal(capacity_per_thread=1 << 20))


# -- the measured window -------------------------------------------------------


@dataclass
class Window:
    """Raw outcome of one measured window, one entry per operation.

    An operation is a frame (``crowd``) or a request (``hub``);
    ``t_s`` is when it started or was due, from the start of the window.
    """

    window_s: float
    t_s: List[float] = field(default_factory=list)
    faces: List[int] = field(default_factory=list)  # classified, else 0
    latency_s: List[Optional[float]] = field(default_factory=list)  # None unless correct
    mismatched: int = 0
    refused: int = 0  # rejected or shed: the server's backpressure answer
    errored: int = 0  # failed, timed out or never resolved
    # Externally timed, untraced stretches only (servers).
    submit_s: List[float] = field(default_factory=list)
    late_s: List[float] = field(default_factory=list)
    queue_wait_s: List[float] = field(default_factory=list)
    peaks_mib: List[float] = field(default_factory=list)  # per slice
    stretches: Optional[Stretches] = None
    journal: Optional[SpanJournal] = None

    @property
    def attempted(self) -> int:
        return len(self.t_s)

    @property
    def completed(self) -> int:
        return sum(1 for f in self.faces if f)


def frame_sizes(gen: np.random.Generator):
    """Heavy-tailed faces per frame, stratified in blocks.

    Each block of :data:`FRAME_BLOCK` frames holds the block's quantiles of
    a log-normal around :data:`FRAME_MEAN_FACES`, clipped to
    [1, :data:`FRAME_MAX_FACES`], in a seeded order. Every seed thus offers
    the same mix of frame sizes, in a different order; the order decides
    which plans the shape-keyed plan cache holds at once.
    """
    mu = np.log(FRAME_MEAN_FACES) - FRAME_SIGMA**2 / 2
    z = np.array([
        statistics.NormalDist().inv_cdf((k + 0.5) / FRAME_BLOCK) for k in range(FRAME_BLOCK)
    ])
    block = np.clip(np.rint(np.exp(mu + FRAME_SIGMA * z)), 1, FRAME_MAX_FACES)
    while True:
        for n in gen.permutation(block.astype(int)):
            yield int(n)


def run_crowd(
    dep: Deployment, tiles: np.ndarray, reference: np.ndarray, seed: int,
    seconds: float, trace: bool,
) -> Window:
    acc = dep.accelerator
    gen = np.random.default_rng([seed, 2])
    sizes = frame_sizes(gen)
    state = {"faces": 0}
    stretches = None
    if trace:
        stretches = Stretches(make_tracer(), lambda: Probe(
            time.perf_counter(), time.process_time(), state["faces"],
            acc.plans.stats(), None))
    peaks = SlicePeaks(seconds)
    start = time.perf_counter()
    end = start + seconds
    win = Window(window_s=seconds, stretches=stretches)
    now = start
    while now < end:
        idx = gen.integers(0, len(tiles), next(sizes))
        frame = tiles[idx]
        peaks.at(now - start)
        if stretches is not None:
            stretches.enter(now - start)
        t0 = time.perf_counter()
        labels = acc.predict(frame)
        now = time.perf_counter()
        state["faces"] += len(idx)
        win.t_s.append(t0 - start)
        win.faces.append(len(idx))
        if np.array_equal(labels, reference[idx]):
            win.latency_s.append(now - t0)
        else:
            win.mismatched += 1
            win.latency_s.append(None)
    peaks.close_slice()
    win.peaks_mib = peaks.peaks_mib
    if stretches is not None:
        stretches.close()
        win.journal = stretches.tracer.journal
    return win


def arrival_offsets(rate_hz: float, gen: np.random.Generator, seconds: float):
    """Due times of Poisson arrivals at ``rate_hz`` within the window."""
    gaps = gen.exponential(1.0 / rate_hz, int(rate_hz * seconds * 1.2) + 64)
    offsets = np.cumsum(gaps)
    return offsets[offsets < seconds]


OK, MISMATCH, REFUSED, ERROR = 1, 2, 3, 4
HARVEST_EVERY = 64


def run_served(
    dep: Deployment, tiles: np.ndarray, reference: np.ndarray, seed: int,
    seconds: float, trace: bool,
) -> Window:
    server = dep.server
    gen = np.random.default_rng([seed, 3])
    offsets = arrival_offsets(HUB_RATE_HZ, gen, seconds)
    n = len(offsets)
    tile_idx = gen.integers(0, len(tiles), n)

    # Outcomes are harvested as requests resolve, so the benchmark holds
    # a few hundred handles rather than every request of the window.
    code = np.zeros(n, np.int8)
    service_s = np.full(n, np.nan)
    queue_wait_s = np.full(n, np.nan)
    pending: deque = deque()

    def harvest(until: Optional[float] = None) -> None:
        while pending:
            i, handle = pending[0]
            if not handle.done:
                if until is None:
                    return
                handle.wait(timeout=max(0.0, until - time.monotonic()))
            pending.popleft()
            status = handle.status
            if status is RequestStatus.COMPLETED:
                service_s[i] = handle.latency_s
                queue_wait_s[i] = handle.queue_wait_s
                code[i] = OK if handle.label == reference[tile_idx[i]] else MISMATCH
            elif status in (RequestStatus.REJECTED, RequestStatus.SHED):
                code[i] = REFUSED
            else:
                code[i] = ERROR

    def submit(i: int) -> None:
        pending.append((i, server.submit(tiles[tile_idx[i]])))

    stretches = None
    if trace:

        def probe() -> Probe:
            stats = server.stats()
            return Probe(time.perf_counter(), time.process_time(),
                         stats.completed, dep.accelerator.plans.stats(), stats)

        stretches = Stretches(make_tracer(), probe)

    peaks = SlicePeaks(seconds)

    def before_send(i: int, offset: float) -> None:
        peaks.at(offset)
        if stretches is not None:
            stretches.enter(offset)
        if i % HARVEST_EVERY == 0:
            harvest()

    run = drive_open_loop(offsets.tolist(), submit, MONOTONIC, before_send)
    harvest(until=time.monotonic() + DRAIN_TIMEOUT_S)
    peaks.close_slice()
    if stretches is not None:
        stretches.close()

    due, sent = np.frombuffer(run.due_s), np.frombuffer(run.sent_s)
    late = sent - due
    latency = due_latency(due, sent, service_s)
    done = (code == OK) | (code == MISMATCH)
    ok = code == OK
    untraced = np.ones(n, bool)
    if trace:
        untraced = (offsets // TRACE_SEGMENT_S) % 2 == 0
    return Window(
        window_s=seconds,
        t_s=offsets.tolist(),
        faces=done.astype(int).tolist(),
        latency_s=[lat if k else None for lat, k in zip(latency.tolist(), ok)],
        mismatched=int((code == MISMATCH).sum()),
        refused=int((code == REFUSED).sum()),
        errored=int(((code == ERROR) | (code == 0)).sum()),
        submit_s=np.frombuffer(run.submit_s)[untraced].tolist(),
        late_s=late[untraced].tolist(),
        queue_wait_s=queue_wait_s[done & untraced].tolist(),
        peaks_mib=peaks.peaks_mib,
        stretches=stretches,
        journal=stretches.tracer.journal if stretches else None,
    )


def run_window(dep, tiles, reference, seed, seconds, trace) -> Window:
    runner = run_crowd if dep.workload == "crowd" else run_served
    return runner(dep, tiles, reference, seed, seconds, trace)


def sgemm_ms(repeats: int = 25, n: int = 256) -> float:
    """Median time of one fixed float32 GEMM: the host calibration kernel."""
    gen = np.random.default_rng(0)
    a = gen.standard_normal((n, n), dtype=np.float32)
    b = gen.standard_normal((n, n), dtype=np.float32)
    out = np.empty((n, n), dtype=np.float32)
    times = []
    for _ in range(repeats + 3):
        t0 = time.perf_counter()
        np.matmul(a, b, out=out)
        times.append(time.perf_counter() - t0)
    return statistics.median(times[3:]) * 1e3

