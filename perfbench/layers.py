"""Per-layer metrics of a trace run, and the closure of its spans.

Span figures (``hw.*``, ``runtime.*``, ``telemetry.spans_per_face``) come
from the journal of the traced stretches. Counters and externally timed
figures (``serving.*``, ``loadgen.*``, the plan cache) come from the
untraced stretches, so they match the untraced timed runs. A layer that a
workload does not run reports 0: ``serving.*`` and ``loadgen.*`` on
``crowd``, and the stages µ-CNV lacks (``conv3_2``, ``fc3``) on ``hub``.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Tuple

import numpy as np

#: Every stage name of the Table I models the workloads use (n-CNV, µ-CNV).
STAGES = (
    "conv1_1", "conv1_2", "conv2_1", "conv2_2", "conv3_1", "conv3_2",
    "fc1", "fc2", "fc3",
)

#: (name, unit, better) of every per-layer metric, in print order.
PER_LAYER: List[Tuple[str, str, str]] = (
    [
        (f"hw.{s}.{m}", unit, better)
        for s in STAGES
        for m, unit, better in (
            ("ms", "ms", "lower"),
            ("gops", "Gop/s", "higher"),
            ("ii_cycles", "cycles", "lower"),
        )
    ]
    + [
        ("hw.quantize_ms", "ms", "lower"),
        ("hw.plan.hit_ratio", "share", "higher"),
        ("hw.plan.misses", "count", "lower"),
        ("hw.plan.arena_mib", "MiB", "lower"),
        ("hw.model_fps", "1/s", "higher"),
        ("runtime.call_ms_p50", "ms", "lower"),
        ("runtime.dispatch_ms", "ms", "lower"),
        ("serving.submit_us_p99", "us", "lower"),
        ("serving.queue_wait_ms_p50", "ms", "lower"),
        ("serving.queue_wait_ms_p99", "ms", "lower"),
        ("serving.batch_size_mean", "images", "higher"),
        ("serving.infer_busy_share", "share", "higher"),
        ("telemetry.overhead_share", "share", "lower"),
        ("telemetry.spans_per_face", "spans/face", "lower"),
        ("loadgen.late_ms_p99", "ms", "lower"),
        ("loadgen.offered_rps", "1/s", "higher"),
        ("host.sgemm_ms", "ms", "lower"),
    ]
)


def _dur(span: Dict) -> float:
    return span["end_s"] - span["start_s"]


class SpanTree:
    """Durations of a journal snapshot, grouped by name and by parent."""

    def __init__(self, spans: List[Dict]) -> None:
        self.spans = spans
        self.by_name: Dict[str, List[Dict]] = defaultdict(list)
        self.child_s: Dict[int, float] = defaultdict(float)
        for span in spans:
            if span.get("end_s") is None:
                continue
            self.by_name[span["name"]].append(span)
            if span["parent_id"] is not None:
                self.child_s[span["parent_id"]] += _dur(span)

    def named(self, prefix: str) -> List[Dict]:
        return [s for n, ss in self.by_name.items() if n.startswith(prefix)
                for s in ss]

    def closure(self, prefix: str) -> Tuple[int, float, float]:
        """(calls, parent seconds, child seconds) over spans named ``prefix*``."""
        parents = self.named(prefix)
        return (
            len(parents),
            sum(_dur(s) for s in parents),
            sum(self.child_s[s["span_id"]] for s in parents),
        )


def _share(num: float, den: float) -> float:
    return num / den if den else 0.0


def _stretch_sum(pairs, fn) -> float:
    return sum(fn(a, b) for a, b in pairs)


def per_layer(acc, win, modelled, sgemm, workers: int) -> Tuple[Dict, List[str]]:
    """Per-layer metric values and the printed report lines of a trace run."""
    tree = SpanTree(win.journal.snapshot())
    stretches = win.stretches
    untraced = stretches.pairs(traced=False)
    traced = stretches.pairs(traced=True)
    values: Dict[str, float] = {}
    lines: List[str] = []

    # -- hw: per-stage self time against the modelled II ----------------------
    ii = dict(modelled[0])
    ops = {s.name: s.mvtu.ops_per_image(s.vectors_per_image) for s in acc.stages}
    n_plans, plan_s, stage_s = tree.closure("hw.plan")
    rows = []
    for name in STAGES:
        spans = tree.by_name.get(f"hw.{name}", [])
        secs = sum(_dur(s) for s in spans)
        images = sum(s["attributes"].get("images", 0) for s in spans)
        values[f"hw.{name}.ms"] = _share(secs, n_plans) * 1e3
        values[f"hw.{name}.gops"] = _share(ops.get(name, 0) * images, secs) / 1e9
        values[f"hw.{name}.ii_cycles"] = float(ii.get(name, 0))
        if name in ii:
            rows.append((name, secs, values[f"hw.{name}.gops"]))
    total_ii = sum(ii.values())
    lines.append(
        f"per-stage ({acc.name}, {n_plans} plan calls; share of the hw.plan "
        "span against share of the modelled II):"
    )
    lines.append(f"  {'stage':<8} {'ms/call':>9} {'share':>7} {'Gop/s':>8} "
                 f"{'II cyc':>7} {'II share':>8}")
    for name, secs, gops in rows:
        lines.append(
            f"  {name:<8} {_share(secs, n_plans) * 1e3:9.4f} "
            f"{_share(secs, plan_s):7.1%} {gops:8.2f} {ii[name]:7d} "
            f"{ii[name] / total_ii:8.1%}"
        )
    measured_top = max(rows, key=lambda r: r[1])[0] if rows else "-"
    modelled_top = max(ii, key=ii.get)
    lines.append(
        f"  bottleneck: measured {measured_top} | modelled {modelled_top} "
        f"({ii[modelled_top]} cycles, {modelled[1]:.2f} FPS modelled)"
    )
    values["hw.quantize_ms"] = _share(plan_s - stage_s, n_plans) * 1e3
    values["hw.model_fps"] = modelled[1]

    # -- closure: each parent against the sum of its children ----------------
    lines.append("closure (children summed against their parent span, per call):")
    for parent, child, residual in (
        ("hw.plan", "hw.<stage>", "quantize"),
        ("runtime.", "hw.plan", "plan lookup + dispatch"),
        ("serving.infer", "runtime.*", "backend call"),
        ("serving.batch", "serving.infer", "stack, pad, resolve"),
    ):
        calls, p_s, c_s = tree.closure(parent)
        if not calls:
            continue
        label = parent if not parent.endswith(".") else (
            tree.named(parent)[0]["name"])
        lines.append(
            f"  {child:<13} / {label:<22} {c_s / calls * 1e3:9.4f} / "
            f"{p_s / calls * 1e3:9.4f} ms  ratio {_share(c_s, p_s):.3f}  "
            f"residual {(p_s - c_s) / calls * 1e3:.4f} ms ({residual})"
        )

    # -- runtime ---------------------------------------------------------------
    runtime = tree.named("runtime.")
    engines = sorted({s["name"][len("runtime."):] for s in runtime})
    calls, run_s, run_child_s = tree.closure("runtime.")
    values["runtime.call_ms_p50"] = (
        np.percentile([_dur(s) for s in runtime], 50) * 1e3 if runtime else 0.0
    )
    values["runtime.dispatch_ms"] = _share(run_s - run_child_s, calls) * 1e3
    lines.append(f"runtime.engine: {', '.join(engines) or '-'}")

    # -- plan cache (untraced stretches) ---------------------------------------
    hits = _stretch_sum(untraced, lambda a, b: b.plans["hits"] - a.plans["hits"])
    misses = _stretch_sum(
        untraced, lambda a, b: b.plans["misses"] - a.plans["misses"])
    values["hw.plan.hit_ratio"] = _share(hits, hits + misses)
    values["hw.plan.misses"] = float(misses)
    values["hw.plan.arena_mib"] = max(
        p.plans["arena_bytes"] for _, p in stretches.marks) / 2**20

    # -- serving (untraced stretches) ------------------------------------------
    served = untraced and untraced[0][0].server is not None
    if served:
        batches = defaultdict(int)
        for a, b in untraced:
            for size, n in b.server.batch_histogram.items():
                batches[size] += n - a.server.batch_histogram.get(size, 0)
        infer_s = _stretch_sum(untraced, lambda a, b: sum(
            v - a.server.section_totals_s.get(k, 0.0)
            for k, v in b.server.section_totals_s.items()
            if k.startswith("infer.")))
        wall_s = _stretch_sum(untraced, lambda a, b: b.wall_s - a.wall_s)
        values["serving.submit_us_p99"] = np.percentile(win.submit_s, 99) * 1e6
        values["serving.queue_wait_ms_p50"] = np.percentile(win.queue_wait_s, 50) * 1e3
        values["serving.queue_wait_ms_p99"] = np.percentile(win.queue_wait_s, 99) * 1e3
        values["serving.batch_size_mean"] = _share(
            sum(s * n for s, n in batches.items()), sum(batches.values()))
        values["serving.infer_busy_share"] = _share(infer_s, wall_s * workers)
        values["loadgen.late_ms_p99"] = np.percentile(win.late_s, 99) * 1e3
        values["loadgen.offered_rps"] = win.attempted / win.window_s
    else:
        for name, _unit, _better in PER_LAYER:
            if name.startswith(("serving.", "loadgen.")):
                values[name] = 0.0

    # -- telemetry: traced against untraced CPU time per face ------------------
    def cpu_per_face(pairs):
        cpu = _stretch_sum(pairs, lambda a, b: b.cpu_s - a.cpu_s)
        faces = _stretch_sum(pairs, lambda a, b: b.faces - a.faces)
        return _share(cpu, faces), faces

    cpu_traced, faces_traced = cpu_per_face(traced)
    cpu_untraced, _ = cpu_per_face(untraced)
    values["telemetry.overhead_share"] = _share(cpu_traced, cpu_untraced) - 1.0
    values["telemetry.spans_per_face"] = _share(len(tree.spans), faces_traced)
    values["host.sgemm_ms"] = sgemm
    return values, lines
