"""Metric exporters: one registry, two formats (Prometheus text / JSON).

The exporter renders *both* sources of observability through a single
collected document:

* the serving layer's :class:`~repro.serving.metrics.ServerStats`
  snapshot (counters, queue depth, QPS, latency percentiles, batch
  histogram, timed-section totals), and
* trace-derived duration statistics aggregated from a
  :class:`~repro.telemetry.journal.SpanJournal` (per span name/kind).

``collect()`` produces a JSON-ready document with schema
:data:`TELEMETRY_SCHEMA`; ``to_prometheus()`` renders the same document
in the Prometheus text exposition format (``# HELP`` / ``# TYPE`` lines,
escaped label values). Neither import anything from ``repro.serving`` —
the stats object is duck-typed — so the telemetry layer stays
dependency-free below the serving layer.
"""

from __future__ import annotations

import json
import re
from typing import Any, Callable, Dict, List, Optional

import numpy as np

__all__ = [
    "TELEMETRY_SCHEMA",
    "TelemetryExporter",
    "escape_label_value",
    "validate_telemetry_doc",
]

#: Version tag of the JSON metrics document.
TELEMETRY_SCHEMA = "repro-telemetry/v1"

_METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

_SPAN_STATS = ("p50", "p95", "p99", "mean")


def escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text exposition format."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _escape_help(text: str) -> str:
    return str(text).replace("\\", "\\\\").replace("\n", "\\n")


class TelemetryExporter:
    """Collects metric families from server stats and/or a span journal.

    ``stats_source`` is any zero-arg callable returning a ServerStats-like
    object (typically ``server.stats``); ``journal`` is a
    :class:`~repro.telemetry.journal.SpanJournal`. Either may be omitted.
    """

    def __init__(
        self,
        stats_source: Optional[Callable[[], Any]] = None,
        journal=None,
    ) -> None:
        self._stats_source = stats_source
        self._journal = journal

    # -- collection ----------------------------------------------------------
    def collect(self) -> Dict[str, Any]:
        """One JSON-ready document of every known metric family."""
        families: List[Dict[str, Any]] = []
        if self._stats_source is not None:
            families.extend(_stats_families(self._stats_source()))
        if self._journal is not None:
            families.extend(span_families(self._journal.snapshot()))
        doc = {"schema": TELEMETRY_SCHEMA, "metrics": families}
        validate_telemetry_doc(doc)
        return doc

    # -- rendering -----------------------------------------------------------
    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.collect(), indent=indent) + "\n"

    def to_prometheus(self) -> str:
        return render_prometheus(self.collect())


def _family(
    name: str, type_: str, help_: str, samples: List[Dict[str, Any]]
) -> Dict[str, Any]:
    return {"name": name, "type": type_, "help": help_, "samples": samples}


def _sample(value: float, **labels: str) -> Dict[str, Any]:
    return {"labels": {k: str(v) for k, v in labels.items()}, "value": float(value)}


def _stats_families(stats) -> List[Dict[str, Any]]:
    """Metric families from one ServerStats-like snapshot."""
    families = [
        _family(
            "repro_serving_requests_total",
            "counter",
            "Requests by outcome counter.",
            [
                _sample(count, outcome=outcome)
                for outcome, count in sorted(stats.counters.items())
            ],
        ),
        _family(
            "repro_serving_queue_depth",
            "gauge",
            "Requests currently waiting in the admission queue.",
            [_sample(stats.queue_depth)],
        ),
        _family(
            "repro_serving_uptime_seconds",
            "gauge",
            "Seconds since the metrics registry was created.",
            [_sample(stats.uptime_s)],
        ),
        _family(
            "repro_serving_qps",
            "gauge",
            "Completions per second over the sliding window.",
            [_sample(stats.qps)],
        ),
    ]
    for name, values, help_ in (
        ("repro_serving_latency_ms", stats.latency_ms,
         "End-to-end request latency over the sliding window."),
        ("repro_serving_queue_wait_ms", stats.queue_wait_ms,
         "Queue wait before a worker picked the request up."),
    ):
        if values:
            families.append(
                _family(
                    name, "gauge", help_,
                    [_sample(v, stat=k) for k, v in sorted(values.items())],
                )
            )
    if stats.batch_histogram:
        families.append(
            _family(
                "repro_serving_batches_total",
                "counter",
                "Executed micro-batches by batch size.",
                [
                    _sample(count, size=size)
                    for size, count in sorted(stats.batch_histogram.items())
                ],
            )
        )
    if stats.section_totals_s:
        families.append(
            _family(
                "repro_section_seconds_total",
                "counter",
                "Accumulated stopwatch seconds by code section.",
                [
                    _sample(total, section=section)
                    for section, total in sorted(stats.section_totals_s.items())
                ],
            )
        )
    return families


def span_families(spans: List[Dict]) -> List[Dict[str, Any]]:
    """Trace-derived metric families: duration stats per span name/kind."""
    groups: Dict[tuple, List[float]] = {}
    for span in spans:
        end = span.get("end_s")
        if end is None:
            continue
        key = (span.get("name", ""), span.get("kind", ""))
        groups.setdefault(key, []).append(end - span.get("start_s", 0.0))
    if not groups:
        return []
    count_samples, stat_samples = [], []
    for (name, kind), durations in sorted(groups.items()):
        arr = np.asarray(durations, dtype=np.float64)
        count_samples.append(_sample(len(arr), span=name, kind=kind))
        stats = {
            "p50": float(np.percentile(arr, 50)),
            "p95": float(np.percentile(arr, 95)),
            "p99": float(np.percentile(arr, 99)),
            "mean": float(arr.mean()),
        }
        stat_samples.extend(
            _sample(stats[stat], span=name, kind=kind, stat=stat)
            for stat in _SPAN_STATS
        )
    return [
        _family(
            "repro_span_total",
            "counter",
            "Finished trace spans by span name and kind.",
            count_samples,
        ),
        _family(
            "repro_span_seconds",
            "gauge",
            "Span duration statistics by span name and kind.",
            stat_samples,
        ),
    ]


# -- validation ---------------------------------------------------------------
def validate_telemetry_doc(doc: Dict[str, Any]) -> None:
    """Raise ``ValueError`` unless ``doc`` is a valid metrics document."""
    if not isinstance(doc, dict):
        raise ValueError("telemetry document must be a mapping")
    if doc.get("schema") != TELEMETRY_SCHEMA:
        raise ValueError(
            f"schema mismatch: expected {TELEMETRY_SCHEMA!r}, "
            f"got {doc.get('schema')!r}"
        )
    metrics = doc.get("metrics")
    if not isinstance(metrics, list):
        raise ValueError("telemetry document has no metric list")
    for family in metrics:
        name = family.get("name", "")
        if not _METRIC_NAME.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        if family.get("type") not in ("counter", "gauge"):
            raise ValueError(f"{name}: invalid metric type {family.get('type')!r}")
        if not isinstance(family.get("help"), str):
            raise ValueError(f"{name}: missing help text")
        samples = family.get("samples")
        if not isinstance(samples, list):
            raise ValueError(f"{name}: missing sample list")
        for sample in samples:
            labels = sample.get("labels", {})
            if not isinstance(labels, dict):
                raise ValueError(f"{name}: sample labels must be a mapping")
            for key in labels:
                if not _LABEL_NAME.match(key):
                    raise ValueError(f"{name}: invalid label name {key!r}")
            value = sample.get("value")
            if not isinstance(value, (int, float)) or not np.isfinite(value):
                raise ValueError(f"{name}: sample value {value!r} is not finite")


# -- Prometheus rendering ------------------------------------------------------
def render_prometheus(doc: Dict[str, Any]) -> str:
    """The document in Prometheus text exposition format."""
    validate_telemetry_doc(doc)
    lines: List[str] = []
    for family in doc["metrics"]:
        name = family["name"]
        lines.append(f"# HELP {name} {_escape_help(family['help'])}")
        lines.append(f"# TYPE {name} {family['type']}")
        for sample in family["samples"]:
            labels = sample.get("labels", {})
            if labels:
                rendered = ",".join(
                    f'{k}="{escape_label_value(v)}"'
                    for k, v in sorted(labels.items())
                )
                lines.append(f"{name}{{{rendered}}} {sample['value']:g}")
            else:
                lines.append(f"{name} {sample['value']:g}")
    return "\n".join(lines) + "\n"
