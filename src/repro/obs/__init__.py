"""Observability: metrics, phase spans and live campaign telemetry.

The paper's ACCUBENCH app logs CPU temperature, phase transitions and
chamber status precisely so anomalous iterations can be *explained*
(Section III); this package gives the reproduction the same property at
the simulator level.  It is process-local and zero-dependency:

* :class:`MetricsRegistry` — counters, gauges, fixed-bucket histograms
  and :class:`Span` phase tracers, all no-op-cheap when disabled (the
  default).  Instrumented code publishes through the module-level
  :func:`default_registry`; install an enabled registry with
  :func:`use_registry` (or the CLI's ``--metrics-out``) to collect.
* Exporters — :func:`write_metrics`/:func:`read_metrics` (JSON document),
  :func:`prometheus_text` (text exposition format, with
  :func:`parse_prometheus_text` as its reference parser),
  :func:`format_summary` (human table) and
  :func:`span_tree`/:func:`format_span_tree` (dual-clock hierarchy).
* :class:`TaskProgress`/:class:`ProgressPrinter` — per-task completion
  events from campaign execution, live as workers finish.
* The live telemetry plane — :class:`ProgressBus` (always-current run
  state, fed at shard boundaries over the same task-callback channel),
  :class:`TelemetryServer` (the ``--serve`` HTTP endpoint: ``/metrics``,
  ``/status``, ``/spans``, ``/healthz``), :mod:`repro.obs.manifest`
  (``repro-manifest-v1`` run provenance written next to every
  checkpoint/result) and :mod:`repro.obs.watch` (watchdog rules over the
  snapshot stream, plus the ``repro-bench watch`` tailer).

Worker processes snapshot their own registry into the task payload and
the parent merges the snapshot (:meth:`MetricsRegistry.merge_snapshot`), so a
``jobs=8`` campaign produces one coherent document.
"""

from repro.obs.export import (
    aggregate_spans,
    as_document,
    format_span_tree,
    format_summary,
    parse_prometheus_text,
    prometheus_text,
    read_metrics,
    span_tree,
    write_metrics,
)
from repro.obs.manifest import (
    MANIFEST_FORMAT,
    build_manifest,
    fingerprint_payload,
    format_manifest,
    manifest_path_for,
    read_manifest,
    validate_manifest,
    write_manifest,
)
from repro.obs.metrics import (
    DEFAULT_TIME_BUCKETS,
    METRICS_FORMAT,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    default_registry,
    set_default_registry,
    use_registry,
)
from repro.obs.progress import (
    STATUS_FORMAT,
    ProgressBus,
    ProgressCallback,
    ProgressPrinter,
    TaskProgress,
    chain_progress,
    rss_mb,
)
from repro.obs.serve import TelemetryServer
from repro.obs.spans import Span
from repro.obs.watch import (
    DropRateSpikeRule,
    StuckShardRule,
    ThroughputRegressionRule,
    Watchdog,
    WatchdogRule,
    default_watchdog,
    fetch_status,
    format_status_line,
    watch_url,
)

__all__ = [
    "Counter",
    "DEFAULT_TIME_BUCKETS",
    "DropRateSpikeRule",
    "Gauge",
    "Histogram",
    "MANIFEST_FORMAT",
    "METRICS_FORMAT",
    "MetricsRegistry",
    "ProgressBus",
    "ProgressCallback",
    "ProgressPrinter",
    "STATUS_FORMAT",
    "Span",
    "StuckShardRule",
    "TaskProgress",
    "TelemetryServer",
    "ThroughputRegressionRule",
    "Watchdog",
    "WatchdogRule",
    "aggregate_spans",
    "as_document",
    "build_manifest",
    "chain_progress",
    "default_registry",
    "default_watchdog",
    "fetch_status",
    "fingerprint_payload",
    "format_manifest",
    "format_span_tree",
    "format_status_line",
    "format_summary",
    "manifest_path_for",
    "parse_prometheus_text",
    "prometheus_text",
    "read_manifest",
    "read_metrics",
    "rss_mb",
    "set_default_registry",
    "span_tree",
    "use_registry",
    "validate_manifest",
    "watch_url",
    "write_manifest",
    "write_metrics",
]
