"""Metrics exporters: JSON document, Prometheus text, human summary.

Four consumers, four formats:

* :func:`write_metrics` / :func:`read_metrics` — the machine-readable JSON
  document behind the CLI's ``--metrics-out`` and ``repro-bench report``;
* :func:`prometheus_text` — the text exposition format, for anyone piping
  a campaign's counters into an existing scrape pipeline (and the body of
  the live endpoint's ``/metrics`` route), with
  :func:`parse_prometheus_text` as the round-trip reference parser;
* :func:`format_summary` — the table a human reads after a run, with
  spans aggregated by name and sim-vs-wall speed ratios computed;
* :func:`span_tree` / :func:`format_span_tree` — the dual-clock span
  hierarchy, nested by parent, behind ``/spans`` and
  ``report --spans-tree``.

Every function accepts either a live :class:`MetricsRegistry` or an
already-snapshotted document dict, so the CLI's ``report`` subcommand and
the end-of-run path share one implementation.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.errors import ObservabilityError
from repro.obs.metrics import METRICS_FORMAT, MetricsRegistry

MetricsSource = Union[MetricsRegistry, Dict[str, Any]]

_PROM_INVALID = re.compile(r"[^a-zA-Z0-9_]")

_PROM_SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>\S+)\s*$"
)
_PROM_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def as_document(source: MetricsSource) -> Dict[str, Any]:
    """Normalize a registry or document into a validated document dict."""
    document = source.snapshot() if isinstance(source, MetricsRegistry) else source
    if document.get("format") != METRICS_FORMAT:
        raise ObservabilityError(
            f"not a metrics document (format {document.get('format')!r}, "
            f"expected {METRICS_FORMAT!r})"
        )
    return document


def write_metrics(source: MetricsSource, path: Union[str, Path]) -> Path:
    """Write the metrics document as indented JSON; returns the path."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("w") as fp:
        json.dump(as_document(source), fp, indent=2, sort_keys=True)
        fp.write("\n")
    return target


def read_metrics(path: Union[str, Path]) -> Dict[str, Any]:
    """Load and validate a metrics document written by :func:`write_metrics`."""
    source = Path(path)
    try:
        with source.open() as fp:
            document = json.load(fp)
    except (OSError, json.JSONDecodeError) as error:
        raise ObservabilityError(f"{source}: unreadable metrics file ({error})")
    if not isinstance(document, dict):
        raise ObservabilityError(f"{source}: metrics document must be an object")
    return as_document(document)


def prometheus_text(source: MetricsSource, prefix: str = "repro") -> str:
    """The document in Prometheus text exposition format.

    Metric names are sanitized (``engine.steps`` → ``repro_engine_steps``);
    histogram buckets are emitted cumulatively with the conventional
    inclusive ``le`` label, a ``+Inf`` bucket that includes the overflow
    count, and ``_sum``/``_count`` series; spans appear as per-name
    ``_sum``/``_count`` pairs of wall seconds.  Values are written at
    full float precision so the text round-trips exactly through
    :func:`parse_prometheus_text`.
    """
    document = as_document(source)
    lines: List[str] = []

    def emit(name: str, kind: str, samples: List[str]) -> None:
        lines.append(f"# HELP {name} repro metric {name}")
        lines.append(f"# TYPE {name} {kind}")
        lines.extend(samples)

    for name, value in document["counters"].items():
        metric = _prom_name(prefix, name)
        emit(metric, "counter", [f"{metric} {_prom_value(value)}"])
    for name, value in document["gauges"].items():
        metric = _prom_name(prefix, name)
        emit(metric, "gauge", [f"{metric} {_prom_value(value)}"])
    for name, payload in document["histograms"].items():
        metric = _prom_name(prefix, name)
        samples = []
        cumulative = 0
        # counts has one overflow entry beyond the explicit bounds; the
        # running total over *all* entries is what +Inf must equal (and
        # it equals the observation count by construction).
        for bound, count in zip(payload["bounds"], payload["counts"]):
            cumulative += count
            samples.append(
                f'{metric}_bucket{{le="{bound:g}"}} {cumulative}'
            )
        cumulative += payload["counts"][len(payload["bounds"])]
        samples.append(f'{metric}_bucket{{le="+Inf"}} {cumulative}')
        samples.append(f"{metric}_sum {_prom_value(payload['sum'])}")
        samples.append(f"{metric}_count {payload['count']}")
        emit(metric, "histogram", samples)
    aggregated = aggregate_spans(document)
    if aggregated:
        metric = _prom_name(prefix, "span.wall_seconds")
        samples = []
        for name, stats in aggregated.items():
            label = name.replace("\\", "\\\\").replace('"', '\\"')
            samples.append(
                f'{metric}_sum{{span="{label}"}} {_prom_value(stats["wall_s"])}'
            )
            samples.append(f'{metric}_count{{span="{label}"}} {stats["count"]}')
        emit(metric, "summary", samples)
    return "\n".join(lines) + "\n"


def aggregate_spans(source: MetricsSource) -> Dict[str, Dict[str, float]]:
    """Per-name span totals: count, wall seconds, sim seconds.

    ``sim_s`` is the sum over spans that tracked a simulation clock; the
    returned dict preserves first-seen order.
    """
    document = as_document(source)
    totals: Dict[str, Dict[str, float]] = {}
    for span in document["spans"]:
        stats = totals.setdefault(
            span["name"], {"count": 0, "wall_s": 0.0, "sim_s": 0.0}
        )
        stats["count"] += 1
        stats["wall_s"] += span.get("wall_s") or 0.0
        stats["sim_s"] += span.get("sim_s") or 0.0
    return totals


def format_summary(source: MetricsSource) -> str:
    """A human-readable report of the document, section per metric kind."""
    document = as_document(source)
    lines: List[str] = []

    counters = document["counters"]
    if counters:
        lines.append("counters")
        width = max(len(name) for name in counters)
        for name, value in counters.items():
            lines.append(f"  {name:<{width}s}  {value:,.10g}")
    # Result-transport digest: how task results travelled back from the
    # workers (pickle stream vs zero-copy shared-memory attach).  The raw
    # counters are in the table above; this section derives the split.
    transport = {
        name: value
        for name, value in (counters or {}).items()
        if name.startswith("transport.")
    }
    if transport:
        lines.append("result transport")
        pickled = transport.get("transport.pickle_bytes", 0.0)
        shm = transport.get("transport.shm_bytes", 0.0)
        tasks = transport.get("transport.task_pickle_bytes", 0.0)
        attached = int(transport.get("transport.traces_attached", 0.0))
        lines.append(f"  pickled bytes        {pickled:,.0f}")
        if tasks:
            lines.append(f"  task pickle bytes    {tasks:,.0f}")
        lines.append(f"  shared-memory bytes  {shm:,.0f}")
        lines.append(f"  traces attached      {attached}")
        if shm + pickled > 0:
            lines.append(
                f"  zero-copy fraction   {shm / (shm + pickled):.1%}"
            )
    gauges = document["gauges"]
    if gauges:
        lines.append("gauges")
        width = max(len(name) for name in gauges)
        for name, value in gauges.items():
            lines.append(f"  {name:<{width}s}  {value:,.10g}")
    histograms = document["histograms"]
    if histograms:
        lines.append("histograms")
        for name, payload in histograms.items():
            count = payload["count"]
            mean = payload["sum"] / count if count else 0.0
            lines.append(
                f"  {name}: n={count} sum={payload['sum']:.3f}s "
                f"mean={mean:.3f}s"
            )
    spans = aggregate_spans(document)
    if spans:
        lines.append("spans (aggregated by name)")
        width = max(len(name) for name in spans)
        header = (
            f"  {'name':<{width}s}  {'count':>5s}  {'wall s':>10s}  "
            f"{'sim s':>12s}  {'sim/wall':>9s}"
        )
        lines.append(header)
        for name, stats in spans.items():
            ratio = (
                f"{stats['sim_s'] / stats['wall_s']:>9.1f}"
                if stats["wall_s"] > 0 and stats["sim_s"] > 0
                else f"{'-':>9s}"
            )
            lines.append(
                f"  {name:<{width}s}  {stats['count']:>5d}  "
                f"{stats['wall_s']:>10.3f}  {stats['sim_s']:>12.1f}  {ratio}"
            )
    if not lines:
        return "no metrics recorded\n"
    return "\n".join(lines) + "\n"


def parse_prometheus_text(text: str) -> Dict[str, Any]:
    """Reference parser for the exposition format :func:`prometheus_text` emits.

    Returns ``{"types": {metric: kind}, "help": {metric: text},
    "samples": [{"name", "labels", "value"}, ...]}`` with values parsed
    as floats (``+Inf``/``-Inf``/``NaN`` included).  Raises
    :class:`ObservabilityError` on any line that is not valid exposition
    text — this is the round-trip gate the exporter is tested against,
    and what the CI telemetry smoke asserts on a live ``/metrics`` body.
    """
    types: Dict[str, str] = {}
    help_text: Dict[str, str] = {}
    samples: List[Dict[str, Any]] = []
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("# TYPE "):
            parts = line.split(None, 3)
            if len(parts) != 4 or parts[3] not in (
                "counter", "gauge", "histogram", "summary", "untyped"
            ):
                raise ObservabilityError(
                    f"line {line_number}: malformed TYPE line {raw!r}"
                )
            if parts[2] in types:
                raise ObservabilityError(
                    f"line {line_number}: duplicate TYPE for {parts[2]!r}"
                )
            types[parts[2]] = parts[3]
            continue
        if line.startswith("# HELP "):
            parts = line.split(None, 3)
            if len(parts) < 3:
                raise ObservabilityError(
                    f"line {line_number}: malformed HELP line {raw!r}"
                )
            help_text[parts[2]] = parts[3] if len(parts) == 4 else ""
            continue
        if line.startswith("#"):
            continue  # free-form comment
        match = _PROM_SAMPLE.match(line)
        if match is None:
            raise ObservabilityError(
                f"line {line_number}: malformed sample line {raw!r}"
            )
        labels: Dict[str, str] = {}
        label_blob = match.group("labels")
        if label_blob:
            for pair in _PROM_LABEL.finditer(label_blob):
                labels[pair.group(1)] = (
                    pair.group(2)
                    .replace('\\"', '"')
                    .replace("\\n", "\n")
                    .replace("\\\\", "\\")
                )
            stripped = re.sub(r"[,\s]", "", label_blob)
            matched = re.sub(
                r"[,\s]", "", "".join(
                    pair.group(0) for pair in _PROM_LABEL.finditer(label_blob)
                )
            )
            if stripped != matched:
                raise ObservabilityError(
                    f"line {line_number}: malformed labels {label_blob!r}"
                )
        samples.append(
            {
                "name": match.group("name"),
                "labels": labels,
                "value": _parse_prom_value(
                    match.group("value"), line_number
                ),
            }
        )
    return {"types": types, "help": help_text, "samples": samples}


def _parse_prom_value(token: str, line_number: int) -> float:
    if token == "+Inf":
        return math.inf
    if token == "-Inf":
        return -math.inf
    if token == "NaN":
        return math.nan
    try:
        return float(token)
    except ValueError:
        raise ObservabilityError(
            f"line {line_number}: malformed sample value {token!r}"
        ) from None


def span_tree(source: MetricsSource) -> List[Dict[str, Any]]:
    """The span hierarchy as nested totals, roots first.

    Spans carry their parent's *name* (the registry's open-span stack at
    creation), so aggregation is by ``(parent, name)``: each node sums
    count, wall seconds and sim seconds over every occurrence at that
    position, and ``children`` nests recursively in first-seen order.  A
    name that appears under several parents becomes several nodes — that
    is the point (``phase.cooldown`` under ``run_device`` vs under
    ``crowd.cohort`` are different costs).
    """
    document = as_document(source)
    totals: Dict[Tuple[Optional[str], str], Dict[str, float]] = {}
    children: Dict[Optional[str], List[str]] = {}
    for span in document["spans"]:
        key = (span.get("parent"), span["name"])
        stats = totals.get(key)
        if stats is None:
            stats = totals[key] = {"count": 0, "wall_s": 0.0, "sim_s": 0.0}
            children.setdefault(span.get("parent"), []).append(span["name"])
        stats["count"] += 1
        stats["wall_s"] += span.get("wall_s") or 0.0
        stats["sim_s"] += span.get("sim_s") or 0.0

    def build(parent: Optional[str], path: Tuple[str, ...]) -> List[Dict[str, Any]]:
        nodes = []
        for name in children.get(parent, []):
            if name in path:  # same-name nesting cannot recurse forever
                continue
            stats = totals[(parent, name)]
            nodes.append(
                {
                    "name": name,
                    "count": int(stats["count"]),
                    "wall_s": round(stats["wall_s"], 6),
                    "sim_s": round(stats["sim_s"], 3),
                    "children": build(name, path + (name,)),
                }
            )
        return nodes

    # Roots: spans with no parent, plus spans whose parent never closed
    # into the document (e.g. a worker snapshot merged mid-run).
    known = {name for _, name in totals}
    roots = build(None, ())
    for parent in children:
        if parent is not None and parent not in known:
            roots.extend(build(parent, (parent,)))
    return roots


def format_span_tree(source: MetricsSource) -> str:
    """The span hierarchy as an indented wall+sim-time table."""
    tree = span_tree(source)
    if not tree:
        return "no spans recorded\n"
    lines = [f"{'span':<44s}  {'count':>6s}  {'wall s':>10s}  {'sim s':>12s}"]

    def render(nodes: List[Dict[str, Any]], depth: int) -> None:
        for node in nodes:
            label = "  " * depth + node["name"]
            sim = f"{node['sim_s']:>12.1f}" if node["sim_s"] else f"{'-':>12s}"
            lines.append(
                f"{label:<44s}  {node['count']:>6d}  "
                f"{node['wall_s']:>10.3f}  {sim}"
            )
            render(node["children"], depth + 1)

    render(tree, 0)
    return "\n".join(lines) + "\n"


def _prom_name(prefix: str, name: str) -> str:
    return f"{prefix}_{_PROM_INVALID.sub('_', name)}"


def _prom_value(value: float) -> str:
    """Full-precision sample rendering.

    ``%g`` (the previous formatter) truncates to six significant digits —
    enough to make a long campaign's ``engine.sim_time_s`` round-trip
    wrong by whole seconds.  Integral values render as integers, floats
    via ``repr`` (shortest exact representation), specials in Prometheus
    spelling.
    """
    number = float(value)
    if math.isinf(number):
        return "+Inf" if number > 0 else "-Inf"
    if math.isnan(number):
        return "NaN"
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)
