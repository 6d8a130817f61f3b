"""Process-local metrics: counters, gauges, histograms and a registry.

The simulator's hot loops (``World.run_for``, ``ExpmPropagator.pair``)
already keep plain-integer tallies; this layer is where those tallies are
*published* at phase boundaries, together with spans and derived summaries.
Nothing here runs inside the innermost loops — instrumented code harvests
local counts into the registry once per phase/iteration, so the cost of
metrics being ON is a handful of dict operations per protocol phase, and
the cost of metrics being OFF is one attribute check at each harvest site.

A module-level *default registry* (disabled unless someone opts in) lets
instrumentation reach its sink without threading a registry argument
through every constructor — important because devices are pickled to
worker processes, and a registry must never travel with them.  Workers
build their own enabled registry, snapshot it into the returned payload,
and the parent merges the snapshot (see :mod:`repro.core.parallel`).

When a registry is disabled, ``counter()``/``gauge()``/``histogram()``
return shared no-op singletons and ``span()`` returns a shared no-op
context manager, so call sites never branch on enablement themselves.
"""

from __future__ import annotations

import bisect
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ObservabilityError
from repro.obs.spans import NULL_SPAN, Span, SpanContext

#: Format marker written into every metrics snapshot/document.
METRICS_FORMAT = "repro-metrics-v1"

#: Default histogram bucket upper bounds, seconds — sized for task wall
#: times, which range from sub-second smoke runs to full paper protocols.
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = (
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0, 900.0,
)


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the total."""
        if amount < 0:
            raise ObservabilityError("counters only go up; use a gauge")
        self.value += amount

    #: Harvest sites read more naturally as ``add`` when publishing a batch.
    add = inc


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        """Record the current value."""
        self.value = float(value)


class Histogram:
    """Fixed-bucket distribution of observed values.

    ``bounds`` are inclusive upper edges; one implicit overflow bucket
    catches everything above the last edge.  Counts, the running sum and
    the observation count are all plain floats/ints — cheap to merge
    across processes.
    """

    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(self, bounds: Sequence[float] = DEFAULT_TIME_BUCKETS) -> None:
        edges = tuple(float(edge) for edge in bounds)
        if not edges:
            raise ObservabilityError("histogram needs at least one bucket edge")
        if any(b >= a for b, a in zip(edges, edges[1:])):
            raise ObservabilityError("bucket edges must strictly increase")
        self.bounds = edges
        self.counts = [0] * (len(edges) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1


class _NullCounter(Counter):
    """Disabled-registry counter: accepts increments, keeps nothing."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:  # noqa: ARG002
        pass

    add = inc


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:  # noqa: ARG002
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:  # noqa: ARG002
        pass


NULL_COUNTER = _NullCounter()
NULL_GAUGE = _NullGauge()
NULL_HISTOGRAM = _NullHistogram()


class MetricsRegistry:
    """One process's (or one worker task's) metric state.

    The registry is deliberately not thread-safe: the simulator is
    single-threaded per process, and cross-process aggregation goes
    through :meth:`snapshot`/:meth:`merge_snapshot` instead of shared
    state.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._spans: List[Span] = []
        self._open: List[Span] = []

    # -- metric accessors --------------------------------------------------

    def counter(self, name: str) -> Counter:
        """The named counter, created on first use."""
        if not self.enabled:
            return NULL_COUNTER
        metric = self._counters.get(name)
        if metric is None:
            metric = self._counters[name] = Counter()
        return metric

    def gauge(self, name: str) -> Gauge:
        """The named gauge, created on first use."""
        if not self.enabled:
            return NULL_GAUGE
        metric = self._gauges.get(name)
        if metric is None:
            metric = self._gauges[name] = Gauge()
        return metric

    def histogram(
        self, name: str, bounds: Sequence[float] = DEFAULT_TIME_BUCKETS
    ) -> Histogram:
        """The named histogram, created on first use with ``bounds``."""
        if not self.enabled:
            return NULL_HISTOGRAM
        metric = self._histograms.get(name)
        if metric is None:
            metric = self._histograms[name] = Histogram(bounds)
        return metric

    def span(
        self,
        name: str,
        clock: Optional[Callable[[], float]] = None,
        **detail: Any,
    ):
        """A context manager recording a :class:`Span` over its body.

        ``clock`` (e.g. ``lambda: world.now``) is sampled at enter/exit to
        fill the span's simulation-time extents.  Nesting is tracked per
        registry: the span open when another begins becomes its parent.
        """
        if not self.enabled:
            return NULL_SPAN
        return SpanContext(self, name, clock, detail)

    # -- span bookkeeping (called by SpanContext) -------------------------

    def _open_span_name(self) -> Optional[str]:
        return self._open[-1].name if self._open else None

    def _push_span(self, span: Span) -> None:
        self._open.append(span)

    def _pop_span(self, span: Span) -> None:
        if not self._open or self._open[-1] is not span:
            raise ObservabilityError(
                f"span {span.name!r} closed out of order"
            )
        self._open.pop()
        self._spans.append(span)

    @property
    def spans(self) -> List[Span]:
        """All completed spans, in completion order."""
        return list(self._spans)

    # -- aggregation -------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-serializable document of everything recorded so far."""
        return {
            "format": METRICS_FORMAT,
            "counters": {
                name: metric.value for name, metric in sorted(self._counters.items())
            },
            "gauges": {
                name: metric.value for name, metric in sorted(self._gauges.items())
            },
            "histograms": {
                name: {
                    "bounds": list(metric.bounds),
                    "counts": list(metric.counts),
                    "sum": metric.sum,
                    "count": metric.count,
                }
                for name, metric in sorted(self._histograms.items())
            },
            "spans": [span.to_dict() for span in self._spans],
        }

    def merge_snapshot(self, document: Dict[str, Any]) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Counters and histogram contents add; gauges take the incoming
        value (last write wins); spans append.  This is how the parent
        process absorbs worker telemetry.
        """
        if not self.enabled:
            return
        if document.get("format") != METRICS_FORMAT:
            raise ObservabilityError(
                f"cannot merge metrics document of format "
                f"{document.get('format')!r} (expected {METRICS_FORMAT!r})"
            )
        for name, value in document.get("counters", {}).items():
            self.counter(name).add(value)
        for name, value in document.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, payload in document.get("histograms", {}).items():
            merged = self.histogram(name, payload["bounds"])
            if tuple(payload["bounds"]) != merged.bounds:
                raise ObservabilityError(
                    f"histogram {name!r}: bucket bounds differ between "
                    "processes; cannot merge"
                )
            for index, count in enumerate(payload["counts"]):
                merged.counts[index] += count
            merged.sum += payload["sum"]
            merged.count += payload["count"]
        for payload in document.get("spans", []):
            self._spans.append(Span.from_dict(payload))


#: The process's default sink.  Disabled out of the box: a run pays for
#: observability only after something (the CLI's ``--metrics-out``, a
#: worker's task wrapper, a test) installs an enabled registry.
_default = MetricsRegistry(enabled=False)


def default_registry() -> MetricsRegistry:
    """The registry instrumentation publishes to."""
    return _default


def set_default_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Install ``registry`` as the default; returns the previous one."""
    global _default
    previous = _default
    _default = registry
    return previous


@contextmanager
def use_registry(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Scope ``registry`` as the default for a ``with`` block."""
    previous = set_default_registry(registry)
    try:
        yield registry
    finally:
        set_default_registry(previous)
