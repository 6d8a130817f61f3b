"""Time-series trace recording.

A :class:`Trace` is a set of synchronized named channels sampled on the
engine grid, plus labelled phase spans.  The paper's time-domain figures
(4, 5, 11, 12) are direct plots of such traces; its distribution analyses
(Section IV-B) are histograms over trace windows.

Storage is a single preallocated 2-D float buffer (one row per sample,
one column per channel plus the implicit time column) grown geometrically
— an append is two slice assignments, not per-channel list appends.  The
channel set is validated once at construction; the hot engine path appends
positionally via :meth:`append`, while :meth:`record` keeps the
keyword-checked API for protocol code and tests.  ``times()``/``column()``
hand out cached read-only array views invalidated on append, so repeated
``window()``/``mean()`` calls no longer re-convert the whole series.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import AnalysisError, ConfigurationError

#: Starting sample capacity of a trace buffer (doubles as it fills).
INITIAL_CAPACITY = 512


@dataclass(frozen=True)
class PhaseSpan:
    """A labelled time interval within a trace."""

    name: str
    start_s: float
    end_s: float

    def __post_init__(self) -> None:
        if self.end_s < self.start_s:
            raise ConfigurationError("phase end must not precede its start")

    @property
    def duration_s(self) -> float:
        """Span length, seconds."""
        return self.end_s - self.start_s

    def contains(self, time_s: float) -> bool:
        """Whether a time falls inside the span (start-inclusive)."""
        return self.start_s <= time_s < self.end_s


class Trace:
    """Synchronized named channels plus phase annotations."""

    __slots__ = (
        "_channels",
        "_column_index",
        "_buffer",
        "_size",
        "_views",
        "_phases",
        "_open_phase",
        "_owner",
    )

    def __init__(
        self, channels: Sequence[str], capacity: int = INITIAL_CAPACITY
    ) -> None:
        if not channels:
            raise ConfigurationError("a trace needs at least one channel")
        if len(set(channels)) != len(channels):
            raise ConfigurationError("channel names must be unique")
        if "time" in channels:
            raise ConfigurationError("'time' is implicit; do not declare it")
        if capacity < 1:
            raise ConfigurationError("capacity must be at least 1")
        self._channels: Tuple[str, ...] = tuple(channels)
        # Column 0 holds time; declared channels follow in order.
        self._column_index: Dict[str, int] = {
            name: column + 1 for column, name in enumerate(self._channels)
        }
        self._buffer = np.empty((capacity, len(self._channels) + 1))
        self._size = 0
        self._views: Dict[int, np.ndarray] = {}
        self._phases: List[PhaseSpan] = []
        self._open_phase: Optional[Tuple[str, float]] = None
        self._owner: Optional[Any] = None

    @classmethod
    def from_samples(
        cls,
        channels: Sequence[str],
        samples: np.ndarray,
        phases: Sequence[PhaseSpan] = (),
        open_phase: Optional[Tuple[str, float]] = None,
        owner: Optional[Any] = None,
    ) -> "Trace":
        """Adopt an existing ``(rows, len(channels) + 1)`` sample block.

        The attach half of zero-copy result transport: ``samples`` may be a
        view into memory the trace does not allocate (a shared-memory
        segment), and ``owner`` is whatever object must stay alive for
        that memory to remain mapped — the trace holds
        it until the buffer is next grown or the trace is collected.  The
        block is adopted as-is (no copy); rows must already be in strictly
        increasing time order, which transported traces are by construction.
        """
        trace = cls(channels, capacity=1)
        if samples.ndim != 2 or samples.shape[1] != len(trace._channels) + 1:
            raise ConfigurationError(
                "sample block must be 2-D with one column per channel "
                f"plus time; got shape {samples.shape} for "
                f"{len(trace._channels)} channel(s)"
            )
        rows = samples.shape[0]
        if rows:
            trace._buffer = samples
            trace._size = rows
            trace._owner = owner
        trace._phases = list(phases)
        trace._open_phase = open_phase
        return trace

    @property
    def channels(self) -> Tuple[str, ...]:
        """Declared channel names."""
        return self._channels

    @property
    def open_phase(self) -> Optional[Tuple[str, float]]:
        """The ``(name, start_s)`` of a phase begun but not yet ended."""
        return self._open_phase

    def samples(self) -> np.ndarray:
        """The live ``(len(self), channels + 1)`` sample block (no copy).

        Column 0 is time; declared channels follow in order.  This is the
        transport/export surface — treat it as read-only unless you own
        the trace.
        """
        return self._buffer[: self._size]

    def __getstate__(self) -> Dict[str, Any]:
        # Pickle only live rows: capacity slack, cached views and any
        # foreign buffer owner never travel across a process boundary.
        return {
            "channels": self._channels,
            "samples": np.ascontiguousarray(self._buffer[: self._size]),
            "phases": list(self._phases),
            "open_phase": self._open_phase,
        }

    def __setstate__(self, state: Dict[str, Any]) -> None:
        restored = Trace.from_samples(
            state["channels"],
            state["samples"],
            phases=state["phases"],
            open_phase=state["open_phase"],
        )
        for slot in Trace.__slots__:
            setattr(self, slot, getattr(restored, slot))

    def __len__(self) -> int:
        return self._size

    def append(self, time_s: float, values: Sequence[float]) -> None:
        """Append one sample positionally: ``values`` ordered as ``channels``.

        The engine's fast path — no keyword packing, no per-call channel-set
        arithmetic.  ``values`` must carry exactly one entry per declared
        channel, in declaration order.
        """
        buffer = self._buffer
        size = self._size
        if size == buffer.shape[0]:
            buffer = self._grow()
        if size and time_s <= buffer[size - 1, 0]:
            if time_s < buffer[size - 1, 0]:
                raise ConfigurationError(
                    "samples must be appended in time order"
                )
            # Same-stamp re-record: a fast-forward macro window leaves a
            # sample at its end time, and when the next decimated step lands
            # on the same clock reading the fresher state supersedes it.
            # Overwriting keeps the time axis strictly increasing.
            row = buffer[size - 1]
            row[1:] = values
            if self._views:
                self._views.clear()
            return
        row = buffer[size]
        row[0] = time_s
        row[1:] = values
        self._size = size + 1
        if self._views:
            self._views.clear()

    def record(self, time_s: float, **values: float) -> None:
        """Append one sample; every declared channel must be provided."""
        channels = self._channels
        try:
            ordered = [values[name] for name in channels]
        except KeyError:
            missing = sorted(set(channels) - set(values))
            extra = sorted(set(values) - set(channels))
            raise ConfigurationError(
                f"record() mismatch; missing={missing} extra={extra}"
            ) from None
        if len(values) != len(channels):
            extra = sorted(set(values) - set(channels))
            raise ConfigurationError(
                f"record() mismatch; missing=[] extra={extra}"
            )
        self.append(time_s, ordered)

    def times(self) -> np.ndarray:
        """Sample times, seconds (read-only view)."""
        return self._column_view(0)

    def column(self, name: str) -> np.ndarray:
        """One channel as an array (read-only view)."""
        if name == "time":
            return self._column_view(0)
        try:
            index = self._column_index[name]
        except KeyError:
            raise AnalysisError(
                f"unknown channel {name!r}; channels: {', '.join(self._channels)}"
            ) from None
        return self._column_view(index)

    # -- phases ---------------------------------------------------------

    def begin_phase(self, name: str, time_s: float) -> None:
        """Open a phase span (closing any span still open)."""
        if self._open_phase is not None:
            self.end_phase(time_s)
        self._open_phase = (name, time_s)

    def end_phase(self, time_s: float) -> None:
        """Close the currently open phase span."""
        if self._open_phase is None:
            raise AnalysisError("no phase is open")
        name, start = self._open_phase
        self._phases.append(PhaseSpan(name=name, start_s=start, end_s=time_s))
        self._open_phase = None

    @property
    def phases(self) -> Tuple[PhaseSpan, ...]:
        """All closed phase spans, in order."""
        return tuple(self._phases)

    def phase(self, name: str, occurrence: int = 0) -> PhaseSpan:
        """The n-th span with a given label."""
        matches = [span for span in self._phases if span.name == name]
        if occurrence >= len(matches):
            raise AnalysisError(
                f"phase {name!r} occurrence {occurrence} not found "
                f"({len(matches)} present)"
            )
        return matches[occurrence]

    def window(self, start_s: float, end_s: float, channel: str) -> np.ndarray:
        """Channel samples with ``start_s <= t < end_s``."""
        times = self.times()
        mask = (times >= start_s) & (times < end_s)
        return self.column(channel)[mask]

    def phase_column(self, phase_name: str, channel: str, occurrence: int = 0) -> np.ndarray:
        """Channel samples within one phase span."""
        span = self.phase(phase_name, occurrence)
        return self.window(span.start_s, span.end_s, channel)

    # -- summaries ------------------------------------------------------

    def max(self, channel: str) -> float:
        """Maximum of a channel over the whole trace."""
        column = self.column(channel)
        if column.size == 0:
            raise AnalysisError("trace is empty")
        return float(column.max())

    # -- internals ------------------------------------------------------

    def _column_view(self, index: int) -> np.ndarray:
        view = self._views.get(index)
        if view is None:
            view = self._buffer[: self._size, index]
            view.setflags(write=False)
            self._views[index] = view
        return view

    def _grow(self) -> np.ndarray:
        grown = np.empty((self._buffer.shape[0] * 2, self._buffer.shape[1]))
        grown[: self._size] = self._buffer[: self._size]
        self._buffer = grown
        # Growth copies the samples onto the heap, so a foreign buffer
        # (a shared-memory segment) can be released now.
        self._owner = None
        return grown
