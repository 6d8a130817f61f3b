"""Discrete event logging.

Where traces record continuous channels, the event log records the moments
that explain them: throttle steps, core shutdowns, protocol phase
transitions, chamber actuator flips.  Figure 1's "one CPU core is shut
down" annotation is an event; the temperature curve around it is a trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, List, Tuple


@dataclass(frozen=True)
class Event:
    """One logged occurrence.

    Attributes
    ----------
    time_s:
        Simulation time of the event.
    kind:
        Event category, e.g. ``"throttle-step"`` or ``"phase"``.
    detail:
        Free-form payload describing the event.
    """

    time_s: float
    kind: str
    detail: Tuple[Tuple[str, Any], ...] = ()

    def get(self, key: str, default: Any = None) -> Any:
        """Fetch one detail field."""
        for name, value in self.detail:
            if name == key:
                return value
        return default


class EventLog:
    """Append-only, time-ordered event log."""

    def __init__(self) -> None:
        self._events: List[Event] = []

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)

    def log(self, time_s: float, kind: str, **detail: Any) -> Event:
        """Record an event and return it."""
        event = Event(time_s=time_s, kind=kind, detail=tuple(sorted(detail.items())))
        self._events.append(event)
        return event

    def count(self, kind: str) -> int:
        """Number of events of one category."""
        return sum(1 for event in self._events if event.kind == kind)
