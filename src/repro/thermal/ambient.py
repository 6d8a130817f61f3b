"""Ambient-temperature profiles.

Ambient temperature is an input, not a constant: the paper shows 25–30% more
energy for the same work at higher ambient (Figure 2), and its THERMABOX
exists precisely to pin ambient at 26 ± 0.5 °C.  Profiles here describe how
the *room* behaves; the chamber model (``repro.instruments.thermabox``)
regulates against them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol


class AmbientProfile(Protocol):
    """Anything that can report an ambient temperature at a sim time."""

    def temperature(self, time_s: float) -> float:
        """Ambient temperature in °C at ``time_s`` seconds."""
        ...  # pragma: no cover - protocol


@dataclass(frozen=True)
class ConstantAmbient:
    """A perfectly steady ambient."""

    temp_c: float

    def temperature(self, time_s: float) -> float:
        """Ambient temperature (constant), °C."""
        return self.temp_c
