"""Skin (case-surface) temperature and skin-temperature throttling.

The paper's related work measures what users actually feel: skin
temperature (Straume et al. [21]) and its role in user-centric thermal
management (Mercati et al. [22]).  Phones of the studied era increasingly
throttled on *skin* estimates, not just die temperature — a policy with
very different dynamics, because the case responds over minutes, not
seconds.

The model: the touchable surface sits between the case node and the
ambient/hand through a thin contact layer,

    T_skin = T_case − (T_case − T_ambient) · R_surface / (R_surface + R_contact)
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class SkinModel:
    """Surface-temperature estimate from the case node.

    Attributes
    ----------
    contact_resistance:
        Case-to-surface thermal resistance, K/W-normalized fraction of the
        surface film; expressed as the fraction of the case-to-ambient
        temperature drop that happens *inside* the case wall (0 = surface
        is exactly case temperature, 1 = surface is exactly ambient).
    """

    contact_resistance: float = 0.35

    def __post_init__(self) -> None:
        if not 0.0 <= self.contact_resistance < 1.0:
            raise ConfigurationError("contact_resistance must be within [0, 1)")

    def surface_temp_c(self, case_temp_c: float, ambient_c: float) -> float:
        """Touchable surface temperature, °C."""
        return case_temp_c - (case_temp_c - ambient_c) * self.contact_resistance


@dataclass(frozen=True)
class SkinThrottleSpec:
    """Immutable configuration for a :class:`SkinThrottle` (device catalogs
    hold specs; each built device gets fresh mutable state)."""

    contact_resistance: float = 0.35
    throttle_surface_c: float = 41.0
    clear_surface_c: float = 38.5
    poll_interval_s: float = 20.0
    max_steps: int = 8

    def build(self) -> "SkinThrottle":
        """Instantiate the policy with fresh state."""
        return SkinThrottle(
            skin_model=SkinModel(contact_resistance=self.contact_resistance),
            throttle_surface_c=self.throttle_surface_c,
            clear_surface_c=self.clear_surface_c,
            poll_interval_s=self.poll_interval_s,
            max_steps=self.max_steps,
        )


@dataclass
class SkinThrottle:
    """Skin-temperature mitigation: cap frequency when the surface runs hot.

    Unlike the die-temperature stepwise loop (seconds-scale), skin policies
    poll slowly and step conservatively — the case integrates over minutes,
    so reacting fast just oscillates.

    Attributes
    ----------
    skin_model:
        How surface temperature is estimated from the case node.
    throttle_surface_c:
        Estimated surface temperature that triggers a step down.
    clear_surface_c:
        Surface temperature below which a step is returned.
    poll_interval_s:
        Policy sampling period (tens of seconds on shipping devices).
    max_steps:
        Deepest allowed ceiling reduction.
    """

    skin_model: SkinModel
    throttle_surface_c: float = 41.0
    clear_surface_c: float = 38.5
    poll_interval_s: float = 20.0
    max_steps: int = 8

    def __post_init__(self) -> None:
        if self.clear_surface_c >= self.throttle_surface_c:
            raise ConfigurationError(
                "clear_surface_c must be below throttle_surface_c"
            )
        if self.poll_interval_s <= 0:
            raise ConfigurationError("poll_interval_s must be positive")
        if self.max_steps < 1:
            raise ConfigurationError("max_steps must be at least 1")
        self._steps = 0
        self._next_poll_s = 0.0

    @property
    def steps(self) -> int:
        """Current ceiling reduction, ladder steps."""
        return self._steps

    def reset(self) -> None:
        """Clear mitigation state."""
        self._steps = 0
        self._next_poll_s = 0.0

    def update(self, case_temp_c: float, ambient_c: float, now_s: float) -> int:
        """Advance the policy; returns the ceiling reduction in steps."""
        while now_s >= self._next_poll_s:
            self._next_poll_s += self.poll_interval_s
            surface = self.skin_model.surface_temp_c(case_temp_c, ambient_c)
            if surface >= self.throttle_surface_c:
                self._steps = min(self._steps + 1, self.max_steps)
            elif surface <= self.clear_surface_c:
                self._steps = max(self._steps - 1, 0)
        return self._steps
