"""Thermal throttling policies (msm_thermal-style mitigation).

Two mechanisms, composable per device:

* :class:`StepwiseThrottle` — the sampled mitigation loop: every poll, if
  the die is above the throttle temperature, lower the frequency ceiling by
  one ladder step; once it cools below the clear temperature (hysteresis),
  raise the ceiling one step.
* :class:`CoreShutdownPolicy` — the hard-limit hotplug response: at the
  critical temperature take cores offline (the Nexus 5 drops one core at
  80 °C, paper Figure 1) and restore them after the die cools.

The *interaction* of silicon leakage with these policies is the paper's
entire performance-variation story: leakier dies recover more slowly after
a mitigation step, so they spend more time capped (Section IV-B, the
device-653 Pixel anecdote).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class MitigationState:
    """What the thermal policy currently allows.

    Attributes
    ----------
    ceiling_steps:
        How many ladder steps the frequency ceiling is lowered by.
    offline_cores:
        How many cores the policy is holding offline.
    """

    ceiling_steps: int = 0
    offline_cores: int = 0


@dataclass
class StepwiseThrottle:
    """Sampled step-down/step-up frequency mitigation with hysteresis.

    Attributes
    ----------
    throttle_temp_c:
        Die temperature above which the ceiling steps down each poll.
    clear_temp_c:
        Die temperature below which the ceiling steps back up each poll;
        must be below ``throttle_temp_c`` (hysteresis band).
    poll_interval_s:
        Mitigation loop period (msm_thermal polls at ~1 s... 250 ms
        depending on era; per-device catalogs choose).
    max_steps:
        Deepest allowed ceiling reduction, ladder steps.
    """

    throttle_temp_c: float
    clear_temp_c: float
    poll_interval_s: float = 1.0
    max_steps: int = 12
    _steps: int = field(default=0, init=False)
    _next_poll_s: float = field(default=0.0, init=False)

    def __post_init__(self) -> None:
        if self.clear_temp_c >= self.throttle_temp_c:
            raise ConfigurationError("clear_temp_c must be below throttle_temp_c")
        if self.poll_interval_s <= 0:
            raise ConfigurationError("poll_interval_s must be positive")
        if self.max_steps < 1:
            raise ConfigurationError("max_steps must be at least 1")

    def reset(self) -> None:
        """Clear mitigation state (device reboot between experiments)."""
        self._steps = 0
        self._next_poll_s = 0.0

    @property
    def steps(self) -> int:
        """Current ceiling reduction, ladder steps."""
        return self._steps

    def update(self, die_temp_c: float, now_s: float) -> int:
        """Advance the mitigation loop; returns the ceiling reduction."""
        while now_s >= self._next_poll_s:
            self._next_poll_s += self.poll_interval_s
            if die_temp_c >= self.throttle_temp_c:
                self._steps = min(self._steps + 1, self.max_steps)
            elif die_temp_c <= self.clear_temp_c:
                self._steps = max(self._steps - 1, 0)
        return self._steps


@dataclass
class CoreShutdownPolicy:
    """Hard-limit hotplug mitigation.

    Attributes
    ----------
    critical_temp_c:
        Die temperature at which a core is taken offline.
    restore_temp_c:
        Die temperature below which one core is brought back.
    max_offline:
        Most cores the policy will remove (the Nexus 5 removes one).
    poll_interval_s:
        How often the hard-limit monitor samples.
    """

    critical_temp_c: float
    restore_temp_c: float
    max_offline: int = 1
    poll_interval_s: float = 1.0
    _offline: int = field(default=0, init=False)
    _next_poll_s: float = field(default=0.0, init=False)

    def __post_init__(self) -> None:
        if self.restore_temp_c >= self.critical_temp_c:
            raise ConfigurationError("restore_temp_c must be below critical_temp_c")
        if self.max_offline < 0:
            raise ConfigurationError("max_offline must be non-negative")
        if self.poll_interval_s <= 0:
            raise ConfigurationError("poll_interval_s must be positive")

    def reset(self) -> None:
        """Clear mitigation state."""
        self._offline = 0
        self._next_poll_s = 0.0

    @property
    def offline(self) -> int:
        """Cores currently held offline."""
        return self._offline

    def update(self, die_temp_c: float, now_s: float) -> int:
        """Advance the hard-limit monitor; returns cores held offline."""
        while now_s >= self._next_poll_s:
            self._next_poll_s += self.poll_interval_s
            if die_temp_c >= self.critical_temp_c:
                self._offline = min(self._offline + 1, self.max_offline)
            elif die_temp_c <= self.restore_temp_c:
                self._offline = max(self._offline - 1, 0)
        return self._offline


@dataclass
class ThrottlePolicy:
    """A device's complete thermal-mitigation stack.

    Attributes
    ----------
    stepwise:
        The frequency-capping loop (always present on the studied devices).
    shutdown:
        Optional hard-limit hotplug policy (Nexus 5).
    """

    stepwise: StepwiseThrottle
    shutdown: Optional[CoreShutdownPolicy] = None
    # The last allowance handed out; reused while it still holds.
    _state: MitigationState = field(
        default_factory=MitigationState, init=False, repr=False, compare=False
    )

    def reset(self) -> None:
        """Clear all mitigation state."""
        self.stepwise.reset()
        if self.shutdown is not None:
            self.shutdown.reset()

    def update(self, die_temp_c: float, now_s: float) -> MitigationState:
        """Advance both mechanisms and return the combined allowance."""
        steps = self.stepwise.update(die_temp_c, now_s)
        offline = (
            self.shutdown.update(die_temp_c, now_s)
            if self.shutdown is not None
            else 0
        )
        state = self._state
        if state.ceiling_steps != steps or state.offline_cores != offline:
            state = self._state = MitigationState(
                ceiling_steps=steps, offline_cores=offline
            )
        return state
