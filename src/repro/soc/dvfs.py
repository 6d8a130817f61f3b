"""DVFS (cpufreq) governors.

Governors pick the cluster frequency each polling interval, subject to
whatever ceiling the thermal policy currently allows.  Two of them map
directly onto the paper's experiments:

* :class:`PerformanceGovernor` — the UNCONSTRAINED workload: always run at
  the highest allowed frequency, letting thermal throttling do its thing.
* :class:`UserspaceGovernor` — the FIXED-FREQUENCY workload: pin a low
  frequency guaranteed never to throttle, so every chip does the same work
  and only energy differs.

:class:`OndemandGovernor` is the classic utilization-driven policy, included
for fidelity (idle phases) and for ablation studies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Protocol

from repro.errors import ConfigurationError
from repro.soc.cluster import ClusterSpec


class Governor(Protocol):
    """A cpufreq governor: chooses a ladder frequency each poll."""

    def target_frequency(
        self, spec: ClusterSpec, utilization: float, ceiling_mhz: float
    ) -> float:
        """Return the ladder frequency to run at (≤ ``ceiling_mhz``)."""
        ...  # pragma: no cover - protocol


@dataclass(frozen=True)
class PerformanceGovernor:
    """Always request the highest allowed frequency."""

    def target_frequency(
        self, spec: ClusterSpec, utilization: float, ceiling_mhz: float
    ) -> float:
        """The highest ladder frequency not above the ceiling."""
        return spec.nearest_freq_mhz(ceiling_mhz)


@dataclass(frozen=True)
class UserspaceGovernor:
    """Pin an exact ladder frequency (still honouring the thermal ceiling)."""

    fixed_mhz: float
    # The ladder the pin was last checked against (``validate``).
    _checked: Optional[ClusterSpec] = field(
        default=None, init=False, repr=False, compare=False
    )

    def validate(self, spec: ClusterSpec) -> None:
        """Reject a pin that is not on ``spec``'s ladder.

        ``Soc.set_governor`` calls this when it installs the governor, so a
        bad pin fails there rather than on the first step.
        """
        spec.freq_index(self.fixed_mhz)  # validates ladder membership
        object.__setattr__(self, "_checked", spec)

    def target_frequency(
        self, spec: ClusterSpec, utilization: float, ceiling_mhz: float
    ) -> float:
        """The pinned frequency, clamped by the thermal ceiling."""
        if spec is not self._checked:
            self.validate(spec)  # driven directly, or shared across ladders
        return spec.nearest_freq_mhz(min(self.fixed_mhz, ceiling_mhz))


@dataclass
class InteractiveGovernor:
    """The era's shipped default: jump to ``hispeed_freq`` on load, climb
    to the ceiling only after the load persists.

    A simplified qcom ``interactive``: when utilization crosses
    ``go_hispeed_load`` the clock jumps straight to ``hispeed_freq``; if
    the load is still high after ``above_hispeed_delay_s`` it ramps one
    ladder step per evaluation until the ceiling; dropping load falls back
    toward the proportional target immediately.

    Attributes
    ----------
    hispeed_freq_mhz:
        The first jump target (a mid-ladder frequency on real devices).
    go_hispeed_load:
        Utilization that triggers the jump.
    above_hispeed_delay_s:
        Dwell time at/above hispeed before climbing further.
    eval_interval_s:
        Governor evaluation period (timer rate).
    """

    hispeed_freq_mhz: float
    go_hispeed_load: float = 0.85
    above_hispeed_delay_s: float = 0.2
    eval_interval_s: float = 0.1
    _current_mhz: float = field(default=0.0, init=False)
    _hispeed_since_s: float = field(default=-1.0, init=False)
    _clock_s: float = field(default=0.0, init=False)

    def __post_init__(self) -> None:
        if self.hispeed_freq_mhz <= 0:
            raise ConfigurationError("hispeed_freq_mhz must be positive")
        if not 0.0 < self.go_hispeed_load <= 1.0:
            raise ConfigurationError("go_hispeed_load must be within (0, 1]")
        if self.above_hispeed_delay_s < 0:
            raise ConfigurationError("above_hispeed_delay_s must be non-negative")
        if self.eval_interval_s <= 0:
            raise ConfigurationError("eval_interval_s must be positive")

    def target_frequency(
        self, spec: ClusterSpec, utilization: float, ceiling_mhz: float
    ) -> float:
        """Interactive frequency choice (advances an internal clock per call,
        one evaluation per ``eval_interval_s``)."""
        self._clock_s += self.eval_interval_s
        if self._current_mhz == 0.0:
            self._current_mhz = spec.min_freq_mhz
        ceiling = spec.nearest_freq_mhz(ceiling_mhz)
        hispeed = min(spec.nearest_freq_mhz(self.hispeed_freq_mhz), ceiling)

        if utilization >= self.go_hispeed_load:
            if self._current_mhz < hispeed:
                self._current_mhz = hispeed
                self._hispeed_since_s = self._clock_s
            elif (
                self._hispeed_since_s >= 0
                and self._clock_s - self._hispeed_since_s
                >= self.above_hispeed_delay_s
                and self._current_mhz < ceiling
            ):
                ladder = [f for f in spec.freq_table_mhz if f <= ceiling]
                index = ladder.index(self._current_mhz)
                self._current_mhz = ladder[min(index + 1, len(ladder) - 1)]
        else:
            # Proportional fallback: the smallest frequency that carries
            # the observed load with 10% headroom.
            needed = self._current_mhz * utilization / 0.9
            candidate = spec.min_freq_mhz
            for freq in spec.freq_table_mhz:
                if freq > ceiling:
                    break
                candidate = freq
                if freq >= needed:
                    break
            self._current_mhz = candidate
            self._hispeed_since_s = -1.0
        # Ceiling may have dropped (thermal mitigation) since last call.
        self._current_mhz = min(self._current_mhz, ceiling)
        return self._current_mhz


@dataclass
class OndemandGovernor:
    """Classic ondemand: jump to max above ``up_threshold``, step down when
    utilization would still fit at the next lower frequency.

    Attributes
    ----------
    up_threshold:
        Utilization above which the governor jumps to the ceiling.
    down_margin:
        Headroom kept when stepping down.
    """

    up_threshold: float = 0.80
    down_margin: float = 0.10
    _current_mhz: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.up_threshold <= 1.0:
            raise ConfigurationError("up_threshold must be within (0, 1]")
        if not 0.0 <= self.down_margin < 1.0:
            raise ConfigurationError("down_margin must be within [0, 1)")

    def target_frequency(
        self, spec: ClusterSpec, utilization: float, ceiling_mhz: float
    ) -> float:
        """Utilization-driven frequency choice."""
        if self._current_mhz == 0.0:
            self._current_mhz = spec.min_freq_mhz
        ceiling = spec.nearest_freq_mhz(ceiling_mhz)
        if utilization >= self.up_threshold:
            self._current_mhz = ceiling
            return self._current_mhz
        # Load the current frequency carries, rescaled to candidate freqs.
        needed_mhz = self._current_mhz * utilization / (1.0 - self.down_margin)
        candidate = spec.min_freq_mhz
        for freq in spec.freq_table_mhz:
            if freq > ceiling:
                break
            candidate = freq
            if freq >= needed_mhz:
                break
        self._current_mhz = candidate
        return self._current_mhz
