"""Operating-system behaviours relevant to the methodology.

The paper's setup strips the OS down hard — radios off, display off, Google
services removed — precisely because background activity is measurement
noise.  The model keeps a small residual noise term (nothing is ever fully
quiet), wakelock/suspend semantics for the cooldown phase, and the LG G5's
input-voltage throttling policy (paper Figure 10): when the supply terminal
voltage is at or below a threshold, the OS caps the CPU frequency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.rng import NormalBlocks


@dataclass(frozen=True)
class InputVoltageThrottle:
    """An OS policy capping CPU frequency on low supply voltage.

    Attributes
    ----------
    threshold_v:
        At or below this terminal voltage, the cap engages.
    ceiling_mhz:
        Maximum CPU frequency while capped.
    """

    threshold_v: float
    ceiling_mhz: float

    def __post_init__(self) -> None:
        if self.threshold_v <= 0:
            raise ConfigurationError("threshold_v must be positive")
        if self.ceiling_mhz <= 0:
            raise ConfigurationError("ceiling_mhz must be positive")

    def ceiling_for(self, supply_voltage_v: float) -> Optional[float]:
        """The frequency cap for a given supply voltage (None = uncapped)."""
        if supply_voltage_v <= self.threshold_v:
            return self.ceiling_mhz
        return None


@dataclass
class OsBehavior:
    """Runtime OS state and residual noise.

    Attributes
    ----------
    background_power_w:
        Mean residual platform activity with everything disabled, watts.
    background_sigma_w:
        Standard deviation of that residual (sampled per engine step).
    steal_mean / steal_sigma:
        Background tasks occasionally steal CPU cycles from the benchmark.
        The steal fraction is piecewise-constant (a background job runs for
        a while, then stops), resampled every ``steal_interval_s`` from
        N(mean, sigma) clamped to [0, ``steal_max``].  This correlated
        noise is what makes even FIXED-FREQUENCY performance repeat only
        to ~1% RSD (paper Section IV-A).
    voltage_throttle:
        Optional input-voltage throttling policy (LG G5).
    rng:
        Stream for the noise; ``None`` makes the residual deterministic.
        Its normals are read a block at a time (:class:`NormalBlocks`), so
        the generator runs ahead of the draws taken until
        :meth:`hand_back`, which the engine calls at the end of every run.
    """

    background_power_w: float = 0.015
    background_sigma_w: float = 0.004
    steal_mean: float = 0.010
    steal_sigma: float = 0.010
    steal_max: float = 0.08
    steal_interval_s: float = 60.0
    voltage_throttle: Optional[InputVoltageThrottle] = None
    rng: Optional[np.random.Generator] = field(default=None, repr=False)
    _wakelock_held: bool = field(default=False, init=False)
    _steal_frac: float = field(default=0.0, init=False)
    _steal_until_s: float = field(default=0.0, init=False)
    _draws: Optional[NormalBlocks] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.background_power_w < 0:
            raise ConfigurationError("background_power_w must be non-negative")
        if self.background_sigma_w < 0:
            raise ConfigurationError("background_sigma_w must be non-negative")
        if self.steal_mean < 0 or self.steal_sigma < 0:
            raise ConfigurationError("steal parameters must be non-negative")
        if not 0.0 <= self.steal_max < 1.0:
            raise ConfigurationError("steal_max must be within [0, 1)")
        if self.steal_interval_s <= 0:
            raise ConfigurationError("steal_interval_s must be positive")
        if (self.background_sigma_w > 0 or self.steal_sigma > 0) and self.rng is None:
            raise ConfigurationError("noisy OS behaviour requires an rng")

    def __getstate__(self) -> Dict[str, Any]:
        # Pickle the generator where the draws taken leave it, without
        # the read-ahead block (the next draw starts a new one).
        self.hand_back()
        state = dict(self.__dict__)
        state["_draws"] = None
        return state

    def hand_back(self) -> None:
        """Leave :attr:`rng` exactly where the draws taken so far end."""
        if self._draws is not None:
            self._draws.hand_back()

    def _standard_normal(self) -> float:
        draws = self._draws
        if draws is None:  # first draw: most devices never step serially
            draws = self._draws = NormalBlocks([self.rng])
        return draws.take_one(0)

    @property
    def wakelock_held(self) -> bool:
        """Whether a wakelock currently prevents suspend."""
        return self._wakelock_held

    def acquire_wakelock(self) -> None:
        """Hold the device awake (benchmark phases)."""
        self._wakelock_held = True

    def release_wakelock(self) -> None:
        """Allow the device to suspend (cooldown phase)."""
        self._wakelock_held = False

    def background_noise_w(self) -> float:
        """Sample this step's residual background power, watts."""
        noise = self.background_power_w
        if self.background_sigma_w > 0 and self.rng is not None:
            # normal(0, σ) is 0.0 + σ·z; that 0.0 only flips the sign of a
            # zero draw, which adding the background power cancels.
            noise += self.background_sigma_w * self._standard_normal()
        return max(0.0, noise)

    def steal_frac(self, now_s: float) -> float:
        """Fraction of benchmark cycles background tasks currently steal."""
        if self.rng is None or self.steal_sigma == 0 and self.steal_mean == 0:
            return 0.0
        if now_s >= self._steal_until_s:
            sampled = self.steal_mean + self.steal_sigma * self._standard_normal()
            self._steal_frac = min(max(sampled, 0.0), self.steal_max)
            self._steal_until_s = now_s + self.steal_interval_s
        return self._steal_frac

    def cpu_ceiling_mhz(self, supply_voltage_v: float) -> Optional[float]:
        """Frequency cap the OS imposes for the current supply voltage."""
        if self.voltage_throttle is None:
            return None
        return self.voltage_throttle.ceiling_for(supply_voltage_v)
