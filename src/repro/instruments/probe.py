"""Thermistor temperature probe (ESP-8266 + thermistor, paper Figure 3).

A thermistor in free air is a first-order system: its reading lags the true
air temperature with a time constant of a few seconds, plus ADC noise and
quantization.  The THERMABOX controller regulates on *this* reading, so the
lag and noise bound how tightly the chamber can hold its band.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

import numpy as np

from repro.errors import ConfigurationError

#: Distinct step sizes whose smoothing factor a probe memoizes.
ALPHA_CACHE_SIZE = 32


class ThermistorProbe:
    """First-order-lag temperature probe with read noise."""

    def __init__(
        self,
        time_constant_s: float = 4.0,
        noise_sigma_c: float = 0.05,
        quantization_c: float = 0.0625,
        initial_temp_c: float = 25.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if time_constant_s <= 0:
            raise ConfigurationError("time_constant_s must be positive")
        if noise_sigma_c < 0:
            raise ConfigurationError("noise_sigma_c must be non-negative")
        if quantization_c < 0:
            raise ConfigurationError("quantization_c must be non-negative")
        if noise_sigma_c > 0 and rng is None:
            raise ConfigurationError("noise_sigma_c > 0 requires an rng")
        self._tau = time_constant_s
        self._noise = noise_sigma_c
        self._quantum = quantization_c
        self._element_c = initial_temp_c
        self._rng = rng
        # Smoothing factor per step size (the engine's dt plus the chunk
        # sizes of fast-forwarded windows), like ``StableEuler.plan``.
        self._alphas: Dict[float, float] = {}

    @property
    def element_temp_c(self) -> float:
        """Current sensing-element temperature (before noise), °C."""
        return self._element_c

    def advance(self, true_temp_c: float, dt: float) -> None:
        """Let the element track the true temperature for ``dt`` seconds."""
        if dt <= 0:
            raise ConfigurationError("dt must be positive")
        alpha = self._alphas.get(dt)
        if alpha is None:
            if len(self._alphas) >= ALPHA_CACHE_SIZE:
                self._alphas.clear()
            alpha = self._alphas[dt] = 1.0 - math.exp(-dt / self._tau)
        self._element_c += alpha * (true_temp_c - self._element_c)

    def read(self) -> float:
        """Sample the probe: element temperature + noise, quantized, °C."""
        value = self._element_c
        if self._noise > 0 and self._rng is not None:
            value += float(self._rng.normal(0.0, self._noise))
        if self._quantum > 0:
            value = round(value / self._quantum) * self._quantum
        return value
