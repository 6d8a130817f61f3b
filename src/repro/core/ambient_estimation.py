"""Estimating ambient temperature from the cooldown phase (paper §VI).

The paper's crowdsourcing plan cannot control ambient temperature in the
wild, but notes that "preliminary results on using the cooldown phase as an
estimate of ambient temperature are encouraging."  A sleeping phone's
temperature decays exponentially toward the room:

    T(t) = T_ambient + (T_0 − T_ambient) · exp(−t/τ)

Uniformly-sampled readings of such a decay satisfy the AR(1) recurrence
``T[i+1] = a + b·T[i]`` with ``T_ambient = a / (1 − b)`` and
``τ = −Δt / ln(b)`` — a closed-form fit needing only the 5-second sensor
polls the cooldown phase already performs.  The early samples mix in the
die's fast transient (it equalizes with the package within seconds), so the
fit skips a configurable head fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import AnalysisError

#: Fraction of cooldown samples discarded before fitting (die→package
#: fast transient).
DEFAULT_SKIP_FRACTION = 0.25

#: Fewest post-skip samples a fit will accept.
MIN_SAMPLES = 8

#: The field probe's sensor polling period (the 5-second polls the
#: cooldown phase already performs); shared with the batched probe in
#: :mod:`repro.core.crowd_stream`.
DEFAULT_PROBE_POLL_S = 5.0

#: The field probe's head-skip fraction — more aggressive than the plain
#: fit's :data:`DEFAULT_SKIP_FRACTION` because the probe's observe window
#: starts right at wakelock release, deep in the die transient.
DEFAULT_PROBE_SKIP_FRACTION = 0.4


@dataclass(frozen=True)
class AmbientEstimate:
    """Result of one cooldown-decay fit.

    Attributes
    ----------
    ambient_c:
        Estimated room temperature, °C.
    time_constant_s:
        Fitted cooling time constant, seconds.
    r_squared:
        Goodness of the AR(1) regression (1.0 = perfect decay).
    sample_count:
        Samples used by the fit (after head-skipping).
    """

    ambient_c: float
    time_constant_s: float
    r_squared: float
    sample_count: int

    def is_confident(self, min_r_squared: float = 0.95) -> bool:
        """Whether the decay was clean enough to trust (crowd filtering)."""
        return self.r_squared >= min_r_squared and self.time_constant_s > 0


def estimate_ambient(
    times_s: Sequence[float],
    temps_c: Sequence[float],
    skip_fraction: float = DEFAULT_SKIP_FRACTION,
) -> AmbientEstimate:
    """Fit an exponential-decay asymptote to uniform cooldown samples."""
    if not 0.0 <= skip_fraction < 1.0:
        raise AnalysisError("skip_fraction must be within [0, 1)")
    times = np.asarray(times_s, dtype=float)
    temps = np.asarray(temps_c, dtype=float)
    if times.shape != temps.shape or times.ndim != 1:
        raise AnalysisError("times and temps must be 1-D and equal length")
    start = int(len(times) * skip_fraction)
    times, temps = times[start:], temps[start:]
    if len(times) < MIN_SAMPLES:
        raise AnalysisError(
            f"need at least {MIN_SAMPLES} samples after skipping; "
            f"got {len(times)}"
        )
    spacing = np.diff(times)
    if spacing.min() <= 0:
        raise AnalysisError("times must be strictly increasing")
    if spacing.max() - spacing.min() > 1e-6 * max(spacing.max(), 1.0):
        raise AnalysisError("the AR(1) fit requires uniform sampling")
    dt = float(spacing[0])
    if float(np.ptp(temps)) < 0.2:
        raise AnalysisError(
            "temperature barely moves; nothing to fit (already at ambient?)"
        )

    current, following = temps[:-1], temps[1:]
    # Least-squares fit of following = a + b * current.
    b, a = np.polyfit(current, following, 1)
    if not 0.0 < b < 1.0:
        raise AnalysisError(
            "samples do not describe a decay (already at ambient, or heating)"
        )
    predicted = a + b * current
    residual = following - predicted
    total = following - following.mean()
    denom = float((total**2).sum())
    r_squared = 1.0 - float((residual**2).sum()) / denom if denom > 0 else 1.0

    return AmbientEstimate(
        ambient_c=float(a / (1.0 - b)),
        time_constant_s=float(-dt / np.log(b)),
        r_squared=max(0.0, r_squared),
        sample_count=len(times),
    )


def cooldown_probe(
    device,
    room,
    heat_s: float = 120.0,
    observe_s: float = 900.0,
    poll_s: float = DEFAULT_PROBE_POLL_S,
    dt: float = 0.2,
    skip_fraction: float = DEFAULT_PROBE_SKIP_FRACTION,
) -> AmbientEstimate:
    """Run a dedicated heat-then-observe cycle and estimate the room.

    This is what a field deployment would do (paper §VI): briefly warm the
    phone, release the wakelock, and watch the sensor relax toward the
    room for long enough that the chassis — not just the die — dominates
    the decay.  The ACCUBENCH cooldown phase stops at its target too early
    to reveal the asymptote; this probe keeps watching.

    ``device`` must be idle; ``room`` is an ambient profile.  Returns the
    fitted estimate; the true room temperature is *not* consulted.
    """
    from repro.sim.engine import World  # local import: avoids module cycle

    world = World(device, room=room, dt=dt, trace_decimation=1)
    device.acquire_wakelock()
    device.start_load()
    world.run_for(heat_s)
    device.stop_load()
    device.release_wakelock()

    times = []
    temps = []
    elapsed = 0.0
    while elapsed < observe_s:
        world.run_for(poll_s)
        elapsed += poll_s
        times.append(elapsed)
        temps.append(device.read_cpu_temp())
    return estimate_ambient(times, temps, skip_fraction=skip_fraction)
