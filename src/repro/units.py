"""Unit conventions and conversion helpers.

The library uses a single unit convention everywhere:

========================  =======================================
Quantity                  Unit
========================  =======================================
temperature               degrees Celsius (``float``)
frequency                 megahertz (``float`` or ``int``)
voltage                   volts (``float``)
current                   amperes (``float``)
power                     watts (``float``)
energy                    joules (``float``)
time                      seconds (``float``)
heat capacity             joules per kelvin
thermal resistance        kelvin per watt
========================  =======================================

Voltage tables extracted from kernel sources (the paper's Table I) are in
millivolts; :func:`mv_to_v` converts them at the boundary.
"""

from __future__ import annotations

import math

#: Ambient target used throughout the paper's experiments (Section III).
PAPER_AMBIENT_C = 26.0

#: THERMABOX regulation band around the target (Section III).
PAPER_AMBIENT_TOLERANCE_C = 0.5


def mv_to_v(millivolts: float) -> float:
    """Convert millivolts (kernel voltage-table units) to volts."""
    return millivolts / 1000.0


def v_to_mv(volts: float) -> float:
    """Convert volts to millivolts."""
    return volts * 1000.0


def mhz_to_hz(mhz: float) -> float:
    """Convert megahertz to hertz."""
    return mhz * 1e6


def mwh_to_joules(mwh: float) -> float:
    """Convert milliwatt-hours to joules."""
    return mwh * 3.6


def minutes(count: float) -> float:
    """Return ``count`` minutes expressed in seconds."""
    return count * 60.0


def require_finite(context: str, **fields: float) -> None:
    """Reject NaN/infinite numbers at a construction boundary.

    Range checks like ``value <= 0`` silently pass NaN (every comparison
    with NaN is false), so configs must screen for finiteness *first*.
    Raises :class:`~repro.errors.ConfigurationError` naming the offending
    field, e.g. ``require_finite("AccubenchConfig", warmup_s=self.warmup_s)``.
    """
    from repro.errors import ConfigurationError

    for name, value in fields.items():
        if not math.isfinite(value):
            raise ConfigurationError(
                f"{context}.{name} must be a finite number, got {value!r}"
            )
