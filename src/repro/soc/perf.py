"""Performance model for the paper's π workload.

The paper measures performance as the number of completed iterations of
"compute the first 4,285 digits of π" across all cores in a fixed
5-minute window.  The digit count was chosen to take roughly one second at
the Nexus 6's top frequency, which anchors our work unit:

    one iteration = :data:`PI_ITERATION_OPS` ops
    ops/s of a core = frequency(Hz) · IPC

with Krait IPC defined as 1.0.  Because the workload is fully CPU-bound and
cache-resident, retired work is linear in clock frequency — the property the
paper relies on when reading performance deltas off mean-frequency deltas
(Figures 11, 12).
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.units import mhz_to_hz

#: Nexus 6 (SD-805 Krait, IPC 1.0) top frequency, MHz.
_NEXUS6_TOP_MHZ = 2649.0

#: Ops per π iteration: one second of one Krait core at the Nexus 6's top
#: frequency (paper Section III).
PI_ITERATION_OPS = mhz_to_hz(_NEXUS6_TOP_MHZ) * 1.0


def ops_rate(freq_mhz: float, ipc: float) -> float:
    """Work retired per second by one fully-busy core, ops/s."""
    if freq_mhz < 0:
        raise ConfigurationError("freq_mhz must be non-negative")
    if ipc <= 0:
        raise ConfigurationError("ipc must be positive")
    return mhz_to_hz(freq_mhz) * ipc


def iterations_from_ops(total_ops: float) -> float:
    """Convert accumulated ops to (fractional) π-workload iterations."""
    if total_ops < 0:
        raise ConfigurationError("total_ops must be non-negative")
    return total_ops / PI_ITERATION_OPS
