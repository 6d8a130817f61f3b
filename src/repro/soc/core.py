"""Per-core runtime state.

Cores share their cluster's frequency and voltage (per-cluster DVFS, as on
all the studied SoCs), so the only per-core state is hotplug status and
utilization.  Hotplug matters: the Nexus 5's thermal policy takes a core
offline when the die hits 80 °C (paper Figure 1).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass
class CoreState:
    """Runtime state of one CPU core.

    Attributes
    ----------
    index:
        Core number within its cluster.
    online:
        Whether the core is hotplugged in.  Offline cores are power-gated:
        they draw neither dynamic nor leakage power.
    utilization:
        Fraction of cycles doing work, in [0, 1].  The paper's π workload
        pins every online core at 1.0.
    """

    index: int
    online: bool = True
    utilization: float = 0.0

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ConfigurationError("core index must be non-negative")
        self.set_utilization(self.utilization)

    def set_utilization(self, utilization: float) -> None:
        """Set the core's utilization, validating the range."""
        if not 0.0 <= utilization <= 1.0:
            raise ConfigurationError("utilization must be within [0, 1]")
        self.utilization = utilization
