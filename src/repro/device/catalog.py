"""The five handsets of the study (paper Section III/IV).

Each :class:`DeviceSpec` bundles the SoC choice with the phone-level
constants that shape thermal behaviour: the RC network of the chassis, the
kernel's throttling thresholds, platform rail power, and the battery.  The
constants are calibrated to reproduce the paper's observed behaviour
(DESIGN.md §5), sized plausibly for each chassis (plastic Nexus 5, large
Nexus 6, metal Nexus 6P...).  A chassis network is assembled once per
(spec, solver) and every unit gets a fresh copy of that template.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.device.battery import BatterySpec
from repro.device.os_model import InputVoltageThrottle
from repro.device.power_rails import RailBudget
from repro.errors import UnknownModelError
from repro.soc.throttling import CoreShutdownPolicy, StepwiseThrottle, ThrottlePolicy
from repro.thermal.network import ThermalLink, ThermalNetwork, ThermalNode
from repro.thermal.skin import SkinThrottleSpec


@dataclass(frozen=True)
class ThermalSpec:
    """The chassis RC network: cpu → pkg → {battery, case} → ambient.

    Capacities in J/K, resistances in K/W.
    """

    cpu_capacity: float
    pkg_capacity: float
    battery_capacity: float
    case_capacity: float
    r_cpu_pkg: float
    r_pkg_case: float
    r_pkg_battery: float
    r_battery_case: float
    r_case_ambient: float

    def build(
        self, initial_temp_c: float = 25.0, solver: str = "euler"
    ) -> ThermalNetwork:
        """Instantiate the chassis network at a uniform temperature.

        ``solver`` selects the integration scheme — sub-stepped explicit
        Euler or the exact ``expm`` propagator (see
        :mod:`repro.thermal.propagator`).  The first build per (spec,
        solver) assembles a template network; every build returns a
        :meth:`~repro.thermal.network.ThermalNetwork.fresh` copy of it,
        which shares the template's immutable arrays.
        """
        key = (self, solver)
        template = _NETWORK_TEMPLATES.get(key)
        if template is None:
            template = _NETWORK_TEMPLATES[key] = self._network(solver)
        return template.fresh(initial_temp_c)

    def _network(self, solver: str) -> ThermalNetwork:
        return ThermalNetwork(
            nodes=[
                ThermalNode("cpu", self.cpu_capacity),
                ThermalNode("pkg", self.pkg_capacity),
                ThermalNode("battery", self.battery_capacity),
                ThermalNode("case", self.case_capacity),
                ThermalNode("ambient", math.inf),
            ],
            links=[
                ThermalLink("cpu", "pkg", self.r_cpu_pkg),
                ThermalLink("pkg", "case", self.r_pkg_case),
                ThermalLink("pkg", "battery", self.r_pkg_battery),
                ThermalLink("battery", "case", self.r_battery_case),
                ThermalLink("case", "ambient", self.r_case_ambient),
            ],
            solver=solver,
        )


#: Template network per (ThermalSpec, solver); see ThermalSpec.build.
_NETWORK_TEMPLATES: Dict[Tuple[ThermalSpec, str], ThermalNetwork] = {}


@dataclass(frozen=True)
class ThrottleSpec:
    """Kernel thermal-mitigation configuration.

    ``critical_temp_c`` of ``None`` disables the hotplug hard limit
    (only the Nexus 5 in the study sheds a core).
    """

    throttle_temp_c: float
    clear_temp_c: float
    poll_interval_s: float = 1.0
    max_steps: int = 12
    critical_temp_c: Optional[float] = None
    restore_temp_c: float = 75.0
    max_offline: int = 1

    def build(self) -> ThrottlePolicy:
        """Instantiate fresh mitigation state."""
        shutdown = None
        if self.critical_temp_c is not None:
            shutdown = CoreShutdownPolicy(
                critical_temp_c=self.critical_temp_c,
                restore_temp_c=self.restore_temp_c,
                max_offline=self.max_offline,
                poll_interval_s=min(0.5, self.poll_interval_s),
            )
        return ThrottlePolicy(
            stepwise=StepwiseThrottle(
                throttle_temp_c=self.throttle_temp_c,
                clear_temp_c=self.clear_temp_c,
                poll_interval_s=self.poll_interval_s,
                max_steps=self.max_steps,
            ),
            shutdown=shutdown,
        )


@dataclass(frozen=True)
class DeviceSpec:
    """Everything needed to instantiate one handset model."""

    name: str
    soc_name: str
    thermal: ThermalSpec
    throttle: ThrottleSpec
    rails: RailBudget
    battery: BatterySpec
    voltage_throttle: Optional[InputVoltageThrottle] = None
    #: Optional skin-temperature mitigation (none of the paper's five
    #: models ship one in this catalog; custom specs can add it).
    skin_throttle: Optional[SkinThrottleSpec] = None
    sensor_quantization_c: float = 0.1
    sensor_noise_sigma_c: float = 0.05
    #: Fixed frequency used for the FIXED-FREQUENCY workload (low enough
    #: to never thermally throttle on any unit), MHz.
    fixed_freq_mhz: float = 960.0


def nexus5() -> DeviceSpec:
    """Nexus 5 (SD-800, 2013): plastic chassis, the 80 °C core-shedding
    policy of paper Figure 1, and the Table I voltage bins."""
    return DeviceSpec(
        name="Nexus 5",
        soc_name="SD-800",
        thermal=ThermalSpec(
            cpu_capacity=1.2, pkg_capacity=12.0,
            battery_capacity=40.0, case_capacity=16.0,
            r_cpu_pkg=8.0, r_pkg_case=2.2, r_pkg_battery=3.5,
            r_battery_case=4.0, r_case_ambient=10.0,
        ),
        throttle=ThrottleSpec(
            throttle_temp_c=78.0, clear_temp_c=75.0, poll_interval_s=3.0,
            critical_temp_c=80.0, restore_temp_c=76.0, max_offline=1,
        ),
        rails=RailBudget(awake_idle_w=0.30, asleep_w=0.020),
        battery=BatterySpec(capacity_mah=2300.0, nominal_v=3.8, max_v=4.3),
        fixed_freq_mhz=960.0,
    )


def nexus6() -> DeviceSpec:
    """Nexus 6 (SD-805, 2014): a physically larger phone — more thermal
    mass and surface — pushing a 28 nm Krait to 2.65 GHz."""
    return DeviceSpec(
        name="Nexus 6",
        soc_name="SD-805",
        thermal=ThermalSpec(
            cpu_capacity=1.3, pkg_capacity=14.0,
            battery_capacity=50.0, case_capacity=22.0,
            r_cpu_pkg=7.0, r_pkg_case=2.2, r_pkg_battery=3.2,
            r_battery_case=3.8, r_case_ambient=8.8,
        ),
        throttle=ThrottleSpec(throttle_temp_c=76.0, clear_temp_c=73.0),
        rails=RailBudget(awake_idle_w=0.35, asleep_w=0.022),
        battery=BatterySpec(capacity_mah=3220.0, nominal_v=3.8, max_v=4.3),
        fixed_freq_mhz=960.0,
    )


def nexus6p() -> DeviceSpec:
    """Nexus 6P (SD-810, 2015): metal chassis spreads heat well, but the
    20 nm octa-core underneath throttles notoriously hard [18]."""
    return DeviceSpec(
        name="Nexus 6P",
        soc_name="SD-810",
        thermal=ThermalSpec(
            cpu_capacity=1.5, pkg_capacity=16.0,
            battery_capacity=50.0, case_capacity=24.0,
            r_cpu_pkg=4.5, r_pkg_case=2.0, r_pkg_battery=3.0,
            r_battery_case=3.4, r_case_ambient=8.0,
        ),
        throttle=ThrottleSpec(throttle_temp_c=73.0, clear_temp_c=70.0),
        rails=RailBudget(awake_idle_w=0.40, asleep_w=0.025),
        battery=BatterySpec(capacity_mah=3450.0, nominal_v=3.82, max_v=4.35),
        fixed_freq_mhz=960.0,
    )


def lg_g5() -> DeviceSpec:
    """LG G5 (SD-820, 2016): 14 nm FinFET quad Kryo — and the OS policy
    that throttles on battery input voltage (paper Figure 10)."""
    return DeviceSpec(
        name="LG G5",
        soc_name="SD-820",
        thermal=ThermalSpec(
            cpu_capacity=1.0, pkg_capacity=12.0,
            battery_capacity=40.0, case_capacity=16.0,
            r_cpu_pkg=7.2, r_pkg_case=2.5, r_pkg_battery=3.2,
            r_battery_case=3.8, r_case_ambient=9.0,
        ),
        throttle=ThrottleSpec(throttle_temp_c=80.0, clear_temp_c=77.0),
        rails=RailBudget(awake_idle_w=0.32, asleep_w=0.020),
        battery=BatterySpec(capacity_mah=2800.0, nominal_v=3.85, max_v=4.4),
        voltage_throttle=InputVoltageThrottle(threshold_v=4.0, ceiling_mhz=1478.0),
        fixed_freq_mhz=883.0,
    )


def google_pixel() -> DeviceSpec:
    """Google Pixel (SD-821, 2016): the matured 14 nm respin."""
    return DeviceSpec(
        name="Google Pixel",
        soc_name="SD-821",
        thermal=ThermalSpec(
            cpu_capacity=1.0, pkg_capacity=12.0,
            battery_capacity=38.0, case_capacity=15.0,
            r_cpu_pkg=9.0, r_pkg_case=2.5, r_pkg_battery=3.2,
            r_battery_case=3.8, r_case_ambient=9.2,
        ),
        throttle=ThrottleSpec(throttle_temp_c=79.0, clear_temp_c=76.0),
        rails=RailBudget(awake_idle_w=0.30, asleep_w=0.018),
        battery=BatterySpec(capacity_mah=2770.0, nominal_v=3.85, max_v=4.4),
        fixed_freq_mhz=883.0,
    )


_BUILDERS = {
    "Nexus 5": nexus5,
    "Nexus 6": nexus6,
    "Nexus 6P": nexus6p,
    "LG G5": lg_g5,
    "Google Pixel": google_pixel,
}

#: All catalogued handsets, generation order.
DEVICE_NAMES: Tuple[str, ...] = tuple(_BUILDERS)


def device_spec(name: str) -> DeviceSpec:
    """Build a catalogued handset spec by name."""
    try:
        return _BUILDERS[name]()
    except KeyError:
        raise UnknownModelError("device", name, DEVICE_NAMES) from None
