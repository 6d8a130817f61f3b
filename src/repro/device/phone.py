"""The device under test.

:class:`Device` wires one sampled die into one chassis: SoC runtime, chassis
thermal network, temperature sensor, OS behaviour, and a power supply.  It
exposes exactly the control surface the paper's benchmarking app has —
wakelocks, loading all cores, pinning frequencies, and reading the CPU
temperature sensor — plus a :meth:`step` the simulation engine drives.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional

import numpy as np

from repro.device.battery import Battery
from repro.device.catalog import DeviceSpec
from repro.device.os_model import OsBehavior
from repro.device.power_rails import PowerSupply
from repro.errors import ConfigurationError
from repro.rng import DEFAULT_ROOT_SEED, derive_stream
from repro.silicon.transistor import SiliconProfile
from repro.soc.catalog import soc_by_name
from repro.soc.dvfs import PerformanceGovernor, UserspaceGovernor
from repro.soc.instance import Soc
from repro.thermal.sensors import TemperatureSensor


class StepReport(NamedTuple):
    """What happened during one engine step.

    An immutable record built once per step; a named tuple constructs
    several times faster than a frozen dataclass.  ``frequencies_mhz`` is
    the SoC's shared per-clock dict (see ``Soc.frequencies_mhz``).

    Attributes
    ----------
    time_s:
        Device-local time at the *end* of the step.
    supply_power_w:
        Power drawn from the supply (what a Monsoon measures), watts.
    soc_power_w:
        CPU-rail power (dynamic + leakage), watts.
    ops:
        Work retired this step, ops.
    current_a:
        Supply current, amperes.
    cpu_temp_c / case_temp_c:
        True node temperatures, °C.
    frequencies_mhz:
        Cluster frequencies at the end of the step.
    online_cores:
        Cores online at the end of the step.
    asleep:
        Whether the device was suspended for this step.
    """

    time_s: float
    supply_power_w: float
    soc_power_w: float
    ops: float
    current_a: float
    cpu_temp_c: float
    case_temp_c: float
    frequencies_mhz: Dict[str, float]
    online_cores: int
    asleep: bool


class Device:
    """One physical handset: chassis + die + OS + supply."""

    def __init__(
        self,
        spec: DeviceSpec,
        serial: str,
        profile: SiliconProfile,
        bin_index: int = 0,
        supply: Optional[PowerSupply] = None,
        root_seed: int = DEFAULT_ROOT_SEED,
        initial_temp_c: float = 25.0,
        thermal_solver: str = "euler",
    ) -> None:
        self.spec = spec
        self.serial = serial
        self.profile = profile
        soc_spec = soc_by_name(spec.soc_name)
        self.soc = Soc(
            spec=soc_spec,
            profile=profile,
            throttle=spec.throttle.build(),
            bin_index=bin_index,
        )
        self.thermal = spec.thermal.build(initial_temp_c, solver=thermal_solver)
        # Resolve the thermal nodes the step loop touches once; the power
        # vector is reused every step (non-injected entries stay zero).
        self._idx_ambient = self.thermal.node_index("ambient")
        self._idx_cpu, self._idx_case, self._idx_pkg = (
            self.thermal.injection_indices(("cpu", "case", "pkg"))
        )
        self._thermal_power = np.zeros(len(self.thermal.node_names))
        sensor_rng = derive_stream(root_seed, spec.name, serial, "sensor")
        self.sensor = TemperatureSensor(
            node="cpu",
            quantization_c=spec.sensor_quantization_c,
            noise_sigma_c=spec.sensor_noise_sigma_c,
            rng=sensor_rng if spec.sensor_noise_sigma_c > 0 else None,
        )
        os_rng = derive_stream(root_seed, spec.name, serial, "os")
        self.os = OsBehavior(voltage_throttle=spec.voltage_throttle, rng=os_rng)
        self.supply: PowerSupply = (
            supply if supply is not None else Battery(spec.battery)
        )
        self.skin_throttle = (
            spec.skin_throttle.build() if spec.skin_throttle is not None else None
        )
        self._now_s = 0.0
        self._load_active = False
        self._load_utilization = 1.0
        self._fixed_mhz: Optional[float] = None
        self._apply_governors()

    # -- benchmark-app control surface -----------------------------------

    @property
    def now_s(self) -> float:
        """Device-local simulation time, seconds."""
        return self._now_s

    def connect_supply(self, supply: PowerSupply) -> None:
        """Swap the power source (battery ↔ Monsoon)."""
        self.supply = supply

    def acquire_wakelock(self) -> None:
        """Keep the device awake (warmup and workload phases)."""
        self.os.acquire_wakelock()

    def release_wakelock(self) -> None:
        """Let the device suspend (cooldown phase)."""
        self.os.release_wakelock()

    def start_load(
        self, utilization: float = 1.0, memory_boundedness: float = 0.0
    ) -> None:
        """Load every core (the π loop on all CPUs).

        ``memory_boundedness`` > 0 models a workload that stalls on memory
        for that fraction of its time (at top frequency) — unlike the
        paper's fully CPU-bound π task.
        """
        if not 0.0 < utilization <= 1.0:
            raise ConfigurationError("utilization must be within (0, 1]")
        self._load_active = True
        self._load_utilization = utilization
        self.soc.set_utilization(utilization)
        self.soc.set_memory_boundedness(memory_boundedness)
        self._apply_governors()

    def stop_load(self) -> None:
        """Stop the benchmark load."""
        self._load_active = False
        self.soc.set_utilization(0.0)
        self._apply_governors()

    def set_fixed_frequency(self, freq_mhz: float) -> None:
        """Pin all clusters at (their nearest ladder step below) a frequency
        — the FIXED-FREQUENCY workload configuration."""
        if freq_mhz <= 0:
            raise ConfigurationError("freq_mhz must be positive")
        self._fixed_mhz = freq_mhz
        self._apply_governors()

    def unconstrain_frequency(self) -> None:
        """Restore the performance governor — the UNCONSTRAINED workload."""
        self._fixed_mhz = None
        self._apply_governors()

    def read_cpu_temp(self) -> float:
        """What the benchmark app sees when it polls the temperature, °C."""
        return self.sensor.read(self.thermal)

    def reboot(self, soak_temp_c: Optional[float] = None) -> None:
        """Reset mitigation and (optionally) soak the chassis to a uniform
        temperature — used between experiments, not between iterations."""
        self.soc.reset()
        self.os.release_wakelock()
        self._now_s = 0.0
        self._load_active = False
        self._fixed_mhz = None
        self._apply_governors()
        if soak_temp_c is not None:
            temps = {name: soak_temp_c for name in self.thermal.node_names}
            for name, temp in temps.items():
                self.thermal.set_temperature(name, temp)

    # -- engine interface -------------------------------------------------

    @property
    def is_asleep(self) -> bool:
        """Suspended: no wakelock and no active load."""
        return not self.os.wakelock_held and not self._load_active

    def step(self, ambient_c: float, dt: float) -> StepReport:
        """Advance the device by ``dt`` seconds under a given ambient."""
        if dt <= 0:
            raise ConfigurationError("dt must be positive")
        thermal = self.thermal
        soc = self.soc
        os_state = self.os
        now_s = self._now_s
        thermal.set_temperature_at(self._idx_ambient, ambient_c)
        die_temp = thermal.temperature_at(self._idx_cpu)
        asleep = self.is_asleep

        if asleep:
            soc_power = 0.0
            ops = 0.0
            load_w = self.spec.rails.asleep_w
        else:
            soc.external_ceiling_mhz = os_state.cpu_ceiling_mhz(
                self.supply.output_voltage_v
            )
            if self.skin_throttle is not None:
                soc.external_ceiling_steps = self.skin_throttle.update(
                    thermal.temperature_at(self._idx_case), ambient_c, now_s
                )
            soc_power, ops = soc.step(die_temp, now_s, dt)
            ops *= 1.0 - os_state.steal_frac(now_s)
            load_w = (
                soc_power
                + self.spec.rails.awake_idle_w
                + os_state.background_noise_w()
            )

        supply_power = self.spec.rails.supply_power_w(load_w)
        current = self.supply.draw(supply_power, dt)
        # CPU power dissipates in the die; regulator losses and platform
        # power land on the board (pkg).  Nothing is injected at the case
        # (the display is off, per the methodology), so its entry stays 0.
        power_vec = self._thermal_power
        power_vec[self._idx_cpu] = soc_power
        power_vec[self._idx_pkg] = supply_power - soc_power
        thermal.step_vector(power_vec, dt)
        self._now_s = now_s = now_s + dt
        # Positional, in field order: half the cost of keyword arguments.
        return StepReport(
            now_s,
            supply_power,
            soc_power,
            ops,
            current,
            thermal.temperature_at(self._idx_cpu),
            thermal.temperature_at(self._idx_case),
            soc.frequencies_mhz(),
            soc.online_cores(),
            asleep,
        )

    # -- internals --------------------------------------------------------

    def _apply_governors(self) -> None:
        """Install governors reflecting load state and frequency pinning."""
        for cluster in self.soc.clusters:
            spec = cluster.spec
            if not self._load_active:
                governor = UserspaceGovernor(fixed_mhz=spec.min_freq_mhz)
            elif self._fixed_mhz is not None:
                governor = UserspaceGovernor(
                    fixed_mhz=spec.nearest_freq_mhz(self._fixed_mhz)
                )
            else:
                governor = PerformanceGovernor()
            self.soc.set_governor(governor, spec.name)
