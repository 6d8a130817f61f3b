"""ACCUBENCH protocol configuration (paper Section III).

The paper's durations: 3-minute warmup (enough for an idle CPU to reach a
busy CPU's thermal state), cooldown polling the temperature sensor every
5 seconds until it reports the target, then a 5-minute workload.  Tests
scale everything down with :meth:`AccubenchConfig.scaled`; the physics is
qualitatively identical at shorter durations, just noisier.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.errors import ConfigurationError
from repro.units import minutes, require_finite


@dataclass(frozen=True)
class AccubenchConfig:
    """Parameters of one ACCUBENCH run.

    Attributes
    ----------
    warmup_s:
        Duration of the all-cores warmup burn, seconds.
    workload_s:
        Duration of the measured workload (T_workload), seconds.
    cooldown_target_c:
        Sensor temperature at which the workload may start, °C.
    cooldown_poll_s:
        Sleep interval between sensor polls during cooldown, seconds.
    cooldown_timeout_s:
        Abort bound on the cooldown phase, seconds.
    iterations:
        Back-to-back protocol iterations per experiment.
    dt:
        Simulation step, seconds.
    trace_decimation:
        Record every N-th engine step into the trace.
    keep_traces:
        Whether iteration results retain their full traces (the
        distribution figures need them; big campaigns may drop them).
    thermal_solver:
        Chassis-network integration scheme: ``"euler"`` (sub-stepped
        explicit Euler, the historical default) or ``"expm"`` (exact
        zero-order-hold matrix-exponential propagation; unconditionally
        stable and required for the sleep fast-forward).
    sleep_fast_forward:
        Whether the cooldown/soak phases may advance whole poll windows
        as single exact propagations while the device sleeps.  Only takes
        effect with ``thermal_solver="expm"``; results agree with full
        stepping within the sensor's resolution.
    check_invariants:
        Attach the :mod:`repro.check.invariants` suite to every world the
        protocol builds, raising
        :class:`~repro.errors.InvariantViolation` the step the physics
        stops being plausible.  Off by default — an observed run takes
        the engine's per-step path instead of the inlined hot loop.
    batch:
        Whether fleet runs use the lock-step batched engine
        (:mod:`repro.sim.batch`).  ``None`` (the default) batches
        automatically when a fleet has at least four eligible units;
        ``True`` batches whenever the fleet is eligible; ``False`` forces
        the serial per-unit path.  The batched engine covers every
        catalog scenario — invariant observers, skin throttles,
        memory-bounded workloads and mixed-model fleets (per-model
        cohort blocks) included; only the Euler solver, disabled sleep
        fast-forward and several models sharing a THERMABOX run still
        require the serial path — see
        :func:`repro.core.batch_runner.batch_ineligibility_reason`.
    utilization:
        Per-core CPU utilization of the benchmark load, in (0, 1].
    memory_boundedness:
        Fraction of workload time stalled on memory at the top frequency
        (β in the DVFS stall model), in [0, 1).  Memory-bound loads
        scale sub-linearly with frequency and draw less core power.
    """

    warmup_s: float = minutes(3)
    workload_s: float = minutes(5)
    cooldown_target_c: float = 38.0
    cooldown_poll_s: float = 5.0
    cooldown_timeout_s: float = minutes(45)
    iterations: int = 5
    dt: float = 0.1
    trace_decimation: int = 10
    keep_traces: bool = False
    thermal_solver: str = "euler"
    sleep_fast_forward: bool = True
    check_invariants: bool = False
    batch: Optional[bool] = None
    utilization: float = 1.0
    memory_boundedness: float = 0.0

    def __post_init__(self) -> None:
        if self.thermal_solver not in ("euler", "expm"):
            raise ConfigurationError(
                f"unknown thermal_solver {self.thermal_solver!r}; "
                "choose 'euler' or 'expm'"
            )
        require_finite(
            "AccubenchConfig",
            warmup_s=self.warmup_s,
            workload_s=self.workload_s,
            cooldown_target_c=self.cooldown_target_c,
            cooldown_poll_s=self.cooldown_poll_s,
            cooldown_timeout_s=self.cooldown_timeout_s,
            dt=self.dt,
        )
        if self.cooldown_target_c < 0:
            raise ConfigurationError("cooldown_target_c must not be negative")
        if self.warmup_s <= 0 or self.workload_s <= 0:
            raise ConfigurationError("phase durations must be positive")
        if self.cooldown_poll_s <= 0 or self.cooldown_timeout_s <= 0:
            raise ConfigurationError("cooldown timings must be positive")
        if self.iterations < 1:
            raise ConfigurationError("iterations must be at least 1")
        if self.dt <= 0:
            raise ConfigurationError("dt must be positive")
        if self.cooldown_poll_s < self.dt:
            raise ConfigurationError("cooldown_poll_s must be at least dt")
        if self.trace_decimation < 1:
            raise ConfigurationError("trace_decimation must be at least 1")
        require_finite(
            "AccubenchConfig",
            utilization=self.utilization,
            memory_boundedness=self.memory_boundedness,
        )
        if not 0.0 < self.utilization <= 1.0:
            raise ConfigurationError("utilization must be within (0, 1]")
        if not 0.0 <= self.memory_boundedness < 1.0:
            raise ConfigurationError("memory_boundedness must be within [0, 1)")

    def scaled(self, factor: float) -> "AccubenchConfig":
        """A config with phase durations scaled by ``factor`` (tests use
        factors well below 1 to keep runtimes short)."""
        if factor <= 0:
            raise ConfigurationError("factor must be positive")
        return replace(
            self,
            warmup_s=self.warmup_s * factor,
            workload_s=self.workload_s * factor,
            cooldown_timeout_s=self.cooldown_timeout_s * factor,
        )

    def with_traces(self) -> "AccubenchConfig":
        """A config that retains full iteration traces."""
        return replace(self, keep_traces=True)
