"""The ACCUBENCH protocol state machine."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.experiments import fixed_frequency, unconstrained
from repro.core.protocol import MIN_COOLDOWN_MARGIN_C, Accubench, run_phases
from repro.device.catalog import device_spec
from repro.device.fleet import PAPER_FLEETS, build_device
from repro.errors import ProtocolError, SimulationError
from repro.instruments.monsoon import MonsoonPowerMonitor
from repro.instruments.thermabox import Thermabox
from repro.obs.metrics import MetricsRegistry, use_registry


@pytest.fixture
def bench(fast_config) -> Accubench:
    return Accubench(fast_config.with_traces())


def monsoon_device(model="Nexus 5", index=0):
    device = build_device(PAPER_FLEETS[model][index])
    device.connect_supply(MonsoonPowerMonitor(device.spec.battery.nominal_v))
    return device


class TestRunIteration:
    def test_unconstrained_iteration(self, bench):
        device = monsoon_device()
        result = bench.run_iteration(device, unconstrained())
        assert result.workload == "UNCONSTRAINED"
        assert result.iterations_completed > 0
        assert result.energy_j > 0
        assert result.mean_power_w > 0.5
        assert result.serial == "bin-0"

    def test_phases_annotated_in_order(self, bench):
        device = monsoon_device()
        result = bench.run_iteration(device, unconstrained())
        names = [p.name for p in result.trace.phases]
        assert names == ["warmup", "cooldown", "workload"]

    def test_workload_duration_respected(self, bench):
        device = monsoon_device()
        result = bench.run_iteration(device, unconstrained())
        span = result.trace.phase("workload")
        assert span.duration_s == pytest.approx(bench.config.workload_s, abs=1.0)

    def test_energy_counts_workload_only(self, bench):
        # Mean power x workload duration must equal the energy integral:
        # the counters were reset at workload start.
        device = monsoon_device()
        result = bench.run_iteration(device, unconstrained())
        assert result.energy_j == pytest.approx(
            result.mean_power_w * bench.config.workload_s, rel=0.01
        )

    def test_fixed_frequency_iteration_pins_clock(self, bench):
        device = monsoon_device()
        spec = fixed_frequency(device_spec("Nexus 5"))
        result = bench.run_iteration(device, spec)
        assert result.mean_freq_mhz == pytest.approx(960.0)
        assert result.time_throttled_s == 0.0

    def test_fixed_frequency_does_less_work(self, bench):
        device_a = monsoon_device()
        device_b = monsoon_device()
        fast = bench.run_iteration(device_a, unconstrained())
        slow = bench.run_iteration(device_b, fixed_frequency(device_spec("Nexus 5")))
        assert slow.iterations_completed < fast.iterations_completed

    def test_battery_powered_run_meters_energy(self, bench):
        # The paper compared battery power against the Monsoon (Fig 10);
        # any supply with cumulative energy accounting works.
        device = build_device(PAPER_FLEETS["Nexus 5"][0])  # battery powered
        result = bench.run_iteration(device, unconstrained())
        assert result.energy_j > 0

    def test_unmetered_supply_rejected(self, bench):
        class RawSupply:
            output_voltage_v = 3.8

            def draw(self, power_w, dt):
                return power_w / self.output_voltage_v

        device = build_device(PAPER_FLEETS["Nexus 5"][0])
        device.connect_supply(RawSupply())
        with pytest.raises(ProtocolError):
            bench.run_iteration(device, unconstrained())

    def test_cooldown_waits_for_target(self, bench):
        device = monsoon_device()
        # Pre-heat the device so the cooldown has real work to do.
        device.thermal.settle_to(60.0)
        result = bench.run_iteration(device, unconstrained())
        assert result.cooldown_s > 0.0

    def test_device_left_idle_after_iteration(self, bench):
        device = monsoon_device()
        bench.run_iteration(device, unconstrained())
        assert device.is_asleep

    def test_runs_inside_chamber(self, bench):
        device = monsoon_device()
        chamber = Thermabox(initial_temp_c=26.0)
        result = bench.run_iteration(device, unconstrained(), chamber=chamber)
        assert result.iterations_completed > 0
        assert chamber.is_within_band()

    def test_traces_dropped_when_not_requested(self, fast_config):
        bench = Accubench(fast_config)  # keep_traces=False
        result = bench.run_iteration(monsoon_device(), unconstrained())
        assert result.trace is None


class TestRunFixedWork:
    def test_completes_requested_work(self, bench):
        device = monsoon_device()
        result = bench.run_fixed_work(device, work_iterations=30.0)
        assert result.energy_j > 0
        # iterations_completed holds the time-to-completion for fixed work.
        assert result.iterations_completed > 0

    def test_leakier_bin_needs_more_energy(self, bench):
        bin0 = monsoon_device(index=0)
        bin3 = monsoon_device(index=3)
        e0 = bench.run_fixed_work(bin0, 30.0, skip_conditioning=True).energy_j
        e3 = bench.run_fixed_work(bin3, 30.0, skip_conditioning=True).energy_j
        assert e3 > e0

    def test_bad_work_rejected(self, bench):
        with pytest.raises(ProtocolError):
            bench.run_fixed_work(monsoon_device(), work_iterations=0.0)

    def test_conditioning_runs_by_default(self, bench):
        device = monsoon_device()
        result = bench.run_fixed_work(device, 10.0)
        names = [p.name for p in result.trace.phases]
        assert names[0] == "warmup"


class FakeEngine:
    """Stands in for either engine and records each verb the driver calls.

    Serves as both the world and the load target.  Awake time draws
    1 W and retires 10 ops/s, so a window's energy and work follow
    from its length.
    """

    def __init__(self, ambient_c=20.0, cooldown_error=None):
        self.calls = []
        self.ambient_c = ambient_c
        self.cooldown_error = cooldown_error
        self.cooldown_targets = None
        self.now = 0.0
        self.energy_drawn_j = 0.0
        self.ops_total = 0.0

    def acquire_wakelock(self):
        self.calls.append("acquire_wakelock")

    def release_wakelock(self):
        self.calls.append("release_wakelock")

    def start_load(self, utilization, memory_boundedness):
        self.calls.append("start_load")

    def stop_load(self):
        self.calls.append("stop_load")

    def set_phase(self, name):
        self.calls.append(name)

    def run_for(self, duration_s):
        self.calls.append("run_for")
        self.now += duration_s
        self.energy_drawn_j += duration_s
        self.ops_total += 10.0 * duration_s

    def ambient_now(self):
        return self.ambient_c

    def run_cooldown(self, targets_c, poll_s, timeout_s):
        self.calls.append("run_cooldown")
        self.cooldown_targets = targets_c
        if self.cooldown_error is not None:
            raise self.cooldown_error
        self.now += 7.0
        return 7.0

    def close(self):
        self.calls.append("close")

    def engine_tallies(self):
        return 0, 0, 0, self.now, lambda kind: 0, 1


class TestRunPhases:
    @pytest.fixture
    def config(self, fast_config):
        return replace(fast_config, cooldown_target_c=38.0)

    def run(self, engine, config, condition=True):
        return run_phases(
            engine, engine, config, lambda w: w.run_for(config.workload_s),
            condition=condition,
        )

    def test_call_order(self, config):
        engine = FakeEngine()
        registry = MetricsRegistry(enabled=True)
        with use_registry(registry):
            cooldown_s, energy_j, ops, window = self.run(engine, config)
        assert engine.calls == [
            "acquire_wakelock", "start_load", "warmup", "run_for",
            "stop_load", "release_wakelock", "cooldown", "run_cooldown",
            "acquire_wakelock", "start_load", "workload", "run_for",
            "stop_load", "release_wakelock", "close",
        ]
        assert [span.name for span in registry.spans] == [
            "phase.warmup", "phase.cooldown", "phase.workload",
        ]
        assert registry.snapshot()["counters"]["protocol.iterations"] == 1
        # Energy and work are metered over the workload window only.
        assert (cooldown_s, energy_j, window) == (7.0, config.workload_s, None)
        assert ops == 10.0 * config.workload_s

    def test_cooldown_target_is_held_above_ambient(self, config):
        cold, warm = FakeEngine(ambient_c=20.0), FakeEngine(ambient_c=35.0)
        self.run(cold, config)
        self.run(warm, config)
        assert cold.cooldown_targets == 38.0
        assert warm.cooldown_targets == 35.0 + MIN_COOLDOWN_MARGIN_C

    def test_cooldown_targets_are_elementwise(self, config):
        engine = FakeEngine(ambient_c=np.array([20.0, 35.0, 31.0]))
        self.run(engine, config)
        np.testing.assert_array_equal(
            engine.cooldown_targets, [38.0, 35.0 + MIN_COOLDOWN_MARGIN_C, 38.0]
        )

    def test_no_conditioning_skips_warmup_and_cooldown(self, config):
        engine = FakeEngine()
        cooldown_s, energy_j, _, _ = self.run(engine, config, condition=False)
        assert cooldown_s == 0.0
        assert energy_j == config.workload_s
        assert engine.calls == [
            "acquire_wakelock", "start_load", "workload", "run_for",
            "stop_load", "release_wakelock", "close",
        ]

    def test_cooldown_timeout_propagates(self, config):
        engine = FakeEngine(cooldown_error=SimulationError("run_until timed out"))
        with pytest.raises(SimulationError, match="timed out"):
            self.run(engine, config)
        assert "workload" not in engine.calls

    def test_serial_cooldown_timeout_propagates(self, fast_config):
        # One poll window cannot bring a just-warmed die to ambient + margin.
        config = replace(fast_config, cooldown_target_c=0.0, cooldown_timeout_s=5.0)
        with pytest.raises(SimulationError, match="timed out"):
            Accubench(config).run_iteration(monsoon_device(), unconstrained())
