"""Bit-level pin on the batched engine step.

The batch pairing in ``repro.check`` compares the batched engine with the
serial one within 1e-9, so a last-bit change in the cohort step can pass
it.  This test hashes, per unit, the results, every kept trace column,
the event log, the final node temperatures and the OS and sensor
generator states of one 6-unit expm cohort per model.  Every cohort
throttles and hotplugs (models without a hard-limit policy get one), two
carry a skin throttle, and one LG G5 cohort runs on batteries under its
input-voltage throttle.  The scenario is a loaded hot start, a sleeping
cooldown and a memory-bound load with mixed per-unit pins.  The SHA-256
constants were recorded before the cohort step cached anything for RBCPR
parts; any change to the step's arithmetic changes them.
"""

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from repro.device.battery import Battery
from repro.device.catalog import device_spec
from repro.device.fleet import FleetUnit, build_device
from repro.instruments.monsoon import MonsoonPowerMonitor
from repro.sim.batch import BatchedWorld
from repro.thermal.skin import SkinThrottleSpec

UNITS = 6
ROOM_C = 30.0
BINNED = ("Nexus 5", "Nexus 6")
#: Cohorts whose devices also carry a skin-temperature throttle.
SKIN = ("Nexus 6", "LG G5")

#: SHA-256 of each cohort scenario.
DIGESTS = {
    "Nexus 5":
        "b9c8ac51db3020ca63d77cd0e8672712fd9b4436ae49791c1b01d15b51c6a27a",
    "Nexus 6":
        "a1c4a63f7823110fff11b78f9a17a129acf3616040435c76800abb203c916f64",
    "Nexus 6P":
        "b74f21cb3850e68008b2df2401eb9f0f357166bd8862bf1cadfcf156767403bf",
    "LG G5":
        "18859fb4e7f69e2b1d06d65b1dc985bde5fc9dd6c837e9ea5751e8828a672aad",
    "Google Pixel":
        "7da2725e9753835c8ed63d8a865f44b9e47b8e04cc83df563893b82d23e94ae3",
    "LG G5 battery":
        "9d4017e2b39b3cc2d66b20b016dc4bda00e2ec65c1a0d585fd46475ba9602566",
}


def _spec(model):
    spec = device_spec(model)
    throttle = spec.throttle
    if throttle.critical_temp_c is None:
        # One core goes a little above the stepwise trip point.
        throttle = replace(
            throttle,
            critical_temp_c=throttle.throttle_temp_c + 2.0,
            restore_temp_c=throttle.throttle_temp_c - 1.0,
        )
    skin = (
        SkinThrottleSpec(
            throttle_surface_c=36.0, clear_surface_c=34.0, poll_interval_s=5.0
        )
        if model in SKIN
        else None
    )
    return replace(spec, throttle=throttle, skin_throttle=skin)


def _devices(scenario):
    model = "LG G5" if scenario == "LG G5 battery" else scenario
    spec = _spec(model)
    devices = []
    for i in range(UNITS):
        if model in BINNED:
            unit = FleetUnit(
                model=model, serial=f"bits-{i}", bin_index=i % 4,
                bin_fraction=0.2 + 0.12 * i,
            )
        else:
            unit = FleetUnit(model=model, serial=f"bits-{i}", percentile=8.0 + 16.0 * i)
        device = build_device(
            unit, spec=spec, thermal_solver="expm", initial_temp_c=70.0
        )
        if scenario == "LG G5 battery":
            device.connect_supply(Battery(spec.battery, state_of_charge=0.8))
        else:
            device.connect_supply(MonsoonPowerMonitor(4.2))
        devices.append(device)
    return devices


def _scenario(world, fixed_mhz):
    """Loaded hot start, sleeping cooldown, mixed-pin memory-bound load."""
    world.pin_frequencies([None] * world.count)
    world.acquire_wakelock()
    world.start_load()
    world.set_phase("warmup")
    world.run_for(40.0)
    world.stop_load()
    world.release_wakelock()
    world.set_phase("cooldown")
    cooldown = world.run_cooldown(
        np.maximum(55.0, world.ambient_now() + 6.0), 1.0, 900.0
    )
    world.acquire_wakelock()
    world.pin_frequencies(
        [fixed_mhz if i % 2 else None for i in range(world.count)]
    )
    world.start_load(utilization=0.85, memory_boundedness=0.3)
    world.set_phase("workload")
    world.run_for(20.0)
    world.close()
    world.finalize()
    return cooldown


def scenario_lines(scenario):
    """Run one cohort scenario; return its hashed lines and the world."""
    devices = _devices(scenario)
    world = BatchedWorld(devices, room_temp_c=ROOM_C, dt=0.1, trace_decimation=2)
    cooldown = _scenario(world, devices[0].spec.fixed_freq_mhz)
    lines = []
    ops = world.ops_total
    energy = world.energy_drawn_j
    steps = world.looped_steps
    for i, device in enumerate(devices):
        lines.append(
            f"unit {i} ops={float(ops[i]).hex()} energy={float(energy[i]).hex()}"
            f" cooldown={float(cooldown[i]).hex()} steps={int(steps[i])}"
        )
        trace = world.traces[i]
        for channel in ("time", *trace.channels):
            column = trace.times() if channel == "time" else trace.column(channel)
            column = np.ascontiguousarray(column, dtype=np.float64)
            lines.append(f"{channel}={hashlib.sha256(column.tobytes()).hexdigest()}")
        for phase in trace.phases:
            lines.append(f"phase {phase.name} {phase.start_s.hex()} {phase.end_s.hex()}")
        for event in world.event_logs[i]:
            lines.append(f"event {float(event.time_s).hex()} {event.kind} {event.detail!r}")
        temps = device.thermal.temperatures()
        lines.extend(f"{name}={float(t).hex()}" for name, t in temps.items())
        for name, rng in (("os", device.os.rng), ("sensor", device.sensor.rng)):
            lines.append(
                f"{name}={json.dumps(rng.bit_generator.state, sort_keys=True)}"
            )
        soc = device.soc
        lines.append(
            f"soc {sorted(soc.frequencies_mhz().items())} {soc.online_cores()}"
            f" {soc.mitigation} {soc.external_ceiling_mhz}"
            f" {[c.voltage_adjust_v.hex() for c in soc.clusters]}"
        )
    return lines, world


def scenario_digest(scenario):
    lines, world = scenario_lines(scenario)
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode())
        digest.update(b"\n")
    return digest.hexdigest(), world


@pytest.mark.parametrize("scenario", sorted(DIGESTS))
def test_cohort_bits_are_pinned(scenario):
    digest, _ = scenario_digest(scenario)
    assert digest == DIGESTS[scenario]


@pytest.mark.parametrize("scenario", sorted(DIGESTS))
def test_scenario_throttles_and_hotplugs(scenario):
    # What the pinned scenarios exercise, so the digests mean something.
    _, world = scenario_digest(scenario)
    assert world.event_count("throttle-step") > 0
    assert world.event_count("core-offline") > 0
    assert world.event_count("core-online") > 0
