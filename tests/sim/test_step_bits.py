"""Bit-level pin on the serial engine step.

The golden gate compares results within 1e-9, so a last-bit change in one
step can pass it.  This test hashes every field of every ``StepReport``
(floats as ``float.hex``), the trace, the final node temperatures and the
OS, sensor and chamber-probe generator states of a loaded world that
throttles, sleeps through a cooldown and then runs a pinned, memory-bound
load.  The SHA-256 constants were recorded before the step's per-step
memos existed; any change to the step's arithmetic changes them.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.device.catalog import DEVICE_NAMES
from repro.device.fleet import PAPER_FLEETS, build_device
from repro.instruments.monsoon import MonsoonPowerMonitor
from repro.instruments.thermabox import Thermabox, ThermaboxConfig
from repro.rng import derive_stream
from repro.sim.engine import World

#: ``StepReport`` fields, in hash order.
REPORT_FIELDS = (
    "time_s",
    "supply_power_w",
    "soc_power_w",
    "ops",
    "current_a",
    "cpu_temp_c",
    "case_temp_c",
    "frequencies_mhz",
    "online_cores",
    "asleep",
)

#: SHA-256 of each (model, solver) scenario.
DIGESTS = {
    ("Nexus 5", "euler"):
        "f99009d4cec2d873088e3ae356a04a94e3d7dd29e3faea610b05b76d33d6e349",
    ("Nexus 5", "expm"):
        "128c6075e9d1e92b146757179b4f84a69a802c65e842342ecb1e4b7404ff3412",
    ("Nexus 6", "euler"):
        "ae83328e3f1fed4238edbd5ad32483e48d04b3c92ff9d42e1ec57aa44071c20e",
    ("Nexus 6", "expm"):
        "0c4f15708a550e35bb05bee8b8d210d91dd04c74047ac0ff63b564750f6fb0c8",
    ("Nexus 6P", "euler"):
        "169f12d2b544730348312a77c68ff0ed1961bf0a05860dc8589eebaa1a11152f",
    ("Nexus 6P", "expm"):
        "b893ba8802e44db3f4d995d81818f1ba4808f855a94dba6ccf0e503a548a6800",
    ("LG G5", "euler"):
        "e9d974043f72932b53d481e92d30eeae0f56aadf803a9d0a9939d02e7b51b6d3",
    ("LG G5", "expm"):
        "a1cda3705c2bc70beaa611333e365a408fa1ff6949d10a300b0cc3786858be0a",
    ("Google Pixel", "euler"):
        "a6f4d9169142a1e9ec053d5fafffacbc9ac76fc9b32cb34419cabe067f3a11e8",
    ("Google Pixel", "expm"):
        "bbbcd73eb41dbfc14018b617e0751273237237640eaddeea27943058bb6f4323",
}


class _Recorder:
    def __init__(self):
        self.reports = []

    def on_step(self, world, report, ambient_c, dt):
        self.reports.append((report, ambient_c, dt))


def _build(model, solver):
    # A hot start inside a warm chamber throttles every model within the
    # loaded minute; the chamber probe's noise puts its stream in play.
    device = build_device(
        PAPER_FLEETS[model][-1], thermal_solver=solver, initial_temp_c=60.0
    )
    device.connect_supply(MonsoonPowerMonitor(3.8))
    chamber = Thermabox(
        ThermaboxConfig(target_c=36.0), initial_temp_c=36.0,
        rng=derive_stream(7, "chamber", model),
    )
    return World(device, chamber=chamber, dt=0.1, trace_decimation=1)


def _scenario(world):
    """Throttle episode, sleeping cooldown, pinned memory-bound load."""
    device = world.device
    device.acquire_wakelock()
    device.start_load()
    world.run_for(60.0)
    peak = device.thermal.temperature("cpu")
    device.stop_load()
    device.release_wakelock()
    world.run_cooldown(peak - 8.0, 1.0, 600.0)
    device.acquire_wakelock()
    device.set_fixed_frequency(device.spec.fixed_freq_mhz)
    device.start_load(memory_boundedness=0.3)
    world.run_for(10.0)
    world.close()


def _state_lines(world):
    device = world.device
    lines = [f"{name}={t.hex()}" for name, t in device.thermal.temperatures().items()]
    for name, rng in (
        ("os", device.os.rng),
        ("sensor", device.sensor.rng),
        ("probe", world.chamber._probe._rng),
    ):
        lines.append(f"{name}={json.dumps(rng.bit_generator.state, sort_keys=True)}")
    lines.append(f"ops_total={world.ops_total.hex()}")
    lines.append(f"energy={world.energy_drawn_j.hex()}")
    lines.append(f"steps={world.clock.steps} ff={world.fast_forward_steps}")
    for channel in world.trace.channels:
        column = np.ascontiguousarray(world.trace.column(channel), dtype=np.float64)
        lines.append(f"{channel}={hashlib.sha256(column.tobytes()).hexdigest()}")
    return lines


def _report_line(report, ambient_c, dt):
    cells = []
    for name in REPORT_FIELDS:
        value = getattr(report, name)
        if name == "frequencies_mhz":
            cells.append(",".join(f"{k}:{v.hex()}" for k, v in sorted(value.items())))
        elif isinstance(value, float):
            cells.append(value.hex())
        else:
            cells.append(repr(value))
    cells.append(ambient_c.hex())
    cells.append(float(dt).hex())
    return " ".join(cells)


def scenario_digest(model, solver):
    """Run the scenario through the observed ``step`` path and hash it."""
    world = _build(model, solver)
    recorder = _Recorder()
    world.attach_observer(recorder)
    _scenario(world)
    digest = hashlib.sha256()
    for entry in recorder.reports:
        digest.update(_report_line(*entry).encode())
        digest.update(b"\n")
    for line in _state_lines(world):
        digest.update(line.encode())
        digest.update(b"\n")
    return digest.hexdigest(), world


@pytest.mark.parametrize("solver", ("euler", "expm"))
@pytest.mark.parametrize("model", DEVICE_NAMES)
def test_step_bits_are_pinned(model, solver):
    digest, observed = scenario_digest(model, solver)
    assert digest == DIGESTS[(model, solver)]
    # The unobserved hot loop in ``World.run_for`` lands on the same bits.
    hot = _build(model, solver)
    _scenario(hot)
    assert _state_lines(hot) == _state_lines(observed)
    assert hot.last_report == observed.last_report


def test_scenario_throttles_sleeps_and_fast_forwards():
    # What the pinned scenario exercises, so the digests mean something.
    _, world = scenario_digest("Nexus 5", "expm")
    kinds = {event.kind for event in world.events}
    assert {"throttle-step", "core-offline", "core-online"} <= kinds
    assert world.fast_forwards > 0
    _, world = scenario_digest("Google Pixel", "euler")
    assert "throttle-clear" in {event.kind for event in world.events}
    assert world.fast_forwards == 0
