"""The batch-eligibility matrix: every catalog scenario runs batched.

Two layers of gate:

* The cheap matrix — ``batch_ineligibility_reason`` must return ``None``
  for every catalog model under every scenario the engine claims
  (invariants armed, skin-throttled hardware, memory-bounded workloads,
  heterogeneous fleets), and must still name the genuinely serial-only
  configurations (Euler integration, disabled sleep fast-forward, several
  models sharing a THERMABOX).
* The parity runs — each newly lifted scenario's serial↔batched pairing
  actually executes and agrees within :data:`BATCH_SPEC` on a scaled
  protocol.  These are the same pairings ``repro-bench check
  --differential`` gates on (see ``default_pairings``).
"""

from dataclasses import replace

import pytest

from repro.check.differential import (
    MIXED_FLEET_LABEL,
    batch_invariants_pairing,
    batch_memory_bound_pairing,
    batch_skin_throttle_pairing,
    default_differential_config,
    mixed_fleet_pairing,
    run_fleet_on_engine,
    run_pairing,
)
from repro.core.batch_runner import batch_ineligibility_reason
from repro.core.experiments import unconstrained
from repro.core.parallel import DeviceTask
from repro.core.runner import CampaignRunner
from repro.core.serialize import device_to_dict
from repro.device.catalog import DEVICE_NAMES, device_spec
from repro.device.fleet import PAPER_FLEETS, build_device, paper_fleet
from repro.errors import ConfigurationError, SimulationError
from repro.instruments.thermabox import BatchedThermabox
from repro.sim.batch import BatchedWorld
from repro.thermal.skin import SkinThrottleSpec

MODEL = "Nexus 5"


def base_config(**protocol_overrides):
    config = default_differential_config(scale=0.02, root_seed=11)
    overrides = {"thermal_solver": "expm", "sleep_fast_forward": True}
    overrides.update(protocol_overrides)
    return replace(config, accubench=replace(config.accubench, **overrides))


def expm_fleet(model):
    return paper_fleet(model, thermal_solver="expm")


def skin_fleet(model):
    spec = replace(device_spec(model), skin_throttle=SkinThrottleSpec())
    return [
        build_device(unit, spec=spec, thermal_solver="expm")
        for unit in PAPER_FLEETS[model]
    ]


SCENARIOS = {
    "baseline": (base_config(), expm_fleet),
    "invariants": (base_config(check_invariants=True), expm_fleet),
    "memory-bound": (
        base_config(utilization=0.85, memory_boundedness=0.4),
        expm_fleet,
    ),
    "skin-throttle": (base_config(), skin_fleet),
}


class TestEligibilityMatrix:
    @pytest.mark.parametrize("model", list(DEVICE_NAMES))
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_every_catalog_scenario_is_batchable(self, model, scenario):
        config, fleet_for = SCENARIOS[scenario]
        reason = batch_ineligibility_reason(config, fleet_for(model))
        assert reason is None, f"{model}/{scenario}: {reason}"

    @pytest.mark.parametrize("model", list(DEVICE_NAMES))
    def test_mixed_fleet_with_every_model_is_batchable(self, model):
        partner = next(name for name in DEVICE_NAMES if name != model)
        fleet = expm_fleet(model) + expm_fleet(partner)
        reason = batch_ineligibility_reason(base_config(), fleet)
        assert reason is None

    def test_euler_fleets_stay_serial(self):
        config = default_differential_config(scale=0.02)
        config = replace(
            config, accubench=replace(config.accubench, thermal_solver="euler")
        )
        reason = batch_ineligibility_reason(config, paper_fleet(MODEL))
        assert reason == "thermal_solver is not 'expm'"

    def test_disabled_fast_forward_stays_serial(self):
        reason = batch_ineligibility_reason(
            base_config(sleep_fast_forward=False), expm_fleet(MODEL)
        )
        assert reason == "sleep_fast_forward is disabled"

    def test_empty_fleet_stays_serial(self):
        reason = batch_ineligibility_reason(base_config(), [])
        assert reason == "empty fleet"


class TestMixedFleetInThermabox:
    """Several models sharing one THERMABOX run take the serial path."""

    def config(self):
        return replace(base_config(), use_thermabox=True)

    def mixed(self):
        return expm_fleet(MODEL)[:2] + expm_fleet("Nexus 6")[:2]

    def test_reason_names_the_case(self):
        reason = batch_ineligibility_reason(self.config(), self.mixed())
        assert reason == "mixed-model fleet in a THERMABOX"

    def test_forced_batching_returns_the_serial_results(self):
        # Four units would batch if eligible; the runner builds per-unit
        # tasks instead and returns the serial engine's results exactly,
        # while forcing the batched engine refuses the fleet.
        runner = CampaignRunner(self.config())
        tasks = runner._fleet_tasks(self.mixed(), unconstrained(), 1, runner.config)
        assert all(isinstance(task, DeviceTask) for task in tasks)
        results = [
            run_fleet_on_engine(
                engine, self.config(), "mixed", unconstrained(),
                devices=self.mixed(), iterations=1,
            )
            for engine in ("auto", "serial")
        ]
        assert [device_to_dict(d) for d in results[0].devices] == [
            device_to_dict(d) for d in results[1].devices
        ]
        with pytest.raises(ConfigurationError, match="not batchable"):
            run_fleet_on_engine(
                "batched", self.config(), "mixed", unconstrained(),
                devices=self.mixed(), iterations=1,
            )

    def test_batched_world_rejects_a_shared_chamber(self):
        units = self.mixed()
        with pytest.raises(SimulationError, match="mixed-model"):
            BatchedWorld(
                units, room_temp_c=23.0,
                chamber=BatchedThermabox(count=len(units)),
            )


class TestLiftedScenarioParity:
    """Each lifted restriction's serial↔batched pairing gates for real."""

    def tiny_base(self):
        return default_differential_config(scale=0.02, root_seed=11)

    def test_invariants_pairing_agrees(self):
        report = run_pairing(
            batch_invariants_pairing(self.tiny_base()), [MODEL], iterations=1
        )
        assert report.passed, report.render()

    def test_memory_bound_pairing_agrees(self):
        report = run_pairing(
            batch_memory_bound_pairing(self.tiny_base()), [MODEL], iterations=1
        )
        assert report.passed, report.render()

    def test_skin_throttle_pairing_agrees(self):
        report = run_pairing(
            batch_skin_throttle_pairing(self.tiny_base()), [MODEL], iterations=1
        )
        assert report.passed, report.render()

    def test_mixed_fleet_pairing_agrees(self):
        # The pairing carries its own fleet (both MIXED_FLEET_MODELS,
        # interleaved) and its own report label.
        report = run_pairing(
            mixed_fleet_pairing(self.tiny_base()), ["ignored"], iterations=1
        )
        assert report.passed, report.render()
        assert report.models == (MIXED_FLEET_LABEL,)
