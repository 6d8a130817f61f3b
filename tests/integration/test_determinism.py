"""Whole-stack determinism: same seed, same campaign, same numbers."""

from dataclasses import replace

from repro.core.experiments import unconstrained
from repro.core.runner import CampaignConfig, CampaignRunner
from repro.device.fleet import build_device, PAPER_FLEETS


class TestDeterminism:
    def test_identical_campaigns_identical_results(self, fast_config):
        def run():
            config = CampaignConfig(
                accubench=replace(fast_config, iterations=2),
                use_thermabox=False,
                root_seed=99,
            )
            runner = CampaignRunner(config)
            device = build_device(PAPER_FLEETS["Nexus 5"][2], root_seed=99)
            return runner.run_device(device, unconstrained())

        first = run()
        second = run()
        assert [i.iterations_completed for i in first.iterations] == [
            i.iterations_completed for i in second.iterations
        ]
        assert [i.energy_j for i in first.iterations] == [
            i.energy_j for i in second.iterations
        ]

    def test_different_seeds_differ(self, fast_config):
        def run(seed):
            config = CampaignConfig(
                accubench=replace(fast_config, iterations=1),
                use_thermabox=False,
                root_seed=seed,
            )
            runner = CampaignRunner(config)
            device = build_device(PAPER_FLEETS["Nexus 5"][2], root_seed=seed)
            return runner.run_device(device, unconstrained())

        a = run(1)
        b = run(2)
        # Noise streams differ; energies will not be bit-identical.
        assert a.iterations[0].energy_j != b.iterations[0].energy_j

    def test_serial_isolation(self, fast_config):
        # Different units of the same model draw independent noise: the
        # sensor/OS streams are keyed by serial.
        device_a = build_device(PAPER_FLEETS["Nexus 5"][0])
        device_b = build_device(PAPER_FLEETS["Nexus 5"][1])
        assert device_a.os.rng.random() != device_b.os.rng.random()
