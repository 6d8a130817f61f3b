"""Mutation smoke test: the harness must flag a perturbed solver.

Monkeypatches a small systematic bias into the exact propagator and
asserts the euler-vs-expm differential pairing reports the divergence.
A second mutant biases the *batched* engine's power path and asserts the
serial-vs-batched pairing catches it.  Runs serial (jobs=1) on both
sides — a monkeypatch does not cross worker-process boundaries.

The scenario pairings that gate the lifted batch-eligibility
restrictions get mutants of their own: a biased batched skin-throttle
state machine, a biased memory-bounded roofline share, and a biased
energy-conservation predicate (shared by the serial and batched
invariant observers) must each be flagged by the pairing (or checker)
that claims to guard it.  The traced jobs pairing gets a transport
mutant: a corrupted sample in the shared-memory attach path must be
flagged by the trace-byte comparison.
"""

import pytest

from repro.check.differential import (
    batch_invariants_pairing,
    batch_memory_bound_pairing,
    batch_pairing,
    batch_skin_throttle_pairing,
    default_differential_config,
    jobs_pairing,
    run_pairing,
    solver_pairing,
)
from repro.check.invariants import EnergyConservation
from repro.core.experiments import unconstrained
from repro.core.runner import CampaignRunner
from repro.errors import InvariantViolation
from repro.sim.batch import _ClusterBatch, _CohortWorld
from repro.thermal.propagator import ExpmPropagator

MODEL = "Nexus 5"


def tiny_base():
    return default_differential_config(scale=0.02, root_seed=11)


class TestMutationDetection:
    def test_biased_propagator_is_flagged(self, monkeypatch):
        original = ExpmPropagator.advance

        def biased(self, temps, power, dt):
            original(self, temps, power, dt)
            # A cooling bias rather than a heating one: a heated mutant
            # could stall the cooldown phase into its timeout instead of
            # producing a clean numeric divergence.
            temps[~self._boundary] -= 0.05

        monkeypatch.setattr(ExpmPropagator, "advance", biased)
        report = run_pairing(solver_pairing(tiny_base()), [MODEL], iterations=1)
        assert not report.passed, (
            "the differential harness failed to flag a mutated solver"
        )
        fields = {d.field for d in report.divergences}
        assert fields & {
            "max_cpu_temp_c",
            "cooldown_s",
            "energy_j",
            "mean_power_w",
            "mean_freq_mhz",
            "time_throttled_s",
            "iterations_completed",
        }

    def test_unmutated_run_passes(self):
        report = run_pairing(solver_pairing(tiny_base()), [MODEL], iterations=1)
        assert report.passed, report.render()

    def test_biased_batched_power_is_flagged(self, monkeypatch):
        # Inflate only the batched engine's per-unit leakage coefficients:
        # the serial A side is untouched, so the serial-vs-batched pairing
        # must report the drift in the power/energy family of fields.
        original = _ClusterBatch.__init__

        def biased(self, devices, cluster_index):
            original(self, devices, cluster_index)
            self.leak_coeff = self.leak_coeff * 1.10

        monkeypatch.setattr(_ClusterBatch, "__init__", biased)
        report = run_pairing(batch_pairing(tiny_base()), [MODEL], iterations=1)
        assert not report.passed, (
            "the differential harness failed to flag a mutated batched engine"
        )
        fields = {d.field for d in report.divergences}
        assert fields & {
            "energy_j",
            "mean_power_w",
            "max_cpu_temp_c",
            "iterations_completed",
            "mean_freq_mhz",
            "time_throttled_s",
        }

    def test_unmutated_batch_pairing_passes(self):
        report = run_pairing(batch_pairing(tiny_base()), [MODEL], iterations=1)
        assert report.passed, report.render()

    def test_biased_batched_skin_governor_is_flagged(self, monkeypatch):
        # Bias only the batched skin-throttle's thresholds below ambient:
        # its governor then deepens a mitigation step at every poll while
        # the serial skin governor (41 °C threshold, untouched) stays
        # idle, so the frequency ceilings disagree and the skin-scenario
        # pairing must report it.
        original = _CohortWorld.__init__

        def biased(self, devices, *args, **kwargs):
            original(self, devices, *args, **kwargs)
            if self._has_skin:
                self._skin_hot = 20.0
                self._skin_cold = 19.0

        monkeypatch.setattr(_CohortWorld, "__init__", biased)
        report = run_pairing(
            batch_skin_throttle_pairing(tiny_base()), [MODEL], iterations=1
        )
        assert not report.passed, (
            "the skin-throttle pairing failed to flag a mutated batched "
            "skin governor"
        )
        fields = {d.field for d in report.divergences}
        assert fields & {
            "mean_freq_mhz",
            "iterations_completed",
            "energy_j",
            "mean_power_w",
            "max_cpu_temp_c",
            "time_throttled_s",
        }

    def test_biased_batched_memory_share_is_flagged(self, monkeypatch):
        # Inflate only the batched engine's memory-boundedness: the
        # roofline share and retire rate drift from the serial cluster
        # math, and the memory-bound pairing must report it.
        original = _CohortWorld.start_load

        def biased(self, utilization=1.0, memory_boundedness=0.0):
            original(self, utilization, memory_boundedness * 1.1)

        monkeypatch.setattr(_CohortWorld, "start_load", biased)
        report = run_pairing(
            batch_memory_bound_pairing(tiny_base()), [MODEL], iterations=1
        )
        assert not report.passed, (
            "the memory-bound pairing failed to flag a mutated batched "
            "roofline share"
        )
        fields = {d.field for d in report.divergences}
        assert fields & {
            "iterations_completed",
            "energy_j",
            "mean_power_w",
            "mean_freq_mhz",
            "max_cpu_temp_c",
        }

    def test_corrupted_shm_attach_is_flagged(self, monkeypatch):
        # Flip one sample value as the shared-memory transport attaches a
        # trace in the parent.  Every scalar result field still agrees
        # (they were computed in the worker, before transport), so only
        # the jobs pairing's trace-byte comparison can catch it —
        # proving that gate is live.  The seam runs parent-side, which is
        # why a plain monkeypatch reaches it despite the worker pool.
        import repro.core.backends as backends

        original = backends._attach_trace

        def corrupted(channels, samples, phases, open_phase, owner):
            if samples.size:
                samples[0, -1] += 0.5
            return original(channels, samples, phases, open_phase, owner)

        monkeypatch.setattr(backends, "_attach_trace", corrupted)
        report = run_pairing(jobs_pairing(tiny_base(), 2), [MODEL], iterations=1)
        assert not report.passed, (
            "the jobs pairing failed to flag a corrupted shared-memory "
            "trace attach"
        )
        assert all("trace" in d.context for d in report.divergences), [
            d.describe() for d in report.divergences
        ]

    def test_unmutated_backend_pairing_passes(self):
        # The traced jobs pairing is the backend pairing: in-process on
        # one side, the shared-memory pool on the other.
        report = run_pairing(jobs_pairing(tiny_base(), 2), [MODEL], iterations=1)
        assert report.passed, report.render()

    def test_biased_vectorized_invariant_integral_is_flagged(self, monkeypatch):
        # Bias the one energy-conservation predicate both engines' observers
        # call: the invariant must trip an otherwise healthy serial run and
        # an otherwise healthy batched run alike, proving both observers
        # are live rather than decorative.
        original = EnergyConservation.drifted

        def biased(self, metered_j, integral_j):
            return original(self, metered_j, integral_j * 1.001)

        monkeypatch.setattr(EnergyConservation, "drifted", biased)
        pairing = batch_invariants_pairing(tiny_base())
        for config in (pairing.config_a, pairing.config_b):
            with pytest.raises(InvariantViolation, match="energy-conservation"):
                CampaignRunner(config).run_fleet(
                    MODEL, unconstrained(), iterations=1, jobs=1
                )
