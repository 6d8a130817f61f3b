"""Property: batch construction order does not affect per-unit results.

A :class:`~repro.sim.batch.BatchedWorld` stacks per-unit state along its
first axis; nothing about a unit's physics may depend on which row it
landed in.  Hypothesis drives the fleet ordering: for any permutation of
the same units, every unit's trace, retired work and drawn energy must be
*exactly* what the identity ordering produced — per-unit RNG streams are
keyed by serial, so row position is the only thing a permutation changes.

Heterogeneous fleets add two freedoms the homogeneous property cannot
see: the facade regroups a mixed fleet into per-model cohorts (so a
permutation also reshuffles cohort membership order), and the runner may
cut a fleet into contiguous shards each running in its own world.  Both
are driven below: per-serial results must be exactly invariant under any
fleet permutation, and invariant under any shard-cut choice up to the
documented BLAS summation budget (cuts change cohort matrix heights,
which may re-associate the propagator GEMM's sums — see
:func:`assert_same_per_unit`).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.check.strategies import cohort_splits, fleet_permutations
from repro.device.fleet import synthetic_fleet
from repro.instruments.monsoon import MonsoonPowerMonitor
from repro.sim.batch import BatchedWorld

UNITS = 5
VOLTS = 3.8
AMBIENT = 26.0

#: (model, lot, units) for the mixed fleet — distinct lots keep serials
#: unique across models.
MIXED_LOTS = (
    ("Nexus 5", "mix-n5", 2),
    ("Nexus 6", "mix-n6", 2),
    ("Nexus 6P", "mix-n6p", 1),
)
MIXED_UNITS = sum(count for _, _, count in MIXED_LOTS)


def build_fleet():
    devices = synthetic_fleet(
        "Nexus 5", UNITS, thermal_solver="expm", initial_temp_c=AMBIENT
    )
    for device in devices:
        device.connect_supply(MonsoonPowerMonitor(VOLTS))
    return devices


def build_mixed_fleet():
    """Three models interleaved, so same-model units are never adjacent."""
    pools = [
        synthetic_fleet(
            model,
            count,
            lot_name=lot,
            thermal_solver="expm",
            initial_temp_c=AMBIENT,
        )
        for model, lot, count in MIXED_LOTS
    ]
    devices = []
    for index in range(max(len(pool) for pool in pools)):
        for pool in pools:
            if index < len(pool):
                devices.append(pool[index])
    for device in devices:
        device.connect_supply(MonsoonPowerMonitor(VOLTS))
    return devices


def run_short_protocol(devices):
    """One abbreviated warmup → cooldown → workload pass; per-serial facts."""
    world = BatchedWorld(
        devices, room_temp_c=AMBIENT, dt=0.1, trace_decimation=5
    )
    world.pin_frequencies([None] * world.count)
    world.acquire_wakelock()
    world.start_load()
    world.set_phase("warmup")
    world.run_for(8.0)
    world.stop_load()
    world.release_wakelock()
    world.set_phase("cooldown")
    targets = np.maximum(38.0, world.ambient_now() + 6.0)
    cooldown = world.run_cooldown(targets, 5.0, 2700.0)
    world.acquire_wakelock()
    world.start_load()
    world.set_phase("workload")
    world.run_for(8.0)
    world.close()
    world.finalize()
    return {
        device.serial: {
            "times": world.traces[i].times().copy(),
            "cpu_temp": world.traces[i].column("cpu_temp").copy(),
            "power": world.traces[i].column("power").copy(),
            "freq": world.traces[i].column("freq").copy(),
            "cooldown_s": float(cooldown[i]),
            "ops": float(world.ops_total[i]),
            "energy_j": float(device.supply.energy_drawn_j),
            "events": [
                (event.time_s, event.kind, event.detail)
                for event in world.event_logs[i]
            ],
        }
        for i, device in enumerate(devices)
    }


def assert_same_per_unit(got_by_serial, expected_by_serial, exact=True):
    """Per-serial equality between two runs of the same units.

    ``exact=False`` grants the continuous channels (temperature, power,
    energy) an ulp-level budget: when two runs stack a unit into cohort
    matrices of *different heights*, the propagator GEMM may take a
    different BLAS kernel and re-associate its sums (~1e-14 °C observed) —
    the same freedom :data:`repro.check.differential.BATCH_SPEC`
    documents.  Everything discrete (sample times, frequencies, retired
    ops, cooldown exits, event logs) must stay bit-identical either way.
    """
    assert set(got_by_serial) == set(expected_by_serial)
    for serial, expected in expected_by_serial.items():
        got = got_by_serial[serial]
        np.testing.assert_array_equal(got["times"], expected["times"])
        if exact:
            for channel in ("cpu_temp", "power"):
                np.testing.assert_array_equal(got[channel], expected[channel])
            assert got["energy_j"] == expected["energy_j"]
        else:
            for channel in ("cpu_temp", "power"):
                np.testing.assert_allclose(
                    got[channel], expected[channel], rtol=1e-12, atol=1e-9
                )
            np.testing.assert_allclose(
                got["energy_j"], expected["energy_j"], rtol=1e-12
            )
        np.testing.assert_array_equal(got["freq"], expected["freq"])
        assert got["cooldown_s"] == expected["cooldown_s"]
        assert got["ops"] == expected["ops"]
        assert got["events"] == expected["events"]


@pytest.fixture(scope="module")
def identity_run():
    return run_short_protocol(build_fleet())


@pytest.fixture(scope="module")
def mixed_identity_run():
    return run_short_protocol(build_mixed_fleet())


class TestPermutationInvariance:
    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(order=fleet_permutations(UNITS))
    def test_unit_results_independent_of_row_order(self, identity_run, order):
        devices = build_fleet()
        permuted = run_short_protocol([devices[i] for i in order])
        assert_same_per_unit(permuted, identity_run)


class TestHeterogeneousInvariance:
    """The facade's cohort grouping must be invisible in the results."""

    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(order=fleet_permutations(MIXED_UNITS))
    def test_mixed_results_independent_of_fleet_order(
        self, mixed_identity_run, order
    ):
        devices = build_mixed_fleet()
        permuted = run_short_protocol([devices[i] for i in order])
        assert_same_per_unit(permuted, mixed_identity_run)

    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(cuts=cohort_splits(MIXED_UNITS))
    def test_mixed_results_independent_of_shard_cuts(
        self, mixed_identity_run, cuts
    ):
        devices = build_mixed_fleet()
        bounds = [0] + list(cuts) + [MIXED_UNITS]
        merged = {}
        for low, high in zip(bounds, bounds[1:]):
            merged.update(run_short_protocol(devices[low:high]))
        # Cuts change cohort heights, so the continuous channels get the
        # documented BLAS summation budget (see assert_same_per_unit).
        assert_same_per_unit(merged, mixed_identity_run, exact=False)
