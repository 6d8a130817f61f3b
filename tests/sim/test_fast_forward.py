"""Sleep-phase fast-forward: when it engages, and that it stays honest.

Fidelity is asserted through the same declarative tolerance specs the
``repro check`` harness uses, so the allowed drift is written down once.
"""

import pytest

from repro.check import Tolerance, ToleranceSpec
from repro.device.fleet import PAPER_FLEETS, build_device
from repro.instruments.monsoon import MonsoonPowerMonitor
from repro.instruments.thermabox import Thermabox
from repro.sim.engine import World
from repro.thermal.ambient import ConstantAmbient

POLL_S = 5.0
TARGET_C = 36.0


def make_world(solver="expm", chamber=False, **world_kwargs):
    device = build_device(
        PAPER_FLEETS["Nexus 5"][0], initial_temp_c=55.0, thermal_solver=solver
    )
    device.connect_supply(MonsoonPowerMonitor(3.8))
    return World(
        device,
        room=ConstantAmbient(23.0),
        chamber=Thermabox(initial_temp_c=26.0) if chamber else None,
        dt=0.1,
        **world_kwargs,
    )


def run_cooldown(world):
    return world.run_until(
        lambda w: w.device.read_cpu_temp() <= TARGET_C,
        check_every_s=POLL_S,
        timeout_s=7200.0,
    )


class TestEngagement:
    def test_fast_forwards_while_asleep_with_expm(self):
        world = make_world("expm")
        run_cooldown(world)
        assert world.fast_forwards > 0

    def test_no_fast_forward_with_euler(self):
        world = make_world("euler")
        run_cooldown(world)
        assert world.fast_forwards == 0

    def test_no_fast_forward_when_disabled(self):
        world = make_world("expm", sleep_fast_forward=False)
        run_cooldown(world)
        assert world.fast_forwards == 0

    def test_no_fast_forward_while_awake(self):
        world = make_world("expm")
        world.device.acquire_wakelock()
        world.device.start_load()
        world.run_until(
            lambda w: w.now >= 20.0, check_every_s=POLL_S, timeout_s=7200.0
        )
        assert world.fast_forwards == 0


#: Euler-vs-expm cooldown drift budget: elapsed times must land within
#: one poll window of each other; final temperatures within sensor scale;
#: total supply energy tracks the (constant) asleep draw.
COOLDOWN_SPEC = ToleranceSpec(
    name="cooldown-fidelity",
    fields=(
        ("elapsed_s", Tolerance(abs_tol=POLL_S)),
        ("final_temp_c", Tolerance(abs_tol=0.1)),
        ("energy_j", Tolerance(rel_tol=1e-3)),
    ),
)


class TestFidelity:
    @pytest.mark.parametrize("chamber", [False, True])
    def test_cooldown_agrees_with_euler(self, chamber):
        # Same cooldown, two solvers: every drift within COOLDOWN_SPEC.
        summaries = {}
        for solver in ("euler", "expm"):
            world = make_world(solver, chamber=chamber)
            elapsed = run_cooldown(world)
            summaries[solver] = {
                "elapsed_s": elapsed,
                "final_temp_c": world.device.read_cpu_temp(),
            }
        divergences = COOLDOWN_SPEC.compare_mapping(
            summaries["euler"], summaries["expm"], context="cooldown"
        )
        assert divergences == [], [d.describe() for d in divergences]

    def test_clock_and_trace_land_on_poll_boundaries(self):
        world = make_world("expm")
        run_cooldown(world)
        assert world.fast_forwards > 0
        # The clock only ever advanced by whole poll windows.
        assert world.now == pytest.approx(world.fast_forwards * POLL_S)
        times = world.trace.times()
        assert len(times) == world.fast_forwards
        for sample_time in times:
            assert (sample_time / POLL_S) == pytest.approx(
                round(sample_time / POLL_S)
            )

    def test_energy_accounting_matches_euler(self):
        # Asleep draw is constant, so supply energy over the cooldown must
        # agree between one macro step per window and 50 fine steps.
        energy = {}
        for solver in ("euler", "expm"):
            world = make_world(solver)
            run_cooldown(world)
            energy[solver] = world.device.supply.energy_drawn_j
        divergence = COOLDOWN_SPEC.compare_scalar(
            "energy_j", energy["euler"], energy["expm"], context="cooldown"
        )
        assert divergence is None, divergence.describe()
