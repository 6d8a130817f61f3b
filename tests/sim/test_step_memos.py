"""What the serial step computes on change instead of per step.

Each memo must be rebuilt when its input changes: a hotplug, a new clock,
a new ceiling or pin, a new step size.  These tests change the input and
check that the next read sees it.  ``TestStepReplay`` changes each input
of the ``Soc.step`` replay mid-run and checks every step against a twin
that takes the full path on every step.
"""

import math

import pytest

from repro.errors import ConfigurationError
from repro.instruments.probe import ALPHA_CACHE_SIZE, ThermistorProbe
from repro.silicon.leakage import LeakageModel, temperature_factor
from repro.silicon.transistor import SiliconProfile
from repro.soc.catalog import sd800, sd810, sd820
from repro.soc.cluster import NEAREST_CACHE_SIZE
from repro.soc.dvfs import (
    InteractiveGovernor,
    PerformanceGovernor,
    UserspaceGovernor,
)
from repro.soc.instance import Soc
from repro.soc.throttling import (
    CoreShutdownPolicy,
    MitigationState,
    StepwiseThrottle,
    ThrottlePolicy,
)


def make_soc(spec=None) -> Soc:
    return Soc(
        spec=spec or sd800(),
        profile=SiliconProfile.nominal(),
        throttle=ThrottlePolicy(
            stepwise=StepwiseThrottle(throttle_temp_c=76.0, clear_temp_c=73.0),
            shutdown=CoreShutdownPolicy(critical_temp_c=80.0, restore_temp_c=75.0),
        ),
    )


class TestOnlineCores:
    def test_hotplug_changes_online_cores(self):
        soc = make_soc()
        assert soc.online_cores() == 4
        soc.clusters[0].set_online_count(2)
        assert soc.online_cores() == 2
        assert soc.clusters[0].online_count == 2

    def test_mitigation_hotplug_reaches_the_count(self):
        soc = make_soc()
        soc.set_utilization(1.0)
        assert soc.online_cores() == 4
        soc.step(85.0, 0.0, 0.1)  # above critical: one core goes
        assert soc.online_cores() == 3
        soc.reset()
        assert soc.online_cores() == 4

    def test_unchanged_count_leaves_cores_alone(self):
        soc = make_soc()
        cluster = soc.clusters[0]
        cluster.set_online_count(3)
        cluster.cores[0].online = False  # only the count guards the cores
        cluster.set_online_count(3)
        assert cluster.cores[0].online is False

    def test_out_of_range_count_still_rejected(self):
        cluster = make_soc().clusters[0]
        with pytest.raises(ConfigurationError):
            cluster.set_online_count(cluster.online_count + 1)


class TestFrequencies:
    def test_set_frequency_changes_frequencies(self):
        soc = make_soc()
        before = soc.frequencies_mhz()
        assert soc.frequencies_mhz() is before  # no clock change, no rebuild
        soc.clusters[0].set_frequency(960.0)
        after = soc.frequencies_mhz()
        assert after["krait400"] == 960.0
        assert before["krait400"] == 300.0  # an earlier report keeps its view

    def test_step_that_moves_the_clock_rebuilds(self):
        soc = make_soc(sd810())
        soc.set_utilization(1.0)
        idle = dict(soc.frequencies_mhz())
        soc.step(40.0, 0.0, 0.1)
        assert soc.frequencies_mhz() != idle
        assert soc.frequencies_mhz() == {
            c.spec.name: c.freq_mhz for c in soc.clusters
        }


class TestNearestRung:
    def test_new_ceiling_changes_the_rung(self):
        spec = sd800().clusters[0]
        assert spec.nearest_freq_mhz(2000.0) == 1958.0
        assert spec.nearest_freq_mhz(1000.0) == 960.0
        assert spec.nearest_freq_mhz(2000.0) == 1958.0
        assert spec.nearest_freq_mhz(1.0) == spec.min_freq_mhz

    def test_new_pin_changes_the_rung(self):
        spec = sd800().clusters[0]
        assert UserspaceGovernor(960.0).target_frequency(spec, 1.0, 2265.0) == 960.0
        assert UserspaceGovernor(1574.0).target_frequency(spec, 1.0, 2265.0) == 1574.0
        # The ceiling still clamps a pin above it.
        assert UserspaceGovernor(1574.0).target_frequency(spec, 1.0, 1000.0) == 960.0

    def test_memo_stays_bounded(self):
        spec = sd800().clusters[0]
        for i in range(NEAREST_CACHE_SIZE * 3):
            spec.nearest_freq_mhz(300.0 + i)
        assert len(spec._nearest) <= NEAREST_CACHE_SIZE


class TestUserspacePin:
    def test_invalid_pin_rejected_at_install(self):
        soc = make_soc()
        with pytest.raises(ConfigurationError):
            soc.set_governor(UserspaceGovernor(fixed_mhz=1000.0))
        with pytest.raises(ConfigurationError):
            soc.set_governor(UserspaceGovernor(fixed_mhz=1000.0), cluster="krait400")

    def test_invalid_pin_rejected_when_driven_directly(self):
        governor = UserspaceGovernor(fixed_mhz=1000.0)
        with pytest.raises(ConfigurationError):
            governor.target_frequency(sd800().clusters[0], 1.0, 2265.0)

    def test_pin_checked_against_each_ladder(self):
        # 883 MHz is on the Krait ladder but not on the SD-810 A57's.
        governor = UserspaceGovernor(fixed_mhz=883.0)
        krait = sd800().clusters[0]
        assert governor.target_frequency(krait, 1.0, 2265.0) == 883.0
        a57 = sd810().clusters[0]
        assert 883.0 not in a57.freq_table_mhz
        with pytest.raises(ConfigurationError):
            governor.target_frequency(a57, 1.0, 1958.0)
        assert governor.target_frequency(krait, 1.0, 2265.0) == 883.0


class TestMitigationState:
    def test_reused_until_the_allowance_changes(self):
        policy = make_soc().throttle
        first = policy.update(40.0, 0.0)
        assert first == MitigationState()
        assert policy.update(40.0, 1.0) is first
        hot = policy.update(85.0, 2.0)
        assert hot is not first
        assert (hot.ceiling_steps, hot.offline_cores) == (1, 1)
        assert first == MitigationState()  # handed-out states never change


class TestProbeAlpha:
    def expected(self, element, true, dt, tau=4.0):
        return element + (1.0 - math.exp(-dt / tau)) * (true - element)

    def test_each_step_size_gets_its_own_alpha(self):
        probe = ThermistorProbe(noise_sigma_c=0.0, initial_temp_c=20.0)
        probe.advance(30.0, 0.1)
        element = probe.element_temp_c
        assert element == self.expected(20.0, 30.0, 0.1)
        probe.advance(30.0, 0.5)  # a fast-forward chunk
        assert probe.element_temp_c == self.expected(element, 30.0, 0.5)
        element = probe.element_temp_c
        probe.advance(30.0, 0.1)
        assert probe.element_temp_c == self.expected(element, 30.0, 0.1)

    def test_memo_stays_bounded(self):
        probe = ThermistorProbe(noise_sigma_c=0.0)
        for i in range(ALPHA_CACHE_SIZE * 3):
            probe.advance(25.0, 0.1 + i * 1e-3)
        assert len(probe._alphas) <= ALPHA_CACHE_SIZE


class TestLeakageTemperatureFactor:
    def test_shared_factor_gives_the_same_bits(self):
        spec = sd800()
        model = LeakageModel(process=spec.process, leak_ref_w=0.05, ref_voltage=1.0)
        profile = SiliconProfile.nominal()
        for temp in (25.0, 61.3, 84.97):
            factor = temperature_factor(spec.process, temp)
            assert model.power_at(profile, 1.05, factor) == model.power(
                profile, 1.05, temp
            )

    def test_cluster_power_matches_per_cluster_evaluation(self):
        soc = make_soc(sd810())
        soc.set_utilization(1.0)
        power, _ = soc.step(55.0, 0.0, 0.1)
        total = 0.0
        for cluster in soc.clusters:
            total += cluster.power_w(55.0)
        assert power == total


def _visible(soc):
    """What a reader can see of a SoC after a step."""
    return (
        dict(soc.frequencies_mhz()),
        soc.online_cores(),
        [cluster.online_count for cluster in soc.clusters],
        [cluster.voltage_adjust_v for cluster in soc.clusters],
        (soc.mitigation.ceiling_steps, soc.mitigation.offline_cores),
    )


def _pin(soc):
    ladder = soc.clusters[0].spec.freq_table_mhz
    soc.set_governor(UserspaceGovernor(ladder[2]), soc.clusters[0].spec.name)


def _cap(soc):
    soc.external_ceiling_mhz = soc.clusters[0].spec.freq_table_mhz[-3]


def _reset(soc):
    soc.reset()
    soc.set_utilization(0.7)


#: name -> (change applied at CHANGE_AT, die temperature per step index).
#: The die runs at 60 °C, far from every trip point, unless a case moves it.
REPLAY_INPUTS = {
    "mitigation-step": (None, lambda i: 77.0 if i >= 20 else 60.0),
    "hotplug": (None, lambda i: 85.0 if 20 <= i < 32 else 60.0),
    "skin-steps": (lambda soc: setattr(soc, "external_ceiling_steps", 2), None),
    "voltage-ceiling": (_cap, None),
    "governor-pin": (_pin, None),
    "governor-swap": (lambda soc: soc.set_governor(PerformanceGovernor()), None),
    "utilization": (lambda soc: soc.set_utilization(0.4), None),
    "memory-boundedness": (lambda soc: soc.set_memory_boundedness(0.3), None),
    "reset": (_reset, None),
}

CHANGE_AT = 20


class TestStepReplay:
    """``Soc.step`` replays quiet steps; every input change forces a rebuild."""

    @staticmethod
    def run_twins(spec, change, temp_at, steps=45, start_pinned=False):
        replayed, full = make_soc(spec), make_soc(spec)
        for soc in (replayed, full):
            soc.set_utilization(1.0)
            if start_pinned:
                _pin(soc)
        replays = 0
        for i in range(steps):
            if i == CHANGE_AT and change is not None:
                change(replayed)
                change(full)
            temp = temp_at(i) if temp_at is not None else 60.0 + 0.05 * i
            now = i * 0.1
            before = replayed._replay
            full._replay = None  # the twin takes the full path every step
            got = replayed.step(temp, now, 0.1)
            want = full.step(temp, now, 0.1)
            assert got == want, f"step {i}"
            assert _visible(replayed) == _visible(full), f"step {i}"
            if before is not None and replayed._replay is before:
                replays += 1
        return replays

    @pytest.mark.parametrize("spec", [sd800, sd810, sd820], ids=["binned", "sd810", "sd820"])
    @pytest.mark.parametrize("name", sorted(REPLAY_INPUTS))
    def test_changed_input_matches_a_full_step(self, spec, name):
        change, temp_at = REPLAY_INPUTS[name]
        replays = self.run_twins(
            spec(), change, temp_at, start_pinned=name == "governor-swap"
        )
        # Most steps are quiet, so the replay carries them.
        assert replays >= 30

    @pytest.mark.parametrize("spec", [sd800, sd810], ids=["binned", "rbcpr"])
    def test_stateful_governor_never_replays(self, spec):
        def interactive(soc):
            for cluster in soc.clusters:
                spec = cluster.spec
                soc.set_governor(
                    InteractiveGovernor(hispeed_freq_mhz=spec.freq_table_mhz[4]),
                    spec.name,
                )

        replays = self.run_twins(spec(), interactive, None)
        assert replays == CHANGE_AT - 1

    def test_rbcpr_replay_tracks_the_die_temperature(self):
        # Quiet steps on an RBCPR part still move the rail with the margin.
        soc = make_soc(sd820())
        soc.set_utilization(1.0)
        soc.step(50.0, 0.0, 0.1)
        cool = soc.clusters[0].voltage_adjust_v
        soc.step(70.0, 0.1, 0.1)
        assert soc.clusters[0].voltage_adjust_v < cool
