"""Governors operating inside a running SoC."""

import pytest

from repro.silicon.transistor import SiliconProfile
from repro.soc.catalog import sd800, sd810
from repro.soc.dvfs import (
    InteractiveGovernor,
    OndemandGovernor,
    PerformanceGovernor,
)
from repro.soc.instance import Soc
from repro.soc.throttling import StepwiseThrottle, ThrottlePolicy


def make_soc() -> Soc:
    return Soc(
        spec=sd800(),
        profile=SiliconProfile.nominal(),
        throttle=ThrottlePolicy(
            stepwise=StepwiseThrottle(throttle_temp_c=78.0, clear_temp_c=75.0)
        ),
    )


class TestInteractiveInSoc:
    def test_ramp_visible_over_steps(self):
        soc = make_soc()
        soc.set_governor(
            InteractiveGovernor(hispeed_freq_mhz=1190.0, eval_interval_s=0.1)
        )
        soc.set_utilization(1.0)
        freqs = []
        for step in range(12):
            soc.step(die_temp_c=40.0, now_s=step * 0.1, dt=0.1)
            freqs.append(soc.frequencies_mhz()["krait400"])
        # First decision jumps to hispeed, later decisions climb to max.
        assert freqs[0] == 1190.0
        assert freqs[-1] == 2265.0
        assert freqs == sorted(freqs)

    def test_thermal_ceiling_overrides_ramp(self):
        soc = make_soc()
        soc.set_governor(
            InteractiveGovernor(hispeed_freq_mhz=1190.0, eval_interval_s=0.1)
        )
        soc.set_utilization(1.0)
        for step in range(20):
            soc.step(die_temp_c=40.0, now_s=step * 0.1, dt=0.1)
        # Now overheat: mitigation steps must drag the clock down even
        # though the governor wants the ceiling.
        for step in range(20, 30):
            soc.step(die_temp_c=85.0, now_s=float(step), dt=1.0)
        assert soc.frequencies_mhz()["krait400"] < 2265.0


class TestOndemandInSoc:
    def test_idles_down_between_bursts(self):
        soc = make_soc()
        soc.set_governor(OndemandGovernor())
        soc.set_utilization(1.0)
        soc.step(40.0, 0.0, 0.1)
        busy_freq = soc.frequencies_mhz()["krait400"]
        soc.set_utilization(0.0)
        for step in range(1, 12):
            soc.step(40.0, step * 0.1, 0.1)
        idle_freq = soc.frequencies_mhz()["krait400"]
        assert busy_freq == 2265.0
        assert idle_freq == 300.0

    def test_idle_power_far_below_busy(self):
        soc = make_soc()
        soc.set_governor(OndemandGovernor())
        soc.set_utilization(1.0)
        busy_power, _ = soc.step(40.0, 0.0, 0.1)
        soc.set_utilization(0.0)
        idle_power = None
        for step in range(1, 12):
            idle_power, _ = soc.step(40.0, step * 0.1, 0.1)
        assert idle_power < busy_power / 5


class TestStatefulGovernorOnTwoClusters:
    """One stateful governor installed on every cluster of the SD-810."""

    @staticmethod
    def make_sd810():
        return Soc(
            spec=sd810(),
            profile=SiliconProfile.nominal(),
            throttle=ThrottlePolicy(
                stepwise=StepwiseThrottle(throttle_temp_c=78.0, clear_temp_c=75.0)
            ),
        )

    @pytest.mark.parametrize(
        "make",
        [lambda: InteractiveGovernor(hispeed_freq_mhz=1248.0), OndemandGovernor],
        ids=["interactive", "ondemand"],
    )
    def test_each_cluster_keeps_its_own_clock(self, make):
        governor = make()
        soc = self.make_sd810()
        soc.set_governor(governor)
        soc.set_utilization(1.0)
        for step in range(12):
            soc.step(die_temp_c=40.0, now_s=step * 0.1, dt=0.1)
        freqs = soc.frequencies_mhz()
        assert freqs["a57"] == soc.spec.clusters[0].max_freq_mhz
        assert freqs["a53"] == soc.spec.clusters[1].max_freq_mhz
        # The caller's instance drives the first cluster; the second
        # cluster runs a copy on its own ladder.
        assert governor._current_mhz == freqs["a57"]

    def test_stateless_governor_stays_shared(self):
        soc = self.make_sd810()
        governor = PerformanceGovernor()
        soc.set_governor(governor)
        assert all(g is governor for g in soc._governors.values())
