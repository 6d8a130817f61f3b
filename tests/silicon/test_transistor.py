"""Per-die silicon profiles."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError
from repro.silicon.process import PROCESS_28NM_LP
from repro.silicon.transistor import SiliconProfile


class TestNominal:
    def test_nominal_profile(self):
        nominal = SiliconProfile.nominal()
        assert nominal.vth_delta == 0.0
        assert nominal.speed_factor == 1.0
        assert nominal.leak_factor == 1.0


class TestFromVthDelta:
    def test_zero_delta_is_nominal(self):
        profile = SiliconProfile.from_vth_delta(PROCESS_28NM_LP, 0.0)
        assert profile.speed_factor == pytest.approx(1.0)
        assert profile.leak_factor == pytest.approx(1.0)

    def test_fast_die_is_leaky(self):
        fast = SiliconProfile.from_vth_delta(PROCESS_28NM_LP, -0.03)
        assert fast.speed_factor > 1.0
        assert fast.leak_factor > 1.0

    def test_slow_die_leaks_little(self):
        slow = SiliconProfile.from_vth_delta(PROCESS_28NM_LP, +0.03)
        assert slow.speed_factor < 1.0
        assert slow.leak_factor < 1.0

    def test_absurd_delta_rejected(self):
        with pytest.raises(ConfigurationError):
            SiliconProfile.from_vth_delta(PROCESS_28NM_LP, 10.0)

    @given(st.floats(min_value=-0.06, max_value=0.06))
    def test_speed_and_leak_move_oppositely_with_vth(self, delta):
        profile = SiliconProfile.from_vth_delta(PROCESS_28NM_LP, delta)
        nominal = SiliconProfile.nominal()
        if delta > 0:
            assert profile.speed_factor <= nominal.speed_factor
            assert profile.leak_factor <= nominal.leak_factor
        elif delta < 0:
            assert profile.speed_factor >= nominal.speed_factor
            assert profile.leak_factor >= nominal.leak_factor

    @given(
        st.floats(min_value=-0.05, max_value=0.05),
        st.floats(min_value=-0.05, max_value=0.05),
    )
    def test_leak_ordering_tracks_vth_ordering(self, d1, d2):
        p1 = SiliconProfile.from_vth_delta(PROCESS_28NM_LP, d1)
        p2 = SiliconProfile.from_vth_delta(PROCESS_28NM_LP, d2)
        if d1 < d2:
            assert p1.leak_factor >= p2.leak_factor


class TestValidation:
    def test_non_positive_speed_rejected(self):
        with pytest.raises(ConfigurationError):
            SiliconProfile(vth_delta=0.0, speed_factor=0.0, leak_factor=1.0)

    def test_non_positive_leak_rejected(self):
        with pytest.raises(ConfigurationError):
            SiliconProfile(vth_delta=0.0, speed_factor=1.0, leak_factor=-0.5)
