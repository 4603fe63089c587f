"""Far-field phase geometry: examples, inversion round trip, symmetries."""

import math
import sys

import pytest
from hypothesis import given, strategies as st

from pathent.geometry import (
    DetectorSetting,
    EmitterPair,
    detector_for_phase,
    phase_at,
    phase_difference,
)

TWO_PI = 2.0 * math.pi

kd_values = st.floats(min_value=1e-3, max_value=1e3)
xi_values = st.floats(min_value=-math.pi / 2, max_value=math.pi / 2)


class TestPhaseAt:
    def test_zero_angle_gives_zero_phase(self):
        assert phase_at(EmitterPair(kd=TWO_PI), DetectorSetting(xi=0.0)) == 0.0

    def test_half_sine_angle(self):
        # sin(pi/6) = 1/2, so the phase is kd/2 = pi
        phase = phase_at(EmitterPair(kd=TWO_PI), DetectorSetting(xi=math.pi / 6))
        assert phase == pytest.approx(math.pi, abs=1e-12)

    def test_grazing_angle_gives_full_kd(self):
        phase = phase_at(EmitterPair(kd=4 * TWO_PI / 2), DetectorSetting(xi=math.pi / 2))
        assert phase == 4 * math.pi

    @given(kd=kd_values, xi=xi_values)
    def test_odd_in_xi(self, kd, xi):
        g = EmitterPair(kd=kd)
        assert phase_at(g, DetectorSetting(xi=-xi)) == -phase_at(g, DetectorSetting(xi=xi))


class TestPhaseDifference:
    def test_identical_settings_cancel(self):
        g = EmitterPair(kd=5.0)
        det = DetectorSetting(xi=0.3)
        assert phase_difference(g, det, det) == 0.0

    def test_antisymmetric_angles_add(self):
        g = EmitterPair(kd=TWO_PI)
        delta = phase_difference(
            g, DetectorSetting(xi=-math.pi / 6), DetectorSetting(xi=math.pi / 6)
        )
        assert delta == pytest.approx(TWO_PI, abs=1e-12)

    def test_quarter_turn_by_inversion(self):
        # Independent oracle: asin(1/8) places the second detector so that the
        # difference is exactly 2*pi * 1/8 = pi/4.
        g = EmitterPair(kd=TWO_PI)
        xi_b = math.asin(0.125)
        assert xi_b == pytest.approx(0.12532783116806539, abs=1e-15)
        delta = phase_difference(g, DetectorSetting(xi=0.0), DetectorSetting(xi=xi_b))
        assert delta == pytest.approx(math.pi / 4, abs=1e-12)

    @given(kd=kd_values, xi_a=xi_values, xi_b=xi_values)
    def test_antisymmetry(self, kd, xi_a, xi_b):
        g = EmitterPair(kd=kd)
        a, b = DetectorSetting(xi=xi_a), DetectorSetting(xi=xi_b)
        assert phase_difference(g, a, b) == -phase_difference(g, b, a)

    @given(kd=kd_values, xi_a=xi_values, xi_b=xi_values)
    def test_consistency_with_phase_at(self, kd, xi_a, xi_b):
        g = EmitterPair(kd=kd)
        a, b = DetectorSetting(xi=xi_a), DetectorSetting(xi=xi_b)
        assert phase_difference(g, a, b) == phase_at(g, b) - phase_at(g, a)


class TestDetectorForPhase:
    @given(kd=kd_values, fraction=st.floats(min_value=-1.0, max_value=1.0))
    def test_round_trip(self, kd, fraction):
        g = EmitterPair(kd=kd)
        target = fraction * kd
        realized = phase_at(g, detector_for_phase(g, target))
        assert realized == pytest.approx(target, abs=1e-12 * max(1.0, abs(target)))

    def test_unreachable_phase_rejected(self):
        g = EmitterPair(kd=math.pi)
        with pytest.raises(ValueError, match="not realizable"):
            detector_for_phase(g, math.pi * 1.0001)

    def test_non_finite_phase_rejected(self):
        with pytest.raises(ValueError):
            detector_for_phase(EmitterPair(kd=1.0), math.nan)


class TestValidation:
    @pytest.mark.parametrize("kd", [0.0, -1.0, math.inf, math.nan])
    def test_bad_kd(self, kd):
        with pytest.raises(ValueError):
            EmitterPair(kd=kd)

    @pytest.mark.parametrize("kd", [1e308, math.nextafter(sys.float_info.max / 2, math.inf)])
    def test_kd_whose_double_overflows_rejected(self, kd):
        # 2*kd bounds |phase difference|; beyond it the fringe reads inf/NaN.
        with pytest.raises(ValueError, match="2\\*kd"):
            EmitterPair(kd=kd)

    def test_largest_kd_allowed(self):
        EmitterPair(kd=8.9e307)
        EmitterPair(kd=sys.float_info.max / 2)

    @pytest.mark.parametrize("xi", [2.0, -2.0, math.inf, math.nan])
    def test_bad_xi(self, xi):
        with pytest.raises(ValueError):
            DetectorSetting(xi=xi)

    def test_boundary_angles_allowed(self):
        DetectorSetting(xi=math.pi / 2)
        DetectorSetting(xi=-math.pi / 2)
