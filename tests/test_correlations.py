"""Correlation functions and their probability interpretation."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pathent.correlations import (
    Efficiency,
    UNIT_VISIBILITY,
    Visibility,
    conditional_probability_at_phase,
    g1,
    g2_at_phase,
    joint_probability_at_phase,
    marginal_probability,
)
from pathent.geometry import (
    DetectorSetting,
    EmitterPair,
    detector_for_phase,
    phase_difference,
)
from pathent.quantum_core import (
    AtomicState,
    FieldParams,
    apply_field_negative,
    two_photon_amplitude,
)

GEOMETRY = EmitterPair(kd=4 * math.pi)

vis_values = st.floats(min_value=0.0, max_value=1.0)
eta_values = st.floats(min_value=1e-6, max_value=1.0)
deltas = st.floats(min_value=-4 * math.pi, max_value=4 * math.pi)


def random_detectors(count, seed=0):
    rng = np.random.default_rng(seed)
    return [DetectorSetting(xi=float(x)) for x in rng.uniform(-math.pi / 2, math.pi / 2, count)]


def one_photon_signal(det, params):
    """Squared norm of E^(-)(r)|ee>, the operator-algebra first-order signal at det."""
    return apply_field_negative(GEOMETRY, det, params, AtomicState.excited()).norm_squared


class TestG1:
    def test_unit_amplitude(self):
        assert g1(FieldParams(e0=1.0)) == 1.0

    def test_quadratic_scaling(self):
        assert g1(FieldParams(e0=2.0)) == 4.0

    def test_position_independent(self):
        params = FieldParams(e0=1.3)
        for det in random_detectors(50):
            assert one_photon_signal(det, params) == pytest.approx(g1(params), abs=1e-12)


class TestG2:
    def test_constructive_peak(self):
        assert g2_at_phase(0.0, FieldParams(e0=1.0), UNIT_VISIBILITY) == 1.0

    def test_destructive_dip(self):
        assert g2_at_phase(math.pi, FieldParams(e0=1.0), UNIT_VISIBILITY) == 0.0

    def test_quadrature_point(self):
        value = g2_at_phase(math.pi / 2, FieldParams(e0=1.0), Visibility(v=0.8))
        assert value == pytest.approx(0.5, abs=1e-15)

    def test_matches_two_photon_amplitude_on_dense_grid(self):
        # At full contrast the analytic fringe must equal the squared
        # two-photon amplitude from the operator algebra.
        params = FieldParams(e0=1.1)
        grid = np.linspace(-2 * math.pi, 2 * math.pi, 50)
        for phi1 in grid:
            for phi2 in grid[::5]:
                d1 = detector_for_phase(GEOMETRY, phi1)
                d2 = detector_for_phase(GEOMETRY, phi2)
                squared = abs(two_photon_amplitude(GEOMETRY, d1, d2, params)) ** 2
                delta = phase_difference(GEOMETRY, d1, d2)
                assert g2_at_phase(delta, params, UNIT_VISIBILITY) == pytest.approx(
                    squared, abs=1e-12
                )

    def test_symmetric_in_detectors(self):
        d1, d2 = random_detectors(2, seed=3)
        params = FieldParams(e0=1.0)
        vis = Visibility(v=0.6)
        forward = g2_at_phase(phase_difference(GEOMETRY, d1, d2), params, vis)
        backward = g2_at_phase(phase_difference(GEOMETRY, d2, d1), params, vis)
        assert forward == backward

    @given(delta=deltas, v=vis_values)
    def test_bounds(self, delta, v):
        params = FieldParams(e0=1.4)
        value = g2_at_phase(delta, params, Visibility(v=v))
        assert 0.0 <= value <= params.e0**4

    @given(delta=deltas, v=vis_values)
    def test_affine_in_visibility(self, delta, v):
        params = FieldParams(e0=1.0)
        base = g2_at_phase(delta, params, Visibility(v=0.0))
        full = g2_at_phase(delta, params, UNIT_VISIBILITY)
        interpolated = base + v * (full - base)
        assert g2_at_phase(delta, params, Visibility(v=v)) == pytest.approx(
            interpolated, abs=1e-12
        )


class TestProbabilities:
    def test_marginal_is_eta(self):
        assert marginal_probability(Efficiency(eta=1.0)) == 1.0
        assert marginal_probability(Efficiency(eta=0.3)) == 0.3

    def test_marginal_position_independent(self):
        eff, params = Efficiency(eta=0.7), FieldParams(e0=1.5)
        for det in random_detectors(50, seed=1):
            from_operator = eff.eta * one_photon_signal(det, params) / g1(params)
            assert from_operator == pytest.approx(marginal_probability(eff), abs=1e-12)
        assert marginal_probability(eff) == 0.7

    def test_joint_peak(self):
        assert joint_probability_at_phase(0.0, UNIT_VISIBILITY, Efficiency(eta=1.0)) == 1.0

    def test_joint_quadrature_point(self):
        value = joint_probability_at_phase(math.pi / 2, Visibility(v=0.9), Efficiency(eta=0.5))
        assert value == pytest.approx(0.125, abs=1e-15)

    def test_joint_mean_over_full_period(self):
        # Quadrature oracle: averaging the fringe over a uniform grid covering
        # one full period leaves eta^2/2 for every visibility.
        grid = np.arange(1000) * (2 * math.pi / 1000)
        for v in (0.0, 0.4, 1.0):
            for eta in (0.25, 1.0):
                vis, eff = Visibility(v=v), Efficiency(eta=eta)
                mean = np.mean(
                    [joint_probability_at_phase(float(d), vis, eff) for d in grid]
                )
                assert mean == pytest.approx(eta**2 / 2, abs=1e-10)

    @given(delta=deltas, v=vis_values, eta=eta_values)
    def test_joint_bounds(self, delta, v, eta):
        value = joint_probability_at_phase(delta, Visibility(v=v), Efficiency(eta=eta))
        assert 0.0 <= value <= eta * eta

    def test_conditional_dark_fringe_forbids_second_photon(self):
        value = conditional_probability_at_phase(math.pi, UNIT_VISIBILITY, Efficiency(eta=0.8))
        assert value == 0.0

    def test_conditional_bright_fringe_is_certain(self):
        value = conditional_probability_at_phase(0.0, UNIT_VISIBILITY, Efficiency(eta=1.0))
        assert value == 1.0

    @given(delta=deltas, v=vis_values, eta=eta_values)
    def test_chain_rule_exact(self, delta, v, eta):
        vis, eff = Visibility(v=v), Efficiency(eta=eta)
        conditional = conditional_probability_at_phase(delta, vis, eff)
        product = conditional * marginal_probability(eff)
        assert product == joint_probability_at_phase(delta, vis, eff)

    def test_chain_rule_exact_with_detectors(self):
        d1, d2 = random_detectors(2, seed=9)
        vis, eff = Visibility(v=0.7), Efficiency(eta=0.4)
        delta = phase_difference(GEOMETRY, d1, d2)
        product = conditional_probability_at_phase(delta, vis, eff) * marginal_probability(eff)
        assert product == joint_probability_at_phase(delta, vis, eff)


class TestValidation:
    @pytest.mark.parametrize("v", [-0.1, 1.1, math.nan])
    def test_bad_visibility(self, v):
        with pytest.raises(ValueError):
            Visibility(v=v)

    @pytest.mark.parametrize("eta", [0.0, -0.5, 1.5, math.nan])
    def test_bad_efficiency(self, eta):
        with pytest.raises(ValueError):
            Efficiency(eta=eta)

    def test_boundary_values_allowed(self):
        Visibility(v=0.0)
        Visibility(v=1.0)
        Efficiency(eta=1.0)
