"""Four-mode quantum-path model: detector operators, final amplitude, Schmidt rank."""

import cmath
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pathent.correlations import UNIT_VISIBILITY, g2_at_phase
from pathent.pathmodel import (
    DetectorStage,
    FourModeState,
    apply_detector,
    final_amplitude,
    postselected_state,
    schmidt_coefficients,
    schmidt_rank,
)
from pathent.quantum_core import FieldParams

phases = st.floats(min_value=-10.0, max_value=10.0)

ALL_PATTERNS = list(itertools.product((0, 1), repeat=4))


class TestPostselectedState:
    def test_two_quantum_paths(self):
        expected = FourModeState.from_terms({(1, 0, 0, 1): 1.0 + 0j, (0, 1, 1, 0): 1.0 + 0j})
        assert np.array_equal(postselected_state().amplitudes, expected.amplitudes)

    def test_every_occupied_ket_holds_two_photons(self):
        for pattern in zip(*np.nonzero(postselected_state().amplitudes)):
            assert sum(pattern) == 2


class TestDetectorOperators:
    def test_first_detection_keeps_one_photon_per_path(self):
        phi1 = 0.87
        state = apply_detector(DetectorStage.FIRST, phi1, postselected_state())
        assert state.amplitude((0, 0, 0, 1)) == 1.0 + 0j
        assert state.amplitude((0, 0, 1, 0)) == cmath.exp(1j * phi1)
        expected = FourModeState.from_terms({(0, 0, 0, 1): 1.0, (0, 0, 1, 0): cmath.exp(1j * phi1)})
        assert np.array_equal(state.amplitudes, expected.amplitudes)

    def test_second_detection_reaches_vacuum(self):
        phi1, phi2 = 0.87, -1.91
        once = apply_detector(DetectorStage.FIRST, phi1, postselected_state())
        twice = apply_detector(DetectorStage.SECOND, phi2, once)
        expected = FourModeState.from_terms({(0, 0, 0, 0): final_amplitude(phi1, phi2)})
        assert np.array_equal(twice.amplitudes, expected.amplitudes)

    def test_zero_state_stays_zero(self):
        zero = FourModeState(np.zeros((2, 2, 2, 2)))
        for stage in DetectorStage:
            assert apply_detector(stage, 1.23, zero).is_zero()

    @given(phi1=phases, phi2=phases)
    def test_composition_reproduces_final_amplitude_exactly(self, phi1, phi2):
        once = apply_detector(DetectorStage.FIRST, phi1, postselected_state())
        twice = apply_detector(DetectorStage.SECOND, phi2, once)
        assert twice.amplitude((0, 0, 0, 0)) == final_amplitude(phi1, phi2)

    @given(
        phase=phases,
        a_re=st.floats(-2, 2), a_im=st.floats(-2, 2),
        b_re=st.floats(-2, 2), b_im=st.floats(-2, 2),
    )
    def test_linearity(self, phase, a_re, a_im, b_re, b_im):
        a, b = complex(a_re, a_im), complex(b_re, b_im)
        s = postselected_state()
        t = FourModeState.from_terms({(0, 0, 1, 0): 1.5, (0, 0, 0, 1): -2j})
        superposition = FourModeState(a * s.amplitudes + b * t.amplitudes)
        for stage in DetectorStage:
            combined = apply_detector(stage, phase, superposition)
            separate = (a * apply_detector(stage, phase, s).amplitudes
                        + b * apply_detector(stage, phase, t).amplitudes)
            assert np.allclose(combined.amplitudes, separate, atol=1e-12)

    def test_rejects_non_finite_phase(self):
        with pytest.raises(ValueError):
            apply_detector(DetectorStage.FIRST, math.inf, postselected_state())


class TestFinalAmplitude:
    def test_in_phase_paths_add(self):
        assert final_amplitude(0.0, 0.0) == 2.0 + 0j

    def test_opposite_paths_cancel(self):
        assert abs(final_amplitude(0.0, math.pi)) == pytest.approx(0.0, abs=1e-15)

    def test_squared_modulus_closed_form_on_grid(self):
        # |e^{i phi2} + e^{i phi1}|^2 expands to 2 + 2 cos(phi2 - phi1).
        for phi1 in np.linspace(-math.pi, math.pi, 25):
            for phi2 in np.linspace(-math.pi, math.pi, 25):
                squared = abs(final_amplitude(phi1, phi2)) ** 2
                assert squared == pytest.approx(2.0 + 2.0 * math.cos(phi2 - phi1), abs=1e-12)

    @given(phi1=phases, phi2=phases, theta=phases)
    def test_common_phase_shift_changes_nothing(self, phi1, phi2, theta):
        shifted = abs(final_amplitude(phi1 + theta, phi2 + theta)) ** 2
        assert shifted == pytest.approx(abs(final_amplitude(phi1, phi2)) ** 2, abs=1e-12)


class TestG2Path:
    """The path model's coincidence signal is |final_amplitude|^2 at full contrast."""

    def test_proportional_to_analytic_fringe(self):
        # A single constant e0^4/4 links the path-model signal to the
        # analytic correlation function at every phase pair.
        params = FieldParams(e0=1.3)
        scale = 0.25 * params.e0**4
        grid = np.linspace(-math.pi, math.pi, 40)
        for phi1 in grid:
            for phi2 in grid[::4]:
                lhs = scale * abs(final_amplitude(float(phi1), float(phi2))) ** 2
                rhs = g2_at_phase(float(phi2 - phi1), params, UNIT_VISIBILITY)
                assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_constant_ratio_where_fringe_is_bright(self):
        params = FieldParams(e0=1.0)
        scale = 0.25 * params.e0**4
        for phi1 in np.linspace(-2.0, 2.0, 30):
            denominator = abs(final_amplitude(float(phi1), 0.5)) ** 2
            if denominator > 1e-6:
                ratio = g2_at_phase(0.5 - float(phi1), params, UNIT_VISIBILITY) / denominator
                assert ratio == pytest.approx(scale, abs=1e-12)


class TestSchmidt:
    def test_postselected_state_is_maximally_path_entangled(self):
        state = FourModeState(postselected_state().amplitudes / math.sqrt(2.0))
        assert schmidt_rank(state) == 2
        coeffs = schmidt_coefficients(state)
        assert coeffs[0] == pytest.approx(coeffs[1], abs=1e-12)
        assert coeffs[0] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)

    def test_every_basis_ket_is_separable(self):
        for pattern in ALL_PATTERNS:
            ket = FourModeState.from_terms({pattern: 1.0})
            assert schmidt_rank(ket) == 1

    def test_product_superposition_is_separable(self):
        # Oracle: build (|10> + |01>) x (|10> + |01>) as an explicit tensor
        # product and check it equals the four-term superposition.
        single = np.zeros((2, 2), dtype=complex)
        single[1, 0] = 1.0
        single[0, 1] = 1.0
        amplitudes = np.einsum("ab,cd->abcd", single, single)
        product = FourModeState(amplitudes)
        expected = FourModeState.from_terms(
            {(1, 0, 1, 0): 1.0, (1, 0, 0, 1): 1.0, (0, 1, 1, 0): 1.0, (0, 1, 0, 1): 1.0}
        )
        assert np.array_equal(product.amplitudes, expected.amplitudes)
        assert schmidt_rank(product) == 1

    @given(modulus=st.floats(min_value=1e-3, max_value=1e3),
           angle=st.floats(min_value=-math.pi, max_value=math.pi))
    def test_rank_and_coefficient_ratios_ignore_scale(self, modulus, angle):
        # path-check ranks the unit-weight state as it is, unnormalized.
        factor = cmath.rect(modulus, angle)
        kets = [FourModeState.from_terms({pattern: 1.0}) for pattern in ALL_PATTERNS]
        for state in [postselected_state()] + kets:
            scaled = FourModeState(factor * state.amplitudes)
            assert schmidt_rank(scaled) == schmidt_rank(state)
            plain = schmidt_coefficients(state)
            coeffs = schmidt_coefficients(scaled)
            assert np.allclose(coeffs / coeffs[0], plain / plain[0], rtol=0.0, atol=1e-12)

    def test_zero_state_rejected(self):
        with pytest.raises(ValueError):
            schmidt_rank(FourModeState(np.zeros((2, 2, 2, 2))))


class TestFourModeState:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            FourModeState(np.zeros((2, 2), dtype=complex))

    def test_finite_validation(self):
        bad = np.zeros((2, 2, 2, 2), dtype=complex)
        bad[0, 0, 0, 0] = complex(math.nan, 0)
        with pytest.raises(ValueError):
            FourModeState(bad)

    def test_amplitudes_are_read_only(self):
        state = postselected_state()
        with pytest.raises(ValueError):
            state.amplitudes[0, 0, 0, 0] = 5.0
