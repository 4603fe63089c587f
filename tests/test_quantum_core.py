"""Two-atom operator algebra: lowering, field operator, two-photon amplitude."""

import cmath
import math
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from pathent.correlations import UNIT_VISIBILITY, g2_at_phase
from pathent.geometry import (
    DetectorSetting,
    EmitterPair,
    detector_for_phase,
    phase_difference,
)
from pathent.quantum_core import (
    Atom,
    AtomicState,
    FieldParams,
    _product,
    apply_field_negative,
    lowering,
    two_photon_amplitude,
)

GEOMETRY = EmitterPair(kd=4 * math.pi)
AT_ZERO = DetectorSetting(xi=0.0)

phases = st.floats(min_value=-4 * math.pi, max_value=4 * math.pi)
complexes = st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False)
# Parts small enough that no product overflows, signed zeros drawn often.
parts = st.sampled_from([0.0, -0.0]) | st.floats(min_value=-1e100, max_value=1e100)
signed_complexes = st.builds(complex, parts, parts)


def det_at_phase(phase):
    return detector_for_phase(GEOMETRY, phase)


class TestLowering:
    def test_deexcites_atom_a(self):
        assert lowering(Atom.A, AtomicState.excited()) == AtomicState(amp_ge=1.0 + 0j)

    def test_deexcites_atom_b(self):
        assert lowering(Atom.B, AtomicState.excited()) == AtomicState(amp_eg=1.0 + 0j)

    def test_annihilates_ground_state(self):
        assert lowering(Atom.A, AtomicState.ground()).norm_squared == 0.0
        assert lowering(Atom.B, AtomicState.ground()).norm_squared == 0.0

    def test_sequential_deexcitation_reaches_ground(self):
        both_down = lowering(Atom.B, lowering(Atom.A, AtomicState.excited()))
        assert both_down == AtomicState.ground()

    def test_mixed_state_components(self):
        s = AtomicState(amp_ee=2j, amp_eg=3.0, amp_ge=5.0, amp_gg=7.0)
        assert lowering(Atom.A, s) == AtomicState(amp_ge=2j, amp_gg=3.0)
        assert lowering(Atom.B, s) == AtomicState(amp_eg=2j, amp_gg=5.0)


class TestFieldOperator:
    def test_in_phase_emission_is_symmetric(self):
        out = apply_field_negative(GEOMETRY, AT_ZERO, FieldParams(e0=1.0), AtomicState.excited())
        expected = 1.0 / math.sqrt(2.0)
        assert out.amp_ge == pytest.approx(expected)
        assert out.amp_eg == pytest.approx(expected)
        assert out.amp_ee == 0 and out.amp_gg == 0

    def test_opposite_phase_emission_is_antisymmetric(self):
        out = apply_field_negative(
            GEOMETRY, det_at_phase(math.pi), FieldParams(e0=1.0), AtomicState.excited()
        )
        expected = 1.0 / math.sqrt(2.0)
        assert out.amp_ge == pytest.approx(expected, abs=1e-12)
        assert out.amp_eg == pytest.approx(-expected, abs=1e-12)

    def test_ground_state_yields_zero(self):
        out = apply_field_negative(GEOMETRY, AT_ZERO, FieldParams(e0=2.0), AtomicState.ground())
        assert out.norm_squared == 0.0

    def test_three_applications_annihilate(self):
        # Only two excitations exist, so the operator is nilpotent of order 3.
        state = AtomicState.excited()
        for phase in (0.1, 1.2, 2.3):
            state = apply_field_negative(GEOMETRY, det_at_phase(phase), FieldParams(e0=1.0), state)
        assert state.norm_squared == 0.0

    @given(phase=phases, theta=st.floats(min_value=-math.pi, max_value=math.pi))
    def test_global_phase_changes_no_modulus(self, phase, theta):
        det = det_at_phase(phase)
        plain = apply_field_negative(GEOMETRY, det, FieldParams(e0=1.0), AtomicState.excited())
        gauged = apply_field_negative(
            GEOMETRY, det, FieldParams(e0=1.0), AtomicState.excited().scaled(cmath.exp(1j * theta))
        )
        for name in ("amp_ee", "amp_eg", "amp_ge", "amp_gg"):
            assert abs(getattr(gauged, name)) == pytest.approx(
                abs(getattr(plain, name)), abs=1e-12
            )


class TestTwoPhotonAmplitude:
    def test_full_constructive_interference(self):
        amp = two_photon_amplitude(GEOMETRY, AT_ZERO, AT_ZERO, FieldParams(e0=1.0))
        assert abs(amp) == pytest.approx(1.0, abs=1e-12)

    def test_full_destructive_interference(self):
        amp = two_photon_amplitude(
            GEOMETRY, det_at_phase(0.0), det_at_phase(math.pi), FieldParams(e0=1.0)
        )
        assert abs(amp) == pytest.approx(0.0, abs=1e-12)

    def test_matches_closed_form_on_grid(self):
        # Squared modulus must be (e0^4/2)(1 + cos dphi); compare against the
        # fringe at full contrast over a 10x10 phase grid.
        params = FieldParams(e0=1.0)
        for phi1 in np.linspace(-2 * math.pi, 2 * math.pi, 10):
            for phi2 in np.linspace(-2 * math.pi, 2 * math.pi, 10):
                d1, d2 = det_at_phase(phi1), det_at_phase(phi2)
                squared = abs(two_photon_amplitude(GEOMETRY, d1, d2, params)) ** 2
                delta = phase_difference(GEOMETRY, d1, d2)
                assert squared == pytest.approx(
                    g2_at_phase(delta, params, UNIT_VISIBILITY), abs=1e-12
                )

    def test_equals_composition_of_field_operators(self):
        params = FieldParams(e0=1.7)
        d1, d2 = det_at_phase(0.8), det_at_phase(-2.5)
        once = apply_field_negative(GEOMETRY, d1, params, AtomicState.excited())
        twice = apply_field_negative(GEOMETRY, d2, params, once)
        assert two_photon_amplitude(GEOMETRY, d1, d2, params) == twice.amp_gg

    @given(phi1=phases, phi2=phases)
    def test_exchange_symmetry(self, phi1, phi2):
        params = FieldParams(e0=1.0)
        d1, d2 = det_at_phase(phi1), det_at_phase(phi2)
        forward = abs(two_photon_amplitude(GEOMETRY, d1, d2, params))
        backward = abs(two_photon_amplitude(GEOMETRY, d2, d1, params))
        assert forward == pytest.approx(backward, abs=1e-12)

    def test_scales_as_e0_squared_per_photon(self):
        d1, d2 = det_at_phase(0.4), det_at_phase(1.1)
        small = two_photon_amplitude(GEOMETRY, d1, d2, FieldParams(e0=1.0))
        large = two_photon_amplitude(GEOMETRY, d1, d2, FieldParams(e0=3.0))
        assert abs(large) == pytest.approx(9.0 * abs(small), rel=1e-12)


def reference_product(a, b):
    """CPython's complex product in Python floats, part by part."""
    return complex(a.real * b.real - a.imag * b.imag, a.real * b.imag + a.imag * b.real)


def bits(z):
    """The bit patterns of the parts of every element, flattened."""
    return np.asarray(z, dtype=complex).reshape(-1).view(np.uint64)


class TestProduct:
    @given(a=signed_complexes | parts, b=signed_complexes)
    def test_python_scalars_equal_the_reference_bit_for_bit(self, a, b):
        got = _product(a, b)
        assert type(got) is complex
        assert np.array_equal(bits(got), bits(reference_product(a, b)))

    @given(data=st.data(), shapes=hnp.mutually_broadcastable_shapes(num_shapes=2, max_dims=3))
    def test_arrays_equal_the_reference_bit_for_bit(self, data, shapes):
        a, b = (data.draw(hnp.arrays(complex, shape, elements=signed_complexes))
                for shape in shapes.input_shapes)
        got = _product(a, b)
        left, right = np.broadcast_arrays(a, b)
        expected = [reference_product(x, y)
                    for x, y in zip(left.ravel().tolist(), right.ravel().tolist())]
        assert np.shape(got) == shapes.result_shape
        assert np.array_equal(bits(got), bits(expected))

    @given(factor=parts, amp=hnp.arrays(complex, st.integers(1, 5), elements=signed_complexes))
    def test_float_factor_equals_the_reference_bit_for_bit(self, factor, amp):
        # A Python float is the complex (factor, 0.0), as scaled(e0 / sqrt 2) uses it.
        expected = [reference_product(factor, y) for y in amp.tolist()]
        assert np.array_equal(bits(_product(factor, amp)), bits(expected))

    @pytest.mark.parametrize("a, b, kind", [
        (1 + 2j, 3 - 1j, complex),
        (2.0, 1 + 1j, complex),
        (1 + 1j, 2.0, complex),
        (3, 1j, complex),
        (np.complex128(1 + 2j), 3j, np.complex128),
        (np.float64(2.0), 1j, np.complex128),
        (np.array(1 + 2j), 3j, np.complex128),
        (np.array(1 + 2j), np.array(2.0), np.complex128),
        (np.array([1j]), 2.0, np.ndarray),
    ])
    def test_result_type(self, a, b, kind):
        # Python numbers give a Python complex, numpy scalars and 0-d arrays a
        # numpy complex, arrays an array.
        got = _product(a, b)
        assert type(got) is kind
        assert np.all(got == reference_product(np.asarray(a).item(), np.asarray(b).item()))


class TestAtomicState:
    def test_norm_and_flag(self):
        assert AtomicState.excited().norm_squared == 1.0
        assert AtomicState.excited().scaled(2.0).norm_squared == pytest.approx(4.0)

    def test_rejects_non_finite_amplitudes(self):
        with pytest.raises(ValueError):
            AtomicState(amp_ee=complex(math.inf, 0.0))

    @pytest.mark.parametrize("factor", [math.nan, complex("inf"), np.array([1.0, np.nan])])
    def test_scaled_rejects_non_finite_factor(self, factor):
        with pytest.raises(ValueError, match="factor must be finite"):
            AtomicState().scaled(factor)

    @pytest.mark.parametrize("value", [
        complex(math.inf, 0.0), complex(0.0, -math.inf), complex(math.nan, 1.0),
        complex(1.0, math.nan), math.inf, math.nan,
        np.complex128(complex(0.0, math.nan)), np.float64(-math.inf), np.array(complex(math.nan, 0.0)),
        np.array([1.0, math.nan, 2.0]), np.array([[0j, complex(0.0, math.inf)]]),
    ], ids=repr)
    def test_every_kind_of_non_finite_value_is_rejected(self, value):
        with pytest.raises(ValueError, match="amp_gg must be finite"):
            AtomicState(amp_gg=value)
        with pytest.raises(ValueError, match="factor must be finite"):
            AtomicState.excited().scaled(value)

    @pytest.mark.parametrize("value", [
        complex(-0.0, 1e308), 2.5, 7, np.complex128(1j), np.float64(-3.0),
        np.array(complex(0.0, 1.0)), np.array([1.0, 2.0]),
    ], ids=repr)
    def test_every_kind_of_finite_value_is_accepted(self, value):
        assert AtomicState(amp_gg=value).amp_gg is value
        AtomicState.excited().scaled(value)

    @pytest.mark.parametrize("value", ["1.0", None, object(), 10**400])
    def test_non_numeric_value_raises_type_error(self, value):
        with pytest.raises(TypeError, match="isfinite"):
            AtomicState(amp_ee=value)
        with pytest.raises(TypeError, match="isfinite"):
            AtomicState().scaled(value)

    def test_scaled_ground_state_rejects_nan(self):
        with pytest.raises(ValueError):
            AtomicState.ground().scaled(math.nan)

    @given(
        amplitudes=st.lists(st.just(0j) | complexes, min_size=4, max_size=4),
        factor=st.lists(complexes, min_size=1, max_size=5).map(np.array),
    )
    def test_scaled_equals_full_product(self, amplitudes, factor):
        # Scalar 0j amplitudes stay scalar; broadcast, every amplitude
        # equals the element-wise product of the factor with it.
        result = AtomicState(*amplitudes).scaled(factor)
        for name, amp in zip(("amp_ee", "amp_eg", "amp_ge", "amp_gg"), amplitudes):
            value = getattr(result, name)
            if amp == 0j:
                assert value is amp
            assert np.array_equal(np.broadcast_to(value, factor.shape), _product(factor, amp))

    def test_field_params_validation(self):
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                FieldParams(e0=bad)

    @pytest.mark.parametrize("e0", [1e100, sys.float_info.max ** 0.25])
    def test_field_params_rejects_e0_whose_fourth_power_overflows(self, e0):
        # Python's float ** raises OverflowError rather than returning inf.
        with pytest.raises(ValueError, match="e0\\*\\*4"):
            FieldParams(e0=e0)

    def test_largest_e0_allowed(self):
        largest = math.nextafter(sys.float_info.max ** 0.25, 0.0)
        for e0 in (1.15e77, largest):
            assert math.isfinite(FieldParams(e0=e0).e0 ** 4)
