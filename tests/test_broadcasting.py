"""Array inputs to the physics kernels: each result equals, bit for bit, the
scalar kernel applied to every element."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pathent.bell import bell_angle_settings, ch_statistic
from pathent.correlations import (
    Efficiency,
    Visibility,
    conditional_probability_at_phase,
    fringe,
    g2_at_phase,
    joint_probability_at_phase,
)
from pathent.geometry import DetectorSetting, EmitterPair, phase_at, phase_difference
from pathent.pathmodel import final_amplitude
from pathent.quantum_core import (
    Atom,
    AtomicState,
    FieldParams,
    apply_field_negative,
    lowering,
    two_photon_amplitude,
)

HALF_PI = math.pi / 2
AMPLITUDES = ("amp_ee", "amp_eg", "amp_ge", "amp_gg")


def arrays(elements, max_size=12):
    return st.lists(elements, min_size=1, max_size=max_size).map(np.array)


angles = arrays(st.floats(min_value=-HALF_PI, max_value=HALF_PI))
phases = arrays(st.floats(min_value=-50.0, max_value=50.0))
contrasts = arrays(st.floats(min_value=0.0, max_value=1.0))
kds = st.floats(min_value=1e-3, max_value=1e3)
e0s = st.floats(min_value=0.1, max_value=3.0)
etas = st.floats(min_value=1e-3, max_value=1.0)
complexes = st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False)


def elementwise(fn, *inputs):
    """``fn`` called on Python scalars, once per element of the broadcast inputs."""
    grids = np.broadcast_arrays(*inputs)
    values = [fn(*args) for args in zip(*(grid.ravel().tolist() for grid in grids))]
    return np.array(values).reshape(grids[0].shape)


def column(values):
    return values[:, np.newaxis]


def row(values):
    return values[np.newaxis, :]


class TestGeometry:
    @given(kd=kds, xi=angles)
    def test_phase_at(self, kd, xi):
        g = EmitterPair(kd=kd)
        expected = elementwise(lambda x: phase_at(g, DetectorSetting(xi=x)), xi)
        assert np.array_equal(phase_at(g, DetectorSetting(xi=xi)), expected)

    @given(kd=kds, xi_a=angles, xi_b=angles)
    def test_phase_difference_over_a_grid(self, kd, xi_a, xi_b):
        g = EmitterPair(kd=kd)
        got = phase_difference(g, DetectorSetting(xi=column(xi_a)), DetectorSetting(xi=row(xi_b)))
        expected = elementwise(
            lambda a, b: phase_difference(g, DetectorSetting(xi=a), DetectorSetting(xi=b)),
            column(xi_a), row(xi_b),
        )
        assert got.shape == (xi_a.size, xi_b.size)
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("bad", [2.0, -2.0, math.inf, math.nan])
    def test_one_bad_angle_rejects_the_array(self, bad):
        with pytest.raises(ValueError, match="xi must lie in"):
            DetectorSetting(xi=np.array([[0.0, 0.5], [bad, 1.0]]))

    def test_boundary_angles_allowed_in_an_array(self):
        DetectorSetting(xi=np.linspace(-HALF_PI, HALF_PI, 7))


class TestCorrelations:
    @given(delta=phases, v=contrasts)
    def test_fringe_over_phases_and_contrasts(self, delta, v):
        got = fringe(column(delta), Visibility(v=row(v)))
        expected = elementwise(lambda d, c: fringe(d, Visibility(v=c)), column(delta), row(v))
        assert np.array_equal(got, expected)

    @given(delta=phases, v=contrasts, e0=e0s)
    def test_g2_at_phase(self, delta, v, e0):
        params = FieldParams(e0=e0)
        got = g2_at_phase(column(delta), params, Visibility(v=row(v)))
        expected = elementwise(
            lambda d, c: g2_at_phase(d, params, Visibility(v=c)), column(delta), row(v)
        )
        assert np.array_equal(got, expected)

    @given(delta=phases, v=contrasts, eta=etas)
    def test_conditional_and_joint_probability(self, delta, v, eta):
        eff = Efficiency(eta=eta)
        for kernel in (conditional_probability_at_phase, joint_probability_at_phase):
            got = kernel(column(delta), Visibility(v=row(v)), eff)
            expected = elementwise(
                lambda d, c: kernel(d, Visibility(v=c), eff), column(delta), row(v)
            )
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("bad", [-0.1, 1.1, math.inf, math.nan])
    def test_one_bad_contrast_rejects_the_array(self, bad):
        with pytest.raises(ValueError, match="visibility must lie in"):
            Visibility(v=np.array([0.0, bad, 1.0]))


class TestQuantumCore:
    @given(data=st.data(), size=st.integers(min_value=1, max_value=8))
    def test_lowering(self, data, size):
        amps = [np.array(data.draw(st.lists(complexes, min_size=size, max_size=size)))
                for _ in AMPLITUDES]
        state = AtomicState(*amps)
        for atom in Atom:
            got = lowering(atom, state)
            for name in AMPLITUDES:
                expected = elementwise(
                    lambda *a: getattr(lowering(atom, AtomicState(*a)), name), *amps
                )
                assert np.array_equal(np.broadcast_to(getattr(got, name), (size,)), expected)

    @given(kd=kds, e0=e0s, xi=angles, theta=st.floats(min_value=-math.pi, max_value=math.pi))
    def test_apply_field_negative(self, kd, e0, xi, theta):
        g, params = EmitterPair(kd=kd), FieldParams(e0=e0)
        gauged = AtomicState.excited().scaled(cmath.exp(1j * theta))
        # Two applications, so the input state of the second carries arrays.
        once = apply_field_negative(g, DetectorSetting(xi=xi), params, gauged)
        twice = apply_field_negative(g, DetectorSetting(xi=xi[::-1]), params, once)

        def scalar(x, x_rev, name):
            one = apply_field_negative(g, DetectorSetting(xi=x), params, gauged)
            return getattr(apply_field_negative(g, DetectorSetting(xi=x_rev), params, one), name)

        for name in AMPLITUDES:
            expected = elementwise(lambda x, y: scalar(x, y, name), xi, xi[::-1])
            assert np.array_equal(np.broadcast_to(getattr(twice, name), xi.shape), expected)

    @given(kd=kds, e0=e0s, xi1=angles, xi2=angles)
    def test_two_photon_amplitude_over_a_grid(self, kd, e0, xi1, xi2):
        g, params = EmitterPair(kd=kd), FieldParams(e0=e0)
        got = two_photon_amplitude(
            g, DetectorSetting(xi=column(xi1)), DetectorSetting(xi=row(xi2)), params
        )
        expected = elementwise(
            lambda a, b: two_photon_amplitude(g, DetectorSetting(xi=a), DetectorSetting(xi=b), params),
            column(xi1), row(xi2),
        )
        assert got.shape == (xi1.size, xi2.size)
        assert np.array_equal(got, expected)

    def test_one_non_finite_amplitude_rejects_the_state(self):
        with pytest.raises(ValueError, match="amp_eg must be finite"):
            AtomicState(amp_eg=np.array([1.0 + 0j, complex(0.0, math.inf)]))


class TestPathModel:
    @given(phi1=phases, phi2=phases)
    def test_g2_path_over_a_grid(self, phi1, phi2):
        # The path model's coincidence signal is |final_amplitude|^2.
        got = final_amplitude(column(phi1), row(phi2))
        expected = elementwise(final_amplitude, column(phi1), row(phi2))
        assert got.shape == (phi1.size, phi2.size)
        assert np.array_equal(got, expected)


class TestBell:
    @given(v=contrasts, eta=etas)
    def test_ch_statistic_over_contrasts(self, v, eta):
        eff = Efficiency(eta=eta)
        got = ch_statistic(bell_angle_settings(Visibility(v=v), eff))
        scalar = [ch_statistic(bell_angle_settings(Visibility(v=c), eff)) for c in v.tolist()]
        assert np.array_equal(got.statistic, [r.statistic for r in scalar])
        assert np.array_equal(got.lower_margin, [r.lower_margin for r in scalar])
        assert np.array_equal(got.violated, [r.violated for r in scalar])
        for i in range(4):
            assert np.array_equal(got.terms[i], [r.terms[i] for r in scalar])
