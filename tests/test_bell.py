"""CH74 inequality: Bell-angle margin, visibility threshold, ceiling, grids."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import optimize

from pathent.bell import (
    ChSettings,
    bell_angle_settings,
    ch_statistic,
    critical_visibility,
    star_probability,
)
from pathent.correlations import (
    Efficiency,
    UNIT_VISIBILITY,
    Visibility,
    joint_probability_at_phase,
)

SQRT2 = math.sqrt(2.0)

phases = st.floats(min_value=-10.0, max_value=10.0)
vis_values = st.floats(min_value=0.0, max_value=1.0)
eta_values = st.floats(min_value=1e-3, max_value=1.0)


def settings_with(phi1, phi1p, phi2, phi2p, v=1.0, eta=1.0):
    return ChSettings(
        phi1=phi1,
        phi1_prime=phi1p,
        phi2=phi2,
        phi2_prime=phi2p,
        v=Visibility(v=v),
        eta=Efficiency(eta=eta),
    )


def statistic_oracle(phi1, phi1p, phi2, phi2p, v):
    """Vectorized closed form of the normalized margin, used as sweep oracle."""
    terms = (
        np.cos(phi2 - phi1)
        - np.cos(phi2p - phi1)
        + np.cos(phi2 - phi1p)
        + np.cos(phi2p - phi1p)
    )
    return 0.5 * v * terms - 1.0


class TestStarProbability:
    def test_perfect_detection(self):
        assert star_probability(Efficiency(eta=1.0)) == 1.0

    def test_quadratic_in_eta(self):
        assert star_probability(Efficiency(eta=0.5)) == 0.25

    def test_twice_the_fringe_average(self):
        # The setting-averaged joint probability is eta^2/2, so the star
        # probability equals twice the full-period average.
        eff = Efficiency(eta=0.8)
        grid = np.arange(400) * (2 * math.pi / 400)
        mean = np.mean(
            [joint_probability_at_phase(float(d), Visibility(v=0.9), eff) for d in grid]
        )
        assert star_probability(eff) == pytest.approx(2 * mean, abs=1e-10)


class TestBellAngleSettings:
    def test_phase_differences(self):
        s = bell_angle_settings(UNIT_VISIBILITY)
        assert s.phase_differences() == (
            math.pi / 4,
            3 * math.pi / 4,
            -math.pi / 4,
            math.pi / 4,
        )

    def test_cosine_pattern(self):
        c = 1.0 / SQRT2
        cosines = [math.cos(d) for d in bell_angle_settings(UNIT_VISIBILITY).phase_differences()]
        assert cosines == pytest.approx([c, -c, c, c], abs=1e-15)

    def test_margin_at_full_visibility(self):
        result = ch_statistic(bell_angle_settings(UNIT_VISIBILITY))
        assert result.statistic == pytest.approx(SQRT2 - 1.0, abs=1e-12)

    def test_margin_vanishes_without_contrast(self):
        result = ch_statistic(bell_angle_settings(Visibility(v=0.0)))
        assert result.statistic == -1.0


class TestChStatistic:
    def test_boundary_visibility_margin_is_zero(self):
        result = ch_statistic(bell_angle_settings(Visibility(v=critical_visibility())))
        assert result.statistic == pytest.approx(0.0, abs=1e-12)

    def test_equal_phases_margin_is_v_minus_one(self):
        for v in (0.0, 0.3, 1.0):
            s = settings_with(0.7, 0.7, 0.7, 0.7, v=v)
            result = ch_statistic(s)
            assert result.statistic == pytest.approx(v - 1.0, abs=1e-15)
            # Spreadsheet-style oracle: plug the six probabilities in by hand.
            p = 0.5 * (1.0 + v)
            by_hand = p - p + p + p - 1.0 - 1.0
            assert result.statistic == pytest.approx(by_hand, abs=1e-15)

    def test_lower_margin_offset(self):
        result = ch_statistic(bell_angle_settings(Visibility(v=0.9)))
        assert result.lower_margin == result.statistic + 1.0

    @given(
        phi1=phases, phi1p=phases, phi2=phases, phi2p=phases,
        v=vis_values, eta=eta_values,
    )
    def test_statistic_independent_of_eta(self, phi1, phi1p, phi2, phi2p, v, eta):
        base = settings_with(phi1, phi1p, phi2, phi2p, v=v, eta=1.0)
        other = replace(base, eta=Efficiency(eta=eta))
        assert ch_statistic(base).statistic == ch_statistic(other).statistic

    def test_statistic_bitwise_equal_for_two_etas(self):
        for v in np.linspace(0.0, 1.0, 21):
            low = ch_statistic(bell_angle_settings(Visibility(v=float(v)), Efficiency(eta=0.1)))
            high = ch_statistic(bell_angle_settings(Visibility(v=float(v)), Efficiency(eta=1.0)))
            assert low.statistic == high.statistic

    @given(phi1=phases, phi1p=phases, phi2=phases, phi2p=phases, v=vis_values)
    def test_reconstruction_from_terms_exact(self, phi1, phi1p, phi2, phi2p, v):
        result = ch_statistic(settings_with(phi1, phi1p, phi2, phi2p, v=v))
        t1, t2, t3, t4, t5, t6 = result.terms
        assert t1 - t2 + t3 + t4 - t5 - t6 == result.statistic
        assert result.lower_margin == result.statistic + 1.0

    def test_raw_terms_restore_eta_scale(self):
        result = ch_statistic(bell_angle_settings(Visibility(v=0.8), Efficiency(eta=0.4)))
        eta2 = 0.4 * 0.4
        raw = joint_probability_at_phase(math.pi / 4, Visibility(v=0.8), Efficiency(eta=0.4))
        assert eta2 * result.terms[0] == pytest.approx(raw, rel=1e-15)
        assert eta2 * result.terms[4] == pytest.approx(star_probability(Efficiency(eta=0.4)))
        assert result.terms[4] == 1.0 and result.terms[5] == 1.0

    def test_agrees_with_vectorized_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            phi = rng.uniform(-math.pi, math.pi, 4)
            v = float(rng.uniform(0.0, 1.0))
            result = ch_statistic(settings_with(*phi, v=v))
            assert result.statistic == pytest.approx(
                float(statistic_oracle(phi[0], phi[1], phi[2], phi[3], v)), abs=1e-12
            )

    def test_rejects_non_finite_phase(self):
        with pytest.raises(ValueError):
            settings_with(math.nan, 0.0, 0.0, 0.0)

    def test_rejects_non_finite_element_of_array_phase(self):
        with pytest.raises(ValueError, match="phi2_prime"):
            settings_with(0.0, 0.0, np.zeros(3), np.array([0.0, math.inf, 1.0]))


class TestCriticalVisibility:
    def test_value(self):
        assert critical_visibility() == pytest.approx(0.70710678, abs=1e-8)

    def test_just_above_threshold_violates(self):
        v = Visibility(v=critical_visibility() + 1e-6)
        assert ch_statistic(bell_angle_settings(v)).statistic > 0

    def test_just_below_threshold_does_not(self):
        v = Visibility(v=critical_visibility() - 1e-6)
        assert ch_statistic(bell_angle_settings(v)).statistic < 0


class TestCeiling:
    def test_random_sweep_never_exceeds_tsirelson_margin(self):
        rng = np.random.default_rng(7)
        phi = rng.uniform(-math.pi, math.pi, (4, 10_000))
        values = statistic_oracle(phi[0], phi[1], phi[2], phi[3], 1.0)
        assert values.max() <= SQRT2 - 1.0 + 1e-9
        # Tie the vectorized oracle back to ch_statistic on a subsample.
        for idx in range(0, 10_000, 500):
            result = ch_statistic(
                settings_with(phi[0, idx], phi[1, idx], phi[2, idx], phi[3, idx])
            )
            assert result.statistic == pytest.approx(float(values[idx]), abs=1e-12)

    def test_local_refinement_reaches_the_ceiling(self):
        # Polishing the best random tuple must climb to sqrt(2) - 1, which the
        # Bell angles attain exactly.
        rng = np.random.default_rng(7)
        phi = rng.uniform(-math.pi, math.pi, (4, 10_000))
        values = statistic_oracle(phi[0], phi[1], phi[2], phi[3], 1.0)
        best = phi[:, int(np.argmax(values))]
        refined = optimize.minimize(
            lambda x: -statistic_oracle(x[0], x[1], x[2], x[3], 1.0), best, method="Nelder-Mead",
            options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 10_000},
        )
        assert -refined.fun == pytest.approx(SQRT2 - 1.0, abs=1e-9)

    def test_no_violation_at_or_below_threshold(self):
        rng = np.random.default_rng(13)
        phi = rng.uniform(-math.pi, math.pi, (4, 1_000_000))
        v = rng.uniform(0.0, critical_visibility(), 1_000_000)
        values = statistic_oracle(phi[0], phi[1], phi[2], phi[3], v)
        assert values.max() <= 0.0
        for idx in range(0, 1_000_000, 100_000):
            result = ch_statistic(
                settings_with(phi[0, idx], phi[1, idx], phi[2, idx], phi[3, idx], v=float(v[idx]))
            )
            assert result.statistic == pytest.approx(float(values[idx]), abs=1e-12)
            assert result.statistic <= 0.0


def grid_of(visibilities, settings, eta=1.0):
    """One array CH74 call: settings along the row, visibilities down the column."""
    columns = [
        np.array([getattr(s, name) for s in settings], dtype=float)
        for name in ("phi1", "phi1_prime", "phi2", "phi2_prime")
    ]
    v = np.array([vis.v for vis in visibilities], dtype=float)[:, np.newaxis]
    return ch_statistic(ChSettings(*columns, v=Visibility(v=v), eta=Efficiency(eta=eta)))


class TestScan:
    def test_single_row(self):
        grid = grid_of([UNIT_VISIBILITY], [bell_angle_settings(UNIT_VISIBILITY)])
        assert grid.statistic.shape == (1, 1)
        assert grid.statistic[0, 0] == pytest.approx(SQRT2 - 1.0, abs=1e-12)

    def test_low_visibility_rows_never_violate(self):
        settings = [
            bell_angle_settings(UNIT_VISIBILITY),
            settings_with(0.1, 1.3, -0.4, 2.2),
            settings_with(0.0, 0.0, 0.0, 0.0),
        ]
        grid = grid_of([Visibility(v=0.0), Visibility(v=0.5)], settings)
        assert grid.statistic.shape == (2, 3)
        assert (grid.statistic <= 0.0).all()
        assert not grid.violated.any()

    def test_row_order_is_outer_visibility_inner_settings(self):
        settings = [bell_angle_settings(UNIT_VISIBILITY), settings_with(0.0, 1.0, 2.0, 3.0)]
        visibilities = [Visibility(v=0.2), Visibility(v=0.9)]
        grid = grid_of(visibilities, settings)
        expected = [
            ch_statistic(replace(s, v=vis)).statistic for vis in visibilities for s in settings
        ]
        assert grid.statistic.ravel().tolist() == expected


class TestArrayGrid:
    def test_settings_row_by_visibility_column_matches_scalar_calls(self):
        rng = np.random.default_rng(17)
        phases = rng.uniform(-math.pi, math.pi, (4, 7))
        phases[:, 0] = (0.0, math.pi / 2, math.pi / 4, 3 * math.pi / 4)  # Bell angles
        phases[:, 1] = 0.0
        v = np.array([0.0, 0.5, critical_visibility(), 0.9, 1.0])
        eff = Efficiency(eta=0.8)
        grid = ch_statistic(ChSettings(*phases, v=Visibility(v=v[:, np.newaxis]), eta=eff))
        assert grid.statistic.shape == grid.violated.shape == (5, 7)
        terms = [np.broadcast_to(term, (5, 7)) for term in grid.terms]
        for i, vis in enumerate(v):
            for j in range(7):
                scalar = ch_statistic(
                    settings_with(*map(float, phases[:, j]), v=float(vis), eta=eff.eta)
                )
                assert grid.statistic[i, j] == scalar.statistic
                assert grid.lower_margin[i, j] == scalar.lower_margin
                assert grid.violated[i, j] == scalar.violated
                assert tuple(float(term[i, j]) for term in terms) == scalar.terms
        assert grid.statistic[-1, 0] == pytest.approx(SQRT2 - 1.0, abs=1e-12)
        assert (grid.statistic[:2] <= 0.0).all()  # v <= 0.5 never violates
