"""CLI output pinned byte for byte against scalar reference runners.

The references evaluate the kernels one point (or one detector pair, or one
seed) at a time with Python scalars, as the commands once did; the CLI
evaluates each grid, and mc-bell its seeds, in array passes and must print
exactly the same bytes.
"""

import contextlib
import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pathent import cli
from pathent.bell import bell_angle_settings, ch_statistic
from pathent.cli import RunConfig, run
from pathent.correlations import (
    Efficiency,
    Visibility,
    g2_at_phase,
    joint_probability_at_phase,
)
from pathent.geometry import DetectorSetting, EmitterPair, phase_at, phase_difference
from pathent.pathmodel import final_amplitude, postselected_state, schmidt_rank
from pathent.quantum_core import FieldParams, two_photon_amplitude
from test_g17 import assert_same_rows

HALF_PI = math.pi / 2


def _fmt(value):
    return format(float(value), ".17g")


def reference_g2_scan(cfg):
    params = FieldParams(e0=cfg.e0)
    vis = Visibility(v=cfg.visibility)
    eff = Efficiency(eta=cfg.eta)
    rows = ["delta_phi,g2,joint_probability"]
    if cfg.xi_start is not None:
        geometry = EmitterPair(kd=cfg.kd)
        det_ref = DetectorSetting(xi=cfg.xi_ref)
        for xi in np.linspace(cfg.xi_start, cfg.xi_stop, cfg.points):
            det = DetectorSetting(xi=float(xi))
            delta = phase_difference(geometry, det_ref, det)
            rows.append(
                f"{_fmt(delta)},{_fmt(g2_at_phase(delta, params, vis))},"
                f"{_fmt(joint_probability_at_phase(delta, vis, eff))}"
            )
    else:
        for delta in np.linspace(cfg.phi_start, cfg.phi_stop, cfg.points):
            delta = float(delta)
            rows.append(
                f"{_fmt(delta)},{_fmt(g2_at_phase(delta, params, vis))},"
                f"{_fmt(joint_probability_at_phase(delta, vis, eff))}"
            )
    return "\n".join(rows) + "\n"


def reference_bell_test(cfg):
    eff = Efficiency(eta=cfg.eta)
    if cfg.v_grid is not None:
        v_values = cfg.v_grid
    else:
        v_values = [float(v) for v in np.linspace(cfg.v_start, cfg.v_stop, cfg.v_points)]
    rows = ["v,statistic,lower_margin,violated"]
    for v in v_values:
        result = ch_statistic(bell_angle_settings(Visibility(v=v), eff))
        flag = "true" if result.violated else "false"
        rows.append(f"{_fmt(v)},{_fmt(result.statistic)},{_fmt(result.lower_margin)},{flag}")
    return "\n".join(rows) + "\n"


def reference_path_check(cfg):
    geometry = EmitterPair(kd=cfg.kd)
    params = FieldParams(e0=cfg.e0)
    scale = 0.25 * params.e0**4
    angles = np.linspace(-HALF_PI, HALF_PI, cfg.grid_points)
    deviation = 0.0
    for xi1 in angles:
        det1 = DetectorSetting(xi=float(xi1))
        phi1 = phase_at(geometry, det1)
        for xi2 in angles:
            det2 = DetectorSetting(xi=float(xi2))
            phi2 = phase_at(geometry, det2)
            operator_g2 = abs(two_photon_amplitude(geometry, det1, det2, params)) ** 2
            path_g2 = scale * abs(final_amplitude(phi1, phi2)) ** 2
            deviation = max(deviation, abs(path_g2 - operator_g2))
    rank = schmidt_rank(postselected_state())
    return f"max_abs_deviation={_fmt(deviation / scale)} schmidt_rank={rank}\n"


def reference_mc_bell(cfg):
    """One seed at a time: numpy's own per-term generators, scalar estimator."""
    settings = bell_angle_settings(Visibility(v=cfg.visibility), Efficiency(eta=cfg.eta))
    probabilities = [
        joint_probability_at_phase(delta, settings.v, settings.eta)
        for delta in settings.phase_differences()
    ]
    n = cfg.trials
    eta2 = cfg.eta * cfg.eta
    rows = ["seed,trials,statistic_hat,std_error,sigma_violation"]
    for seed in range(cfg.seed_start, cfg.seed_start + cfg.num_seeds):
        counts = [
            int(np.random.default_rng(
                np.random.SeedSequence(entropy=seed, spawn_key=(term_index,))
            ).binomial(n, p))
            for term_index, p in enumerate(probabilities)
        ]
        p_hat = [count / n for count in counts]
        statistic_hat = (p_hat[0] - p_hat[1] + p_hat[2] + p_hat[3] - 2.0 * eta2) / eta2
        t0, t1, t2, t3 = (p * (1.0 - p) / n for p in p_hat)
        std_error = math.sqrt(t0 + t1 + t2 + t3) / eta2
        if std_error > 0.0:
            sigma = statistic_hat / std_error
        else:
            sigma = math.inf if statistic_hat > 0.0 else -math.inf if statistic_hat < 0.0 else 0.0
        rows.append(f"{seed},{n},{_fmt(statistic_hat)},{_fmt(std_error)},{_fmt(sigma)}")
    return "\n".join(rows) + "\n"


def cli_output(command, options):
    """Stdout of the CLI for ``command`` with ``options`` passed as flags."""
    argv = [command]
    for key, value in options.items():
        text = ",".join(map(repr, value)) if isinstance(value, tuple) else repr(value)
        argv.append(f"--{key.replace('_', '-')}={text}")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(argv) == 0
    return out.getvalue()


def assert_matches_reference(command, reference, options):
    expected = reference(RunConfig(command=command, **options))
    assert_same_rows(cli_output(command, options), expected)


angles = st.floats(min_value=-HALF_PI, max_value=HALF_PI)
contrasts = st.floats(min_value=0.0, max_value=1.0)
etas = st.floats(min_value=1e-3, max_value=1.0)
e0s = st.floats(min_value=0.1, max_value=3.0)
kds = st.floats(min_value=0.1, max_value=50.0)


@given(
    phi_start=st.floats(min_value=-100.0, max_value=100.0),
    phi_stop=st.floats(min_value=-100.0, max_value=100.0),
    points=st.integers(min_value=1, max_value=300),
    e0=e0s, visibility=contrasts, eta=etas,
)
@example(phi_start=0.0, phi_stop=1.0, points=3, e0=1e-80, visibility=0.5, eta=1.0)  # subnormal g2
# Blocks long enough for the vectorised renderer: subnormal g2 printed in
# scientific notation, then g2 up to 81 and dark-fringe zeros and tiny values.
@example(phi_start=-50.0, phi_stop=50.0, points=5000, e0=1e-80, visibility=0.9, eta=0.7)
@example(phi_start=-50.0, phi_stop=50.0, points=5000, e0=3.0, visibility=1.0, eta=0.9)
def test_g2_scan_phase_mode(**options):
    assert_matches_reference("g2-scan", reference_g2_scan, options)


@given(
    kd=kds, xi_start=angles, xi_stop=angles, xi_ref=angles,
    points=st.integers(min_value=1, max_value=300),
    e0=e0s, visibility=contrasts, eta=etas,
)
@example(  # rows span two CSV formatting blocks, both rendered by the kernel
    kd=7.0, xi_start=-1.5, xi_stop=1.5, xi_ref=0.2, points=2500, e0=1.1, visibility=0.9, eta=0.8
)
def test_g2_scan_angle_mode(**options):
    # Blocks smaller than the default, so that a grid short enough for the
    # deadline still spans two of them.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_BLOCK_ROWS", 2048)
        assert_matches_reference("g2-scan", reference_g2_scan, options)


@given(
    v_start=contrasts, v_stop=contrasts,
    v_points=st.integers(min_value=1, max_value=300), eta=etas,
)
def test_bell_test_visibility_range(**options):
    assert_matches_reference("bell-test", reference_bell_test, options)


# Long ranges outside hypothesis: one of them alone takes about half of its
# 200 ms deadline.
@pytest.mark.parametrize("options, block_rows", [
    # A block rendered by the kernel, then a block of 52 rows rendered by %.
    (dict(v_start=0.0, v_stop=1.0, v_points=2100, eta=0.9), 2048),
    # Margins near 0 at v = 1/sqrt(2), in blocks of the default size.
    (dict(v_start=0.7, v_stop=0.72, v_points=5000, eta=0.9), cli._BLOCK_ROWS),
], ids=["2100-rows", "5000-rows"])
def test_bell_test_long_visibility_range(monkeypatch, options, block_rows):
    monkeypatch.setattr(cli, "_BLOCK_ROWS", block_rows)
    assert_matches_reference("bell-test", reference_bell_test, options)


@given(v_grid=st.lists(contrasts, min_size=1, max_size=40).map(tuple), eta=etas)
def test_bell_test_visibility_list(**options):
    assert_matches_reference("bell-test", reference_bell_test, options)


@settings(max_examples=25, deadline=None)
@given(kd=kds, e0=e0s, grid_points=st.integers(min_value=2, max_value=40))
@example(kd=2 * math.pi, e0=1.0, grid_points=40)  # the largest drawn grid, in one pass
@example(kd=7.3, e0=1e-76, grid_points=20)  # dark-fringe signals near the subnormal range
@example(kd=7.3, e0=1.15e77, grid_points=20)  # e0**4 just below overflow
def test_path_check(**options):
    assert_matches_reference("path-check", reference_path_check, options)


@pytest.mark.parametrize("options", [
    dict(kd=2 * math.pi, e0=1.0, grid_points=40),
    dict(kd=7.3, e0=1e-76, grid_points=20),
    dict(kd=12.5, e0=1.15e77, grid_points=13),
    dict(kd=0.3, e0=2.0, grid_points=3),
    dict(kd=9.1, e0=0.7, grid_points=150),
])
def test_path_check_bytes_do_not_depend_on_the_pass_size(monkeypatch, options):
    # 1 and 7 pairs take one row per pass, except 7 at grid 3 (rows 2, 1);
    # 64 pairs take 1, 3, 4 and 21 rows, so grids 20 and 13 end in a partial
    # pass; 2**14 and the shipped size take each grid up to 40 in one pass,
    # and grid 150 in two (109 and 41 rows) and three (53, 53 and 44 rows).
    outputs = set()
    for pairs in (1, 7, 64, 2**14, cli._PATH_CHECK_PAIRS):
        monkeypatch.setattr(cli, "_PATH_CHECK_PAIRS", pairs)
        outputs.add(cli_output("path-check", options))
    assert len(outputs) == 1


@st.composite
def seed_ranges(draw):
    """A first seed and a seed count whose seeds all lie below 2**64."""
    seed_start = draw(
        st.integers(0, 2**64 - 1) | st.integers(2**64 - 10, 2**64 - 1)
        | st.integers(2**63 - 40, 2**63 + 40) | st.integers(0, 1000)
    )
    return seed_start, draw(st.integers(1, min(40, 2**64 - seed_start)))


@settings(max_examples=60, deadline=None)
@given(
    seeds=seed_ranges(),
    trials=st.sampled_from([1, 2, 37, 1000, 10**6, 2**63 - 1]) | st.integers(1, 10**4),
    visibility=contrasts,
    eta=etas | st.sampled_from([1.0, 1e-160]),
)
@example(seeds=(0, 3), trials=1, visibility=1.0, eta=1.0)  # 1,1,1,0,inf rows
@example(seeds=(5, 4), trials=1000, visibility=0.9, eta=1e-160)  # -2,0,-inf rows
@example(seeds=(2**64 - 10, 10), trials=2**63 - 1, visibility=0.9, eta=0.8)
@example(seeds=(0, 40), trials=10**6, visibility=0.9, eta=1.0)
@example(seeds=(2**64 - 600, 600), trials=1000, visibility=0.9, eta=0.8)  # renderer blocks
@example(seeds=(0, 600), trials=1, visibility=1.0, eta=1.0)  # renderer blocks with inf
def test_mc_bell(seeds, **options):
    seed_start, num_seeds = seeds
    options.update(seed_start=seed_start, num_seeds=num_seeds)
    assert_matches_reference("mc-bell", reference_mc_bell, options)
