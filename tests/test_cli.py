"""CLI behavior: golden outputs, config merging, exit codes, determinism."""

import argparse
import contextlib
import io
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import pathent
import pathent.cli
from pathent.bell import bell_angle_settings, ch_statistic
from pathent.correlations import Efficiency, Visibility
from pathent.geometry import DetectorSetting, EmitterPair, phase_difference
from pathent.montecarlo import McConfig, estimate_ch
from pathent.cli import build_parser, run

SQRT2 = math.sqrt(2.0)
HALF_PI = math.pi / 2


def run_capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(text):
    lines = text.splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def output_numbers(text):
    """Every numeric output field as {(row, column name): value}.

    Reads the CSV of g2-scan, bell-test and mc-bell and the ``key=value``
    line of path-check; the true/false ``violated`` column is skipped.
    """
    if text.startswith("max_abs_deviation="):
        pairs = [field.split("=") for field in text.split()]
        return {(0, key): float(value) for key, value in pairs}
    header, rows = csv_rows(text)
    return {
        (index, name): float(value)
        for index, row in enumerate(rows)
        for name, value in zip(header, row)
        if name != "violated"
    }


class TestBellTestCommand:
    def test_golden_visibilities(self, capsys):
        code, out, err = run_capture(
            capsys, ["bell-test", "--v-grid", "0.5,0.70710678118654752,1.0"]
        )
        assert code == 0 and err == ""
        header, rows = csv_rows(out)
        assert header == ["v", "statistic", "lower_margin", "violated"]
        stats = [round(float(row[1]), 5) for row in rows]
        assert stats == [-0.29289, 0.0, 0.41421]
        assert [row[3] for row in rows] == ["false", "false", "true"]

    def test_statistics_round_trip_exactly(self, capsys):
        code, out, _ = run_capture(capsys, ["bell-test", "--v-start", "0", "--v-stop", "1", "--v-points", "11"])
        assert code == 0
        _, rows = csv_rows(out)
        for row in rows:
            v = float(row[0])
            expected = ch_statistic(bell_angle_settings(Visibility(v=v))).statistic
            assert float(row[1]) == expected
            assert float(row[2]) == expected + 1.0

    def test_default_grid_has_101_points(self, capsys):
        code, out, _ = run_capture(capsys, ["bell-test"])
        assert code == 0
        _, rows = csv_rows(out)
        assert len(rows) == 101
        assert float(rows[0][0]) == 0.0 and float(rows[-1][0]) == 1.0


class TestG2ScanCommand:
    def test_fringe_extremes(self, capsys):
        code, out, _ = run_capture(
            capsys,
            ["g2-scan", "--phi-start", "0", "--phi-stop", str(math.pi), "--points", "2"],
        )
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["delta_phi", "g2", "joint_probability"]
        assert [float(row[1]) for row in rows] == [1.0, 0.0]
        assert [float(row[2]) for row in rows] == [1.0, 0.0]

    def test_e0_scales_g2_but_not_probability(self, capsys):
        _, out, _ = run_capture(
            capsys,
            ["g2-scan", "--phi-start", "0", "--phi-stop", "0", "--points", "1", "--e0", "2"],
        )
        _, rows = csv_rows(out)
        assert float(rows[0][1]) == 16.0
        assert float(rows[0][2]) == 1.0

    def test_angle_mode_reports_phases(self, capsys):
        kd = 7.0
        code, out, _ = run_capture(
            capsys,
            [
                "g2-scan", "--kd", str(kd),
                "--xi-start", "-0.5", "--xi-stop", "0.5",
                "--points", "5", "--xi-ref", "0.1",
            ],
        )
        assert code == 0
        _, rows = csv_rows(out)
        geometry = EmitterPair(kd=kd)
        reference = DetectorSetting(xi=0.1)
        import numpy as np

        for row, xi in zip(rows, np.linspace(-0.5, 0.5, 5)):
            expected = phase_difference(geometry, reference, DetectorSetting(xi=float(xi)))
            assert float(row[0]) == expected

    def test_angle_mode_needs_both_bounds(self, capsys):
        code, _, err = run_capture(capsys, ["g2-scan", "--xi-start", "0"])
        assert code == 3
        assert "xi_start and xi_stop" in err


class TestMcBellCommand:
    def test_rows_match_library_estimates(self, capsys):
        code, out, _ = run_capture(
            capsys,
            ["mc-bell", "--visibility", "0.9", "--trials", "20000", "--num-seeds", "3"],
        )
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["seed", "trials", "statistic_hat", "std_error", "sigma_violation"]
        settings = bell_angle_settings(Visibility(v=0.9), Efficiency(eta=1.0))
        for row in rows:
            seed = int(row[0])
            estimate = estimate_ch(
                McConfig(seed=seed, trials_per_setting=20000, settings=settings)
            )
            assert int(row[1]) == 20000
            assert float(row[2]) == estimate.statistic_hat
            assert float(row[3]) == estimate.std_error
            assert float(row[4]) == estimate.sigma_violation

    def test_seed_start_offsets_rows(self, capsys):
        _, out, _ = run_capture(
            capsys,
            ["mc-bell", "--trials", "100", "--num-seeds", "2", "--seed-start", "5"],
        )
        _, rows = csv_rows(out)
        assert [row[0] for row in rows] == ["5", "6"]

    def test_row_bytes_do_not_depend_on_python_version(self, capsys):
        # Counts 827, 188, 824, 811. The four variances are added left to
        # right; sum() compensates from Python 3.12 on and would end in ...048.
        code, out, _ = run_capture(capsys, ["mc-bell", "--trials", "1000", "--num-seeds", "1",
                                            "--seed-start", "12", "--visibility", "0.9"])
        assert code == 0
        assert out.splitlines()[1] == \
            "12,1000,0.27400000000000002,0.024372730663592052,11.242072288982408"


class TestPathCheckCommand:
    def test_reports_tiny_deviation_and_rank(self, capsys):
        code, out, _ = run_capture(capsys, ["path-check", "--grid-points", "25"])
        assert code == 0
        line = out.strip()
        fields = dict(part.split("=") for part in line.split())
        assert float(fields["max_abs_deviation"]) < 1e-12
        assert int(fields["schmidt_rank"]) == 2

    def test_scaled_field_still_consistent(self, capsys):
        code, out, _ = run_capture(
            capsys, ["path-check", "--grid-points", "15", "--e0", "1.7", "--kd", "9.0"]
        )
        assert code == 0
        fields = dict(part.split("=") for part in out.strip().split())
        assert float(fields["max_abs_deviation"]) < 1e-12

    @pytest.mark.parametrize("e0", ["1e-70", "1", "1e70", "1.15e77"])
    def test_deviation_is_relative_to_the_field_scale(self, capsys, e0):
        # In units of e0**4/4 the two models agree to rounding at any field.
        code, out, err = run_capture(
            capsys, ["path-check", "--e0", e0, "--kd", "7.3", "--grid-points", "40"]
        )
        assert (code, err) == (0, "")
        fields = dict(part.split("=") for part in out.strip().split())
        assert 0.0 < float(fields["max_abs_deviation"]) <= 1e-12

    @pytest.mark.parametrize("kd", [math.pi, 4 * math.pi], ids=["kd=pi", "kd=4pi"])
    def test_benchmark_inputs(self, capsys, kd):
        # The ends of the kd range that the path-check benchmark draws from.
        code, out, err = run_capture(
            capsys, ["path-check", "--kd", repr(kd), "--e0", "1.25", "--grid-points", "120"]
        )
        assert (code, err) == (0, "")
        fields = dict(part.split("=") for part in out.strip().split())
        assert float(fields["max_abs_deviation"]) <= 1e-12
        assert fields["schmidt_rank"] == "2"


class TestConfigFile:
    def test_config_file_sets_options(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("# fringe scan\npoints = 2\nphi-stop = 0  # overridden stop\n")
        code, out, _ = run_capture(capsys, ["g2-scan", "--config", str(config)])
        assert code == 0
        _, rows = csv_rows(out)
        assert len(rows) == 2
        assert [float(row[0]) for row in rows] == [0.0, 0.0]

    def test_flags_override_config(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("v_grid = 0.2,0.4\n")
        code, out, _ = run_capture(
            capsys, ["bell-test", "--config", str(config), "--v-grid", "1.0"]
        )
        assert code == 0
        _, rows = csv_rows(out)
        assert len(rows) == 1
        assert round(float(rows[0][1]), 5) == 0.41421

    def test_unknown_key_rejected(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("trials = 100\n")
        code, _, err = run_capture(capsys, ["bell-test", "--config", str(config)])
        assert code == 3
        assert "unknown config key" in err

    def test_malformed_line_rejected(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("just some words\n")
        code, _, err = run_capture(capsys, ["bell-test", "--config", str(config)])
        assert code == 3

    def test_missing_file_rejected(self, capsys, tmp_path):
        code, _, err = run_capture(
            capsys, ["bell-test", "--config", str(tmp_path / "absent.cfg")]
        )
        assert code == 3

    def test_hash_inside_value_is_kept(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(f"output = {tmp_path / 'run#1.csv'}\n# a comment line\n")
        code, out, err = run_capture(
            capsys, ["path-check", "--grid-points", "3", "--config", str(config)]
        )
        assert (code, out, err) == (0, "", "")
        assert (tmp_path / "run#1.csv").read_text().startswith("max_abs_deviation=")
        assert not (tmp_path / "run").exists()

    def test_hash_after_whitespace_starts_a_comment(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("points = 3  # three\n  # indented comment\nvisibility = 0.5\t#tab\n")
        code, out, _ = run_capture(capsys, ["g2-scan", "--config", str(config)])
        assert code == 0
        _, rows = csv_rows(out)
        assert len(rows) == 3

    @pytest.mark.parametrize("first,second", [("points", "points"), ("phi-stop", "phi_stop")])
    def test_repeated_key_rejected(self, capsys, tmp_path, first, second):
        config = tmp_path / "run.cfg"
        config.write_text(f"{first} = 3\n# between\n{second} = 5\n")
        code, out, err = run_capture(capsys, ["g2-scan", "--config", str(config)])
        assert (code, out) == (3, "")
        key = first.replace("-", "_")
        assert err == (f"pathent: invalid configuration: {config}:3: "
                       f"config key {key!r} already set on line 1\n")

    def test_byte_order_mark_is_skipped(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_bytes(b"\xef\xbb\xbfpoints = 3\n")
        from_file = run_capture(capsys, ["g2-scan", "--config", str(config)])
        assert from_file == run_capture(capsys, ["g2-scan", "--points", "3"])
        assert from_file[0] == 0

    def test_non_utf8_file_rejected(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_bytes(b"points = 2\n\xff\n")
        code, out, err = run_capture(capsys, ["g2-scan", "--config", str(config)])
        assert code == 3
        assert out == ""
        assert err.startswith("pathent: invalid configuration: cannot read config file")
        assert err.count("\n") == 1


class TestExitCodes:
    def test_unknown_command_is_usage_error(self, capsys):
        code, _, err = run_capture(capsys, ["frobnicate"])
        assert code == 2
        assert err != ""

    def test_no_command_is_usage_error(self, capsys):
        code, _, _ = run_capture(capsys, [])
        assert code == 2

    def test_malformed_flag_value_is_usage_error(self, capsys):
        code, _, _ = run_capture(capsys, ["g2-scan", "--points", "many"])
        assert code == 2

    def test_malformed_v_grid_is_usage_error(self, capsys):
        code, _, err = run_capture(capsys, ["bell-test", "--v-grid", "a,b"])
        assert code == 2
        assert err != ""

    def test_malformed_v_grid_in_config_is_config_error(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("v_grid = a,b\n")
        code, _, err = run_capture(capsys, ["bell-test", "--config", str(config)])
        assert code == 3

    @pytest.mark.parametrize("text, message", [
        (",", "empty value list ','"),
        ("0.5,x", "bad float list '0.5,x': could not convert string to float: 'x'"),
    ])
    def test_malformed_v_grid_message_on_both_paths(self, capsys, tmp_path, text, message):
        code, out, err = run_capture(capsys, ["bell-test", "--v-grid", text])
        assert (code, out) == (2, "")
        assert err.endswith(f"error: argument --v-grid: {message}\n")
        assert "_parse_float_list" not in err
        config = tmp_path / "run.cfg"
        config.write_text(f"v_grid = {text}\n")
        code, out, err = run_capture(capsys, ["bell-test", "--config", str(config)])
        assert (code, out) == (3, "")
        assert err == f"pathent: invalid configuration: bad value for 'v_grid': {message}\n"

    def test_invalid_visibility_is_config_error(self, capsys):
        code, _, err = run_capture(capsys, ["mc-bell", "--visibility", "1.5", "--trials", "10"])
        assert code == 3
        assert "invalid configuration" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["g2-scan", "--phi-start", "nan"],
            ["g2-scan", "--phi-stop", "inf"],
            ["g2-scan", "--phi-start=-inf"],
            ["g2-scan", "--phi-start=-1e308", "--phi-stop", "1e308"],
            ["g2-scan", "--xi-start", "nan", "--xi-stop", "1"],
            ["g2-scan", "--xi-start", "-1", "--xi-stop", "inf"],
            ["bell-test", "--v-start", "nan"],
            ["bell-test", "--v-stop", "inf"],
        ],
    )
    def test_non_finite_grid_end_is_config_error(self, capsys, argv):
        code, out, err = run_capture(capsys, argv)
        assert code == 3
        assert out == ""
        assert err.startswith("pathent: invalid configuration:")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["g2-scan", "--points", "1000000000000000"],
            ["bell-test", "--v-points", "1000000000000000"],
            ["path-check", "--grid-points", "1000000000000000"],
        ],
    )
    def test_unallocatable_grid_is_config_error(self, capsys, argv):
        code, out, err = run_capture(capsys, argv)
        assert code == 3
        assert out == ""
        assert err.startswith("pathent: invalid configuration:")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["g2-scan", "--kd", "nan", "--points", "2"],
            ["g2-scan", "--kd", "-1", "--xi-ref", "9", "--points", "2"],
            ["g2-scan", "--xi-ref", "9", "--points", "2"],
        ],
    )
    def test_phase_mode_validates_kd_and_xi_ref(self, capsys, argv):
        code, out, err = run_capture(capsys, argv)
        assert code == 3
        assert out == ""
        assert err.startswith("pathent: invalid configuration:")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["g2-scan", "--e0", "1e100", "--points", "3"],
            ["path-check", "--e0", "1e100", "--grid-points", "3"],
            ["g2-scan", "--kd", "1e308", "--xi-start", repr(HALF_PI), "--xi-stop",
             repr(HALF_PI), f"--xi-ref={-HALF_PI!r}", "--points", "2"],
            ["path-check", "--kd", "1e308", "--grid-points", "3"],
            ["mc-bell", "--eta", "1e-300", "--trials", "10", "--num-seeds", "1"],
            ["mc-bell", "--eta", "1e-170", "--trials", "1000"],
            ["path-check", "--e0", "1e-200", "--grid-points", "50"],  # e0**4/4 underflows
        ],
    )
    def test_overflowing_e0_kd_and_eta_are_config_errors(self, capsys, argv):
        code, out, err = run_capture(capsys, argv)
        assert code == 3
        assert out == ""
        assert err.startswith("pathent: invalid configuration:")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["g2-scan", "--e0", "1.15e77", "--points", "3"],
            ["path-check", "--e0", "1.15e77", "--grid-points", "3"],
            ["g2-scan", "--kd", "8.9e307", "--xi-start", repr(HALF_PI), "--xi-stop",
             repr(HALF_PI), f"--xi-ref={-HALF_PI!r}", "--points", "2"],
            ["path-check", "--kd", "8.9e307", "--grid-points", "3"],
        ],
    )
    def test_largest_e0_and_kd_run(self, capsys, argv):
        code, out, err = run_capture(capsys, argv)
        assert code == 0 and err == ""
        assert all(math.isfinite(value) for value in output_numbers(out).values())

    def test_trials_beyond_int64_is_config_error(self, capsys):
        code, out, err = run_capture(
            capsys, ["mc-bell", "--trials", "9223372036854775808", "--num-seeds", "2"]
        )
        assert code == 3
        assert out == ""
        assert err.startswith("pathent: invalid configuration:")
        assert err.count("\n") == 1

    def test_huge_trial_count_runs(self, capsys):
        code, out, err = run_capture(
            capsys,
            ["mc-bell", "--visibility", "0.9", "--trials", "1000000000000",
             "--num-seeds", "2"],
        )
        assert code == 0 and err == ""
        _, rows = csv_rows(out)
        assert len(rows) == 2
        assert all(math.isfinite(float(value)) for row in rows for value in row)

    @pytest.mark.parametrize(
        "seed_start,bad",
        [(2**64 - 2, 2**64), (-2, -2)],
        ids=["straddles-2**64", "negative-start"],
    )
    def test_out_of_range_seed_is_config_error(self, capsys, seed_start, bad):
        # The message names the first out-of-range seed of the run.
        code, out, err = run_capture(
            capsys, ["mc-bell", "--trials", "1000", "--num-seeds", "5",
                     "--seed-start", str(seed_start)]
        )
        assert (code, out) == (3, "")
        assert err == ("pathent: invalid configuration: "
                       f"seed must be a 64-bit unsigned integer, got {bad}\n")

    def test_last_valid_seeds_run(self, capsys):
        code, out, err = run_capture(
            capsys, ["mc-bell", "--trials", "1000", "--num-seeds", "3",
                     "--seed-start", str(2**64 - 3)]
        )
        assert (code, err) == (0, "")
        _, rows = csv_rows(out)
        assert [int(row[0]) for row in rows] == [2**64 - 3, 2**64 - 2, 2**64 - 1]

    def test_invalid_eta_is_config_error(self, capsys):
        code, _, _ = run_capture(capsys, ["bell-test", "--eta", "0"])
        assert code == 3

    @pytest.mark.parametrize("target", ["{tmp}/missing_dir/out.csv", ""],
                             ids=["missing-dir", "empty-path"])
    def test_unwritable_output_path(self, capsys, tmp_path, target):
        # An empty path is a path that cannot be opened, not a request for stdout.
        code, out, err = run_capture(capsys, ["bell-test", "-o", target.format(tmp=tmp_path)])
        assert code == 4
        assert out == ""
        assert "cannot write output" in err

    def test_nul_byte_in_output_path_is_output_error(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("output = a\0b\n")
        code, out, err = run_capture(
            capsys, ["path-check", "--grid-points", "3", "--config", str(config)]
        )
        assert code == 4
        assert out == ""
        assert err.startswith("pathent: cannot write output:")
        assert err.count("\n") == 1

    def test_help_exits_cleanly(self, capsys):
        code, out, _ = run_capture(capsys, ["--help"])
        assert code == 0
        assert "g2-scan" in out


def _subparsers():
    parser = build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def _long_options(subparser):
    """Long option names of a command, without ``--``, except --help and --config."""
    return [
        flag[2:]
        for action in subparser._actions
        for flag in action.option_strings
        if flag.startswith("--") and flag not in ("--help", "--config")
    ]


#: A valid value for every option key; a new option must be added here.
_SAMPLE_VALUES = {
    "kd": "7.5", "e0": "1.25", "visibility": "0.8", "eta": "0.9",
    "phi-start": "-1", "phi-stop": "2", "points": "7",
    "xi-start": "-0.5", "xi-stop": "0.25", "xi-ref": "0.1",
    "v-grid": "0.25,0.75,1", "v-start": "0.5", "v-stop": "0.9", "v-points": "4",
    "trials": "300", "num-seeds": "3", "seed-start": "7", "grid-points": "6",
}

#: Flags that must accompany an option for the command to run.
_COMPANION_FLAGS = {"xi-start": ["--xi-stop", "0.5"], "xi-stop": ["--xi-start", "-0.5"]}


def _float_flags():
    """(command, flag) for every option that takes a float or a float list."""
    return [
        (command, action.option_strings[-1])
        for command, subparser in _subparsers().items()
        for action in subparser._actions
        if action.type in (float, pathent.cli._parse_float_list)
    ]


class TestNegativeValues:
    @pytest.mark.parametrize("value", ["-1e-3", "-.5e2"])
    @pytest.mark.parametrize("command, flag", _float_flags())
    def test_float_flag_takes_a_negative_value_in_any_notation(self, capsys, command, flag,
                                                                value):
        extra = _COMPANION_FLAGS.get(flag[2:], [])
        spaced = run_capture(capsys, [command, flag, value, *extra])
        assert spaced[0] != 2, spaced[2]
        assert spaced == run_capture(capsys, [command, f"{flag}={value}", *extra])

    def test_negative_infinity_reaches_the_domain_check(self, capsys):
        code, out, err = run_capture(capsys, ["bell-test", "--v-start", "-inf"])
        assert (code, out) == (3, "")
        assert "v_start and v_stop must be finite" in err

    @pytest.mark.parametrize("argv", [
        ["g2-scan", "--bogus", "-1e-3"],
        ["g2-scan", "--points", "3", "-1e-3"],
    ])
    def test_unknown_flag_or_stray_value_is_still_a_usage_error(self, capsys, argv):
        code, out, err = run_capture(capsys, argv)
        assert (code, out) == (2, "")
        assert "unrecognized arguments" in err


class TestFlagConfigParity:
    @pytest.mark.parametrize("command", list(_subparsers()))
    def test_every_long_option_is_a_config_key(self, capsys, tmp_path, command):
        options = _long_options(_subparsers()[command])
        assert "output" in options
        config = tmp_path / "run.cfg"
        for option in options:
            if option == "output":
                flag_file, config_file = tmp_path / "flag.csv", tmp_path / "config.csv"
                flag_run = run_capture(capsys, [command, "-o", str(flag_file)])
                config.write_text(f"output = {config_file}\n")
                config_run = run_capture(capsys, [command, "--config", str(config)])
                assert flag_run == config_run == (0, "", "")
                assert flag_file.read_bytes() == config_file.read_bytes()
                continue
            extra = _COMPANION_FLAGS.get(option, [])
            value = _SAMPLE_VALUES[option]
            flag_run = run_capture(capsys, [command, f"--{option}", value, *extra])
            config.write_text(f"{option} = {value}\n")
            config_run = run_capture(capsys, [command, "--config", str(config), *extra])
            assert flag_run[0] == 0, (option, flag_run[2])
            assert config_run == flag_run, option

    @pytest.mark.parametrize("command", list(_subparsers()))
    def test_other_commands_keys_are_rejected(self, capsys, tmp_path, command):
        subparsers = _subparsers()
        own = set(_long_options(subparsers[command]))
        foreign = {
            option
            for other, subparser in subparsers.items()
            if other != command
            for option in _long_options(subparser)
        } - own
        assert foreign
        config = tmp_path / "run.cfg"
        for option in sorted(foreign):
            for key in (option, option.replace("-", "_")):
                config.write_text(f"{key} = {_SAMPLE_VALUES[option]}\n")
                code, out, err = run_capture(capsys, [command, "--config", str(config)])
                assert code == 3, key
                assert out == ""
                assert "unknown config key" in err


#: Every option that has a default, spelled out at the default the README
#: documents; the other options (output, xi-start, xi-stop, v-grid) have none.
_DEFAULT_FLAGS = {
    "g2-scan": ["--kd", "6.283185307179586", "--e0", "1", "--visibility", "1", "--eta", "1",
                "--phi-start", "0", "--phi-stop", "6.283185307179586", "--points", "100",
                "--xi-ref", "0"],
    "bell-test": ["--eta", "1", "--v-start", "0", "--v-stop", "1", "--v-points", "101"],
    "mc-bell": ["--visibility", "1", "--eta", "1", "--trials", "1000000",
                "--num-seeds", "20", "--seed-start", "0"],
    "path-check": ["--kd", "6.283185307179586", "--e0", "1", "--grid-points", "100"],
}


class TestDefaults:
    @pytest.mark.parametrize("command", list(_subparsers()))
    def test_no_options_equal_every_default_spelled_out(self, capsys, command):
        flags = _DEFAULT_FLAGS[command]
        without_default = {"output", "xi-start", "xi-stop", "v-grid"}
        assert {flag[2:] for flag in flags[::2]} == (
            set(_long_options(_subparsers()[command])) - without_default
        )
        bare = run_capture(capsys, [command])
        assert bare[0] == 0 and bare[2] == ""
        assert run_capture(capsys, [command, *flags]) == bare


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["bell-test", "--v-points", "7"],
            ["g2-scan", "--points", "9"],
            ["mc-bell", "--trials", "500", "--num-seeds", "4"],
            ["path-check", "--grid-points", "10"],
        ],
    )
    def test_identical_invocations_are_byte_identical(self, argv, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            assert run(argv + ["-o", str(path)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_output_file_uses_lf_endings(self, tmp_path):
        path = tmp_path / "out.csv"
        assert run(["bell-test", "--v-points", "3", "-o", str(path)]) == 0
        data = path.read_bytes()
        assert b"\r" not in data
        assert data.endswith(b"\n")

    def test_stdout_matches_file_output(self, capsys, tmp_path):
        path = tmp_path / "out.csv"
        assert run(["g2-scan", "--points", "5", "-o", str(path)]) == 0
        code, out, _ = run_capture(capsys, ["g2-scan", "--points", "5"])
        assert code == 0
        assert out == path.read_text()

    def test_parser_is_built_once_and_reused(self, capsys, tmp_path):
        assert build_parser() is build_parser()
        # The -o of one call must not carry over to the next parse.
        g2 = ["g2-scan", "--points", "3", "--visibility", "0.5", "-o", str(tmp_path / "g2.csv")]
        bell = ["bell-test", "--v-grid", "0.5,1"]
        alone = {}
        for argv in (g2, bell):
            build_parser.cache_clear()
            alone[argv[0]] = run_capture(capsys, argv)
        g2_bytes = (tmp_path / "g2.csv").read_bytes()
        for order in ((g2, bell), (bell, g2)):
            build_parser.cache_clear()
            assert {argv[0]: run_capture(capsys, argv) for argv in order} == alone
            assert (tmp_path / "g2.csv").read_bytes() == g2_bytes


_EXTREMES = [0.0, -1.0, 1e-300, -1e-300, 5e-324, 1e300, 1e308, -1e308,
             math.nan, math.inf, -math.inf, HALF_PI, -HALF_PI]
_FUZZ_FLOATS = (st.sampled_from(_EXTREMES) | st.floats(0.0, 1.0) | st.floats(-10.0, 10.0)
                | st.floats())
_FUZZ_VALUES = {
    "kd": _FUZZ_FLOATS, "e0": _FUZZ_FLOATS, "visibility": _FUZZ_FLOATS,
    "eta": _FUZZ_FLOATS, "phi_start": _FUZZ_FLOATS, "phi_stop": _FUZZ_FLOATS,
    "points": st.integers(-1, 50), "xi_start": _FUZZ_FLOATS,
    "xi_stop": _FUZZ_FLOATS, "xi_ref": _FUZZ_FLOATS,
    "v_grid": st.lists(_FUZZ_FLOATS, min_size=1, max_size=5).map(tuple),
    "v_start": _FUZZ_FLOATS, "v_stop": _FUZZ_FLOATS, "v_points": st.integers(-1, 50),
    "trials": st.integers(-1, 2**63 - 1), "num_seeds": st.integers(-1, 3),
    "seed_start": st.integers(-2, 2**64 + 1), "grid_points": st.integers(-1, 50),
}


#: Option texts that are not well-formed numbers, or only loosely so
#: (non-ASCII digits parse); each is passed verbatim.
_MALFORMED = st.sampled_from(["1e", "", "0x10", " ", ",", "1,,2", "\u0661\u0662", "\u0663.\u0665"])

#: An output file name inside the run's temporary directory.
_OUTPUT_NAMES = st.sampled_from(["out.csv", "a\0b.csv"])


def _text(value):
    if isinstance(value, str):
        return value
    return ",".join(map(repr, value)) if isinstance(value, tuple) else repr(value)


@st.composite
def cli_cases(draw):
    """A command, values for some of its options, and which go in the config file.

    A value is a number or a malformed text; ``output``, if chosen, is a file
    name and always goes in the config file.
    """
    command = draw(st.sampled_from(sorted(_subparsers())))
    keys = [option.replace("-", "_") for option in _long_options(_subparsers()[command])]
    chosen = draw(st.lists(st.sampled_from(keys), unique=True))
    options = {
        key: draw(_OUTPUT_NAMES if key == "output" else _FUZZ_VALUES[key] | _MALFORMED)
        for key in chosen
    }
    in_config = draw(st.sets(st.sampled_from(chosen))) if chosen else set()
    return command, options, in_config | ({"output"} & options.keys())


def run_case(command, options, in_config):
    """Exit code, output and stderr of the CLI, each option as a flag or a config key.

    An ``output`` file is created in a temporary directory; on exit 0 stdout
    must then be empty, and the file's text is returned as the output.
    """
    argv = [command]
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        texts = {key: _text(value) for key, value in options.items()}
        if "output" in texts:
            texts["output"] = str(Path(tmp) / texts["output"])
        if in_config:
            config = Path(tmp) / "run.cfg"
            config.write_text("".join(f"{key} = {texts[key]}\n" for key in in_config),
                              encoding="utf-8")
            argv += ["--config", str(config)]
        argv += [f"--{key.replace('_', '-')}={text}"
                 for key, text in texts.items() if key not in in_config]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(argv)
        output = out.getvalue()
        if code == 0 and "output" in texts:
            assert output == ""
            output = Path(texts["output"]).read_text()
    # outside the test runner a warning is printed to stderr
    err.writelines(f"{w.category.__name__}: {w.message}\n" for w in caught)
    return code, output, err.getvalue()


class TestFuzz:
    @settings(max_examples=400, deadline=None)
    @given(case=cli_cases())
    @example(case=("g2-scan", {"e0": 1e100, "points": 3}, set()))
    @example(case=("path-check", {"e0": 1e100, "grid_points": 3}, {"e0"}))
    @example(case=("g2-scan", {"kd": 1e308, "xi_start": HALF_PI, "xi_stop": HALF_PI,
                               "xi_ref": -HALF_PI, "points": 2}, {"xi_ref"}))
    @example(case=("path-check", {"kd": 1e308, "grid_points": 3}, set()))
    @example(case=("mc-bell", {"eta": 1e-300, "trials": 10, "num_seeds": 1}, set()))
    @example(case=("mc-bell", {"eta": 1e-170, "trials": 1000}, {"trials"}))
    @example(case=("path-check", {"output": "a\0b.csv", "grid_points": 3}, {"output"}))
    @example(case=("bell-test", {"output": "a\0b.csv", "v_grid": "1,,0.5"}, {"output"}))
    @example(case=("g2-scan", {"output": "out.csv", "points": "\u0661\u0662"},
                   {"output", "points"}))
    @example(case=("g2-scan", {"kd": "1e", "e0": " "}, {"e0"}))
    @example(case=("bell-test", {"v_grid": ",", "v_points": "0x10"}, {"v_grid"}))
    def test_any_options_give_a_documented_exit(self, case):
        code, out, err = run_case(*case)
        assert code in (0, 2, 3, 4), err
        assert "Traceback" not in err
        if code == 0:
            assert err == ""
            for (row, name), value in output_numbers(out).items():
                # an exact estimate with zero standard error is +-inf sigma by design
                assert math.isfinite(value) or name == "sigma_violation", (row, name, value)


def test_import_leaves_numpy_random_unloaded():
    # Every command pays for what `import pathent.cli` loads; numpy.random
    # (~10 ms) and the binomial port are imported only when mc-bell draws.
    code = ("import sys, numpy; before = set(sys.modules); import pathent, pathent.cli; "
            "print(sorted(m for m in set(sys.modules) - before "
            "if m.startswith('numpy.random') or m == 'pathent._binomial'))")
    env = {**os.environ, "PYTHONPATH": str(Path(pathent.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True, timeout=60)
    assert result.stdout == "[]\n"


@pytest.mark.parametrize("argv, loaded", [
    ([], "False"),
    (["path-check", "--grid-points", "10"], "False"),
    (["g2-scan", "--points", "300"], "True"),
])
def test_float_renderer_loads_only_for_long_outputs(tmp_path, argv, loaded):
    # An import, or a run whose blocks all fall below the renderer's row
    # cutoff, does not load the renderer module (pathent._g17).
    code = ("import sys, pathent.cli; argv = sys.argv[1:]; "
            "argv and pathent.cli.run(argv); print('pathent._g17' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(Path(pathent.__file__).parents[1])}
    output = ["-o", str(tmp_path / "out.csv")] if argv else []
    result = subprocess.run([sys.executable, "-c", code, *argv, *output], env=env,
                            capture_output=True, text=True, check=True, timeout=60)
    assert result.stdout == f"{loaded}\n"


def test_output_memory_stays_below_output_size(tmp_path):
    # Rows are formatted and written in blocks, so the traced peak (the
    # grid's arrays plus one block of text) is below the file's size.
    path = tmp_path / "out.csv"
    tracemalloc.start()
    try:
        assert run(["g2-scan", "--points", "200000", "-o", str(path)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size


def path_check_peak(grid_points):
    """Traced peak memory of one path-check run, after an untraced one."""
    argv = ["path-check", "--grid-points", str(grid_points)]
    assert run(argv) == 0
    tracemalloc.start()
    try:
        assert run(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_path_check_memory_is_flat_in_grid_points():
    # path-check evaluates its grid in passes of about cli._PATH_CHECK_PAIRS
    # detector pairs, so a grid 7.5 times as wide (56 times the pairs) needs
    # about as much memory.
    assert path_check_peak(1500) <= 1.5 * path_check_peak(200)


def test_path_check_pass_keeps_few_full_size_arrays():
    # A pass of 66 rows of the 120 x 120 grid writes each complex product
    # and each squared modulus into one array: 0.45 MB traced, against
    # 0.95 MB for one pass of the whole grid through temporaries.
    assert path_check_peak(120) < 0.6e6
