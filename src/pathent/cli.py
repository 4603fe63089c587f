"""Command-line front end for the two-emitter correlation pipelines.

Commands
--------
g2-scan     second-order fringe and coincidence probability over a grid of
            phase differences (or detector angles with --xi-start/--xi-stop)
bell-test   normalized CH74 margin at the Bell angles over a visibility grid
mc-bell     seeded Monte Carlo estimates of the CH74 margin at the Bell angles
path-check  consistency of the quantum-path model against the operator
            algebra, plus the Schmidt rank of the post-selected state

A flat ``key = value`` config file can pre-set any option of the active
command, keyed by its long flag name, each key at most once; explicit flags
win over the file. A ``#`` that starts a line or follows whitespace starts a
comment, so ``output = run#1.csv`` keeps its ``#`` and ``points = 3  # three``
sets 3. A flag's value may be negative in any float notation
(``--phi-start -1e-3``, ``--v-start -inf``). Results are written as CSV
with LF line endings to --output, or to stdout, formatted and written in
blocks of 4096 rows, so the text is never held whole. A column's kind sets
its field: a float64 array prints 17 significant digits (``%.17g``), which
parse back to the exact computed value, a uint64 array integers (seeds), a
bool array ``true`` or ``false`` (flags), and a ``str`` is a constant field.
Exact vectorised kernels (``_g17``) render a block; one of fewer than 256
rows, and a float outside the kernel's range, use Python's ``%``.
Diagnostics go to stderr; exit status is 0 on success, 2 for usage errors,
3 for invalid configuration (including an unreadable config file and a grid
too large to allocate), 4 when the output cannot be written.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import math
import re
import sys
from dataclasses import make_dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .bell import bell_angle_settings, ch_statistic
from .correlations import Efficiency, Visibility, g2_at_phase, joint_probability_at_phase
from .geometry import DetectorSetting, EmitterPair, HALF_PI, phase_at, phase_difference
from .montecarlo import McConfig, estimate_ch
from .pathmodel import final_amplitude, postselected_state, schmidt_rank
from .quantum_core import FieldParams, two_photon_amplitude

TWO_PI = 2.0 * math.pi


class _BadValue(argparse.ArgumentTypeError, ValueError):
    """A malformed option value: argparse shows its message for a flag (exit 2),
    and a config-file value is a ValueError like any other (exit 3)."""


def _parse_float_list(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise _BadValue(f"bad float list {text!r}: {exc}") from None
    if not values:
        raise _BadValue(f"empty value list {text!r}")
    return values


#: Every option, keyed by its long flag with underscores: (converter, default,
#: help). The converter reads both the flag and the config-file value.
_OPTIONS: dict[str, tuple[Callable[[str], object], object, str]] = {
    "output": (str, None, "output file (default: stdout)"),
    "kd": (float, TWO_PI, "emitter separation times wavenumber"),
    "e0": (float, 1.0, "field amplitude"),
    "visibility": (float, 1.0, "fringe visibility in [0, 1]"),
    "eta": (float, 1.0, "detection efficiency in (0, 1]"),
    "phi_start": (float, 0.0, "first phase difference"),
    "phi_stop": (float, TWO_PI, "last phase difference"),
    "points": (int, 100, "number of grid points"),
    "xi_start": (float, None, "first detector angle (angle mode)"),
    "xi_stop": (float, None, "last detector angle (angle mode)"),
    "xi_ref": (float, 0.0, "fixed reference detector angle"),
    "v_grid": (_parse_float_list, None, "comma-separated visibilities"),
    "v_start": (float, 0.0, "first visibility"),
    "v_stop": (float, 1.0, "last visibility"),
    "v_points": (int, 101, "number of visibilities"),
    "trials": (int, 1_000_000, "trials per setting pair"),
    "num_seeds": (int, 20, "number of seeds"),
    "seed_start": (int, 0, "first seed"),
    "grid_points": (int, 100, "detector angles per axis"),
}

RunConfig = make_dataclass(
    "RunConfig",
    [("command", str)] + [(key, object, default) for key, (_, default, _) in _OPTIONS.items()],
    namespace={"__module__": __name__, "__doc__": "Merged options for one command invocation."},
)


#: A comment: a ``#`` that starts the line or follows whitespace, to the end.
_COMMENT = re.compile(r"(?:^|\s)#.*")


def _read_config_file(path: str) -> dict[str, str]:
    try:
        lines = Path(path).read_text(encoding="utf-8-sig").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read config file {path!r}: {exc}") from None
    entries: dict[str, str] = {}
    key_lines: dict[str, int] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = _COMMENT.sub("", raw).strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip().replace("-", "_")
        if key in key_lines:
            raise ValueError(
                f"{path}:{lineno}: config key {key!r} already set on line {key_lines[key]}"
            )
        key_lines[key] = lineno
        entries[key] = value.strip()
    return entries


def _build_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults, config file, and flags (flags win) into a RunConfig."""
    command = args.command
    _, _, keys = _COMMANDS[command]
    options: dict[str, object] = {}

    if args.config is not None:
        for key, raw_value in _read_config_file(args.config).items():
            if key not in keys:
                raise ValueError(f"unknown config key {key!r} for command {command!r}")
            try:
                options[key] = _OPTIONS[key][0](raw_value)
            except ValueError as exc:
                raise ValueError(f"bad value for {key!r}: {exc}") from None

    for key in keys:
        flag_value = getattr(args, key)
        if flag_value is not None:
            options[key] = flag_value
    return RunConfig(command=command, **options)


def _linspace(start: float, stop: float, count: int, axis: str, what: str) -> np.ndarray:
    """``count`` evenly spaced values from ``start`` to ``stop``.

    ``axis`` and ``what`` name the options (``axis``_start, ``axis``_stop and
    the count) in error messages.
    """
    if count < 1:
        raise ValueError(f"{what} must be >= 1, got {count}")
    if not math.isfinite(stop - start):  # also catches a non-finite end
        raise ValueError(
            f"{axis}_start and {axis}_stop must be finite with a finite difference, "
            f"got {start!r} and {stop!r}"
        )
    return np.linspace(start, stop, count)


#: A runner's result: the header line and the columns of the rows, each a
#: float64, uint64 or bool array (all of one length) or a constant ``str``.
_Table = tuple[str, Sequence]


def _run_g2_scan(cfg: RunConfig) -> _Table:
    params = FieldParams(e0=cfg.e0)
    vis = Visibility(v=cfg.visibility)
    eff = Efficiency(eta=cfg.eta)
    geometry = EmitterPair(kd=cfg.kd)
    det_ref = DetectorSetting(xi=cfg.xi_ref)

    if cfg.xi_start is not None or cfg.xi_stop is not None:
        if cfg.xi_start is None or cfg.xi_stop is None:
            raise ValueError("angle mode needs both xi_start and xi_stop")
        xi = _linspace(cfg.xi_start, cfg.xi_stop, cfg.points, "xi", "points")
        det = DetectorSetting(xi=xi)
        delta = phase_difference(geometry, det_ref, det)
    else:
        delta = _linspace(cfg.phi_start, cfg.phi_stop, cfg.points, "phi", "points")
    g2 = g2_at_phase(delta, params, vis)
    joint = joint_probability_at_phase(delta, vis, eff)
    return "delta_phi,g2,joint_probability\n", (delta, g2, joint)


def _run_bell_test(cfg: RunConfig) -> _Table:
    eff = Efficiency(eta=cfg.eta)
    if cfg.v_grid is not None:
        v = np.array(cfg.v_grid)
    else:
        v = _linspace(cfg.v_start, cfg.v_stop, cfg.v_points, "v", "v_points")
    vis = Visibility(v=v)
    result = ch_statistic(bell_angle_settings(vis, eff))
    return ("v,statistic,lower_margin,violated\n",
            (v, result.statistic, result.lower_margin, result.violated))


def _run_mc_bell(cfg: RunConfig) -> _Table:
    vis = Visibility(v=cfg.visibility)
    eff = Efficiency(eta=cfg.eta)
    if cfg.num_seeds < 1:
        raise ValueError(f"num_seeds must be >= 1, got {cfg.num_seeds}")
    mc = McConfig(seed=range(cfg.seed_start, cfg.seed_start + cfg.num_seeds),
                  trials_per_setting=cfg.trials, settings=bell_angle_settings(vis, eff))
    estimate = estimate_ch(mc)
    return ("seed,trials,statistic_hat,std_error,sigma_violation\n",
            (mc.seeds, str(estimate.trials), estimate.statistic_hat, estimate.std_error,
             estimate.sigma_violation))


#: Detector pairs evaluated per pass of path-check: each pass takes
#: max(1, _PATH_CHECK_PAIRS // grid_points) rows of the grid, so its working
#: memory is a few arrays of about this many values whatever --grid-points is.
#: In perfbench's loop on the 120 x 120 grid (seeds 131, 207, 311 and 523),
#: one pass of 2**14 pairs faulted in 197 pages per warm invocation, as glibc
#: handed its freed arrays back to the OS, and took 1.52-1.56 ms. Two passes
#: of 8000, 10000, 11000 or 12288 pairs faulted in none and took 1.39-1.56 ms;
#: 2**13 pairs (none) took 1.52-1.67 ms, 2**12 (none, four passes) 1.61-1.67.
_PATH_CHECK_PAIRS = 8000


def _squared_modulus(z: np.ndarray) -> np.ndarray:
    # |z|**2 as Python computes it: hypot, then libm pow. np.abs and
    # x*x each differ from that in the last bit for some inputs.
    h = np.hypot(z.real, z.imag)
    return np.float_power(h, 2.0, out=h)


def _run_path_check(cfg: RunConfig) -> _Table:
    geometry = EmitterPair(kd=cfg.kd)
    params = FieldParams(e0=cfg.e0)
    if cfg.grid_points < 2:
        raise ValueError(f"grid_points must be >= 2, got {cfg.grid_points}")
    # The scale e0^4/4 links the path model's squared vacuum amplitude to
    # the operator-algebra signal; the deviation is reported in its units.
    scale = 0.25 * params.e0**4
    if scale < sys.float_info.min:
        raise ValueError(
            f"e0 must be >= about 1.73e-77 so that e0**4/4 is a normal float, got {cfg.e0!r}"
        )

    angles = np.linspace(-HALF_PI, HALF_PI, cfg.grid_points)
    det2 = DetectorSetting(xi=angles)
    phi2 = phase_at(geometry, det2)
    rows = max(1, _PATH_CHECK_PAIRS // angles.size)
    deviation = 0.0
    for first in range(0, angles.size, rows):
        det1 = DetectorSetting(xi=angles[first:first + rows, np.newaxis])
        operator_g2 = _squared_modulus(two_photon_amplitude(geometry, det1, det2, params))
        path_g2 = _squared_modulus(final_amplitude(phase_at(geometry, det1), phi2))
        path_g2 *= scale
        path_g2 -= operator_g2
        deviation = max(deviation, float(np.abs(path_g2, out=path_g2).max()))

    rank = schmidt_rank(postselected_state())
    return "max_abs_deviation=%.17g schmidt_rank=%d\n" % (deviation / scale, rank), ()


#: Every command: (help, runner, its option keys in --help order). A config
#: file may set exactly the keys of the command's own flags.
_COMMANDS: dict[str, tuple[str, Callable[[RunConfig], _Table], tuple[str, ...]]] = {
    "g2-scan": ("scan the coincidence fringe", _run_g2_scan, (
        "output", "kd", "e0", "visibility", "eta", "phi_start", "phi_stop", "points",
        "xi_start", "xi_stop", "xi_ref")),
    "bell-test": ("CH74 margin over a visibility grid", _run_bell_test, (
        "output", "eta", "v_grid", "v_start", "v_stop", "v_points")),
    "mc-bell": ("Monte Carlo CH74 estimates", _run_mc_bell, (
        "output", "visibility", "eta", "trials", "num_seeds", "seed_start")),
    "path-check": ("path model vs operator algebra", _run_path_check, (
        "output", "kd", "e0", "grid_points")),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathent",
        description="Two-emitter photon correlations, CH74 Bell tests and the quantum-path model.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for command, (command_help, _, keys) in _COMMANDS.items():
        p = sub.add_parser(command, help=command_help)
        p.add_argument("--config", help="flat key = value config file")
        for key in keys:
            converter, _, option_help = _OPTIONS[key]
            flag = "--" + key.replace("_", "-")
            flags = ("-o", flag) if key == "output" else (flag,)
            p.add_argument(*flags, type=converter, help=option_help)
    return parser


#: Rows per formatting pass and write; bounds the output text held in memory.
#: A block has a fixed cost of about 0.13 ms (``_g17.format_rows`` on three
#: float columns: 0.16 ms at 64 rows, 1.7 ms at 4096), so larger blocks are
#: faster until glibc hands each block's freed buffers back to the OS and the
#: next block faults them in again. Per warm 55 000-row fringe scan, blocks of
#: 3072, 5461, 6144 and 16384 rows took 2200-4200 page faults and 5-11 ms of
#: system time, 8192 rows 780 faults, and 2048 and 4096 rows 190-720 faults.
_BLOCK_ROWS = 4096
#: Blocks of fewer rows go to ``%`` alone: for them the vectorised
#: renderer's fixed cost per block outweighs its gain.
_KERNEL_ROWS = 256
#: The ``%`` conversion of each array kind, for the blocks ``%`` renders.
_PERCENT = {np.dtype(np.float64): "%.17g", np.dtype(np.uint64): "%d", np.dtype(bool): "%s"}


def _write_output(destination: str | None, head: str, columns: Sequence) -> None:
    """Write ``head``, then the CSV rows of ``columns`` (``_Table``), block by block."""
    arrays = [column for column in columns if not isinstance(column, str)]
    row_format = ",".join(column.replace("%", "%%") if isinstance(column, str)
                          else _PERCENT[column.dtype] for column in columns) + "\n"
    sink = (contextlib.nullcontext(sys.stdout) if destination is None
            else open(destination, "w", newline="\n"))
    with sink as handle:
        handle.write(head)
        for first in range(0, len(arrays[0]) if arrays else 0, _BLOCK_ROWS):
            block = [column if isinstance(column, str) else column[first:first + _BLOCK_ROWS]
                     for column in columns]
            rows = min(_BLOCK_ROWS, len(arrays[0]) - first)
            if rows >= _KERNEL_ROWS:
                from . import _g17  # imported by the first long block only

                text = _g17.format_rows(block)
            else:
                # Python numbers from tolist(): uint64 seeds may exceed int64.
                fields = zip(*(np.where(part, "true", "false").tolist() if part.dtype == bool
                               else part.tolist() for part in block if not isinstance(part, str)))
                text = row_format * rows % tuple(itertools.chain.from_iterable(fields))
            handle.write(text)


#: A value that starts like a negative number. argparse on Python 3.10 to 3.13.0
#: reads only ``-1`` or ``-1.5`` as one, so ``--phi-start -1e-3`` or
#: ``--v-start -inf`` would fail as a flag with no value.
_NEGATIVE_VALUE = re.compile(r"-(?:\.?\d|inf|nan)", re.IGNORECASE)


def _attach_negative_values(argv: Sequence[str]) -> list[str]:
    """Join each flag and a negative value after it into one ``--flag=value``."""
    joined: list[str] = []
    for token in argv:
        flag = joined[-1] if joined else ""
        if (flag.startswith("-") and "=" not in flag and flag not in ("-h", "--help")
                and _NEGATIVE_VALUE.match(token)):
            joined[-1] = f"{flag}={token}"
        else:
            joined.append(token)
    return joined


def run(argv: Sequence[str] | None = None) -> int:
    """Parse arguments, execute the selected command, write its output."""
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 0 if code is None else 2

    # Every rejected value, from the config file or a domain object, is a
    # ValueError; a MemoryError is a grid too large to allocate.
    try:
        config = _build_config(args)
        _, runner, _ = _COMMANDS[config.command]
        table = runner(config)
    except (ValueError, MemoryError) as exc:
        print(f"pathent: invalid configuration: {exc}", file=sys.stderr)
        return 3

    try:
        _write_output(config.output, *table)
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        print(f"pathent: cannot write output: {exc}", file=sys.stderr)
        return 4
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
