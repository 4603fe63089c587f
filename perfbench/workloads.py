"""Workload table for the pathent benchmark: inputs, work units and output checks.

The seed picks only physical parameters inside fixed ranges (visibility,
kd, the first Monte Carlo seed and the detector-angle range); sizes are fixed
per workload, so every seed does the same amount of work.

Output checks compare against analytic or statistical references computed
here with numpy, never against golden bytes or pathent itself, so a change in
how the program draws or formats numbers is still checked on its meaning.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Fixed physical constants of every workload; only the ranges below vary.
E0 = 1.25
ETA = 0.9
BELL_V_START = 0.0
ROW_TOL = 1e-12
PATH_TOL = 1e-12
MC_SIGMAS = 6.0
# Signed phase differences of the four CH74 terms at the Bell angles.
BELL_DELTAS = (math.pi / 4, 3 * math.pi / 4, -math.pi / 4, math.pi / 4)
VIOLATION_TOL = 1e-12


@dataclass(frozen=True)
class Params:
    """Physical parameters drawn from the benchmark seed."""

    visibility: float
    kd: float
    seed_start: int
    xi_start: float
    xi_stop: float
    xi_ref: float


def params_for(seed: int) -> Params:
    """Same seed, same parameters: V in [0.75, 1], kd in [pi, 4pi]."""
    rng = random.Random(seed)
    return Params(
        visibility=rng.uniform(0.75, 1.0),
        kd=rng.uniform(math.pi, 4 * math.pi),
        seed_start=rng.randrange(0, 10**9),
        xi_start=rng.uniform(-math.pi / 2, -math.pi / 4),
        xi_stop=rng.uniform(math.pi / 4, math.pi / 2),
        xi_ref=rng.uniform(-0.5, 0.5),
    )


# Sizes per workload. "full" is what the benchmark measures; "small" keeps
# the same commands at a size the self-tests can run in about a second.
SIZES = {
    "full": {
        "g2_points": 50_000,
        "bell_points": 5_000,
        "grid_points": 120,
        "long_seeds": 20,
        "long_trials": 1_000_000,
        "many_seeds": 3_000,
        "many_trials": 1_000,
    },
    "small": {
        "g2_points": 500,
        "bell_points": 50,
        "grid_points": 12,
        "long_seeds": 2,
        "long_trials": 20_000,
        "many_seeds": 30,
        "many_trials": 1_000,
    },
}


class CheckFailed(Exception):
    """An output does not match its reference."""


def _lines(text: bytes, header: str, rows: int) -> list[str]:
    lines = text.decode("ascii").split("\n")
    if lines[-1] != "":
        raise CheckFailed("output does not end with a newline")
    lines.pop()
    if lines[0] != header:
        raise CheckFailed(f"header {lines[0]!r} != {header!r}")
    if len(lines) - 1 != rows:
        raise CheckFailed(f"{len(lines) - 1} data rows, expected {rows}")
    return lines[1:]


def _numeric_table(text: bytes, header: str, rows: int) -> np.ndarray:
    body = _lines(text, header, rows)
    columns = header.count(",") + 1
    values = np.array(",".join(body).split(","), dtype=float)
    if values.size != rows * columns:
        raise CheckFailed("ragged CSV rows")
    return values.reshape(rows, columns)


def _near(name: str, got: np.ndarray, want: np.ndarray, tol: float) -> None:
    err = np.abs(got - want)
    if not np.all(err <= tol):
        worst = int(np.argmax(np.where(np.isnan(err), np.inf, err)))
        raise CheckFailed(f"{name} row {worst}: {got[worst]!r} vs {want[worst]!r}")


def check_g2_scan(text: bytes, p: Params, points: int) -> None:
    """g2 = e0^4/2 (1 + V cos D), P12 = eta^2/2 (1 + V cos D), D = kd(sin xi - sin xi_ref)."""
    table = _numeric_table(text, "delta_phi,g2,joint_probability", points)
    xi = np.linspace(p.xi_start, p.xi_stop, points)
    delta = p.kd * np.sin(xi) - p.kd * math.sin(p.xi_ref)
    fringe = 1.0 + p.visibility * np.cos(delta)
    _near("delta_phi", table[:, 0], delta, ROW_TOL)
    _near("g2", table[:, 1], 0.5 * E0**4 * fringe, ROW_TOL)
    _near("joint_probability", table[:, 2], 0.5 * ETA**2 * fringe, ROW_TOL)


def check_bell_test(text: bytes, p: Params, points: int) -> None:
    """statistic = v sqrt2 - 1, lower_margin = statistic + 1, violated iff > tol."""
    body = _lines(text, "v,statistic,lower_margin,violated", points)
    fields = [row.split(",") for row in body]
    if any(len(row) != 4 for row in fields):
        raise CheckFailed("ragged CSV rows")
    numbers = np.array([row[:3] for row in fields], dtype=float)
    flags = [row[3] for row in fields]
    v = np.linspace(BELL_V_START, p.visibility, points)
    _near("v", numbers[:, 0], v, ROW_TOL)
    _near("statistic", numbers[:, 1], v * math.sqrt(2.0) - 1.0, ROW_TOL)
    _near("lower_margin", numbers[:, 2], numbers[:, 1] + 1.0, ROW_TOL)
    want = ["true" if s > VIOLATION_TOL else "false" for s in numbers[:, 1]]
    if flags != want:
        raise CheckFailed("violated flags disagree with the statistic")


_PATH_LINE = re.compile(r"max_abs_deviation=(\S+) schmidt_rank=(\d+)\n")


def check_path_check(text: bytes) -> None:
    """Path model equals the operator algebra to 1e-12; the witness has rank 2."""
    match = _PATH_LINE.fullmatch(text.decode("ascii"))
    if match is None:
        raise CheckFailed(f"unexpected path-check output {text[:80]!r}")
    deviation = float(match.group(1))
    if not 0.0 <= deviation <= PATH_TOL:
        raise CheckFailed(f"max_abs_deviation {deviation!r} > {PATH_TOL}")
    if match.group(2) != "2":
        raise CheckFailed(f"schmidt_rank {match.group(2)} != 2")


def check_mc_bell(text: bytes, p: Params, seeds: int, trials: int) -> None:
    """Each seed's estimate lies within 6 standard errors of V sqrt2 - 1."""
    table = _numeric_table(
        text, "seed,trials,statistic_hat,std_error,sigma_violation", seeds
    )
    if not np.array_equal(table[:, 0], np.arange(p.seed_start, p.seed_start + seeds)):
        raise CheckFailed("seed column is not seed_start, seed_start + 1, ...")
    if not np.all(table[:, 1] == trials):
        raise CheckFailed(f"trials column is not {trials}")
    probs = np.array([0.5 * ETA**2 * (1.0 + p.visibility * math.cos(d)) for d in BELL_DELTAS])
    std_error = math.sqrt(float(np.sum(probs * (1.0 - probs))) / trials) / ETA**2
    target = p.visibility * math.sqrt(2.0) - 1.0
    _near("statistic_hat", table[:, 2], np.full(seeds, target), MC_SIGMAS * std_error)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: the CLI calls of one invocation and their checks."""

    name: str
    work_unit: str
    work: Callable[[dict], int]
    argvs: Callable[[Params, dict], list[list[str]]]
    check: Callable[[list[bytes], Params, dict], None]


def _g2_argv(p: Params, s: dict) -> list[str]:
    return [
        "g2-scan", "--kd", repr(p.kd), "--e0", repr(E0), "--visibility", repr(p.visibility),
        "--eta", repr(ETA), "--xi-start", repr(p.xi_start), "--xi-stop", repr(p.xi_stop),
        "--xi-ref", repr(p.xi_ref), "--points", str(s["g2_points"]),
    ]


def _bell_argv(p: Params, s: dict) -> list[str]:
    return [
        "bell-test", "--eta", repr(ETA), "--v-start", repr(BELL_V_START),
        "--v-stop", repr(p.visibility), "--v-points", str(s["bell_points"]),
    ]


def _mc_argv(p: Params, seeds: int, trials: int) -> list[str]:
    return [
        "mc-bell", "--visibility", repr(p.visibility), "--eta", repr(ETA),
        "--trials", str(trials), "--num-seeds", str(seeds), "--seed-start", str(p.seed_start),
    ]


def _check_fringe(outputs: list[bytes], p: Params, s: dict) -> None:
    check_g2_scan(outputs[0], p, s["g2_points"])
    check_bell_test(outputs[1], p, s["bell_points"])


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fringe-scan",
            work_unit="CSV data rows",
            work=lambda s: s["g2_points"] + s["bell_points"],
            argvs=lambda p, s: [_g2_argv(p, s), _bell_argv(p, s)],
            check=_check_fringe,
        ),
        Workload(
            name="path-check",
            work_unit="detector-angle pairs",
            work=lambda s: s["grid_points"] ** 2,
            argvs=lambda p, s: [[
                "path-check", "--kd", repr(p.kd), "--e0", repr(E0),
                "--grid-points", str(s["grid_points"]),
            ]],
            check=lambda outputs, p, s: check_path_check(outputs[0]),
        ),
        Workload(
            name="mc-long",
            work_unit="Bernoulli trials",
            work=lambda s: s["long_seeds"] * 4 * s["long_trials"],
            argvs=lambda p, s: [_mc_argv(p, s["long_seeds"], s["long_trials"])],
            check=lambda outputs, p, s: check_mc_bell(
                outputs[0], p, s["long_seeds"], s["long_trials"]
            ),
        ),
        Workload(
            name="mc-many-seeds",
            work_unit="Bernoulli trials",
            work=lambda s: s["many_seeds"] * 4 * s["many_trials"],
            argvs=lambda p, s: [_mc_argv(p, s["many_seeds"], s["many_trials"])],
            check=lambda outputs, p, s: check_mc_bell(
                outputs[0], p, s["many_seeds"], s["many_trials"]
            ),
        ),
    )
}
