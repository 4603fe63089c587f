"""Benchmark of the pathent CLI: end-to-end metrics, or a per-layer trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; pathent is imported from ./src.
The load is a closed loop with one client: ``pathent.cli.run(argv)`` is
called in-process, one invocation at a time, with output written by ``-o`` to
a temporary file, after one warm-up invocation. Every invocation's exit code,
stdout/stderr text and output files are checked (see workloads.py).

--trace 0 reports the end-to-end metrics: median work rate and wall time,
the tail wall time, set-up time and peak RSS measured in fresh interpreters
(fresh.py), and the share of invocations that succeeded; the times are
corrected for the host's momentary speed (speed.py). --trace 1 first
times untraced invocations, then installs span wrappers (spans.py) and runs
one traced invocation, reporting calls and self time per layer. The spans
are written to perfbench/out/. The last line of stdout is the JSON result.
"""

from __future__ import annotations

import os

# Cap BLAS/OpenMP threads before numpy loads, here and in every child.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable, Sequence  # noqa: E402

import numpy as np  # noqa: E402

import speed  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import SIZES, WORKLOADS, CheckFailed, params_for  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 7
RSS_PROBES = 3
TAIL_BEYOND = 10
# Enough timed invocations that the tail percentile is defined.
MIN_SAMPLES = TAIL_BEYOND + 1
PROBE_TIMEOUT_S = 120
MAX_REASONS = 5


class BenchError(Exception):
    """The benchmark itself cannot run (not a failed invocation)."""


def cli_run(argv: Sequence[str]) -> int:
    # Looked up on every call, so a traced run goes through the wrapper.
    return sys.modules["pathent.cli"].run(argv)


class Invoker:
    """Runs one workload invocation at a time and checks what it produced.

    A failed invocation is counted, never raised: it exited non-zero, raised,
    wrote any text to stdout or stderr, or produced output that fails the
    workload's check or differs from the first output that passed it.
    """

    def __init__(self, workload, params, sizes, tmp: Path, run: Callable = cli_run):
        self.workload, self.params, self.sizes = workload, params, sizes
        self.tmp = tmp
        self.run = run
        self.reference: list[bytes] | None = None
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self.output_bytes = 0

    def argvs(self, tag: str) -> tuple[list[list[str]], list[Path]]:
        argvs = self.workload.argvs(self.params, self.sizes)
        paths = [self.tmp / f"{tag}{i}.out" for i in range(len(argvs))]
        for path in paths:
            path.unlink(missing_ok=True)
        return [argv + ["-o", str(path)] for argv, path in zip(argvs, paths)], paths

    def invoke(self) -> float:
        """One in-process invocation; returns its wall time in seconds."""
        argvs, paths = self.argvs("run")
        text = io.StringIO()
        codes: list[int] = []
        error = None
        with contextlib.redirect_stdout(text), contextlib.redirect_stderr(text):
            t0 = time.perf_counter()
            try:
                for argv in argvs:
                    codes.append(self.run(argv))
            except Exception:
                error = traceback.format_exc(limit=-3)
            wall = time.perf_counter() - t0
        self.record(codes, text.getvalue(), paths, error)
        return wall

    def record(self, codes: list[int], text: str, paths: list[Path], error: str | None = None) -> None:
        self.attempted += 1
        reason = error or self._verdict(codes, text, paths)
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < MAX_REASONS:
                self.reasons.append(reason)

    def _verdict(self, codes: list[int], text: str, paths: list[Path]) -> str | None:
        if any(code != 0 for code in codes):
            return f"exit codes {codes}"
        if text:
            return f"wrote text: {text[:200]!r}"
        try:
            outputs = [path.read_bytes() for path in paths]
        except OSError as exc:
            return f"missing output: {exc}"
        self.output_bytes = sum(len(out) for out in outputs)
        if outputs == self.reference:
            return None
        try:
            self.workload.check(outputs, self.params, self.sizes)
        except (CheckFailed, ValueError, IndexError) as exc:
            return f"output check failed: {exc}"
        if self.reference is not None:
            return "output differs from the first checked output of this seed"
        self.reference = outputs
        return None


def timed_loop(invoker: Invoker, seconds: float) -> tuple[list[float], list[float]]:
    """Closed loop: the next invocation starts when the previous one is checked.

    Returns each timed invocation's wall time and the host slowdown around
    it, the mean of the reference kernel's slowdown just before and after.
    """
    invoker.invoke()  # warm-up, not timed
    walls: list[float] = []
    slowdowns: list[float] = []
    before = speed.slowdown()
    deadline = time.perf_counter() + seconds
    while len(walls) < MIN_SAMPLES or time.perf_counter() < deadline:
        walls.append(invoker.invoke())
        after = speed.slowdown()
        slowdowns.append((before + after) / 2)
        before = after
    return walls, slowdowns


def fresh_probe(argvs: list[list[str]] | None = None) -> dict:
    """Run fresh.py in a new interpreter and return its JSON report."""
    cmd = [sys.executable, str(HERE / "fresh.py"), str(SRC)]
    if argvs is not None:
        cmd.append(json.dumps(argvs))
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise BenchError(f"fresh interpreter failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def tail(walls: list[float]) -> tuple[float, float]:
    """Highest percentile with TAIL_BEYOND samples beyond it: (value, percentile)."""
    ordered = sorted(walls)
    n = len(ordered)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(invoker: Invoker, seconds: float) -> tuple[dict, str]:
    walls, slowdowns = timed_loop(invoker, seconds)
    # Times on an idle core of the reference host (see speed.py).
    corrected = [wall / slow for wall, slow in zip(walls, slowdowns)]
    setup = [fresh_probe()["setup_s"] for _ in range(SETUP_PROBES)]
    rss_kb = []
    for _ in range(RSS_PROBES):
        argvs, paths = invoker.argvs("fresh")
        report = fresh_probe(argvs)
        invoker.record(report["codes"], report["text"], paths)
        rss_kb.append(report["peak_rss_kb"])
    work = invoker.workload.work(invoker.sizes)
    tail_s, tail_pct = tail(corrected)
    metrics = {
        "work_per_s": (statistics.median(work / wall for wall in corrected), "1/s"),
        "wall_s": (statistics.median(corrected), "s"),
        "wall_s_tail": (tail_s, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(rss_kb) / 1024.0, "MB"),
        "success_rate": ((invoker.attempted - invoker.failed) / invoker.attempted, "ratio"),
    }
    note = (
        f"{len(walls)} timed invocations of {work} {invoker.workload.work_unit} each; "
        f"wall_s_tail is p{tail_pct:.1f} of {len(walls)} samples; "
        f"uncorrected median wall {statistics.median(walls):.6g} s at median host "
        f"slowdown {statistics.median(slowdowns):.4g}; "
        f"setup_s median of {SETUP_PROBES}, peak_rss_mb median of {RSS_PROBES} fresh interpreters"
    )
    return metrics, note


def traced(invoker: Invoker, seconds: float, spans_path: Path) -> tuple[dict, str]:
    untraced_wall = statistics.median(timed_loop(invoker, seconds)[0])
    tracer = Tracer()
    tracer.install("pathent")
    wall = invoker.invoke()
    metrics: dict[str, tuple[float, str]] = {}
    for layer, totals in tracer.layer_totals().items():
        calls, self_s = totals["calls"], totals["self_s"]
        metrics[f"{layer}.calls"] = (calls, "count")
        metrics[f"{layer}.self_s"] = (self_s, "s")
        metrics[f"{layer}.us_per_call"] = (1e6 * self_s / calls if calls else 0.0, "us")
    metrics.update({
        "cli.build_parser_s": (tracer.span_seconds("cli.build_parser"), "s"),
        "cli.output_bytes": (invoker.output_bytes, "bytes"),
        "montecarlo.trials": (tracer.mc_trials, "count"),
        "montecarlo.seeds": (len(tracer.mc_seeds), "count"),
        "trace.wall_s": (wall, "s"),
        "trace.overhead_s": (wall - untraced_wall, "s"),
    })
    tracer.write(spans_path)
    note = f"one traced invocation, {len(tracer.start)} spans written to {spans_path.relative_to(ROOT)}"
    return metrics, note


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args: argparse.Namespace) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "git_sha": git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "threads_cap": os.environ["OMP_NUM_THREADS"],
        "load": "closed loop, one client, in-process",
    }


def parse_args(argv: Sequence[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="input sizes; 'small' is for the benchmark's self-tests")
    return parser.parse_args(argv)


def import_pathent() -> None:
    if not (SRC / "pathent" / "cli.py").is_file():
        raise BenchError(f"no pathent sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import pathent.cli

    if Path(pathent.cli.__file__).resolve().parent.parent != SRC:
        raise BenchError(f"pathent was imported from {pathent.cli.__file__}, not {SRC}")


def main(argv: Sequence[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        import_pathent()
        env = environment(args)
        workload = WORKLOADS[args.workload]
        params = params_for(args.seed)
        OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            invoker = Invoker(workload, params, SIZES[args.size], Path(tmp))
            if args.trace:
                spans_path = OUT / f"spans-{args.workload}.npz"
                metrics, note = traced(invoker, args.seconds, spans_path)
            else:
                metrics, note = end_to_end(invoker, args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print("env " + json.dumps(env))
    print("params " + json.dumps(vars(params)))
    print(note)
    for reason in invoker.reasons:
        print(f"failure: {reason}")
    print(json.dumps({
        "correct": invoker.failed == 0,
        "attempted": invoker.attempted,
        "failed": invoker.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
