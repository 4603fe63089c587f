"""Self-tests of the benchmark, at the small size.

    python3 -m pytest perfbench/selftest.py

They run the benchmark by its BENCHMARK.json command, a subprocess per run,
for the printed metrics and call counts, and in-process to inject bad
invocations.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
from workloads import SIZES, WORKLOADS, params_for  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench_result(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> dict:
    proc = subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", "0.2", "--trace", str(trace), "--size", "small"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_is_printed_with_its_unit(workload):
    assert workload in {w["name"] for w in SPEC["workloads"]}
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result = bench_result(workload, 1, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        want = {metric["name"]: metric["unit"] for metric in SPEC[section]}
        assert {name: m["unit"] for name, m in result["metrics"].items()} == want


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_call_counts_repeat_across_runs_and_seeds(workload):
    counts = [
        {name: m["value"] for name, m in bench_result(workload, seed, 1)["metrics"].items()
         if name.endswith(".calls")}
        for seed in (1, 1, 2)
    ]
    assert counts[0] == counts[1] == counts[2]
    assert any(counts[0].values())


def corrupt(argv):
    code = bench.cli_run(argv)
    with open(argv[argv.index("-o") + 1], "a") as out:
        out.write("0,0,0\n")
    return code


def crash(argv):
    raise RuntimeError("injected")


def chatter(argv):
    print("unexpected", file=sys.stderr)
    return bench.cli_run(argv)


@pytest.mark.parametrize("run", [corrupt, crash, chatter])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_bad_invocation_is_counted_not_raised(workload, run, tmp_path):
    bench.import_pathent()
    invoker = bench.Invoker(WORKLOADS[workload], params_for(1), SIZES["small"], tmp_path, run=run)
    walls, _ = bench.timed_loop(invoker, 0.05)
    assert invoker.attempted == len(walls) + 1
    assert invoker.failed == invoker.attempted
    assert invoker.reasons


def test_good_invocations_pass_and_repeat_byte_for_byte(tmp_path):
    bench.import_pathent()
    invoker = bench.Invoker(WORKLOADS["mc-many-seeds"], params_for(3), SIZES["small"], tmp_path)
    bench.timed_loop(invoker, 0.05)
    assert invoker.failed == 0 and invoker.reference is not None


def test_output_that_changes_between_invocations_is_a_failure(tmp_path):
    bench.import_pathent()
    calls = []

    def drifting(argv):
        # Every second invocation rewrites a still-valid deviation.
        code = bench.cli_run(argv)
        calls.append(argv)
        if len(calls) % 2 == 0:
            out = Path(argv[argv.index("-o") + 1])
            out.write_text(re.sub(r"deviation=\S+", "deviation=1e-13", out.read_text()))
        return code

    invoker = bench.Invoker(WORKLOADS["path-check"], params_for(1), SIZES["small"], tmp_path, run=drifting)
    bench.timed_loop(invoker, 0.05)
    assert invoker.failed == invoker.attempted // 2
    assert invoker.reasons[0] == "output differs from the first checked output of this seed"


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [*SPEC["command"], "--workload", "mc-long", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
