"""Page faults per warm invocation of a perfbench workload.

    python tests/fault_probe.py --workload path-check --seed 131 [--seconds 3]

Imports ``perfbench/run.py`` as it is and runs its ``Invoker`` and
``timed_loop`` in this process, the benchmark's own closed loop with its
warm-up invocation and the reference kernel between invocations. It counts
the minor page faults (``ru_minflt``) inside each invocation's calls of
``pathent.cli.run`` and prints their median over the warm invocations, with
the quartiles, the sample count and the median wall time. A warm invocation
that faults pages in again is one whose freed buffers the allocator gave
back to the OS after the invocation before.

The file sits outside tier-1 collection: its name matches no test pattern.
"""

from __future__ import annotations

import argparse
import resource
import statistics
import sys
import tempfile
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import run as perfbench  # noqa: E402  (caps BLAS threads before numpy loads)


def minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


class FaultCountingInvoker(perfbench.Invoker):
    """An ``Invoker`` that records the faults of each invocation's CLI calls."""

    def __init__(self, *args) -> None:
        super().__init__(*args, run=self.counted_run)
        self.faults: list[int] = []
        self.pending = 0

    def counted_run(self, argv: list[str]) -> int:
        before = minflt()
        try:
            return perfbench.cli_run(argv)
        finally:
            self.pending += minflt() - before

    def invoke(self) -> float:
        self.pending = 0
        wall = super().invoke()
        self.faults.append(self.pending)
        return wall


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(perfbench.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=3.0)
    parser.add_argument("--size", choices=sorted(perfbench.SIZES), default="full")
    args = parser.parse_args(argv)

    perfbench.import_pathent()
    with tempfile.TemporaryDirectory() as tmp:
        invoker = FaultCountingInvoker(perfbench.WORKLOADS[args.workload],
                                       perfbench.params_for(args.seed),
                                       perfbench.SIZES[args.size], Path(tmp))
        walls, _ = perfbench.timed_loop(invoker, args.seconds)
    warm = invoker.faults[1:]  # the first invocation is the untimed warm-up
    q1, _, q3 = statistics.quantiles(warm, n=4)
    print(f"{args.workload} seed {args.seed}: median {statistics.median(warm):g} faults "
          f"per warm invocation (quartiles {q1:g}-{q3:g}, {len(warm)} invocations, "
          f"warm-up {invoker.faults[0]}); median wall {statistics.median(walls) * 1e3:.3f} ms; "
          f"{invoker.failed} of {invoker.attempted} invocations failed")
    return 1 if invoker.failed else 0


if __name__ == "__main__":
    sys.exit(main())
