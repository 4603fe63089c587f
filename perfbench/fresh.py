"""Fresh-interpreter probe for the benchmark's set-up time and peak memory.

    python3 perfbench/fresh.py SRC_DIR ['ARGV_JSON']

Times ``import pathent.cli`` plus ``build_parser()`` from inside this new
interpreter, corrected for the host's momentary speed as in speed.py, then
runs each CLI argument list of ARGV_JSON (a JSON list of lists) once, and
prints one JSON line with the set-up time, the exit codes, any text the CLI
wrote, and the process's peak resident set size.
"""

import sys

sys.path.insert(0, sys.argv[1])

import time  # noqa: E402

import speed  # noqa: E402

before = speed.slowdown()
t0 = time.perf_counter()
import pathent.cli  # noqa: E402

pathent.cli.build_parser()
setup_s = time.perf_counter() - t0
# On an idle core of the reference host (see speed.py).
setup_s /= (before + speed.slowdown()) / 2

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

codes = []
text = io.StringIO()
with contextlib.redirect_stdout(text), contextlib.redirect_stderr(text):
    for argv in json.loads(sys.argv[2]) if len(sys.argv) > 2 else []:
        codes.append(pathent.cli.run(argv))
print(json.dumps({
    "setup_s": setup_s,
    "codes": codes,
    "text": text.getvalue(),
    "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
}))
