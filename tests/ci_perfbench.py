"""Run short benchmark passes and check that each one's outputs are correct.

    python tests/ci_perfbench.py [SECONDS]

Run from the repository root.  The script runs ``perfbench/run.py`` for one
short run (SECONDS, default 1) of each workload at seed 0, of ``sweep`` and
``long_meo`` at the held-out seed 11 (which no golden pins: ``check.py``
recomputes its results, and every rerun must repeat them byte for byte), and
one traced run (``--trace 1``) of each workload at seed 0.  A traced run
rebinds the layer functions that ``casim.cli`` imports, so a change to those
imports breaks it.  The script exits nonzero naming each run whose last
output line does not report ``"correct": true``.  pytest does not collect this
file, and it is not part of the tier-1 tests.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = [(workload, seed, 0) for workload, seed in (
    ("sweep", 0), ("long_meo", 0), ("cli_run_trace", 0), ("sweep", 11), ("long_meo", 11))]
RUNS += [(workload, 0, 1) for workload in ("sweep", "long_meo", "cli_run_trace")]


def correct(workload: str, seed: int, trace: int, seconds: str) -> bool:
    """Whether one run's last output line reports ``"correct": true``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", seconds, "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    try:
        return proc.returncode == 0 and json.loads(lines[-1])["correct"] is True
    except (IndexError, ValueError, KeyError, TypeError):
        return False


def main(argv: list[str]) -> int:
    seconds = argv[0] if argv else "1"
    failed = [f"{workload} seed {seed} trace {trace}" for workload, seed, trace in RUNS
              if not correct(workload, seed, trace, seconds)]
    for run in failed:
        print(f"not correct: {run}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
