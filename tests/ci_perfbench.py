"""Run short benchmark passes and check that each one's outputs are correct.

    python tests/ci_perfbench.py [SECONDS]

Run from the repository root.  The script runs ``perfbench/run.py`` for one
short run (SECONDS, default 1) of each workload at seed 0, of ``sweep`` and
``long_meo`` at the held-out seed 11 (which no golden pins: ``check.py``
recomputes its results, and every rerun must repeat them byte for byte), and
one traced run (``--trace 1``) of each workload at seed 0.  A traced run
rebinds the layer functions that ``casim.cli`` imports, so a change to those
imports breaks it.  The end-to-end metrics of the untraced seed-0 runs
(``peak_rss_mb`` among them) and the per-layer metrics of the traced runs
are printed, and appended as two markdown tables to the file that
``GITHUB_STEP_SUMMARY`` names, if it is set; they are for reading only.
The script exits nonzero naming each run whose last output line does not
report ``"correct": true``.
pytest does not collect this file, and it is not part of the tier-1 tests.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = [(workload, seed, 0) for workload, seed in (
    ("sweep", 0), ("long_meo", 0), ("cli_run_trace", 0), ("sweep", 11), ("long_meo", 11))]
RUNS += [(workload, 0, 1) for workload in ("sweep", "long_meo", "cli_run_trace")]


def last_line(workload: str, seed: int, trace: int, seconds: str) -> dict | None:
    """One run's last output line as a JSON object, or None if the run exited
    nonzero or its last line is not one."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", seconds, "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None
    return result if proc.returncode == 0 and isinstance(result, dict) else None


def metric_table(runs: dict[str, dict]) -> str:
    """The metrics of each run, one column per workload, as a markdown table."""
    rows: dict[str, str] = {}  # metric -> unit, in order of first appearance
    for metrics in runs.values():
        for name, metric in metrics.items():
            rows.setdefault(name, metric["unit"])
    lines = ["| metric | unit | " + " | ".join(runs) + " |",
             "|---|---|" + "---:|" * len(runs)]
    for name, unit in rows.items():
        cells = (f"{m[name]['value']:.4g}" if name in m else "" for m in runs.values())
        lines.append(f"| {name} | {unit} | " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


def main(argv: list[str]) -> int:
    seconds = argv[0] if argv else "1"
    failed, untraced, traced = [], {}, {}
    for workload, seed, trace in RUNS:
        result = last_line(workload, seed, trace, seconds)
        if result is None or result.get("correct") is not True:
            failed.append(f"{workload} seed {seed} trace {trace}")
        elif seed == 0:
            (traced if trace else untraced)[workload] = result.get("metrics", {})
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    for title, runs in ((f"End-to-end metrics, untraced runs, seed 0 ({seconds} s)", untraced),
                        (f"Per-layer metrics, traced runs, seed 0 ({seconds} s)", traced)):
        if runs:
            table = metric_table(runs)
            print(f"{title}:\n{table}", end="")
            if summary:
                with open(summary, "a") as fh:
                    fh.write(f"\n### {title}\n\n{table}")
    for run in failed:
        print(f"not correct: {run}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
