"""A mutation sweep over ``src/casim``: each mutant seeds one fault, and the
test suite should fail on it.

pytest does not collect this script, and CI does not run it.  From the
repository root::

    python tests/mutants.py [--out mutants.json] [--only TEXT]

It builds two kinds of mutant:

- *generated*: each ``if COND: raise ...`` in ``src/casim``, found with
  ``ast``, with COND replaced by ``False``, so the refusal never fires;
- *named*: the fixed list ``NAMED`` below, each a source snippet that must
  occur exactly once in its module, and the text that replaces it.

Each mutant is written into a copy of ``src/`` in a temp directory.  Then
``python -m pytest -x -q -p no:cacheprovider`` runs the whole suite from the
repository root, with ``PYTHONPATH`` set to that copy; at most two mutants
run at a time.  The unmutated copy runs first and must pass.  A nonzero exit
kills a mutant.  A timeout or a collection error is reported apart, not as
a kill.  A survivor that ``NAMED`` marks equivalent is reported with its
argument.

Under a mutant, the subprocesses that put this checkout's own ``src`` first
on their ``PYTHONPATH`` run unmutated code: the demos in
``tests/test_demos.py``, ``tests/ci_outputs.py`` in
``tests/test_output_digests.py`` and ``casim_process`` in
``tests/test_config_cli.py``.  Only the tests that import ``casim`` in
process can kill a mutant.

The JSON summary lists the mutants killed (each with the first test that
failed), survived, equivalent, timed out and failed to collect.  The exit
code is 0 iff every mutant was killed or is equivalent.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import suppress
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "casim"
JOBS = 2
TIMEOUT_S = 600  # one suite run; tier-1 takes ~40 s on a 2-CPU host


@dataclass(frozen=True)
class Mutant:
    id: str
    module: str  # file name in src/casim
    source: bytes  # the module's mutated text
    equivalent: str | None = None  # why no test can kill it


# (id, module, snippet that occurs once, replacement, equivalence argument)
NAMED = [
    ("config: a line without '=' skipped, not refused", "config.py",
     "        if not sep:\n"
     "            if key.strip():\n"
     "                raise ConfigError(f\"line {lineno}: expected key=value, got {raw!r}\")\n"
     "            continue\n",
     "        if not sep:\n"
     "            continue\n", None),
    ("cli: _atomic_write catches Exception for BaseException", "cli.py",
     "    except BaseException:\n        tmp.unlink(missing_ok=True)\n",
     "    except Exception:\n        tmp.unlink(missing_ok=True)\n", None),
    ("metrics: ordering_report reads scenario.burst_sizes", "metrics.py",
     "    burst_sizes = merged.burst_sizes\n",
     "    burst_sizes = scenario.burst_sizes\n", None),
    ("emulator: write_trace_csv clamps the release index to the last burst", "emulator.py",
     "np.take(release, burst_end.searchsorted(seq, side=\"right\"), out=scheduled)",
     "np.take(release, burst_end.searchsorted(seq, side=\"right\"), out=scheduled, mode=\"clip\")",
     "a seq is below N, the last burst end, so searchsorted over the burst ends never "
     "returns the burst count, and no index is clipped"),
]


def _line_starts(text: bytes) -> list[int]:
    starts = [0]
    for line in text.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    return starts


def guard_mutants(path: Path) -> list[Mutant]:
    """Each ``if COND: raise`` of the module at ``path`` with COND as
    ``False``.  ``ast`` gives column offsets in UTF-8 bytes, so the edit is
    made on the bytes."""
    text = path.read_bytes()
    starts = _line_starts(text)
    guards = [node.test for node in ast.walk(ast.parse(text))
              if isinstance(node, ast.If) and len(node.body) == 1
              and isinstance(node.body[0], ast.Raise)]
    mutants = []
    for cond in sorted(guards, key=lambda cond: (cond.lineno, cond.col_offset)):
        begin = starts[cond.lineno - 1] + cond.col_offset
        end = starts[cond.end_lineno - 1] + cond.end_col_offset
        shown = " ".join(text[begin:end].decode().split())
        shown = shown if len(shown) <= 60 else shown[:57] + "..."
        mutated = text[:begin] + b"False" + text[end:]
        ast.parse(mutated)
        mutants.append(Mutant(f"guard {path.name}:{cond.lineno} if {shown}: raise",
                              path.name, mutated))
    return mutants


def named_mutants() -> list[Mutant]:
    mutants = []
    for name, module, old, new, equivalent in NAMED:
        text = (PACKAGE / module).read_text(encoding="utf-8")
        if text.count(old) != 1:
            raise SystemExit(f"named mutant {name!r}: its snippet occurs "
                             f"{text.count(old)} times in {module}, not once")
        mutants.append(Mutant(name, module, text.replace(old, new).encode(), equivalent))
    return mutants


def _kill(proc: subprocess.Popen) -> None:
    """End a suite run: pytest and the processes it started."""
    with suppress(ProcessLookupError):
        os.killpg(proc.pid, signal.SIGKILL)


def run_suite(mutant: Mutant | None, live: set) -> dict:
    """The suite's verdict on ``mutant`` (None: the unmutated code).  The
    run is in ``live`` while under way; each set operation is atomic under
    the GIL."""
    started = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="casim-mutant-") as tmp:
        copy = Path(tmp) / "src"
        shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
        if mutant is not None:
            (copy / "casim" / mutant.module).write_bytes(mutant.source)
        env = {**os.environ, "PYTHONPATH": str(copy), "PYTHONDONTWRITEBYTECODE": "1"}
        proc = subprocess.Popen(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, start_new_session=True)
        live.add(proc)
        try:
            out, _ = proc.communicate(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            _kill(proc)
            proc.communicate()
            return {"verdict": "timeout", "seconds": round(time.monotonic() - started, 1)}
        except BaseException:
            _kill(proc)
            raise
        finally:
            live.discard(proc)
    seconds = round(time.monotonic() - started, 1)
    if proc.returncode == 2 and "during collection" in out:
        verdict = "collection_error"
    elif proc.returncode:
        verdict = "killed"
    else:
        verdict = "survived"
    failed = re.search(r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$", out, re.M)
    return {"verdict": verdict, "seconds": seconds, "by": failed[1] if failed else None,
            "tail": out.strip().splitlines()[-1:]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default="mutants.json", help="JSON summary path")
    parser.add_argument("--only", help="run only the mutants whose id contains this text")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, signal.default_int_handler)  # a kill ends the suites too

    mutants = [m for path in sorted(PACKAGE.glob("*.py")) for m in guard_mutants(path)]
    mutants += named_mutants()
    if args.only:
        mutants = [m for m in mutants if args.only in m.id]
    started = time.monotonic()
    live: set[subprocess.Popen] = set()
    baseline = run_suite(None, live)
    if baseline["verdict"] != "survived":
        print(f"the unmutated suite does not pass: {baseline}", file=sys.stderr)
        return 1

    def one(mutant: Mutant) -> tuple[Mutant, dict]:
        result = run_suite(mutant, live)
        if result["verdict"] == "survived" and mutant.equivalent:
            result["verdict"] = "equivalent"
        print(f"{result['verdict']:>16} {result['seconds']:6.1f} s  {mutant.id}", flush=True)
        return mutant, result

    summary = {"mutants": len(mutants), "killed": [], "survived": [], "equivalent": [],
               "timeout": [], "collection_error": []}
    with ThreadPoolExecutor(JOBS) as pool:
        try:
            results = list(pool.map(one, mutants))
        except BaseException:  # interrupted: end the runs under way, then stop
            pool.shutdown(wait=False, cancel_futures=True)
            for proc in list(live):
                _kill(proc)
            raise
        for mutant, result in results:
            verdict = result["verdict"]
            if verdict == "killed":
                summary["killed"].append({"id": mutant.id, "by": result["by"]})
            elif verdict == "equivalent":
                summary["equivalent"].append({"id": mutant.id, "argument": mutant.equivalent})
            elif verdict == "collection_error":
                summary[verdict].append({"id": mutant.id, "tail": result["tail"]})
            else:
                summary[verdict].append(mutant.id)
    summary["counts"] = {key: len(summary[key]) for key in
                         ("killed", "survived", "equivalent", "timeout", "collection_error")}
    summary["seconds"] = round(time.monotonic() - started, 1)
    Path(args.out).write_text(json.dumps(summary, indent=2) + "\n")
    print(json.dumps(summary["counts"]), f"in {summary['seconds']} s; summary in {args.out}")
    return 1 if summary["survived"] or summary["timeout"] or summary["collection_error"] else 0


if __name__ == "__main__":
    sys.exit(main())
