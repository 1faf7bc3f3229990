"""Run one workload in this (fresh, single-threaded) process.

Started by ``run.py``; writes its measurements as one JSON object to
``--result``.  Library workloads call casim's public functions directly; the
CLI workload runs ``python -m casim.cli`` as a subprocess or, in a traced run,
calls ``casim.cli.main`` in-process with the layer functions it imports
wrapped in spans.

Ops are evaluated one after another (a closed loop, one client) in passes
over the workload's inputs until ``--seconds`` have gone by.  Between ops, the
fixed kernel of ``hostspeed.py`` is timed every quarter second; end-to-end
op times are scaled by it to a reference host speed.  The outputs of
the first pass are checked in full (``check.py``) and, on the default seed,
against the committed goldens; every later op must reproduce the first
pass's outputs exactly.  Each op is timed on its own; its checks run after
its timer stops.

Layer return values are only passed on: results are read through
``ordering_report(...).as_dict()`` and ``write_trace_csv``.

Regenerate the goldens (after a deliberate change to simulated results) with
``PYTHONPATH=src python3 perfbench/worker.py --workload W --seed 0 --seconds 0
--trace 0 --result /dev/null --write-goldens`` for each workload.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import check
import hostspeed
import inputs

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"
OUT_DIR = ROOT / ".perfbench_out"
CLI_CONFIG = ROOT / "src" / "casim" / "configs" / "meo_geo.cfg"
DEFAULT_SEED = 0
CLI_TIMEOUT_S = 60
MAX_PROBLEMS = 10

# Names casim.cli imports and calls; a traced CLI run rebinds them there.
CLI_LAYERS = (
    ("config.parse", "parse_scenario_file"),
    ("scheduler.build_plan", "build_plan"),
    ("emulator.run", "run"),
    ("receiver.merge", "merge"),
    ("metrics.ordering_report", "ordering_report"),
    ("emulator.write_trace_csv", "write_trace_csv"),
)
PIPELINE = ("config.parse", "scheduler.build_plan", "emulator.run",
            "receiver.merge", "metrics.ordering_report")


class Tracer:
    """In-memory spans: (name, start_ns, end_ns, parent index, phase)."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.phase = "side"

    def wrap(self, name, fn):
        """``fn`` recording a span per call."""
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.phase)
        return traced

    def dump(self, path: Path) -> None:
        keys = ("name", "start_ns", "end_ns", "parent", "phase")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


class Results:
    """Ops attempted and failed, with the first few problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, op: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            room = max(0, MAX_PROBLEMS - len(self.problems))
            self.problems.extend(f"{op}: {p}" for p in problems[:room])


def _golden(workload: str, seed: int) -> list | None:
    path = GOLDEN_DIR / f"{workload}.json"
    if seed != DEFAULT_SEED or not path.is_file():
        return None
    return json.loads(path.read_text())["digests"]


def _write_golden(workload: str, digests: list) -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    payload = {"seed": DEFAULT_SEED, "digests": digests}
    (GOLDEN_DIR / f"{workload}.json").write_text(json.dumps(payload, indent=0) + "\n")


# ---------------------------------------------------------------------------
#  Library workloads: sweep, long_meo
# ---------------------------------------------------------------------------

class LibraryWorkload:
    def __init__(self, name: str, seed: int, work: Path, tracer: Tracer | None):
        from casim import config, emulator, metrics, receiver, scheduler
        self.plain = {
            "config.parse": config.parse_scenario_text,
            "scheduler.build_plan": scheduler.build_plan,
            "emulator.run": emulator.run,
            "receiver.merge": receiver.merge,
            "metrics.ordering_report": metrics.ordering_report,
            "emulator.write_trace_csv": emulator.write_trace_csv,
        }
        self.traced = tracer and {layer: tracer.wrap(layer, fn) for layer, fn in self.plain.items()}
        self.scenarios = inputs.GENERATORS[name](seed)
        self.ops_per_pass = len(self.scenarios)
        self.name, self.work = name, work
        self.golden = _golden(name, seed)
        self.digests: list[str | None] = [None] * len(self.scenarios)

    def size(self) -> tuple[int, int]:
        """Scenarios and PDUs in one pass."""
        return len(self.scenarios), sum(sum(s.burst_sizes) for s in self.scenarios)

    def run_pass(self, first: bool, traced: bool, results: Results, tick) -> list[int]:
        fns = self.traced if traced else self.plain
        times = []
        for i, sc in enumerate(self.scenarios):
            tick()
            start = time.perf_counter_ns()
            try:
                scenario = fns["config.parse"](sc.text)
                plan = fns["scheduler.build_plan"](scenario)
                traces = fns["emulator.run"](scenario, plan)
                report = fns["metrics.ordering_report"](fns["receiver.merge"](traces), scenario).as_dict()
            except Exception as exc:  # a failed op is counted, not fatal
                results.record(f"scenario {i}", [f"{type(exc).__name__}: {exc}"])
                continue
            times.append(time.perf_counter_ns() - start)
            results.record(f"scenario {i}", self._check(i, first, report, traces))
        return times

    def _check(self, i: int, first: bool, report: dict, traces) -> list[str]:
        digest = check.digest(report)
        if not first:
            return [] if digest == self.digests[i] else ["report differs from the first pass"]
        self.digests[i] = digest
        path = self.work / "trace.csv"
        write = (self.traced or self.plain)["emulator.write_trace_csv"]
        write(traces, path)
        problems = check.check_trace(path, report, self.scenarios[i].burst_sizes,
                                     inputs.PDU_SIZE_BYTES)
        if self.golden is not None and self.golden[i] != digest:
            problems.append("simulated results differ from the golden")
        return problems


# ---------------------------------------------------------------------------
#  CLI workload: cli_run_trace
# ---------------------------------------------------------------------------

def cli_env(seed: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), CASIM_SEED=str(seed))
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def run_cli(argv: list[str], seed: int) -> tuple[int, str]:
    """Run ``python -m casim.cli`` as a subprocess; return (exit code, stderr)."""
    proc = subprocess.run([sys.executable, "-m", "casim.cli", *argv], cwd=ROOT,
                          env=cli_env(seed), stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=CLI_TIMEOUT_S)
    return proc.returncode, proc.stderr.strip()[-300:]


def _deterministic_files(out: Path) -> list[Path]:
    return sorted(p for p in out.iterdir() if p.name != "manifest.json")


class CliWorkload:
    """`casim run --config meo_geo.cfg --trace`, one invocation per pass."""

    def __init__(self, name: str, seed: int, work: Path, tracer: Tracer | None):
        self.name, self.seed, self.work = name, seed, work
        self.ops_per_pass = 1
        self.first = work / "first"
        self.golden = _golden(name, seed)
        self.digests: list[str] = []
        self.cli = None
        if tracer is not None:
            os.environ.update(cli_env(seed))
            import casim.cli as cli
            self.cli = cli
            self.plain = {attr: getattr(cli, attr) for _, attr in CLI_LAYERS}
            self.wrapped = {attr: tracer.wrap(layer, fn)
                            for (layer, attr), fn in zip(CLI_LAYERS, self.plain.values())}
            self.traced_main = tracer.wrap("cli.main", cli.main)

    def size(self) -> tuple[int, int]:
        """Scenarios and PDUs in one pass."""
        return 1, sum(check.bursts_of(CLI_CONFIG.read_text()))

    def argv(self, out: Path) -> list[str]:
        return ["run", "--config", str(CLI_CONFIG), "--out", str(out), "--trace"]

    def invoke(self, argv: list[str], traced: bool) -> tuple[int, str]:
        if self.cli is None:
            return run_cli(argv, self.seed)
        main = self.cli.main
        if traced:
            main = self.traced_main
            for attr, fn in self.wrapped.items():
                setattr(self.cli, attr, fn)
        try:
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                return main(argv), ""
        finally:
            for attr, fn in self.plain.items():
                setattr(self.cli, attr, fn)

    def run_pass(self, first: bool, traced: bool, results: Results, tick) -> list[int]:
        out = self.first if first else self.work / "latest"
        shutil.rmtree(out, ignore_errors=True)
        tick()
        start = time.perf_counter_ns()
        try:
            code, stderr = self.invoke(self.argv(out), traced)
        except Exception as exc:  # a failed op is counted, not fatal
            results.record("cli", [f"{type(exc).__name__}: {exc}"])
            return []
        elapsed = time.perf_counter_ns() - start
        if code != 0:
            results.record("cli", [f"exit code {code}: {stderr}"])
            return []
        results.record("cli", self._check_first(out) if first else self._compare(out))
        return [elapsed]

    def _compare(self, out: Path) -> list[str]:
        first, latest = _deterministic_files(self.first), _deterministic_files(out)
        if [p.name for p in first] != [p.name for p in latest]:
            return ["output files differ from the first run"]
        return [f"{b.name} differs from the first run with the same seed"
                for a, b in zip(first, latest) if a.read_bytes() != b.read_bytes()]

    def _check_first(self, out: Path) -> list[str]:
        text = CLI_CONFIG.read_text()
        report = json.loads((out / "report.json").read_text())["metrics"]
        problems = check.check_trace(out / "trace.csv", report, check.bursts_of(text),
                                     int(check.value_of(text, "pdu_size_bytes")))
        self.digests = [check.digest(report)]
        if self.golden is not None and self.golden != self.digests:
            problems.append("simulated results differ from the golden")
        return problems


# ---------------------------------------------------------------------------
#  Measurement
# ---------------------------------------------------------------------------

def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def op_metrics(op_ns: list, ops_per_pass: int, pdus: int) -> dict:
    """End-to-end metrics from the op times of whole passes, in order."""
    passes = [op_ns[i:i + ops_per_pass] for i in range(0, len(op_ns), ops_per_pass)]
    op_ms = [t / 1e6 for t in op_ns]
    return {
        "pdus_per_s": (statistics.median(pdus / (sum(p) / 1e9) for p in passes), "1/s"),
        "op_ms.p50": (statistics.median(op_ms), "ms"),
        "op_ms.p99": (percentile(op_ms, 99), "ms"),
    }


def cli_probe(workload, tracer: Tracer, seed: int) -> None:
    """Traced in-process `casim run --trace` of the bundled meo_geo config.

    Gives cli.self_ms on the library workloads, whose passes never call
    ``casim.cli.main``; its spans count towards no other metric.
    """
    probe = CliWorkload("cli_run_trace", seed, workload.work / "probe", tracer)
    tracer.phase = "probe"
    for _ in range(3):
        code, _ = probe.invoke(probe.argv(probe.first), traced=True)
        if code != 0:
            raise RuntimeError(f"probe exit code {code}")
    tracer.phase = "side"


def layer_metrics(tracer: Tracer, traced_ns: list[int], untraced_ns: list[int],
                  scenarios: int, pdus: int) -> dict:
    """Per-layer metrics from the spans.  ``traced_ns`` are the traced pass
    times; ``scenarios`` and ``pdus`` are the size of one pass."""
    children = defaultdict(int)
    for name, start, end, parent, _ in tracer.spans:
        if parent >= 0:
            children[parent] += end - start
    # Keyed by (layer, phase): self time and calls.
    self_ns, calls = defaultdict(int), defaultdict(int)
    for i, (name, start, end, _, phase) in enumerate(tracer.spans):
        self_ns[name, phase] += end - start - children[i]
        calls[name, phase] += 1
    pass_ns = sum(traced_ns)
    traced_scenarios, traced_pdus = scenarios * len(traced_ns), pdus * len(traced_ns)

    def share(layer: str) -> tuple[float, str]:
        return self_ns[layer, "pass"] / pass_ns, "ratio"

    m = {}
    for layer in PIPELINE:
        if layer in ("config.parse", "scheduler.build_plan"):
            m[f"{layer}.us_per_scenario"] = (self_ns[layer, "pass"] / traced_scenarios / 1e3, "us")
        else:
            m[f"{layer}.ns_per_pdu"] = (self_ns[layer, "pass"] / traced_pdus, "ns")
        m[f"{layer}.share"] = share(layer)
    # write_trace_csv: from the traced passes where they call it, else from
    # the output check of pass 0, which writes one trace per scenario.  Either
    # way check.py has held each trace to one row per PDU.
    csv_phase, csv_rows = ("pass", traced_pdus) if calls["emulator.write_trace_csv", "pass"] \
        else ("side", pdus)
    m["emulator.write_trace_csv.ns_per_row"] = (self_ns["emulator.write_trace_csv", csv_phase] / csv_rows, "ns")
    m["emulator.write_trace_csv.share"] = share("emulator.write_trace_csv")
    main_phase = "pass" if calls["cli.main", "pass"] else "probe"
    m["cli.self_ms"] = (self_ns["cli.main", main_phase] / calls["cli.main", main_phase] / 1e6, "ms")
    m["cli.self.share"] = share("cli.main")
    m["scenarios"] = (traced_scenarios, "count")
    m["pdus"] = (traced_pdus, "count")
    m["trace_csv.rows"] = (csv_rows, "count")
    covered = sum(ns for (_, phase), ns in self_ns.items() if phase == "pass")
    m["bench.other_share"] = (1 - covered / pass_ns, "ratio")
    m["trace.overhead"] = (statistics.median(traced_ns) / statistics.median(untraced_ns) - 1, "ratio")
    return m


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "long_meo", "cli_run_trace"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--result", required=True, help="file the JSON result is written to")
    parser.add_argument("--write-goldens", action="store_true")
    args = parser.parse_args()

    OUT_DIR.mkdir(exist_ok=True)
    work = OUT_DIR / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    try:
        tracer = Tracer() if args.trace else None
        kind = LibraryWorkload if args.workload in inputs.GENERATORS else CliWorkload
        workload = kind(args.workload, args.seed, work, tracer)
        if args.write_goldens:
            workload.golden = None
        results = Results()
        scenarios, pdus = workload.size()
        speed = hostspeed.HostSpeed()
        op_ns: list[int] = []  # one sample per op of the untraced passes
        op_starts: list[int] = []
        pass_ns = {True: [], False: []}
        passes = 0
        start = time.perf_counter()
        while passes < (3 if args.trace else 1) or time.perf_counter() - start < args.seconds:
            # After pass 0, a traced run alternates traced and untraced
            # passes, so that the tracing overhead is measured in the same
            # process.  Its pass 0 gives no timings: the checks between its
            # ops would skew the untraced side of that comparison.
            traced = bool(args.trace) and passes % 2 == 1
            if tracer:
                tracer.phase = "pass" if traced else "side"
            ticks = len(speed.starts)
            times = workload.run_pass(passes == 0, traced, results, speed.tick)
            if tracer:
                tracer.phase = "side"
            if passes == 0 and args.write_goldens:
                _write_golden(args.workload, workload.digests)
            passes += 1
            if len(times) < workload.ops_per_pass or (tracer and passes == 1):
                continue  # a pass with an op that raised or exited non-zero gives no timings
            pass_ns[traced].append(sum(times))
            if not traced:
                op_ns += times
                op_starts += speed.starts[ticks:]
        speed.measure()

        out = {"attempted": results.attempted, "failed": results.failed,
               "problems": results.problems, "passes": passes, "ops_timed": len(op_ns)}
        if tracer and pass_ns[True] and pass_ns[False]:
            if kind is LibraryWorkload:
                cli_probe(workload, tracer, args.seed)
            out["layers"] = layer_metrics(tracer, pass_ns[True], pass_ns[False], scenarios, pdus)
            tracer.dump(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
        elif op_ns:
            scaled = [speed.scale(s, t) for s, t in zip(op_starts, op_ns)]
            out["end_to_end"] = op_metrics(scaled, workload.ops_per_pass, pdus)
            out["unscaled"] = {"kernel_ms": statistics.median(speed.ns) / 1e6,
                               **{name: value for name, (value, _) in
                                  op_metrics(op_ns, workload.ops_per_pass, pdus).items()}}
        Path(args.result).write_text(json.dumps(out))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
