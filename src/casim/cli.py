"""Command-line front end.

Subcommands:

    run     --config PATH --out DIR [--trace]   run one scenario, write reports
    suite   [--dir DIR] --out DIR               run every *.cfg in a directory;
                                                each X.cfg writes X.report.json
    plan    --alpha F | --config PATH           print the scheduling plan
    prefix  --config PATH                       print the multi-orbit prefix math

The exit codes, 0, 2 and 3, and what each covers are listed once, in the
README.  Every scenario is evaluated before ``--out`` is created, and the
outputs are written in order, each atomically (temp file + rename): a config
or invariant error leaves no outputs, a failed write only those before it.
Setting CASIM_SEED draws a random phase offset for orbits with nonzero
sinusoidal variation; runs stay deterministic for a fixed seed.

``casim`` and ``python -m casim.cli`` both start at ``entry``, which runs
``main`` and then ends the process with ``os._exit``, skipping interpreter
teardown (~20-30 ms, most of it numpy's).  What makes that safe:

- every output file is closed and renamed before ``main`` returns
  (``_atomic_write`` and the ``with`` blocks);
- ``main`` flushes stdout inside its error handling, so every byte printed
  is delivered or the failure is reported (exit 2); each command prints
  only after its last check, so an error exit leaves nothing unprinted;
  argparse's own help and usage writes raise too (``_Parser``), where
  argparse would drop an ``OSError`` and exit 0 having written nothing;
- an ``error:`` line that cannot be written is dropped and the exit code
  kept, as nothing is left to report the failure to; with no stderr, a
  usage error's usage line is dropped too, never moved to stdout;
- stderr is flushed before ``os._exit``, and an error on that flush is
  ignored, as nothing is left to report it to;
- handlers registered with ``atexit`` do not run; casim registers none;
- an exception that ``main`` does not handle propagates out of ``entry``
  and ends the process as Python ends it: traceback, teardown, exit 1.

``main`` itself returns 0, 2 or 3 and never exits, for in-process callers.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import sys
import time
from dataclasses import replace
from importlib.resources import files
from pathlib import Path

from .config import _reading, parse_fraction, parse_scenario_file
from .emulator import run, write_trace_csv
from .errors import CasimError, ConfigError
from .metrics import (
    OrderingReport,
    format_comparison,
    ordering_report,
    write_comparison_csv,
)
from .model import RunTrace, ScenarioConfig, _shown
from .receiver import merge
from .scheduler import SchedulingPlan, build_plan, generate_sequence, multi_orbit_prefix

__all__ = ["main", "entry", "bundled_scenario_dir"]

SEED_ENV_VAR = "CASIM_SEED"


def bundled_scenario_dir() -> Path:
    """Directory holding the packaged example scenario configs."""
    return Path(str(files("casim") / "configs"))


def _atomic_write(path: Path, writer) -> None:
    """Run a path-taking writer against a temp file, then rename into place.

    If the writer raises, the temp file is removed before the error
    propagates, so nothing is left behind.
    """
    tmp = path.with_name(path.name + ".tmp")
    try:
        writer(tmp)
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _apply_seed(scenario: ScenarioConfig, seed: str | None) -> ScenarioConfig:
    """Draw phase offsets for varying orbits when a seed is provided."""
    if not seed:
        return scenario
    rng = random.Random(seed)
    carriers = {}
    for name in ("carrier1", "carrier2"):
        carrier = getattr(scenario, name)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        if carrier.orbit.variation_amplitude_km > 0 and carrier.orbit.variation_phase_rad == 0.0:
            carrier = replace(carrier, orbit=replace(carrier.orbit, variation_phase_rad=phase))
        carriers[name] = carrier
    return replace(scenario, **carriers)


def _load(config_path: str) -> tuple[ScenarioConfig, str]:
    path = Path(config_path)
    with _reading(path):
        raw = path.read_bytes()
    scenario = parse_scenario_file(path, raw)
    scenario = _apply_seed(scenario, os.environ.get(SEED_ENV_VAR))
    return scenario, hashlib.sha256(raw).hexdigest()


def _execute(scenario: ScenarioConfig) -> tuple[SchedulingPlan, OrderingReport, RunTrace]:
    plan = build_plan(scenario)
    merged = merge(run(scenario, plan))
    return plan, ordering_report(merged, scenario), merged


def _report_json(scenario: ScenarioConfig, plan: SchedulingPlan, report: OrderingReport) -> str:
    payload = {
        "label": scenario.label,
        "scheduler": scenario.scheduler.value,
        "alpha_used": str(plan.alpha_used),
        "prefix_length": plan.prefix_length,
        "prefix_carrier": plan.prefix_carrier,
        "cycle": list(plan.cycle),
        "metrics": report.as_dict(),
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _write_outputs(out: str, files: dict, labeled: list[tuple[str, OrderingReport]]) -> None:
    """Create directory ``out`` and write ``files`` (name -> path-taking
    writer) into it, each atomically and in order; then print the comparison
    of the ``labeled`` reports."""
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, writer in files.items():
        _atomic_write(out_dir / name, writer)
    print(format_comparison(labeled))
    print(f"outputs written to {out_dir}")


def cmd_run(args) -> int:
    started = time.perf_counter()
    scenario, config_hash = _load(args.config)
    plan, report, merged = _execute(scenario)
    labeled = [(scenario.label, report)]
    report_text = _report_json(scenario, plan, report)
    files = {
        "report.json": lambda p: p.write_text(report_text),
        "comparison.csv": lambda p: write_comparison_csv(labeled, p),
    }
    if args.trace:
        files["trace.csv"] = lambda p: write_trace_csv(merged, p)
    outputs = list(files)

    def write_manifest(path: Path) -> None:
        # provenance of the run, not part of the deterministic outputs
        manifest = {
            "label": scenario.label,
            "config_sha256": config_hash,
            "outputs": outputs,
            "duration_s": time.perf_counter() - started,
        }
        path.write_text(json.dumps(manifest, indent=2) + "\n")

    files["manifest.json"] = write_manifest
    _write_outputs(args.out, files, labeled)
    return 0


def cmd_suite(args) -> int:
    config_dir = Path(args.dir) if args.dir else bundled_scenario_dir()
    config_paths = sorted(config_dir.glob("*.cfg"))
    if not config_paths:
        raise ConfigError(f"no *.cfg files in {config_dir}")

    labeled: list[tuple[str, OrderingReport]] = []
    files = {}
    for path in config_paths:
        scenario, _ = _load(str(path))
        plan, report, _merged = _execute(scenario)
        labeled.append((scenario.label, report))
        text = _report_json(scenario, plan, report)
        files[f"{path.stem}.report.json"] = lambda p, text=text: p.write_text(text)
    files["comparison.csv"] = lambda p: write_comparison_csv(labeled, p)
    _write_outputs(args.out, files, labeled)
    return 0


def cmd_plan(args) -> int:
    if args.alpha is not None:
        alpha = parse_fraction(args.alpha, "--alpha")
        plan = SchedulingPlan(generate_sequence(alpha))
        print(f"alpha: {_shown(alpha)} = {float(alpha):.6f}")
        if plan.alpha_used != alpha:
            print(f"alpha_used: {plan.alpha_used} = {float(plan.alpha_used):.6f}")
        print(f"cycle: [{','.join(str(c) for c in plan.cycle)}]")
        print("prefix: (carrier geometry required; pass --config)")
        return 0

    scenario, _ = _load(args.config)
    plan = build_plan(scenario)
    print(f"label: {scenario.label}")
    print(f"scheduler: {scenario.scheduler.value}")
    print(f"alpha: {_shown(scenario.alpha)}")  # exact where Python will print it
    print(f"alpha_used: {plan.alpha_used} = {float(plan.alpha_used):.6f}")
    print(f"cycle: [{','.join(str(c) for c in plan.cycle)}]")
    if plan.prefix_carrier is None:
        print("prefix: (empty)")
    else:
        carrier = plan.prefix_carrier
        orbit = (scenario.carrier1, scenario.carrier2)[carrier - 1].orbit
        print(f"prefix: {plan.prefix_length} x carrier {carrier} ({orbit.kind.value})")
    return 0


def cmd_prefix(args) -> int:
    scenario, _ = _load(args.config)
    prefix = multi_orbit_prefix(scenario)
    carriers = (scenario.carrier1, scenario.carrier2)
    for role, index in (("fast", prefix.carrier), ("slow", 3 - prefix.carrier)):
        orbit = carriers[index - 1].orbit
        print(f"{role}_carrier: {index} ({orbit.kind.value}, "
              f"leg {orbit.mean_leg_distance_km} km)")
    print(f"differential_delay_s: {prefix.delay_s:.6f}")
    print(f"superframes_in_delta: {prefix.superframes:.6f}")
    print(f"pdus_per_fecframe: {prefix.pdus_per_frame}")
    print(f"raw_initial_sequence: {prefix.raw:.4f}")
    print(f"prefix_length: {prefix.length}")
    return 0


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose failed writes raise.  argparse's own
    ``_print_message`` ignores an OSError, so ``--help`` into a full device
    would exit 0 having written nothing."""

    def _print_message(self, message, file=None):
        if message:
            try:
                (file or sys.stderr).write(message)
            except AttributeError:  # no stream to write to, as argparse allows
                pass

    def print_usage(self, file=None):  # None is stderr, as _print_message reads it: never stdout
        self._print_message(self.format_usage(), file)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="casim",
        description="Deterministic two-carrier satellite carrier-aggregation simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario config")
    p_run.add_argument("--config", required=True, help="scenario .cfg file")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--trace", action="store_true", help="also write trace.csv")
    p_run.set_defaults(func=cmd_run)

    p_suite = sub.add_parser("suite", help="run every *.cfg in a directory")
    p_suite.add_argument("--dir", help="config directory (default: bundled scenarios)")
    p_suite.add_argument("--out", required=True, help="output directory")
    p_suite.set_defaults(func=cmd_suite)

    p_plan = sub.add_parser("plan", help="print the scheduling plan")
    group = p_plan.add_mutually_exclusive_group(required=True)
    group.add_argument("--alpha", help="load balancing factor (e.g. 0.4 or 2/5)")
    group.add_argument("--config", help="scenario .cfg file")
    p_plan.set_defaults(func=cmd_plan, alpha=None, config=None)

    p_prefix = sub.add_parser("prefix", help="print the multi-orbit prefix computation")
    p_prefix.add_argument("--config", required=True, help="scenario .cfg file")
    p_prefix.set_defaults(func=cmd_prefix)

    return parser


def main(argv=None) -> int:
    try:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:  # --help (0) or a usage error (2)
            code = exc.code
        else:
            code = args.func(args)
        if sys.stdout is not None:  # None when the process started with fd 1 closed
            sys.stdout.flush()  # a failed write is reported here, not lost at exit
        return code
    except ConfigError as exc:
        return _error(2, exc)
    except CasimError as exc:
        return _error(3, exc)
    # A config read raises ConfigError: this is an output write, or a label
    # that stdout's encoding cannot hold.
    except (OSError, UnicodeEncodeError) as exc:
        return _error(2, f"cannot write outputs: {exc}")


def _error(code: int, message) -> int:
    """Write the ``error:`` line to stderr and return ``code``.  A line that
    cannot be written (stderr closed or read-only) is dropped: nothing is
    left to report that to, and the exit code still tells the failure."""
    try:
        sys.stderr.write(f"error: {message}\n")
        sys.stderr.flush()
    except (AttributeError, OSError):  # no stderr, or nowhere left to report to
        pass
    return code


def entry() -> None:
    """Process entry point: run ``main`` on ``sys.argv`` and end the process
    with its exit code, without interpreter teardown."""
    code = main()
    try:
        sys.stderr.flush()
    except (AttributeError, OSError):  # no stderr, or nowhere left to report to
        pass
    os._exit(code)


if __name__ == "__main__":
    entry()
