"""casim benchmark: one workload, timed from outside the program.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root.  casim is not installed: ``src`` goes on
PYTHONPATH and the CLI runs as ``python -m casim.cli``.  The workload runs in
one fresh single-threaded child process (``worker.py``).  The last line of
standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, scaled to a reference
host speed (``hostspeed.py``); with ``--trace 1`` the per-layer ones from a
separate traced run.  An environment block (versions, CPU count, git SHA,
seed, ``src/casim`` line count, sample counts, and with ``--trace 0`` the
unscaled figures) is printed on the line before.  See README.md for the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import hostspeed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("sweep", "long_meo", "cli_run_trace")
SETUP_SAMPLES = 5
WORKER_GRACE_S = 120  # on top of --seconds: checks, the traced-run probe, overrun of a pass


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=f"{ROOT / 'src'}{os.pathsep}{BENCH_DIR}")
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("CASIM_SEED", None)
    return env


def python_wall_s(code: str) -> tuple[float, str]:
    """Wall time of a fresh ``python -c code``, and what it printed."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"python -c {code!r} failed: {proc.stderr.strip()[-500:]}")
    return elapsed, proc.stdout


def setup_s(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Times from a fresh interpreter to the first timed op: host seconds, and
    host seconds scaled to the reference host speed."""
    if workload.startswith("cli_"):
        code = "import casim.cli"
    else:
        code = f"import casim, inputs; inputs.GENERATORS[{workload!r}]({seed})"
    speed = hostspeed.HostSpeed()
    walls = []
    for _ in range(SETUP_SAMPLES):
        speed.tick()
        walls.append(python_wall_s(code)[0])
    speed.measure()
    return walls, [speed.scale(s, w * 1e9) / 1e9 for s, w in zip(speed.starts, walls)]


def cli_import_ms() -> float:
    """Median in-interpreter time of ``import casim.cli`` from a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import casim.cli; "
            "print(time.perf_counter() - t)")
    return statistics.median(float(python_wall_s(code)[1]) * 1e3 for _ in range(SETUP_SAMPLES))


def run_worker(args, result: Path) -> tuple[int, float]:
    """Run the workload child; return its exit status and peak RSS in MB."""
    argv = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--result", str(result)]
    # A process group of its own, so that a timeout also stops the CLI
    # processes the worker started.
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
                            start_new_session=True)
    deadline = time.monotonic() + args.seconds + WORKER_GRACE_S
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                raise TimeoutError
            time.sleep(0.05)
    except BaseException as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        _, status, usage = os.wait4(proc.pid, 0)
        if not isinstance(exc, TimeoutError):
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux and covers the worker and the CLI
    # processes it waited for.
    return proc.returncode, usage.ru_maxrss / 1024


def git_sha() -> str:
    """HEAD's commit, from a loose or a packed ref; "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    src = ROOT / "src" / "casim"
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "seed": seed,
        "src_casim_lines": sum(len(p.read_text().splitlines()) for p in src.rglob("*.py")),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="casim benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=33)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "casim" / "__init__.py").is_file():
        print(f"error: no casim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    # Everything this run starts inherits one CPU, so that the host-speed
    # kernel runs on the CPU that the timed code runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    metrics = {}
    if args.trace:
        metrics["cli.import_ms"] = (cli_import_ms(), "ms")
    else:
        setup_host, setup = setup_s(args.workload, args.seed)

    result = OUT_DIR / f"result-{args.workload}-{args.seed}-{os.getpid()}.json"
    code, peak_rss_mb = run_worker(args, result)
    if code != 0 or not result.is_file():
        print(f"error: workload process exited with {code}", file=sys.stderr)
        return 1
    out = json.loads(result.read_text())
    result.unlink()
    for problem in out["problems"]:
        print(f"failed: {problem}", file=sys.stderr)

    measured = out.get("layers" if args.trace else "end_to_end")
    if measured is None:
        print("error: every pass had an op that raised or exited non-zero", file=sys.stderr)
        return 1
    metrics.update(measured)
    if not args.trace:
        # Set up again after the workload: the host's speed drifts over tens
        # of seconds, and samples from both ends of the run span more of it.
        host, scaled = setup_s(args.workload, args.seed)
        setup_host += host
        setup += scaled
        metrics["setup_s"] = (statistics.median(setup), "s")
        out["unscaled"]["setup_s"] = statistics.median(setup_host)
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    info = {"env": environment(args.seed), "workload": args.workload,
            "passes": out["passes"], "op_samples": out["ops_timed"]}
    if "unscaled" in out:
        info["unscaled"] = out["unscaled"]
    print(json.dumps(info))
    print(json.dumps({
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
