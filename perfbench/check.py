"""Output checks that do not use casim's own metrics code.

``check_trace`` reads a ``trace.csv`` as written by ``write_trace_csv`` and
recomputes the report's simulated statistics with numpy.  ``digest`` reduces a
report to its simulated values, the unit the committed goldens store.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

TRACE_HEADER = "seq,carrier,t_scheduled,t_tx_start,t_tx_end,t_arrival"
NS_PER_S = 10**9
STAT_KEYS = ("n_pdus", "misplaced_count", "mean_misplace", "max_misplace", "throughput_bps")


def simulated_values(report: dict) -> dict:
    """The simulated statistics of a report, without any fields added later."""
    values = {key: report[key] for key in STAT_KEYS}
    values["per_burst"] = [{key: b[key] for key in STAT_KEYS} for b in report["per_burst"]]
    return values


def digest(report: dict) -> str:
    text = json.dumps(simulated_values(report), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _stats(n_pdus: int, distance: np.ndarray, window_ns: int, pdu_size_bytes: int) -> dict:
    misplaced = distance[distance > 0]
    count = int(misplaced.size)
    total = int(misplaced.sum())
    return {
        "n_pdus": n_pdus,
        "misplaced_count": count,
        "mean_misplace": total / count if count else 0.0,
        "max_misplace": int(distance.max(initial=0)),
        "throughput_bps": n_pdus * pdu_size_bytes * 8 * NS_PER_S / window_ns
        if window_ns > 0 else 0.0,
        "_distance_sum": total,
        "_window_ns": window_ns,
    }


def recompute(trace_path: Path, burst_sizes, pdu_size_bytes: int) -> tuple[dict, list[str]]:
    """Check a trace's invariants and recompute its report from the columns.

    Returns the recomputed simulated values and a list of problems found.
    """
    with open(trace_path) as fh:
        header = fh.readline().strip()
    if header != TRACE_HEADER:
        return {}, [f"trace header {header!r}"]
    cols = np.loadtxt(trace_path, delimiter=",", skiprows=1, dtype=np.int64, ndmin=2)
    seq, carrier, t_sched, t_start, t_end, t_arr = cols.T
    n = int(seq.size)
    problems = []
    if n != sum(burst_sizes):
        problems.append(f"{n} trace rows for {sum(burst_sizes)} PDUs")
    if n == 0 or seq.min() < 0 or seq.max() >= n or (np.bincount(seq, minlength=n) != 1).any():
        problems.append("sequence numbers are not each present exactly once")
        return {}, problems
    if not np.isin(carrier, (1, 2)).all():
        problems.append("carrier outside {1, 2}")
    if (t_start < t_sched).any():
        problems.append("t_tx_start < t_scheduled")
    if (t_arr < t_end).any():
        problems.append("t_arrival < t_tx_end")
    for c in (1, 2):
        on_c = np.flatnonzero(carrier == c)
        on_c = on_c[np.argsort(seq[on_c], kind="stable")]
        if on_c.size == 0:
            continue
        if np.unique(t_end[on_c] - t_start[on_c]).size != 1:
            problems.append(f"carrier {c}: service time not constant")
        if (t_start[on_c][1:] < t_end[on_c][:-1]).any():
            problems.append(f"carrier {c}: not FIFO (a PDU starts before its predecessor ends)")

    merged_seq = seq[np.lexsort((seq, carrier, t_arr))]
    by_seq = np.argsort(seq)
    per_burst = []
    lo = 0
    for size in burst_sizes:
        hi = lo + size
        local = merged_seq[(merged_seq >= lo) & (merged_seq < hi)] - lo
        distance = np.abs(np.arange(local.size) - local)
        rows = by_seq[lo:hi]
        window_ns = int(t_arr[rows].max()) - int(t_start[rows].min())
        per_burst.append(_stats(size, distance, window_ns, pdu_size_bytes))
        lo = hi
    count = sum(b["misplaced_count"] for b in per_burst)
    total_ns = sum(b["_window_ns"] for b in per_burst)
    overall = {
        "n_pdus": n,
        "misplaced_count": count,
        "mean_misplace": sum(b["_distance_sum"] for b in per_burst) / count if count else 0.0,
        "max_misplace": max(b["max_misplace"] for b in per_burst),
        "throughput_bps": n * pdu_size_bytes * 8 * NS_PER_S / total_ns if total_ns > 0 else 0.0,
        "per_burst": [{key: b[key] for key in STAT_KEYS} for b in per_burst],
    }
    return overall, problems


def check_trace(trace_path: Path, report: dict, burst_sizes, pdu_size_bytes: int) -> list[str]:
    """Problems with a trace, or with a report that the trace does not reproduce."""
    expected, problems = recompute(trace_path, burst_sizes, pdu_size_bytes)
    if expected and expected != simulated_values(report):
        problems.append(f"report differs from the trace: {simulated_values(report)} != {expected}")
    return problems


def value_of(config_text: str, key: str) -> str:
    """The value of ``key`` in a flat ``key=value`` config text."""
    for line in config_text.splitlines():
        name, _, value = line.split("#", 1)[0].partition("=")
        if name.strip() == key:
            return value.strip()
    raise ValueError(f"config text has no {key} line")


def bursts_of(config_text: str) -> tuple[int, ...]:
    """Burst sizes declared by a config text's ``bursts=count:gap,...`` line."""
    value = value_of(config_text, "bursts")
    return tuple(int(item.split(":")[0]) for item in value.split(",") if item.strip())
