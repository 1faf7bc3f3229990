"""Packet-ordering and throughput metrics over a merged stream.

Misplacement distance is the absolute difference between a PDU's position
in the merged receive order and its original sequence position, with
sequence numbering restarted per burst (each burst is an independent ramp).
The mean is taken over misplaced PDUs only; the max over all PDUs.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .emulator import NS_PER_S
from .errors import DegenerateWindow, InvariantError
from .model import RunTrace, ScenarioConfig

__all__ = [
    "Misplacement",
    "BurstStats",
    "OrderingReport",
    "misplacement",
    "throughput_bps",
    "ordering_report",
    "compare",
    "format_comparison",
    "write_comparison_csv",
    "COMPARISON_CSV_COLUMNS",
]


class Misplacement(NamedTuple):
    misplaced_count: int
    mean: float
    max: int


class _BurstFigures(NamedTuple):
    """Per-burst sums, one entry per burst, as Python ints."""

    n_pdus: list[int]
    misplaced_count: list[int]
    distance_sum: list[int]
    max_distance: list[int]
    window_ns: list[int]


def _burst_figures(merged: RunTrace, burst_sizes: Sequence[int] | None) -> _BurstFigures:
    """Each burst's misplacement and active window (first tx start to last
    arrival), from one grouping of the merged stream by burst.

    Grouping keeps merge order within a burst, so a burst's k-th merged PDU
    lands at index start + k of the grouped stream, while its sequence
    number is start + its local sequence position: the burst start cancels
    out of the displacement.
    """
    n = len(merged)
    if burst_sizes is None:
        burst_sizes = (n,) if n else ()
    if sum(burst_sizes) != n:
        raise InvariantError(
            f"burst sizes sum to {sum(burst_sizes)} but the stream has {n} PDUs")
    if any(size <= 0 for size in burst_sizes):
        raise InvariantError("burst sizes must be > 0")
    sizes = np.asarray(burst_sizes, dtype=np.int64)
    starts = np.cumsum(sizes) - sizes
    burst_of_seq = np.repeat(np.arange(sizes.size), sizes)
    grouped = np.argsort(burst_of_seq[merged.seq], kind="stable")
    distance = np.abs(np.arange(n) - merged.seq[grouped])
    window_ns = (np.maximum.reduceat(merged.t_arrival_ns[grouped], starts)
                 - np.minimum.reduceat(merged.t_tx_start_ns[grouped], starts))
    return _BurstFigures(
        n_pdus=sizes.tolist(),
        misplaced_count=np.add.reduceat(distance > 0, starts).tolist(),
        distance_sum=np.add.reduceat(distance, starts).tolist(),
        max_distance=np.maximum.reduceat(distance, starts).tolist(),
        window_ns=window_ns.tolist(),
    )


def _rate_bps(n_pdus: int, pdu_size_bytes: int, window_ns: int) -> float:
    return n_pdus * pdu_size_bytes * 8 * NS_PER_S / window_ns


def _overall_misplacement(figures: _BurstFigures) -> Misplacement:
    count = sum(figures.misplaced_count)
    mean = sum(figures.distance_sum) / count if count else 0.0
    return Misplacement(count, mean, max(figures.max_distance, default=0))


def _overall_throughput_bps(figures: _BurstFigures, pdu_size_bytes: int) -> float:
    n = sum(figures.n_pdus)
    if n < 2:
        raise DegenerateWindow(f"throughput needs at least 2 PDUs, got {n}")
    total_ns = sum(figures.window_ns)
    if total_ns <= 0:
        raise DegenerateWindow("total active time is zero")
    return _rate_bps(n, pdu_size_bytes, total_ns)


def misplacement(
    merged: RunTrace, burst_sizes: Sequence[int] | None = None
) -> Misplacement:
    """Misplaced-PDU count, mean displacement over misplaced PDUs, and the
    maximum displacement over all PDUs (0 everywhere for a perfect stream)."""
    return _overall_misplacement(_burst_figures(merged, burst_sizes))


def throughput_bps(
    merged: RunTrace,
    pdu_size_bytes: int,
    burst_sizes: Sequence[int] | None = None,
) -> float:
    """Aggregated delivered rate: total bits over total per-burst active time
    (first tx start to last arrival per burst; inter-burst gaps excluded)."""
    return _overall_throughput_bps(_burst_figures(merged, burst_sizes), pdu_size_bytes)


@dataclass(frozen=True)
class BurstStats:
    """Ordering and throughput figures for one burst."""

    n_pdus: int
    misplaced_count: int
    mean_misplace: float
    max_misplace: int
    throughput_bps: float


@dataclass(frozen=True)
class OrderingReport:
    """Scenario-level evaluation: misplacement statistics and throughput."""

    n_pdus: int
    misplaced_count: int
    mean_misplace: float
    max_misplace: int
    throughput_bps: float
    per_burst: tuple[BurstStats, ...]

    def __post_init__(self):
        if not (0 <= self.mean_misplace <= self.max_misplace <= max(self.n_pdus - 1, 0)):
            raise InvariantError(
                "report must satisfy 0 <= mean <= max <= n-1, got "
                f"mean={self.mean_misplace}, max={self.max_misplace}, n={self.n_pdus}")
        if self.misplaced_count > self.n_pdus:
            raise InvariantError("misplaced_count cannot exceed n_pdus")

    def as_dict(self) -> dict:
        """The report's fields, each burst's as a dict of its own."""
        return {**vars(self), "per_burst": [dict(vars(b)) for b in self.per_burst]}


def ordering_report(merged: RunTrace, scenario: ScenarioConfig) -> OrderingReport:
    """Full report for one scenario run, including the per-burst breakdown."""
    figures = _burst_figures(merged, scenario.burst_sizes)
    overall = _overall_misplacement(figures)
    per_burst = tuple(
        BurstStats(
            n_pdus=n,
            misplaced_count=count,
            mean_misplace=distance_sum / count if count else 0.0,
            max_misplace=worst,
            throughput_bps=_rate_bps(n, scenario.pdu_size_bytes, window_ns)
            if window_ns > 0 else 0.0,
        )
        for n, count, distance_sum, worst, window_ns in zip(*figures)
    )
    return OrderingReport(
        n_pdus=len(merged),
        misplaced_count=overall.misplaced_count,
        mean_misplace=overall.mean,
        max_misplace=overall.max,
        throughput_bps=_overall_throughput_bps(figures, scenario.pdu_size_bytes),
        per_burst=per_burst,
    )


COMPARISON_CSV_COLUMNS = (
    "label",
    "n_pdus",
    "misplaced_count",
    "mean_misplace",
    "max_misplace",
    "throughput_bps",
)


def compare(labeled_reports: Sequence[tuple[str, OrderingReport]]) -> list[dict]:
    """Flatten (label, report) pairs into comparison rows, one per scenario."""
    if not labeled_reports:
        raise ValueError("compare needs at least one report")
    return [
        {"label": label} | {key: getattr(report, key) for key in COMPARISON_CSV_COLUMNS[1:]}
        for label, report in labeled_reports
    ]


def format_comparison(labeled_reports: Sequence[tuple[str, OrderingReport]]) -> str:
    """Aligned text table of max/mean misplacement and throughput per scenario."""
    rows = compare(labeled_reports)
    header = f"{'scenario':<12} {'n_pdus':>7} {'misplaced':>9} {'mean':>9} {'max':>6} {'Mbps':>8}"
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r['label']:<12} {r['n_pdus']:>7} {r['misplaced_count']:>9} "
            f"{r['mean_misplace']:>9.2f} {r['max_misplace']:>6} "
            f"{r['throughput_bps'] / 1e6:>8.3f}"
        )
    return "\n".join(lines)


def write_comparison_csv(
    labeled_reports: Sequence[tuple[str, OrderingReport]], path: str | Path
) -> None:
    """Write the flat comparison table, one scenario per row."""
    rows = compare(labeled_reports)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=COMPARISON_CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
