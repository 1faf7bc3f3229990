"""Packet-ordering and throughput metrics over a merged stream.

Misplacement distance is the absolute difference between a PDU's position
in the merged receive order and its original sequence position, with
sequence numbering restarted per burst (each burst is an independent ramp).
The mean is taken over misplaced PDUs only; the max over all PDUs.
``ordering_report`` is the one place these figures are computed.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import InvariantError
from .model import NS_PER_S, RunTrace, ScenarioConfig

__all__ = [
    "BurstStats",
    "OrderingReport",
    "ordering_report",
    "format_comparison",
    "write_comparison_csv",
    "COMPARISON_CSV_COLUMNS",
]


@dataclass(frozen=True)
class BurstStats:
    """Ordering and throughput figures for one burst."""

    n_pdus: int
    misplaced_count: int
    mean_misplace: float
    max_misplace: int
    throughput_bps: float


@dataclass(frozen=True)
class OrderingReport(BurstStats):
    """Scenario-level evaluation: the figures of ``BurstStats`` over the whole
    run, plus each burst's own."""

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


def _figures(n_pdus: int, misplaced: int, distance_sum: int, max_distance: int,
             window_ns: int, pdu_size_bytes: int) -> tuple:
    """The fields of ``BurstStats``: the mean is over misplaced PDUs only, and
    a zero window gives a throughput of 0.0."""
    return (n_pdus, misplaced, distance_sum / misplaced if misplaced else 0.0, max_distance,
            n_pdus * pdu_size_bytes * 8 * NS_PER_S / window_ns if window_ns > 0 else 0.0)


def ordering_report(merged: RunTrace, scenario: ScenarioConfig) -> OrderingReport:
    """Misplacement and throughput of one scenario run, overall and per burst.

    Distances come from ``merged.order``, the sequence numbers in receive
    order.  Grouping that order by burst keeps receive order within a
    burst, so a burst's k-th received PDU lands at index start + k of the
    grouped order, while its sequence number is start + its local sequence
    position: the burst start cancels out of the distance.  A burst is a
    contiguous range of sequence numbers, so its active window (first tx
    start to last arrival) is one reduction over each sequence-indexed
    column.  Throughput is total bits over the summed per-burst windows, so
    inter-burst gaps are excluded; a burst with a zero window reports 0.0.
    """
    n = len(merged)
    burst_sizes = scenario.burst_sizes
    if scenario.total_pdus != n:
        raise InvariantError(
            f"burst sizes sum to {scenario.total_pdus} but the stream has {n} PDUs")
    if n < 2:
        raise InvariantError(f"throughput needs at least 2 PDUs, got {n}")
    sizes = np.asarray(burst_sizes, dtype=np.int64)
    starts = sizes.cumsum() - sizes
    order = merged.order
    # The smallest label type and an in-place distance keep the temporaries
    # of a long run few and small.
    burst_of_seq = np.arange(sizes.size, dtype=np.min_scalar_type(sizes.size)).repeat(sizes)
    distance = np.arange(n)
    distance -= order[burst_of_seq[order].argsort(kind="stable")]
    np.abs(distance, out=distance)
    counts = np.add.reduceat(distance > 0, starts).tolist()
    sums = np.add.reduceat(distance, starts).tolist()
    worst = np.maximum.reduceat(distance, starts).tolist()
    windows = (np.maximum.reduceat(merged.t_arrival_ns, starts)
               - np.minimum.reduceat(merged.t_tx_start_ns, starts)).tolist()
    total_ns = sum(windows)
    if total_ns <= 0:
        raise InvariantError("total active time is zero")

    pdu_size = scenario.pdu_size_bytes
    per_burst = tuple(BurstStats(*_figures(*burst, pdu_size))
                      for burst in zip(burst_sizes, counts, sums, worst, windows))
    return OrderingReport(
        *_figures(n, sum(counts), sum(sums), max(worst), total_ns, pdu_size), per_burst)


COMPARISON_CSV_COLUMNS = ("label", *(f.name for f in fields(BurstStats)))


def format_comparison(labeled_reports: Sequence[tuple[str, OrderingReport]]) -> str:
    """Aligned text table of max/mean misplacement and throughput per scenario."""
    header = f"{'scenario':<12} {'n_pdus':>7} {'misplaced':>9} {'mean':>9} {'max':>6} {'Mbps':>8}"
    lines = [header, "-" * len(header)]
    for label, r in labeled_reports:
        lines.append(
            f"{label:<12} {r.n_pdus:>7} {r.misplaced_count:>9} "
            f"{r.mean_misplace:>9.2f} {r.max_misplace:>6} "
            f"{r.throughput_bps / 1e6:>8.3f}"
        )
    return "\n".join(lines)


def write_comparison_csv(
    labeled_reports: Sequence[tuple[str, OrderingReport]], path: str | Path
) -> None:
    """Write the flat comparison table (``COMPARISON_CSV_COLUMNS``), one
    scenario per row."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(COMPARISON_CSV_COLUMNS)
        writer.writerows(
            (label, *(getattr(report, key) for key in COMPARISON_CSV_COLUMNS[1:]))
            for label, report in labeled_reports)
