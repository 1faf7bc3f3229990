"""Packet-ordering and throughput metrics over a merged stream.

Misplacement distance is the absolute difference between a PDU's position
in the merged receive order and its original sequence position, with
sequence numbering restarted per burst (each burst is an independent ramp).
The mean is taken over misplaced PDUs only; the max over all PDUs.
``ordering_report`` is the one place these figures are computed.  The bursts
are the record's own, ``RunTrace.burst_sizes``, which its constructor checks;
the scenario gives only the PDU size.  A burst's active window is reduced
over its ranges of rows, one per carrier, whose lengths
``model._carrier_split`` gives.

One law of misplacement follows from the scheduler's cycle: on equal
constant paths, when the cycle's ratio ``plan.alpha_used``, p/q, equals
``Fraction(s1, s2)`` of the carriers' service times in ns, a single burst
on empty queues has nothing misplaced.  A cycle of q ones and p twos then
lasts q s1 = p s2 on either carrier, and its k-th two (k = 1..p), whose tx
end is k s2 = k q s1 / p, follows floor(k q / p) ones, each ending no
later; the next one ends after it, and an equal arrival goes to carrier 1,
whose PDU comes first.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, fields
from itertools import accumulate
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import InvariantError
from .model import NS_PER_S, RunTrace, ScenarioConfig, _carrier_split

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
    run, plus each burst's own.  Like ``BurstStats`` it checks nothing: the
    report is an output, and ``ordering_report`` builds its counts as sums of
    0/1 over n PDUs and its distances as at most n - 1."""

    per_burst: tuple[BurstStats, ...]

    def as_dict(self) -> dict:
        """The report's fields, each burst's as a dict of its own."""
        return {**vars(self), "per_burst": [dict(vars(b)) for b in self.per_burst]}


def _figures(n_pdus: int, misplaced: int, distance_sum: int, max_distance: int,
             window_ns: int, pdu_size_bytes: int) -> tuple:
    """The fields of ``BurstStats``: the mean is over misplaced PDUs only, and
    a zero window gives a throughput of 0.0."""
    return (n_pdus, misplaced, distance_sum / misplaced if misplaced else 0.0, max_distance,
            n_pdus * pdu_size_bytes * 8 * NS_PER_S / window_ns if window_ns > 0 else 0.0)


def _windows(merged: RunTrace) -> list[int]:
    """The active window in ns of each of the record's bursts, from its
    first tx start to its last arrival.

    Rows are stored in carrier order, so a burst's PDUs on one carrier are
    one range of rows, whose lengths ``_carrier_split`` gives: carrier 1's
    ranges, then carrier 2's.  Each non-empty range is reduced once.
    """
    ones, twos = _carrier_split(merged.carrier, merged.burst_sizes)
    heads, row = [], 0
    for count in ones + twos:
        if count:
            heads.append(row)
            row += count
    heads = np.array(heads)
    lows = np.minimum.reduceat(merged.t_tx_end_ns, heads).tolist()
    highs = np.maximum.reduceat(merged.t_arrival_ns, heads).tolist()
    s1, s2 = merged.service_ns
    windows, i, j = [], 0, len(ones) - ones.count(0)  # j: carrier 2's first range
    for one, two in zip(ones, twos):
        if not two:  # on carrier 1 only
            windows.append(highs[i] - lows[i] + s1)
            i += 1
        elif not one:  # on carrier 2 only
            windows.append(highs[j] - lows[j] + s2)
            j += 1
        else:
            windows.append(max(highs[i], highs[j]) - min(lows[i] - s1, lows[j] - s2))
            i += 1
            j += 1
    return windows


def ordering_report(merged: RunTrace, scenario: ScenarioConfig) -> OrderingReport:
    """Misplacement and throughput of one scenario run, overall and per burst.

    The bursts are the record's, ``merged.burst_sizes``; ``scenario`` gives
    only ``pdu_size_bytes``.
    Distances come from the sequence numbers in receive order: ``merged.seq``
    at the rows ``merged`` lists.  Grouping them by burst keeps receive
    order within a burst, so a burst's k-th received PDU lands at index
    start + k of the grouped order, while its sequence number is start + its
    local sequence position: the burst start cancels out of the distance.
    A receive order with every burst apart is grouped already; otherwise
    only the span between the first and last PDU received outside their
    burst's positions is sorted.
    A burst's active window runs from its first tx start to its last
    arrival.  Throughput is total bits over the summed per-burst windows, so
    inter-burst gaps are excluded; a burst with a zero window reports 0.0.
    """
    n = len(merged)
    burst_sizes = merged.burst_sizes
    if n < 2:
        raise InvariantError(f"throughput needs at least 2 PDUs, got {n}")
    n_bursts = len(burst_sizes)
    windows = _windows(merged)
    total_ns = sum(windows)
    if total_ns <= 0:
        raise InvariantError("total active time is zero")

    # Sequence numbers in receive order, grouped by burst, then the distance
    # taken in place.  Burst b's grouped positions are its own sequence
    # numbers, from starts[b] up to the next burst's head, so the receive
    # order is already grouped iff no burst's positions hold a PDU of a later
    # burst: the largest seq in each lies below the next head.  Otherwise each
    # PDU is labelled by burst (burst_of_seq[i] is also the burst whose
    # positions include i), and only the span from the first PDU outside its
    # burst's positions to the last is stably sorted by label.  That is exact:
    # each PDU before the span is in its burst's positions, and so among the
    # first received of its burst, in receive order, where grouping puts it;
    # each PDU after the span is likewise among the last received.  So the
    # span holds exactly the rest, as many of each burst as it has of that
    # burst's positions.  The labels are of the smallest type.
    grouped = merged.seq[merged._rows(0, n)]
    starts = np.array(list(accumulate(burst_sizes[:-1], initial=0)))
    if n_bursts > 1 and np.count_nonzero(
            np.maximum.reduceat(grouped, starts)[:-1] >= starts[1:]):
        burst_of_seq = np.arange(n_bursts, dtype=np.min_scalar_type(n_bursts)).repeat(burst_sizes)
        label = burst_of_seq[grouped]
        outside = np.flatnonzero(label != burst_of_seq)
        lo, hi = outside[0], outside[-1] + 1
        span = grouped[lo:hi]
        span[...] = span[label[lo:hi].argsort(kind="stable")]
    grouped -= np.arange(n)
    distance = np.abs(grouped, out=grouped)
    sums = np.add.reduceat(distance, starts).tolist()
    worst = np.maximum.reduceat(distance, starts).tolist()
    misplaced = np.sign(distance, out=distance)  # 1 where misplaced, else 0
    counts = np.add.reduceat(misplaced, starts).tolist()

    pdu_size = scenario.pdu_size_bytes
    per_burst = tuple([BurstStats(*_figures(*burst, pdu_size))
                       for burst in zip(burst_sizes, counts, sums, worst, windows)])
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
