"""Deterministic discrete-event transport of scheduled PDUs over two carriers.

Each carrier serializes its queue work-conservingly at an effective per-PDU
rate (frame-level encapsulation collapsed into one service time), then the
PDU propagates for the orbit's delay.  All engine time is integer
nanoseconds: seconds are converted once with round(x * 1e9) so identical
scenarios replay to byte-identical traces.
"""

from __future__ import annotations

import csv
import heapq
from collections import deque
from fractions import Fraction
from pathlib import Path

import numpy as np

from .model import CarrierConfig, RunTrace, ScenarioConfig
from .scheduler import (
    FRAMES_PER_SUPERFRAME_BUNDLE,
    SUPERFRAME_SYMBOLS,
    SchedulingPlan,
    assign,
    pdus_per_fecframe,
)

__all__ = [
    "NS_PER_S",
    "s_to_ns",
    "pdu_service_time_ns",
    "pdu_service_time_s",
    "propagation_delay_ns",
    "run",
    "write_trace_csv",
    "TRACE_CSV_COLUMNS",
]

NS_PER_S = 10**9


def s_to_ns(seconds: float) -> int:
    """Convert seconds to integer nanoseconds (round half to even)."""
    return round(seconds * NS_PER_S)


def pdu_service_time_ns(carrier: CarrierConfig, pdu_size_bytes: int) -> int:
    """Nanoseconds to emit one PDU on ``carrier``.

    One FEC frame occupies superframe_symbols / (9 x M) symbols, i.e.
    612540 / (9 M R_s) seconds, and carries ``pdus_per_fecframe`` PDUs of
    this user; the quotient is rounded once to integer nanoseconds.
    """
    n_pdu = pdus_per_fecframe(pdu_size_bytes, carrier.modcod, carrier.fill_rate)
    frame_time_ns = Fraction(SUPERFRAME_SYMBOLS * NS_PER_S) / (
        FRAMES_PER_SUPERFRAME_BUNDLE
        * carrier.modcod.bits_per_symbol
        * carrier.symbol_rate_sym_s
    )
    return round(frame_time_ns / n_pdu)


def pdu_service_time_s(carrier: CarrierConfig, pdu_size_bytes: int) -> float:
    """Per-PDU serialization time in seconds (ns-quantized)."""
    return pdu_service_time_ns(carrier, pdu_size_bytes) / NS_PER_S


def propagation_delay_ns(carrier: CarrierConfig, t_ns: int) -> int:
    """Propagation delay of ``carrier``'s orbit at engine time ``t_ns``."""
    return s_to_ns(carrier.orbit.propagation_delay_s(t_ns / NS_PER_S))


def run(scenario: ScenarioConfig, plan: SchedulingPlan) -> RunTrace:
    """Run the event engine; return one row per PDU, in sequence order.

    Releases are taken in sequence order and merged with a heap of
    transmission ends (at most one per carrier).  A released PDU joins its
    carrier's FIFO, whose head is the PDU on the air: a PDU that finds the
    FIFO empty starts at once.  When a transmission ends, its PDU leaves the
    FIFO for the orbit's propagation delay and the next one starts.
    """
    carriers = {1: scenario.carrier1, 2: scenario.carrier2}
    service_ns = {
        idx: pdu_service_time_ns(cfg, scenario.pdu_size_bytes)
        for idx, cfg in carriers.items()
    }
    n = scenario.total_pdus
    carrier = [assign(plan, seq) for seq in range(n)]
    release: list[int] = []
    release_ns = 0
    for burst in scenario.bursts:
        release += [release_ns] * burst.pdu_count
        release_ns += s_to_ns(burst.inter_burst_gap_s)

    tx_start = [0] * n
    tx_end = [0] * n
    arrival = [0] * n
    fifo = {1: deque(), 2: deque()}
    tx_ends: list[tuple[int, int]] = []  # heap of (tx_end_ns, seq)

    def start_tx(carrier_idx: int, now_ns: int) -> None:
        head = fifo[carrier_idx][0]
        tx_start[head] = now_ns
        tx_end[head] = now_ns + service_ns[carrier_idx]
        heapq.heappush(tx_ends, (tx_end[head], head))

    next_seq = 0
    while next_seq < n or tx_ends:
        if next_seq < n and (not tx_ends or release[next_seq] <= tx_ends[0][0]):
            seq, now_ns = next_seq, release[next_seq]
            next_seq += 1
            carrier_idx = carrier[seq]
            fifo[carrier_idx].append(seq)
            if len(fifo[carrier_idx]) == 1:
                start_tx(carrier_idx, now_ns)
        else:
            now_ns, seq = heapq.heappop(tx_ends)
            carrier_idx = carrier[seq]
            arrival[seq] = now_ns + propagation_delay_ns(carriers[carrier_idx], now_ns)
            fifo[carrier_idx].popleft()
            if fifo[carrier_idx]:
                start_tx(carrier_idx, now_ns)

    return RunTrace(
        seq=np.arange(n),
        carrier=carrier,
        t_scheduled_ns=release,
        t_tx_start_ns=tx_start,
        t_tx_end_ns=tx_end,
        t_arrival_ns=arrival,
    )


TRACE_CSV_COLUMNS = (
    "seq",
    "carrier",
    "t_scheduled",
    "t_tx_start",
    "t_tx_end",
    "t_arrival",
)


def write_trace_csv(trace: RunTrace, path: str | Path) -> None:
    """Dump a run as CSV (times in integer nanoseconds), one row per PDU,
    in the record's row order."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_CSV_COLUMNS)
        writer.writerows(zip(*(column.tolist() for column in trace.columns())))
