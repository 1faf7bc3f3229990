"""Transport of scheduled PDUs over two carriers, in closed form.

Each carrier is a work-conserving FIFO that serializes PDUs at one effective
per-PDU service time (frame-level encapsulation collapsed into one number),
after which each PDU propagates for the orbit's delay at the instant it
leaves.  Releases arrive in sequence order, so a carrier's transmission
times follow Lindley's recursion and need no event simulation.  All times
are integer nanoseconds: seconds are converted once with round(x * 1e9), so
identical scenarios replay to byte-identical traces.
"""

from __future__ import annotations

import csv
from fractions import Fraction
from itertools import accumulate
from pathlib import Path

import numpy as np

from .errors import InvariantError
from .model import CarrierConfig, RunTrace, ScenarioConfig
from .scheduler import (
    FRAMES_PER_SUPERFRAME_BUNDLE,
    SUPERFRAME_SYMBOLS,
    SchedulingPlan,
    assignments,
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
    """Transport every PDU; return one row per PDU, in sequence order.

    On a carrier with service time s, the k-th PDU (k = 0, 1, ...) released at
    r_k starts when both it and the carrier are ready, so
    end_k = max(r_k, end_{k-1}) + s = (k+1)·s + max_{j<=k}(r_j - j·s).
    It arrives after the path delay at end_k: one delay for a constant path,
    one per PDU for a varying one.
    """
    n = scenario.total_pdus
    carriers = (scenario.carrier1, scenario.carrier2)
    service_ns = [pdu_service_time_ns(cfg, scenario.pdu_size_bytes) for cfg in carriers]
    burst_start_ns = list(accumulate(
        (s_to_ns(burst.inter_burst_gap_s) for burst in scenario.bursts[:-1]), initial=0))
    if burst_start_ns[-1] + n * max(service_ns) > np.iinfo(np.int64).max:
        raise InvariantError("transmission times exceed the int64 range")
    release = np.repeat(burst_start_ns, scenario.burst_sizes)
    carrier = assignments(plan, n)
    tx_start, tx_end, arrival = np.empty((3, n), dtype=np.int64)
    for idx, cfg, service in zip((1, 2), carriers, service_ns):
        rows = np.flatnonzero(carrier == idx)
        queued_ns = np.arange(rows.size, dtype=np.int64) * service
        end = queued_ns + service + np.maximum.accumulate(release[rows] - queued_ns)
        tx_start[rows], tx_end[rows] = end - service, end
        try:
            if cfg.orbit.variation_amplitude_km == 0.0:
                # A sum past the int64 range wraps negative, which RunTrace rejects.
                arrival[rows] = end + propagation_delay_ns(cfg, 0)
            else:
                arrival[rows] = [t + propagation_delay_ns(cfg, t) for t in end.tolist()]
        except OverflowError as exc:
            raise InvariantError("arrival times exceed the int64 range") from exc

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
