"""Transport of scheduled PDUs over two carriers, in closed form.

Each carrier is a work-conserving FIFO that serializes PDUs at one effective
per-PDU service time (frame-level encapsulation collapsed into one number),
after which each PDU propagates for the orbit's delay at the instant it
leaves.  Releases arrive in sequence order, so a carrier's transmission
times follow Lindley's recursion and need no event simulation, and its
delays are one numpy expression over all its PDUs.  All times are integer
nanoseconds: seconds are converted once with round(x * 1e9), so identical
scenarios replay to byte-identical traces.
"""

from __future__ import annotations

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
    "propagation_delays_ns",
    "run",
    "write_trace_csv",
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


def propagation_delays_ns(carrier: CarrierConfig, t_ns: np.ndarray) -> np.ndarray:
    """Delays (int64 ns) of ``carrier``'s path for PDUs leaving at int64 ``t_ns``:
    ``OrbitModel.propagation_delay_s`` at float(t_ns) / 1e9, rounded as in
    ``s_to_ns``.  Raises InvariantError unless every delay fits int64."""
    # Overflow and sin(inf) leave inf or nan, which the range check rejects.
    with np.errstate(over="ignore", invalid="ignore"):
        delay_s = carrier.orbit.propagation_delay_s(t_ns / NS_PER_S)
        # a constant path gives one float, which ``out`` repeats for every PDU
        delay_ns = np.rint(np.multiply(delay_s, NS_PER_S, out=np.empty(t_ns.shape)))
    if not (np.abs(delay_ns) < 2.0**63).all():
        raise InvariantError("arrival times exceed the int64 range")
    return delay_ns.astype(np.int64)


def run(scenario: ScenarioConfig, plan: SchedulingPlan) -> RunTrace:
    """Transport every PDU; return one row per PDU, in sequence order.

    On a carrier with service time s, the k-th PDU (k = 0, 1, ...) released at
    r_k starts when both it and the carrier are ready, so
    end_k = max(r_k, end_{k-1}) + s = (k+1)·s + max_{j<=k}(r_j - j·s).
    It arrives after its path's delay at end_k, taken for all of a carrier's
    PDUs at once (so never for a carrier that carries none).
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
        delay = propagation_delays_ns(cfg, end)
        if (delay > np.iinfo(np.int64).max - end).any():  # end + delay would wrap
            raise InvariantError("arrival times exceed the int64 range")
        tx_start[rows], tx_end[rows], arrival[rows] = end - service, end, end + delay

    return RunTrace(
        seq=np.arange(n),
        carrier=carrier,
        t_scheduled_ns=release,
        t_tx_start_ns=tx_start,
        t_tx_end_ns=tx_end,
        t_arrival_ns=arrival,
    )


_CSV_CHUNK_ROWS = 1 << 16  # rows per write, which bounds the Python ints held at once


def write_trace_csv(trace: RunTrace, path: str | Path) -> None:
    """Dump a run as CSV (times in integer nanoseconds), one row per PDU,
    in the record's row order, with CRLF line ends."""
    with open(path, "w", newline="") as fh:
        fh.write("seq,carrier,t_scheduled,t_tx_start,t_tx_end,t_arrival\r\n")
        for start in range(0, len(trace), _CSV_CHUNK_ROWS):
            chunk = np.stack([c[start:start + _CSV_CHUNK_ROWS] for c in trace.columns()], axis=1)
            fh.write("%d,%d,%d,%d,%d,%d\r\n" * len(chunk) % tuple(chunk.ravel().tolist()))
