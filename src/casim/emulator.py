"""Transport of scheduled PDUs over two carriers, in closed form.

Each carrier is a work-conserving FIFO that serializes PDUs at one effective
per-PDU service time (frame-level encapsulation collapsed into one number,
which may round to 0 ns), after which each PDU propagates for the orbit's
delay at the instant it leaves.  Releases arrive in sequence order, so a
carrier's transmission times follow Lindley's recursion, whose backlog term
peaks at a burst's first PDU: each carrier's queue is solved once per burst,
with no event simulation, and its delays are one numpy expression over all
its PDUs.  All times are integer nanoseconds: seconds are converted once with
round(x * 1e9), so identical scenarios replay to byte-identical traces.
"""

from __future__ import annotations

from itertools import accumulate
from pathlib import Path

import numpy as np

from .errors import InvariantError
from .model import (INT64_MAX, NS_PER_S, SPEED_OF_LIGHT_KM_S, OrbitModel, RunTrace,
                    ScenarioConfig, _carrier_split)
from .scheduler import SchedulingPlan, assignments

__all__ = [
    "run",
    "write_trace_csv",
]


def _delays_ns(orbit: OrbitModel, t_ns: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Delays (int64 ns) of ``orbit``'s path for PDUs leaving at int64 ``t_ns``
    >= 0: ``OrbitModel.propagation_delay_s`` at float(t_ns) / 1e9, rounded half to
    even, written into the int64 array ``out``.  ``run`` has bounded them."""
    if orbit.variation_amplitude_km == 0.0:  # a constant path: one delay
        out.fill(round(orbit.mean_propagation_delay_s() * NS_PER_S))
        return out
    # The one float buffer is out's memory: times in s, then delays in s, in ns.
    delay_ns = np.divide(t_ns, NS_PER_S, out=out.view(np.float64))
    orbit.propagation_delay_s(delay_ns, out=delay_ns)
    np.rint(np.multiply(delay_ns, NS_PER_S, out=delay_ns), out=delay_ns)
    out[...] = delay_ns  # cast in place; whole numbers in range, so exact
    return out


def run(scenario: ScenarioConfig, plan: SchedulingPlan) -> RunTrace:
    """Transport every PDU; return their record, listed in carrier order.

    On a carrier with service time s >= 0, the k-th PDU (k = 0, 1, ...)
    released at r_k starts when both it and the carrier are ready, so
    end_k = max(r_k, end_{k-1}) + s = (k+1)·s + max_{j<=k}(r_j - j·s).
    Releases are equal within a burst and do not decrease from one burst to
    the next, so r_j - j·s is largest at a burst's first PDU on the carrier:
    the running max is taken over bursts, and each burst's peak is added to
    its slice of (k+1)·s.  A PDU arrives after its path's delay at end_k,
    taken for all of a carrier's PDUs at once (so never for a carrier that
    carries none), and written into its row of arrivals.  Each carrier's
    queue is one slice of the record's rows, written in place, and each
    burst's PDUs on it are counted by ``model._carrier_split``.  Times are
    int64 ns: each carrier's last tx end plus its path's peak delay,
    2 (mean leg + amplitude) / c, must fit, and is checked before its delays.
    """
    n = scenario.total_pdus
    try:
        gaps_ns = [round(burst.inter_burst_gap_s * NS_PER_S) for burst in scenario.bursts[:-1]]
        burst_start_ns = list(accumulate(gaps_ns, initial=0))
        fits = burst_start_ns[-1] + n * max(scenario.service_ns) <= INT64_MAX
    except OverflowError:  # a gap so long its ns count is an infinite float
        fits = False
    if not fits:
        raise InvariantError("transmission times exceed the int64 range")
    carrier = assignments(plan, n)
    ones, twos = _carrier_split(carrier, scenario.burst_sizes)
    release = np.array(burst_start_ns * 2, dtype=np.int64).repeat(ones + twos)
    tx_end = np.empty(n, dtype=np.int64)
    arrival = np.empty(n, dtype=np.int64)
    row = 0  # this carrier's first row
    for orbit, service, per_burst in zip((scenario.carrier1.orbit, scenario.carrier2.orbit),
                                         scenario.service_ns, (ones, twos)):
        m = sum(per_burst)
        if not m:  # no PDU takes this path, so its delay is never evaluated
            continue
        end = tx_end[row:row + m]
        np.multiply(np.arange(1, m + 1, dtype=np.int64), service, out=end)  # (k+1)·s
        # Burst b's PDUs are this carrier's queue indices first..first+count-1.
        # A burst with none has an empty slice, and its term r_b - first·s
        # raises no later peak: the next burst with PDUs here has its head at
        # the same index and a release no earlier, so its own term is at least
        # as large; if no later burst has any, no slice is left to raise.
        peak = first = 0
        for release_ns, count in zip(burst_start_ns, per_burst):
            peak = max(peak, release_ns - first * service)
            if peak and count:
                end[first:first + count] += peak
            first += count
        # Ends never decrease, so end[-1] is the last; no delay on this path
        # passes its peak, taken in propagation_delay_s's steps at sin = 1.
        peak_delay_ns = 2.0 * (orbit.mean_leg_distance_km + orbit.variation_amplitude_km) \
            / SPEED_OF_LIGHT_KM_S * NS_PER_S
        if not peak_delay_ns < 2.0**63 or int(end[-1]) + round(peak_delay_ns) > INT64_MAX:
            raise InvariantError("arrival times exceed the int64 range")
        delay = _delays_ns(orbit, end, arrival[row:row + m])
        np.add(delay, end, out=delay)
        row += m

    return RunTrace(carrier, scenario.service_ns, release, tx_end, arrival)


# Rows per write.  The writer holds one (4096, 6) int64 block, its 24576
# Python ints and its text at once, ~1.4 MB whatever the record's length.
_CSV_BLOCK_ROWS = 4096


def write_trace_csv(trace: RunTrace, path: str | Path) -> None:
    """Dump a run as CSV (times in integer nanoseconds), one row per PDU,
    in the record's listed order, with CRLF line ends.  Rows are gathered
    and formatted one reused block at a time, so the writer holds ~1.4 MB
    whatever the record's length.  A row's carrier is read through its
    sequence number, and its tx start is its tx end less that carrier's
    service time."""
    service = np.array((0, *trace.service_ns), dtype=np.int64)  # by carrier
    block = np.empty((_CSV_BLOCK_ROWS, 6), dtype=np.int64)
    with open(path, "wb") as fh:
        fh.write(b"seq,carrier,t_scheduled,t_tx_start,t_tx_end,t_arrival\r\n")
        for start in range(0, len(trace), _CSV_BLOCK_ROWS):
            listed = trace.order[start:start + _CSV_BLOCK_ROWS]
            rows = block[:listed.size]
            seq, carrier, scheduled, tx_start, tx_end, arrival = rows.T
            np.take(trace.seq, listed, out=seq)
            carrier[:] = trace.carrier[seq]  # int8, widened a block at a time
            np.take(trace.t_scheduled_ns, listed, out=scheduled)
            np.take(trace.t_tx_end_ns, listed, out=tx_end)
            np.subtract(tx_end, service[carrier], out=tx_start)
            np.take(trace.t_arrival_ns, listed, out=arrival)
            fh.write(b"%d,%d,%d,%d,%d,%d\r\n" * listed.size % tuple(rows.ravel().tolist()))
