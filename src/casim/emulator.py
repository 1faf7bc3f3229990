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
from .model import NS_PER_S, CarrierConfig, RunTrace, ScenarioConfig
from .scheduler import SchedulingPlan, assignments

__all__ = [
    "propagation_delays_ns",
    "run",
    "write_trace_csv",
]

INT64_MAX = np.iinfo(np.int64).max


def propagation_delays_ns(carrier: CarrierConfig, t_ns: np.ndarray) -> np.ndarray:
    """Delays (int64 ns) of ``carrier``'s path for PDUs leaving at int64 ``t_ns``
    >= 0: ``OrbitModel.propagation_delay_s`` at float(t_ns) / 1e9, rounded half to
    even.  Raises InvariantError unless every delay is a number in int64."""
    orbit = carrier.orbit
    if orbit.variation_amplitude_km == 0.0:  # a constant path: one delay, never nan
        if not t_ns.size:  # no PDU takes it, so it is not evaluated
            return np.empty(0, dtype=np.int64)
        delay_ns = orbit.mean_propagation_delay_s() * NS_PER_S
        if not delay_ns < 2.0**63:
            raise InvariantError("arrival times exceed the int64 range")
        return np.full(t_ns.shape, round(delay_ns), dtype=np.int64)
    # Overflow leaves inf and sin(inf) nan, which the range check rejects.
    with np.errstate(over="ignore", invalid="ignore"):
        buffer = t_ns / NS_PER_S  # the one float array: times in s, then delays in s, in ns
        delay_ns = orbit.propagation_delay_s(buffer, out=buffer)
        np.rint(np.multiply(delay_ns, NS_PER_S, out=delay_ns), out=delay_ns)
    # A finite delay is >= 0 (amplitude <= mean leg), and nan fails the comparison.
    if delay_ns.size and not np.maximum.reduce(delay_ns) < 2.0**63:
        raise InvariantError("propagation delay is not finite" if np.isnan(delay_ns).any()
                             else "arrival times exceed the int64 range")
    return delay_ns.astype(np.int64)


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
    carries none).  Each carrier's queue is one slice of the record's rows,
    written in place.
    """
    n = scenario.total_pdus
    carriers = (scenario.carrier1, scenario.carrier2)
    try:
        gaps_ns = (round(burst.inter_burst_gap_s * NS_PER_S) for burst in scenario.bursts[:-1])
        burst_start_ns = list(accumulate(gaps_ns, initial=0))
        fits = burst_start_ns[-1] + n * max(scenario.service_ns) <= INT64_MAX
    except OverflowError:  # a gap so long its ns count is an infinite float
        fits = False
    if not fits:
        raise InvariantError("transmission times exceed the int64 range")
    carrier = assignments(plan, n)
    burst_head = list(accumulate(scenario.burst_sizes[:-1], initial=0))  # first seq of each
    # Carriers are 1 or 2, so a burst's carrier sum is its size plus its PDUs on carrier 2.
    twos = [total - size for total, size in
            zip(np.add.reduceat(carrier, burst_head).tolist(), scenario.burst_sizes)]
    counts = ([size - k for size, k in zip(scenario.burst_sizes, twos)], twos)
    release = np.array(burst_start_ns * 2, dtype=np.int64).repeat(counts[0] + counts[1])
    tx_end, arrival = np.empty((2, n), dtype=np.int64)
    row = 0  # this carrier's first row
    for cfg, service, per_burst in zip(carriers, scenario.service_ns, counts):
        m = sum(per_burst)
        end = tx_end[row:row + m]
        np.multiply(np.arange(1, m + 1, dtype=np.int64), service, out=end)  # (k+1)·s
        # Burst b's PDUs are this carrier's queue indices first[b]..first[b+1]-1.
        # A burst with none has an empty slice, and its term r_b - first[b]·s
        # raises no later peak: the next burst with PDUs here has its head at
        # the same index and a release no earlier, so its own term is at least
        # as large; if no later burst has any, no slice is left to raise.
        first = list(accumulate(per_burst[:-1], initial=0))
        peaks = accumulate((r - j * service for r, j in zip(burst_start_ns, first)), max)
        for lo, hi, peak in zip(first, first[1:] + [m], peaks):
            if peak:
                end[lo:hi] += peak
        delay = propagation_delays_ns(cfg, end)
        # end is nondecreasing, so end + delay can only wrap if end[-1] + max delay does
        if m and int(end[-1]) + int(np.maximum.reduce(delay)) > INT64_MAX \
                and np.count_nonzero(delay > INT64_MAX - end):
            raise InvariantError("arrival times exceed the int64 range")
        np.add(delay, end, out=arrival[row:row + m])
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
