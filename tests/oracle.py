"""Independent brute-force references used only by the test suite.

`fluid_arrivals` re-derives every PDU's timing from closed-form prefix sums
(no event queue); `heap_run` simulates the two carrier FIFOs event by event,
merging releases with a heap of transmission ends; `brute_displacement`
computes displacement statistics by literal per-element iteration;
`burst_report` walks a merged stream row by row to rebuild the per-burst
ordering report; `prefix` sizes the multi-orbit prefix in exact `Fraction`s.
All deliberately hardcode their constants and the prefix-then-cycle rule
instead of importing them from the production modules, and use no numpy.  `PAPER_LOOKUP_TABLE` holds the paper's 17
scheduling cycles and `christoffel_cycle` builds any cycle PDU by PDU: the
references for the cycle generator.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from fractions import Fraction

from casim.model import ScenarioConfig
from casim.scheduler import SchedulingPlan

NS_PER_S = 10**9
LIGHT_SPEED_KM_S = 299792.458
NOMINAL_LIGHT_SPEED_KM_S = 300000
SF_SYMBOLS = 612540
BUNDLE_FRAMES = 9
FEC_BITS = 64800


# The paper's scheduling cycles by load balancing factor: 1 = PDU to
# carrier 1, 2 = PDU to carrier 2.
PAPER_LOOKUP_TABLE: dict[Fraction, tuple[int, ...]] = {
    Fraction("0.2"): (1, 1, 1, 1, 1, 2),
    Fraction("0.25"): (1, 1, 1, 1, 2),
    Fraction("0.3"): (1, 1, 1, 2, 1, 1, 1, 2, 1, 1, 1, 1, 2),
    Fraction("0.35"): (1, 1, 2, 1, 1, 1, 2, 1, 1, 1, 2, 1, 1, 1, 2, 1, 1, 1, 2,
                       1, 1, 1, 2, 1, 1, 1, 2),
    Fraction("0.4"): (1, 1, 2, 1, 1, 1, 2),
    Fraction("0.45"): (1, 1, 2, 1, 1, 2, 1, 1, 2, 1, 1, 2, 1, 1, 1, 2, 1, 1, 2,
                       1, 1, 2, 1, 1, 2, 1, 1, 1, 2),
    Fraction("0.5"): (1, 1, 2),
    Fraction("0.55"): (1, 2, 1, 1, 2, 1, 1, 2, 1, 1, 2, 1, 1, 2, 1, 2, 1, 1, 2,
                       1, 1, 2, 1, 1, 2, 1, 1, 2, 1, 1, 2),
    Fraction("0.6"): (1, 2, 1, 1, 2, 1, 1, 2),
    Fraction("0.65"): (1, 2, 1, 1, 2, 1, 2, 1, 1, 2, 1, 2, 1, 1, 2, 1, 2, 1, 1,
                       2, 1, 2, 1, 1, 2, 1, 2, 1, 1, 2, 1, 1, 2),
    Fraction("0.7"): (1, 2, 1, 2, 1, 1, 2, 1, 2, 1, 1, 2, 1, 2, 1, 1, 2),
    Fraction("0.75"): (1, 2, 1, 2, 1, 1, 2),
    Fraction("0.8"): (1, 2, 1, 2, 1, 2, 1, 1, 2),
    Fraction("0.85"): (1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 1, 2, 1, 2, 1, 2, 1, 2,
                       1, 2, 1, 2, 1, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 1, 2),
    Fraction("0.9"): (1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 1, 2),
    Fraction("0.95"): (1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1,
                       2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 1, 2),
    Fraction(1): (1, 2),
}


def christoffel_cycle(p: int, q: int) -> list[int]:
    """The cycle of q ones and p twos for a reduced alpha = p/q <= 1, built
    PDU by PDU: carrier 1 unless that would leave the count of twos more
    than one short of p/q times the count of ones."""
    ones = twos = 0
    cycle: list[int] = []
    while ones < q or twos < p:
        if ones < q and q * (twos + 1) >= p * (ones + 1):
            cycle.append(1)
            ones += 1
        else:
            cycle.append(2)
            twos += 1
    return cycle


def _pdus_per_frame(carrier, pdu_size_bytes: int) -> int:
    per_frame = int(
        Fraction(FEC_BITS) * carrier.modcod.code_rate * carrier.fill_rate
        / (8 * pdu_size_bytes)
    )
    assert per_frame >= 1, "oracle requires at least one PDU per frame"
    return per_frame


def prefix(scenario: ScenarioConfig) -> tuple[int | None, int, Fraction]:
    """The multi-orbit prefix as a plan holds it (carrier, None iff the
    length is 0, and length) and its exact unfloored length: the PDUs the
    shorter-leg carrier (carrier 1 on a tie) sends while light covers the
    legs' difference twice at 300000 km/s."""
    legs = [Fraction(c.orbit.mean_leg_distance_km)
            for c in (scenario.carrier1, scenario.carrier2)]
    index = 1 if legs[0] <= legs[1] else 2
    fast = (scenario.carrier1, scenario.carrier2)[index - 1]
    delay_s = 2 * abs(legs[1] - legs[0]) / NOMINAL_LIGHT_SPEED_KM_S
    raw = (_pdus_per_frame(fast, scenario.pdu_size_bytes) * BUNDLE_FRAMES
           * fast.modcod.bits_per_symbol * fast.symbol_rate_sym_s * delay_s / SF_SYMBOLS)
    length = math.floor(raw)
    return (index if length else None), length, raw


def _service_ns(carrier, pdu_size_bytes: int) -> int:
    per_frame = _pdus_per_frame(carrier, pdu_size_bytes)
    frame_ns = Fraction(SF_SYMBOLS * NS_PER_S) / (
        BUNDLE_FRAMES * carrier.modcod.bits_per_symbol * carrier.symbol_rate_sym_s
    )
    return round(frame_ns / per_frame)


def _prop_ns(carrier) -> int:
    assert carrier.orbit.variation_amplitude_km == 0, "oracle requires constant delays"
    return _path_delay_ns(carrier, 0)


def _path_delay_ns(carrier, t_ns: int) -> int:
    """Delay of ``carrier``'s path for a PDU leaving at ``t_ns``: two legs of
    mean + amplitude * sin(2 pi t / period + phase) kilometres."""
    orbit = carrier.orbit
    leg_km = orbit.mean_leg_distance_km
    if orbit.variation_amplitude_km != 0.0:
        phase = 2.0 * math.pi * (float(t_ns) / NS_PER_S) / orbit.variation_period_s
        leg_km += orbit.variation_amplitude_km * math.sin(phase + orbit.variation_phase_rad)
    return round(2.0 * leg_km / LIGHT_SPEED_KM_S * NS_PER_S)


def _carrier_of(plan: SchedulingPlan, seq: int) -> int:
    """Carrier of PDU ``seq``: the prefix carrier, else the cycle entry."""
    if seq < plan.prefix_length:
        return plan.prefix_carrier
    return plan.cycle[(seq - plan.prefix_length) % len(plan.cycle)]


def fluid_arrivals(
    scenario: ScenarioConfig, plan: SchedulingPlan
) -> list[tuple[int, int, int, int, int, int]]:
    """Per-PDU (seq, carrier, scheduled, tx_start, tx_end, arrival) tuples.

    arrival(seq) = burst release + k * service_time(carrier) + prop_delay,
    with k the PDU's 1-based position within its carrier inside its burst.
    Requires constant delays and bursts that do not overlap (each burst's
    queues drain before the next release).
    """
    carriers = {1: scenario.carrier1, 2: scenario.carrier2}
    service = {i: _service_ns(c, scenario.pdu_size_bytes) for i, c in carriers.items()}
    prop = {i: _prop_ns(c) for i, c in carriers.items()}

    rows = []
    release_ns = 0
    seq = 0
    for burst_index, burst in enumerate(scenario.bursts):
        counts = {1: 0, 2: 0}
        for _ in range(burst.pdu_count):
            carrier = _carrier_of(plan, seq)
            counts[carrier] += 1
            tx_end = release_ns + counts[carrier] * service[carrier]
            rows.append(
                (seq, carrier, release_ns, tx_end - service[carrier], tx_end,
                 tx_end + prop[carrier])
            )
            seq += 1
        last_tx_end = max(row[4] for row in rows[-burst.pdu_count:])
        release_ns += round(burst.inter_burst_gap_s * NS_PER_S)
        assert (burst_index == len(scenario.bursts) - 1
                or release_ns >= last_tx_end), "oracle requires non-overlapping bursts"
    rows.sort(key=lambda row: (row[5], row[1], row[0]))
    return rows


def heap_run(
    scenario: ScenarioConfig, plan: SchedulingPlan
) -> list[tuple[int, int, int, int, int, int]]:
    """Per-PDU (seq, carrier, scheduled, tx_start, tx_end, arrival) tuples in
    sequence order, from an event loop.

    Releases are taken in sequence order and merged with a heap of
    transmission ends; on a tie the release goes first.  A released PDU joins
    its carrier's FIFO, whose head is on the air, and starts at once if the
    FIFO was empty.  When a transmission ends, its PDU leaves for the path
    delay at that instant and the next PDU in the FIFO starts.
    """
    carriers = {1: scenario.carrier1, 2: scenario.carrier2}
    service = {i: _service_ns(c, scenario.pdu_size_bytes) for i, c in carriers.items()}
    n = sum(burst.pdu_count for burst in scenario.bursts)
    carrier = [_carrier_of(plan, seq) for seq in range(n)]
    release = []
    release_ns = 0
    for burst in scenario.bursts:
        release += [release_ns] * burst.pdu_count
        release_ns += round(burst.inter_burst_gap_s * NS_PER_S)

    tx_start = [0] * n
    tx_end = [0] * n
    arrival = [0] * n
    fifo = {1: deque(), 2: deque()}
    tx_ends = []  # heap of (tx_end_ns, seq)

    def start_tx(carrier_idx: int, now_ns: int) -> None:
        head = fifo[carrier_idx][0]
        tx_start[head] = now_ns
        tx_end[head] = now_ns + service[carrier_idx]
        heapq.heappush(tx_ends, (tx_end[head], head))

    next_seq = 0
    while next_seq < n or tx_ends:
        if next_seq < n and (not tx_ends or release[next_seq] <= tx_ends[0][0]):
            seq, now_ns = next_seq, release[next_seq]
            next_seq += 1
            fifo[carrier[seq]].append(seq)
            if len(fifo[carrier[seq]]) == 1:
                start_tx(carrier[seq], now_ns)
        else:
            now_ns, seq = heapq.heappop(tx_ends)
            arrival[seq] = now_ns + _path_delay_ns(carriers[carrier[seq]], now_ns)
            fifo[carrier[seq]].popleft()
            if fifo[carrier[seq]]:
                start_tx(carrier[seq], now_ns)

    return list(zip(range(n), carrier, release, tx_start, tx_end, arrival))


def brute_displacement(perm: list[int]) -> tuple[int, float, int]:
    """(misplaced count, mean over misplaced, max) of |i - perm[i]|."""
    if sorted(perm) != list(range(len(perm))):
        raise ValueError("input is not a permutation of 0..n-1")
    count = 0
    total = 0
    worst = 0
    for i, s in enumerate(perm):
        d = abs(i - s)
        if d > 0:
            count += 1
            total += d
        if d > worst:
            worst = d
    return count, (total / count if count else 0.0), worst


def burst_report(merged_rows, burst_sizes, pdu_size_bytes: int) -> dict:
    """The ordering report, in ``OrderingReport.as_dict()`` form, of merged
    (seq, carrier, scheduled, tx_start, tx_end, arrival) rows given in
    receive order.

    Each burst's sequence numbers restart at 0, and its k-th received PDU
    has local position k.  A burst's active window runs from its first tx
    start to its last arrival.
    """
    first_seq = []
    start = 0
    for size in burst_sizes:
        first_seq.append(start)
        start += size
    n_bursts = len(burst_sizes)
    received = [0] * n_bursts
    misplaced = [0] * n_bursts
    distance_sum = [0] * n_bursts
    worst = [0] * n_bursts
    first_tx = [None] * n_bursts
    last_arrival = [None] * n_bursts
    for seq, _, _, tx_start, _, arrival in merged_rows:
        burst = max(b for b in range(n_bursts) if first_seq[b] <= seq)
        d = abs(received[burst] - (seq - first_seq[burst]))
        received[burst] += 1
        if d > 0:
            misplaced[burst] += 1
            distance_sum[burst] += d
        worst[burst] = max(worst[burst], d)
        if first_tx[burst] is None or tx_start < first_tx[burst]:
            first_tx[burst] = tx_start
        if last_arrival[burst] is None or arrival > last_arrival[burst]:
            last_arrival[burst] = arrival

    def rate(n, window_ns):
        return n * pdu_size_bytes * 8 * NS_PER_S / window_ns if window_ns > 0 else 0.0

    windows = [last - first for first, last in zip(first_tx, last_arrival)]
    per_burst = [
        {
            "n_pdus": received[b],
            "misplaced_count": misplaced[b],
            "mean_misplace": distance_sum[b] / misplaced[b] if misplaced[b] else 0.0,
            "max_misplace": worst[b],
            "throughput_bps": rate(received[b], windows[b]),
        }
        for b in range(n_bursts)
    ]
    count = sum(misplaced)
    return {
        "n_pdus": sum(received),
        "misplaced_count": count,
        "mean_misplace": sum(distance_sum) / count if count else 0.0,
        "max_misplace": max(worst),
        "throughput_bps": rate(sum(received), sum(windows)),
        "per_burst": per_burst,
    }
