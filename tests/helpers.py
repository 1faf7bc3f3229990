"""Shared scenario builders for the test suite."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np

from casim.metrics import OrderingReport, ordering_report
from casim.model import (
    MODCODS,
    Burst,
    CarrierConfig,
    OrbitModel,
    RunTrace,
    ScenarioConfig,
    SchedulerKind,
)
from casim.receiver import merge
import oracle

EIGHT_PSK_56 = MODCODS["8PSK 5/6"]


def rows(trace: RunTrace) -> list[tuple[int, ...]]:
    """A record's listed rows as (seq, carrier, scheduled, tx_start, tx_end, arrival)."""
    listed = trace._rows(0, len(trace))
    seq = trace.seq[listed]
    service = (0, *trace.service_ns)
    release = [r for r, size in zip(trace.release_ns, trace.burst_sizes) for _ in range(size)]
    return [(s, c, release[s], end - service[c], end, arrival)
            for s, c, end, arrival in zip(
                seq.tolist(), trace.carrier[seq].tolist(),
                trace.t_tx_end_ns[listed].tolist(), trace.t_arrival_ns[listed].tolist())]


def record(trace_rows) -> RunTrace:
    """The record of (seq, carrier, scheduled, tx_start, tx_end, arrival) rows,
    listed in carrier order.  The rows, in any order, name each seq 0..N-1
    once, and each carrier's rows share one service time, tx_end - tx_start
    (0 for a carrier with none).  Each maximal run of consecutive seqs that
    share one release is one burst."""
    by_seq = sorted(tuple(row) for row in trace_rows)
    assert [row[0] for row in by_seq] == list(range(len(by_seq))), "each seq 0..N-1 once"
    services = {}
    for _, carrier, _, tx_start, tx_end, _ in by_seq:
        services.setdefault(carrier, set()).add(tx_end - tx_start)
    assert all(len(s) == 1 for s in services.values()), "one service time per carrier"
    service = tuple(services.get(c, {0}).pop() for c in (1, 2))
    sizes, releases = [], []
    for row in by_seq:
        if releases and releases[-1] == row[2]:
            sizes[-1] += 1
        else:
            sizes.append(1)
            releases.append(row[2])
    in_rows = sorted(by_seq, key=lambda row: (row[1], row[0]))  # carrier order
    _, _, _, _, tx_end, arrival = zip(*in_rows) if in_rows else [()] * 6
    return RunTrace(*typed([row[1] for row in by_seq], service, tuple(sizes), tuple(releases),
                           tx_end, arrival))


def typed(carrier, service, burst_sizes, release_ns, *times) -> tuple:
    """``RunTrace``'s arguments: ``carrier`` as an int8 array, ``service``,
    ``burst_sizes`` and ``release_ns`` as given and each of the two
    ``times`` as an int64 array."""
    return (np.array(carrier, dtype=np.int8), service, burst_sizes, release_ns,
            *(np.array(column, dtype=np.int64) for column in times))


def seqs(trace: RunTrace) -> list[int]:
    """A record's sequence numbers in its listed order."""
    return trace.seq[trace._rows(0, len(trace))].tolist()


def columns(trace: RunTrace) -> tuple:
    """What a record stores, whichever order it lists: its arrays, its
    bursts and their releases."""
    return (trace.carrier, trace.seq, trace.burst_sizes, trace.release_ns, trace.t_tx_end_ns,
            trace.t_arrival_ns)


def synthetic_report(trace: RunTrace, burst_sizes=None) -> OrderingReport:
    """The ordering report of a synthetic record, merged, taken as the run of
    a 1500 B PDU scenario with ``burst_sizes`` (default: one burst of the
    whole stream)."""
    sizes = (len(trace),) if burst_sizes is None else burst_sizes
    scenario = ScenarioConfig(carrier(), carrier(), SchedulerKind.LOAD_BALANCING,
                              bursts=tuple(Burst(size) for size in sizes))
    return ordering_report(merge(trace), scenario)


def service_ns(c: CarrierConfig, pdu_size: int = 1500) -> int:
    """``c``'s per-PDU service time, as a scenario with ``c`` on both carriers
    derives it."""
    return ScenarioConfig(c, c, SchedulerKind.LOAD_BALANCING, pdu_size).service_ns[0]


def carrier(
    symbol_rate=4_640_000,
    modcod=EIGHT_PSK_56,
    fill_rate=Fraction(1, 4),
    snr_db=10.0,
    orbit=None,
) -> CarrierConfig:
    return CarrierConfig(
        symbol_rate_sym_s=symbol_rate,
        modcod=modcod,
        fill_rate=fill_rate,
        snr_db=snr_db,
        orbit=orbit if orbit is not None else OrbitModel.geo(),
    )


def alpha_scenario(
    alpha: Fraction,
    scheduler=SchedulerKind.LOAD_BALANCING,
    orbit1=None,
    orbit2=None,
    bursts=(Burst(2500, 30.0), Burst(2500, 0.0)),
    label="test",
) -> ScenarioConfig:
    """Two carriers differing only in symbol rate, giving the requested alpha."""
    rate1 = Fraction(4_640_000)
    return ScenarioConfig(
        carrier1=carrier(rate1, orbit=orbit1),
        carrier2=carrier(rate1 * Fraction(alpha), orbit=orbit2),
        scheduler=scheduler,
        pdu_size_bytes=1500,
        bursts=bursts,
        label=label,
    )


def _random_carrier(rng: random.Random, pdu_size: int, varying_meo: bool = False) -> CarrierConfig:
    """Random carrier whose frame share holds a ``pdu_size`` PDU.  Its path is
    a sinusoidally varying MEO orbit when ``varying_meo`` is set, else a
    constant one whose kind follows from the drawn leg distance."""
    while True:
        modcod = rng.choice(list(MODCODS.values()))
        fill = Fraction(rng.randint(1, 4), 4)
        share_bytes = 64800 * modcod.code_rate * fill / 8
        if share_bytes >= pdu_size:
            break
    if varying_meo:
        orbit = OrbitModel.meo(
            float(rng.randint(8000, 15000)),
            amplitude_km=float(rng.randint(50, 500)),
            period_s=float(rng.randint(300, 1200)),
            phase_rad=rng.uniform(0.0, 2.0 * math.pi),
        )
    else:
        leg = float(rng.randint(8000, 45000))
        orbit = OrbitModel("MEO" if leg < 20000 else "GEO", leg)
    return CarrierConfig(
        symbol_rate_sym_s=rng.randint(500, 8000) * 1000,
        modcod=modcod,
        fill_rate=fill,
        snr_db=10.0,
        orbit=orbit,
    )


def _random_sizes(rng: random.Random, n_bursts: int, total: int) -> list[int]:
    """``total`` PDUs cut into ``n_bursts`` bursts of at least one PDU."""
    sizes = []
    remaining = total
    for i in range(n_bursts - 1):
        take = rng.randint(1, remaining - (n_bursts - 1 - i))
        sizes.append(take)
        remaining -= take
    sizes.append(remaining)
    return sizes


def random_constant_delay_scenario(rng: random.Random) -> ScenarioConfig:
    """Random valid scenario with constant delays and well-separated bursts."""
    pdu_size = rng.choice((400, 800, 1200, 1500))
    a, b = _random_carrier(rng, pdu_size), _random_carrier(rng, pdu_size)
    if a.usable_capacity_bps() < b.usable_capacity_bps():
        a, b = b, a

    n_bursts = rng.randint(1, 3)
    sizes = _random_sizes(rng, n_bursts, rng.randint(n_bursts, 200))
    bursts = tuple(Burst(size, 120.0) for size in sizes)

    return ScenarioConfig(
        carrier1=a,
        carrier2=b,
        scheduler=rng.choice((SchedulerKind.LOAD_BALANCING, SchedulerKind.ROUND_ROBIN)),
        pdu_size_bytes=pdu_size,
        bursts=bursts,
        label="random",
    )


def random_overlapping_meo_scenario(rng: random.Random) -> ScenarioConfig:
    """Random valid scenario with a varying MEO path on one or both carriers
    and 1-4 bursts, each released before the previous one can have drained.

    A burst of k PDUs needs at least k * s / 2 to drain, with s the shorter
    per-PDU service time of the two carriers; every gap is drawn below that.
    """
    pdu_size = rng.choice((400, 800, 1200, 1500))
    a = _random_carrier(rng, pdu_size, varying_meo=True)
    b = _random_carrier(rng, pdu_size, varying_meo=rng.random() < 0.5)
    if a.usable_capacity_bps() < b.usable_capacity_bps():
        a, b = b, a
    service_s = min(oracle._service_ns(c, pdu_size) for c in (a, b)) / 1e9

    n_bursts = rng.randint(1, 4)
    sizes = _random_sizes(rng, n_bursts, rng.randint(max(n_bursts, 2), 300))
    bursts = tuple(
        Burst(size, rng.uniform(0.0, size * service_s / 2)) for size in sizes)

    return ScenarioConfig(
        carrier1=a,
        carrier2=b,
        scheduler=rng.choice((SchedulerKind.LOAD_BALANCING, SchedulerKind.ROUND_ROBIN)),
        pdu_size_bytes=pdu_size,
        bursts=bursts,
        label="random_meo",
    )
