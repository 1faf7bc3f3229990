"""Property-based checks of the transport engine over random scenarios.

Scenarios come from the parameter space of ``helpers``' random builders:
any bundled MODCOD and fill rate whose frame share holds the PDU, symbol
rates of 0.5-8 Msym/s, constant or sinusoidally varying paths, 1-4 bursts
whose gaps may be shorter than the time a burst needs to drain, and either
scheduler.  The vectorised path delay is checked on its own against the
scalar oracle over random orbits and send times up to 2**62 ns.  Examples
are derandomized, so the suite stays deterministic.
"""

import math
from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from casim.emulator import pdu_service_time_ns, pdu_service_time_s, propagation_delays_ns, run
from casim.model import MODCODS, Burst, CarrierConfig, OrbitModel, ScenarioConfig, SchedulerKind
from casim.scheduler import build_plan
from helpers import rows
import oracle

FILL_RATES = tuple(Fraction(k, 4) for k in range(1, 5))


@st.composite
def carriers(draw, pdu_size: int) -> CarrierConfig:
    modcod, fill = draw(st.sampled_from([
        (modcod, fill) for modcod in MODCODS.values() for fill in FILL_RATES
        if 64800 * modcod.code_rate * fill / 8 >= pdu_size]))
    if draw(st.booleans()):
        orbit = OrbitModel.meo(
            float(draw(st.integers(8000, 15000))),
            amplitude_km=float(draw(st.integers(50, 500))),
            period_s=float(draw(st.integers(300, 1200))),
            phase_rad=draw(st.floats(0.0, 2.0 * math.pi)),
        )
    else:
        leg = float(draw(st.integers(8000, 45000)))
        orbit = OrbitModel("MEO" if leg < 20000 else "GEO", leg)
    return CarrierConfig(
        symbol_rate_sym_s=draw(st.integers(500, 8000)) * 1000,
        modcod=modcod,
        fill_rate=fill,
        snr_db=10.0,
        orbit=orbit,
    )


@st.composite
def scenarios(draw) -> ScenarioConfig:
    pdu_size = draw(st.sampled_from((400, 800, 1200, 1500)))
    a, b = draw(carriers(pdu_size)), draw(carriers(pdu_size))
    if a.usable_capacity_bps() < b.usable_capacity_bps():
        a, b = b, a
    service_s = max(pdu_service_time_s(c, pdu_size) for c in (a, b))
    sizes = draw(st.lists(st.integers(1, 80), min_size=1, max_size=4))
    # gaps up to the slower carrier's time for a whole burst: some bursts
    # overlap, some drain first
    bursts = [Burst(size, draw(st.floats(0.0, size * service_s))) for size in sizes]
    return ScenarioConfig(
        carrier1=a,
        carrier2=b,
        scheduler=draw(st.sampled_from(list(SchedulerKind))),
        pdu_size_bytes=pdu_size,
        bursts=bursts,
        label="property",
    )


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(scenarios())
def test_engine_invariants_and_heap_oracle(sc):
    plan = build_plan(sc)
    trace_rows = rows(run(sc, plan))
    assert [row[0] for row in trace_rows] == list(range(sc.total_pdus))

    service = {1: pdu_service_time_ns(sc.carrier1, sc.pdu_size_bytes),
               2: pdu_service_time_ns(sc.carrier2, sc.pdu_size_bytes)}
    last_end = {1: 0, 2: 0}
    for _, carrier, release, tx_start, tx_end, arrival in trace_rows:
        assert tx_start >= last_end[carrier]  # each carrier sends in seq order
        assert tx_start == max(release, last_end[carrier])
        assert tx_end - tx_start == service[carrier]
        assert arrival >= tx_end
        last_end[carrier] = tx_end

    assert trace_rows == oracle.heap_run(sc, plan)


@st.composite
def orbits(draw) -> OrbitModel:
    leg = draw(st.floats(1.0, 1e9))
    if draw(st.booleans()):
        return OrbitModel.geo(leg)
    return OrbitModel.meo(
        leg,
        amplitude_km=draw(st.floats(0.0, leg)),
        period_s=draw(st.floats(1e-3, 1e7)),
        phase_rad=draw(st.floats(-10.0, 10.0)),
    )


# Times past 2**53 ns are where float(t_ns) / 1e9 is not t_ns / 10**9.
send_times = st.lists(
    st.one_of(st.integers(0, 2**53), st.integers(2**53, 2**62)), min_size=1, max_size=40)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(orbits(), send_times)
# float(t_ns) / 1e9 and t_ns / 10**9 give delays 1 ns apart at this time
@example(OrbitModel.meo(), [163639291176357672])
def test_path_delays_match_scalar_oracle(orbit, times):
    cfg = CarrierConfig(
        symbol_rate_sym_s=1_000_000, modcod=MODCODS["QPSK 1/2"], fill_rate=1,
        snr_db=10.0, orbit=orbit)
    delays = propagation_delays_ns(cfg, np.array(times, dtype=np.int64))
    assert delays.dtype == np.int64
    assert delays.tolist() == [oracle._path_delay_ns(cfg, t) for t in times]
