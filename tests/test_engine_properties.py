"""Property-based checks of the transport engine over random scenarios.

Scenarios come from the parameter space of ``helpers``' random builders:
any bundled MODCOD and fill rate whose frame share holds the PDU, symbol
rates of 0.5-8 Msym/s (or, for both carriers, rates of 1e14 sym/s and up,
whose service times round to 0 ns), constant or sinusoidally varying paths
(some with sub-second periods, along which arrivals can fall from one PDU to
the next on a carrier), 1-8 bursts whose gaps may be zero or shorter than
the time a burst needs to drain, and either scheduler.  A multi-orbit
prefix longer than the first bursts leaves the slow carrier with no PDU in
them.  Runs whose times end near 2**63 ns are checked against the
documented int64 horizon and the oracle.  The vectorised path delay is
checked on its own against the scalar oracle over random orbits and send
times up to 2**62 ns, the carrier column and each burst's split across the
carriers against the per-PDU rule over random plans, the ordering report
against the row-by-row oracle, and the multi-orbit prefix against the
oracle's exact one.  Examples are derandomized (``conftest``'s profile),
so the suite stays deterministic.
"""

import math
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from casim.emulator import _delays_ns, run
from casim.errors import InvariantError
from casim.metrics import ordering_report
from casim.model import (MODCODS, SPEED_OF_LIGHT_KM_S, Burst, CarrierConfig, OrbitModel,
                         ScenarioConfig, SchedulerKind, _carrier_split)
from casim.receiver import merge
from casim.scheduler import SchedulingPlan, assignments, build_plan, multi_orbit_prefix
from helpers import alpha_scenario, carrier, rows, seqs
import oracle

FILL_RATES = tuple(Fraction(k, 4) for k in range(1, 5))


@st.composite
def carriers(draw, pdu_size: int, instant: bool = False) -> CarrierConfig:
    modcod, fill = draw(st.sampled_from([
        (modcod, fill) for modcod in MODCODS.values() for fill in FILL_RATES
        if 64800 * modcod.code_rate * fill / 8 >= pdu_size]))
    if draw(st.booleans()):
        fast = draw(st.integers(0, 3)) == 0  # one varying path in four: a sub-second period
        orbit = OrbitModel.meo(
            float(draw(st.integers(8000, 15000))),
            amplitude_km=float(draw(st.integers(50, 5000 if fast else 500))),
            period_s=draw(st.floats(0.005, 1.0) if fast
                          else st.integers(300, 1200).map(float)),
            phase_rad=draw(st.floats(0.0, 2.0 * math.pi)),
        )
    else:
        leg = float(draw(st.integers(8000, 45000)))
        orbit = OrbitModel("MEO" if leg < 20000 else "GEO", leg)
    return CarrierConfig(
        symbol_rate_sym_s=draw(st.integers(10**14, 10**15) if instant
                               else st.integers(500, 8000).map(lambda k: k * 1000)),
        modcod=modcod,
        fill_rate=fill,
        snr_db=10.0,
        orbit=orbit,
    )


@st.composite
def scenarios(draw) -> ScenarioConfig:
    pdu_size = draw(st.sampled_from((400, 800, 1200, 1500)))
    instant = draw(st.integers(0, 9)) == 0  # one in ten: zero service times
    a, b = draw(carriers(pdu_size, instant)), draw(carriers(pdu_size, instant))
    if a.usable_capacity_bps() < b.usable_capacity_bps():
        a, b = b, a
    service_s = max(oracle._service_ns(c, pdu_size) for c in (a, b)) / 1e9
    sizes = draw(st.lists(st.integers(1, 80), min_size=1, max_size=8))
    # gaps of zero, or up to the slower carrier's time for a whole burst: some
    # bursts overlap, some drain first
    bursts = [Burst(size, draw(st.one_of(st.just(0.0), st.floats(0.0, size * service_s))))
              for size in sizes]
    return ScenarioConfig(
        carrier1=a,
        carrier2=b,
        scheduler=draw(st.sampled_from(list(SchedulerKind))),
        pdu_size_bytes=pdu_size,
        bursts=bursts,
        label="property",
    )


@settings(max_examples=60)
@given(scenarios())
def test_engine_invariants_and_heap_oracle(sc):
    plan = build_plan(sc)
    trace_rows = sorted(rows(run(sc, plan)))
    assert [row[0] for row in trace_rows] == list(range(sc.total_pdus))

    service = dict(zip((1, 2), sc.service_ns))
    last_end = {1: 0, 2: 0}
    for _, carrier, release, tx_start, tx_end, arrival in trace_rows:
        assert tx_start >= last_end[carrier]  # each carrier sends in seq order
        assert tx_start == max(release, last_end[carrier])
        assert tx_end - tx_start == service[carrier]
        assert arrival >= tx_end
        last_end[carrier] = tx_end

    assert trace_rows == oracle.heap_run(sc, plan)


# meo_geo with carrier 1's path varying every 10 ms by up to 5000 km: its
# delay falls faster than its PDUs leave, so its arrivals fall at times.
FAST_MEO = alpha_scenario(
    Fraction(2, 5), orbit1=OrbitModel.meo(amplitude_km=5000.0, period_s=0.01),
    orbit2=OrbitModel.geo(), bursts=(Burst(2500, 0.5), Burst(2500)))


def test_fast_meo_arrivals_fall_along_a_carrier():
    arrivals = [row[5] for row in rows(run(FAST_MEO, build_plan(FAST_MEO))) if row[1] == 1]
    assert sum(b < a for a, b in zip(arrivals, arrivals[1:])) > 100


@settings(max_examples=60)
@given(scenarios())
@example(FAST_MEO)
def test_merge_is_the_lexsort_of_the_rows(sc):
    """The receive order of a run lists its rows by arrival, ties to carrier 1
    and then to the lower sequence number, as a lexsort of its rows does."""
    trace = run(sc, build_plan(sc))
    seq, carrier, arrival = (np.array(column) for column in zip(*(
        (row[0], row[1], row[5]) for row in rows(trace))))
    assert seqs(merge(trace)) == seq[np.lexsort((seq, carrier, arrival))].tolist()


@settings(max_examples=100)
@given(scenarios())
@example(FAST_MEO)
def test_ordering_report_matches_row_by_row_oracle(sc):
    """Each burst's window reads its rows on each carrier through the split,
    including bursts wholly on one carrier (behind a prefix, or of one PDU)."""
    assume(sc.total_pdus >= 2)
    merged = merge(run(sc, build_plan(sc)))
    assert ordering_report(merged, sc).as_dict() == oracle.burst_report(
        rows(merged), sc.burst_sizes, sc.pdu_size_bytes)


@settings(max_examples=200)
@given(scenarios())
@example(alpha_scenario(Fraction(2, 5)))  # equal orbits
@example(alpha_scenario(Fraction(2, 5), orbit1=OrbitModel.meo(), orbit2=OrbitModel.geo()))
def test_prefix_matches_exact_oracle(sc):
    carrier, length, raw = oracle.prefix(sc)
    # the float raw is a few roundings off the exact one, so a floor this
    # near an integer may land either side
    assume(raw == 0 or abs(raw - round(raw)) > 1e-9 * max(1, raw))
    plan = build_plan(replace(sc, scheduler=SchedulerKind.LOAD_BALANCING))
    assert (plan.prefix_carrier, plan.prefix_length) == (carrier, length)
    prefix = multi_orbit_prefix(sc)
    assert math.isclose(prefix.raw, raw, rel_tol=1e-12)
    assert prefix.length == (length if sc.scheduler is SchedulerKind.LOAD_BALANCING else 0)


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


@settings(max_examples=300)
@given(orbits(), send_times)
# float(t_ns) / 1e9 and t_ns / 10**9 give delays 1 ns apart at this time
@example(OrbitModel.meo(), [163639291176357672])
def test_path_delays_match_scalar_oracle(orbit, times):
    cfg = CarrierConfig(
        symbol_rate_sym_s=1_000_000, modcod=MODCODS["QPSK 1/2"], fill_rate=1,
        snr_db=10.0, orbit=orbit)
    delays = _delays_ns(orbit, np.array(times, dtype=np.int64), np.empty(len(times), np.int64))
    assert delays.tolist() == [oracle._path_delay_ns(cfg, t) for t in times]


INT64_MAX = 2**63 - 1


@st.composite
def horizon_scenarios(draw) -> ScenarioConfig:
    """2-12 PDUs whose times end near 2**63 ns: service times near 2**63 / N,
    gaps of up to 2e9 s, legs up to 1.5e15 km (a peak delay of up to ~2.2 x
    2**63 ns), amplitudes up to the leg, and periods down to the smallest a
    phase in [0, 2 pi] allows.  Some runs fit in int64 and some do not."""
    n = draw(st.integers(2, 12))
    cfgs = []
    # carrier 1 takes the shorter service time, so it does not dominate
    for service in sorted(draw(st.integers(2**63 // (4 * n), 2**63 // n)) for _ in range(2)):
        leg = draw(st.floats(1.0, 1.5e15))
        orbit = OrbitModel.meo(
            leg,
            amplitude_km=draw(st.one_of(st.sampled_from((0.0, leg)), st.floats(0.0, leg))),
            period_s=draw(st.one_of(st.floats(3.3e-298, 1e-290), st.floats(1e-3, 1e12))),
            phase_rad=draw(st.floats(0.0, 2.0 * math.pi)),
        )
        rate = Fraction(612540 * 10**9, 27 * service)  # one 1500 B PDU per frame
        cfgs.append(carrier(rate, orbit=orbit))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=2)))
    bursts = [Burst(hi - lo, draw(st.one_of(st.just(0.0), st.floats(0.0, 2e9))))
              for lo, hi in zip([0, *cuts], [*cuts, n])]
    return ScenarioConfig(*cfgs, draw(st.sampled_from(list(SchedulerKind))), bursts=bursts)


@settings(max_examples=200)
@given(horizon_scenarios())
def test_runs_near_the_int64_horizon(sc):
    """``run`` refuses a scenario exactly when its documented horizon is
    passed: the last release plus N times the larger service time, or a
    carrier's last tx end plus its path's peak delay, 2 (leg + amplitude) /
    c, for a carrier that takes a PDU.  Otherwise its rows are the oracle's,
    with no RuntimeWarning on the way."""
    plan = build_plan(sc)
    expected = oracle.heap_run(sc, plan)
    last_release = expected[-1][2]
    over = last_release + sc.total_pdus * max(sc.service_ns) > INT64_MAX
    for i, cfg in ((1, sc.carrier1), (2, sc.carrier2)):
        ends = [row[4] for row in expected if row[1] == i]
        orbit = cfg.orbit
        peak = 2.0 * (orbit.mean_leg_distance_km + orbit.variation_amplitude_km) \
            / SPEED_OF_LIGHT_KM_S * 1e9
        over |= bool(ends) and max(ends) + round(peak) > INT64_MAX
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        if over:
            with pytest.raises(InvariantError, match="int64 range"):
                run(sc, plan)
        else:
            assert sorted(rows(run(sc, plan))) == expected


@st.composite
def plans(draw) -> SchedulingPlan:
    cycle = draw(st.lists(st.sampled_from((1, 2)), min_size=1, max_size=128)
                 .filter(lambda c: 1 in c))
    length = draw(st.integers(0, 60))
    return SchedulingPlan(cycle, draw(st.sampled_from((1, 2))) if length else None, length)


@settings(max_examples=200)
@given(plans(), st.integers(0, 300))
def test_assignments_match_per_pdu_rule(plan, n):
    column = assignments(plan, n)
    assert column.dtype == np.int8
    assert column.tolist() == [oracle._carrier_of(plan, seq) for seq in range(n)]


@settings(max_examples=200)
@given(plans(), st.lists(st.integers(1, 150), min_size=1, max_size=8))
# the first two bursts lie inside a carrier-2 prefix, the third straddles its end
@example(SchedulingPlan((1, 1, 2), 2, 50), [10, 40, 30])
def test_carrier_split_matches_per_pdu_rule(plan, sizes):
    column = [oracle._carrier_of(plan, seq) for seq in range(sum(sizes))]
    heads = [sum(sizes[:b]) for b in range(len(sizes) + 1)]
    parts = [column[lo:hi] for lo, hi in zip(heads, heads[1:])]
    ones, twos = split = _carrier_split(assignments(plan, sum(sizes)), sizes)
    assert split == ([part.count(1) for part in parts], [part.count(2) for part in parts])
    assert all(type(count) is int for count in ones + twos)
