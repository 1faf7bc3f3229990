import math
import random
import tracemalloc
from dataclasses import replace
from itertools import accumulate
from fractions import Fraction

import numpy as np
import pytest

from casim.cli import bundled_scenario_dir
from casim.config import parse_scenario_file
from casim.emulator import _CSV_BLOCK_ROWS, _delays_ns, run, write_trace_csv
from casim.errors import InvariantError
from casim.metrics import ordering_report
from casim.model import SPEED_OF_LIGHT_KM_S, Burst, OrbitModel, ScenarioConfig, SchedulerKind
from casim.receiver import merge
from casim.scheduler import SchedulingPlan, build_plan
from helpers import (
    alpha_scenario,
    carrier,
    random_constant_delay_scenario,
    random_overlapping_meo_scenario,
    record,
    rows,
    seqs,
    service_ns,
)
import oracle


def _long_meo_geo() -> ScenarioConfig:
    """The bundled meo_geo scenario at 200k PDUs: 8 overlapping bursts of 25k."""
    return replace(parse_scenario_file(bundled_scenario_dir() / "meo_geo.cfg"),
                   bursts=(Burst(25_000, 0.5),) * 7 + (Burst(25_000),))


class TestServiceTime:
    def test_reference_value(self):
        service = service_ns(carrier(4_640_000)) / 1e9
        assert math.isclose(service, 612540 / (27 * 4_640_000), rel_tol=1e-6)

    def test_doubling_rate_halves_service(self):
        s1 = service_ns(carrier(4_640_000))
        s2 = service_ns(carrier(9_280_000))
        assert math.isclose(s2, s1 / 2, rel_tol=1e-6)

    def test_full_fill_divides_by_pdus_per_frame(self):
        quarter = service_ns(carrier(fill_rate=Fraction(1, 4)))
        full = service_ns(carrier(fill_rate=1))
        assert math.isclose(full, quarter / 4, rel_tol=1e-6)

    def test_oversized_pdu_propagates(self):
        with pytest.raises(InvariantError, match="exceeds the per-frame share"):
            service_ns(carrier(), 10_000)


class TestRun:
    def test_single_pdu_arrival(self):
        sc = alpha_scenario(Fraction(1), bursts=(Burst(1),))
        plan = build_plan(sc)
        ((_, _, _, tx_start, tx_end, arrival),) = rows(run(sc, plan))
        service = sc.service_ns[0]
        prop = round(sc.carrier1.orbit.propagation_delay_s(service / 1e9) * 1e9)
        assert tx_start == 0
        assert tx_end == service
        assert arrival == service + prop

    def test_balanced_alternation_arrives_in_seq_order(self):
        sc = alpha_scenario(Fraction(1), bursts=(Burst(400),))
        merged = merge(run(sc, build_plan(sc)))
        assert seqs(merged) == list(range(400))

    def test_two_burst_scenario_yields_all_traces(self):
        sc = alpha_scenario(Fraction(2, 5))
        traces = run(sc, build_plan(sc))
        assert len(traces) == 5000

    def test_conservation(self):
        sc = alpha_scenario(Fraction(2, 5), bursts=(Burst(777),))
        traces = run(sc, build_plan(sc))
        assert sorted(seqs(traces)) == list(range(777))

    def test_per_carrier_fifo(self):
        sc = alpha_scenario(Fraction(2, 5))
        merged = merge(run(sc, build_plan(sc)))
        for carrier_idx in (1, 2):
            on_carrier = [row[0] for row in rows(merged) if row[1] == carrier_idx]
            assert on_carrier == sorted(on_carrier)

    def test_determinism(self):
        sc = alpha_scenario(
            Fraction(2, 5),
            orbit1=OrbitModel.meo(),
            orbit2=OrbitModel.geo(),
            bursts=(Burst(600, 20.0), Burst(600, 0.0)),
        )
        plan = build_plan(sc)
        assert rows(run(sc, plan)) == rows(run(sc, plan))

    def test_throughput_bound(self):
        sc = alpha_scenario(Fraction(2, 5), bursts=(Burst(1000),))
        traces = run(sc, build_plan(sc))
        bits = 1000 * sc.pdu_size_bytes * 8
        trace_rows = rows(traces)
        duration_s = (max(row[5] for row in trace_rows) - min(row[3] for row in trace_rows)) / 1e9
        ceiling = float(
            sc.carrier1.usable_capacity_bps() + sc.carrier2.usable_capacity_bps())
        assert bits / duration_s <= ceiling

    def test_each_pdu_once_with_ordered_times(self):
        sc = alpha_scenario(Fraction(1, 2), bursts=(Burst(60),))
        trace_rows = rows(run(sc, build_plan(sc)))
        assert sorted(row[0] for row in trace_rows) == list(range(60))
        for _, _, _, tx_start, tx_end, arrival in trace_rows:
            assert tx_start <= tx_end <= arrival

    @pytest.mark.parametrize("orbit, bursts", [
        (OrbitModel.geo(), (Burst(5, 1e10), Burst(5))),  # release past int64
        (OrbitModel.geo(1e300), (Burst(5),)),  # delay past int64
        (OrbitModel.geo(1e308), (Burst(5),)),  # delay overflows to inf
        (OrbitModel.meo(1e300), (Burst(5),)),
        (OrbitModel.geo(1.35e15), (Burst(5, 3e8), Burst(5))),  # in range, sum past
        (OrbitModel.meo(1e308), (Burst(5),)),  # varying delay overflows to inf
        (OrbitModel.geo(), (Burst(5, 1e308), Burst(5))),  # gap in ns overflows to inf
    ])
    def test_times_past_int64_rejected(self, orbit, bursts):
        sc = alpha_scenario(Fraction(1), orbit1=orbit, orbit2=orbit, bursts=bursts)
        with pytest.raises(InvariantError, match="int64 range"):
            run(sc, build_plan(sc))

    # delays of 1.5 and 2.5 ns exactly both round half to even, to 2
    @pytest.mark.parametrize("orbit", [
        OrbitModel.geo(), OrbitModel.meo(amplitude_km=0.0), OrbitModel.geo(1.35e15),
        OrbitModel.geo(0.0002248443435), OrbitModel.geo(0.00037474057249999997)])
    def test_constant_path_delay_matches_oracle(self, orbit):
        times = [0, 1, 10**9, 2**62]
        delays = _delays_ns(orbit, np.array(times, dtype=np.int64), np.empty(4, dtype=np.int64))
        assert delays.tolist() == [oracle._path_delay_ns(carrier(orbit=orbit), t) for t in times]

    # a finite delay past int64, then one that overflows to inf
    @pytest.mark.parametrize("leg_km", [1e300, 1e308])
    def test_constant_delay_past_int64_unless_no_pdu_takes_it(self, leg_km):
        far = carrier(orbit=OrbitModel.geo(leg_km))
        sc = ScenarioConfig(far, far, SchedulerKind.LOAD_BALANCING, bursts=(Burst(2),))
        with pytest.raises(InvariantError, match="arrival times exceed the int64 range"):
            run(sc, build_plan(sc))  # alpha 1: one PDU on each carrier
        sc = replace(sc, carrier1=carrier())
        assert run(sc, SchedulingPlan((1,))).carrier.tolist() == [1, 1]  # none on the far path

    # At this leg, 2 L / c x 1e9 is 2.0**63 ns exactly, one past int64's max,
    # and the next smaller leg gives the largest double below it.  A MEO path
    # whose mean leg + amplitude is that leg peaks there, and at phase pi / 2
    # it is at its peak at t = 0, where service times of 0 ns send both PDUs.
    @pytest.mark.parametrize("kind", ["geo", "meo"])
    def test_delay_of_2_to_the_63_ns_rejected(self, kind):
        edge_leg_km = 1382548686988580.0

        def arrivals(leg_km):
            orbit = (OrbitModel.geo(leg_km) if kind == "geo"
                     else OrbitModel.meo(leg_km - 1.0, 1.0, phase_rad=math.pi / 2))
            cfg = carrier(10**15, orbit=orbit)
            sc = ScenarioConfig(cfg, cfg, SchedulerKind.LOAD_BALANCING, bursts=(Burst(2),))
            assert sc.service_ns == (0, 0)
            return run(sc, build_plan(sc)).t_arrival_ns.tolist()

        with pytest.raises(InvariantError, match="arrival times exceed the int64 range"):
            arrivals(edge_leg_km)
        assert arrivals(math.nextafter(edge_leg_km, 0)) == [2**63 - 1024] * 2

    def test_arrivals_up_to_the_int64_max(self):
        # A varying path (amplitude = leg) that peaks at P ns.  Six PDUs at
        # alpha 1 put three on each carrier.  With a period of 12 services,
        # each carrier's last ends at 3 x service as sin reaches 1, and
        # 3 x service + P is int64's max: it arrives at exactly 2**63 - 1.
        # One ns more service is refused, by the peak, also on the same path
        # half a period on, where the last PDU ends at the trough and every
        # arrival would fit.
        leg_km = 380200888921859.56
        peak_ns = round(2.0 * (leg_km + leg_km) / SPEED_OF_LIGHT_KM_S * 1e9)
        service = (2**63 - 1 - peak_ns) // 3
        assert 3 * service + peak_ns == 2**63 - 1
        assert 6 * service <= 2**63 - 1  # within run's bound on transmission times

        def scenario(service_ns: int, phase_rad: float = 0.0) -> ScenarioConfig:
            rate = Fraction(612540 * 10**9, 27 * service_ns)  # one 1500 B PDU per frame
            orbit = OrbitModel.meo(leg_km, leg_km, 12 * service / 1e9, phase_rad)
            cfg = carrier(rate, orbit=orbit)
            return ScenarioConfig(cfg, cfg, SchedulerKind.LOAD_BALANCING, bursts=(Burst(6),))

        accepted = scenario(service)
        plan = build_plan(accepted)
        trace = run(accepted, plan)
        assert trace.service_ns == (service, service)
        assert trace.t_arrival_ns.tolist()[2::3] == [2**63 - 1, 2**63 - 1]  # each last
        assert sorted(rows(trace)) == oracle.heap_run(accepted, plan)
        for phase_rad in (0.0, math.pi):  # the last PDU ends at the peak, then the trough
            refused = scenario(service + 1, phase_rad)
            with pytest.raises(InvariantError, match="arrival times exceed the int64 range"):
                run(refused, build_plan(refused))
        assert max(row[5] for row in oracle.heap_run(refused, build_plan(refused))) < 2**63 - 1

    def test_last_arrival_at_the_int64_max(self):
        # A constant path of delay D just above 2**62.  Six PDUs at alpha 1
        # put three on each carrier, whose last ends at 3 x service and
        # arrives at exactly 2**63 - 1.  Seven put four on carrier 1, whose
        # last arrives at 2**63 with its service a quarter of 2**63 - D.
        # (D, a float above 2**53, is even, so only an odd end reaches the max.)
        leg_km = 691274343494290.4
        delay_ns = round(2 * leg_km / SPEED_OF_LIGHT_KM_S * 1e9)
        assert delay_ns > 2**62 and (2**63 - 1 - delay_ns) % 3 == 0

        def scenario(service_ns: int, n: int) -> ScenarioConfig:
            rate = Fraction(612540 * 10**9, 27 * service_ns)  # one 1500 B PDU per frame
            cfg = carrier(rate, orbit=OrbitModel.meo(leg_km, 0.0))
            assert n * service_ns <= 2**63 - 1  # within run's bound on transmission times
            return ScenarioConfig(cfg, cfg, SchedulerKind.LOAD_BALANCING, bursts=(Burst(n),))

        accepted = scenario((2**63 - 1 - delay_ns) // 3, 6)
        trace = run(accepted, build_plan(accepted))
        assert np.bincount(trace.carrier).tolist() == [0, 3, 3]
        assert trace.t_arrival_ns.tolist()[2::3] == [2**63 - 1, 2**63 - 1]  # each last
        refused = scenario((2**63 - delay_ns) // 4, 7)
        with pytest.raises(InvariantError, match="arrival times exceed the int64 range"):
            run(refused, build_plan(refused))

    def test_nan_delay_rejected(self):
        # A varying path's phase, 2 pi t / period + phase, must be finite up to
        # t = 2**63 ns, or sin, and so the delay of a PDU sent that late, is
        # nan.  This is the smallest period at phase 0; a phase of 1e300 needs
        # a larger one.
        edge_s = 3.2236956653369823e-298
        orbit = OrbitModel.meo(period_s=edge_s)
        sc = alpha_scenario(Fraction(1), orbit1=orbit, orbit2=orbit, bursts=(Burst(5),))
        assert sorted(rows(run(sc, build_plan(sc)))) == oracle.heap_run(sc, build_plan(sc))
        for period_s, phase_rad in ((math.nextafter(edge_s, 0), 0.0), (edge_s, 1e300)):
            with pytest.raises(InvariantError, match="variation_period_s is too small"):
                OrbitModel.meo(period_s=period_s, phase_rad=phase_rad)

    def test_queue_carries_across_overlapping_bursts(self):
        # gap shorter than the drain time: the second burst must queue behind
        # the first, keeping each carrier work-conserving and order-preserving
        sc = alpha_scenario(
            Fraction(1, 2), bursts=(Burst(200, 0.05), Burst(200, 0.0)))
        traces = run(sc, build_plan(sc))
        assert len(traces) == 400
        for carrier_idx in (1, 2):
            ends = [row[4] for row in rows(traces) if row[1] == carrier_idx]
            service = sc.service_ns[carrier_idx - 1]
            diffs = [b - a for a, b in zip(sorted(ends), sorted(ends)[1:])]
            assert all(d >= service for d in diffs)

    def test_bursts_with_no_pdu_on_a_carrier(self):
        # The 15-PDU prefix on carrier 2 covers the first three bursts, so
        # carrier 1 queues nothing until burst 4: the backlog terms of the
        # empty bursts must not reach its PDUs.
        sc = alpha_scenario(Fraction(2, 5), orbit1=OrbitModel.geo(), orbit2=OrbitModel.meo(),
                            bursts=(Burst(5, 0.0), Burst(5, 1e-4), Burst(3, 0.02), Burst(40)))
        plan = build_plan(sc)
        assert (plan.prefix_carrier, plan.prefix_length) == (2, 15)
        trace = run(sc, plan)
        assert not np.count_nonzero(trace.carrier[:13] == 1)
        assert sorted(rows(trace)) == oracle.heap_run(sc, plan)

    def test_zero_service_time_sends_at_release(self):
        sc = ScenarioConfig(
            carrier1=carrier(3 * 10**14),
            carrier2=carrier(10**14),
            scheduler=SchedulerKind.LOAD_BALANCING,
            pdu_size_bytes=1500,
            bursts=(Burst(5, 0.0), Burst(5, 1e-6), Burst(20)),
        )
        assert sc.service_ns == (0, 0)
        plan = build_plan(sc)
        trace = run(sc, plan)
        assert set(trace.carrier.tolist()) == {1, 2}
        assert all(row[2] == row[3] == row[4] for row in rows(trace))
        assert sorted(rows(trace)) == oracle.heap_run(sc, plan)

    def test_record_stores_25_bytes_per_pdu(self):
        # An int8 carrier and three int64 columns (seq, tx end, arrival): the
        # releases are one per burst, and a record in carrier order has no
        # order array.
        sc = _long_meo_geo()
        trace = run(sc, build_plan(sc))
        assert trace.order is None
        stored = [value for value in vars(trace).values() if isinstance(value, np.ndarray)]
        assert sum(array.nbytes for array in stored) == 25 * sc.total_pdus
        assert len(trace.release_ns) == len(trace.burst_sizes) == 8

    def test_peak_memory_per_pdu(self):
        # The record is 25 B per PDU and it is most of the peak (~31.7 B):
        # each carrier's queue and delays are written in place, in the
        # record's own columns, and the rest is the constructor's carrier-1
        # positions while it writes seq.  So a full-length int64 array more
        # alive with the record (8 B), or a per-PDU release column, fails.
        sc = _long_meo_geo()
        plan = build_plan(sc)
        tracemalloc.start()
        try:
            run(sc, plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / sc.total_pdus < 34

    def test_merge_peak_memory_per_pdu(self):
        # One argsort of the arrivals, 8 B per PDU: no column is gathered or copied.
        sc = _long_meo_geo()
        trace = run(sc, build_plan(sc))
        tracemalloc.start()
        try:
            merge(trace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / sc.total_pdus < 12

    def test_report_peak_memory_per_pdu(self):
        # Receive-order sequence numbers with the distance taken in place (8 B
        # per PDU) and the positions subtracted from them (8 B).  At the
        # bundled phase every burst is received apart; at 2.842385 rad two
        # PDUs swap at one burst boundary, so the one-byte labels and burst of
        # each position (2 B) are made and two PDUs regrouped.  A stable
        # argsort and gather of every PDU by burst (~25 B) fails.
        for phase_rad, outside in ((0.0, 0), (2.842385, 2)):
            sc = _long_meo_geo()
            orbit = replace(sc.carrier1.orbit, variation_phase_rad=phase_rad)
            sc = replace(sc, carrier1=replace(sc.carrier1, orbit=orbit))
            merged = merge(run(sc, build_plan(sc)))
            burst_of_seq = np.arange(sc.total_pdus) // 25_000
            received = burst_of_seq[merged.seq[merged.order]]
            assert np.count_nonzero(received != burst_of_seq) == outside
            tracemalloc.start()
            try:
                ordering_report(merged, sc)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak / sc.total_pdus < 20

    def test_trace_csv_peak_memory_is_one_block(self, tmp_path):
        # The writer holds one block of rows and its text (~1.4 MB), not a
        # share of the record: the same bound holds for any N.
        sc = _long_meo_geo()
        trace = merge(run(sc, build_plan(sc)))
        tracemalloc.start()
        try:
            write_trace_csv(trace, tmp_path / "trace.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000


class TestTraceCsv:
    def test_columns_and_rows(self, tmp_path):
        sc = alpha_scenario(Fraction(1, 2), bursts=(Burst(12),))
        traces = run(sc, build_plan(sc))
        path = tmp_path / "trace.csv"
        write_trace_csv(traces, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "seq,carrier,t_scheduled,t_tx_start,t_tx_end,t_arrival"
        assert len(lines) == 13
        first = lines[1].split(",")
        assert len(first) == 6
        assert all(field.lstrip("-").isdigit() for field in first)

    @pytest.mark.parametrize("n", [0, 1, _CSV_BLOCK_ROWS - 1, _CSV_BLOCK_ROWS,
                                   _CSV_BLOCK_ROWS + 1, 2 * _CSV_BLOCK_ROWS + 3])
    def test_same_bytes_at_every_block_boundary(self, n, tmp_path):
        # Values span their ranges, signs and digit counts: releases, one per
        # burst, rise over 0..2**63-1, with bursts of up to 3000 rows that
        # straddle the blocks; tx ends 0..2**63-1, so tx starts down to
        # -(2**63 - 1); each carrier has its own service time.  The oracle
        # formats every row in one piece.
        rng = random.Random(n)
        bound = 2**63 - 1
        service = {c: rng.randint(0, bound) for c in (1, 2)}
        sizes = []
        while sum(sizes) < n:
            sizes.append(min(rng.choice((1, 2, rng.randint(1, 3000))), n - sum(sizes)))
        releases = sorted(rng.randint(0, bound) for _ in sizes)
        if len(releases) > 1:
            releases[0], releases[-1] = 0, bound
        release_of_seq = [r for r, size in zip(releases, sizes) for _ in range(size)]

        def row(seq):
            c = rng.choice((1, 2))
            tx_end = rng.randint(0, bound)
            return (seq, c, release_of_seq[seq], tx_end - service[c], tx_end,
                    rng.randint(tx_end, bound))

        trace = record(row(seq) for seq in range(n))
        if n > _CSV_BLOCK_ROWS:  # some burst runs across the first block's end
            ends = list(accumulate(trace.burst_sizes))
            assert _CSV_BLOCK_ROWS not in ends and len(trace.burst_sizes) > 1
        for listed in (trace, merge(trace)):
            path = tmp_path / "trace.csv"
            write_trace_csv(listed, path)
            expected = "seq,carrier,t_scheduled,t_tx_start,t_tx_end,t_arrival\r\n" + "".join(
                "%d,%d,%d,%d,%d,%d\r\n" % row for row in rows(listed))
            assert path.read_bytes() == expected.encode()


class TestFluidOracleEquivalence:
    def test_three_pdu_manual_case(self):
        sc = alpha_scenario(Fraction(1, 2), bursts=(Burst(3),))
        plan = build_plan(sc)
        rows = oracle.fluid_arrivals(sc, plan)
        s1, s2 = sc.service_ns
        by_seq = {row[0]: row for row in rows}
        assert by_seq[0][4] == s1
        assert by_seq[1][4] == 2 * s1
        assert by_seq[2][4] == s2

    def test_engine_matches_fluid_on_random_scenarios(self):
        rng = random.Random(2024)
        for _ in range(10):
            sc = random_constant_delay_scenario(rng)
            plan = build_plan(sc)
            expected = oracle.fluid_arrivals(sc, plan)
            assert rows(merge(run(sc, plan))) == expected

    def test_empty_bursts_not_constructible(self):
        with pytest.raises(Exception):
            ScenarioConfig(
                carrier1=carrier(),
                carrier2=carrier(),
                scheduler=SchedulerKind.LOAD_BALANCING,
                bursts=(),
            )


class TestManualPlanRuns:
    def test_single_carrier_plan(self):
        # a carrier-1-only plan is valid when its ratio is zero
        sc = alpha_scenario(Fraction(1), bursts=(Burst(50),))
        plan = SchedulingPlan(cycle=(1,))
        assert (run(sc, plan).carrier == 1).all()


class TestHeapOracleEquivalence:
    def test_overlapping_meo_scenarios(self):
        rng = random.Random(4242)
        for _ in range(40):
            sc = random_overlapping_meo_scenario(rng)
            plan = build_plan(sc)
            assert sorted(rows(run(sc, plan))) == oracle.heap_run(sc, plan)

    def test_constant_delay_scenarios(self):
        rng = random.Random(2025)
        for _ in range(10):
            sc = random_constant_delay_scenario(rng)
            plan = build_plan(sc)
            assert sorted(rows(run(sc, plan))) == oracle.heap_run(sc, plan)

    def test_prefix_longer_than_run(self):
        # meo_geo geometry: a 38-PDU prefix on the MEO carrier, 5 PDUs in all
        sc = alpha_scenario(
            Fraction(2, 5), orbit1=OrbitModel.meo(), orbit2=OrbitModel.geo(),
            bursts=(Burst(5),))
        plan = build_plan(sc)
        assert plan.prefix_length > 5
        trace = run(sc, plan)
        assert (trace.carrier == 1).all()
        assert sorted(rows(trace)) == oracle.heap_run(sc, plan)

    def test_carrier_one_only_cycle(self):
        sc = alpha_scenario(Fraction(1), bursts=(Burst(30, 0.001), Burst(20)))
        plan = SchedulingPlan(cycle=(1,))
        trace = run(sc, plan)
        assert (trace.carrier == 1).all()
        assert sorted(rows(trace)) == oracle.heap_run(sc, plan)

    def test_send_times_past_2_pow_53_ns(self):
        # the second burst leaves ~1.2e16 ns in, where float(t_ns) rounds
        sc = alpha_scenario(
            Fraction(1, 2), orbit1=OrbitModel.meo(), bursts=(Burst(50, 1.2e7), Burst(50)))
        plan = build_plan(sc)
        trace = run(sc, plan)
        assert trace.t_tx_end_ns.max() > 2**53
        assert sorted(rows(trace)) == oracle.heap_run(sc, plan)

    def test_release_on_a_tx_end(self):
        # cycle (1,1,2) at alpha 1/2: the first burst's four carrier-1 PDUs
        # drain exactly when the second burst is released
        sc = alpha_scenario(Fraction(1, 2), bursts=(Burst(6), Burst(6)))
        s1 = sc.service_ns[0]
        drain_s = 4 * s1 / 1e9
        sc = alpha_scenario(Fraction(1, 2), bursts=(Burst(6, drain_s), Burst(6)))
        plan = build_plan(sc)
        trace = sorted(rows(run(sc, plan)))
        first_of_second_burst = trace[6]
        assert first_of_second_burst[1] == 1
        assert first_of_second_burst[2] == trace[4][4] == 4 * s1
        assert first_of_second_burst[3] == 4 * s1
        assert trace == oracle.heap_run(sc, plan)
