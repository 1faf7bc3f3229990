import math
import random
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from casim.cli import bundled_scenario_dir
from casim.config import parse_scenario_file
from casim.emulator import _CSV_BLOCK_ROWS, propagation_delays_ns, run, write_trace_csv
from casim.errors import InvariantError
from casim.model import Burst, OrbitModel, ScenarioConfig, SchedulerKind
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
        cfg = carrier(orbit=orbit)
        times = [0, 1, 10**9, 2**62]
        delays = propagation_delays_ns(cfg, np.array(times, dtype=np.int64))
        assert delays.dtype == np.int64
        assert delays.tolist() == [oracle._path_delay_ns(cfg, t) for t in times]

    # a finite delay past int64, then one that overflows to inf
    @pytest.mark.parametrize("leg_km", [1e300, 1e308])
    def test_constant_delay_past_int64_unless_no_pdu_takes_it(self, leg_km):
        cfg = carrier(orbit=OrbitModel.geo(leg_km))
        empty = propagation_delays_ns(cfg, np.empty(0, dtype=np.int64))
        assert empty.dtype == np.int64 and empty.shape == (0,)
        with pytest.raises(InvariantError, match="arrival times exceed the int64 range"):
            propagation_delays_ns(cfg, np.zeros(3, dtype=np.int64))

    def test_nan_delay_rejected(self):
        # the phase overflows to inf, so sin, and the delay, is nan
        orbit = OrbitModel.meo(period_s=1e-320)
        sc = alpha_scenario(Fraction(1), orbit1=orbit, orbit2=orbit, bursts=(Burst(5),))
        with pytest.raises(InvariantError, match="propagation delay is not finite"):
            run(sc, build_plan(sc))

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

    def test_peak_memory_per_pdu(self):
        # The record is 33 B per PDU of columns (an int8 carrier, seq and three
        # int64 times) plus 8 B of order; the rest is one carrier's working
        # arrays.  Each carrier's queue is written in place, so a full-length
        # int64 temporary more (8 B), such as a scattered column, fails.
        sc = _long_meo_geo()
        plan = build_plan(sc)
        tracemalloc.start()
        try:
            run(sc, plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / sc.total_pdus < 50

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
        # Values span the int64 range, signs and digit counts; each carrier
        # has its own service time.  The oracle formats every row in one piece.
        rng = random.Random(n)
        bound = 2**63 - 1
        service = {c: rng.randint(0, bound) for c in (1, 2)}

        def row(seq):
            c = rng.choice((1, 2))
            tx_end = rng.randint(-bound - 1 + service[c], bound)
            return (seq, c, rng.randint(-bound - 1, bound), tx_end - service[c], tx_end,
                    rng.randint(tx_end, bound))

        trace = record(row(seq) for seq in range(n))
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
