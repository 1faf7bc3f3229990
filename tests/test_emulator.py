import math
import random
from fractions import Fraction

import pytest

from casim.emulator import pdu_service_time_ns, pdu_service_time_s, run, s_to_ns
from casim.errors import InvariantError, ZeroPayload
from casim.model import Burst, OrbitModel, ScenarioConfig, SchedulerKind
from casim.receiver import merge
from casim.scheduler import SchedulingPlan, build_plan
from helpers import (
    alpha_scenario,
    carrier,
    random_constant_delay_scenario,
    random_overlapping_meo_scenario,
    rows,
)
import oracle


class TestServiceTime:
    def test_reference_value(self):
        service = pdu_service_time_s(carrier(4_640_000), 1500)
        assert math.isclose(service, 612540 / (27 * 4_640_000), rel_tol=1e-6)

    def test_doubling_rate_halves_service(self):
        s1 = pdu_service_time_s(carrier(4_640_000), 1500)
        s2 = pdu_service_time_s(carrier(9_280_000), 1500)
        assert math.isclose(s2, s1 / 2, rel_tol=1e-6)

    def test_full_fill_divides_by_pdus_per_frame(self):
        quarter = pdu_service_time_s(carrier(fill_rate=Fraction(1, 4)), 1500)
        full = pdu_service_time_s(carrier(fill_rate=1), 1500)
        assert math.isclose(full, quarter / 4, rel_tol=1e-6)

    def test_oversized_pdu_propagates(self):
        with pytest.raises(ZeroPayload):
            pdu_service_time_s(carrier(), 10_000)


class TestRun:
    def test_single_pdu_arrival(self):
        sc = alpha_scenario(Fraction(1), bursts=(Burst(1),))
        plan = build_plan(sc)
        ((_, _, _, tx_start, tx_end, arrival),) = rows(run(sc, plan))
        service = pdu_service_time_ns(sc.carrier1, sc.pdu_size_bytes)
        prop = round(sc.carrier1.orbit.propagation_delay_s(service / 1e9) * 1e9)
        assert tx_start == 0
        assert tx_end == service
        assert arrival == service + prop

    def test_balanced_alternation_arrives_in_seq_order(self):
        sc = alpha_scenario(Fraction(1), bursts=(Burst(400),))
        merged = merge(run(sc, build_plan(sc)))
        assert merged.seq.tolist() == list(range(400))

    def test_two_burst_scenario_yields_all_traces(self):
        sc = alpha_scenario(Fraction(2, 5))
        traces = run(sc, build_plan(sc))
        assert len(traces) == 5000

    def test_conservation(self):
        sc = alpha_scenario(Fraction(2, 5), bursts=(Burst(777),))
        traces = run(sc, build_plan(sc))
        assert sorted(traces.seq.tolist()) == list(range(777))

    def test_per_carrier_fifo(self):
        sc = alpha_scenario(Fraction(2, 5))
        merged = merge(run(sc, build_plan(sc)))
        for carrier_idx in (1, 2):
            seqs = merged.seq[merged.carrier == carrier_idx].tolist()
            assert seqs == sorted(seqs)

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
        duration_s = (
            int(traces.t_arrival_ns.max()) - int(traces.t_tx_start_ns.min())
        ) / 1e9
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
        (OrbitModel.meo(period_s=1e-320), (Burst(5),)),  # phase inf, sin nan
    ])
    def test_times_past_int64_rejected(self, orbit, bursts):
        sc = alpha_scenario(Fraction(1), orbit1=orbit, orbit2=orbit, bursts=bursts)
        with pytest.raises(InvariantError, match="int64 range"):
            run(sc, build_plan(sc))

    def test_queue_carries_across_overlapping_bursts(self):
        # gap shorter than the drain time: the second burst must queue behind
        # the first, keeping each carrier work-conserving and order-preserving
        sc = alpha_scenario(
            Fraction(1, 2), bursts=(Burst(200, 0.05), Burst(200, 0.0)))
        traces = run(sc, build_plan(sc))
        assert len(traces) == 400
        for carrier_idx in (1, 2):
            ends = traces.t_tx_end_ns[traces.carrier == carrier_idx].tolist()
            service = pdu_service_time_ns(
                sc.carrier1 if carrier_idx == 1 else sc.carrier2, sc.pdu_size_bytes)
            diffs = [b - a for a, b in zip(sorted(ends), sorted(ends)[1:])]
            assert all(d >= service for d in diffs)


class TestTraceCsv:
    def test_columns_and_rows(self, tmp_path):
        from casim.emulator import write_trace_csv
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


class TestFluidOracleEquivalence:
    def test_three_pdu_manual_case(self):
        sc = alpha_scenario(Fraction(1, 2), bursts=(Burst(3),))
        plan = build_plan(sc)
        rows = oracle.fluid_arrivals(sc, plan)
        s1 = pdu_service_time_ns(sc.carrier1, 1500)
        s2 = pdu_service_time_ns(sc.carrier2, 1500)
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
            assert rows(run(sc, plan)) == oracle.heap_run(sc, plan)

    def test_constant_delay_scenarios(self):
        rng = random.Random(2025)
        for _ in range(10):
            sc = random_constant_delay_scenario(rng)
            plan = build_plan(sc)
            assert rows(run(sc, plan)) == oracle.heap_run(sc, plan)

    def test_prefix_longer_than_run(self):
        # meo_geo geometry: a 38-PDU prefix on the MEO carrier, 5 PDUs in all
        sc = alpha_scenario(
            Fraction(2, 5), orbit1=OrbitModel.meo(), orbit2=OrbitModel.geo(),
            bursts=(Burst(5),))
        plan = build_plan(sc)
        assert plan.prefix_length > 5
        trace = run(sc, plan)
        assert (trace.carrier == 1).all()
        assert rows(trace) == oracle.heap_run(sc, plan)

    def test_carrier_one_only_cycle(self):
        sc = alpha_scenario(Fraction(1), bursts=(Burst(30, 0.001), Burst(20)))
        plan = SchedulingPlan(cycle=(1,))
        trace = run(sc, plan)
        assert (trace.carrier == 1).all()
        assert rows(trace) == oracle.heap_run(sc, plan)

    def test_send_times_past_2_pow_53_ns(self):
        # the second burst leaves ~1.2e16 ns in, where float(t_ns) rounds
        sc = alpha_scenario(
            Fraction(1, 2), orbit1=OrbitModel.meo(), bursts=(Burst(50, 1.2e7), Burst(50)))
        plan = build_plan(sc)
        trace = run(sc, plan)
        assert trace.t_tx_end_ns.max() > 2**53
        assert rows(trace) == oracle.heap_run(sc, plan)

    def test_release_on_a_tx_end(self):
        # cycle (1,1,2) at alpha 1/2: the first burst's four carrier-1 PDUs
        # drain exactly when the second burst is released
        sc = alpha_scenario(Fraction(1, 2), bursts=(Burst(6), Burst(6)))
        s1 = pdu_service_time_ns(sc.carrier1, sc.pdu_size_bytes)
        drain_s = 4 * s1 / 1e9
        assert s_to_ns(drain_s) == 4 * s1
        sc = alpha_scenario(Fraction(1, 2), bursts=(Burst(6, drain_s), Burst(6)))
        plan = build_plan(sc)
        trace = rows(run(sc, plan))
        first_of_second_burst = trace[6]
        assert first_of_second_burst[1] == 1
        assert first_of_second_burst[2] == trace[4][4] == 4 * s1
        assert first_of_second_burst[3] == 4 * s1
        assert trace == oracle.heap_run(sc, plan)
