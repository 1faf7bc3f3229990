import csv
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casim.errors import InvariantError
from casim.metrics import (
    COMPARISON_CSV_COLUMNS,
    OrderingReport,
    format_comparison,
    ordering_report,
    write_comparison_csv,
)
from casim.model import Burst
from casim.receiver import merge
from casim.emulator import run
from casim.scheduler import SchedulingPlan, build_plan
from helpers import (alpha_scenario, random_overlapping_meo_scenario, record, rows,
                     synthetic_report)
import oracle


def stream_from_seqs(seqs, arrival_step=100):
    """A record whose merge receives ``seqs`` in order, one arrival per step."""
    return record(
        (s, 1, 0, i * arrival_step, (i + 1) * arrival_step, (i + 1) * arrival_step)
        for i, s in enumerate(seqs)
    )


def misplacement_stats(seqs, burst_sizes=None):
    """(misplaced count, mean, max) of a stream receiving ``seqs`` in order."""
    report = synthetic_report(stream_from_seqs(seqs), burst_sizes)
    return report.misplaced_count, report.mean_misplace, report.max_misplace


class TestMisplacement:
    def test_identity(self):
        assert misplacement_stats(range(10)) == (0, 0.0, 0)

    def test_adjacent_swap(self):
        got = misplacement_stats([0, 2, 1, 3])
        assert got == (2, 1.0, 1)

    def test_window_reversal_max(self):
        for k in (3, 5, 9):
            seqs = list(range(20))
            seqs[4:4 + k] = reversed(seqs[4:4 + k])
            assert misplacement_stats(seqs)[2] == k - 1

    def test_mean_le_max_on_random_permutations(self):
        rng = random.Random(31)
        for _ in range(30):
            n = rng.randint(2, 500)
            seqs = list(range(n))
            rng.shuffle(seqs)
            _, mean, worst = misplacement_stats(seqs)
            assert mean <= worst <= n - 1

    def test_matches_brute_force(self):
        rng = random.Random(77)
        for _ in range(30):
            n = rng.randint(1, 2000)
            seqs = list(range(n))
            rng.shuffle(seqs)
            count, mean, worst = misplacement_stats(seqs)
            want = oracle.brute_displacement(seqs)
            assert count == want[0]
            assert math.isclose(mean, want[1], rel_tol=1e-12, abs_tol=1e-12)
            assert worst == want[2]

    def test_per_burst_seq_restart(self):
        # burst 2 in perfect order internally: no misplacement even though
        # its global positions trail burst 1
        seqs = [1, 0, 2, 3, 4, 5]
        whole = misplacement_stats(seqs)
        per_burst = misplacement_stats(seqs, burst_sizes=(3, 3))
        assert whole == per_burst == (2, 1.0, 1)

    def test_burst_sizes_must_cover_stream(self):
        with pytest.raises(InvariantError):
            misplacement_stats(range(6), burst_sizes=(3, 2))


def fifo_stream(received):
    """A record a FIFO queue can produce whose merge receives ``received``
    (a permutation of 0..N-1, N >= 2) in order: even sequence numbers on
    carrier 1 and odd on carrier 2, each carrier's PDUs sent back to back in
    sequence order, and every arrival after the last tx end, one per step in
    receive order."""
    service = (10, 25)  # carrier 1's, carrier 2's
    last_tx_end = 25 * len(received)
    return record((s, 1 + s % 2, 0, s // 2 * service[s % 2], (s // 2 + 1) * service[s % 2],
                   last_tx_end + 100 * (i + 1)) for i, s in enumerate(received))


def assert_matches_oracle(received, burst_sizes):
    trace = fifo_stream(received)
    merged = merge(trace)
    assert [row[0] for row in rows(merged)] == list(received)
    report = synthetic_report(trace, burst_sizes)
    assert report.as_dict() == oracle.burst_report(rows(merged), burst_sizes, 1500)


class TestRegroup:
    """The received sequence numbers are grouped by burst, the receive order
    kept within each; only the span from the first PDU received outside its
    burst's positions to the last is regrouped."""

    @pytest.mark.parametrize("burst_sizes, received", [
        # received apart, with misplacement inside bursts: nothing regrouped
        ((3, 4, 3), [1, 0, 2, 3, 6, 4, 5, 7, 9, 8]),
        # only the next burst's first PDU before the previous burst's last:
        # burst 0's largest seq equals burst 1's head
        ((3, 3), [0, 1, 3, 2, 4, 5]),
        ((4, 3, 3), [0, 1, 2, 3, 4, 5, 7, 6, 8, 9]),
        # two interleaved boundaries with a clean burst between them, inside
        # the span
        ((2, 2, 3, 2, 2), [0, 2, 1, 3, 6, 5, 4, 7, 9, 8, 10]),
        # a whole burst received before the one ahead of it
        ((2, 3, 2), [0, 1, 5, 6, 2, 3, 4]),
        ((2, 3), [3, 4, 0, 2, 1]),
        # the span from the first position to the last
        ((2, 2, 2), [5, 1, 2, 3, 4, 0]),
    ], ids=["apart", "head-first-1", "head-first-2", "span-holds-a-clean-burst",
            "burst-before-1", "burst-before-2", "whole-stream"])
    def test_matches_row_by_row_oracle(self, burst_sizes, received):
        assert_matches_oracle(received, burst_sizes)

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(st.lists(st.integers(1, 6), min_size=2, max_size=6).flatmap(
        lambda sizes: st.tuples(st.just(tuple(sizes)), st.lists(
            st.tuples(st.integers(0, sum(sizes) - 1), st.integers(0, sum(sizes) - 1)),
            max_size=4))))
    def test_swapped_pairs_match_row_by_row_oracle(self, drawn):
        # Bursts received in order, then a few pairs of PDUs swapped, within a
        # burst or across any number of bursts.
        burst_sizes, swaps = drawn
        received = list(range(sum(burst_sizes)))
        for i, j in swaps:
            received[i], received[j] = received[j], received[i]
        assert_matches_oracle(received, burst_sizes)


class TestThroughput:
    def test_single_carrier_approaches_fluid_limit(self):
        # the model's fluid rate: one PDU's bits per service time; the frame
        # share not filled by whole PDUs and the superframe overhead keep it
        # below the raw capacity x fill-rate bound
        from casim.model import OrbitModel
        sc = alpha_scenario(
            Fraction(1),
            orbit1=OrbitModel.meo(amplitude_km=0.0),
            orbit2=OrbitModel.meo(amplitude_km=0.0),
            bursts=(Burst(2000),),
        )
        plan = SchedulingPlan(cycle=(1,))
        merged = merge(run(sc, plan))
        got = ordering_report(merged, sc).throughput_bps
        fluid = sc.pdu_size_bytes * 8 * 1e9 / sc.service_ns[0]
        assert got <= float(sc.carrier1.usable_capacity_bps())
        assert math.isclose(got, fluid, rel_tol=0.02)

    def test_balanced_pair_doubles_throughput(self):
        from casim.model import OrbitModel
        sc = alpha_scenario(
            Fraction(1),
            orbit1=OrbitModel.meo(amplitude_km=0.0),
            orbit2=OrbitModel.meo(amplitude_km=0.0),
            bursts=(Burst(4000),),
        )
        merged = merge(run(sc, build_plan(sc)))
        got = ordering_report(merged, sc).throughput_bps
        fluid = sc.pdu_size_bytes * 8 * 1e9 / sc.service_ns[0]
        assert math.isclose(got, 2 * fluid, rel_tol=0.02)

    def test_single_pdu_rejected(self):
        with pytest.raises(InvariantError, match="throughput needs at least 2 PDUs, got 1"):
            synthetic_report(stream_from_seqs([0]))

    def test_two_pdus_give_a_report(self):
        sc = alpha_scenario(Fraction(1), bursts=(Burst(2),))
        report = ordering_report(merge(run(sc, build_plan(sc))), sc)
        assert report.n_pdus == 2 and report.throughput_bps > 0

    def test_gaps_excluded_from_active_time(self):
        # two identical bursts far apart: aggregated throughput equals the
        # single-burst value because idle time between bursts is not counted
        # (490 = 70 cycles of 7, so both bursts share the same cycle phase)
        sc_one = alpha_scenario(Fraction(2, 5), bursts=(Burst(490),))
        sc_two = alpha_scenario(
            Fraction(2, 5), bursts=(Burst(490, 100.0), Burst(490, 0.0)))
        tp_one = ordering_report(merge(run(sc_one, build_plan(sc_one))), sc_one).throughput_bps
        tp_two = ordering_report(merge(run(sc_two, build_plan(sc_two))), sc_two).throughput_bps
        assert math.isclose(tp_one, tp_two, rel_tol=1e-6)


class TestOrderingReport:
    def test_report_fields_and_per_burst(self):
        sc = alpha_scenario(Fraction(2, 5), bursts=(Burst(500, 60.0), Burst(500, 0.0)))
        merged = merge(run(sc, build_plan(sc)))
        report = ordering_report(merged, sc)
        assert report.n_pdus == 1000
        assert len(report.per_burst) == 2
        assert sum(b.n_pdus for b in report.per_burst) == 1000
        assert report.mean_misplace <= report.max_misplace
        assert report.misplaced_count <= report.n_pdus

    def test_invariant_validation(self):
        with pytest.raises(InvariantError):
            OrderingReport(
                n_pdus=10, misplaced_count=1, mean_misplace=5.0, max_misplace=3,
                throughput_bps=1.0, per_burst=())

    def test_matches_row_by_row_oracle_on_overlapping_meo_runs(self):
        rng = random.Random(4242)
        overlapping = 0
        for _ in range(40):
            sc = random_overlapping_meo_scenario(rng)
            merged = merge(run(sc, build_plan(sc)))
            want = oracle.burst_report(rows(merged), sc.burst_sizes, sc.pdu_size_bytes)
            assert ordering_report(merged, sc).as_dict() == want
            # a burst released while the previous one is still transmitting
            by_seq = sorted(rows(merged))
            first = 0
            for size in sc.burst_sizes[:-1]:
                last_end = max(row[4] for row in by_seq[first:first + size])
                first += size
                overlapping += by_seq[first][2] < last_end
        assert overlapping > 0

    def test_json_round_trip_is_stable(self):
        sc = alpha_scenario(Fraction(2, 5), bursts=(Burst(300),))
        merged = merge(run(sc, build_plan(sc)))
        report = ordering_report(merged, sc)
        again = ordering_report(merged, sc).as_dict()
        assert json.dumps(report.as_dict()) == json.dumps(again)


class TestCompare:
    def _report(self):
        sc = alpha_scenario(Fraction(2, 5), bursts=(Burst(300),))
        merged = merge(run(sc, build_plan(sc)))
        return ordering_report(merged, sc)

    def _csv_rows(self, labeled, tmp_path):
        path = tmp_path / "comparison.csv"
        write_comparison_csv(labeled, path)
        with open(path, newline="") as fh:
            return list(csv.reader(fh))

    def test_single_row(self, tmp_path):
        report = self._report()
        header, *body = self._csv_rows([("solo", report)], tmp_path)
        assert tuple(header) == COMPARISON_CSV_COLUMNS
        assert body == [["solo"] + [str(getattr(report, key))
                                    for key in COMPARISON_CSV_COLUMNS[1:]]]

    def test_identical_reports_identical_rows(self, tmp_path):
        r = self._report()
        _, row_a, row_b = self._csv_rows([("a", r), ("b", r)], tmp_path)
        assert row_a[0] == "a" and row_b[0] == "b"
        assert row_a[1:] == row_b[1:]

    def test_format_contains_labels_and_header(self):
        text = format_comparison([("alpha04", self._report())])
        assert "alpha04" in text and "mean" in text and "Mbps" in text
