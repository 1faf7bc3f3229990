import random
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from casim.model import Burst
from casim.receiver import merge
from casim.scheduler import build_plan
from casim.emulator import run
from helpers import alpha_scenario, columns, record, rows, seqs


def trace(seq, carrier, arrival):
    """A row sent the instant it is released, at 0, and received at ``arrival``."""
    return (seq, carrier, 0, 0, 0, arrival)


class TestMerge:
    def test_in_order_arrivals_give_identity(self):
        traces = [trace(i, 1, 100 * (i + 1)) for i in range(10)]
        merged = merge(record(traces))
        assert seqs(merged) == list(range(10))

    def test_swapped_arrivals_follow_arrival_not_seq(self):
        traces = [trace(0, 1, 200), trace(1, 2, 100)]
        merged = merge(record(traces))
        assert seqs(merged) == [1, 0]

    def test_tie_break_carrier_then_seq(self):
        traces = [trace(2, 2, 100), trace(0, 1, 100), trace(1, 1, 100)]
        merged = merge(record(traces))
        assert seqs(merged) == [0, 1, 2]

    def test_no_resequencing_by_seq(self):
        # a naive receiver must not repair ordering the scheduler got wrong
        traces = [trace(3, 2, 10), trace(0, 1, 20), trace(1, 1, 30), trace(2, 1, 40)]
        assert seqs(merge(record(traces))) == [3, 0, 1, 2]

    def test_shares_the_columns(self):
        listed = record([trace(1, 2, 100), trace(0, 1, 200)])
        merged = merge(listed)
        assert seqs(merged) == [1, 0]
        assert all(a is b for a, b in zip(columns(merged), columns(listed)))

    def test_shares_the_columns_of_a_run(self):
        sc = alpha_scenario(Fraction(2, 5), bursts=(Burst(50),))
        traced = run(sc, build_plan(sc))
        merged = merge(traced)
        assert traced.carrier.dtype == np.int8
        assert traced.order is None  # rows listed in carrier order, as stored
        assert seqs(traced) == sorted(range(50), key=lambda s: (traced.carrier[s], s))
        assert sorted(seqs(merged)) == list(range(50))
        assert all(a is b for a, b in zip(columns(merged), columns(traced)))

    def test_idempotent(self):
        rng = random.Random(5)
        arrivals = rng.sample(range(1000, 9000), 50)
        traces = [trace(i, rng.choice((1, 2)), arrivals[i]) for i in range(50)]
        once = merge(record(traces))
        assert rows(merge(once)) == rows(once)

    def test_two_sorted_streams_interleave_in_order(self):
        # each carrier delivers in seq order and the streams are globally
        # interleavable: the merged stream must be in seq order
        rng = random.Random(9)
        for _ in range(20):
            n = rng.randint(2, 60)
            arrivals = sorted(rng.sample(range(1, 100_000), n))
            traces = [
                trace(i, rng.choice((1, 2)), arrivals[i]) for i in range(n)
            ]
            merged = merge(record(traces))
            assert seqs(merged) == list(range(n))

    def test_end_to_end_alpha_one_is_identity(self):
        sc = alpha_scenario(Fraction(1), bursts=(Burst(200),))
        merged = merge(run(sc, build_plan(sc)))
        assert seqs(merged) == list(range(200))


@settings(max_examples=300)
@given(st.data())
def test_merge_is_arrival_carrier_seq_order(data):
    """The receive order is a lexsort by (arrival, carrier, seq), and merging
    a record already in receive order gives the same order over the same
    columns; arrivals come from a small range and one carrier-1 and one
    carrier-2 PDU always tie."""
    n = data.draw(st.integers(2, 40))
    carrier = data.draw(st.lists(st.sampled_from((1, 2)), min_size=n, max_size=n))
    arrival = data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    carrier[i], carrier[j], arrival[j] = 1, 2, arrival[i]
    trace = record((s, carrier[s], 0, 0, 0, arrival[s]) for s in range(n))
    expected = np.lexsort((np.arange(n), carrier, arrival)).tolist()
    merged = merge(trace)
    assert seqs(merged) == expected
    again = merge(merged)
    assert seqs(again) == expected
    assert all(a is b for a, b in zip(columns(again), columns(trace)))
