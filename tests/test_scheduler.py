import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casim.cli import main
from casim.errors import DenominatorTooLarge, DominanceViolated, InvariantError, ZeroPayload
from casim.model import MODCODS, OrbitModel, SchedulerKind, load_balance_factor, pdus_per_fecframe
from casim.scheduler import (
    SchedulingPlan,
    assignments,
    build_plan,
    generate_sequence,
    initial_fast_sequence_raw,
    multi_orbit_prefix,
    planning_differential_delay_s,
    superframes_in_interval,
)
from helpers import alpha_scenario, carrier
from oracle import PAPER_LOOKUP_TABLE, christoffel_cycle


def n_pdu(c):
    """PDUs per FEC frame for a 1500 B PDU on carrier ``c``."""
    return pdus_per_fecframe(1500, c.modcod, c.fill_rate)


class TestLookupTable:
    def test_seventeen_rows(self):
        assert len(PAPER_LOOKUP_TABLE) == 17

    def test_every_row_ratio_exact(self):
        for alpha, row in PAPER_LOOKUP_TABLE.items():
            assert Fraction(row.count(2), row.count(1)) == alpha

    def test_rows_use_only_carrier_indices(self):
        for row in PAPER_LOOKUP_TABLE.values():
            assert set(row) <= {1, 2}

    def test_reference_rows(self):
        assert PAPER_LOOKUP_TABLE[Fraction(2, 5)] == (1, 1, 2, 1, 1, 1, 2)
        assert PAPER_LOOKUP_TABLE[Fraction(1)] == (1, 2)
        assert PAPER_LOOKUP_TABLE[Fraction(1, 4)] == (1, 1, 1, 1, 2)
        assert PAPER_LOOKUP_TABLE[Fraction(1, 2)] == (1, 1, 2)


class TestLoadBalanceFactor:
    def test_bandwidth_ratio_five_to_two(self):
        alpha = load_balance_factor(carrier(4_640_000), carrier(1_856_000))
        assert alpha == Fraction(2, 5)

    def test_identical_carriers(self):
        assert load_balance_factor(carrier(), carrier()) == 1

    def test_dominance_violation(self):
        with pytest.raises(DominanceViolated):
            load_balance_factor(carrier(1_856_000), carrier(4_640_000))

    def test_scale_invariance(self):
        rng = random.Random(11)
        for _ in range(20):
            k = Fraction(rng.randint(1, 1000), rng.randint(1, 1000))
            if k == 0:
                continue
            base = load_balance_factor(carrier(4_640_000), carrier(1_856_000))
            scaled = load_balance_factor(
                carrier(k * 4_640_000), carrier(k * 1_856_000))
            assert scaled == base


class TestGenerateSequence:
    def test_one_half_matches_table_row_exactly(self):
        assert generate_sequence(Fraction(1, 2)) == [1, 1, 2]

    def test_alpha_one_alternates(self):
        assert generate_sequence(1) == [1, 2]

    def test_one_fifth_counts(self):
        seq = generate_sequence(Fraction(1, 5))
        assert seq.count(1) == 5 and seq.count(2) == 1
        assert seq.count(1) == PAPER_LOOKUP_TABLE[Fraction(1, 5)].count(1)

    def test_reproduces_every_table_row(self):
        for alpha, row in PAPER_LOOKUP_TABLE.items():
            assert tuple(generate_sequence(alpha)) == row

    def test_counts_and_prefix_bound(self):
        rng = random.Random(23)
        for _ in range(200):
            q = rng.randint(1, 64)
            p = rng.randint(1, q)
            alpha = Fraction(p, q)
            seq = generate_sequence(alpha)
            assert seq.count(1) == alpha.denominator
            assert seq.count(2) == alpha.numerator
            ones = twos = 0
            for s in seq:
                if s == 1:
                    ones += 1
                else:
                    twos += 1
                assert abs(Fraction(twos) - alpha * ones) <= 1

    def test_equals_the_pdu_by_pdu_rule_for_every_reduced_alpha(self):
        for q in range(1, 65):
            for p in range(1, q + 1):
                alpha = Fraction(p, q)
                assert generate_sequence(alpha) == christoffel_cycle(
                    alpha.numerator, alpha.denominator), alpha

    def test_denominator_limit(self):
        # alpha is rounded to denominator <= 64; a ratio that rounds to 0
        # (at most 1/128) cannot be scheduled
        assert generate_sequence(Fraction(1, 65)) == generate_sequence(Fraction(1, 64))
        assert generate_sequence(Fraction("0.33")) == generate_sequence(Fraction(21, 64))
        with pytest.raises(DenominatorTooLarge):
            generate_sequence(Fraction(1, 128))

    def test_out_of_domain(self):
        for alpha in (0, -1, Fraction(3, 2), 10**400):
            with pytest.raises(InvariantError, match=r"\(0, 1\]"):
                generate_sequence(alpha)

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(st.fractions(min_value=0, max_value=1).filter(lambda alpha: alpha > 0))
    def test_cycle_realises_rounded_alpha(self, alpha):
        rounded = alpha.limit_denominator(64)
        try:
            cycle = generate_sequence(alpha)
        except DenominatorTooLarge:
            assert rounded == 0
            return
        alpha_used = SchedulingPlan(cycle).alpha_used
        assert alpha_used == rounded
        ones = twos = 0
        for entry in cycle:
            ones += entry == 1
            twos += entry == 2
            assert abs(twos - alpha_used * ones) <= 1


def _farey(order: int) -> list[Fraction]:
    """The Farey sequence of ``order``: every reduced fraction in [0, 1] with
    denominator at most ``order``, ascending."""
    a, b, c, d = 0, 1, 1, order
    terms = [Fraction(a, b)]
    while c <= order:
        k = (order + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b
        terms.append(Fraction(a, b))
    return terms


def _rounds_as_limit_denominator(alpha: Fraction) -> None:
    """``generate_sequence`` realises ``Fraction.limit_denominator(64)``, or
    refuses exactly the alphas that it rounds to 0."""
    rounded = alpha.limit_denominator(64)
    try:
        cycle = generate_sequence(alpha)
    except DenominatorTooLarge:
        assert rounded == 0, alpha
    else:
        assert SchedulingPlan(cycle).alpha_used == rounded, alpha


class TestRounding:
    """The rounding to denominator <= 64, against ``Fraction.limit_denominator``."""

    def test_midpoints_of_the_farey_sequence(self):
        # A midpoint of two adjacent terms is a tie between them; just off it,
        # the nearer term wins.
        terms = _farey(64)
        assert len(terms) == 1 + sum(math.gcd(p, q) == 1 for q in range(1, 65)
                                     for p in range(1, q + 1))
        for low, high in zip(terms, terms[1:]):
            mid = (low + high) / 2
            eps = (high - low) / 10**6
            for alpha in (mid - eps, mid, mid + eps):
                _rounds_as_limit_denominator(alpha)

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(st.integers(1, 10**20).flatmap(
        lambda den: st.integers(1, den).map(lambda num: Fraction(num, den))))
    def test_fractions_with_large_terms(self, alpha):
        _rounds_as_limit_denominator(alpha)


class TestFrameArithmetic:
    def test_superframes_in_differential_delay(self):
        assert abs(superframes_in_interval(0.1881, 4_640_000) - 1.425) <= 0.001

    def test_zero_interval(self):
        assert superframes_in_interval(0.0, 4_640_000) == 0.0

    def test_exactly_one_superframe(self):
        rate = 4_640_000
        assert math.isclose(
            superframes_in_interval(612540 / rate, rate), 1.0, rel_tol=1e-12)

    def test_pdus_per_fecframe_reference(self):
        assert pdus_per_fecframe(1500, MODCODS["8PSK 5/6"], Fraction(1, 4)) == 1

    def test_pdus_per_fecframe_full_fill(self):
        assert pdus_per_fecframe(1500, MODCODS["8PSK 5/6"], 1) == 4

    def test_oversized_pdu(self):
        with pytest.raises(ZeroPayload):
            pdus_per_fecframe(10_000, MODCODS["8PSK 5/6"], Fraction(1, 4))


class TestMultiOrbitPrefix:
    def test_reference_raw_value_with_explicit_delay(self):
        fast = carrier(orbit=OrbitModel.meo(amplitude_km=0.0))
        raw = initial_fast_sequence_raw(fast, 0.1881, n_pdu(fast))
        assert abs(raw - 38.4712) < 5e-4
        assert math.floor(raw) == 38

    def test_geometry_based_prefix(self):
        fast = carrier(orbit=OrbitModel.meo(amplitude_km=0.0))
        slow = carrier(1_856_000, orbit=OrbitModel.geo())
        assert multi_orbit_prefix(fast, slow, n_pdu(fast)) == 38

    def test_same_orbit_gives_zero(self):
        geo1, geo2 = carrier(), carrier(1_856_000)
        assert multi_orbit_prefix(geo1, geo2, n_pdu(geo1)) == 0

    def test_doubling_rate_doubles_raw(self):
        fast = carrier(orbit=OrbitModel.meo(amplitude_km=0.0))
        double = carrier(2 * 4_640_000, orbit=OrbitModel.meo(amplitude_km=0.0))
        delta = planning_differential_delay_s(fast.orbit, OrbitModel.geo())
        raw = initial_fast_sequence_raw(fast, delta, n_pdu(fast))
        raw2 = initial_fast_sequence_raw(double, delta, n_pdu(double))
        assert math.isclose(raw2, 2 * raw, rel_tol=1e-12)
        assert math.floor(raw2) == 76

    def test_swapped_orbits_rejected(self):
        with pytest.raises(ValueError):
            planning_differential_delay_s(OrbitModel.geo(), OrbitModel.meo())


class TestBuildPlan:
    def test_geo_ca_alpha_04(self):
        plan = build_plan(alpha_scenario(Fraction(2, 5)))
        assert (plan.prefix_carrier, plan.prefix_length) == (None, 0)
        assert plan.cycle == (1, 1, 2, 1, 1, 1, 2)
        assert plan.alpha_used == Fraction(2, 5)

    def test_alpha_one_lb_equals_rr(self):
        lb = build_plan(alpha_scenario(Fraction(1)))
        rr = build_plan(alpha_scenario(Fraction(1), scheduler=SchedulerKind.ROUND_ROBIN))
        assert lb == rr

    def test_meo_geo_prefix(self):
        plan = build_plan(
            alpha_scenario(
                Fraction(2, 5),
                orbit1=OrbitModel.meo(amplitude_km=0.0),
                orbit2=OrbitModel.geo(),
            )
        )
        assert (plan.prefix_carrier, plan.prefix_length) == (1, 38)

    def test_geo_meo_prefix_lands_on_carrier2(self):
        plan = build_plan(
            alpha_scenario(
                Fraction(2, 5),
                orbit1=OrbitModel.geo(),
                orbit2=OrbitModel.meo(amplitude_km=0.0),
            )
        )
        assert plan.prefix_carrier == 2 and plan.prefix_length > 0

    def test_round_robin_ignores_alpha(self):
        plan = build_plan(
            alpha_scenario(Fraction(2, 5), scheduler=SchedulerKind.ROUND_ROBIN))
        assert (plan.prefix_carrier, plan.prefix_length) == (None, 0)
        assert plan.cycle == (1, 2)

    def test_table_alphas_get_the_table_rows(self):
        for alpha, row in PAPER_LOOKUP_TABLE.items():
            plan = build_plan(alpha_scenario(alpha))
            assert plan.cycle == row
            assert plan.alpha_used == alpha

    def test_off_table_alpha_uses_generator(self):
        plan = build_plan(alpha_scenario(Fraction(13, 32)))
        assert plan.alpha_used == Fraction(13, 32)
        assert plan.cycle.count(2) == 13 and plan.cycle.count(1) == 32


class TestAssign:
    def test_direct_cycle_index(self):
        plan = SchedulingPlan(cycle=(1, 1, 2))
        column = assignments(plan, 3)
        assert column.dtype == np.int64
        assert column.tolist() == [1, 1, 2]

    def test_prefix_then_rollover(self):
        plan = SchedulingPlan(cycle=(1, 1, 2, 1, 1, 1, 2), prefix_carrier=1, prefix_length=38)
        column = assignments(plan, 50)
        assert column[:38].tolist() == [1] * 38
        assert column[38:45].tolist() == list(plan.cycle)
        assert column[45:].tolist() == list(plan.cycle[:5])

    def test_periodic_after_prefix(self):
        plan = SchedulingPlan(cycle=(1, 2, 1, 1, 2), prefix_carrier=2, prefix_length=2)
        column = assignments(plan, 65).tolist()
        for seq in range(2, 60):
            assert column[seq] == column[seq + 5]

    def test_prefix_longer_than_n(self):
        plan = SchedulingPlan(cycle=(1, 2), prefix_carrier=1, prefix_length=38)
        assert assignments(plan, 5).tolist() == [1] * 5
        assert assignments(plan, 0).tolist() == []
        huge = SchedulingPlan(cycle=(1, 2), prefix_carrier=2, prefix_length=10**300)
        assert assignments(huge, 3).tolist() == [2, 2, 2]

    def test_negative_seq_rejected(self):
        plan = SchedulingPlan(cycle=(1, 2))
        with pytest.raises(ValueError):
            assignments(plan, -1)

    def test_plan_validation(self):
        assert SchedulingPlan(cycle=(1, 2, 1, 1, 2)).alpha_used == Fraction(2, 3)
        assert SchedulingPlan(cycle=(1,)).alpha_used == 0
        for cycle, carrier_, length in [
            ((), None, 0), ((2,), None, 0), ((1, 3), None, 0),
            ((1, 2), 1, 0), ((1, 2), None, 5), ((1, 2), 3, 5), ((1, 2), 1, -1),
            ((1, 2), 1, 2.0),
        ]:
            with pytest.raises(InvariantError):
                SchedulingPlan(cycle, carrier_, length)


ALPHA_TEXT = st.one_of(
    st.text(),
    st.from_regex(r"[-+]?\d{0,3}(\.\d{0,3})?(e[-+]?\d{1,3})?(/\d{1,3})?", fullmatch=True),
    st.floats().map(repr),
)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(ALPHA_TEXT)
def test_plan_alpha_cli_exits_0_2_or_3(alpha_text):
    assert main(["plan", "--alpha", alpha_text]) in (0, 2, 3)
