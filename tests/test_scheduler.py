import math
import random
from fractions import Fraction

import numpy as np
import pytest

from casim.errors import DenominatorTooLarge, DominanceViolated, ZeroPayload
from casim.model import MODCODS, OrbitModel, SchedulerKind
from casim.scheduler import (
    LOOKUP_TABLE,
    SchedulingPlan,
    assignments,
    build_plan,
    generate_sequence,
    initial_fast_sequence_raw,
    load_balance_factor,
    lookup_sequence,
    multi_orbit_prefix,
    nearest_table_alpha,
    pdus_per_fecframe,
    planning_differential_delay_s,
    superframes_in_interval,
)
from helpers import alpha_scenario, carrier


class TestLookupTable:
    def test_seventeen_rows(self):
        assert len(LOOKUP_TABLE) == 17

    def test_every_row_ratio_exact(self):
        for alpha, row in LOOKUP_TABLE.items():
            assert Fraction(row.count(2), row.count(1)) == alpha

    def test_rows_use_only_carrier_indices(self):
        for row in LOOKUP_TABLE.values():
            assert set(row) <= {1, 2}

    def test_reference_rows(self):
        assert LOOKUP_TABLE[Fraction(2, 5)] == (1, 1, 2, 1, 1, 1, 2)
        assert LOOKUP_TABLE[Fraction(1)] == (1, 2)
        assert LOOKUP_TABLE[Fraction(1, 4)] == (1, 1, 1, 1, 2)
        assert LOOKUP_TABLE[Fraction(1, 2)] == (1, 1, 2)


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


class TestLookupSequence:
    def test_exact_keys(self):
        assert lookup_sequence(Fraction(2, 5)) == [1, 1, 2, 1, 1, 1, 2]
        assert lookup_sequence(1) == [1, 2]
        assert lookup_sequence(0.25) == [1, 1, 1, 1, 2]

    def test_nearest_key(self):
        assert nearest_table_alpha(Fraction("0.42")) == Fraction(2, 5)
        assert lookup_sequence(Fraction("0.42")) == [1, 1, 2, 1, 1, 1, 2]

    def test_tie_goes_to_smaller_key(self):
        assert nearest_table_alpha(Fraction("0.425")) == Fraction(2, 5)
        assert nearest_table_alpha(Fraction("0.675")) == Fraction(13, 20)

    def test_below_table_range_uses_smallest_key(self):
        assert lookup_sequence(Fraction(1, 10)) == list(LOOKUP_TABLE[Fraction(1, 5)])

    def test_out_of_domain(self):
        with pytest.raises(ValueError):
            lookup_sequence(0)
        with pytest.raises(ValueError):
            lookup_sequence(Fraction(3, 2))


class TestGenerateSequence:
    def test_one_half_matches_table_row_exactly(self):
        assert generate_sequence(Fraction(1, 2)) == [1, 1, 2]

    def test_alpha_one_alternates(self):
        assert generate_sequence(1) == [1, 2]

    def test_one_fifth_counts(self):
        seq = generate_sequence(Fraction(1, 5))
        assert seq.count(1) == 5 and seq.count(2) == 1
        assert seq.count(1) == LOOKUP_TABLE[Fraction(1, 5)].count(1)

    def test_reproduces_every_table_row(self):
        for alpha, row in LOOKUP_TABLE.items():
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

    def test_denominator_limit(self):
        with pytest.raises(DenominatorTooLarge):
            generate_sequence(Fraction(1, 65))


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
        raw = initial_fast_sequence_raw(
            carrier(orbit=OrbitModel.meo(amplitude_km=0.0)), 0.1881, 1500)
        assert abs(raw - 38.4712) < 5e-4
        assert math.floor(raw) == 38

    def test_geometry_based_prefix(self):
        fast = carrier(orbit=OrbitModel.meo(amplitude_km=0.0))
        slow = carrier(1_856_000, orbit=OrbitModel.geo())
        assert multi_orbit_prefix(fast, slow, 1500) == 38

    def test_same_orbit_gives_zero(self):
        geo1, geo2 = carrier(), carrier(1_856_000)
        assert multi_orbit_prefix(geo1, geo2, 1500) == 0

    def test_doubling_rate_doubles_raw(self):
        fast = carrier(orbit=OrbitModel.meo(amplitude_km=0.0))
        double = carrier(2 * 4_640_000, orbit=OrbitModel.meo(amplitude_km=0.0))
        delta = planning_differential_delay_s(fast.orbit, OrbitModel.geo())
        raw = initial_fast_sequence_raw(fast, delta, 1500)
        raw2 = initial_fast_sequence_raw(double, delta, 1500)
        assert math.isclose(raw2, 2 * raw, rel_tol=1e-12)
        assert math.floor(raw2) == 76

    def test_swapped_orbits_rejected(self):
        with pytest.raises(ValueError):
            planning_differential_delay_s(OrbitModel.geo(), OrbitModel.meo())


class TestBuildPlan:
    def test_geo_ca_alpha_04(self):
        plan = build_plan(alpha_scenario(Fraction(2, 5)))
        assert plan.prefix == ()
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
        assert plan.prefix == (1,) * 38

    def test_geo_meo_prefix_lands_on_carrier2(self):
        plan = build_plan(
            alpha_scenario(
                Fraction(2, 5),
                orbit1=OrbitModel.geo(),
                orbit2=OrbitModel.meo(amplitude_km=0.0),
            )
        )
        assert plan.prefix and set(plan.prefix) == {2}

    def test_round_robin_ignores_alpha(self):
        plan = build_plan(
            alpha_scenario(Fraction(2, 5), scheduler=SchedulerKind.ROUND_ROBIN))
        assert plan.prefix == ()
        assert plan.cycle == (1, 2)

    def test_table_alphas_get_the_table_rows(self):
        for alpha, row in LOOKUP_TABLE.items():
            plan = build_plan(alpha_scenario(alpha))
            assert plan.cycle == row
            assert plan.alpha_used == alpha

    def test_off_table_alpha_uses_generator(self):
        plan = build_plan(alpha_scenario(Fraction(13, 32)))
        assert plan.alpha_used == Fraction(13, 32)
        assert plan.cycle.count(2) == 13 and plan.cycle.count(1) == 32


class TestAssign:
    def test_direct_cycle_index(self):
        plan = SchedulingPlan(prefix=(), cycle=(1, 1, 2), alpha_used=Fraction(1, 2))
        column = assignments(plan, 3)
        assert column.dtype == np.int64
        assert column.tolist() == [1, 1, 2]

    def test_prefix_then_rollover(self):
        plan = SchedulingPlan(
            prefix=(1,) * 38, cycle=(1, 1, 2, 1, 1, 1, 2), alpha_used=Fraction(2, 5))
        column = assignments(plan, 50)
        assert column[:38].tolist() == [1] * 38
        assert column[38:45].tolist() == list(plan.cycle)
        assert column[45:].tolist() == list(plan.cycle[:5])

    def test_periodic_after_prefix(self):
        plan = SchedulingPlan(
            prefix=(2, 2), cycle=(1, 2, 1, 1, 2), alpha_used=Fraction(2, 3))
        column = assignments(plan, 65).tolist()
        for seq in range(2, 60):
            assert column[seq] == column[seq + 5]

    def test_prefix_longer_than_n(self):
        plan = SchedulingPlan(prefix=(1,) * 38, cycle=(1, 2), alpha_used=1)
        assert assignments(plan, 5).tolist() == [1] * 5
        assert assignments(plan, 0).tolist() == []

    def test_negative_seq_rejected(self):
        plan = SchedulingPlan(prefix=(), cycle=(1, 2), alpha_used=1)
        with pytest.raises(ValueError):
            assignments(plan, -1)

    def test_plan_ratio_validation(self):
        with pytest.raises(ValueError):
            SchedulingPlan(prefix=(), cycle=(1, 2), alpha_used=Fraction(1, 2))
