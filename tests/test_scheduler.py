import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casim.cli import main
from casim.errors import InvariantError
from casim.model import MODCODS, OrbitModel, ScenarioConfig, SchedulerKind
from casim.scheduler import (
    NOMINAL_LIGHT_SPEED_KM_S,
    SchedulingPlan,
    assignments,
    build_plan,
    generate_sequence,
    multi_orbit_prefix,
)
from helpers import alpha_scenario, carrier
from oracle import PAPER_LOOKUP_TABLE, christoffel_cycle


def prefix_of(orbit1, orbit2, alpha=Fraction(2, 5)):
    """The multi-orbit prefix of two 8PSK 5/6 carriers at 4.64 Msym/s and
    alpha times that, on ``orbit1`` and ``orbit2``."""
    return multi_orbit_prefix(alpha_scenario(alpha, orbit1=orbit1, orbit2=orbit2))


# MEO and GEO legs 28215 km apart: the paper's 2 x 28215 / 3e5 = 0.1881 s
PAPER_MEO, GEO = OrbitModel.meo(11936.0, amplitude_km=0.0), OrbitModel.geo()


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


def scenario_alpha(c1, c2) -> Fraction:
    """The alpha a load-balancing scenario over carriers ``c1`` and ``c2`` derives."""
    return ScenarioConfig(c1, c2, SchedulerKind.LOAD_BALANCING).alpha


def scenario_pdus_per_frame(pdu_size_bytes, modcod, fill_rate) -> int:
    """PDUs per FEC frame a scenario derives for a carrier of ``modcod`` and ``fill_rate``."""
    c = carrier(modcod=modcod, fill_rate=fill_rate)
    return ScenarioConfig(c, c, SchedulerKind.LOAD_BALANCING, pdu_size_bytes).pdus_per_frame[0]


class TestLoadBalanceFactor:
    def test_bandwidth_ratio_five_to_two(self):
        alpha = scenario_alpha(carrier(4_640_000), carrier(1_856_000))
        assert alpha == Fraction(2, 5)

    def test_identical_carriers(self):
        assert scenario_alpha(carrier(), carrier()) == 1

    def test_dominance_violation(self):
        with pytest.raises(InvariantError, match="carrier 1 must be dominant"):
            scenario_alpha(carrier(1_856_000), carrier(4_640_000))

    def test_scale_invariance(self):
        rng = random.Random(11)
        for _ in range(20):
            k = Fraction(rng.randint(1, 1000), rng.randint(1, 1000))
            if k == 0:
                continue
            base = scenario_alpha(carrier(4_640_000), carrier(1_856_000))
            scaled = scenario_alpha(
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
        with pytest.raises(InvariantError, match="rounds to 0 at denominator <= 64"):
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
        except InvariantError as exc:
            assert rounded == 0 and "rounds to 0" in str(exc)
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
    except InvariantError as exc:
        assert rounded == 0 and "rounds to 0" in str(exc), alpha
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
        assert abs(prefix_of(PAPER_MEO, GEO).superframes - 1.425) <= 0.001

    def test_zero_interval(self):
        assert prefix_of(GEO, GEO).superframes == 0.0

    def test_exactly_one_superframe(self):
        # legs apart by the distance that light covers, there and back, in
        # one superframe of 612540 symbols at 4.64 Msym/s
        delta_km = 612540 / 4_640_000 * NOMINAL_LIGHT_SPEED_KM_S / 2
        fast = OrbitModel.meo(GEO.mean_leg_distance_km - delta_km, amplitude_km=0.0)
        assert math.isclose(prefix_of(fast, GEO).superframes, 1.0, rel_tol=1e-12)

    def test_pdus_per_fecframe_reference(self):
        assert scenario_pdus_per_frame(1500, MODCODS["8PSK 5/6"], Fraction(1, 4)) == 1

    def test_pdus_per_fecframe_full_fill(self):
        assert scenario_pdus_per_frame(1500, MODCODS["8PSK 5/6"], 1) == 4

    def test_oversized_pdu(self):
        with pytest.raises(InvariantError, match="exceeds the per-frame share"):
            scenario_pdus_per_frame(10_000, MODCODS["8PSK 5/6"], Fraction(1, 4))


class TestMultiOrbitPrefix:
    def test_reference_raw_value_with_explicit_delay(self):
        prefix = prefix_of(PAPER_MEO, GEO)
        assert prefix.delay_s == 0.1881
        assert abs(prefix.raw - 38.4712) < 5e-4
        assert (prefix.carrier, prefix.pdus_per_frame, prefix.length) == (1, 1, 38)

    def test_geometry_based_prefix(self):
        prefix = prefix_of(OrbitModel.meo(amplitude_km=0.0), GEO)
        assert (prefix.carrier, prefix.length) == (1, 38)

    def test_same_orbit_gives_zero(self):
        assert prefix_of(GEO, GEO) == (1, 0.0, 0.0, 1, 0.0, 0)

    def test_round_robin_pins_nothing(self):
        # every step is the same; only the pinned length is 0
        scenario = alpha_scenario(Fraction(2, 5), SchedulerKind.ROUND_ROBIN, PAPER_MEO, GEO)
        prefix = multi_orbit_prefix(scenario)
        assert prefix == prefix_of(PAPER_MEO, GEO)._replace(length=0)
        assert build_plan(scenario).prefix_length == 0

    def test_doubling_rate_doubles_raw(self):
        slow = carrier(1_856_000, orbit=GEO)
        prefix, doubled = (
            multi_orbit_prefix(ScenarioConfig(
                carrier(rate, orbit=OrbitModel.meo(amplitude_km=0.0)), slow,
                SchedulerKind.LOAD_BALANCING))
            for rate in (4_640_000, 2 * 4_640_000))
        assert math.isclose(doubled.raw, 2 * prefix.raw, rel_tol=1e-12)
        assert math.isclose(doubled.superframes, 2 * prefix.superframes, rel_tol=1e-12)
        assert doubled.length == 76

    def test_swapped_orbits_move_the_prefix_to_carrier2(self):
        meo = OrbitModel.meo(amplitude_km=0.0)
        prefix = prefix_of(meo, GEO, alpha=Fraction(1))
        swapped = prefix_of(GEO, meo, alpha=Fraction(1))
        assert (prefix.carrier, swapped.carrier) == (1, 2)
        assert swapped.length == prefix.length == 38
        assert swapped._replace(carrier=1) == prefix


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
        assert column.dtype == np.int8
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
