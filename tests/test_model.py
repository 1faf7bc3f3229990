import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from casim.errors import DominanceViolated, InvariantError, ZeroPayload
from casim.model import (
    MAX_TOTAL_PDUS,
    MODCODS,
    SPEED_OF_LIGHT_KM_S,
    Burst,
    CarrierConfig,
    ModCod,
    OrbitKind,
    OrbitModel,
    RunTrace,
    ScenarioConfig,
    SchedulerKind,
    modcod_for_snr,
    to_fraction,
)
from casim.receiver import merge
from casim.scheduler import generate_sequence
from helpers import carrier, record, rows
import oracle


class TestToFraction:
    def test_decimal_float_is_exact(self):
        assert to_fraction(0.25) == Fraction(1, 4)
        assert to_fraction(0.1) == Fraction(1, 10)
        assert to_fraction(4640000.0) == 4640000

    def test_strings_and_ints(self):
        assert to_fraction("2/5") == Fraction(2, 5)
        assert to_fraction("0.4") == Fraction(2, 5)
        assert to_fraction(3) == 3

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            to_fraction(float("nan"))

    @pytest.mark.parametrize("text", ["abc", "1/0"])
    def test_malformed_text_rejected(self, text):
        with pytest.raises(ValueError, match=f"^not a number: '{text}'$"):
            to_fraction(text)

    @pytest.mark.parametrize("text", ["1e999999999", "1e-999999999"])
    @pytest.mark.parametrize("parse", [to_fraction, generate_sequence,
                                       lambda text: carrier(symbol_rate=text)])
    def test_huge_decimal_exponent_rejected_quickly(self, parse, text):
        # Fraction would compute 10**999999999 exactly, which takes hours
        started = time.perf_counter()
        with pytest.raises(ValueError, match=f"^decimal exponent beyond \\+-4000: '{text}'$"):
            parse(text)
        assert time.perf_counter() - started < 1.0


class TestModCod:
    def test_known_table(self):
        mc = MODCODS["8PSK 5/6"]
        assert mc.bits_per_symbol == 3
        assert mc.code_rate == Fraction(5, 6)

    def test_bounds(self):
        with pytest.raises(InvariantError):
            ModCod("bad", 7, Fraction(1, 2))
        with pytest.raises(InvariantError):
            ModCod("bad", 2, Fraction(0))
        with pytest.raises(InvariantError):
            ModCod("bad", 2, Fraction(1, 37))

    def test_snr_selection(self):
        assert modcod_for_snr(10.0).name == "8PSK 5/6"
        assert modcod_for_snr(0.0).name == "QPSK 1/2"
        assert modcod_for_snr(10.1).name == "8PSK 5/6"
        assert modcod_for_snr(25.0).name == "16APSK 3/4"

    def test_snr_selection_monotone_in_efficiency(self):
        last = Fraction(0)
        for snr in (0.0, 1.0, 4.0, 7.9, 10.0, 10.2):
            modcod = modcod_for_snr(snr)
            eff = modcod.bits_per_symbol * modcod.code_rate
            assert eff >= last
            last = eff


class TestCapacity:
    def test_worked_product(self):
        c = carrier(4_640_000)
        assert c.usable_capacity_bps() == Fraction(4_640_000) * 3 * Fraction(5, 6) / 4
        assert carrier(4_640_000, fill_rate=1).usable_capacity_bps() == 11_600_000

    def test_identity_modcod(self):
        c = carrier(1_000_000, modcod=ModCod("ident", 1, Fraction(1)), fill_rate=1)
        assert c.usable_capacity_bps() == 1_000_000

    def test_zero_rate_rejected_at_construction(self):
        with pytest.raises(InvariantError):
            carrier(0)

    def test_monotone_in_each_factor(self):
        rng = random.Random(7)
        base = carrier(2_000_000, modcod=ModCod("m", 2, Fraction(1, 2)))
        usable = base.usable_capacity_bps()
        for _ in range(50):
            k = 1 + rng.random()
            higher_rate = carrier(to_fraction(k) * 2_000_000, modcod=base.modcod)
            assert higher_rate.usable_capacity_bps() > usable
        for better in (carrier(2_000_000, modcod=ModCod("m", 3, Fraction(1, 2))),
                       carrier(2_000_000, modcod=ModCod("m", 2, Fraction(3, 4))),
                       carrier(2_000_000, modcod=base.modcod, fill_rate=Fraction(1, 2))):
            assert better.usable_capacity_bps() > usable

    def test_from_bandwidth(self):
        c = CarrierConfig.from_bandwidth(
            5_000_000, Fraction(1, 4), MODCODS["8PSK 5/6"], Fraction(1, 4), 10.0,
            OrbitModel.geo())
        assert c.symbol_rate_sym_s == 4_000_000

    def test_fill_rate_bounds(self):
        with pytest.raises(InvariantError):
            carrier(fill_rate=0)
        with pytest.raises(InvariantError):
            carrier(fill_rate=Fraction(5, 4))


class TestOrbitModel:
    def test_geo_delay(self):
        geo = OrbitModel.geo(40151.0)
        expected = 2 * 40151.0 / SPEED_OF_LIGHT_KM_S
        assert math.isclose(geo.propagation_delay_s(0.0), expected, rel_tol=1e-12)
        assert abs(geo.propagation_delay_s(0.0) - 0.26786) < 5e-6

    def test_meo_mean_delay(self):
        meo = OrbitModel.meo(11933.0, amplitude_km=0.0)
        expected = 2 * 11933.0 / SPEED_OF_LIGHT_KM_S
        assert math.isclose(meo.propagation_delay_s(3.0), expected, rel_tol=1e-12)
        assert abs(meo.propagation_delay_s(0.0) - 0.07961) < 5e-6

    def test_geo_meo_differential_reproduces_reference(self):
        diff = OrbitModel.geo().mean_propagation_delay_s() \
            - OrbitModel.meo().mean_propagation_delay_s()
        assert abs(diff - 0.1881) < 0.0005

    def test_geo_is_constant(self):
        geo = OrbitModel.geo()
        assert geo.propagation_delay_s(0.0) == geo.propagation_delay_s(1234.5)

    def test_meo_is_periodic(self):
        meo = OrbitModel.meo(amplitude_km=300.0, period_s=600.0)
        rng = random.Random(3)
        for _ in range(20):
            t = rng.uniform(0.0, 5000.0)
            assert math.isclose(
                meo.propagation_delay_s(t),
                meo.propagation_delay_s(t + 600.0),
                rel_tol=1e-12,
            )

    def test_meo_delay_stays_within_amplitude(self):
        meo = OrbitModel.meo(amplitude_km=300.0)
        lo = 2 * (11933.0 - 300.0) / SPEED_OF_LIGHT_KM_S
        hi = 2 * (11933.0 + 300.0) / SPEED_OF_LIGHT_KM_S
        for t in range(0, 1200, 7):
            assert lo <= meo.propagation_delay_s(float(t)) <= hi

    def test_amplitude_at_most_mean_leg(self):
        # a larger amplitude would give negative slant distances
        OrbitModel.meo(11933.0, amplitude_km=11933.0)
        with pytest.raises(InvariantError, match="variation_amplitude_km must be in"):
            OrbitModel.meo(11933.0, amplitude_km=11933.001)

    def test_geo_variation_rejected(self):
        with pytest.raises(InvariantError):
            OrbitModel(OrbitKind.GEO, 40151.0, variation_amplitude_km=10.0)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            OrbitModel.geo().propagation_delay_s(-1.0)


class TestScenarioConfig:
    def test_dominance_enforced_with_swap_hint(self):
        with pytest.raises(DominanceViolated, match="swap"):
            ScenarioConfig(
                carrier1=carrier(1_856_000),
                carrier2=carrier(4_640_000),
                scheduler=SchedulerKind.LOAD_BALANCING,
            )

    def test_valid_scenario(self):
        sc = ScenarioConfig(
            carrier1=carrier(4_640_000),
            carrier2=carrier(1_856_000),
            scheduler=SchedulerKind.LOAD_BALANCING,
            bursts=(Burst(2500, 15.0), Burst(2500)),
            label="geo_ca",
        )
        assert sc.total_pdus == 5000
        assert sc.burst_sizes == (2500, 2500)

    def test_burst_validation(self):
        with pytest.raises(InvariantError):
            Burst(0)
        with pytest.raises(InvariantError):
            Burst(10, -1.0)

    def test_pdu_ceiling(self):
        def scenario(*sizes):
            return ScenarioConfig(carrier(), carrier(), SchedulerKind.ROUND_ROBIN,
                                  bursts=[Burst(size) for size in sizes])
        assert scenario(MAX_TOTAL_PDUS - 1, 1).total_pdus == MAX_TOTAL_PDUS
        with pytest.raises(InvariantError, match=f"at most {MAX_TOTAL_PDUS} PDUs"):
            scenario(MAX_TOTAL_PDUS, 1)

    def test_huge_dominant_capacity_in_message(self):
        expected = r"2\.90e\+6 bps < carrier 2's 6\.25e\+399 bps"
        with pytest.raises(DominanceViolated, match=expected):
            ScenarioConfig(carrier(), carrier(Fraction(10**400)), SchedulerKind.ROUND_ROBIN)


# Symbol rates up to 1e30, as integers or as p/q.
_RATES = st.one_of(
    st.integers(1, 10**30).map(Fraction),
    st.builds(Fraction, st.integers(1, 10**30), st.integers(1, 10**30)))
_FILLS = st.integers(1, 10**6).flatmap(
    lambda den: st.integers(1, den).map(lambda num: Fraction(num, den)))
_CARRIERS = st.builds(
    lambda rate, modcod, fill: CarrierConfig(rate, modcod, fill, 10.0, OrbitModel.geo()),
    _RATES, st.sampled_from(list(MODCODS.values())), _FILLS)


def _usable(c: CarrierConfig) -> Fraction:
    return c.symbol_rate_sym_s * c.modcod.bits_per_symbol * c.modcod.code_rate * c.fill_rate


class TestDerivedNumbers:
    # 612540e9 / (9 * 2 * 13612e9) ns per frame: one 4050 B PDU takes exactly
    # 2.5 ns, which rounds half to even, to 2
    @example(carrier(13_612_000_000_000, MODCODS["QPSK 1/2"], 1),
             carrier(13_612_000_000_000, MODCODS["QPSK 1/2"], 1), 4050)
    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(_CARRIERS, _CARRIERS, st.integers(1, 8000))
    def test_against_exact_fractions(self, a, b, pdu_size):
        c1, c2 = (a, b) if _usable(a) >= _usable(b) else (b, a)
        per_frame = [int(Fraction(64800) * c.modcod.code_rate * c.fill_rate / (8 * pdu_size))
                     for c in (c1, c2)]
        if 0 in per_frame:
            with pytest.raises(ZeroPayload):
                ScenarioConfig(c1, c2, SchedulerKind.LOAD_BALANCING, pdu_size)
            return
        sc = ScenarioConfig(c1, c2, SchedulerKind.LOAD_BALANCING, pdu_size)
        assert sc.alpha == _usable(c2) / _usable(c1)
        assert list(sc.pdus_per_frame) == per_frame
        assert sc.service_ns == (oracle._service_ns(c1, pdu_size),
                                 oracle._service_ns(c2, pdu_size))


class TestRunTrace:
    def test_trace_time_ordering(self):
        record([(0, 1, 0, 0, 5, 10), (1, 2, 0, 0, 10, 10)])
        with pytest.raises(InvariantError):
            record([(0, 1, 0, 0, 5, 10), (1, 1, 0, 5, 4, 10)])
        with pytest.raises(InvariantError):
            record([(0, 1, 0, 0, 11, 10)])
        with pytest.raises(InvariantError, match="carrier must be 1 or 2"):
            record([(0, 3, 0, 0, 5, 10)])
        with pytest.raises(InvariantError, match="carrier must be 1 or 2"):
            record([(0, 0, 0, 0, 5, 10)])

    def test_empty_trace(self):
        assert len(RunTrace(*[[]] * 5)) == 0
        with pytest.raises(TypeError):  # the five columns only: order is derived
            RunTrace(*[[]] * 6)

    def test_columns_are_equal_length_int64(self):
        trace = record([(0, 1, 0, 0, 5, 10), (1, 2, 0, 0, 10, 10)])
        assert len(trace) == 2
        assert all(c.dtype == np.int64 and c.shape == (2,)
                   for c in (trace.order, *trace.seq_columns()))
        assert trace.order.tolist() == [0, 1]
        with pytest.raises(InvariantError, match="equal length"):
            RunTrace([1, 1], [0, 0], [0, 0], [5, 5], [10])
        with pytest.raises(InvariantError, match="one-dimensional"):
            RunTrace(*[[[1]]] * 5)

    def test_columns_list_rows_in_order(self):
        listed = [(2, 2, 0, 1, 4, 9), (0, 1, 0, 0, 5, 10), (1, 1, 0, 5, 6, 11)]
        trace = merge(record(listed))
        assert trace.order.tolist() == [2, 0, 1]
        assert trace.carrier.tolist() == [1, 1, 2]
        assert rows(trace) == listed

    def test_times_beyond_int64_rejected(self):
        with pytest.raises(InvariantError):
            record([(0, 1, 2**63, 2**63, 2**63, 2**63)])


class TestNonFinite:
    @pytest.mark.parametrize("field", [
        "mean_leg_distance_km", "variation_amplitude_km",
        "variation_period_s", "variation_phase_rad"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_orbit_fields(self, field, value):
        kwargs = dict(kind=OrbitKind.MEO, mean_leg_distance_km=11933.0,
                      variation_amplitude_km=300.0)
        kwargs[field] = value
        with pytest.raises(InvariantError, match=field):
            OrbitModel(**kwargs)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_burst_gap(self, value):
        with pytest.raises(InvariantError, match="inter_burst_gap_s"):
            Burst(10, value)

    @pytest.mark.parametrize("value", [math.nan, -math.inf])
    def test_snr(self, value):
        with pytest.raises(InvariantError, match="snr_db"):
            carrier(snr_db=value)
