import math
import random
from fractions import Fraction

import numpy as np
import pytest

from casim.errors import DominanceViolated, InvariantError
from casim.model import (
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
from helpers import carrier, record


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
        assert c.capacity_bps() == Fraction(4_640_000) * 3 * Fraction(5, 6)
        assert c.capacity_bps() == 11_600_000

    def test_identity_modcod(self):
        c = carrier(1_000_000, modcod=ModCod("ident", 1, Fraction(1)), fill_rate=1)
        assert c.capacity_bps() == 1_000_000

    def test_zero_rate_rejected_at_construction(self):
        with pytest.raises(InvariantError):
            carrier(0)

    def test_monotone_in_each_factor(self):
        rng = random.Random(7)
        base = carrier(2_000_000, modcod=ModCod("m", 2, Fraction(1, 2)))
        for _ in range(50):
            k = 1 + rng.random()
            higher_rate = carrier(to_fraction(k) * 2_000_000, modcod=base.modcod)
            assert higher_rate.capacity_bps() > base.capacity_bps()
        assert carrier(2_000_000, modcod=ModCod("m", 3, Fraction(1, 2))).capacity_bps() \
            > base.capacity_bps()
        assert carrier(2_000_000, modcod=ModCod("m", 2, Fraction(3, 4))).capacity_bps() \
            > base.capacity_bps()

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


class TestRunTrace:
    def test_trace_time_ordering(self):
        record([(0, 1, 0, 0, 5, 10), (1, 2, 0, 0, 10, 10)])
        with pytest.raises(InvariantError):
            record([(0, 1, 0, 0, 5, 10), (1, 1, 0, 5, 4, 10)])
        with pytest.raises(InvariantError):
            record([(0, 1, 0, 0, 11, 10)])
        with pytest.raises(InvariantError):
            record([(0, 3, 0, 0, 5, 10)])

    def test_columns_are_equal_length_int64(self):
        trace = record([(0, 1, 0, 0, 5, 10), (1, 2, 0, 0, 10, 10)])
        assert len(trace) == 2
        assert all(c.dtype == np.int64 and c.shape == (2,) for c in trace.columns())
        with pytest.raises(InvariantError):
            RunTrace([0, 1], [1, 1], [0, 0], [0, 0], [5, 5], [10])

    def test_negative_seq_rejected(self):
        with pytest.raises(InvariantError):
            record([(-1, 1, 0, 0, 5, 10)])

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
