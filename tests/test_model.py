import contextlib
import dataclasses
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from casim.emulator import run, write_trace_csv
from casim.errors import InvariantError
from casim.metrics import ordering_report
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
from casim.scheduler import build_plan, generate_sequence
from helpers import carrier, columns, record, rows, seqs, typed
import oracle


class TestToFraction:
    def test_decimal_float_is_exact(self):
        # a rate field reads a float through its repr: the value written
        assert carrier(fill_rate=0.25).fill_rate == Fraction(1, 4)
        assert carrier(fill_rate=0.1).fill_rate == Fraction(1, 10)
        assert carrier(fill_rate=np.float64(0.1)).fill_rate == Fraction(1, 10)
        assert carrier(4640000.0).symbol_rate_sym_s == 4640000
        assert generate_sequence(0.4) == generate_sequence(Fraction(2, 5))

    def test_strings_and_ints(self):
        assert to_fraction("2/5") == Fraction(2, 5)
        assert to_fraction("0.4") == Fraction(2, 5)
        rate = carrier(3).symbol_rate_sym_s
        assert type(rate) is Fraction and rate == 3

    def test_non_finite_rejected(self):
        # refused where a rate field reads the float, before its repr
        for value in (float("nan"), float("inf"), np.float64("-inf")):
            with pytest.raises(InvariantError, match=f"^fill_rate must be finite, got {value}$"):
                carrier(fill_rate=value)

    @pytest.mark.parametrize("text", ["abc", "1/0"])
    def test_malformed_text_rejected(self, text):
        with pytest.raises(ValueError, match=f"^not a number: '{text}'$"):
            to_fraction(text)

    @pytest.mark.parametrize("text", ["1e999999999", "1e-999999999"])
    @pytest.mark.parametrize("parse", [to_fraction, generate_sequence,
                                       lambda text: carrier(symbol_rate=text)])
    def test_huge_decimal_exponent_rejected_quickly(self, parse, text):
        # Fraction would compute 10**999999999 exactly, which takes hours.
        # to_fraction reads text; the number fields refuse it by its type.
        started = time.perf_counter()
        if parse is to_fraction:
            error, message = ValueError, f"^decimal exponent beyond \\+-4000: '{text}'$"
        else:
            error, message = InvariantError, f"must be an int, float or Fraction, got '{text}'$"
        with pytest.raises(error, match=message):
            parse(text)
        assert time.perf_counter() - started < 1.0

    @pytest.mark.parametrize("text, refused", [
        ("1e4000", False), ("1e4001", True), ("1E-0004000", False), ("2.5e-4001", True),
        ("1e10000", True), ("1e04000", False)])
    def test_decimal_exponent_bound(self, text, refused):
        if refused:
            with pytest.raises(ValueError, match="decimal exponent beyond"):
                to_fraction(text)
        else:
            assert to_fraction(text) == Fraction(text)

    # p/q text: ASCII digits on both sides take the int path; everything
    # else (signs, spaces, underscores, other scripts' digits) is Fraction's.
    @settings(max_examples=300)
    @given(st.one_of(
        st.text(st.sampled_from("0139/+-_ .\t\u0663\u00b2"), max_size=10),
        st.builds(lambda zeros, p, q: f"{'0' * zeros}{p}/{'0' * zeros}{q}",
                  st.integers(0, 2), st.integers(0, 10**25), st.integers(0, 10**25))))
    @example("3/0")
    @example("\u0663/4")
    @example("1_0/3")
    @example("+3/4")
    @example("3/-4")
    @example(" 3/4")
    @example("03/004")
    @example("3/4/5")
    @example("1e5000/3")
    def test_ratio_text_parses_as_fraction_does(self, text):
        try:
            expected = Fraction(text)
        except (ValueError, ZeroDivisionError):
            with pytest.raises(ValueError) as raised:
                to_fraction(text)
            assert str(raised.value) == f"not a number: {text!r}"
        else:
            got = to_fraction(text)
            assert type(got) is Fraction and got == expected

    # Any text: where Fraction reads it, to_fraction gives the same Fraction,
    # unless its decimal exponent is beyond +-4000; where Fraction raises, a
    # ValueError.  Exponents are drawn bounded, as Fraction's time grows with them.
    @settings(max_examples=500)
    @given(st.one_of(
        st.text(st.sampled_from("0123456789/_+-. \t\n\u0661\u0662\u00b2"), max_size=12),
        st.builds(lambda zeros, p, q: f"{'0' * zeros}{p}/{'0' * zeros}{q}",
                  st.integers(0, 3), st.integers(0, 10**30), st.integers(0, 10**6)),
        st.builds(lambda mantissa, e, sign, exponent: f"{mantissa}{e}{sign}{exponent}",
                  st.sampled_from(["1", "2.5", "-0.75", "\u0661", " 3", "1_0", "+.5"]),
                  st.sampled_from("eE"), st.sampled_from(["", "+", "-"]),
                  st.one_of(st.integers(0, 4100).map(str),
                            st.sampled_from(["4000", "4001", "04000", "4_001", "00004001"])))))
    @example("1e4000")
    @example("1e4001")
    @example("1E-4001 ")
    @example("\u0661\u0662")
    @example("3/0")
    @example("007/0020")
    @example(" -1_000 ")
    def test_text_parses_as_fraction_does(self, text):
        try:
            expected = Fraction(text)
        except (ValueError, ZeroDivisionError):
            with pytest.raises(ValueError):
                to_fraction(text)
            return
        _, e, exponent = text.strip().upper().rpartition("E")
        if e and abs(int(exponent)) > 4000:
            with pytest.raises(ValueError, match="^decimal exponent beyond"):
                to_fraction(text)
        else:
            got = to_fraction(text)
            assert type(got) is Fraction and got == expected


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
        assert ModCod("ok", 2, Fraction(1, 36)).code_rate.denominator == 36
        with pytest.raises(InvariantError, match="code_rate denominator must be <= 36"):
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
            higher_rate = carrier(Fraction(k) * 2_000_000, modcod=base.modcod)
            assert higher_rate.usable_capacity_bps() > usable
        for better in (carrier(2_000_000, modcod=ModCod("m", 3, Fraction(1, 2))),
                       carrier(2_000_000, modcod=ModCod("m", 2, Fraction(3, 4))),
                       carrier(2_000_000, modcod=base.modcod, fill_rate=Fraction(1, 2))):
            assert better.usable_capacity_bps() > usable

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
        with pytest.raises(InvariantError, match="carrier 1 must be dominant.*swap"):
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

    def test_burst_sizes_are_derived_once(self):
        sc = ScenarioConfig(carrier(4_640_000), carrier(1_856_000), SchedulerKind.ROUND_ROBIN,
                            bursts=(Burst(3), Burst(4)))
        assert sc.burst_sizes is sc.burst_sizes
        changed = dataclasses.replace(sc, bursts=(Burst(5),) * 3)
        assert (changed.burst_sizes, changed.total_pdus) == ((5, 5, 5), 15)
        assert (sc.burst_sizes, sc.total_pdus) == ((3, 4), 7)
        assert "burst_sizes" not in repr(sc) and "total_pdus" not in repr(sc)
        # Not compared: equal scenarios stay equal with the derived fields forced apart.
        twin = dataclasses.replace(sc)
        object.__setattr__(twin, "burst_sizes", ())
        object.__setattr__(twin, "total_pdus", 0)
        assert twin == sc and hash(twin) == hash(sc)

    def test_burst_validation(self):
        with pytest.raises(InvariantError):
            Burst(0)
        with pytest.raises(InvariantError):
            Burst(10, -1.0)

    @pytest.mark.parametrize("count", [50.5, 50.0, "50"])
    def test_burst_count_must_be_int(self, count):
        with pytest.raises(InvariantError, match=f"pdu_count must be an int, got {count!r}"):
            Burst(count)

    @pytest.mark.parametrize("size", [1500.0, 1500.5])
    def test_pdu_size_must_be_int(self, size):
        with pytest.raises(InvariantError, match=f"pdu_size_bytes must be an int, got {size!r}"):
            ScenarioConfig(carrier(), carrier(), SchedulerKind.ROUND_ROBIN, pdu_size_bytes=size)

    def test_pdu_ceiling(self):
        def scenario(*sizes):
            return ScenarioConfig(carrier(), carrier(), SchedulerKind.ROUND_ROBIN,
                                  bursts=[Burst(size) for size in sizes])
        assert scenario(MAX_TOTAL_PDUS - 1, 1).total_pdus == MAX_TOTAL_PDUS
        with pytest.raises(InvariantError, match=f"at most {MAX_TOTAL_PDUS} PDUs"):
            scenario(MAX_TOTAL_PDUS, 1)

    def test_huge_dominant_capacity_in_message(self):
        expected = r"2\.90e\+6 bps < carrier 2's 6\.25e\+399 bps"
        with pytest.raises(InvariantError, match=expected):
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
    @settings(max_examples=300)
    @given(_CARRIERS, _CARRIERS, st.integers(1, 8000))
    def test_against_exact_fractions(self, a, b, pdu_size):
        c1, c2 = (a, b) if _usable(a) >= _usable(b) else (b, a)
        per_frame = [int(Fraction(64800) * c.modcod.code_rate * c.fill_rate / (8 * pdu_size))
                     for c in (c1, c2)]
        if 0 in per_frame:
            with pytest.raises(InvariantError, match="exceeds the per-frame share"):
                ScenarioConfig(c1, c2, SchedulerKind.LOAD_BALANCING, pdu_size)
            return
        sc = ScenarioConfig(c1, c2, SchedulerKind.LOAD_BALANCING, pdu_size)
        assert sc.alpha == _usable(c2) / _usable(c1)
        assert list(sc.pdus_per_frame) == per_frame
        assert sc.service_ns == (oracle._service_ns(c1, pdu_size),
                                 oracle._service_ns(c2, pdu_size))


# Valid RunTrace arguments: carrier 1 and 2 in one burst released at 0,
# each tx_end <= its arrival.
_RECORD = typed([1, 2], (0, 0), (2,), (0,), [1, 2], [2, 3])


def _with(i: int, value) -> tuple:
    """``_RECORD`` with argument ``i`` replaced by ``value``."""
    return (*_RECORD[:i], value, *_RECORD[i + 1:])


def _one_burst(carrier) -> tuple:
    """``RunTrace``'s arguments for ``carrier`` as one burst released at 0,
    every time 0 and both service times 0."""
    zeros = [0] * len(carrier)
    return typed(carrier, (0, 0), (len(carrier),) if carrier else (), (0,) if carrier else (),
                 zeros, zeros)


class TestRunTrace:
    def test_trace_time_ordering(self):
        record([(0, 1, 0, 0, 5, 10), (1, 2, 0, 0, 10, 10)])
        with pytest.raises(InvariantError, match="tx_start <= tx_end <= arrival"):
            record([(0, 1, 0, 5, 4, 10)])  # a service time of -1
        with pytest.raises(InvariantError, match="tx_start <= tx_end <= arrival"):
            record([(0, 1, 0, 0, 11, 10)])
        with pytest.raises(InvariantError, match="carrier must be 1 or 2"):
            record([(0, 3, 0, 0, 5, 10)])
        with pytest.raises(InvariantError, match="carrier must be 1 or 2"):
            record([(0, 0, 0, 0, 5, 10)])

    def test_empty_trace(self):
        trace = RunTrace(*typed([], (0, 0), (), (), [], []))
        assert len(trace) == 0 and trace.seq.size == 0
        assert trace.burst_sizes == trace.release_ns == ()
        with pytest.raises(TypeError):  # six fields only: seq and order are derived
            RunTrace(*typed([], (0, 0), (), (), [], [], []))

    def test_columns_are_equal_length_int8_carrier_int64_times(self):
        trace = record([(0, 1, 0, 0, 5, 10), (1, 2, 0, 0, 10, 10)])
        assert len(trace) == 2
        assert trace.carrier.dtype == np.int8 and trace.carrier.shape == (2,)
        assert all(c.dtype == np.int64 and c.shape == (2,) for c in (
            trace.seq, trace.t_tx_end_ns, trace.t_arrival_ns))
        assert trace.service_ns == (5, 10)
        assert trace.burst_sizes == (2,) and trace.release_ns == (0,)
        assert trace.order is None
        with pytest.raises(InvariantError, match="equal length"):
            RunTrace(*typed([1, 1], (0, 0), (2,), (0,), [5, 5], [10]))
        with pytest.raises(InvariantError, match="one-dimensional"):
            RunTrace(*typed([[1]], (0, 0), (1,), (0,), [[1]], [[1]]))

    def test_columns_list_rows_in_order(self):
        # Rows are stored in carrier order: seq 1 and 3 on carrier 1, then 0 and 2.
        listed = [(2, 2, 0, 1, 4, 9), (1, 1, 0, 5, 10, 10), (0, 2, 0, 0, 3, 11),
                  (3, 1, 0, 10, 15, 15)]
        trace = record(listed)
        assert trace.seq.tolist() == [1, 3, 0, 2]
        assert trace.carrier.tolist() == [2, 1, 2, 1]
        assert sorted(rows(trace), key=lambda row: (row[1], row[0])) == rows(trace)
        merged = merge(trace)
        assert merged.order.tolist() == [3, 0, 2, 1]  # row indices in receive order
        assert rows(merged) == sorted(listed, key=lambda row: row[5])

    def test_length_and_listed_rows_before_and_after_merge(self):
        # Stored rows: seq 1, 3 (carrier 1), then 0, 2 (carrier 2); received
        # in the order of rows 3, 0, 2, 1.  A slice past the end is cut there.
        trace = record([(2, 2, 0, 1, 4, 9), (1, 1, 0, 5, 10, 10), (0, 2, 0, 0, 3, 11),
                        (3, 1, 0, 10, 15, 15)])
        merged = merge(trace)
        assert len(trace) == len(merged) == 4
        assert trace.order is None
        for start, stop, stored, received in [(0, 4, [0, 1, 2, 3], [3, 0, 2, 1]),
                                               (1, 3, [1, 2], [0, 2]),
                                               (2, 9, [2, 3], [2, 1]),
                                               (4, 8, [], [])]:
            assert trace._rows(start, stop).tolist() == stored
            assert merged._rows(start, stop).tolist() == received
        assert seqs(trace) == [1, 3, 0, 2] and seqs(merged) == [2, 1, 0, 3]

    @pytest.mark.parametrize("columns, message", [
        (_with(0, [1.7, 2]), "carrier must be an int8 array"),
        (_with(1, (0.5, 1)), "service_ns must be an int, got 0.5"),
        (_with(5, [2, 3]), "t_arrival_ns must be an int64 array"),
        (_with(5, np.array([2.0, 3.0])), "t_arrival_ns must be an int64 array"),
        (_with(5, np.array([True, True])), "t_arrival_ns must be an int64 array"),
        (_with(5, np.array([2, 3], dtype=np.int16)), "t_arrival_ns must be an int64 array"),
        (_with(5, np.array([2.0, math.inf])), "t_arrival_ns must be an int64 array"),
        (_with(3, (0.0,)), "release_ns must be an int, got 0.0"),
        (_with(0, np.array([1, 3], dtype=np.int8)), "carrier must be 1 or 2"),
        (_with(1, (0, 2**63)), "service_ns exceeds the int64 range"),
        (_with(1, 5), "service_ns must hold two service times"),
        (_with(1, (0, 0, 0)), "service_ns must hold two service times"),
        # a tx end below 0, though tx_start <= tx_end <= arrival
        (_with(4, np.array([-1, 2], dtype=np.int64)),
         "must satisfy 0 <= tx_end, tx_start <= tx_end <= arrival"),
        (_with(0, np.array([1.0, 2.0])), "carrier must be an int8 array"),
        (_with(0, np.array([True, True])), "carrier must be an int8 array"),
        (_with(0, np.array([1, 258], dtype=np.int16)), "carrier must be an int8 array"),
        (_with(2, (2.0,)), "burst_sizes must be an int, got 2.0"),
        (_with(2, (True,)), "burst_sizes must be an int, got True"),
        (_with(3, (np.float64(0.0),)), "release_ns must be an int, got np.float64"),
        (_with(4, [1, 2]), "t_tx_end_ns must be an int64 array"),
        (_with(4, np.array([1.0, 2.0])), "t_tx_end_ns must be an int64 array"),
        (_with(4, np.array([True, True])), "t_tx_end_ns must be an int64 array"),
        (_with(4, np.array([1, 2], dtype=np.int16)), "t_tx_end_ns must be an int64 array"),
    ])
    def test_values_not_whole_int64_rejected(self, columns, message):
        # A column is refused unless it is an int8 (carrier) or int64 (times)
        # array, never converted: 1.7 would store as 1, and 258 as int8 2.
        # A burst size or release is refused unless it is an int.
        with pytest.raises(InvariantError, match=message):
            RunTrace(*columns)

    def test_release_in_the_int64_range(self):
        # A release is an int ns instant, 0..2**63-1: pinned at each end.
        for release in (0, 2**63 - 1):
            assert RunTrace(*_with(3, (release,))).release_ns == (release,)
        for release in (-1, 2**63):
            with pytest.raises(InvariantError, match=r"^release_ns must be in 0\.\.2\*\*63-1$"):
                RunTrace(*_with(3, (release,)))

    def test_release_never_decreases(self):
        # Two bursts of one PDU: an equal release is accepted, one ns less is not.
        for releases in ((5, 5), (5, 6), (0, 2**63 - 1)):
            assert RunTrace(*_RECORD[:2], (1, 1), releases, *_RECORD[4:]).release_ns == releases
        with pytest.raises(InvariantError, match=r"^release_ns must never decrease$"):
            RunTrace(*_RECORD[:2], (1, 1), (5, 4), *_RECORD[4:])

    def test_burst_sizes_at_least_1_and_sum_to_n(self):
        for sizes in ((2,), (1, 1)):
            assert RunTrace(*_RECORD[:2], sizes, (0,) * len(sizes), *_RECORD[4:]).burst_sizes == sizes
        for sizes in ((1,), (3,), (2, 0), (3, -1), ()):
            with pytest.raises(InvariantError, match=r"^burst_sizes must be >= 1 and sum to 2$"):
                RunTrace(*_RECORD[:2], sizes, (0,) * len(sizes), *_RECORD[4:])
        assert len(RunTrace(*_one_burst([]))) == 0  # no PDUs and no bursts
        with pytest.raises(InvariantError, match=r"^burst_sizes must be >= 1 and sum to 0$"):
            RunTrace(*typed([], (0, 0), (1,), (0,), [], []))

    def test_one_release_per_burst(self):
        for releases in ((), (0, 0)):
            with pytest.raises(InvariantError,
                               match=r"^release_ns must hold one release per burst$"):
                RunTrace(*_with(3, releases))
        with pytest.raises(InvariantError, match=r"^burst_sizes and release_ns must hold ints$"):
            RunTrace(*_with(3, 0))

    @settings(max_examples=100)
    @given(st.lists(st.sampled_from([1, 2]), max_size=40))
    @example([])
    @example([1, 1, 1])
    @example([2, 2])
    @example([2, 1, 1, 2, 1])
    def test_seq_is_carrier_1_then_carrier_2_in_sequence_order(self, carrier):
        trace = RunTrace(*_one_burst(carrier))
        assert trace.seq.dtype == np.int64
        assert trace.seq.tolist() == sorted(range(len(carrier)), key=lambda s: (carrier[s], s))

    @pytest.mark.parametrize("carrier", [[1, 3, 2], [2, 0, 1], [1, 1, -1, 2]])
    def test_carrier_neither_1_nor_2_refused_between_valid_ones(self, carrier):
        with pytest.raises(InvariantError, match=r"^carrier must be 1 or 2$"):
            RunTrace(*_one_burst(carrier))

    def test_tx_start_at_the_int64_bound(self, tmp_path):
        # With 0 <= tx_end and a service time of at most 2**63 - 1, no tx
        # start passes -(2**63 - 1): a tx end of 0 on the longest service.
        bound = 2**63 - 1
        trace = RunTrace(*typed([1, 2], (bound, 1), (2,), (0,), [0, 1], [0, 1]))
        assert [row[3] for row in rows(trace)] == [-bound, 0]
        write_trace_csv(trace, tmp_path / "trace.csv")
        assert (tmp_path / "trace.csv").read_bytes().splitlines()[1:] == [
            b"0,1,0,%d,0,0" % -bound, b"1,2,0,0,1,1"]
        for tx_end in ([-1, 1], [0, -1]):  # one step below 0, on either carrier
            with pytest.raises(InvariantError, match="0 <= tx_end, tx_start <= tx_end <= arrival"):
                RunTrace(*typed([1, 2], (bound, 1), (2,), (0,), tx_end, [0, 1]))

    def test_int8_carrier_and_int64_times_not_copied(self):
        carrier, times = np.array([1, 2], dtype=np.int8), np.zeros(2, dtype=np.int64)
        trace = RunTrace(carrier, (np.int64(3), 0), (np.int64(2),), (np.int64(0),), times, times)
        assert trace.carrier is carrier
        assert trace.t_tx_end_ns is times and trace.t_arrival_ns is times
        assert trace.service_ns == (3, 0) and type(trace.service_ns[0]) is int
        assert trace.burst_sizes == (2,) and type(trace.burst_sizes[0]) is int
        assert trace.release_ns == (0,) and type(trace.release_ns[0]) is int


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


_TINY = math.nextafter(0.0, 1.0)


@pytest.mark.parametrize("build, refused, accepted, message", [
    (lambda v: OrbitModel.geo(v), 0.0, _TINY, "mean_leg_distance_km must be > 0"),
    # a constant path: a varying one's period is bounded by its phase rule
    (lambda v: OrbitModel.meo(amplitude_km=0.0, period_s=v), 0.0, _TINY,
     "variation_period_s must be > 0"),
    (lambda v: ScenarioConfig(carrier(), carrier(), SchedulerKind.ROUND_ROBIN, v), 0, 1,
     "pdu_size_bytes must be > 0"),
], ids=["mean_leg_distance_km", "variation_period_s", "pdu_size_bytes"])
def test_refused_at_the_bound_accepted_one_step_inside(build, refused, accepted, message):
    build(accepted)
    with pytest.raises(InvariantError, match=message):
        build(refused)


# Every scalar field of a two-burst MEO/MEO scenario, at a valid value.
_VALID = {
    **{f"carrier{i}.{name}": value
       for i, rate in ((1, 4_640_000), (2, 1_856_000))
       for name, value in (
           ("bits_per_symbol", 3), ("code_rate", Fraction(1, 2)), ("kind", "MEO"),
           ("mean_leg_distance_km", 11933.0 * i), ("variation_amplitude_km", 300.0),
           ("variation_period_s", 600.0), ("variation_phase_rad", 0.5),
           ("symbol_rate_sym_s", rate), ("fill_rate", Fraction(1, 2)), ("snr_db", 10.0),
           ("modcod_name", "m"))},
    **{f"burst{j}.{name}": value
       for j in (1, 2) for name, value in (("pdu_count", 40), ("inter_burst_gap_s", 0.01))},
    "scheduler": "load_balancing",
    "pdu_size_bytes": 1500,
    "label": "drawn",
}
_CASTS = (bool, int, lambda v: np.int64(int(v)), float, lambda v: np.float32(float(v)), str,
          Fraction, lambda v: None)
# Any value of each type.  Counts stay small, so a scenario runs in under 1 ms.
_ANY = st.one_of(
    st.booleans(), st.integers(-2, 3000), st.integers(-2, 3000).map(np.int64), st.floats(),
    st.floats(width=32).map(np.float32),
    st.sampled_from(["MEO", "round_robin", "0.25", "40151"]) | st.text(max_size=3),
    st.fractions(), st.none())


def _drawn_field(key: str):
    """(``key``, mostly its valid value cast to each type, else any value)."""
    valid = _VALID[key]
    typed = (st.just(valid) if isinstance(valid, str)
             else st.sampled_from(_CASTS).map(lambda cast: cast(valid)))
    # Not st.one_of, which would merge _ANY's eight branches with typed's one.
    return st.tuples(st.just(key), st.sampled_from([typed, typed, _ANY]).flatmap(lambda s: s))


def _scenario(fields: dict) -> ScenarioConfig:
    def carrier_(i):
        def get(name):
            return fields[f"carrier{i}.{name}"]
        orbit = OrbitModel(get("kind"), get("mean_leg_distance_km"), get("variation_amplitude_km"),
                           get("variation_period_s"), get("variation_phase_rad"))
        return CarrierConfig(get("symbol_rate_sym_s"),
                             ModCod(get("modcod_name"), get("bits_per_symbol"), get("code_rate")),
                             get("fill_rate"), get("snr_db"), orbit)

    bursts = [Burst(fields[f"burst{j}.pdu_count"], fields[f"burst{j}.inter_burst_gap_s"])
              for j in (1, 2)]
    return ScenarioConfig(carrier_(1), carrier_(2), fields["scheduler"], fields["pdu_size_bytes"],
                          bursts, fields["label"])


class TestFieldTypes:
    """One rule per kind of field: an integer field holds an int, a real field
    a finite float, an exact field a Fraction, an enum field a member.  A bool
    is refused; a numpy integer counts as an int and a numpy float as a float."""

    @pytest.mark.parametrize("build, message", [
        (lambda: ModCod("x", 3.0, Fraction(5, 6)), "bits_per_symbol must be an int, got 3.0"),
        (lambda: ModCod("x", np.bool_(True), Fraction(5, 6)), "bits_per_symbol must be an int"),
        (lambda: Burst(True), "pdu_count must be an int, got True"),
        (lambda: ScenarioConfig(carrier(), carrier(), SchedulerKind.ROUND_ROBIN, True),
         "pdu_size_bytes must be an int, got True"),
        (lambda: OrbitModel("GEO", "40151"), "mean_leg_distance_km must be an int or float"),
        (lambda: OrbitModel("GEO", 10**400), "mean_leg_distance_km exceeds the float range"),
        (lambda: OrbitModel("HEO", 40151.0), "kind must be one of GEO, MEO, got 'HEO'"),
        (lambda: carrier(snr_db="10"), "snr_db must be an int or float"),
        (lambda: Burst(5, "1.0"), "inter_burst_gap_s must be an int or float"),
        (lambda: carrier(fill_rate=True), "fill_rate must be an int, float or Fraction"),
        (lambda: carrier(symbol_rate=math.inf), "symbol_rate_sym_s must be finite"),
        (lambda: ScenarioConfig(carrier(), carrier(), None), "scheduler must be one of"),
        (lambda: generate_sequence(None), "alpha must be an int, float or Fraction"),
        (lambda: ModCod(None, 3, Fraction(1, 2)), "name must be a str, got None"),
        (lambda: ScenarioConfig(carrier(), carrier(), SchedulerKind.ROUND_ROBIN, label=None),
         "label must be a str, got None"),
        (lambda: ScenarioConfig(carrier(), carrier(), SchedulerKind.ROUND_ROBIN, label=b"x"),
         "label must be a str, got b'x'"),
    ])
    def test_refused_naming_the_field(self, build, message):
        with pytest.raises(InvariantError, match=message):
            build()

    @pytest.mark.parametrize("build, message", [
        (lambda: Burst(-10**5000), r"pdu_count must be > 0, got -1\.00e\+5000$"),
        (lambda: Burst(Fraction(10**5000, 3)), r"pdu_count must be an int, got 3\.33e\+4999$"),
        (lambda: ScenarioConfig(carrier(), carrier(), SchedulerKind.ROUND_ROBIN, 10**5000),
         r"PDU of 1\.00e\+5000 B exceeds the per-frame share"),
        (lambda: ScenarioConfig(carrier(), carrier(), SchedulerKind.ROUND_ROBIN,
                                bursts=(Burst(10**5000),)),
         r"offers at most 10000000 PDUs, got 1\.00e\+5000$"),
        (lambda: CarrierConfig(-10**5000, MODCODS["QPSK 1/2"], 1, 10.0, OrbitModel.geo()),
         r"symbol_rate_sym_s must be > 0, got -1\.00e\+5000$"),
        (lambda: carrier(fill_rate=Fraction(10**5000, 3)),
         r"fill_rate must be in \(0, 1\], got 3\.33e\+4999$"),
        (lambda: ModCod("x", 10**5000, Fraction(1, 2)),
         r"bits_per_symbol must be in 1\.\.6, got 1\.00e\+5000$"),
        (lambda: ModCod("x", 3, Fraction(10**5000)),
         r"code_rate must be in \(0, 1\], got 1\.00e\+5000$"),
        (lambda: ModCod("x", 3, Fraction(1, 10**5000)),
         r"code_rate denominator must be <= 36, got 1e-5000$"),
        (lambda: ScenarioConfig(carrier(), carrier(), 10**5000), r"got 1\.00e\+5000$"),
        (lambda: ScenarioConfig(carrier(), carrier(), SchedulerKind.ROUND_ROBIN, label=-10**5000),
         r"label must be a str, got -1\.00e\+5000$"),
    ])
    def test_numbers_past_the_text_limit_shown_to_three_digits(self, build, message):
        # Python refuses to turn an int of more than 4300 digits into text.
        with pytest.raises(InvariantError, match=message):
            build()

    @pytest.mark.parametrize("build, field, value", [
        (lambda: Burst(np.int64(5)), "pdu_count", 5),
        (lambda: ModCod("y", np.int64(3), Fraction(3, 4)), "bits_per_symbol", 3),
        (lambda: carrier(np.int64(4_640_000)), "symbol_rate_sym_s", Fraction(4_640_000)),
        (lambda: carrier(fill_rate=np.float64(0.25)), "fill_rate", Fraction(1, 4)),
        (lambda: OrbitModel("GEO", np.float32(40151.0)), "mean_leg_distance_km", 40151.0),
        (lambda: OrbitModel("GEO", 40151), "mean_leg_distance_km", 40151.0),
        (lambda: Burst(5, np.int64(2)), "inter_burst_gap_s", 2.0),
    ])
    def test_numpy_and_int_values_stored_as_python_numbers(self, build, field, value):
        stored = getattr(build(), field)
        assert type(stored) is type(value) and stored == value

    def test_str_subclass_label_stored_as_str(self):
        class Label(str):
            def __str__(self):
                return "not the value"

        scenario = ScenarioConfig(carrier(), carrier(), SchedulerKind.ROUND_ROBIN,
                                  label=Label("geo_rr"))
        assert type(scenario.label) is str and scenario.label == "geo_rr"

    def test_float32_orbit_runs_as_its_float_twin(self):
        # Stored as float32, a GEO leg equal to its float twin would put float32
        # arithmetic into the delay: 267858620 ns against 267858639.7.
        def scenario(num):
            return ScenarioConfig(
                carrier(orbit=OrbitModel.meo(num(11933.0), num(300.0), num(600.0))),
                carrier(1_856_000, orbit=OrbitModel.geo(num(40151.0))),
                SchedulerKind.LOAD_BALANCING, bursts=(Burst(300, 0.5), Burst(300)))

        float32, python = scenario(np.float32), scenario(float)
        assert float32 == python and hash(float32) == hash(python)
        assert type(float32.carrier2.orbit.mean_propagation_delay_s()) is float
        traces = [run(sc, build_plan(sc)) for sc in (float32, python)]
        assert [np.asarray(c).tobytes() for c in columns(traces[0])] == \
            [np.asarray(c).tobytes() for c in columns(traces[1])]

    @settings(max_examples=300)
    @given(st.lists(st.sampled_from(sorted(_VALID)).flatmap(_drawn_field), max_size=3), _ANY)
    @example([], Fraction(2, 5))
    def test_constructors_refuse_or_the_scenario_runs(self, drawn, alpha):
        """Up to three scalar fields of a valid scenario are drawn from every
        type: bool, int, np.int64, float, np.float32, str, Fraction and None.
        Construction raises InvariantError, or the scenario runs through
        build_plan, run, merge and ordering_report, where InvariantError is the
        one exception allowed.  An accepted field is stored as its kind's
        Python type.  Fields that hold model objects (modcod, orbit, carrier1,
        carrier2, each burst) are out of scope.  ``generate_sequence`` takes
        the drawn alpha on the same terms."""
        with contextlib.suppress(InvariantError):
            assert set(map(type, generate_sequence(alpha))) == {int}
        try:
            scenario = _scenario({**_VALID, **dict(drawn)})
        except InvariantError:
            assert drawn, "the valid fields alone build a scenario"
            return
        carriers = (scenario.carrier1, scenario.carrier2)
        assert {type(v) for v in (scenario.pdu_size_bytes, *scenario.burst_sizes,
                                  *(c.modcod.bits_per_symbol for c in carriers))} == {int}
        assert {type(v) for c in carriers for v in (
            c.snr_db, *dataclasses.astuple(c.orbit)[1:])} == {float}
        assert {type(v) for c in carriers
                for v in (c.symbol_rate_sym_s, c.fill_rate, c.modcod.code_rate)} == {Fraction}
        assert {type(b.inter_burst_gap_s) for b in scenario.bursts} == {float}
        assert {type(v) for v in (scenario.label, *(c.modcod.name for c in carriers))} == {str}
        with contextlib.suppress(InvariantError):
            ordering_report(merge(run(scenario, build_plan(scenario))), scenario)
