"""Domain types shared by every casim module.

All types are immutable value objects validated at construction; they carry
no behaviour beyond derived-quantity accessors.  Counts are ints; times,
distances and SNR finite floats; rates exact ``Fraction``s, so capacity
ratios come out as exact rationals.  ``RunTrace`` holds a run's per-PDU
times as integer nanoseconds, and ``_carrier_split`` counts each burst's PDUs
on each carrier: the lengths of its ranges of rows.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from decimal import Decimal
from enum import Enum
from fractions import Fraction

import numpy as np

from .errors import InvariantError

__all__ = [
    "SPEED_OF_LIGHT_KM_S",
    "GEO_LEG_KM",
    "MEO_LEG_KM",
    "DEFAULT_PDU_SIZE_BYTES",
    "DEFAULT_MEO_VARIATION_AMPLITUDE_KM",
    "DEFAULT_MEO_VARIATION_PERIOD_S",
    "SUPERFRAME_SYMBOLS",
    "FRAMES_PER_SUPERFRAME_BUNDLE",
    "FECFRAME_BITS",
    "NS_PER_S",
    "INT64_MAX",
    "MAX_TOTAL_PDUS",
    "to_fraction",
    "approx",
    "ModCod",
    "MODCODS",
    "modcod_for_snr",
    "OrbitKind",
    "OrbitModel",
    "CarrierConfig",
    "SchedulerKind",
    "Burst",
    "ScenarioConfig",
    "RunTrace",
]

SPEED_OF_LIGHT_KM_S = 299792.458

# Reference one-leg slant distances (gateway->satellite or satellite->terminal).
GEO_LEG_KM = 40151.0
MEO_LEG_KM = 11933.0

DEFAULT_PDU_SIZE_BYTES = 1500
DEFAULT_MEO_VARIATION_AMPLITUDE_KM = 300.0
DEFAULT_MEO_VARIATION_PERIOD_S = 600.0

# Physical-layer container sizes (normal FEC frames, bundle format 2).
SUPERFRAME_SYMBOLS = 612540
FRAMES_PER_SUPERFRAME_BUNDLE = 9
FECFRAME_BITS = 64800

NS_PER_S = 10**9
INT64_MAX = 2**63 - 1  # every time is int64 ns: the horizon of a run

# The most PDUs one scenario may offer: far above any bundled or benchmark
# scenario, and low enough that a run's arrays fit in memory (run, merge and
# report together peak at ~74 B per PDU, so ~0.74 GB at the ceiling; writing
# trace.csv holds one block, ~1.4 MB, whatever N is).
MAX_TOTAL_PDUS = 10**7


# Fraction computes 10**exponent exactly, so its time grows with the exponent.
# The exponent's digits are taken without leading zeros: five exceed the bound.
MAX_DECIMAL_EXPONENT = 4000
_EXPONENT = re.compile(r"[eE][-+]?[0_]*(\d[\d_]*)\s*\Z")


def to_fraction(text: str) -> Fraction:
    """Read ``text``, an integer, decimal or ``p/q``, as an exact Fraction.

    It reads text only; a rate field reads a float through its repr (see
    ``_exact``).  ValueError names text that is none of these, or whose
    decimal exponent is beyond +-MAX_DECIMAL_EXPONENT.
    """
    try:  # ASCII digits, alone or as p/q, hold no exponent and skip Fraction's grammar
        if text.isascii():
            if text.isdigit():
                return Fraction(int(text))
            num, _, den = text.partition("/")
            if num.isdigit() and den.isdigit():
                return Fraction(int(num), int(den))
        match = _EXPONENT.search(text)
        if not (match and int(match[1].replace("_", "")[:5]) > MAX_DECIMAL_EXPONENT):
            return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"not a number: {text!r}") from None
    raise ValueError(f"decimal exponent beyond +-{MAX_DECIMAL_EXPONENT}: {text!r}")


def approx(value: Fraction) -> str:
    """``value`` to three significant digits, however large its terms."""
    return f"{Decimal(value.numerator) / value.denominator:.3g}"


def _shown(value, text=str) -> str:
    """``text(value)``, or ``approx(value)`` for a number that Python will not
    turn into text: an int of more than 4300 digits, or a Fraction of one."""
    try:
        return text(value)
    except ValueError:
        return approx(value) if isinstance(value, (int, Fraction)) else type(value).__name__


# One rule per kind of field decides what it may hold and stores it as one
# Python type.  A bool (numpy's too) is refused, a numpy integer counts as an
# int and a numpy float as a float; anything else is refused with an
# InvariantError naming the field.  The type ``config`` passes costs one test.

def _integer(name: str, value) -> int:
    """A count or size, stored as an int."""
    if type(value) is int:
        return value
    if isinstance(value, np.integer):
        return int(value)
    raise InvariantError(f"{name} must be an int, got {_shown(value, repr)}")


def _real(name: str, value) -> float:
    """A time, distance or SNR: an int or float, stored as a finite float."""
    if type(value) is not float:
        if type(value) is not int and not isinstance(value, (np.integer, np.floating)):
            raise InvariantError(f"{name} must be an int or float, got {_shown(value, repr)}")
        try:
            value = float(value)
        except OverflowError:
            raise InvariantError(f"{name} exceeds the float range") from None
    if not math.isfinite(value):
        raise InvariantError(f"{name} must be finite, got {value}")
    return value


def _exact(name: str, value) -> Fraction:
    """A rate: a Fraction, int or float, stored as a Fraction.  A float is read
    through its repr, so 0.1 is 1/10 (the value written), not its binary value."""
    if type(value) is Fraction:
        return value
    if type(value) is int or isinstance(value, np.integer):
        return Fraction(int(value))
    if type(value) is not float and not isinstance(value, np.floating):
        raise InvariantError(
            f"{name} must be an int, float or Fraction, got {_shown(value, repr)}")
    return to_fraction(repr(_real(name, value)))


def _enum(name: str, value, kind: type[Enum]) -> Enum:
    """A choice: a member of ``kind`` or the value of one, stored as the member."""
    if type(value) is kind:
        return value
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise InvariantError(
            f"{name} must be one of {', '.join(kind)}, got {_shown(value, repr)}") from None


def _text(name: str, value) -> str:
    """A name or label: a str (a subclass's value too), stored as a str."""
    if type(value) is str:
        return value
    if isinstance(value, str):
        return str.__str__(value)
    raise InvariantError(f"{name} must be a str, got {_shown(value, repr)}")


def _set(obj, rule, *names: str) -> None:
    """Store each named field of frozen ``obj`` as ``rule`` reads it."""
    for name in names:
        value = getattr(obj, name)
        if (stored := rule(name, value)) is not value:
            object.__setattr__(obj, name, stored)


# ---------------------------------------------------------------------------
#  Modulation and coding
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModCod:
    """A modulation-and-coding pair: bits per symbol and FEC code rate."""

    name: str
    bits_per_symbol: int
    code_rate: Fraction

    def __post_init__(self):
        _set(self, _text, "name")
        _set(self, _exact, "code_rate")
        _set(self, _integer, "bits_per_symbol")
        if not 1 <= self.bits_per_symbol <= 6:
            raise InvariantError(
                f"bits_per_symbol must be in 1..6, got {_shown(self.bits_per_symbol)}")
        if not (0 < self.code_rate <= 1):
            raise InvariantError(f"code_rate must be in (0, 1], got {_shown(self.code_rate)}")
        if self.code_rate.denominator > 36:
            raise InvariantError(
                f"code_rate denominator must be <= 36, got {_shown(self.code_rate)}")


MODCODS: dict[str, ModCod] = {
    mc.name: mc
    for mc in (
        ModCod("QPSK 1/2", 2, Fraction(1, 2)),
        ModCod("QPSK 3/4", 2, Fraction(3, 4)),
        ModCod("8PSK 3/4", 3, Fraction(3, 4)),
        ModCod("8PSK 5/6", 3, Fraction(5, 6)),
        ModCod("16APSK 3/4", 4, Fraction(3, 4)),
    )
}

# Monotone SNR threshold -> MODCOD selection table.  A carrier operates at
# the most efficient MODCOD whose threshold its SNR meets; below the first
# threshold the most robust entry is used.
SNR_MODCOD_TABLE: tuple[tuple[float, str], ...] = (
    (1.0, "QPSK 1/2"),
    (4.0, "QPSK 3/4"),
    (7.9, "8PSK 3/4"),
    (10.0, "8PSK 5/6"),
    (10.2, "16APSK 3/4"),
)


def modcod_for_snr(snr_db: float) -> ModCod:
    """Select the highest-rate MODCOD whose SNR threshold is met."""
    chosen = SNR_MODCOD_TABLE[0][1]
    for threshold, name in SNR_MODCOD_TABLE:
        if snr_db >= threshold:
            chosen = name
    return MODCODS[chosen]


# ---------------------------------------------------------------------------
#  Orbit geometry
# ---------------------------------------------------------------------------

class OrbitKind(str, Enum):
    GEO = "GEO"
    MEO = "MEO"


@dataclass(frozen=True)
class OrbitModel:
    """One satellite path: mean slant-leg distance plus optional slow sinusoidal
    variation (used for MEO; GEO paths are constant)."""

    kind: OrbitKind
    mean_leg_distance_km: float
    variation_amplitude_km: float = 0.0
    variation_period_s: float = DEFAULT_MEO_VARIATION_PERIOD_S
    variation_phase_rad: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "kind", _enum("kind", self.kind, OrbitKind))
        _set(self, _real, "mean_leg_distance_km", "variation_amplitude_km",
             "variation_period_s", "variation_phase_rad")
        if self.mean_leg_distance_km <= 0:
            raise InvariantError(
                f"mean_leg_distance_km must be > 0, got {self.mean_leg_distance_km}")
        if not (0 <= self.variation_amplitude_km <= self.mean_leg_distance_km):
            raise InvariantError(
                f"variation_amplitude_km must be in [0, mean_leg_distance_km = "
                f"{self.mean_leg_distance_km}], got {self.variation_amplitude_km}")
        if self.kind is OrbitKind.GEO and self.variation_amplitude_km != 0:
            raise InvariantError("GEO orbits are constant: variation_amplitude_km must be 0")
        if self.variation_period_s <= 0:
            raise InvariantError("variation_period_s must be > 0")
        phase = 2.0 * math.pi * (2.0**63 / NS_PER_S) / self.variation_period_s  # at t = 2**63 ns
        if self.variation_amplitude_km and not math.isfinite(phase + self.variation_phase_rad):
            raise InvariantError("variation_period_s is too small: the phase overflows by 2**63 ns")

    @classmethod
    def geo(cls, leg_km: float = GEO_LEG_KM) -> "OrbitModel":
        return cls(OrbitKind.GEO, leg_km)

    @classmethod
    def meo(
        cls,
        leg_km: float = MEO_LEG_KM,
        amplitude_km: float = DEFAULT_MEO_VARIATION_AMPLITUDE_KM,
        period_s: float = DEFAULT_MEO_VARIATION_PERIOD_S,
        phase_rad: float = 0.0,
    ) -> "OrbitModel":
        return cls(OrbitKind.MEO, leg_km, amplitude_km, period_s, phase_rad)

    def propagation_delay_s(self, t_s, out=None):
        """One-trip (two-leg) propagation delay at time ``t_s`` (seconds, a
        float or an array).  An array of delays is written into ``out`` if
        given (``t_s`` itself may be passed), else into one new array."""
        if np.fmin.reduce(np.asarray(t_s), axis=None, initial=0.0) < 0:  # fmin skips nan, as nan < 0 is false
            raise ValueError("t_s must be >= 0")
        # 2 (mean leg + amplitude sin(2 pi t_s / period + phase)) / c, a step a ufunc
        x = np.multiply(2.0 * np.pi, t_s, out=out)
        out = x if isinstance(x, np.ndarray) else None
        x = np.divide(x, self.variation_period_s, out=out)
        x = np.add(x, self.variation_phase_rad, out=out)
        x = np.sin(x, out=out)
        x = np.multiply(self.variation_amplitude_km, x, out=out)
        x = np.add(self.mean_leg_distance_km, x, out=out)
        x = np.multiply(2.0, x, out=out)
        return np.divide(x, SPEED_OF_LIGHT_KM_S, out=out)

    def mean_propagation_delay_s(self) -> float:
        """Amplitude-free one-trip delay (two mean legs)."""
        return 2.0 * self.mean_leg_distance_km / SPEED_OF_LIGHT_KM_S


# ---------------------------------------------------------------------------
#  Carriers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CarrierConfig:
    """One carrier: effective symbol rate, MODCOD, per-user fill rate, SNR
    label, and the orbit its path traverses."""

    symbol_rate_sym_s: Fraction
    modcod: ModCod
    fill_rate: Fraction
    snr_db: float
    orbit: OrbitModel

    def __post_init__(self):
        _set(self, _exact, "symbol_rate_sym_s", "fill_rate")
        _set(self, _real, "snr_db")
        if self.symbol_rate_sym_s.numerator <= 0:
            raise InvariantError(
                f"symbol_rate_sym_s must be > 0, got {_shown(self.symbol_rate_sym_s)}")
        fill_num, fill_den = self.fill_rate.as_integer_ratio()
        if not 0 < fill_num <= fill_den:
            raise InvariantError(f"fill_rate must be in (0, 1], got {_shown(self.fill_rate)}")

    def usable_capacity_bps(self) -> Fraction:
        """Capacity share available to the studied user: symbol rate x
        bits/symbol x code rate x fill rate."""
        rate_num, rate_den, bits, share_num, share_den = self._terms()
        return Fraction(rate_num * bits * share_num, rate_den * share_den)

    def _terms(self) -> tuple[int, int, int, int, int]:
        """The rates as integers, each read once: the symbol rate's numerator
        and denominator, bits per symbol, and code rate x fill rate (the
        user's share of a frame) as an unreduced numerator and denominator."""
        rate_num, rate_den = self.symbol_rate_sym_s.as_integer_ratio()
        code_num, code_den = self.modcod.code_rate.as_integer_ratio()
        fill_num, fill_den = self.fill_rate.as_integer_ratio()
        return (rate_num, rate_den, self.modcod.bits_per_symbol, code_num * fill_num,
                code_den * fill_den)


# ---------------------------------------------------------------------------
#  Traffic
# ---------------------------------------------------------------------------

class SchedulerKind(str, Enum):
    LOAD_BALANCING = "load_balancing"
    ROUND_ROBIN = "round_robin"


@dataclass(frozen=True)
class Burst:
    """A traffic burst: how many PDUs it releases and the gap to the next
    burst's release instant (the last burst's gap is unused)."""

    pdu_count: int
    inter_burst_gap_s: float = 0.0

    def __post_init__(self):
        _set(self, _integer, "pdu_count")
        if self.pdu_count <= 0:
            raise InvariantError(f"pdu_count must be > 0, got {_shown(self.pdu_count)}")
        _set(self, _real, "inter_burst_gap_s")
        if self.inter_burst_gap_s < 0:
            raise InvariantError("inter_burst_gap_s must be >= 0")


@dataclass(frozen=True)
class ScenarioConfig:
    """A full experiment: two carriers, scheduler choice, PDU size, and the
    burst pattern of the offered traffic.

    Carrier 1 must be dominant (usable capacity at least carrier 2's);
    otherwise construction fails with a hint to swap the carriers.  Later
    stages read the numbers derived here once, exactly: ``alpha``, per carrier
    the PDUs per FEC frame and the per-PDU service time in ns, and the
    ``burst_sizes`` and their sum, ``total_pdus``.
    """

    carrier1: CarrierConfig
    carrier2: CarrierConfig
    scheduler: SchedulerKind
    pdu_size_bytes: int = DEFAULT_PDU_SIZE_BYTES
    bursts: tuple[Burst, ...] = (Burst(1),)
    label: str = ""
    alpha: Fraction = field(init=False, repr=False, compare=False)
    pdus_per_frame: tuple[int, int] = field(init=False, repr=False, compare=False)
    service_ns: tuple[int, int] = field(init=False, repr=False, compare=False)
    burst_sizes: tuple[int, ...] = field(init=False, repr=False, compare=False)
    total_pdus: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "scheduler", _enum("scheduler", self.scheduler, SchedulerKind))
        bursts = tuple(self.bursts)
        sizes = tuple([b.pdu_count for b in bursts])
        _set(self, _integer, "pdu_size_bytes")
        _set(self, _text, "label")
        size = self.pdu_size_bytes
        if size <= 0:
            raise InvariantError(f"pdu_size_bytes must be > 0, got {_shown(size)}")
        if not bursts:
            raise InvariantError("a scenario needs at least one burst")
        total = sum(sizes)
        if total > MAX_TOTAL_PDUS:
            raise InvariantError(f"a scenario offers at most {MAX_TOTAL_PDUS} PDUs, "
                                 f"got {_shown(total)}")
        # alpha: carrier 2's usable capacity over carrier 1's, in (0, 1].
        terms = (self.carrier1._terms(), self.carrier2._terms())
        (num1, den1), (num2, den2) = [(rate_num * bits * share_num, rate_den * share_den)
                                      for rate_num, rate_den, bits, share_num, share_den in terms]
        if num2 * den1 > num1 * den2:
            raise InvariantError(
                "carrier 1 must be dominant: usable capacity "
                f"{approx(Fraction(num1, den1))} bps < carrier 2's "
                f"{approx(Fraction(num2, den2))} bps (swap carrier1 and carrier2)")
        per_frame, service_ns = [], []
        for rate_num, rate_den, bits, share_num, share_den in terms:
            # Whole PDUs in a FEC frame's per-user share: PDUs are never fragmented.
            share_bits = FECFRAME_BITS * share_num
            n_pdu = share_bits // (8 * size * share_den)
            if n_pdu == 0:
                raise InvariantError(
                    f"PDU of {_shown(size)} B exceeds the per-frame share of "
                    f"{share_bits / (8 * share_den):.1f} B")
            # One FEC frame lasts 612540 / (9 M R_s) s and carries n_pdu PDUs;
            # the quotient is rounded once to integer ns, ties to even.
            den = FRAMES_PER_SUPERFRAME_BUNDLE * bits * rate_num * n_pdu
            ns, rest = divmod(SUPERFRAME_SYMBOLS * NS_PER_S * rate_den, den)
            per_frame.append(n_pdu)
            service_ns.append(ns + (2 * rest + ns % 2 > den))
        object.__setattr__(self, "bursts", bursts)
        object.__setattr__(self, "burst_sizes", sizes)
        object.__setattr__(self, "total_pdus", total)
        object.__setattr__(self, "alpha", Fraction(num2 * den1, den2 * num1))
        object.__setattr__(self, "pdus_per_frame", tuple(per_frame))
        object.__setattr__(self, "service_ns", tuple(service_ns))


# ---------------------------------------------------------------------------
#  Run record
# ---------------------------------------------------------------------------

# Each column's dtype: a carrier is 1 or 2, so one byte holds it.
_DTYPES = {"carrier": np.dtype(np.int8), "t_scheduled_ns": np.dtype(np.int64),
           "t_tx_end_ns": np.dtype(np.int64), "t_arrival_ns": np.dtype(np.int64)}
_INT64_MIN = -2**63


@dataclass(frozen=True, eq=False)
class RunTrace:
    """One run, stored once, its rows in carrier order: carrier 1's PDUs in
    sequence order, then carrier 2's.  ``order`` lists the rows.

    ``carrier[s]`` (int8, 1 or 2) carries PDU ``s``: it is the one column
    indexed by sequence number.  ``service_ns`` holds each carrier's per-PDU
    service time, an int in 0..2**63-1.  Row ``i`` is PDU ``seq[i]``; its
    int64 ns times are ``t_scheduled_ns[i]``, its generator release instant,
    ``t_tx_end_ns[i]``, the end of its serialization, which started its
    carrier's service time earlier, and ``t_arrival_ns[i]``, its delivery
    after propagation.  ``order`` (int64, like ``seq``) lists row indices:
    in carrier order, or in receive order after ``receiver.merge``, which
    shares the columns.  The constructor takes the carrier column as an int8
    array, the two service times and the three time columns as int64
    arrays, and stores the arrays it is given; a column of any other type is
    refused, not converted.  It checks that the columns are one-dimensional
    and of one length, that carriers are 1 or 2, and that ``tx_start <=
    tx_end <= arrival``, with each tx_start in int64.  It derives ``seq`` as
    a stable argsort of the carriers and lists the rows in carrier order.
    """

    carrier: np.ndarray
    service_ns: tuple[int, int]
    t_scheduled_ns: np.ndarray
    t_tx_end_ns: np.ndarray
    t_arrival_ns: np.ndarray
    seq: np.ndarray = field(init=False)
    order: np.ndarray = field(init=False)

    def __post_init__(self):
        for name, dtype in _DTYPES.items():  # native dtypes are singletons
            column = getattr(self, name)
            if not isinstance(column, np.ndarray) or column.dtype is not dtype:
                raise InvariantError(f"{name} must be an {dtype} array")
        carrier, tx_end, arrival = self.carrier, self.t_tx_end_ns, self.t_arrival_ns
        if carrier.ndim != 1 or not carrier.shape == self.t_scheduled_ns.shape \
                == tx_end.shape == arrival.shape:
            raise InvariantError("columns must be one-dimensional and of equal length")
        seq = carrier.argsort(kind="stable")  # rows in carrier order
        if seq.size and not 1 <= carrier.item(seq.item(0)) <= carrier.item(seq.item(-1)) <= 2:
            raise InvariantError("carrier must be 1 or 2")
        try:
            s1, s2 = self.service_ns
        except (TypeError, ValueError):
            raise InvariantError("service_ns must hold two service times") from None
        service = (_integer("service_ns", s1), _integer("service_ns", s2))
        if max(service) > INT64_MAX:
            raise InvariantError("service_ns exceeds the int64 range")
        # tx_start = tx_end - service: service >= 0 is tx_start <= tx_end
        if min(service) < 0 or np.count_nonzero(tx_end > arrival):
            raise InvariantError("trace times must satisfy tx_start <= tx_end <= arrival")
        if tx_end.size and int(np.minimum.reduce(tx_end)) < _INT64_MIN + max(service):
            m = np.count_nonzero(carrier == 1)  # so near -2**63, each carrier's own
            if any(np.count_nonzero(part < _INT64_MIN + s)
                   for part, s in zip((tx_end[:m], tx_end[m:]), service)):
                raise InvariantError("tx_start exceeds the int64 range")
        object.__setattr__(self, "service_ns", service)
        object.__setattr__(self, "seq", seq)
        object.__setattr__(self, "order", np.arange(carrier.size, dtype=np.int64))

    def _listed_in(self, order: np.ndarray) -> RunTrace:
        """This run's columns, not checked again, listed in the permutation ``order``."""
        trace = object.__new__(type(self))
        vars(trace).update({**vars(self), "order": order})
        return trace

    def __len__(self) -> int:
        return self.order.size


def _carrier_split(carrier: np.ndarray, burst_sizes) -> tuple[list[int], list[int]]:
    """Each burst's PDUs on carrier 1 and on carrier 2, for bursts of
    ``burst_sizes`` consecutive sequence numbers from 0, counted from the int8
    carrier column indexed by sequence number.  In a ``RunTrace`` these are
    the lengths of the rows' ranges: carrier 1's, burst by burst, then
    carrier 2's.  ``emulator.run`` sizes its queues from them and
    ``metrics`` reads each burst's rows through them."""
    on2 = carrier == 2
    ones, twos, start = [], [], 0
    for size in burst_sizes:
        k = int(np.count_nonzero(on2[start:start + size]))
        ones.append(size - k)
        twos.append(k)
        start += size
    return ones, twos
