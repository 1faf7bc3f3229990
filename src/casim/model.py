"""Domain types shared by every casim module.

All types are immutable value objects validated at construction; they carry
no behaviour beyond derived-quantity accessors.  Rates and fill factors are
stored as exact ``Fraction``s so capacity ratios come out as exact rationals;
times and distances are plain finite floats, except in ``RunTrace``, which
holds a run's per-PDU times as integer nanoseconds.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from decimal import Decimal
from enum import Enum
from fractions import Fraction
from operator import attrgetter

import numpy as np

from .errors import DominanceViolated, InvariantError, ZeroPayload

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
    "MAX_TOTAL_PDUS",
    "to_fraction",
    "approx",
    "ModCod",
    "MODCODS",
    "modcod_for_snr",
    "OrbitKind",
    "OrbitModel",
    "CarrierConfig",
    "load_balance_factor",
    "pdus_per_fecframe",
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

# The most PDUs one scenario may offer: far above any bundled or benchmark
# scenario, and low enough that a run's arrays fit in memory (run, merge and
# report together peak at ~73 B per PDU, so ~0.73 GB at the ceiling).
MAX_TOTAL_PDUS = 10**7


# Fraction computes 10**exponent exactly, so its time grows with the exponent.
# The exponent's digits are taken without leading zeros: five exceed the bound.
MAX_DECIMAL_EXPONENT = 4000
_EXPONENT = re.compile(r"[eE][-+]?[0_]*(\d[\d_]*)\s*\Z")


def to_fraction(value) -> Fraction:
    """Coerce int/float/str/Fraction to an exact Fraction.

    Floats are converted through their decimal repr so that e.g. ``0.25``
    becomes 1/4 and ``0.1`` becomes 1/10 (the value the caller wrote), not
    the binary expansion of the float.  Text is an integer, decimal or
    ``p/q``; ValueError names text that is none of these, or whose decimal
    exponent is beyond +-MAX_DECIMAL_EXPONENT.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"cannot convert {value!r} to a fraction")
        value = repr(value)
    elif not isinstance(value, str):
        raise TypeError(f"cannot convert {type(value).__name__} to a fraction")
    match = _EXPONENT.search(value)
    if match and int(match[1].replace("_", "")[:5]) > MAX_DECIMAL_EXPONENT:
        raise ValueError(f"decimal exponent beyond +-{MAX_DECIMAL_EXPONENT}: {value!r}")
    try:  # plain ASCII digits skip Fraction's text grammar
        return Fraction(int(value) if value.isascii() and value.isdigit() else value)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"not a number: {value!r}") from None


def approx(value: Fraction) -> str:
    """``value`` to three significant digits, however large its terms."""
    return f"{Decimal(value.numerator) / value.denominator:.3g}"


def _require_finite(obj, *names: str) -> None:
    """Raise InvariantError unless each named float field of ``obj`` is finite."""
    for name in names:
        value = getattr(obj, name)
        if not math.isfinite(value):
            raise InvariantError(f"{name} must be finite, got {value}")


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
        object.__setattr__(self, "code_rate", to_fraction(self.code_rate))
        if self.bits_per_symbol not in (1, 2, 3, 4, 5, 6):
            raise InvariantError(
                f"bits_per_symbol must be in 1..6, got {self.bits_per_symbol}")
        if not (0 < self.code_rate <= 1):
            raise InvariantError(
                f"code_rate must be in (0, 1], got {self.code_rate}")
        if self.code_rate.denominator > 36:
            raise InvariantError(
                f"code_rate denominator must be <= 36, got {self.code_rate}")


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
        object.__setattr__(self, "kind", OrbitKind(self.kind))
        _require_finite(self, "mean_leg_distance_km", "variation_amplitude_km",
                        "variation_period_s", "variation_phase_rad")
        if self.mean_leg_distance_km <= 0:
            raise InvariantError(
                f"mean_leg_distance_km must be > 0, got {self.mean_leg_distance_km}")
        if not (0 <= self.variation_amplitude_km <= self.mean_leg_distance_km):
            raise InvariantError(
                f"variation_amplitude_km must be in [0, mean_leg_distance_km = "
                f"{self.mean_leg_distance_km}], got {self.variation_amplitude_km}")
        if self.kind is OrbitKind.GEO and self.variation_amplitude_km != 0:
            raise InvariantError(
                "GEO orbits are constant: variation_amplitude_km must be 0")
        if self.variation_period_s <= 0:
            raise InvariantError("variation_period_s must be > 0")

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
        float or an array; a constant path gives one float).  A varying path's
        array of delays is written into ``out`` if given (``t_s`` itself may
        be passed), else into one new array."""
        if np.count_nonzero(np.asarray(t_s) < 0):
            raise ValueError("t_s must be >= 0")
        if self.variation_amplitude_km == 0.0:
            return self.mean_propagation_delay_s()
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
        object.__setattr__(self, "symbol_rate_sym_s", to_fraction(self.symbol_rate_sym_s))
        object.__setattr__(self, "fill_rate", to_fraction(self.fill_rate))
        _require_finite(self, "snr_db")
        if self.symbol_rate_sym_s <= 0:
            raise InvariantError(
                f"symbol_rate_sym_s must be > 0, got {self.symbol_rate_sym_s}")
        if not (0 < self.fill_rate <= 1):
            raise InvariantError(
                f"fill_rate must be in (0, 1], got {self.fill_rate}")

    @classmethod
    def from_bandwidth(
        cls,
        bandwidth_hz,
        rolloff,
        modcod: ModCod,
        fill_rate,
        snr_db: float,
        orbit: OrbitModel,
    ) -> "CarrierConfig":
        """Build from allocated bandwidth: R_s = BW / (1 + rolloff)."""
        symbol_rate = to_fraction(bandwidth_hz) / (1 + to_fraction(rolloff))
        return cls(symbol_rate, modcod, to_fraction(fill_rate), snr_db, orbit)

    def usable_capacity_bps(self) -> Fraction:
        """Capacity share available to the studied user: symbol rate x
        bits/symbol x code rate x fill rate."""
        return Fraction(*self._usable_terms())

    def _usable_terms(self) -> tuple[int, int]:
        """Usable capacity as an unreduced numerator and denominator."""
        rate, code_rate, fill = self.symbol_rate_sym_s, self.modcod.code_rate, self.fill_rate
        return (rate.numerator * self.modcod.bits_per_symbol * code_rate.numerator
                * fill.numerator, rate.denominator * code_rate.denominator * fill.denominator)


def load_balance_factor(c1: CarrierConfig, c2: CarrierConfig) -> Fraction:
    """Exact ratio alpha of carrier 2's usable capacity to carrier 1's, in
    (0, 1]: carrier 1 must be dominant."""
    (num1, den1), (num2, den2) = c1._usable_terms(), c2._usable_terms()
    if num2 * den1 > num1 * den2:
        raise DominanceViolated(
            "carrier 1 must be dominant: usable capacity "
            f"{approx(Fraction(num1, den1))} bps < carrier 2's "
            f"{approx(Fraction(num2, den2))} bps (swap carrier1 and carrier2)")
    return Fraction(num2 * den1, den2 * num1)


def pdus_per_fecframe(pdu_size_bytes: int, modcod: ModCod, fill_rate) -> int:
    """Whole PDUs that fit into one FEC frame's per-user share (PDUs are never
    fragmented across frames, so this floors); a PDU larger than the share
    is an error."""
    if pdu_size_bytes <= 0:
        raise ValueError(f"pdu_size_bytes must be > 0, got {pdu_size_bytes}")
    fill_rate = to_fraction(fill_rate)
    share_bits = FECFRAME_BITS * modcod.code_rate.numerator * fill_rate.numerator
    share_den = modcod.code_rate.denominator * fill_rate.denominator
    count = share_bits // (8 * pdu_size_bytes * share_den)
    if count == 0:
        raise ZeroPayload(
            f"PDU of {pdu_size_bytes} B exceeds the per-frame share of "
            f"{share_bits / (8 * share_den):.1f} B")
    return count


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
        if self.pdu_count <= 0:
            raise InvariantError(f"pdu_count must be > 0, got {self.pdu_count}")
        _require_finite(self, "inter_burst_gap_s")
        if self.inter_burst_gap_s < 0:
            raise InvariantError("inter_burst_gap_s must be >= 0")


@dataclass(frozen=True)
class ScenarioConfig:
    """A full experiment: two carriers, scheduler choice, PDU size, and the
    burst pattern of the offered traffic.

    Carrier 1 must be dominant (usable capacity at least carrier 2's);
    otherwise construction fails with a hint to swap the carriers.  Later
    stages read the link numbers derived here once, exactly: ``alpha``, and
    per carrier the PDUs per FEC frame and the per-PDU service time in ns.
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

    def __post_init__(self):
        object.__setattr__(self, "scheduler", SchedulerKind(self.scheduler))
        object.__setattr__(self, "bursts", tuple(self.bursts))
        if self.pdu_size_bytes <= 0:
            raise InvariantError(
                f"pdu_size_bytes must be > 0, got {self.pdu_size_bytes}")
        if not self.bursts:
            raise InvariantError("a scenario needs at least one burst")
        if self.total_pdus > MAX_TOTAL_PDUS:
            raise InvariantError(
                f"a scenario offers at most {MAX_TOTAL_PDUS} PDUs, got {self.total_pdus}")
        object.__setattr__(self, "alpha", load_balance_factor(self.carrier1, self.carrier2))
        per_frame, service_ns = [], []
        for c in (self.carrier1, self.carrier2):
            n_pdu = pdus_per_fecframe(self.pdu_size_bytes, c.modcod, c.fill_rate)
            # One FEC frame lasts 612540 / (9 M R_s) s and carries n_pdu PDUs;
            # the quotient is rounded once to integer ns, ties to even.
            rate = c.symbol_rate_sym_s
            den = FRAMES_PER_SUPERFRAME_BUNDLE * c.modcod.bits_per_symbol * rate.numerator * n_pdu
            ns, rest = divmod(SUPERFRAME_SYMBOLS * NS_PER_S * rate.denominator, den)
            per_frame.append(n_pdu)
            service_ns.append(ns + (2 * rest + ns % 2 > den))
        object.__setattr__(self, "pdus_per_frame", tuple(per_frame))
        object.__setattr__(self, "service_ns", tuple(service_ns))

    @property
    def burst_sizes(self) -> tuple[int, ...]:
        return tuple(b.pdu_count for b in self.bursts)

    @property
    def total_pdus(self) -> int:
        return sum(self.burst_sizes)



# ---------------------------------------------------------------------------
#  Run record
# ---------------------------------------------------------------------------

_FIELDS = ("carrier", "t_scheduled_ns", "t_tx_start_ns", "t_tx_end_ns", "t_arrival_ns")
_seq_columns = attrgetter(*_FIELDS)


@dataclass(frozen=True, eq=False)
class RunTrace:
    """One run, stored once: five columns indexed by sequence number (times in
    integer ns), and ``order``, the sequence numbers as the record lists them.

    ``carrier[s]`` carries PDU ``s``; ``t_scheduled_ns[s]`` is its generator
    release instant, ``t_tx_start_ns[s]`` / ``t_tx_end_ns[s]`` bracket its
    serialization, and ``t_arrival_ns[s]`` is its delivery after
    propagation.  A record is listed in sequence order, or in receive order
    after ``receiver.merge``, which shares the columns.  The constructor
    takes the five columns, makes each a one-dimensional int64 array of one
    length, checks carriers of 1 or 2 and ``tx_start <= tx_end <= arrival``,
    and lists the record in sequence order.
    """

    carrier: np.ndarray
    t_scheduled_ns: np.ndarray
    t_tx_start_ns: np.ndarray
    t_tx_end_ns: np.ndarray
    t_arrival_ns: np.ndarray
    order: np.ndarray = field(init=False)

    def __post_init__(self):
        for name in _FIELDS:
            try:
                object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.int64))
            except OverflowError as exc:
                raise InvariantError(f"{name} exceeds the int64 range") from exc
        carrier, _, tx_start, tx_end, arrival = columns = self.seq_columns()
        if carrier.ndim != 1 or len({c.shape for c in columns}) != 1:
            raise InvariantError("columns must be one-dimensional and of equal length")
        if carrier.size and (carrier.min() < 1 or carrier.max() > 2):
            raise InvariantError("carrier must be 1 or 2")
        if np.count_nonzero(tx_start > tx_end) or np.count_nonzero(tx_end > arrival):
            raise InvariantError("trace times must satisfy tx_start <= tx_end <= arrival")
        object.__setattr__(self, "order", np.arange(carrier.size, dtype=np.int64))

    def _listed_in(self, order: np.ndarray) -> RunTrace:
        """This run's columns, not checked again, listed in the permutation ``order``."""
        trace = object.__new__(type(self))
        vars(trace).update({**vars(self), "order": order})
        return trace

    def __len__(self) -> int:
        return self.order.size

    def seq_columns(self) -> tuple[np.ndarray, ...]:
        """The five per-PDU columns, indexed by sequence number, in field order."""
        return _seq_columns(self)
