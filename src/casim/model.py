"""Domain types shared by every casim module.

All types are immutable value objects validated at construction; they carry
no behaviour beyond derived-quantity accessors.  Rates and fill factors are
stored as exact ``Fraction``s so capacity ratios come out as exact rationals;
times and distances are plain finite floats, except in ``RunTrace``, which
holds a run's per-PDU times as integer nanoseconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum
from fractions import Fraction

import numpy as np

from .errors import DominanceViolated, InvariantError

__all__ = [
    "SPEED_OF_LIGHT_KM_S",
    "GEO_LEG_KM",
    "MEO_LEG_KM",
    "DEFAULT_PDU_SIZE_BYTES",
    "DEFAULT_MEO_VARIATION_AMPLITUDE_KM",
    "DEFAULT_MEO_VARIATION_PERIOD_S",
    "to_fraction",
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


def to_fraction(value) -> Fraction:
    """Coerce int/float/str/Fraction to an exact Fraction.

    Floats are converted through their decimal repr so that e.g. ``0.25``
    becomes 1/4 and ``0.1`` becomes 1/10 (the value the caller wrote), not
    the binary expansion of the float.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"cannot convert {value!r} to a fraction")
        return Fraction(repr(value))
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot convert {type(value).__name__} to a fraction")


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
        if self.variation_amplitude_km < 0:
            raise InvariantError("variation_amplitude_km must be >= 0")
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

    def leg_distance_km(self, t_s):
        """Slant-leg distance at time ``t_s`` (seconds, a float or an array)."""
        if self.variation_amplitude_km == 0.0:
            return self.mean_leg_distance_km
        phase = 2.0 * np.pi * t_s / self.variation_period_s + self.variation_phase_rad
        return self.mean_leg_distance_km + self.variation_amplitude_km * np.sin(phase)

    def propagation_delay_s(self, t_s):
        """One-trip (two-leg) propagation delay at time ``t_s`` (seconds, a
        float or an array; a constant path gives one float)."""
        if (np.asarray(t_s) < 0).any():
            raise ValueError("t_s must be >= 0")
        return 2.0 * self.leg_distance_km(t_s) / SPEED_OF_LIGHT_KM_S

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

    def capacity_bps(self) -> Fraction:
        """Raw carrier capacity: symbol rate x bits/symbol x code rate."""
        return self.symbol_rate_sym_s * self.modcod.bits_per_symbol * self.modcod.code_rate

    def usable_capacity_bps(self) -> Fraction:
        """Capacity share available to the studied user (capacity x fill rate)."""
        return self.capacity_bps() * self.fill_rate


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
    otherwise construction fails with a hint to swap the carriers.
    """

    carrier1: CarrierConfig
    carrier2: CarrierConfig
    scheduler: SchedulerKind
    pdu_size_bytes: int = DEFAULT_PDU_SIZE_BYTES
    bursts: tuple[Burst, ...] = (Burst(1),)
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "scheduler", SchedulerKind(self.scheduler))
        object.__setattr__(self, "bursts", tuple(self.bursts))
        if self.pdu_size_bytes <= 0:
            raise InvariantError(
                f"pdu_size_bytes must be > 0, got {self.pdu_size_bytes}")
        if not self.bursts:
            raise InvariantError("a scenario needs at least one burst")
        u1 = self.carrier1.usable_capacity_bps()
        u2 = self.carrier2.usable_capacity_bps()
        if u1 < u2:
            raise DominanceViolated(
                "carrier 1 must be dominant: usable capacity "
                f"{float(u1):.6g} bps < carrier 2's {float(u2):.6g} bps "
                "(swap carrier1 and carrier2)")

    @property
    def burst_sizes(self) -> tuple[int, ...]:
        return tuple(b.pdu_count for b in self.bursts)

    @property
    def total_pdus(self) -> int:
        return sum(self.burst_sizes)



# ---------------------------------------------------------------------------
#  Run record
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class RunTrace:
    """One run as columns: row i is one PDU's journey (times in integer ns).

    ``t_scheduled_ns`` is the generator release instant, ``t_tx_start_ns`` /
    ``t_tx_end_ns`` bracket serialization on ``carrier``, and
    ``t_arrival_ns`` is delivery after propagation.  The emulator emits rows
    in sequence order; the receiver-side merge reorders them so that a row's
    index is its position in the merged stream.  Every column is converted
    to a one-dimensional int64 array of the same length.
    """

    seq: np.ndarray
    carrier: np.ndarray
    t_scheduled_ns: np.ndarray
    t_tx_start_ns: np.ndarray
    t_tx_end_ns: np.ndarray
    t_arrival_ns: np.ndarray

    def __post_init__(self):
        for f in fields(self):
            try:
                column = np.asarray(getattr(self, f.name), dtype=np.int64)
            except OverflowError as exc:
                raise InvariantError(f"{f.name} exceeds the int64 range") from exc
            object.__setattr__(self, f.name, column)
        if any(c.ndim != 1 or c.shape != self.seq.shape for c in self.columns()):
            raise InvariantError("columns must be one-dimensional and of equal length")
        if (self.seq < 0).any():
            raise InvariantError("seq must be >= 0")
        if ((self.carrier != 1) & (self.carrier != 2)).any():
            raise InvariantError("carrier must be 1 or 2")
        if ((self.t_tx_start_ns > self.t_tx_end_ns)
                | (self.t_tx_end_ns > self.t_arrival_ns)).any():
            raise InvariantError(
                "trace times must satisfy tx_start <= tx_end <= arrival")

    def __len__(self) -> int:
        return self.seq.size

    def columns(self) -> tuple[np.ndarray, ...]:
        """The six columns, in field order."""
        return tuple(getattr(self, f.name) for f in fields(self))
