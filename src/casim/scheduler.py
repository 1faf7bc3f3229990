"""Gateway-side load balancing and PDU scheduling.

Produces the per-scenario :class:`SchedulingPlan`: a one-shot prefix that
compensates the differential propagation delay between orbits, followed by a
repeating cycle of carrier assignments whose 2:1 ratio equals the load
balancing factor alpha.  Every scheduling decision lives here:
``generate_sequence`` is the one place that makes a cycle, ``prefix_carriers``
the one fast/slow carrier choice, and ``assignments`` the one
prefix-then-cycle rule.
All operations are pure functions of their arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

import numpy as np

from .errors import DenominatorTooLarge, DominanceViolated, InvariantError, ZeroPayload
from .model import CarrierConfig, ModCod, OrbitModel, ScenarioConfig, SchedulerKind, to_fraction

__all__ = [
    "SUPERFRAME_SYMBOLS",
    "FRAMES_PER_SUPERFRAME_BUNDLE",
    "FECFRAME_BITS",
    "NOMINAL_LIGHT_SPEED_KM_S",
    "MAX_GENERATOR_DENOMINATOR",
    "SchedulingPlan",
    "load_balance_factor",
    "generate_sequence",
    "superframes_in_interval",
    "pdus_per_fecframe",
    "planning_differential_delay_s",
    "initial_fast_sequence_raw",
    "prefix_carriers",
    "multi_orbit_prefix",
    "build_plan",
    "assignments",
]

# Physical-layer container sizes (normal FEC frames, bundle format 2).
SUPERFRAME_SYMBOLS = 612540
FRAMES_PER_SUPERFRAME_BUNDLE = 9
FECFRAME_BITS = 64800

# The planner's delay arithmetic uses the nominal light-speed constant;
# the link emulator uses the exact value (model.SPEED_OF_LIGHT_KM_S).
NOMINAL_LIGHT_SPEED_KM_S = 3.0e5

MAX_GENERATOR_DENOMINATOR = 64


@dataclass(frozen=True)
class SchedulingPlan:
    """``prefix_length`` PDUs on ``prefix_carrier`` once at stream start
    (``prefix_carrier`` is ``None`` iff the length is 0), then ``cycle``
    repeated: 1 sends a PDU to carrier 1, 2 to carrier 2."""

    cycle: tuple[int, ...]
    prefix_carrier: int | None = None
    prefix_length: int = 0

    def __post_init__(self):
        object.__setattr__(self, "cycle", tuple(self.cycle))
        if not set(self.cycle) <= {1, 2} or 1 not in self.cycle:
            raise InvariantError(
                f"cycle must hold carrier 1 and only indices 1 or 2, got {self.cycle}")
        if not isinstance(self.prefix_length, int) or self.prefix_length < 0:
            raise InvariantError(
                f"prefix_length must be an int >= 0, got {self.prefix_length!r}")
        expected = (None,) if self.prefix_length == 0 else (1, 2)
        if self.prefix_carrier not in expected:
            raise InvariantError(
                f"a prefix of {self.prefix_length} PDUs cannot be on carrier "
                f"{self.prefix_carrier}")

    @property
    def alpha_used(self) -> Fraction:
        """The cycle's exact 2:1 ratio; it may differ from the scenario's raw
        alpha, which the generator rounds to denominator <= 64."""
        return Fraction(self.cycle.count(2), self.cycle.count(1))


def load_balance_factor(c1: CarrierConfig, c2: CarrierConfig) -> Fraction:
    """Exact ratio of carrier 2's usable capacity to carrier 1's.

    Carrier 1 must be dominant, so the result lies in (0, 1].
    """
    alpha = c2.usable_capacity_bps() / c1.usable_capacity_bps()
    if alpha > 1:
        raise DominanceViolated(
            f"alpha = {alpha} exceeds 1; carrier 1 must be the dominant carrier "
            "(swap carrier1 and carrier2)")
    return alpha


def _approx(value: Fraction) -> str:
    """``value`` to three significant digits, however large its terms."""
    return f"{Decimal(value.numerator) / value.denominator:.3g}"


def generate_sequence(alpha) -> list[int]:
    """The scheduling cycle for a load balancing factor alpha in (0, 1].

    Alpha is first rounded to the nearest p/q with q <= 64; then q ones and
    p twos are emitted with an error-accumulator rule: carrier 1 is chosen
    unless that would leave the running count of twos more than one PDU
    short of p/q times the count of ones.  Every prefix of the result
    satisfies |count2 - (p/q)*count1| <= 1.  This is the Christoffel-word
    (Bresenham) construction, and it reproduces every row of the paper's
    lookup table.
    """
    alpha = to_fraction(alpha)
    if not (0 < alpha <= 1):
        raise InvariantError(f"alpha must be in (0, 1], got {_approx(alpha)}")
    rounded = alpha.limit_denominator(MAX_GENERATOR_DENOMINATOR)
    if rounded == 0:
        raise DenominatorTooLarge(
            f"alpha = {_approx(alpha)} is at most 1/{2 * MAX_GENERATOR_DENOMINATOR} "
            f"and rounds to 0 at denominator <= {MAX_GENERATOR_DENOMINATOR}; "
            "carrier 2 is too slow to schedule")
    p, q = rounded.numerator, rounded.denominator
    ones = twos = 0
    sequence: list[int] = []
    while ones < q or twos < p:
        if ones < q and q * (twos + 1) >= p * (ones + 1):
            sequence.append(1)
            ones += 1
        else:
            sequence.append(2)
            twos += 1
    return sequence


def superframes_in_interval(interval_s: float, symbol_rate_sym_s) -> float:
    """Number of superframes a carrier emits in ``interval_s`` seconds."""
    symbol_rate = to_fraction(symbol_rate_sym_s)
    if symbol_rate <= 0:
        raise ValueError(f"symbol_rate_sym_s must be > 0, got {symbol_rate_sym_s}")
    return interval_s * float(symbol_rate) / SUPERFRAME_SYMBOLS


def pdus_per_fecframe(pdu_size_bytes: int, modcod: ModCod, fill_rate) -> int:
    """Whole PDUs that fit into one FEC frame's per-user share.

    PDUs are never fragmented across frames, so this floors; a PDU larger
    than the share is an error.
    """
    if pdu_size_bytes <= 0:
        raise ValueError(f"pdu_size_bytes must be > 0, got {pdu_size_bytes}")
    share_bits = FECFRAME_BITS * modcod.code_rate * to_fraction(fill_rate)
    count = int(share_bits / (8 * pdu_size_bytes))
    if count == 0:
        raise ZeroPayload(
            f"PDU of {pdu_size_bytes} B exceeds the per-frame share of "
            f"{float(share_bits) / 8:.1f} B")
    return count


def planning_differential_delay_s(fast: OrbitModel, slow: OrbitModel) -> float:
    """Differential one-trip delay between the slow and fast paths, computed
    with the planner's nominal light-speed constant."""
    delta_leg_km = slow.mean_leg_distance_km - fast.mean_leg_distance_km
    if delta_leg_km < 0:
        raise ValueError(
            "fast orbit has the larger mean leg distance; swap the arguments")
    return 2.0 * delta_leg_km / NOMINAL_LIGHT_SPEED_KM_S


def initial_fast_sequence_raw(
    fast: CarrierConfig, delta_t_s: float, pdu_size_bytes: int
) -> float:
    """Unfloored number of PDUs the fast carrier emits during ``delta_t_s``:
    PDUs/frame x 9 bundled frames x M x symbol rate x delta_t / superframe symbols."""
    if delta_t_s < 0:
        raise ValueError(f"delta_t_s must be >= 0, got {delta_t_s}")
    n_pdu = pdus_per_fecframe(pdu_size_bytes, fast.modcod, fast.fill_rate)
    return (
        n_pdu
        * FRAMES_PER_SUPERFRAME_BUNDLE
        * fast.modcod.bits_per_symbol
        * float(fast.symbol_rate_sym_s)
        * delta_t_s
        / SUPERFRAME_SYMBOLS
    )


def prefix_carriers(
    scenario: ScenarioConfig,
) -> tuple[int, CarrierConfig, CarrierConfig]:
    """The multi-orbit prefix's carrier index, then the fast and the slow
    carrier: the fast one has the shorter mean leg, carrier 1 on a tie."""
    c1, c2 = scenario.carrier1, scenario.carrier2
    if c1.orbit.mean_leg_distance_km <= c2.orbit.mean_leg_distance_km:
        return 1, c1, c2
    return 2, c2, c1


def multi_orbit_prefix(
    fast: CarrierConfig, slow: CarrierConfig, pdu_size_bytes: int
) -> int:
    """How many leading PDUs to pin to the fast (lower-delay) carrier so the
    slow path's head start is absorbed.  Zero when the paths match."""
    delta_t_s = planning_differential_delay_s(fast.orbit, slow.orbit)
    if delta_t_s == 0:
        return 0
    raw = initial_fast_sequence_raw(fast, delta_t_s, pdu_size_bytes)
    if not math.isfinite(raw):
        raise InvariantError(
            f"the multi-orbit prefix is not finite ({raw} PDUs); "
            "the leg distances differ too much")
    return math.floor(raw)


def build_plan(scenario: ScenarioConfig) -> SchedulingPlan:
    """Compose the scheduling plan for a scenario.

    Load balancing takes its cycle from ``generate_sequence`` and pins the
    multi-orbit prefix to the lower-delay carrier.  Round robin alternates
    1,2 with no prefix regardless of alpha.
    """
    if scenario.scheduler is SchedulerKind.ROUND_ROBIN:
        return SchedulingPlan(cycle=(1, 2))

    cycle = generate_sequence(load_balance_factor(scenario.carrier1, scenario.carrier2))
    fast_index, fast, slow = prefix_carriers(scenario)
    length = multi_orbit_prefix(fast, slow, scenario.pdu_size_bytes)
    return SchedulingPlan(cycle, fast_index if length else None, length)


def assignments(plan: SchedulingPlan, n: int) -> np.ndarray:
    """Carrier indices of the PDUs with sequence numbers 0..n-1 (int64): the
    prefix carrier for the first min(prefix_length, n), then the cycle
    repeated."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    k = min(plan.prefix_length, n)
    repeats = -(-(n - k) // len(plan.cycle))
    cycle = np.tile(np.array(plan.cycle, dtype=np.int64), repeats)[:n - k]
    return np.concatenate((np.full(k, plan.prefix_carrier, dtype=np.int64), cycle))
