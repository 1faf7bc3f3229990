"""Gateway-side load balancing and PDU scheduling.

Produces the per-scenario :class:`SchedulingPlan`: a one-shot prefix that
compensates the differential propagation delay between orbits, followed by a
repeating cycle of carrier assignments whose 2:1 ratio equals the load
balancing factor alpha.  All operations are pure functions of their
arguments.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

import numpy as np

from .errors import DenominatorTooLarge, DominanceViolated, ZeroFillRate, ZeroPayload
from .model import CarrierConfig, ModCod, OrbitModel, ScenarioConfig, SchedulerKind, to_fraction

__all__ = [
    "SUPERFRAME_SYMBOLS",
    "FRAMES_PER_SUPERFRAME_BUNDLE",
    "FECFRAME_BITS",
    "NOMINAL_LIGHT_SPEED_KM_S",
    "LOOKUP_TABLE",
    "MAX_GENERATOR_DENOMINATOR",
    "SchedulingPlan",
    "load_balance_factor",
    "nearest_table_alpha",
    "lookup_sequence",
    "generate_sequence",
    "superframes_in_interval",
    "pdus_per_fecframe",
    "planning_differential_delay_s",
    "initial_fast_sequence_raw",
    "multi_orbit_prefix",
    "build_plan",
    "assignments",
]

log = logging.getLogger(__name__)

# Physical-layer container sizes (normal FEC frames, bundle format 2).
SUPERFRAME_SYMBOLS = 612540
FRAMES_PER_SUPERFRAME_BUNDLE = 9
FECFRAME_BITS = 64800

# The planner's delay arithmetic uses the nominal light-speed constant;
# the link emulator uses the exact value (model.SPEED_OF_LIGHT_KM_S).
NOMINAL_LIGHT_SPEED_KM_S = 3.0e5

MAX_GENERATOR_DENOMINATOR = 64

# Scheduling sequences by load balancing factor: 1 = PDU to carrier 1,
# 2 = PDU to carrier 2.  Every row satisfies count(2)/count(1) == key.
# ``generate_sequence`` reproduces every row, so plans come from the
# generator; the table backs ``lookup_sequence`` (``casim plan --alpha``).
LOOKUP_TABLE: dict[Fraction, tuple[int, ...]] = {
    Fraction("0.2"): (1, 1, 1, 1, 1, 2),
    Fraction("0.25"): (1, 1, 1, 1, 2),
    Fraction("0.3"): (1, 1, 1, 2, 1, 1, 1, 2, 1, 1, 1, 1, 2),
    Fraction("0.35"): (1, 1, 2, 1, 1, 1, 2, 1, 1, 1, 2, 1, 1, 1, 2, 1, 1, 1, 2,
                       1, 1, 1, 2, 1, 1, 1, 2),
    Fraction("0.4"): (1, 1, 2, 1, 1, 1, 2),
    Fraction("0.45"): (1, 1, 2, 1, 1, 2, 1, 1, 2, 1, 1, 2, 1, 1, 1, 2, 1, 1, 2,
                       1, 1, 2, 1, 1, 2, 1, 1, 1, 2),
    Fraction("0.5"): (1, 1, 2),
    Fraction("0.55"): (1, 2, 1, 1, 2, 1, 1, 2, 1, 1, 2, 1, 1, 2, 1, 2, 1, 1, 2,
                       1, 1, 2, 1, 1, 2, 1, 1, 2, 1, 1, 2),
    Fraction("0.6"): (1, 2, 1, 1, 2, 1, 1, 2),
    Fraction("0.65"): (1, 2, 1, 1, 2, 1, 2, 1, 1, 2, 1, 2, 1, 1, 2, 1, 2, 1, 1,
                       2, 1, 2, 1, 1, 2, 1, 2, 1, 1, 2, 1, 1, 2),
    Fraction("0.7"): (1, 2, 1, 2, 1, 1, 2, 1, 2, 1, 1, 2, 1, 2, 1, 1, 2),
    Fraction("0.75"): (1, 2, 1, 2, 1, 1, 2),
    Fraction("0.8"): (1, 2, 1, 2, 1, 2, 1, 1, 2),
    Fraction("0.85"): (1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 1, 2, 1, 2, 1, 2, 1, 2,
                       1, 2, 1, 2, 1, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 1, 2),
    Fraction("0.9"): (1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 1, 2),
    Fraction("0.95"): (1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1,
                       2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 1, 2),
    Fraction(1): (1, 2),
}


@dataclass(frozen=True)
class SchedulingPlan:
    """Prefix applied once at stream start, then a repeating cycle.

    ``alpha_used`` is the exact 2:1 ratio embodied by the cycle; it may
    differ from the scenario's raw alpha when the planner rounded to a
    representable ratio.
    """

    prefix: tuple[int, ...]
    cycle: tuple[int, ...]
    alpha_used: Fraction

    def __post_init__(self):
        object.__setattr__(self, "prefix", tuple(self.prefix))
        object.__setattr__(self, "cycle", tuple(self.cycle))
        object.__setattr__(self, "alpha_used", to_fraction(self.alpha_used))
        if not self.cycle:
            raise ValueError("cycle must be non-empty")
        for entry in self.prefix + self.cycle:
            if entry not in (1, 2):
                raise ValueError(f"carrier indices must be 1 or 2, got {entry}")
        ones = self.cycle.count(1)
        twos = self.cycle.count(2)
        if ones == 0:
            raise ValueError("cycle must contain carrier 1")
        if Fraction(twos, ones) != self.alpha_used:
            raise ValueError(
                f"cycle ratio {twos}/{ones} does not match alpha_used {self.alpha_used}")


def load_balance_factor(c1: CarrierConfig, c2: CarrierConfig) -> Fraction:
    """Exact ratio of carrier 2's usable capacity to carrier 1's.

    Carrier 1 must be dominant, so the result lies in (0, 1].
    """
    if c1.fill_rate == 0:
        raise ZeroFillRate("carrier 1 fill rate must be nonzero")
    numerator = c2.usable_capacity_bps()
    denominator = c1.usable_capacity_bps()
    if numerator == 0:
        raise ZeroFillRate("carrier 2 has zero usable capacity (unusable)")
    alpha = numerator / denominator
    if alpha > 1:
        raise DominanceViolated(
            f"alpha = {alpha} exceeds 1; carrier 1 must be the dominant carrier "
            "(swap carrier1 and carrier2)")
    return alpha


def nearest_table_alpha(alpha) -> Fraction:
    """Lookup-table key nearest to ``alpha`` (ties resolve to the smaller key)."""
    alpha = to_fraction(alpha)
    return min(LOOKUP_TABLE, key=lambda key: (abs(key - alpha), key))


def lookup_sequence(alpha) -> list[int]:
    """Scheduling cycle for ``alpha`` from the lookup table.

    An exact key returns its row; otherwise the nearest key's row is
    substituted (logged) and ties go to the smaller key.
    """
    alpha = to_fraction(alpha)
    if not (0 < alpha <= 1):
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    key = nearest_table_alpha(alpha)
    if key != alpha:
        log.info("alpha %s not in lookup table; using nearest key %s", alpha, key)
    return list(LOOKUP_TABLE[key])


def generate_sequence(alpha) -> list[int]:
    """Generate a scheduling cycle for an arbitrary ratio alpha = p/q.

    Emits q ones and p twos with an error-accumulator rule: carrier 1 is
    chosen unless that would leave the running count of twos more than one
    PDU short of alpha times the count of ones.  Every prefix of the result
    satisfies |count2 - alpha*count1| <= 1, and the output matches the
    lookup-table rows for all of the table's ratios.
    """
    alpha = to_fraction(alpha)
    if not (0 < alpha <= 1):
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    p, q = alpha.numerator, alpha.denominator
    if q > MAX_GENERATOR_DENOMINATOR:
        raise DenominatorTooLarge(
            f"alpha denominator {q} exceeds {MAX_GENERATOR_DENOMINATOR}; "
            "round alpha first (e.g. Fraction.limit_denominator)")
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


def multi_orbit_prefix(
    fast: CarrierConfig, slow: CarrierConfig, pdu_size_bytes: int
) -> int:
    """How many leading PDUs to pin to the fast (lower-delay) carrier so the
    slow path's head start is absorbed.  Zero when the paths match."""
    delta_t_s = planning_differential_delay_s(fast.orbit, slow.orbit)
    return math.floor(initial_fast_sequence_raw(fast, delta_t_s, pdu_size_bytes))


def build_plan(scenario: ScenarioConfig) -> SchedulingPlan:
    """Compose the scheduling plan for a scenario.

    Load balancing uses the generator on alpha rounded to denominator
    <= 64 (it reproduces every lookup-table row on the table's keys), plus
    the multi-orbit prefix on the lower-delay carrier.  Round robin alternates
    1,2 with no prefix regardless of alpha.
    """
    if scenario.scheduler is SchedulerKind.ROUND_ROBIN:
        return SchedulingPlan(prefix=(), cycle=(1, 2), alpha_used=Fraction(1))

    alpha = load_balance_factor(scenario.carrier1, scenario.carrier2)
    rounded = alpha.limit_denominator(MAX_GENERATOR_DENOMINATOR)
    if rounded == 0:
        raise DenominatorTooLarge(
            f"alpha = {Decimal(alpha.numerator) / alpha.denominator:.3g} is at most "
            f"1/{2 * MAX_GENERATOR_DENOMINATOR} and rounds to 0 at denominator <= "
            f"{MAX_GENERATOR_DENOMINATOR}; carrier 2 is too slow to schedule")
    cycle = tuple(generate_sequence(rounded))
    alpha_used = Fraction(cycle.count(2), cycle.count(1))

    leg1 = scenario.carrier1.orbit.mean_leg_distance_km
    leg2 = scenario.carrier2.orbit.mean_leg_distance_km
    if leg1 == leg2:
        prefix: tuple[int, ...] = ()
    else:
        if leg1 < leg2:
            fast_index, fast, slow = 1, scenario.carrier1, scenario.carrier2
        else:
            fast_index, fast, slow = 2, scenario.carrier2, scenario.carrier1
        length = multi_orbit_prefix(fast, slow, scenario.pdu_size_bytes)
        prefix = (fast_index,) * length

    return SchedulingPlan(prefix=prefix, cycle=cycle, alpha_used=alpha_used)


def assignments(plan: SchedulingPlan, n: int) -> np.ndarray:
    """Carrier indices of the PDUs with sequence numbers 0..n-1 (int64): the
    prefix once, then the cycle repeated."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    prefix = np.array(plan.prefix[:n], dtype=np.int64)
    cycle = np.resize(np.array(plan.cycle, dtype=np.int64), n - prefix.size)
    return np.concatenate((prefix, cycle))
