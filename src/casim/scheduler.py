"""Gateway-side load balancing and PDU scheduling.

Produces the per-scenario :class:`SchedulingPlan`: a one-shot prefix that
compensates the differential propagation delay between orbits, followed by a
repeating cycle of carrier assignments whose 2:1 ratio equals the load
balancing factor alpha.  Every scheduling decision lives here:
``generate_sequence`` is the one place that makes a cycle,
``multi_orbit_prefix`` the one prefix computation (the fast carrier and each
step that sizes its prefix), and ``assignments`` the one prefix-then-cycle
rule, which writes a run's carrier column.
All operations are pure functions of their arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import InvariantError
from .model import (FRAMES_PER_SUPERFRAME_BUNDLE, SUPERFRAME_SYMBOLS, ScenarioConfig,
                    SchedulerKind, _exact, _integer, _set, _shown, approx)

__all__ = [
    "NOMINAL_LIGHT_SPEED_KM_S",
    "MAX_GENERATOR_DENOMINATOR",
    "SchedulingPlan",
    "generate_sequence",
    "Prefix",
    "multi_orbit_prefix",
    "build_plan",
    "assignments",
]

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
        cycle = tuple(self.cycle)
        object.__setattr__(self, "cycle", cycle)
        ones = cycle.count(1)
        if not ones or ones + cycle.count(2) != len(cycle):
            raise InvariantError(
                f"cycle must hold carrier 1 and only indices 1 or 2, got {self.cycle}")
        _set(self, _integer, "prefix_length")
        if self.prefix_carrier is not None:
            _set(self, _integer, "prefix_carrier")
        length, carrier = self.prefix_length, self.prefix_carrier
        if length < 0:
            raise InvariantError(f"prefix_length must be >= 0, got {_shown(length)}")
        if carrier not in ((None,) if length == 0 else (1, 2)):
            raise InvariantError(
                f"a prefix of {_shown(length)} PDUs cannot be on carrier {_shown(carrier)}")

    @property
    def alpha_used(self) -> Fraction:
        """The cycle's exact 2:1 ratio; it may differ from the scenario's raw
        alpha, which the generator rounds to denominator <= 64."""
        return Fraction(self.cycle.count(2), self.cycle.count(1))


def generate_sequence(alpha) -> list[int]:
    """The scheduling cycle for a load balancing factor alpha in (0, 1].

    Alpha is first rounded to the nearest p/q with q <= 64, ties to the
    smaller denominator, exactly as ``Fraction.limit_denominator(64)`` rounds
    it; the continued-fraction walk runs on alpha's integer terms.
    The cycle holds q ones and p twos, the j-th one after ceil(p j / q) - 1
    twos: carrier 1 comes next unless that would leave the count of twos more
    than one PDU short of p/q times the count of ones, so every prefix
    satisfies |count2 - (p/q)*count1| <= 1.  Equivalently, as p <= q, the
    k-th two (k = 0, 1, ...) is at index floor((k (p + q) + q) / p), which is
    how it is written.  This is the Christoffel-word (Bresenham)
    construction, and it reproduces every row of the paper's lookup table.
    """
    alpha = _exact("alpha", alpha)
    num, den = alpha.as_integer_ratio()
    if not 0 < num <= den:
        raise InvariantError(f"alpha must be in (0, 1], got {approx(alpha)}")
    p, q = num, den
    if den > MAX_GENERATOR_DENOMINATOR:
        # Convergents p1/q1 of num/den while q stays in bound; the answer is
        # p1/q1 or the largest semiconvergent (p0 + k p1)/(q0 + k q1) in bound.
        p0, q0, p1, q1 = 0, 1, 1, 0
        n, d = num, den
        while True:
            a = n // d
            # `>=` here would give the same p/q.  At q0 + a*q1 == 64 it stops one
            # step early with k = a, so its candidates are p1/q1 and the
            # convergent this loop takes next, after which it stops with k = 0
            # between the same two.  Alpha lies strictly nearer the later one,
            # (n - a*d)/(64 den) against d/(q1 den) with n - a*d < d and
            # q1 < 64, so neither tie rule is reached and both keep it.
            if q0 + a * q1 > MAX_GENERATOR_DENOMINATOR:
                break
            p0, q0, p1, q1 = p1, q1, p0 + a * p1, q0 + a * q1
            n, d = d, n - a * d
        k = (MAX_GENERATOR_DENOMINATOR - q0) // q1
        # Alpha lies between the two, which are 1/(q1 (q0 + k q1)) apart, and
        # d/(q1 den) from p1/q1: p1/q1 is kept iff that is at most half the gap.
        if 2 * d * (q0 + k * q1) <= den:
            p, q = p1, q1
        else:
            p, q = p0 + k * p1, q0 + k * q1
    if p == 0:
        raise InvariantError(
            f"alpha = {approx(alpha)} is at most 1/{2 * MAX_GENERATOR_DENOMINATOR} "
            f"and rounds to 0 at denominator <= {MAX_GENERATOR_DENOMINATOR}; "
            "carrier 2 is too slow to schedule")
    size = p + q
    sequence = [1] * size
    for k in range(p):
        sequence[(k * size + q) // p] = 2
    return sequence


class Prefix(NamedTuple):
    """The multi-orbit prefix of a scenario, with every step that sizes it.

    ``carrier`` is the fast carrier (the shorter mean leg, carrier 1 on a
    tie); ``delay_s`` the slow path's head start, with the planner's nominal
    light speed; ``superframes`` how many superframes the fast carrier emits
    in it; ``pdus_per_frame`` the fast carrier's PDUs per FEC frame; ``raw``
    the PDUs it sends meanwhile, pdus_per_frame x 9 bundled frames x M x
    symbol rate x delay / superframe symbols; ``length`` the PDUs the plan
    pins to ``carrier``: that count floored under load balancing, 0 under
    round robin.
    """

    carrier: int
    delay_s: float
    superframes: float
    pdus_per_frame: int
    raw: float
    length: int


def multi_orbit_prefix(scenario: ScenarioConfig) -> Prefix:
    """How many leading PDUs to pin to the fast (lower-delay) carrier so the
    slow path's head start is absorbed, and the steps that size it.  Zero
    when the paths match or the scheduler is round robin."""
    c1, c2 = scenario.carrier1, scenario.carrier2
    carrier = 1 if c1.orbit.mean_leg_distance_km <= c2.orbit.mean_leg_distance_km else 2
    fast, slow = (c1, c2) if carrier == 1 else (c2, c1)
    n_pdu = scenario.pdus_per_frame[carrier - 1]
    delta_leg_km = slow.orbit.mean_leg_distance_km - fast.orbit.mean_leg_distance_km
    delay_s = 2.0 * delta_leg_km / NOMINAL_LIGHT_SPEED_KM_S
    if delay_s == 0:
        return Prefix(carrier, 0.0, 0.0, n_pdu, 0.0, 0)
    rate_num, rate_den = fast.symbol_rate_sym_s.as_integer_ratio()
    try:
        rate = rate_num / rate_den  # as float(Fraction) computes it
    except OverflowError:
        raise InvariantError(
            f"symbol_rate_sym_s {approx(fast.symbol_rate_sym_s)} exceeds the float "
            "range of the multi-orbit prefix arithmetic") from None
    raw = (n_pdu * FRAMES_PER_SUPERFRAME_BUNDLE * fast.modcod.bits_per_symbol * rate
           * delay_s / SUPERFRAME_SYMBOLS)
    if not math.isfinite(raw):
        raise InvariantError(
            f"the multi-orbit prefix is not finite ({raw} PDUs); "
            "the leg distances differ too much")
    length = math.floor(raw) if scenario.scheduler is SchedulerKind.LOAD_BALANCING else 0
    return Prefix(carrier, delay_s, delay_s * rate / SUPERFRAME_SYMBOLS, n_pdu, raw, length)


def build_plan(scenario: ScenarioConfig) -> SchedulingPlan:
    """Compose the scheduling plan for a scenario.

    Load balancing takes its cycle from ``generate_sequence`` and pins the
    multi-orbit prefix to the lower-delay carrier.  Round robin alternates
    1,2 with no prefix regardless of alpha.
    """
    if scenario.scheduler is SchedulerKind.ROUND_ROBIN:
        return SchedulingPlan(cycle=(1, 2))

    cycle = generate_sequence(scenario.alpha)
    prefix = multi_orbit_prefix(scenario)
    return SchedulingPlan(cycle, prefix.carrier if prefix.length else None, prefix.length)


def assignments(plan: SchedulingPlan, n: int) -> np.ndarray:
    """Carrier indices of the PDUs with sequence numbers 0..n-1, as int8 (the
    dtype of ``RunTrace.carrier``): the prefix carrier for the first
    min(prefix_length, n), then the cycle repeated, written into one column
    (whole cycles as one reshaped view)."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    k = min(plan.prefix_length, n)
    size = len(plan.cycle)
    full, tail = divmod(n - k, size)
    cycle = np.array(plan.cycle, dtype=np.int8)
    column = np.empty(n, dtype=np.int8)
    if k:
        column[:k] = plan.prefix_carrier
    column[k:n - tail].reshape(full, size)[:] = cycle
    column[n - tail:] = cycle[:tail]
    return column

