"""Seeded scenario config texts for the library workloads.

The seed is the benchmark's own argument; casim only ever sees the texts.
Every text is valid by construction: carrier 1 dominates, the load balancing
factor stays in [MIN_ALPHA, 1] and a 1500 B PDU fits each carrier's frame
share.  Only ``random.random``, ``randrange`` and ``shuffle`` are used, so a
seed gives the same texts on every supported Python.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import NamedTuple

PDU_SIZE_BYTES = 1500
FECFRAME_BITS = 64800

# name -> (bits per symbol, code rate), the MODCODs casim bundles.
MODCODS = {
    "QPSK 1/2": (2, Fraction(1, 2)),
    "QPSK 3/4": (2, Fraction(3, 4)),
    "8PSK 3/4": (3, Fraction(3, 4)),
    "8PSK 5/6": (3, Fraction(5, 6)),
    "16APSK 3/4": (4, Fraction(3, 4)),
}

SWEEP_SCENARIOS = 1000
SWEEP_SCENARIO_PDUS = (20, 800)  # log-uniform PDU count per scenario
SWEEP_ROUND_ROBIN_SHARE = 10  # one scenario in ten
MIN_BURST_PDUS = 5
ORBIT_PAIRS = (("GEO", "GEO"), ("GEO", "MEO"), ("MEO", "GEO"), ("MEO", "MEO"))
# Keeps limit_denominator(64) away from 0, where the scheduler would refuse
# the scenario.
MIN_ALPHA = Fraction(1, 20)

LONG_MEO_BURSTS = 8
LONG_MEO_BURST_PDUS = 25_000
LONG_MEO_GAP_S = 0.5

# The bundled meo_geo scenario, with the MEO phase left to the seed.
LONG_MEO_TEMPLATE = """\
label=long_meo
scheduler=load_balancing
pdu_size_bytes=1500
bursts={bursts}
carrier1.symbol_rate_sym_s=4640000
carrier1.modcod=8PSK 5/6
carrier1.fill_rate=0.25
carrier1.snr_db=10.0
carrier1.orbit=MEO
carrier1.leg_km=11933.0
carrier1.variation_amplitude_km=300.0
carrier1.variation_period_s=600.0
carrier1.variation_phase_rad={phase!r}
carrier2.symbol_rate_sym_s=1856000
carrier2.modcod=8PSK 5/6
carrier2.fill_rate=0.25
carrier2.snr_db=10.0
carrier2.orbit=GEO
carrier2.leg_km=40151.0
carrier2.variation_amplitude_km=0.0
carrier2.variation_period_s=600.0
"""


class Scenario(NamedTuple):
    """One generated config text and the burst sizes it declares."""

    text: str
    burst_sizes: tuple[int, ...]


def _uniform(rng: random.Random, lo: float, hi: float) -> float:
    return lo + (hi - lo) * rng.random()


def _usable(carrier: dict) -> Fraction:
    bits, rate = MODCODS[carrier["modcod"]]
    return carrier["symbol_rate"] * bits * rate * carrier["fill"]


def _carrier(rng: random.Random, orbit: str) -> dict:
    modcod = list(MODCODS)[rng.randrange(len(MODCODS))]
    _, code_rate = MODCODS[modcod]
    # Smallest fill rate, in twentieths, whose frame share holds one PDU.
    min_fill = math.ceil(Fraction(8 * PDU_SIZE_BYTES * 20, FECFRAME_BITS) / code_rate)
    carrier = {
        "symbol_rate": rng.randrange(500_000, 20_000_001),
        "modcod": modcod,
        "fill": Fraction(rng.randrange(min_fill, 21), 20),
        "snr_db": round(_uniform(rng, 2.0, 12.0), 2),
        "orbit": orbit,
    }
    if orbit == "GEO":
        carrier.update(leg_km=round(_uniform(rng, 35_786.0, 41_000.0), 1),
                       amplitude_km=0.0, period_s=600.0, phase_rad=0.0)
    else:
        carrier.update(leg_km=round(_uniform(rng, 8_000.0, 15_000.0), 1),
                       amplitude_km=round(_uniform(rng, 50.0, 500.0), 1),
                       period_s=round(_uniform(rng, 300.0, 1200.0), 1),
                       phase_rad=round(_uniform(rng, 0.0, 2.0 * math.pi), 6))
    return carrier


def _carrier_lines(index: int, c: dict) -> list[str]:
    fill = c["fill"]
    p = f"carrier{index}"
    lines = [
        f"{p}.symbol_rate_sym_s={c['symbol_rate']}",
        f"{p}.modcod={c['modcod']}",
        f"{p}.fill_rate={fill.numerator}/{fill.denominator}",
        f"{p}.snr_db={c['snr_db']!r}",
        f"{p}.orbit={c['orbit']}",
        f"{p}.leg_km={c['leg_km']!r}",
        f"{p}.variation_amplitude_km={c['amplitude_km']!r}",
        f"{p}.variation_period_s={c['period_s']!r}",
    ]
    if c["phase_rad"]:
        lines.append(f"{p}.variation_phase_rad={c['phase_rad']!r}")
    return lines


def _sweep_text(rng: random.Random, label: str, scheduler: str,
                orbits: tuple[str, str], sizes: list[int]) -> str:
    while True:
        c1, c2 = _carrier(rng, orbits[0]), _carrier(rng, orbits[1])
        if _usable(c1) < _usable(c2):
            c1, c2 = c2, c1
        if _usable(c2) >= MIN_ALPHA * _usable(c1):
            break
    gaps = [round(_uniform(rng, 0.0, 2.0), 3) for _ in sizes[:-1]] + [0.0]
    lines = [
        f"label={label}",
        f"scheduler={scheduler}",
        f"pdu_size_bytes={PDU_SIZE_BYTES}",
        "bursts=" + ",".join(f"{n}:{gap!r}" for n, gap in zip(sizes, gaps)),
    ]
    lines += _carrier_lines(1, c1) + _carrier_lines(2, c2)
    return "\n".join(lines) + "\n"


def _split(rng: random.Random, total: int, parts: int) -> tuple[int, ...]:
    """``total`` PDUs cut into ``parts`` bursts of at least MIN_BURST_PDUS."""
    spare = total - parts * MIN_BURST_PDUS
    cuts = sorted(rng.randrange(spare + 1) for _ in range(parts - 1))
    edges = [0, *cuts, spare]
    return tuple(MIN_BURST_PDUS + b - a for a, b in zip(edges, edges[1:]))


def sweep(seed: int) -> list[Scenario]:
    """SWEEP_SCENARIOS random scenarios of 1-4 bursts, tens to hundreds of PDUs each.

    The draws are stratified so that every seed gives nearly the same
    distribution of work, and per-scenario timings stay comparable from seed
    to seed.  Each orbit pair gets a quarter of them.  Within a pair, the k-th
    scenario's PDU count comes from the k-th of that many equal-probability strata
    of a log-uniform range; one in SWEEP_ROUND_ROBIN_SHARE uses round robin;
    and burst counts cycle through 1-4.  Rates, MODCODs, fill rates, geometry,
    gaps and the exact counts are random.
    """
    rng = random.Random(seed)
    lo, hi = SWEEP_SCENARIO_PDUS
    per_pair = SWEEP_SCENARIOS // len(ORBIT_PAIRS)
    scenarios = []
    for i in range(SWEEP_SCENARIOS):
        k, pair = divmod(i, len(ORBIT_PAIRS))
        orbits = ORBIT_PAIRS[pair]
        total = int(lo * (hi / lo) ** ((k + rng.random()) / per_pair))
        scheduler = "round_robin" if k % SWEEP_ROUND_ROBIN_SHARE == 0 else "load_balancing"
        bursts = _split(rng, total, min(k % 4 + 1, total // MIN_BURST_PDUS))
        text = _sweep_text(rng, f"sweep{i:04d}", scheduler, orbits, list(bursts))
        scenarios.append(Scenario(text, bursts))
    rng.shuffle(scenarios)
    return scenarios


def long_meo(seed: int) -> list[Scenario]:
    """meo_geo with 8 overlapping bursts of 25k PDUs and a seeded MEO phase."""
    phase = round(_uniform(random.Random(seed), 0.0, 2.0 * math.pi), 6)
    bursts = ",".join([f"{LONG_MEO_BURST_PDUS}:{LONG_MEO_GAP_S!r}"] * (LONG_MEO_BURSTS - 1)
                      + [f"{LONG_MEO_BURST_PDUS}:0.0"])
    text = LONG_MEO_TEMPLATE.format(bursts=bursts, phase=phase)
    return [Scenario(text, (LONG_MEO_BURST_PDUS,) * LONG_MEO_BURSTS)]


GENERATORS = {"sweep": sweep, "long_meo": long_meo}
