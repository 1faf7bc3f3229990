"""Flat key=value scenario files.

One ``key=value`` pair per line, ``#`` starts a comment, blank lines are
ignored.  Keys (all required unless noted):

    label                           scenario name used in reports
    scheduler                       load_balancing | round_robin
    pdu_size_bytes                  integer
    bursts                          comma list of count:gap_s pairs; the gap
                                    separates this burst's release from the
                                    next one's (last gap unused)
    carrier1.symbol_rate_sym_s      integer/decimal/rational symbols per second
    carrier1.modcod                 MODCOD name (optional; derived from snr_db
                                    when absent)
    carrier1.fill_rate              fraction of capacity for this user, (0, 1]
    carrier1.snr_db                 float label, drives MODCOD selection
    carrier1.orbit                  GEO | MEO
    carrier1.leg_km                 mean one-leg slant distance, km
    carrier1.variation_amplitude_km peak sinusoidal leg deviation (0 = constant)
    carrier1.variation_period_s     sinusoid period, seconds
    carrier1.variation_phase_rad    optional phase, omitted when 0
    carrier2.*                      same keys for the second carrier

Parsing a canonical file and re-serializing it reproduces it key for key.
"""

from __future__ import annotations

import re
from fractions import Fraction
from pathlib import Path

from .errors import ConfigError
from .model import (
    MODCODS,
    Burst,
    CarrierConfig,
    OrbitModel,
    ScenarioConfig,
    SchedulerKind,
    modcod_for_snr,
)

__all__ = [
    "parse_scenario_text",
    "parse_scenario_file",
    "serialize_scenario",
    "parse_fraction",
]

_CARRIER_KEYS = (
    "symbol_rate_sym_s",
    "modcod",
    "fill_rate",
    "snr_db",
    "orbit",
    "leg_km",
    "variation_amplitude_km",
    "variation_period_s",
    "variation_phase_rad",
)
_TOP_KEYS = ("label", "scheduler", "pdu_size_bytes", "bursts")
_KNOWN_KEYS = set(_TOP_KEYS) | {
    f"carrier{i}.{key}" for i in (1, 2) for key in _CARRIER_KEYS
}
_REQUIRED_KEYS = set(_TOP_KEYS) | {
    f"carrier{i}.{key}"
    for i in (1, 2)
    for key in ("symbol_rate_sym_s", "fill_rate", "snr_db", "orbit", "leg_km")
}


def _parse_pairs(text: str) -> dict[str, str]:
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if key in pairs:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        pairs[key] = value
    missing = _REQUIRED_KEYS - pairs.keys()
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(sorted(missing))}")
    return pairs


# Fraction computes 10**exponent exactly, so its time grows with the exponent.
# The exponent's digits are taken without leading zeros: five exceed the bound.
MAX_DECIMAL_EXPONENT = 4000
_EXPONENT = re.compile(r"[eE][-+]?[0_]*(\d[\d_]*)\s*\Z")


def parse_fraction(text: str, name: str) -> Fraction:
    """Parse ``text`` as an exact Fraction.  Raises ConfigError naming ``name``
    for malformed text or a decimal exponent beyond +-MAX_DECIMAL_EXPONENT."""
    match = _EXPONENT.search(text)
    if match and int(match[1].replace("_", "")[:5]) > MAX_DECIMAL_EXPONENT:
        raise ConfigError(f"{name}: decimal exponent beyond +-{MAX_DECIMAL_EXPONENT}: {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"{name}: not a number: {text!r}") from exc


def _fraction(pairs: dict[str, str], key: str) -> Fraction:
    return parse_fraction(pairs[key], key)


def _float(pairs: dict[str, str], key: str, default: float | None = None) -> float:
    if key not in pairs:
        return default
    try:
        return float(pairs[key])
    except ValueError as exc:
        raise ConfigError(f"{key}: not a number: {pairs[key]!r}") from exc


def _int(pairs: dict[str, str], key: str) -> int:
    try:
        return int(pairs[key])
    except ValueError as exc:
        raise ConfigError(f"{key}: not an integer: {pairs[key]!r}") from exc


def _parse_bursts(value: str) -> tuple[Burst, ...]:
    bursts = []
    for item in value.split(","):
        item = item.strip()
        if not item:
            continue
        count_str, sep, gap_str = item.partition(":")
        try:
            count = int(count_str)
            gap = float(gap_str) if sep else 0.0
        except ValueError as exc:
            raise ConfigError(f"bursts: bad entry {item!r} (want count:gap_s)") from exc
        bursts.append(Burst(count, gap))
    if not bursts:
        raise ConfigError("bursts: at least one count:gap_s entry required")
    return tuple(bursts)


def _parse_carrier(pairs: dict[str, str], prefix: str) -> CarrierConfig:
    orbit_kind = pairs[f"{prefix}.orbit"]
    if orbit_kind not in ("GEO", "MEO"):
        raise ConfigError(f"{prefix}.orbit: must be GEO or MEO, got {orbit_kind!r}")
    orbit = OrbitModel(
        kind=orbit_kind,
        mean_leg_distance_km=_float(pairs, f"{prefix}.leg_km"),
        variation_amplitude_km=_float(pairs, f"{prefix}.variation_amplitude_km", 0.0),
        variation_period_s=_float(pairs, f"{prefix}.variation_period_s", 600.0),
        variation_phase_rad=_float(pairs, f"{prefix}.variation_phase_rad", 0.0),
    )
    snr_db = _float(pairs, f"{prefix}.snr_db")
    modcod_name = pairs.get(f"{prefix}.modcod")
    if modcod_name is None:
        modcod = modcod_for_snr(snr_db)
    elif modcod_name in MODCODS:
        modcod = MODCODS[modcod_name]
    else:
        raise ConfigError(
            f"{prefix}.modcod: unknown MODCOD {modcod_name!r} "
            f"(known: {', '.join(sorted(MODCODS))})")
    return CarrierConfig(
        symbol_rate_sym_s=_fraction(pairs, f"{prefix}.symbol_rate_sym_s"),
        modcod=modcod,
        fill_rate=_fraction(pairs, f"{prefix}.fill_rate"),
        snr_db=snr_db,
        orbit=orbit,
    )


def parse_scenario_text(text: str) -> ScenarioConfig:
    """Parse scenario config text; raises ConfigError for malformed input
    and InvariantError for semantically invalid scenarios."""
    pairs = _parse_pairs(text)
    scheduler = pairs["scheduler"]
    if scheduler not in (k.value for k in SchedulerKind):
        raise ConfigError(
            f"scheduler: must be one of {', '.join(k.value for k in SchedulerKind)}; "
            f"got {scheduler!r}")
    return ScenarioConfig(
        carrier1=_parse_carrier(pairs, "carrier1"),
        carrier2=_parse_carrier(pairs, "carrier2"),
        scheduler=SchedulerKind(scheduler),
        pdu_size_bytes=_int(pairs, "pdu_size_bytes"),
        bursts=_parse_bursts(pairs["bursts"]),
        label=pairs["label"],
    )


def parse_scenario_file(path: str | Path) -> ScenarioConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_scenario_text(text)


def _fraction_str(value: Fraction) -> str:
    """Shortest exact rendering: integer, finite decimal, or p/q."""
    if value.denominator == 1:
        return str(value.numerator)
    den = value.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return f"{value.numerator}/{value.denominator}"
    digits = max(twos, fives)
    scaled = value.numerator * 10**digits // value.denominator
    text = f"{scaled:0{digits + 1}d}"
    return f"{text[:-digits]}.{text[-digits:]}" if digits else text


def _serialize_carrier(lines: list[str], prefix: str, carrier: CarrierConfig) -> None:
    orbit = carrier.orbit
    lines.append(f"{prefix}.symbol_rate_sym_s={_fraction_str(carrier.symbol_rate_sym_s)}")
    lines.append(f"{prefix}.modcod={carrier.modcod.name}")
    lines.append(f"{prefix}.fill_rate={_fraction_str(carrier.fill_rate)}")
    lines.append(f"{prefix}.snr_db={carrier.snr_db!r}")
    lines.append(f"{prefix}.orbit={orbit.kind.value}")
    lines.append(f"{prefix}.leg_km={orbit.mean_leg_distance_km!r}")
    lines.append(f"{prefix}.variation_amplitude_km={orbit.variation_amplitude_km!r}")
    lines.append(f"{prefix}.variation_period_s={orbit.variation_period_s!r}")
    if orbit.variation_phase_rad != 0.0:
        lines.append(f"{prefix}.variation_phase_rad={orbit.variation_phase_rad!r}")


def serialize_scenario(scenario: ScenarioConfig) -> str:
    """Render a scenario in canonical key order (floats via repr, exact)."""
    bursts = ",".join(
        f"{b.pdu_count}:{b.inter_burst_gap_s!r}" for b in scenario.bursts
    )
    lines = [
        f"label={scenario.label}",
        f"scheduler={scenario.scheduler.value}",
        f"pdu_size_bytes={scenario.pdu_size_bytes}",
        f"bursts={bursts}",
    ]
    _serialize_carrier(lines, "carrier1", scenario.carrier1)
    _serialize_carrier(lines, "carrier2", scenario.carrier2)
    return "\n".join(lines) + "\n"
