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
    carrier1.variation_amplitude_km peak sinusoidal leg deviation, at most
                                    leg_km (optional; 0 = constant)
    carrier1.variation_period_s     sinusoid period, seconds (optional;
                                    DEFAULT_MEO_VARIATION_PERIOD_S = 600)
    carrier1.variation_phase_rad    optional phase, omitted when 0
    carrier2.*                      same keys for the second carrier

Rates and fill rates are read by ``model.to_fraction``, as ``casim plan
--alpha`` is: malformed text or a decimal exponent beyond +-4000 is a
ConfigError naming the key.  Parsing a canonical file and re-serializing it
reproduces it key for key; ``serialize_scenario`` refuses a label or a
MODCOD that would not read back as written.
"""

from __future__ import annotations

import io
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from .errors import ConfigError
from .model import (
    DEFAULT_MEO_VARIATION_PERIOD_S,
    MODCODS,
    Burst,
    CarrierConfig,
    OrbitKind,
    OrbitModel,
    ScenarioConfig,
    SchedulerKind,
    modcod_for_snr,
    to_fraction,
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
# Built once: iterating an Enum on every parse costs more than the lookup.
_ORBIT_KINDS = tuple(kind.value for kind in OrbitKind)
_SCHEDULERS = tuple(kind.value for kind in SchedulerKind)


def _parse_pairs(text: str) -> dict[str, str]:
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        key, sep, value = raw.partition("#")[0].partition("=")
        if not sep:
            if key.strip():
                raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
            continue
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


def parse_fraction(text: str, name: str) -> Fraction:
    """Parse ``text`` with ``model.to_fraction``; its ValueError (malformed
    text, or a decimal exponent beyond +-MAX_DECIMAL_EXPONENT) becomes a
    ConfigError naming ``name``."""
    try:
        return to_fraction(text)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from exc


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
    if orbit_kind not in _ORBIT_KINDS:
        raise ConfigError(
            f"{prefix}.orbit: must be {' or '.join(_ORBIT_KINDS)}, got {orbit_kind!r}")
    orbit = OrbitModel(
        kind=orbit_kind,
        mean_leg_distance_km=_float(pairs, f"{prefix}.leg_km"),
        variation_amplitude_km=_float(pairs, f"{prefix}.variation_amplitude_km", 0.0),
        variation_period_s=_float(pairs, f"{prefix}.variation_period_s",
                                  DEFAULT_MEO_VARIATION_PERIOD_S),
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
    if scheduler not in _SCHEDULERS:
        raise ConfigError(f"scheduler: must be one of {', '.join(_SCHEDULERS)}; got {scheduler!r}")
    return ScenarioConfig(
        carrier1=_parse_carrier(pairs, "carrier1"),
        carrier2=_parse_carrier(pairs, "carrier2"),
        scheduler=SchedulerKind(scheduler),
        pdu_size_bytes=_int(pairs, "pdu_size_bytes"),
        bursts=_parse_bursts(pairs["bursts"]),
        label=pairs["label"],
    )


@contextmanager
def _reading(path: Path):
    """Raise a failure to read or decode config file ``path`` as a ConfigError."""
    try:
        yield
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc


def parse_scenario_file(path: str | Path, raw: bytes | None = None) -> ScenarioConfig:
    """The scenario in config file ``path``.  ``raw``, if given, holds the
    file's bytes, already read (to hash them), so the file is read once.  The
    bytes are decoded as ``Path.read_text`` decodes them: the locale's
    encoding, with universal newlines."""
    path = Path(path)
    with _reading(path):
        if raw is None:
            raw = path.read_bytes()
        text = io.TextIOWrapper(io.BytesIO(raw)).read()
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
    if MODCODS.get(carrier.modcod.name) != carrier.modcod:
        raise ValueError(f"a scenario file names only MODCODS entries, not {carrier.modcod}")
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
    """Render a scenario in canonical key order (floats via repr, exact).

    Raises ValueError for what would not read back as written: a label with
    a ``#``, a line break (any that ``str.splitlines`` breaks on) or
    surrounding whitespace, and a MODCOD not the ``MODCODS`` entry of its name.
    """
    label = scenario.label
    if "#" in label or label != label.strip() or "".join(label.splitlines()) != label:
        raise ValueError(f"a scenario file cannot hold the label {label!r}")
    bursts = ",".join(
        f"{b.pdu_count}:{b.inter_burst_gap_s!r}" for b in scenario.bursts
    )
    lines = [
        f"label={label}",
        f"scheduler={scenario.scheduler.value}",
        f"pdu_size_bytes={scenario.pdu_size_bytes}",
        f"bursts={bursts}",
    ]
    _serialize_carrier(lines, "carrier1", scenario.carrier1)
    _serialize_carrier(lines, "carrier2", scenario.carrier2)
    return "\n".join(lines) + "\n"
