"""Flat key=value scenario files.

One ``key=value`` pair per line, ``#`` starts a comment, blank lines are
ignored.  Each key is required unless it has a default in ``_CARRIER_KEYS``,
the one table of the carrier keys, their canonical order and the defaults.
That table, with ``_TOP_KEYS``, names and orders the keys a file holds:

    label                           scenario name used in reports
    scheduler                       load_balancing | round_robin
    pdu_size_bytes                  integer
    bursts                          comma list of count:gap_s pairs; the gap
                                    separates this burst's release from the
                                    next one's (last gap unused)
    carrier1.symbol_rate_sym_s      integer/decimal/rational symbols per second
    carrier1.modcod                 MODCOD name
    carrier1.fill_rate              fraction of capacity for this user, (0, 1]
    carrier1.snr_db                 float label, drives MODCOD selection
    carrier1.orbit                  GEO | MEO
    carrier1.leg_km                 mean one-leg slant distance, km
    carrier1.variation_amplitude_km peak sinusoidal leg deviation, at most leg_km
    carrier1.variation_period_s     sinusoid period, seconds
    carrier1.variation_phase_rad    sinusoid phase, radians
    carrier2.*                      same keys for the second carrier

Rates and fill rates are read by ``model.to_fraction``, as ``casim plan
--alpha`` is: malformed text or a decimal exponent beyond +-4000 is a
ConfigError naming the key.
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
    "parse_fraction",
]

# Each carrier's keys in canonical order, with the text an absent key reads
# as: _REQUIRED for a required key, None for a MODCOD derived from snr_db.
_REQUIRED = object()
_CARRIER_KEYS = {
    "symbol_rate_sym_s": _REQUIRED,
    "modcod": None,
    "fill_rate": _REQUIRED,
    "snr_db": _REQUIRED,
    "orbit": _REQUIRED,
    "leg_km": _REQUIRED,
    "variation_amplitude_km": "0",
    "variation_period_s": repr(DEFAULT_MEO_VARIATION_PERIOD_S),
    "variation_phase_rad": "0",
}
_TOP_KEYS = ("label", "scheduler", "pdu_size_bytes", "bursts")
# Each carrier's key names, in _CARRIER_KEYS order, built once.
_KEY_NAMES = {prefix: tuple(f"{prefix}.{key}" for key in _CARRIER_KEYS)
              for prefix in ("carrier1", "carrier2")}
_KNOWN_KEYS = set(_TOP_KEYS).union(*_KEY_NAMES.values())
_DEFAULTS = {f"{prefix}.{key}": default for prefix in _KEY_NAMES
             for key, default in _CARRIER_KEYS.items() if default is not _REQUIRED}
_REQUIRED_KEYS = _KNOWN_KEYS - _DEFAULTS.keys()
# Text to member, built once: config hands model the member, which it keeps.
_ORBIT_KINDS = {kind.value: kind for kind in OrbitKind}
_SCHEDULERS = {kind.value: kind for kind in SchedulerKind}


def _parse_pairs(text: str) -> dict[str, str | None]:
    pairs: dict[str, str | None] = {}
    comments = "#" in text
    for lineno, raw in enumerate(text.splitlines(), start=1):
        key, sep, value = (raw.partition("#")[0] if comments else raw).partition("=")
        if not sep:
            if key.strip():
                raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
            continue
        if key not in _KNOWN_KEYS:  # a known key has no surrounding whitespace
            key = key.strip()
            if key not in _KNOWN_KEYS:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in pairs:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        pairs[key] = value.strip()
    missing = _REQUIRED_KEYS - pairs.keys()
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(sorted(missing))}")
    return {**_DEFAULTS, **pairs}


def parse_fraction(text: str, name: str) -> Fraction:
    """Parse ``text`` with ``model.to_fraction``; its ValueError (malformed
    text, or a decimal exponent beyond +-MAX_DECIMAL_EXPONENT) becomes a
    ConfigError naming ``name``."""
    try:
        return to_fraction(text)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def _float(pairs: dict[str, str], key: str) -> float:
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
    rate_key, modcod_key, fill_key, snr_key, orbit_key, *path_keys = _KEY_NAMES[prefix]
    orbit_kind = pairs[orbit_key]
    if orbit_kind not in _ORBIT_KINDS:
        raise ConfigError(
            f"{orbit_key}: must be {' or '.join(_ORBIT_KINDS)}, got {orbit_kind!r}")
    # The path keys give OrbitModel's fields after kind, in order.
    orbit = OrbitModel(_ORBIT_KINDS[orbit_kind], *[_float(pairs, key) for key in path_keys])
    snr_db = _float(pairs, snr_key)
    modcod_name = pairs[modcod_key]
    if modcod_name is None:
        modcod = modcod_for_snr(snr_db)
    elif modcod_name in MODCODS:
        modcod = MODCODS[modcod_name]
    else:
        raise ConfigError(
            f"{modcod_key}: unknown MODCOD {modcod_name!r} "
            f"(known: {', '.join(sorted(MODCODS))})")
    return CarrierConfig(
        symbol_rate_sym_s=parse_fraction(pairs[rate_key], rate_key),
        modcod=modcod,
        fill_rate=parse_fraction(pairs[fill_key], fill_key),
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
        scheduler=_SCHEDULERS[scheduler],
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

