"""Exception hierarchy for casim.

``ConfigError`` marks unreadable or malformed scenario files; everything
else derives from ``InvariantError`` and marks a violated domain invariant
(the message names the invariant).  The CLI maps ``ConfigError`` to exit
code 2 and ``InvariantError`` to exit code 3.
"""


class CasimError(Exception):
    """Base class for all casim errors."""


class ConfigError(CasimError):
    """Scenario config file is missing, unreadable, or syntactically invalid."""


class InvariantError(CasimError):
    """A domain invariant was violated; the message names it."""


class DominanceViolated(InvariantError):
    """Carrier 2's usable capacity exceeds carrier 1's (alpha would be > 1)."""


class DenominatorTooLarge(InvariantError):
    """Alpha is at most 1/128, so it rounds to 0 at the generator's
    denominator limit of 64 and no cycle can realise it."""


class ZeroPayload(InvariantError):
    """PDU too large for one frame's per-user share; nothing fits."""


class DegenerateWindow(InvariantError):
    """Throughput window has zero duration or too few PDUs to measure."""
