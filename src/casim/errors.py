"""Exception hierarchy for casim: one type per nonzero CLI exit code.

``ConfigError`` (exit 2) marks a scenario file that is missing, unreadable
or malformed.  ``InvariantError`` (exit 3) marks a violated domain
invariant, and its message names the invariant: a dominant carrier 2, a PDU
larger than a frame's share, an alpha that rounds to 0, a run with no window
to measure, a time past the int64 range.
"""


class CasimError(Exception):
    """Base class for all casim errors."""


class ConfigError(CasimError):
    """Scenario config file is missing, unreadable, or syntactically invalid."""


class InvariantError(CasimError):
    """A domain invariant was violated; the message names it."""
