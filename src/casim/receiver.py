"""Receiver-side merging of the two per-carrier arrival streams.

The terminal is intentionally naive: arrivals are combined in plain FIFO
order (no resequencing by sequence number), so any ordering errors the
gateway scheduler failed to prevent surface directly in the merged stream.
"""

from __future__ import annotations

import numpy as np

from .model import RunTrace

__all__ = ["merge"]


def merge(trace: RunTrace) -> RunTrace:
    """Combine per-carrier arrivals into one FIFO stream.

    A record is listed in sequence order, or in receive order after
    ``merge``.  The result shares ``trace``'s columns and lists its PDUs in
    receive order: by arrival time, ties to carrier 1 and then to the lower
    sequence number, whichever of the two listings ``trace`` has.  A stable
    sort of the arrivals of carrier 1's sequence numbers followed by carrier
    2's, each ascending, gives exactly that order, and a permutation of the
    checked sequence numbers, so nothing is checked again.
    """
    carrier = trace.carrier
    order = np.concatenate(((carrier == 1).nonzero()[0], (carrier == 2).nonzero()[0]))
    order = order[trace.t_arrival_ns[order].argsort(kind="stable")]
    return trace._listed_in(order)
