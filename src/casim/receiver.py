"""Receiver-side merging of the two per-carrier arrival streams.

The terminal is intentionally naive: arrivals are combined in plain FIFO
order (no resequencing by sequence number), so any ordering errors the
gateway scheduler failed to prevent surface directly in the merged stream.
"""

from __future__ import annotations

from .model import RunTrace

__all__ = ["merge"]


def merge(trace: RunTrace) -> RunTrace:
    """Combine per-carrier arrivals into one FIFO stream.

    The result shares ``trace``'s columns and lists its rows in receive
    order: by arrival time, ties to carrier 1 and then to the lower sequence
    number, whichever order ``trace`` lists.  The rows are stored in that
    tie order, carrier 1's in sequence order and then carrier 2's, so one
    stable sort of the stored arrivals gives the receive order, a
    permutation of the checked rows: nothing is checked again.
    """
    return trace._listed_in(trace.t_arrival_ns.argsort(kind="stable"))
