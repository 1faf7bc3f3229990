"""Receiver-side merging of the two per-carrier arrival streams.

The terminal is intentionally naive: arrivals are combined in plain FIFO
order (no resequencing by sequence number), so any ordering errors the
gateway scheduler failed to prevent surface directly in the merged stream.
"""

from __future__ import annotations

import numpy as np

from .errors import DuplicateSeq, MissingSeq
from .model import RunTrace

__all__ = ["merge"]


def merge(trace: RunTrace) -> RunTrace:
    """Combine per-carrier arrivals into one FIFO stream.

    Rows are sorted by arrival time (ties: carrier 1 first, then lower seq),
    so a row's index in the result is its merge position.  The input must
    be a permutation of sequence numbers 0..N-1.
    """
    n = len(trace)
    counts = np.bincount(trace.seq[trace.seq < n], minlength=n)
    if np.count_nonzero(counts > 1):
        raise DuplicateSeq(f"sequence number {np.argmax(counts > 1)} appears more than once")
    if np.count_nonzero(counts == 0):
        raise MissingSeq(f"sequence number {np.argmax(counts == 0)} missing from traces")

    order = np.lexsort((trace.seq, trace.carrier, trace.t_arrival_ns))
    return RunTrace(*(column[order] for column in trace.columns()))
