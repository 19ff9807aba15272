"""Single-difference (TDoA) formation from ToA epochs.

Differencing every pseudo-range against a common reference node removes the
rover clock term exactly; what remains is differenced geometry plus the
differential transmitter bias and noise. Calibration differences each epoch
against the table's reference node, found by reference_rows, and drops the
epochs that lack it; the filter differences each epoch against its first row.
"""

from __future__ import annotations

import bisect
from collections import Counter

from .errors import TdoaDtbError
from .ingestion import Session


def reference_rows(session: Session, ref: int) -> list[int]:
    """Per epoch, the row of node index ref, or -1 where the epoch has none
    (every epoch for ref -1, a node the session never saw)."""
    node, starts = session.node, session.starts
    rows = [bisect.bisect_left(node, ref, start, end) for start, end in zip(starts, starts[1:])]
    return [row if row < end and node[row] == ref else -1 for row, end in zip(rows, starts[1:])]


def form_tdoa(session: Session, epoch: int, ref_row: int) -> tuple[list[int], list[float]]:
    """The rows of an epoch other than its row ref_row, in node order, and
    their single differences (pseudorange minus the reference's, m)."""
    pseudorange, ref_pseudorange = session.pseudorange, session.pseudorange[ref_row]
    rows = [*range(session.starts[epoch], ref_row), *range(ref_row + 1, session.starts[epoch + 1])]
    return rows, [pseudorange[row] - ref_pseudorange for row in rows]


def select_reference(session: Session) -> str:
    """The node present in the largest number of epochs, ties broken by node
    order: the smallest node index, since node_ids are in node order."""
    if not session.times:
        raise TdoaDtbError("cannot select a reference node from an empty session")
    counts = Counter(session.node)   # a node has at most one row per epoch
    top = max(counts.values())
    return session.node_ids[min(n for n, c in counts.items() if c == top)]
