"""Single-difference (TDoA) formation from ToA epochs.

Differencing every pseudo-range against a common reference node removes the
rover clock term exactly; what remains is differenced geometry plus the
differential transmitter bias and noise.
"""

from __future__ import annotations

import bisect
from collections import Counter

from .errors import EmptySession, ReferenceMissing
from .geometry import node_sort_key
from .ingestion import Session


def form_tdoa(session: Session, epoch: int, ref: int) -> tuple[int, list[int], list[float]]:
    """The reference node's row of an epoch, the epoch's other rows in node
    order, and their single differences (pseudorange minus the reference's, m).

    ref is an index into session.node_ids. Raises ReferenceMissing when the
    epoch has no row for it; callers decide whether to drop the epoch or
    re-reference.
    """
    start, end = session.starts[epoch], session.starts[epoch + 1]
    node = session.node
    ref_row = bisect.bisect_left(node, ref, start, end)
    if ref_row == end or node[ref_row] != ref:
        raise ReferenceMissing(f"epoch t={session.times[epoch]} has no observation for "
                               f"the reference node (index {ref})")
    pseudorange = session.pseudorange
    ref_pseudorange = pseudorange[ref_row]
    rows = [*range(start, ref_row), *range(ref_row + 1, end)]
    return ref_row, rows, [pseudorange[row] - ref_pseudorange for row in rows]


def select_reference(session: Session) -> str:
    """The node present in the largest number of epochs, ties broken by
    smallest node id."""
    if not session.times:
        raise EmptySession("cannot select a reference node from an empty session")
    counts = Counter(session.node)   # a node has at most one row per epoch
    top = max(counts.values())
    return min((session.node_ids[n] for n, c in counts.items() if c == top), key=node_sort_key)
