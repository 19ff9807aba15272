"""Single-difference (TDoA) formation from ToA epochs.

Differencing every pseudo-range against a common reference node removes the
rover clock term exactly; what remains is differenced geometry plus the
differential transmitter bias and noise.
"""

from __future__ import annotations

from collections import Counter

from .errors import EmptySession, ReferenceMissing
from .geometry import node_sort_key
from .ingestion import Epoch


def form_tdoa(epoch: Epoch, ref_node_id: str
              ) -> tuple[float | None, list[tuple[str, float, float | None]]]:
    """Difference every non-reference observation against the reference node.

    Returns the reference's rsrp, shared by every difference of the epoch, and
    the (node_id, sd_pseudorange_m, rsrp) rows in the epoch's obs order, which
    is node_sort_key order. Raises ReferenceMissing when the epoch has no
    observation for the reference; callers decide whether to drop the epoch
    or re-reference.
    """
    obs = epoch.obs
    if ref_node_id not in obs:
        raise ReferenceMissing(
            f"epoch t={epoch.time} has no observation for reference node {ref_node_id!r}"
        )
    ref_pseudorange, ref_rsrp = obs[ref_node_id]
    return ref_rsrp, [(node_id, pseudorange - ref_pseudorange, rsrp)
                      for node_id, (pseudorange, rsrp) in obs.items() if node_id != ref_node_id]


def select_reference(epochs: list[Epoch]) -> str:
    """The node present in the largest number of epochs, ties broken by
    smallest node id."""
    if not epochs:
        raise EmptySession("cannot select a reference node from an empty session")
    counts = Counter()
    for epoch in epochs:
        counts.update(epoch.obs.keys())
    top = max(counts.values())
    candidates = [n for n, c in counts.items() if c == top]
    return min(candidates, key=node_sort_key)
