"""Single-difference (TDoA) formation from ToA epochs.

Differencing every pseudo-range against a common reference node removes the
rover clock term exactly; what remains is differenced geometry plus the
differential transmitter bias and noise.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import EmptySession, ReferenceMissing
from .geometry import node_sort_key
from .ingestion import Epoch


@dataclass(frozen=True)
class TdoaObservation:
    """Single-differenced observable of one node against the reference node."""

    node_id: str
    sd_pseudorange: float       # meters
    rsrp_node: float | None = None
    rsrp_ref: float | None = None


def form_tdoa(epoch: Epoch, ref_node_id: str) -> list[TdoaObservation]:
    """Difference every non-reference observation against the reference node.

    Raises ReferenceMissing when the epoch has no observation for the
    reference; callers decide whether to drop the epoch or re-reference.
    """
    obs = epoch.obs
    if ref_node_id not in obs:
        raise ReferenceMissing(
            f"epoch t={epoch.time} has no observation for reference node {ref_node_id!r}"
        )
    ref_pseudorange, ref_rsrp = obs[ref_node_id]
    out = []
    for node_id in sorted(obs, key=node_sort_key):
        if node_id != ref_node_id:
            pseudorange, rsrp = obs[node_id]
            out.append(TdoaObservation(node_id, pseudorange - ref_pseudorange, rsrp, ref_rsrp))
    return out


def select_reference(epochs: list[Epoch], policy: str = "most_visible") -> str:
    """Pick the reference node for a session.

    policy "most_visible" (alias "auto"): the node present in the largest
    number of epochs, ties broken by smallest node id. Any other policy value
    is taken as a fixed node id and returned as-is.
    """
    if not epochs:
        raise EmptySession("cannot select a reference node from an empty session")
    if policy not in ("most_visible", "auto"):
        return policy
    counts = Counter()
    for epoch in epochs:
        counts.update(epoch.obs.keys())
    # highest count wins; ties broken by smallest node id
    top = max(counts.values())
    candidates = [n for n, c in counts.items() if c == top]
    return min(candidates, key=node_sort_key)
