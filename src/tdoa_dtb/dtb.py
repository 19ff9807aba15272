"""Differential Transmitter Bias calibration, aggregation and serialization.

An instantaneous DTB sample is what is left of a TDoA observable after the
known single-differenced geometry (from the reference trajectory) is removed.
Individual node biases are not observable on their own; only differences
against the session's reference node are, so every table is tied to one
reference node and one session label.
"""

from __future__ import annotations

import math

from .differencing import form_tdoa, reference_rows
from .errors import ParseError, TdoaDtbError, UnknownNode
from .geometry import NodeCatalog, node_sort_key, range_between
from .ingestion import ReferenceTrajectory, Session
from .table import Record, read_csv, row_error, write_csv


class DtbEntry(Record):
    """A node's DTB: mean and sample std (n-1 divisor, 0 for n == 1) in meters."""

    __slots__ = _fields = ("mean", "std", "n_samples")

    def __init__(self, mean: float, std: float, n_samples: int):
        self.mean, self.std, self.n_samples = mean, std, n_samples
        if self.n_samples < 1:
            raise ValueError("DTB entry with no samples")
        if self.std < 0:
            raise ValueError("negative DTB std")


class DtbTable(Record):
    """Per-node differential bias statistics against a fixed reference node."""

    __slots__ = _fields = ("ref_node_id", "entries", "session")

    def __init__(self, ref_node_id: str, entries: dict[str, DtbEntry], session: str = ""):
        if ref_node_id in entries:
            raise ValueError("reference node cannot carry its own DTB entry")
        self.ref_node_id = ref_node_id
        self.entries = dict(entries)
        self.session = session

    def mean(self, node_id: str) -> float:
        """Mean DTB of a node against the table's reference (0 for the reference)."""
        if node_id == self.ref_node_id:
            return 0.0
        try:
            return self.entries[node_id].mean
        except KeyError:
            raise UnknownNode(f"node {node_id!r} not in DTB table") from None


def mean_std(values: list[float]) -> tuple[float, float]:
    """Mean and sample std (n-1 divisor) from correctly rounded sums; nan, nan past float range."""
    n = len(values)
    try:
        mean = math.fsum(values) / n
        var = math.fsum((v - mean) * (v - mean) for v in values) / (n - 1) if n > 1 else 0.0
    except (OverflowError, ValueError):   # fsum's errors for a sum past float range, inf - inf
        return math.nan, math.nan
    return mean, math.sqrt(var)


def _entry(node_id: str, mean: float, std: float, n_samples: int) -> DtbEntry:
    """The DtbEntry of node_id; a mean or std out of float range is a data error."""
    if not (math.isfinite(mean) and math.isfinite(std)):
        raise TdoaDtbError(f"non-finite DTB mean {mean} or std {std} of node {node_id!r}")
    return DtbEntry(mean, std, n_samples)


def aggregate_dtb(samples: list[tuple[float, str, float]], ref: str, session: str = "",
                  trim_sigma: float | None = None) -> DtbTable:
    """Reduce (time, node_id, value) samples against ref to per-node mean / sample std / count.

    trim_sigma, when given, discards samples farther than trim_sigma times
    the per-node std from the per-node mean (single pass) before the final
    statistics; off by default.
    """
    if not samples:
        raise ValueError("no DTB samples to aggregate")
    per_node: dict[str, list[float]] = {}
    for _, node_id, value in samples:
        per_node.setdefault(node_id, []).append(value)
    entries = {}
    for node_id, values in per_node.items():
        if trim_sigma is not None and len(values) > 1:
            mean, std = mean_std(values)
            if std > 0:
                kept = [v for v in values if abs(v - mean) <= trim_sigma * std]
                if kept:
                    values = kept
        entries[node_id] = _entry(node_id, *mean_std(values), len(values))
    return DtbTable(ref, entries, session)


def rereference_dtb(table: DtbTable, new_ref: str) -> DtbTable:
    """Express a DTB table against a different reference node.

    Pairwise differences compose: the bias of n against k is the bias of n
    against m minus the bias of k against m. Stds combine assuming
    independence; the old reference inherits the pivot's sample count.
    """
    if new_ref == table.ref_node_id:
        return table
    if new_ref not in table.entries:
        raise UnknownNode(f"new reference {new_ref!r} not in DTB table")
    pivot = table.entries[new_ref]
    entries = {}
    for node_id, entry in table.entries.items():
        if node_id == new_ref:
            continue
        entries[node_id] = _entry(node_id, entry.mean - pivot.mean,
                                  math.sqrt(entry.std * entry.std + pivot.std * pivot.std),
                                  min(entry.n_samples, pivot.n_samples))
    entries[table.ref_node_id] = DtbEntry(
        mean=-pivot.mean, std=pivot.std, n_samples=pivot.n_samples,
    )
    return DtbTable(new_ref, entries, table.session)


def calibrate(session: Session, traj: ReferenceTrajectory, catalog: NodeCatalog,
              ref: str, trim_sigma: float | None = None, label: str = ""
              ) -> tuple[DtbTable, list[tuple[float, str, float]]]:
    """DTB table of a session recorded along a surveyed trajectory, labelled
    label, with its (time, node_id, dtb_m) samples.

    Drop policy: epochs outside the trajectory span, and epochs without the
    reference node, give no samples, which keeps the whole table tied to one
    reference. Raises UnknownNode when a session node is not in the catalog,
    and TdoaDtbError when no sample is left.
    """
    ids, node, ref_index = session.node_ids, session.node, session.node_index(ref)
    positions = [catalog[node_id] for node_id in ids]   # by node index
    samples = []
    for epoch, (t, ref_row) in enumerate(zip(session.times, reference_rows(session, ref_index))):
        if ref_row < 0 or (rover := traj.interpolate(t)) is None:
            continue
        rows, diffs = form_tdoa(session, epoch, ref_row)
        ref_range = range_between(rover, positions[ref_index])
        for row, sd in zip(rows, diffs):
            n = node[row]
            value = sd - (range_between(rover, positions[n]) - ref_range)
            if not math.isfinite(value):
                raise TdoaDtbError(f"non-finite DTB sample {value} of node {ids[n]!r} at t={t}")
            samples.append((t, ids[n], value))
    if not samples:
        raise TdoaDtbError(f"reference node {ref!r} never observed within the trajectory span")
    return aggregate_dtb(samples, ref, session=label, trim_sigma=trim_sigma), samples


DTB_COLUMNS = {"session": str, "ref_node": str, "node_id": str,
               "mean_m": float, "std_m": float, "n_samples": int}


def write_dtb(table: DtbTable, path) -> None:
    rows = []
    for node_id in sorted(table.entries, key=node_sort_key):
        e = table.entries[node_id]
        rows.append((table.session, table.ref_node_id, node_id, e.mean, e.std, e.n_samples))
    write_csv(path, list(DTB_COLUMNS), rows)


def read_dtb(path) -> DtbTable:
    entries: dict[str, DtbEntry] = {}

    def add(sessions, refs, *columns):   # read_csv's rule, which builds the entries
        for index, (row_session, row_ref, node_id, mean, std, n_samples) in enumerate(
                zip(sessions, refs, *columns)):
            if (row_session, row_ref) != (sessions[0], refs[0]):
                raise row_error(path, index, "mixed reference node or session in one file")
            if node_id in entries or node_id == row_ref:
                raise row_error(path, index, f"duplicate or reference node row {node_id!r}")
            try:
                entries[node_id] = DtbEntry(mean, std, n_samples)
            except ValueError as exc:
                raise row_error(path, index, f"bad DTB row: {exc}") from None

    sessions, refs, *_ = read_csv(path, DTB_COLUMNS, rule=add)
    if not sessions:
        raise ParseError(path, 1, "empty DTB file")
    return DtbTable(refs[0], entries, sessions[0])
