"""Session loading: ToA observation files and reference trajectories.

ToA files carry ``time,node_id,toa[,rsrp]``: toa in meters (or seconds under
the seconds unit mode), rsrp in dBm. Trajectories carry ``time,x,y[,z]``.
A ToA file is read once, as columns, which group_epochs sorts into the epochs
of a Session; every command then walks row ranges of those columns.
"""

from __future__ import annotations

import bisect
import itertools
import operator
from typing import NamedTuple

from .errors import EmptySession, OutOfRange, ParseError, TdoaDtbError, UnitError
from .geometry import Position, node_sort_key
from .table import read_csv, row_error, write_csv

SPEED_OF_LIGHT = 299792458.0  # m/s

# A converted pseudorange beyond this is taken as a sign that the raw values
# were not actually in seconds (3.3 ms of light travel is ~1000 km).
MAX_PLAUSIBLE_RANGE_M = 1.0e6

DEFAULT_EPOCH_TOL = 1.0e-3  # s

TOA_COLUMNS = {"time": float, "node_id": str, "toa": float}


class Session(NamedTuple):   # every command builds it at import: 8x faster than a dataclass
    """A ToA session as plain columns. node_ids are the distinct ids in
    node_sort_key order, and node holds each row's index into them. Epoch k,
    at times[k], holds rows starts[k] up to starts[k + 1], in node order;
    epoch times increase.
    """

    node_ids: list[str]
    node: list[int]                 # per row
    pseudorange: list[float]        # per row, m
    rsrp: list[float | None]        # per row, dBm
    times: list[float]              # per epoch, s
    starts: list[int]               # per epoch, then the row count

    def node_index(self, node_id: str) -> int:
        """Index of node_id in node_ids; -1, which no row holds, for an unseen node."""
        return self.node_ids.index(node_id) if node_id in self.node_ids else -1

    def row_times(self) -> list[float]:
        """Each row's epoch time."""
        counts = map(operator.sub, self.starts[1:], self.starts)
        return list(itertools.chain.from_iterable(map(itertools.repeat, self.times, counts)))


def group_epochs(times: list[float], node_ids: list[str], pseudoranges: list[float],
                 rsrps: list[float | None], epoch_tol: float = DEFAULT_EPOCH_TOL,
                 source: str = "session") -> Session:
    """The Session of ToA rows given as columns, in any order.

    The rows are sorted by time; a row opens a new epoch when its time
    differs from the current epoch's first row by more than the tolerance, so
    each row lands in exactly one epoch, which takes its first row's time.
    Each epoch's rows are then sorted by node_sort_key. A node seen twice in
    one epoch is a data error naming source and the first such node.
    """
    if not times:
        raise EmptySession(f"{source}: no observations")
    # node_sort_key once per node; ranks from the ids in first-appearance order,
    # so that an id whose key compares with nothing (nan) still sorts one way
    ids = sorted(dict.fromkeys(node_ids), key=node_sort_key)
    rank = dict(zip(ids, range(len(ids))))
    node = list(map(rank.__getitem__, node_ids))
    order = sorted(range(len(node)), key=times.__getitem__)
    times, starts = list(map(times.__getitem__, order)), [0]
    for row, t in enumerate(times):
        if t - times[starts[-1]] > epoch_tol:
            starts.append(row)
    starts.append(len(times))
    for start, end in zip(starts, starts[1:]):
        rows = order[start:end] = sorted(order[start:end], key=node.__getitem__)
        for a, b in zip(rows, rows[1:]):   # a duplicate node is two adjacent rows
            if node[a] == node[b]:
                raise TdoaDtbError(f"{source}: duplicate node {ids[node[a]]!r} in epoch "
                                   f"at t={times[start]}")
    return Session(ids, *(list(map(column.__getitem__, order))
                          for column in (node, pseudoranges, rsrps)),
                   [times[start] for start in starts[:-1]], starts)


class ReferenceTrajectory:
    """Time-ordered ground-truth positions supporting linear interpolation."""

    def __init__(self, samples: list[tuple[float, Position]]):
        if len(samples) < 2:
            raise ValueError("trajectory needs at least 2 samples")
        times = [t for t, _ in samples]
        if any(t1 <= t0 for t0, t1 in zip(times, times[1:])):
            raise ValueError("trajectory times must be strictly increasing")
        self.times = [float(t) for t in times]
        self.xyz = [(float(p.x), float(p.y), float(p.z)) for _, p in samples]

    def covers(self, t: float) -> bool:
        return self.times[0] <= t <= self.times[-1]

    def interpolate(self, t: float) -> Position:
        if not self.covers(t):
            raise OutOfRange(
                f"t={t} outside trajectory span [{self.times[0]}, {self.times[-1]}]"
            )
        i = bisect.bisect_right(self.times, t)
        if i == len(self.times):
            return Position(*self.xyz[-1])
        i0 = max(i - 1, 0)
        t0 = self.times[i0]
        if t == t0:
            return Position(*self.xyz[i0])
        t1 = self.times[i0 + 1]
        w = (t - t0) / (t1 - t0)
        return Position(*((1.0 - w) * a + w * b
                          for a, b in zip(self.xyz[i0], self.xyz[i0 + 1])))


def load_trajectory(path) -> ReferenceTrajectory:
    times, xs, ys, zs = read_csv(path, {"time": float, "x": float, "y": float}, {"z": float})
    if len(times) < 2:
        raise ParseError(path, 1, "trajectory needs at least 2 samples")
    for index in range(1, len(times)):
        if times[index] <= times[index - 1]:
            raise row_error(path, index, "trajectory times must be strictly increasing")
    return ReferenceTrajectory([(t, Position(x, y, 0.0 if z is None else z))
                                for t, x, y, z in zip(times, xs, ys, zs)])


def load_toa_session(path, unit_mode: str = "meters",
                     epoch_tol: float = DEFAULT_EPOCH_TOL) -> Session:
    """Load a ToA file as a Session, converting seconds to meters if asked."""
    if unit_mode not in ("meters", "seconds"):
        raise ValueError(f"unit_mode must be 'meters' or 'seconds', got {unit_mode!r}")
    times, node_ids, toas, rsrps = read_csv(path, TOA_COLUMNS, {"rsrp": float})
    if unit_mode == "seconds":
        toas = [toa * SPEED_OF_LIGHT for toa in toas]
        for index, pseudorange in enumerate(toas):
            if abs(pseudorange) > MAX_PLAUSIBLE_RANGE_M:
                raise UnitError(str(row_error(path, index, f"converted pseudorange "
                                f"{pseudorange:.3e} m exceeds plausible light-travel bounds; "
                                f"raw values are likely meters")))
    return group_epochs(times, node_ids, toas, rsrps, epoch_tol, source=str(path))


def write_toa_csv(session: Session, path) -> None:
    """Write a session back to the canonical ToA format (meters), each row at
    its epoch's time, formatted once per epoch as the CSV writer would (repr)."""
    counts = map(operator.sub, session.starts[1:], session.starts)
    texts = itertools.chain.from_iterable(map(itertools.repeat, map(repr, session.times), counts))
    write_csv(path, list(TOA_COLUMNS) + ["rsrp"],
              zip(texts, map(session.node_ids.__getitem__, session.node),
                  session.pseudorange, session.rsrp))


def write_trajectory_csv(traj: ReferenceTrajectory, path) -> None:
    write_csv(path, ["time", "x", "y", "z"],
              ((t, *xyz) for t, xyz in zip(traj.times, traj.xyz)))
