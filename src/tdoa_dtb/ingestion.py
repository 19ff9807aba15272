"""Session loading: ToA observation files, node catalogs, reference trajectories.

ToA files carry ``time,node_id,toa[,rsrp]``: toa in meters (or seconds under
the seconds unit mode), rsrp in dBm. Trajectories carry ``time,x,y[,z]``.
A ToA file is read once, as columns, and its epochs are built straight from
them: one sort of the rows, with node_sort_key taken once per distinct node.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from .errors import (EmptySession, OutOfRange, ParseError, TdoaDtbError, UnitError,
                     UnknownNode)
from .geometry import NodeCatalog, Position, node_sort_key
from .table import read_csv, row_error, write_csv

SPEED_OF_LIGHT = 299792458.0  # m/s

# A converted pseudorange beyond this is taken as a sign that the raw values
# were not actually in seconds (3.3 ms of light travel is ~1000 km).
MAX_PLAUSIBLE_RANGE_M = 1.0e6

DEFAULT_EPOCH_TOL = 1.0e-3  # s

TOA_COLUMNS = {"time": float, "node_id": str, "toa": float}


@dataclass(frozen=True)
class Epoch:
    """All observations sharing one measurement timestamp.

    obs maps node_id to (pseudorange in meters, rsrp in dBm or None), in
    node_sort_key order; form_tdoa relies on that order.
    """

    time: float
    obs: dict[str, tuple[float, float | None]]


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

    @property
    def t_start(self) -> float:
        return self.times[0]

    @property
    def t_end(self) -> float:
        return self.times[-1]

    def samples(self) -> list[tuple[float, Position]]:
        return [(t, Position(*row)) for t, row in zip(self.times, self.xyz)]

    def covers(self, t: float) -> bool:
        return self.t_start <= t <= self.t_end

    def interpolate(self, t: float) -> Position:
        if not self.covers(t):
            raise OutOfRange(
                f"t={t} outside trajectory span [{self.t_start}, {self.t_end}]"
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


def load_toa_epochs(path, unit_mode: str = "meters",
                    epoch_tol: float = DEFAULT_EPOCH_TOL) -> list[Epoch]:
    """Load a ToA file as epochs, converting seconds to meters if asked.

    The rows are sorted by (time, node_sort_key); a row opens a new epoch when
    its time differs from the current epoch's first row by more than the
    tolerance, so each row lands in exactly one epoch. Each epoch's obs is in
    node_sort_key order. A node seen twice in one epoch is a data error.
    """
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
    if not times:
        raise EmptySession(f"{path}: no observations")
    # one sort of the rows by (time, node rank, row index), node_sort_key once per node
    rank = {n: r for r, n in enumerate(sorted(dict.fromkeys(node_ids), key=node_sort_key))}
    times, _, _, node_ids, values = zip(*sorted(zip(
        times, map(rank.__getitem__, node_ids), range(len(times)), node_ids, zip(toas, rsrps))))
    epochs, start = [], 0
    for end in range(1, len(times) + 1):
        if end < len(times) and not times[end] - times[start] > epoch_tol:
            continue
        members = node_ids[start:end]
        obs = dict(zip(members, values[start:end]))
        if len(obs) < len(members):
            node_id = next(n for i, n in enumerate(members) if n in members[:i])
            raise TdoaDtbError(f"{path}: duplicate node {node_id!r} in epoch at t={times[start]}")
        if times[start] != times[end - 1]:   # rows within the tolerance came in time order
            obs = {node_id: obs[node_id] for node_id in sorted(obs, key=rank.__getitem__)}
        epochs.append(Epoch(times[start], obs))
        start = end
    return epochs


def load_session(toa_file, node_file, trajectory_file, unit_mode: str = "meters",
                 epoch_tol: float = DEFAULT_EPOCH_TOL):
    """Load a full measurement session.

    Returns (epochs, catalog, trajectory). Every observed node must appear in
    the catalog; epochs outside the trajectory span are retained (calibration
    skips them, positioning does not need the trajectory).
    """
    catalog = NodeCatalog.from_csv(node_file)
    epochs = load_toa_epochs(toa_file, unit_mode, epoch_tol)
    for epoch in epochs:
        for node_id in epoch.obs:
            if node_id not in catalog:
                raise UnknownNode(f"{toa_file}: observation at t={epoch.time} references "
                                  f"unknown node {node_id!r}")
    traj = load_trajectory(trajectory_file)
    return epochs, catalog, traj


def write_toa_csv(epochs: list[Epoch], path) -> None:
    """Write epochs back to the canonical ToA format (meters), each row at its epoch's time."""
    write_csv(path, list(TOA_COLUMNS) + ["rsrp"],
              ((epoch.time, node_id, pseudorange, rsrp)
               for epoch in epochs for node_id, (pseudorange, rsrp) in epoch.obs.items()))


def write_trajectory_csv(traj: ReferenceTrajectory, path) -> None:
    write_csv(path, ["time", "x", "y", "z"],
              ((t, p.x, p.y, p.z) for t, p in traj.samples()))
