"""Session loading: ToA observation files, node catalogs, reference trajectories.

ToA files carry ``time,node_id,toa[,rsrp]``: toa in meters (or seconds under
the seconds unit mode), rsrp in dBm. Trajectories carry ``time,x,y[,z]``.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from .errors import (EmptySession, OutOfRange, ParseError, TdoaDtbError, UnitError,
                     UnknownNode)
from .geometry import NodeCatalog, Position, node_sort_key
from .table import read_csv, write_csv

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
    (time, node_sort_key) row order.
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
    rows = read_csv(path, {"time": float, "x": float, "y": float}, {"z": float})
    if len(rows) < 2:
        raise ParseError(path, 1, "trajectory needs at least 2 samples")
    for (_, (t0, *_)), (line, (t1, *_)) in zip(rows, rows[1:]):
        if t1 <= t0:
            raise ParseError(path, line, "trajectory times must be strictly increasing")
    return ReferenceTrajectory([(t, Position(x, y, 0.0 if z is None else z))
                                for _, (t, x, y, z) in rows])


def load_toa_rows(path, unit_mode: str = "meters"
                  ) -> list[tuple[float, str, float, float | None]]:
    """Parse a ToA file into (time, node_id, pseudorange_m, rsrp) rows,
    converting seconds to meters if asked."""
    if unit_mode not in ("meters", "seconds"):
        raise ValueError(f"unit_mode must be 'meters' or 'seconds', got {unit_mode!r}")
    rows = read_csv(path, TOA_COLUMNS, {"rsrp": float})
    if unit_mode == "meters":
        return [values for _, values in rows]
    for line, (_, _, toa, _) in rows:
        if abs(toa) * SPEED_OF_LIGHT > MAX_PLAUSIBLE_RANGE_M:
            raise UnitError(
                f"{path}:{line}: converted pseudorange {toa * SPEED_OF_LIGHT:.3e} m "
                f"exceeds plausible light-travel bounds; raw values are likely meters"
            )
    return [(t, node_id, toa * SPEED_OF_LIGHT, rsrp) for _, (t, node_id, toa, rsrp) in rows]


def group_epochs(rows, epoch_tol: float = DEFAULT_EPOCH_TOL) -> list[Epoch]:
    """Partition (time, node_id, pseudorange, rsrp) rows into epochs of equal
    timestamp within a tolerance.

    Each row lands in exactly one epoch; a row opens a new epoch when its time
    differs from the current epoch's first row by more than the tolerance. A
    node seen twice in one epoch is a ValueError.
    """
    epochs: list[Epoch] = []
    obs: dict = {}
    for t, node_id, pseudorange, rsrp in sorted(rows, key=lambda r: (r[0], node_sort_key(r[1]))):
        if not epochs or t - epochs[-1].time > epoch_tol:
            obs = {}
            epochs.append(Epoch(t, obs))
        elif node_id in obs:
            raise ValueError(f"duplicate node {node_id!r} in epoch at t={epochs[-1].time}")
        obs[node_id] = (pseudorange, rsrp)
    return epochs


def load_toa_epochs(path, unit_mode: str = "meters",
                    epoch_tol: float = DEFAULT_EPOCH_TOL) -> list[Epoch]:
    """Load and epoch-group a ToA file without requiring a catalog."""
    rows = load_toa_rows(path, unit_mode)
    try:
        epochs = group_epochs(rows, epoch_tol)
    except ValueError as exc:
        raise TdoaDtbError(f"{path}: {exc}") from None
    if not epochs:
        raise EmptySession(f"{path}: no observations")
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
