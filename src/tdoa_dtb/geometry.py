"""Node catalogs and Euclidean ranges in a local Cartesian frame.

Coordinates are local-frame meters. The z coordinate is accepted everywhere
and participates in range computation, but the positioning state itself is
two dimensional.
"""

from __future__ import annotations

import math

from .errors import ParseError, UnknownNode
from .table import Record, read_csv, row_error, write_csv


class Position(Record):
    """A point in local Cartesian meters. z defaults to 0 for 2D use."""

    __slots__ = _fields = ("x", "y", "z")

    def __init__(self, x: float, y: float, z: float = 0.0):
        self.x, self.y, self.z = x, y, z
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.z)):
            raise ValueError(f"non-finite coordinate in {self!r}")


def node_sort_key(node_id: str):
    """Node order, total: ids that float() reads as a number other than NaN by
    value, then all other ids; the id's text breaks every tie ("-0" < "0")."""
    try:
        value = float(node_id)
    except ValueError:
        value = math.nan
    return (1, 0.0, node_id) if math.isnan(value) else (0, value, node_id)


class NodeCatalog:
    """Immutable map of node id to position.

    Requires at least two nodes, unique ids and distinct positions.
    """

    def __init__(self, positions: dict[str, Position]):
        if len(positions) < 2:
            raise ValueError(f"catalog needs at least 2 nodes, got {len(positions)}")
        seen = {}
        for node_id, pos in positions.items():
            key = (pos.x, pos.y, pos.z)
            if key in seen:
                raise ValueError(f"nodes {seen[key]!r} and {node_id!r} share position {key}")
            seen[key] = node_id
        self._positions = dict(positions)

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._positions

    def __getitem__(self, node_id: str) -> Position:
        try:
            return self._positions[node_id]
        except KeyError:
            raise UnknownNode(f"node {node_id!r} not in catalog") from None

    def ids(self) -> list[str]:
        return sorted(self._positions, key=node_sort_key)

    def items(self):
        return [(i, self._positions[i]) for i in self.ids()]


def read_nodes(path) -> NodeCatalog:
    """Load a catalog from a CSV with header node_id,x,y[,z]."""
    positions: dict[str, Position] = {}
    owners: dict[Position, str] = {}

    def add(*columns):   # read_csv's rule, which builds the catalog's positions
        for index, (node_id, x, y, z) in enumerate(zip(*columns)):
            pos = Position(x, y, 0.0 if z is None else z)
            if node_id in positions:
                raise row_error(path, index, f"duplicate node id {node_id!r}")
            if pos in owners:
                raise row_error(path, index, f"node {node_id!r} shares the position "
                                             f"of node {owners[pos]!r}")
            positions[node_id] = pos
            owners[pos] = node_id

    read_csv(path, {"node_id": str, "x": float, "y": float}, {"z": float}, rule=add)
    if len(positions) < 2:
        raise ParseError(path, 1, f"catalog needs at least 2 nodes, got {len(positions)}")
    return NodeCatalog(positions)


def write_nodes(catalog: NodeCatalog, path) -> None:
    write_csv(path, ["node_id", "x", "y", "z"],
              ((node_id, p.x, p.y, p.z) for node_id, p in catalog.items()))


def range_between(a: Position, b: Position) -> float:
    """Geometric Euclidean distance between two positions, in meters."""
    dx, dy, dz = a.x - b.x, a.y - b.y, a.z - b.z
    return math.sqrt(dx * dx + dy * dy + dz * dz)
