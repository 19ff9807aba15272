import math

import pytest

from tdoa_dtb.dtb import DtbTable
from tdoa_dtb.ekf import MIN_RANGE_M
from tdoa_dtb.geometry import NodeCatalog, Position, range_between
from tdoa_dtb.ingestion import group_epochs
from tdoa_dtb.synthetic import ClockModel, Scenario


def square_catalog(side=20.0):
    return NodeCatalog({
        "1": Position(0.0, 0.0),
        "2": Position(side, 0.0),
        "3": Position(side, side),
        "4": Position(0.0, side),
    })


def eight_node_catalog(side=30.0):
    half = side / 2.0
    return NodeCatalog({
        "1": Position(0.0, 0.0),
        "2": Position(half, 0.0),
        "3": Position(side, 0.0),
        "4": Position(side, half),
        "5": Position(side, side),
        "6": Position(half, side),
        "7": Position(0.0, side),
        "8": Position(0.0, half),
    })


def loop_waypoints(side=30.0, inset=5.0):
    a, b = inset, side - inset
    return [(a, a), (b, a), (b, b), (a, b), (a, a)]


@pytest.fixture
def basic_scenario():
    """Small noiseless scenario with known biases, used across modules."""
    return Scenario(
        catalog=square_catalog(),
        node_biases={"1": 2.0, "2": 5.0, "3": 0.0, "4": -3.0},
        rover_clock=ClockModel(),
        waypoints=[(5.0, 5.0), (15.0, 5.0), (15.0, 15.0), (5.0, 15.0)],
        speed=1.0,
        epoch_rate=2.0,
        noise=0.0,
        seed=7,
    )


def session_of(epochs, epoch_tol=0.0):
    """The Session of (time, {node_id: (pseudorange, rsrp)}) epochs, grouped
    as a ToA file's rows are."""
    rows = [(t, node_id, p, r) for t, obs in epochs for node_id, (p, r) in obs.items()]
    return group_epochs(*map(list, zip(*rows)), epoch_tol=epoch_tol)


def epochs_of(session):
    """(time, {node_id: (pseudorange, rsrp)}) per epoch of a Session, in row order."""
    ids, node = session.node_ids, session.node
    return [(t, {ids[node[row]]: (session.pseudorange[row], session.rsrp[row])
                 for row in range(start, end)})
            for t, start, end in zip(session.times, session.starts, session.starts[1:])]


def sd_range(rover: Position, node: Position, ref_node: Position) -> float:
    """Single-differenced range: range to node minus range to the reference node.

    May be negative; bounded in magnitude by the node-to-reference distance.
    """
    return range_between(rover, node) - range_between(rover, ref_node)


def measurement_model(x: float, y: float, node_id: str, dtb: DtbTable,
                      catalog: NodeCatalog) -> tuple[float, tuple[float, float]]:
    """Predicted single difference of node_id and its position partials at the rover (x, y).

    predicted = (range to node) - (range to reference) + DTB(node)
    d(predicted)/dx = (x_r - x_n)/rho_n - (x_r - x_m)/rho_m, likewise for y,
    where a range below MIN_RANGE_M contributes 0 instead. Ranges are 3D: the
    rover sits at z = 0, a node at its catalog z. The reference is the DTB
    table's reference node.
    """
    node = catalog[node_id]
    ref = catalog[dtb.ref_node_id]
    dx_n, dy_n = x - node.x, y - node.y
    dx_m, dy_m = x - ref.x, y - ref.y
    rho_n = math.sqrt(dx_n * dx_n + dy_n * dy_n + node.z * node.z)
    rho_m = math.sqrt(dx_m * dx_m + dy_m * dy_m + ref.z * ref.z)
    u_n = (dx_n / rho_n, dy_n / rho_n) if rho_n >= MIN_RANGE_M else (0.0, 0.0)
    u_m = (dx_m / rho_m, dy_m / rho_m) if rho_m >= MIN_RANGE_M else (0.0, 0.0)
    predicted = rho_n - rho_m + dtb.mean(node_id)
    return predicted, (u_n[0] - u_m[0], u_n[1] - u_m[1])
