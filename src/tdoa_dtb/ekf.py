"""Extended Kalman Filter over 2D rover position using calibrated TDoA observables.

State is the planar position only: each epoch's pseudo-ranges are differenced
against its first row, which cancels the rover clock exactly, and the node
biases are removed by the DTB corrections, so no bias states are needed. It
is carried as five floats, (x, y, P_xx, P_xy, P_yy), a track row's. The
prediction carries the position over and grows each variance linearly in time.
Each epoch's update is one joint update in information form: the accepted
observations are folded into the 2x2 information H'R^-1 H and the vector
H'R^-1 nu, and the covariance becomes (I + P H'R^-1 H)^-1 P. That inverts only
a 2x2 matrix whose determinant is at least 1, never P itself (a valid prior
may be singular) nor an n-by-n innovation covariance. Innovation gating only
counts rejections; rejected observations are never applied. Each epoch's
state is checked once, where it becomes a track row, by read_track_csv's rule.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .dtb import DtbTable, mean_std
from .errors import TdoaDtbError
from .geometry import NodeCatalog
from .ingestion import Session
from .noise import NoiseModel, sigma_for
from .table import read_csv, row_error, write_csv

MIN_RANGE_M = 1.0e-6   # a range below this has zero partials, its subgradient at the node
PSD_TOL = -1.0e-9
# Process-noise density on each axis, m/sqrt(s): the position variance grows by
# its square times dt per prediction, whatever the epoch raster.
PROCESS_NOISE = 0.5
INNOVATION_GATE = 5.0   # sigmas of the innovation beyond which a difference is rejected


def _min_eig(a: float, b: float, d: float) -> float:
    """Smaller eigenvalue of the symmetric 2x2 matrix ((a, b), (b, d)), in closed form."""
    return 0.5 * (a + d) - math.hypot(0.5 * (a - d), b)


def _check_state(x: float, y: float, a: float, b: float, d: float) -> None:
    """ValueError unless the covariance ((a, b), (b, d)) is finite and PSD within
    PSD_TOL and the position (x, y) is finite, checked in that order."""
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(d)):
        raise ValueError("non-finite filter covariance")
    min_eig = _min_eig(a, b, d)
    if not min_eig >= PSD_TOL:
        raise ValueError(f"covariance not PSD, min eigenvalue {min_eig:.3e}")
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError("non-finite filter position")


class TrackPoint(NamedTuple):
    """One filtered epoch: a row of the track CSV, covariance flattened."""

    time: float
    x: float
    y: float
    cov_xx: float
    cov_xy: float
    cov_yy: float
    n_obs: int
    n_rejected: int


def init_apriori(catalog: NodeCatalog) -> tuple[float, float, float, float, float]:
    """Start at the average node position with the node dispersion as uncertainty.

    Per axis, mean_std of the node coordinates gives the mean and the sample
    std, whose square is floored at 1 m^2 so degenerate layouts still give a
    usable prior. Returns (x, y, P_xx, P_xy, P_yy).
    """
    (x, std_x), (y, std_y) = (mean_std([p.x for _, p in catalog.items()]),
                              mean_std([p.y for _, p in catalog.items()]))
    return x, y, max(std_x * std_x, 1.0), 0.0, max(std_y * std_y, 1.0)


def session_model(session: Session, dtb: DtbTable, catalog: NodeCatalog,
                  noise: NoiseModel) -> tuple[list, list[float]]:
    """What update needs of a session besides the state, built once: per node
    index, (x, y, z^2, DTB mean); per row, sigma(rsrp)^2. Raises UnknownNode
    for the first node, in node order, that the catalog or the DTB table lacks."""
    nodes = []
    for node_id in session.node_ids:
        node = catalog[node_id]
        nodes.append((node.x, node.y, node.z * node.z, dtb.mean(node_id)))
    return nodes, [s * s for s in (sigma_for(noise, value) for value in session.rsrp)]


def update(state: tuple, session: Session, epoch: int, nodes: list, var: list[float]
           ) -> tuple[tuple, list[tuple[int, float]], int]:
    """Joint update with all accepted single differences of an epoch, in information form.

    state is (x, y, P_xx, P_xy, P_yy), as is the state returned; nodes and var
    come from session_model. The epoch is differenced against its first row,
    the first node in node order that it holds, ref: difference
    n is modelled as rho_n - rho_ref + (DTB_n - DTB_ref), 3D ranges from the
    rover at z = 0, with partials h = (x - x_n)/rho_n - (x - x_ref)/rho_ref,
    likewise for y. Every difference carries the reference's noise, so their
    covariance is R = diag(sigma_n^2) + sigma_ref^2 11'. A range below
    MIN_RANGE_M contributes zero partials, the subgradient of a distance at its
    own point. A difference is rejected, never applied, where its innovation
    exceeds INNOVATION_GATE * sqrt(h P h' + R_ii). With none accepted the
    predicted state is returned unchanged. Otherwise, with M = H'R^-1 H and
    g = H'R^-1 nu over the accepted ones, P+ = (I + P M)^-1 P and
    x+ = x + P+ g. Returns (state, [(node index, postfit_m)], n_rejected).
    """
    start, end = session.starts[epoch], session.starts[epoch + 1]
    node, pseudorange = session.node, session.pseudorange
    ref, ref_pseudorange, ref_var = node[start], pseudorange[start], var[start]
    x, y, a, b, d = state
    ref_x, ref_y, ref_zz, ref_mean = nodes[ref]
    dx_m, dy_m = x - ref_x, y - ref_y
    rho_m = math.sqrt(dx_m * dx_m + dy_m * dy_m + ref_zz)
    ux_m, uy_m = (dx_m / rho_m, dy_m / rho_m) if rho_m >= MIN_RANGE_M else (0.0, 0.0)
    applied, rejected = [], 0
    m_xx = m_xy = m_yy = g_x = g_y = 0.0
    w_sum = wh_x = wh_y = w_nu = 0.0   # sums of w, w h and w nu, w = 1 / sigma_n^2
    for row in range(start + 1, end):
        sd = pseudorange[row] - ref_pseudorange
        node_x, node_y, node_zz, mean = nodes[node[row]]
        dx_n, dy_n = x - node_x, y - node_y
        rho_n = math.sqrt(dx_n * dx_n + dy_n * dy_n + node_zz)
        if rho_n >= MIN_RANGE_M:
            hx, hy = dx_n / rho_n - ux_m, dy_n / rho_n - uy_m
        else:
            hx, hy = -ux_m, -uy_m
        r_var = var[row] + ref_var
        innovation = sd - (rho_n - rho_m + (mean - ref_mean))
        s = a * hx * hx + 2.0 * b * hx * hy + d * hy * hy + r_var
        if abs(innovation) > INNOVATION_GATE * math.sqrt(s):
            rejected += 1
            continue
        applied.append((node[row], sd))
        w = 1.0 / var[row]
        w_hx, w_hy = w * hx, w * hy
        m_xx += w_hx * hx
        m_xy += w_hx * hy
        m_yy += w_hy * hy
        g_x += w_hx * innovation
        g_y += w_hy * innovation
        w_sum += w
        wh_x += w_hx
        wh_y += w_hy
        w_nu += w * innovation

    if not applied:   # no usable observation: state stays at the prediction
        return state, [], rejected
    # Sherman-Morrison: R^-1 = W - (W 1)(W 1)' / (1 / sigma_ref^2 + 1'W 1), W = diag(w)
    den = 1.0 / ref_var + w_sum
    m_xx -= wh_x * wh_x / den
    m_xy -= wh_x * wh_y / den
    m_yy -= wh_y * wh_y / den
    g_x -= wh_x * w_nu / den
    g_y -= wh_y * w_nu / den

    # P+ = C^-1 P with C = I + P M; det(C) >= 1 because P and M are both PSD.
    # C^-1 P is symmetric in exact arithmetic: average its two off-diagonal terms.
    c_xx, c_xy = 1.0 + a * m_xx + b * m_xy, a * m_xy + b * m_yy
    c_yx, c_yy = b * m_xx + d * m_xy, 1.0 + b * m_xy + d * m_yy
    det = c_xx * c_yy - c_xy * c_yx
    p_xx = (c_yy * a - c_xy * b) / det
    p_xy = 0.5 * ((c_yy * b - c_xy * d) + (c_xx * b - c_yx * a)) / det
    p_yy = (c_xx * d - c_yx * b) / det
    x += p_xx * g_x + p_xy * g_y
    y += p_xy * g_x + p_yy * g_y
    dx_m, dy_m = x - ref_x, y - ref_y
    rho_m = math.sqrt(dx_m * dx_m + dy_m * dy_m + ref_zz)
    postfits = []
    for n, sd in applied:
        node_x, node_y, node_zz, mean = nodes[n]
        rho_n = math.sqrt((x - node_x) * (x - node_x) + (y - node_y) * (y - node_y) + node_zz)
        postfits.append((n, sd - (rho_n - rho_m + (mean - ref_mean))))
    return (x, y, p_xx, p_xy, p_yy), postfits, rejected


def run_filter(session: Session, dtb: DtbTable, catalog: NodeCatalog, noise: NoiseModel
               ) -> tuple[list[TrackPoint], list[tuple[float, str, float]]]:
    """Filter a session: apriori from the node layout, then per epoch the prediction
    (each variance grows by PROCESS_NOISE^2 dt), the update and the state check.

    Returns the track, one point per epoch, and the (time, node_id, postfit_m)
    residual rows. Each epoch is differenced against its first row; the DTB
    means enter only as differences, so the track does not depend on the
    table's reference node, apart from rounding. A session node missing from
    the catalog or the DTB table raises UnknownNode before the first epoch.
    """
    nodes, var = session_model(session, dtb, catalog, noise)
    track, residuals = [], []
    state, q = init_apriori(catalog), PROCESS_NOISE * PROCESS_NOISE
    for epoch, t in enumerate(session.times):
        if epoch:   # the prediction: x, y and P_xy carried over
            x, y, a, b, d = state
            dt = t - session.times[epoch - 1]
            state = x, y, a + q * dt, b, d + q * dt
        try:
            state, postfits, rejected = update(state, session, epoch, nodes, var)
            _check_state(*state)
        except (ValueError, OverflowError, ZeroDivisionError) as exc:
            # the state check failed, a float overflowed or a divisor rounded
            # to 0: the epoch times or the node layout drove the filter out of
            # float range
            raise TdoaDtbError(f"filter state at t={t}: {exc}") from None
        track.append(TrackPoint(t, *state, len(postfits), rejected))
        residuals.extend((t, session.node_ids[n], value) for n, value in postfits)
    return track, residuals


TRACK_COLUMNS = {"time": float, "x": float, "y": float, "cov_xx": float,
                 "cov_xy": float, "cov_yy": float, "n_obs": int, "n_rejected": int}
RESIDUAL_COLUMNS = {"time": float, "node_id": str, "postfit_m": float}


def write_track_csv(track: list[TrackPoint], path) -> None:
    """x, y and the covariance at nine significant digits; the covariance at repr if
    rounding an entry by 5e-9 of itself could take a row below read_track_csv's rule."""
    cov = "%s" if any(_min_eig(a, b, d) - 5e-9 * (a + d + 2 * abs(b)) < PSD_TOL
                      for _, _, _, a, b, d, _, _ in track) else "%.9g"
    write_csv(path, list(TRACK_COLUMNS), track, ["%s", "%.9g", "%.9g", cov, cov, cov, "%s", "%s"])


def read_track_csv(path) -> list[TrackPoint]:
    """The track of a track CSV; a row whose state fails run_filter's check is a
    ParseError at its line."""
    def state(time, *columns):   # read_csv's rule
        for index, row in enumerate(zip(*columns[:5])):
            try:
                _check_state(*row)
            except ValueError as exc:
                raise row_error(path, index, str(exc)) from None

    return list(map(TrackPoint, *read_csv(path, TRACK_COLUMNS, rule=state)))


def write_residuals_csv(residuals: list[tuple[float, str, float]], path) -> None:
    write_csv(path, list(RESIDUAL_COLUMNS), residuals, ["%s", "%s", "%.9g"])


def read_residuals_csv(path) -> list[tuple[float, str, float]]:
    return list(zip(*read_csv(path, RESIDUAL_COLUMNS)))
