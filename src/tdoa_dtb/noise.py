"""Range-noise estimation and the received-power measurement noise model.

Detrending a per-node ToA series with a centered moving average strips the
slowly varying geometry and bias content, leaving the fast noise. Binning the
residual spread against received power yields scatter points, and a
reciprocal model sigma(rsrp) = k / (rsrp - rsrp0) is fitted through them.
The fit is closed-form via the linearization 1/sigma = (rsrp - rsrp0) / k,
an ordinary least squares of 1/sigma on rsrp.
"""

from __future__ import annotations

import bisect
import itertools
import math

from .dtb import mean_std
from .errors import FitError, NoRsrp, ParseError, WindowTooSmall
from .ingestion import Session
from .table import Record, read_csv, row_error, write_csv

DEFAULT_WINDOW_S = 2.0
RSRP_BIN_DB = 2.0   # dB, width of a received-power bin
MIN_BIN_SAMPLES = 20
DEFAULT_SIGMA_FLOOR = 0.3   # m
DEFAULT_SIGMA_CAP = 15.0    # m
DEFAULT_SIGMA_NO_RSRP = 3.0  # m, used when an observation carries no power value


class NoiseModel(Record):
    """Reciprocal received-power noise model with clamps around its pole."""

    __slots__ = _fields = ("k", "rsrp0", "sigma_floor", "sigma_cap")

    def __init__(self, k: float, rsrp0: float, sigma_floor: float = DEFAULT_SIGMA_FLOOR,
                 sigma_cap: float = DEFAULT_SIGMA_CAP):
        self.k, self.rsrp0 = k, rsrp0   # m * dB; dBm asymptote, must lie below the data
        self.sigma_floor, self.sigma_cap = sigma_floor, sigma_cap
        # each check written as not (...) so that NaN fails too
        if not self.k > 0:
            raise ValueError(f"noise model scale must be positive, got {self.k}")
        if not math.isfinite(self.rsrp0):
            raise ValueError(f"noise model asymptote must be finite, got {self.rsrp0}")
        if not 0 < self.sigma_floor < self.sigma_cap < math.inf:
            raise ValueError("need 0 < sigma_floor < sigma_cap < inf")
        if not self.sigma_floor * self.sigma_floor > 0:   # else a weight of 1/0
            raise ValueError(f"sigma_floor {self.sigma_floor} squares to 0")
        if not self.sigma_cap * self.sigma_cap < math.inf:   # else weights that sum to 0
            raise ValueError(f"sigma_cap {self.sigma_cap} squares to inf")


class NoisePoint(Record):
    __slots__ = _fields = ("rsrp", "sigma_hat")

    def __init__(self, rsrp: float, sigma_hat: float):
        self.rsrp, self.sigma_hat = rsrp, sigma_hat   # dBm, m
        if self.sigma_hat < 0:
            raise ValueError("negative sigma_hat")


def detrend_toa(times: list[float], values: list[float], window: float = DEFAULT_WINDOW_S
                ) -> list[float]:
    """Residuals of a time-sorted series about its centered moving average (time window)."""
    if len(times) < 2:
        return [0.0] * len(times)
    steps = sorted(t1 - t0 for t0, t1 in zip(times, times[1:]))
    if steps[0] < 0:
        raise ValueError("series must be time-sorted")
    mid = len(steps) // 2
    spacing = steps[mid] if len(steps) % 2 else (steps[mid - 1] + steps[mid]) / 2   # median
    if window <= spacing:
        raise WindowTooSmall(
            f"window {window}s must exceed the median sample spacing {spacing}s"
        )
    # tiny padding keeps boundary samples symmetrically included despite
    # floating-point timestamps
    half = window / 2.0 + 1e-9 * window
    lo = [bisect.bisect_left(times, t - half) for t in times]
    hi = [bisect.bisect_right(times, t + half) for t in times]
    csum = [0.0, *itertools.accumulate(values)]
    return [v - (csum[h] - csum[l]) / (h - l) for v, l, h in zip(values, lo, hi)]


def estimate_noise_points(session: Session, window: float = DEFAULT_WINDOW_S
                          ) -> list[NoisePoint]:
    """Detrend each node's ToA series and bucket residual spread by received power.

    The nodes are taken in the order of their first rows, each series in time
    order, and the rsrp in bins of RSRP_BIN_DB. Bins with fewer than MIN_BIN_SAMPLES
    residuals are dropped. Raises NoRsrp when no observation carries a power
    value, and FitError when a bin's spread is not finite (pseudoranges so
    large that their sums overflow).
    """
    rows_of: dict[int, list[int]] = {}
    for row, n in enumerate(session.node):
        rows_of.setdefault(n, []).append(row)
    times, pseudorange, rsrp = session.row_times(), session.pseudorange, session.rsrp
    bins: dict[int, list[float]] = {}   # power bin -> residuals
    for rows in rows_of.values():
        if len(rows) < 2:
            continue
        residuals = detrend_toa([times[row] for row in rows],
                                [pseudorange[row] for row in rows], window)
        for resid, row in zip(residuals, rows):
            if rsrp[row] is not None:   # finite, so its quotient by RSRP_BIN_DB is too
                bins.setdefault(math.floor(rsrp[row] / RSRP_BIN_DB), []).append(resid)
    if not bins:
        raise NoRsrp("no observations carry received-power values")
    points = []
    for idx in sorted(bins):
        resids = bins[idx]
        if len(resids) < MIN_BIN_SAMPLES:
            continue
        center = (idx + 0.5) * RSRP_BIN_DB
        _, spread = mean_std(resids)
        if not math.isfinite(spread):
            raise FitError(f"noise spread of the {center} dBm power bin is not finite "
                           f"({spread}); pseudoranges too large to detrend")
        points.append(NoisePoint(center, spread))
    return points


def fit_noise_model(points: list[NoisePoint]) -> NoiseModel:
    """Fit (k, rsrp0) by least squares of 1/sigma on rsrp.

    Needs at least 3 points spanning at least 10 dB; the recovered asymptote
    must fall at least 1 dB below the weakest power in the data, otherwise
    the geometry of the points contradicts the model and FitError is raised.
    """
    usable = [p for p in points if p.sigma_hat > 0]
    if len(usable) < 3:
        raise FitError(f"need at least 3 points with positive sigma, got {len(usable)}")
    rsrp, inv = [p.rsrp for p in usable], [1.0 / p.sigma_hat for p in usable]
    lo, hi = min(rsrp), max(rsrp)
    if hi - lo < 10.0:
        raise FitError(f"points span only {hi - lo:.1f} dB, need >= 10")
    try:   # least squares as in Python 3.11's statistics module; 3.10 and 3.12+ round differently
        x_bar, y_bar = math.fsum(rsrp) / len(rsrp), math.fsum(inv) / len(inv)
        sxy = math.fsum((x - x_bar) * (y - y_bar) for x, y in zip(rsrp, inv))
        slope = sxy / math.fsum((x - x_bar) * (x - x_bar) for x in rsrp)
    except (ValueError, OverflowError) as exc:   # its sums left the float range
        raise FitError(f"least-squares line failed: {exc}") from None
    if not slope > 0:
        raise FitError("noise does not decrease with power; reciprocal model invalid")
    k = 1.0 / slope
    rsrp0 = -(y_bar - slope * x_bar) * k
    if not rsrp0 <= lo - 1.0:
        raise FitError(
            f"fitted asymptote {rsrp0:.1f} dBm lies inside the data range "
            f"(min power {lo:.1f} dBm)"
        )
    try:
        return NoiseModel(k, rsrp0)
    except ValueError as exc:
        raise FitError(f"fitted model unusable: {exc}") from None


def sigma_for(model: NoiseModel, rsrp: float | None) -> float:
    """Measurement sigma for one ToA, clamped to [floor, cap], or
    DEFAULT_SIGMA_NO_RSRP without an rsrp; total function."""
    if rsrp is None:
        return DEFAULT_SIGMA_NO_RSRP
    if rsrp <= model.rsrp0:
        return model.sigma_cap
    return min(max(model.k / (rsrp - model.rsrp0), model.sigma_floor), model.sigma_cap)


NOISE_COLUMNS = {"k": float, "rsrp0": float, "sigma_floor": float, "sigma_cap": float}


def write_noise_model(model: NoiseModel, path) -> None:
    write_csv(path, list(NOISE_COLUMNS),
              [(model.k, model.rsrp0, model.sigma_floor, model.sigma_cap)])


def read_noise_model(path) -> NoiseModel:
    def first_row_is_a_model(*columns):   # read_csv's rule
        try:
            if columns[0]:
                NoiseModel(*(column[0] for column in columns))
        except ValueError as exc:
            raise row_error(path, 0, f"bad noise model: {exc}") from None

    rows = list(zip(*read_csv(path, NOISE_COLUMNS, rule=first_row_is_a_model)))
    if len(rows) != 1:
        raise ParseError(path, 2, f"expected exactly one model row, got {len(rows)}")
    return NoiseModel(*rows[0])


def write_noise_points(points: list[NoisePoint], path) -> None:
    """Plot-ready scatter of estimated noise against received power."""
    write_csv(path, ["rsrp_dbm", "sigma_m"], ((p.rsrp, p.sigma_hat) for p in points))
