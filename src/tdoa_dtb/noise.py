"""Range-noise estimation and the received-power measurement noise model.

A node's second difference in time over three consecutive epochs cancels its
bias and its slowly varying range; centring it on the epoch's median across
nodes cancels the receiver clock, which every node shares. Binning what is
left against received power yields scatter points, and a reciprocal model
sigma(rsrp) = k / (rsrp - rsrp0) is fitted through them. The fit is
closed-form via the linearization 1/sigma = (rsrp - rsrp0) / k, an ordinary
least squares of 1/sigma on rsrp.
"""

from __future__ import annotations

import bisect
import math

from .dtb import mean_std
from .errors import FitError, ParseError
from .ingestion import Session
from .table import Record, read_csv, row_error, write_csv

RSRP_BIN_DB = 2.0   # dB, width of a received-power bin
MIN_BIN_SAMPLES = 20
CLIP_MADS = 5.0   # a bin's spread keeps its values within this many 1.4826 MADs of its median
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


def _median(ordered: list[float]) -> float:
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def estimate_noise_points(session: Session) -> list[NoisePoint]:
    """Bucket the spread of each node's clock-free second difference by received power.

    For consecutive epochs t0 < t1 < t2, each node seen in all three gives
    d = (p2 - p1) - r (p1 - p0) with r = (t2 - t1) / (t1 - t0), which a bias
    and a range linear in time leave at 0. Each d less the median d of those
    nodes, which removes the receiver clock, is divided by
    sqrt(1 + (1 + r)^2 + r^2), the std of d per unit ToA noise, and goes to
    the RSRP_BIN_DB bin of the node's rsrp at t1. An epoch with fewer than 3
    such nodes gives nothing. Bins with fewer than MIN_BIN_SAMPLES values are
    dropped. A bin's spread is the sample std of its values within CLIP_MADS
    scaled MADs (1.4826 MAD) of its median, so blunders cannot inflate it; a
    bin whose MAD is 0 keeps the std of all its values. Raises FitError when
    no observation carries a power value, when no three consecutive epochs
    share 3 nodes, or when a bin's std is not finite (pseudoranges so large
    that their differences overflow).
    """
    pseudorange, rsrp, times = session.pseudorange, session.rsrp, session.times
    if all(value is None for value in rsrp):
        raise FitError("no observations carry received-power values")
    row_of = [dict(zip(session.node[start:end], range(start, end)))   # node -> row, per epoch
              for start, end in zip(session.starts, session.starts[1:])]
    bins: dict[int, list[float]] = {}   # power bin -> centred second differences
    shared = False
    for k in range(1, len(times) - 1):
        before, after = row_of[k - 1], row_of[k + 1]
        r = (times[k + 1] - times[k]) / (times[k] - times[k - 1])
        diffs = [(row, pseudorange[after[n]] - pseudorange[row]
                  - r * (pseudorange[row] - pseudorange[before[n]]))
                 for n, row in row_of[k].items() if n in before and n in after]
        if len(diffs) < 3:
            continue
        shared, centre = True, _median(sorted([d for _, d in diffs]))
        scale = math.sqrt(1.0 + (1.0 + r) * (1.0 + r) + r * r)
        for row, d in diffs:
            if rsrp[row] is not None:   # finite, so its quotient by RSRP_BIN_DB is too
                bins.setdefault(math.floor(rsrp[row] / RSRP_BIN_DB), []).append(
                    (d - centre) / scale)
    if not shared:
        raise FitError("no three consecutive epochs share 3 nodes; the noise fit needs them")
    points = []
    for idx in sorted(bins):
        resids = bins[idx]
        if len(resids) < MIN_BIN_SAMPLES:
            continue
        center = (idx + 0.5) * RSRP_BIN_DB
        _, spread = mean_std(resids)
        if not math.isfinite(spread):
            raise FitError(f"noise spread of the {center} dBm power bin is not finite "
                           f"({spread}); pseudoranges too large to difference")
        resids.sort()
        median = _median(resids)
        reach = CLIP_MADS * 1.4826 * _median(sorted([abs(v - median) for v in resids]))
        kept = resids[bisect.bisect_left(resids, median - reach):
                      bisect.bisect_right(resids, median + reach)]
        if reach and len(kept) < len(resids):   # a MAD of 0 would keep the median's values alone
            _, spread = mean_std(kept)
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
