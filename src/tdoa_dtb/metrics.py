"""Session performance metrics: true error, formal sigma, postfit sigma.

Three complementary error measures for one filtered session:

* true error: planar distance between each estimate and the interpolated
  reference position (both mean and RMS are reported, since either convention
  is common);
* formal sigma: average over epochs of the root trace of the state covariance
  (typically optimistic);
* postfit sigma: root of the residual sum of squares divided by the degrees
  of freedom, an upper-boundary style estimate.
"""

from __future__ import annotations

import math

from .ekf import TrackPoint
from .errors import TdoaDtbError
from .ingestion import ReferenceTrajectory

N_PARAM_2D = 2  # estimated parameters: the two position components


def _fsum(terms) -> float:
    """Correctly rounded sum of non-negative terms; inf where it leaves the float range."""
    try:
        return math.fsum(terms)
    except OverflowError:   # finite terms whose sum is past the float range
        return math.inf


def true_error(track: list[TrackPoint], traj: ReferenceTrajectory) -> tuple[float, float]:
    """Mean and RMS planar distance to the interpolated reference trajectory."""
    errors = []
    for p in track:
        ref = traj.interpolate(p.time)
        if ref is None:
            continue
        errors.append(math.hypot(p.x - ref.x, p.y - ref.y))
    if not errors:
        raise TdoaDtbError("track and reference trajectory have no common time span")
    mean = _fsum(errors) / len(errors)
    rms = math.sqrt(_fsum(e * e for e in errors) / len(errors))
    return mean, rms


def sigma_formal(track: list[TrackPoint]) -> float:
    """Mean over epochs of the root trace of the position covariance."""
    if not track:
        raise ValueError("no epochs in track")
    # a trace within PSD tolerance below 0 is 0
    return _fsum(math.sqrt(max(p.cov_xx + p.cov_yy, 0.0)) for p in track) / len(track)


def sigma_postfits(residuals: list[float]) -> float:
    """Degrees-of-freedom-corrected RMS of the postfit residuals."""
    n = len(residuals)
    if n <= N_PARAM_2D:
        raise TdoaDtbError(f"{n} residuals with {N_PARAM_2D} parameters")
    return math.sqrt(_fsum(e * e for e in residuals) / (n - N_PARAM_2D))


def session_metrics(track: list[TrackPoint], traj: ReferenceTrajectory,
                    residuals: list[float]) -> dict:
    """The metrics JSON record of one filtered session. A metric that is not
    finite, because the track or residuals hold values near float range, is a
    data error."""
    mean, rms = true_error(track, traj)
    metrics = {
        "true_error_mean_m": mean,
        "true_error_rms_m": rms,
        "sigma_formal_m": sigma_formal(track),
        "sigma_postfits_m": sigma_postfits(residuals),
        "n_epochs": len(track),
    }
    for name, value in metrics.items():
        if not math.isfinite(value):
            raise TdoaDtbError(f"metric {name} is {value}: the inputs are out of float range")
    return metrics
