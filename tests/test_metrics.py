import math

import pytest

from tdoa_dtb.ekf import TrackPoint
from tdoa_dtb.errors import TdoaDtbError
from tdoa_dtb.geometry import Position
from tdoa_dtb.ingestion import ReferenceTrajectory
from tdoa_dtb.metrics import (session_metrics, sigma_formal, sigma_postfits,
                              true_error)


def track_point(t, x, y, cov_xx=0.0, cov_yy=0.0):
    return TrackPoint(t, x, y, cov_xx, 0.0, cov_yy, 3, 0)


def straight_traj():
    return ReferenceTrajectory([(0.0, Position(0, 0)), (10.0, Position(10, 0))])


def test_true_error_identical_track():
    track = [track_point(float(t), float(t), 0.0) for t in range(11)]
    assert true_error(track, straight_traj()) == (0.0, 0.0)


def test_true_error_constant_offset():
    track = [track_point(float(t), float(t), 1.0) for t in range(11)]
    mean, rms = true_error(track, straight_traj())
    assert mean == pytest.approx(1.0, abs=1e-12)
    assert rms == pytest.approx(1.0, abs=1e-12)


def test_true_error_hand_computed():
    # per-epoch 2D errors {1, 1, 1, 3}
    offsets = [1.0, 1.0, 1.0, 3.0]
    track = [track_point(float(t), float(t), dy) for t, dy in enumerate(offsets)]
    mean, rms = true_error(track, straight_traj())
    assert mean == pytest.approx(1.5, abs=1e-12)
    assert rms == pytest.approx(math.sqrt(3.0), abs=1e-12)


def test_true_error_skips_uncovered_epochs():
    track = [track_point(5.0, 5.0, 2.0), track_point(99.0, 0.0, 0.0)]
    mean, _ = true_error(track, straight_traj())
    assert mean == pytest.approx(2.0, abs=1e-12)


def test_true_error_no_overlap():
    track = [track_point(99.0, 0.0, 0.0)]
    with pytest.raises(TdoaDtbError,
                       match="track and reference trajectory have no common time span"):
        true_error(track, straight_traj())


def test_sigma_formal_direct():
    track = [track_point(float(t), 0.0, 0.0, 0.25, 0.24) for t in range(5)]
    assert sigma_formal(track) == pytest.approx(0.7, abs=1e-12)


def test_sigma_formal_zero_cov():
    assert sigma_formal([track_point(0.0, 0.0, 0.0)]) == 0.0


def test_sigma_formal_single_epoch():
    assert sigma_formal([track_point(0.0, 0.0, 0.0, 1.0, 3.0)]) == 2.0


def test_sigma_formal_empty():
    with pytest.raises(ValueError, match="no epochs in track"):
        sigma_formal([])


def test_sigma_postfits_hand_computed():
    assert sigma_postfits([1.0, -1.0, 1.0, -1.0]) == pytest.approx(
        math.sqrt(2.0), abs=1e-12)


def test_sigma_postfits_zero_residuals():
    assert sigma_postfits([0.0] * 10) == 0.0


def test_sigma_postfits_dof_guard():
    with pytest.raises(TdoaDtbError, match="2 residuals with 2 parameters"):
        sigma_postfits([1.0, 2.0])


def test_sigma_postfits_scale_covariant():
    residuals = [0.3, -1.2, 0.8, 2.0, -0.4]
    base = sigma_postfits(residuals)
    for c in (-3.0, 0.5, 7.0):
        scaled = sigma_postfits([c * r for r in residuals])
        assert scaled == pytest.approx(abs(c) * base, rel=1e-12)


def test_session_metrics_json_keys():
    track = [track_point(float(t), float(t), 1.0, 0.25, 0.24) for t in range(5)]
    d = session_metrics(track, straight_traj(), [1.0, -1.0, 1.0, -1.0])
    assert set(d) == {"true_error_mean_m", "true_error_rms_m", "sigma_formal_m",
                      "sigma_postfits_m", "n_epochs"}
    assert d["n_epochs"] == 5


def test_sigma_formal_reads_a_trace_within_psd_tolerance_below_zero_as_zero():
    assert sigma_formal([track_point(0.0, 0.0, 0.0, -1e-10, -1e-10)]) == 0.0
