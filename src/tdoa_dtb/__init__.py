"""DTB calibration and TDoA Kalman positioning for wireless ToA sessions."""

__version__ = "0.1.0"

from .geometry import NodeCatalog, Position, range_between, read_nodes, write_nodes
from .ingestion import ReferenceTrajectory, Session, group_epochs
from .differencing import form_tdoa, reference_rows, select_reference
from .dtb import (DtbEntry, DtbTable, aggregate_dtb, calibrate, read_dtb, rereference_dtb,
                  write_dtb)
from .noise import (NoiseModel, NoisePoint, detrend_toa, estimate_noise_points,
                    fit_noise_model, sigma_for)
from .ekf import EkfState, TrackPoint, init_apriori, predict, run_filter, update
from .metrics import session_metrics, sigma_formal, sigma_postfits, true_error

__all__ = [
    "NodeCatalog", "Position", "range_between", "read_nodes", "write_nodes",
    "ReferenceTrajectory", "Session", "group_epochs",
    "form_tdoa", "reference_rows", "select_reference",
    "DtbEntry", "DtbTable", "aggregate_dtb", "calibrate", "read_dtb",
    "rereference_dtb", "write_dtb",
    "NoiseModel", "NoisePoint", "detrend_toa", "estimate_noise_points",
    "fit_noise_model", "sigma_for",
    "EkfState", "TrackPoint", "init_apriori", "predict", "run_filter", "update",
    "session_metrics", "sigma_formal", "sigma_postfits", "true_error",
    "ClockModel", "PathLossModel", "Scenario", "generate", "load_scenario",
]

# The simulator's names are served on first use (PEP 562), so importing the
# package or the CLI does not load the simulator's array and YAML libraries.
_SYNTHETIC = frozenset({"ClockModel", "PathLossModel", "Scenario", "generate", "load_scenario"})


def __getattr__(name):
    if name in _SYNTHETIC:
        from . import synthetic
        return getattr(synthetic, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
