"""DTB calibration and TDoA Kalman positioning for wireless ToA sessions."""

import importlib

__version__ = "0.1.0"

# Every name is imported from its module on first use (PEP 562), so importing
# the package loads no module, and the CLI does not load the simulator's array
# and YAML libraries.
_EXPORTS = {
    "geometry": ("NodeCatalog", "Position", "range_between", "read_nodes", "write_nodes"),
    "ingestion": ("ReferenceTrajectory", "Session", "group_epochs"),
    "differencing": ("form_tdoa", "reference_rows", "select_reference"),
    "dtb": ("DtbEntry", "DtbTable", "aggregate_dtb", "calibrate", "read_dtb",
            "rereference_dtb", "write_dtb"),
    "noise": ("NoiseModel", "NoisePoint", "estimate_noise_points", "fit_noise_model",
              "sigma_for"),
    "ekf": ("TrackPoint", "init_apriori", "run_filter", "update"),
    "metrics": ("session_metrics", "sigma_formal", "sigma_postfits", "true_error"),
    "synthetic": ("ClockModel", "PathLossModel", "Scenario", "generate", "load_scenario"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
