"""Positioning with calibrated bias differences, and what happens without.

Runs the same measurement stream through the Kalman filter twice: once with
the true bias-difference table and once with an all-zero table. Uncorrected
biases of tens of meters act as per-node range offsets, so the uncalibrated
track is pulled far off the path while the calibrated one stays within a
meter of it.
"""

from tdoa_dtb import (DtbEntry, DtbTable, NodeCatalog, NoiseModel, Position,
                      Scenario, generate, run_filter, session_metrics)
from tdoa_dtb.synthetic import truth_dtb

catalog = NodeCatalog({
    "1": Position(0.0, 0.0),
    "2": Position(30.0, 0.0),
    "3": Position(30.0, 30.0),
    "4": Position(0.0, 30.0),
    "5": Position(15.0, -5.0),
    "6": Position(15.0, 35.0),
})

scenario = Scenario(
    catalog=catalog,
    node_biases={"1": -25.0, "2": 18.0, "3": -10.0, "4": 25.0,
                 "5": 5.0, "6": -20.0},
    waypoints=[(5.0, 5.0), (25.0, 5.0), (25.0, 25.0), (5.0, 25.0), (5.0, 5.0)],
    speed=0.4,
    epoch_rate=2.0,
    noise=1.5,
    seed=3,
)
session = generate(scenario)

# the generator adds a flat 1.5 m, so feed the filter a model that is
# effectively constant at that level
noise = NoiseModel(1.0, -200.0, sigma_floor=1.4, sigma_cap=1.6)

truth = truth_dtb(scenario, "1")
zeros = DtbTable("1", {n: DtbEntry(0.0, 0.0, 1) for n in truth.entries})

for label, table in (("calibrated", truth), ("uncalibrated", zeros)):
    track, residuals = run_filter(session.toa, table, session.catalog, noise)
    m = session_metrics(track, session.trajectory, [v for _, _, v in residuals])
    print(f"{label}:")
    print(f"  true error   mean {m['true_error_mean_m']:6.2f} m, "
          f"rms {m['true_error_rms_m']:6.2f} m")
    print(f"  sigma_formal      {m['sigma_formal_m']:6.2f} m   "
          f"sigma_postfits {m['sigma_postfits_m']:6.2f} m")
