"""Calibrating transmitter bias differences from a known trajectory.

Each fixed node transmits with its own hardware delay. Differencing two
nodes' ToA measurements removes the receiver clock but leaves the pair's
bias difference behind. With the rover on a surveyed path the geometric
part of each difference is computable, so what remains is a direct sample
of that bias difference. Averaging over a session gives the calibration
table this demo builds and checks against the generator's ground truth.
"""

from tdoa_dtb import NodeCatalog, Position, Scenario, calibrate, generate
from tdoa_dtb.synthetic import truth_dtb

catalog = NodeCatalog({
    "1": Position(0.0, 0.0),
    "2": Position(30.0, 0.0),
    "3": Position(30.0, 30.0),
    "4": Position(0.0, 30.0),
})

scenario = Scenario(
    catalog=catalog,
    node_biases={"1": 2.0, "2": -8.0, "3": 15.0, "4": -1.0},
    waypoints=[(5.0, 5.0), (25.0, 5.0), (25.0, 25.0), (5.0, 25.0), (5.0, 5.0)],
    speed=0.2,
    epoch_rate=2.0,
    noise=1.5,       # constant 1.5 m ToA noise
    seed=42,
)

session = generate(scenario)
print(f"generated {len(session.toa.times)} epochs over "
      f"{session.toa.times[-1]:.0f} s")

# one bias-difference sample per (epoch, non-reference node), averaged per node
table, _ = calibrate(session.toa, session.trajectory, session.catalog, "1")
truth = truth_dtb(scenario, "1")

print(f"\ncalibrated against reference node {table.ref_node_id}:")
print(f"{'node':>6} {'mean [m]':>10} {'std [m]':>9} {'truth [m]':>10} {'err [m]':>9}")
for node_id, entry in table.entries.items():
    t = truth.entries[node_id].mean
    print(f"{node_id:>6} {entry.mean:>10.3f} {entry.std:>9.3f} "
          f"{t:>10.3f} {entry.mean - t:>9.3f}")

# with sigma = 1.5 m per ToA, each difference carries sigma * sqrt(2), and
# the session mean tightens by sqrt(n_samples)
n = next(iter(table.entries.values())).n_samples
print(f"\n{n} samples per node; expected mean accuracy about "
      f"{1.5 * 2 ** 0.5 / n ** 0.5:.3f} m")
