"""Receiver clock errors cancel exactly in single differences.

The rover's clock offset enters every node's ToA at a given epoch with the
same sign and size, so subtracting a reference node's ToA removes it term by
term. This demo drives the rover clock with an aggressive sawtooth (fast
drift plus large periodic resets) and shows the calibration table is
unchanged from a run with a perfect clock. With pseudo-ranges quantized to a
timestamp-like grid and grid-aligned clock values the match is bit-exact.
"""

from tdoa_dtb import ClockModel, NodeCatalog, Position, Scenario, calibrate, generate

catalog = NodeCatalog({
    "1": Position(0.0, 0.0),
    "2": Position(20.0, 0.0),
    "3": Position(20.0, 20.0),
    "4": Position(0.0, 20.0),
})


def calibrate_with(clock):
    scenario = Scenario(
        catalog=catalog,
        node_biases={"1": 2.0, "2": 5.0, "4": -3.0},
        rover_clock=clock,
        waypoints=[(5.0, 5.0), (15.0, 5.0), (15.0, 15.0), (5.0, 15.0)],
        speed=1.0,
        epoch_rate=2.0,
        noise=1.0,
        seed=13,
        quantize=2.0 ** -20,   # integer-valued clock stays on this grid
    )
    session = generate(scenario)
    table, _ = calibrate(session.toa, session.trajectory, session.catalog, "1")
    return session, table


sawtooth = ClockModel(kind="sawtooth", drift_rate=16.0, reset_period=4.0,
                      reset_magnitude=64.0)
session_clean, table_clean = calibrate_with(ClockModel())
session_saw, table_saw = calibrate_with(sawtooth)

spread = max(abs(saw - clean)
             for saw, clean in zip(session_saw.toa.pseudorange, session_clean.toa.pseudorange))
print(f"raw pseudo-ranges differ by up to {spread:.0f} m between runs")

print("\ncalibration under each clock:")
print(f"{'node':>6} {'perfect clock':>14} {'sawtooth':>10}")
for node_id in table_clean.entries:
    print(f"{node_id:>6} {table_clean.entries[node_id].mean:>14.6f} "
          f"{table_saw.entries[node_id].mean:>10.6f}")

print(f"\ntables bit-identical: {table_clean == table_saw}")
