"""Recovering the range-noise model from raw ToA data.

ToA scatter grows as received power drops. Each node's second difference in
time over three consecutive epochs cancels its bias and its slowly varying
range; centring it on the epoch's median across nodes cancels the receiver
clock, which every node shares. Binning what is left by received power gives
empirical sigma points, and a reciprocal curve sigma(rsrp) = k / (rsrp - rsrp0)
is fitted through them. The demo generates data with a known model and fits it
twice: with no receiver clock, and under the README's sawtooth clock, which
gives the same fit.

With only 4 nodes the fit is flatter than the truth (k about 106 against 60):
the median of so few nodes carries the other nodes' noise into the strong
nodes' values. More nodes close the gap: with the square's edge midpoints
added, 8 nodes fit k = 64-76 over seeds 1-5 and 9.
"""

import dataclasses

from tdoa_dtb import (ClockModel, NodeCatalog, NoiseModel, Position, Scenario,
                      estimate_noise_points, fit_noise_model, generate,
                      sigma_for)

true_model = NoiseModel(k=60.0, rsrp0=-110.0)

catalog = NodeCatalog({
    "1": Position(0.0, 0.0),
    "2": Position(120.0, 0.0),
    "3": Position(120.0, 120.0),
    "4": Position(0.0, 120.0),
})

# a wide area spreads the node ranges, so received power covers enough
# dynamic range for the fit
scenario = Scenario(
    catalog=catalog,
    waypoints=[(10.0, 10.0), (110.0, 10.0), (110.0, 110.0), (10.0, 110.0),
               (10.0, 10.0)],
    speed=0.5,
    epoch_rate=5.0,
    noise=true_model,
    seed=9,
)
session = generate(scenario)

points = estimate_noise_points(session.toa)
print(f"{len(points)} scatter points from {len(session.toa.times)} epochs:")
for p in points:
    print(f"  rsrp {p.rsrp:7.1f} dBm   sigma {p.sigma_hat:5.2f} m")

# the same session under the README's sawtooth receiver clock
sawtooth = ClockModel(kind="sawtooth", drift_rate=10.0, reset_period=5.0,
                      reset_magnitude=50.0)
saw_session = generate(dataclasses.replace(scenario, rover_clock=sawtooth))
fits = {"no clock": fit_noise_model(points),
        "sawtooth clock": fit_noise_model(estimate_noise_points(saw_session.toa))}
print()
for label, fitted in fits.items():
    print(f"fitted ({label:14s})  k = {fitted.k:6.1f}  rsrp0 = {fitted.rsrp0:7.1f}")
print(f"truth {'':17s} k = {true_model.k:6.1f}  rsrp0 = {true_model.rsrp0:7.1f}")

fitted = fits["no clock"]
print("\npredicted sigma at selected powers:")
for rsrp in (-70.0, -85.0, -100.0):
    print(f"  {rsrp:6.1f} dBm: fitted {sigma_for(fitted, rsrp):5.2f} m, "
          f"true {sigma_for(true_model, rsrp):5.2f} m")
