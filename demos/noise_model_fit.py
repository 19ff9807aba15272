"""Recovering the range-noise model from raw ToA data.

ToA scatter grows as received power drops. Detrending each node's series
with a short moving average isolates the fast noise, binning the residuals
by received power gives empirical sigma points, and a reciprocal curve
sigma(rsrp) = k / (rsrp - rsrp0) is fitted through them. The demo generates
data with a known model and shows the fit landing close to it.
"""

from tdoa_dtb import (NodeCatalog, NoiseModel, Position, Scenario,
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

points = estimate_noise_points(session.toa, window=2.0)
print(f"{len(points)} scatter points from {len(session.toa.times)} epochs:")
for p in points:
    print(f"  rsrp {p.rsrp:7.1f} dBm   sigma {p.sigma_hat:5.2f} m")

fitted = fit_noise_model(points)
print(f"\nfitted  k = {fitted.k:6.1f}  rsrp0 = {fitted.rsrp0:7.1f}")
print(f"truth   k = {true_model.k:6.1f}  rsrp0 = {true_model.rsrp0:7.1f}")

print("\npredicted sigma at selected powers:")
for rsrp in (-70.0, -85.0, -100.0):
    print(f"  {rsrp:6.1f} dBm: fitted {sigma_for(fitted, rsrp):5.2f} m, "
          f"true {sigma_for(true_model, rsrp):5.2f} m")
