import math
from pathlib import Path

import numpy as np
import pytest

from tdoa_dtb.errors import FitError
from tdoa_dtb.ingestion import load_toa_session
from tdoa_dtb.noise import (NoiseModel, NoisePoint, estimate_noise_points, fit_noise_model,
                            read_noise_model, sigma_for, write_noise_model)
from tdoa_dtb.synthetic import ClockModel, Scenario, generate

from conftest import eight_node_catalog, loop_waypoints, session_of

GOLDEN_TOA = Path(__file__).resolve().parent / "data" / "golden" / "toa.csv"
# the README's sawtooth receiver clock
SAWTOOTH = ClockModel(kind="sawtooth", drift_rate=10.0, reset_period=5.0, reset_magnitude=50.0)


def grid_search_fit(points, k_range=(1.0, 300.0), rsrp0_range=(-160.0, -90.0), n=400):
    """Brute-force least squares oracle over a (k, rsrp0) grid."""
    rsrp = np.array([p.rsrp for p in points])
    sig = np.array([p.sigma_hat for p in points])
    ks = np.linspace(*k_range, n)
    r0s = np.linspace(*rsrp0_range, n)
    r0s = r0s[r0s < rsrp.min() - 1.0]
    # cost[i, j] belongs to (ks[i], r0s[j]); argmin takes the first minimum in
    # row-major order, the tie-break of a k-outer, rsrp0-inner strict-< scan
    cost = np.sum((sig - ks[:, None, None] / (rsrp - r0s[:, None])) ** 2, axis=2)
    i, j = np.unravel_index(np.argmin(cost), cost.shape)
    return ks[i], r0s[j]


def exact_points(k=60.0, rsrp0=-110.0, rsrps=(-95, -90, -85, -80, -75, -70)):
    return [NoisePoint(float(r), k / (r - rsrp0)) for r in rsrps]


def make_epochs(rsrp_by_node, sigma_by_node, n=3000, rate=10.0, seed=0):
    rng = np.random.default_rng(seed)
    epochs = []
    for i in range(n):
        t = i / rate
        obs = {node: (50.0 + rng.normal(0, sigma_by_node[node]), rsrp_by_node[node])
               for node in rsrp_by_node}
        epochs.append((t, obs))
    return epochs


def test_noise_points_single_bin():
    epochs = make_epochs({"1": -80.5, "2": -81.0, "3": -81.0}, {"1": 1.0, "2": 1.0, "3": 1.0},
                         n=200)
    points = estimate_noise_points(session_of(epochs))
    assert len(points) == 1


def test_fewer_than_three_shared_nodes_is_fit_error():
    """Two nodes leave no epoch's median to centre on: a FitError that says
    so, not the fit's later complaint about too few points."""
    epochs = make_epochs({"1": -80.5, "2": -81.0}, {"1": 1.0, "2": 1.0}, n=200)
    with pytest.raises(FitError, match="no three consecutive epochs share 3 nodes"):
        estimate_noise_points(session_of(epochs))


def test_noise_points_no_rsrp():
    epochs = make_epochs({"1": -80.0}, {"1": 1.0}, n=50)
    stripped = [(t, {n: (p, None) for n, (p, _) in obs.items()}) for t, obs in epochs]
    with pytest.raises(FitError, match="no observations carry received-power values"):
        estimate_noise_points(session_of(stripped))


def test_noise_spread_whose_sum_overflows_is_fit_error():
    """Finite pseudoranges whose differences leave the float range are a
    FitError: three nodes alternate +-1.7e308 together, so each second
    difference overflows and no bin's spread is finite."""
    epochs = [(i / 4.0, {node: (1.7e308, -50.0) if i % 2 else (-1.7e308, -60.0)
                         for node in ("1", "2", "3")})
              for i in range(60)]
    with pytest.raises(FitError, match="power bin is not finite"):
        estimate_noise_points(session_of(epochs))


def reference_noise_points(epochs):
    """The numpy form of estimate_noise_points on (time, {node_id: (pseudorange,
    rsrp)}) epochs, kept as its oracle: (bin centre, np.std(ddof=1)) per bin,
    of the values within 5 * 1.4826 MAD of the bin's median where the MAD is
    not 0."""
    bins = {}
    for (t0, before), (t1, now), (t2, after) in zip(epochs, epochs[1:], epochs[2:]):
        nodes = [n for n in now if n in before and n in after]
        if len(nodes) < 3:
            continue
        r = (t2 - t1) / (t1 - t0)
        d = np.array([(after[n][0] - now[n][0]) - r * (now[n][0] - before[n][0]) for n in nodes])
        centred = (d - np.median(d)) / np.sqrt(1.0 + (1.0 + r) ** 2 + r ** 2)
        for n, value in zip(nodes, centred.tolist()):
            if now[n][1] is not None:
                bins.setdefault(math.floor(now[n][1] / 2.0), []).append(value)
    points = []
    for idx in sorted(bins):
        values = np.array(bins[idx])
        deviation = np.abs(values - np.median(values))
        mad = np.median(deviation)
        kept = values[deviation <= 5.0 * 1.4826 * mad] if mad > 0 else values
        points.append(((idx + 0.5) * 2.0, float(np.std(kept, ddof=1))))
    return points


def test_noise_points_match_numpy_reference():
    """Each bin's clipped two-pass sample std against the numpy oracle of the
    same centred second differences, on nodes spread over many bins with
    blank rsrp rows and a 30 m blunder every 23rd epoch, which the clip
    removes."""
    rsrps = {str(i): float(r) for i, r in enumerate(np.linspace(-100.0, -55.0, 12))}
    sigmas = {n: 60.0 / (r + 110.0) for n, r in rsrps.items()}
    epochs = make_epochs(rsrps, sigmas, n=600, seed=4)
    epochs = [(t, {n: (p + (30.0 if i % 23 == 0 and j == i % 12 else 0.0),
                       None if (i + j) % 7 == 0 else r)
                   for j, (n, (p, r)) in enumerate(obs.items())})
              for i, (t, obs) in enumerate(epochs)]
    want = reference_noise_points(epochs)
    points = estimate_noise_points(session_of(epochs))
    assert len(points) == len(want) >= 10
    assert max(p.sigma_hat / (60.0 / (p.rsrp + 110.0)) for p in points) < 1.3
    for p, (center, std) in zip(points, want):
        assert p.rsrp == center
        assert p.sigma_hat == pytest.approx(std, rel=1e-12)


def test_noise_points_track_generating_model():
    """Closed loop: data generated from the model tracks its curve per bin."""
    k, rsrp0 = 60.0, -110.0
    rsrps = {str(i): float(r) for i, r in enumerate(range(-95, -65, 5))}
    sigmas = {n: k / (r - rsrp0) for n, r in rsrps.items()}
    epochs = make_epochs(rsrps, sigmas, n=4000, seed=11)
    points = estimate_noise_points(session_of(epochs))
    assert len(points) >= 5
    for p in points:
        expected = k / (p.rsrp - rsrp0)
        assert abs(p.sigma_hat - expected) < 0.15 * expected


def test_blunders_do_not_inflate_a_bins_spread():
    """20-60 m blunders on 0.5% of the rows, each entering three consecutive
    second differences, leave every bin within 15% of the generating model;
    the plain std of the same bins reads 1.1 to 2.5 times it."""
    k, rsrp0 = 60.0, -110.0
    rsrps = {str(i): float(r) for i, r in enumerate(range(-95, -65, 5))}
    sigmas = {n: k / (r - rsrp0) for n, r in rsrps.items()}
    epochs = make_epochs(rsrps, sigmas, n=4000, seed=12)
    rng = np.random.default_rng(13)
    for t, obs in epochs:
        for n, (p, r) in obs.items():
            if rng.random() < 0.005:
                obs[n] = (p + rng.uniform(20.0, 60.0), r)
    points = estimate_noise_points(session_of(epochs))
    assert len(points) >= 5
    for p in points:
        assert abs(p.sigma_hat / (k / (p.rsrp - rsrp0)) - 1.0) < 0.15, p.rsrp


def test_bin_whose_mad_is_zero_keeps_its_plain_spread():
    """Four static nodes at one power, node 4 jumping by 1 m at three epochs:
    more than half the bin's centred second differences are exactly 0, so its
    MAD is 0 and its spread is the std of all its values, not the 0 that a
    clip at 0 MADs would leave."""
    epochs = [(0.5 * i, {n: (1.0 if n == "4" and i in (10, 20, 30) else 0.0, -80.0)
                         for n in "1234"})
              for i in range(40)]
    jumps = [value / math.sqrt(6.0) for value in (1.0, -2.0, 1.0)] * 3
    values = jumps + [0.0] * (4 * 38 - len(jumps))
    [point] = estimate_noise_points(session_of(epochs))
    assert point.sigma_hat == pytest.approx(float(np.std(values, ddof=1)), rel=1e-12)
    assert point.sigma_hat > 0.1


def test_noise_points_are_immune_to_the_receiver_clock():
    """A seeded 8-node session fitted under no clock and under the README's
    sawtooth gives the same bins and spreads: the clock is common to every
    node of an epoch, so the median takes it out."""
    fits = []
    for clock in (ClockModel(), SAWTOOTH):
        scenario = Scenario(catalog=eight_node_catalog(), waypoints=loop_waypoints(),
                            rover_clock=clock, epoch_rate=10.0,
                            noise=NoiseModel(60.0, -110.0), seed=5)
        fits.append(estimate_noise_points(generate(scenario).toa))
    plain, sawtooth = fits
    assert len(plain) >= 3
    assert [p.rsrp for p in sawtooth] == [p.rsrp for p in plain]
    for a, b in zip(sawtooth, plain):
        assert a.sigma_hat == pytest.approx(b.sigma_hat, rel=1e-12)


def test_golden_fit_tracks_the_generating_model():
    """The golden session's fitted sigma(rsrp) is within 15% of the generating
    k = 60, rsrp0 = -110 over the file's own power range."""
    session = load_toa_session(GOLDEN_TOA)
    model, truth = fit_noise_model(estimate_noise_points(session)), NoiseModel(60.0, -110.0)
    powers = [value for value in session.rsrp if value is not None]
    for rsrp in np.linspace(min(powers), max(powers), 50).tolist():
        assert abs(sigma_for(model, rsrp) / sigma_for(truth, rsrp) - 1.0) <= 0.15, rsrp


def test_noise_free_linear_ranges_on_uneven_epochs_give_zero_spread():
    """Pseudoranges linear in time, with a different rate per node and a
    common sawtooth added, on irregular epoch times: the r weighting of the
    second difference cancels each rate, so every spread is 0 to rounding."""
    rng = np.random.default_rng(21)
    times = np.cumsum(rng.uniform(0.05, 0.5, 400)).tolist()
    clock = SAWTOOTH.bias_at(np.array(times)).tolist()
    nodes = {str(n): (rng.uniform(10.0, 90.0), rng.uniform(-3.0, 3.0), -90.0 + 4.0 * n)
             for n in range(6)}
    epochs = [(t, {n: (a + b * t + c, rsrp) for n, (a, b, rsrp) in nodes.items()})
              for t, c in zip(times, clock)]
    points = estimate_noise_points(session_of(epochs))
    assert len(points) == len(nodes)
    assert max(p.sigma_hat for p in points) < 1e-9


def test_fit_exact_round_trip():
    model = fit_noise_model(exact_points())
    assert model.k == pytest.approx(60.0, abs=1e-6)
    assert model.rsrp0 == pytest.approx(-110.0, abs=1e-6)


def test_fit_then_evaluate_identity():
    points = exact_points()
    model = fit_noise_model(points)
    for p in points:
        assert sigma_for(model, p.rsrp) == pytest.approx(p.sigma_hat, abs=1e-6)


def test_fit_too_few_points():
    with pytest.raises(FitError):
        fit_noise_model(exact_points(rsrps=(-90, -75)))


def test_fit_narrow_span():
    with pytest.raises(FitError):
        fit_noise_model(exact_points(rsrps=(-90, -88, -86, -84)))


@pytest.mark.parametrize("points,message", [
    # 1/sigma near the smallest normal float: the slope is subnormal, k = inf
    # and rsrp0 = -inf, which no NoiseModel accepts
    ([(-90.0, 1e308), (-85.0, 5e307), (-80.0, 2.5e307)], "unusable"),
    # powers near the largest float: the line's sums overflow
    ([(-90.0, 2.0), (1e308, 1.0), (1.6e308, 0.5)], "least-squares line failed")])
def test_fit_beyond_float_range_is_fit_error(points, message):
    with pytest.raises(FitError, match=message):
        fit_noise_model([NoisePoint(*p) for p in points])


def test_fit_noisy_vs_grid_oracle():
    """10% multiplicative noise, 100 seeded trials: the closed-form fit agrees
    with the brute-force grid oracle within 20% / 3 dB on the Monte Carlo
    average (per-trial scatter of the weakly identified asymptote is larger).
    """
    k_true, rsrp0_true = 60.0, -110.0
    rsrps = np.linspace(-95, -70, 12)
    ks, r0s, ks_g, r0s_g = [], [], [], []
    for seed in range(100):
        rng = np.random.default_rng(seed)
        pts = [NoisePoint(float(r),
                          float(k_true / (r - rsrp0_true) * (1 + rng.normal(0, 0.10))))
               for r in rsrps]
        model = fit_noise_model(pts)
        k_g, r0_g = grid_search_fit(pts, n=120)
        ks.append(model.k)
        r0s.append(model.rsrp0)
        ks_g.append(k_g)
        r0s_g.append(r0_g)
    k_mean, k_g_mean = np.mean(ks), np.mean(ks_g)
    r0_mean, r0_g_mean = np.mean(r0s), np.mean(r0s_g)
    assert abs(k_mean - k_g_mean) <= 0.2 * k_g_mean
    assert abs(r0_mean - r0_g_mean) <= 3.0
    # both estimators recover the generating parameters on average
    assert abs(k_mean - k_true) <= 0.2 * k_true
    assert abs(r0_mean - rsrp0_true) <= 3.0


def reference_fit(points):
    """The np.polyfit form of fit_noise_model, kept as the oracle for the
    closed-form line; returns (k, rsrp0) or the FitError message."""
    usable = [p for p in points if p.sigma_hat > 0]
    if len(usable) < 3:
        return "too few"
    rsrp = np.array([p.rsrp for p in usable])
    if rsrp.max() - rsrp.min() < 10.0:
        return "narrow"
    slope, intercept = np.polyfit(rsrp, 1.0 / np.array([p.sigma_hat for p in usable]), 1)
    if slope <= 0:
        return "not decreasing"
    k = float(1.0 / slope)
    rsrp0 = float(-intercept * k)
    if rsrp0 > rsrp.min() - 1.0:
        return "asymptote inside"
    return k, rsrp0


FIT_ERROR_KINDS = {"need at least": "too few", "points span only": "narrow",
                   "noise does not decrease": "not decreasing",
                   "fitted asymptote": "asymptote inside"}


def test_fit_matches_polyfit_reference():
    """Seeded point sets, from 2 to 14 points over 6 to 60 dB with 0 to 60%
    noise, some with zero sigma: the same (k, rsrp0) within 1e-9 relative, or
    the same FitError."""
    rng = np.random.default_rng(5)
    kinds = {}
    for _ in range(600):
        n = int(rng.integers(2, 15))
        lo = rng.uniform(-105.0, -60.0)
        rsrps = np.sort(lo + rng.uniform(0.0, rng.uniform(6.0, 60.0), n))
        k, rsrp0 = rng.uniform(5.0, 200.0), lo - rng.uniform(0.5, 40.0)
        sig = k / (rsrps - rsrp0) * np.abs(1.0 + rng.normal(0.0, rng.uniform(0.0, 0.6), n))
        sig[rng.random(n) < 0.05] = 0.0
        points = [NoisePoint(float(r), float(s)) for r, s in zip(rsrps, sig)]
        want = reference_fit(points)
        try:
            model = fit_noise_model(points)
        except FitError as exc:
            got = next(kind for prefix, kind in FIT_ERROR_KINDS.items()
                       if str(exc).startswith(prefix))
            assert got == want
        else:
            assert (model.k, model.rsrp0) == pytest.approx(want, rel=1e-9)
            got = "fitted"
        kinds[got] = kinds.get(got, 0) + 1
    assert set(kinds) == {"fitted", *FIT_ERROR_KINDS.values()}, kinds


def test_sigma_for_direct_value():
    model = NoiseModel(60.0, -110.0)
    assert sigma_for(model, -80.0) == pytest.approx(2.0, abs=1e-12)


def test_sigma_for_clamps_at_pole():
    model = NoiseModel(60.0, -110.0, sigma_floor=0.3, sigma_cap=15.0)
    assert sigma_for(model, -110.0) == 15.0
    assert sigma_for(model, -150.0) == 15.0


def test_sigma_for_floor():
    # strong power pushes k/(rsrp - rsrp0) below the floor
    model = NoiseModel(60.0, -110.0, sigma_floor=0.3, sigma_cap=15.0)
    assert sigma_for(model, 100.0) == 0.3


def test_sigma_for_missing_rsrp_default():
    model = NoiseModel(60.0, -110.0)
    assert sigma_for(model, None) == 3.0


def test_sigma_non_increasing_in_rsrp():
    model = NoiseModel(60.0, -110.0)
    values = [sigma_for(model, r) for r in np.linspace(-109.9, -20, 500)]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_model_file_round_trip(tmp_path):
    for model in (NoiseModel(61.25, -112.5, 0.4, 12.0),
                  NoiseModel(60.0 / 7.0, -110.1, 0.1 + 0.2, 15.0)):
        path = tmp_path / "noise.csv"
        write_noise_model(model, path)
        assert read_noise_model(path) == model


def test_model_invariants():
    with pytest.raises(ValueError):
        NoiseModel(-1.0, -110.0)
    with pytest.raises(ValueError):
        NoiseModel(60.0, -110.0, sigma_floor=2.0, sigma_cap=1.0)


@pytest.mark.parametrize("k,rsrp0,sigma_floor,sigma_cap", [
    (math.nan, -110.0, 0.3, 15.0), (0.0, -110.0, 0.3, 15.0),
    (60.0, math.nan, 0.3, 15.0), (60.0, -math.inf, 0.3, 15.0), (60.0, math.inf, 0.3, 15.0),
    (60.0, -110.0, math.nan, 15.0), (60.0, -110.0, 0.0, 15.0),
    (60.0, -110.0, 0.3, math.nan), (60.0, -110.0, 0.3, math.inf)])
def test_model_rejects_nan_and_out_of_range(k, rsrp0, sigma_floor, sigma_cap):
    with pytest.raises(ValueError):
        NoiseModel(k, rsrp0, sigma_floor, sigma_cap)
