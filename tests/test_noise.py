import itertools
import math
import statistics

import numpy as np
import pytest

from tdoa_dtb.errors import FitError, NoRsrp, WindowTooSmall
from tdoa_dtb.noise import (NoiseModel, NoisePoint, detrend_toa,
                            estimate_noise_points, fit_noise_model,
                            read_noise_model, sigma_for, write_noise_model)

from conftest import session_of


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


def detrend(series, window):
    """detrend_toa on a series of (time, value) pairs, as (time, residual) pairs."""
    times = [t for t, _ in series]
    return list(zip(times, detrend_toa(times, [v for _, v in series], window)))


def test_detrend_constant_series():
    series = [(float(t), 42.0) for t in np.arange(0, 20, 0.1)]
    for _, resid in detrend(series, window=2.0):
        assert resid == pytest.approx(0.0, abs=1e-9)


def test_detrend_linear_ramp_interior():
    series = [(float(t), 3.0 * t) for t in np.arange(0, 20, 0.1)]
    out = detrend(series, window=2.0)
    for t, resid in out:
        if 1.5 < t < 18.5:   # away from the edges
            assert abs(resid) < 1e-6


def test_detrend_recovers_noise_std():
    rng = np.random.default_rng(42)
    times = np.arange(0, 300, 0.1)
    noise = rng.normal(0.0, 1.0, times.size)
    series = list(zip(times.tolist(), (5.0 + 0.3 * times + noise).tolist()))
    residuals = np.array(detrend_toa(times.tolist(), [v for _, v in series], window=2.0))
    assert 0.9 < residuals.std(ddof=1) < 1.1


def reference_detrend(series, window):
    """The numpy form of detrend_toa, kept as the oracle for the stdlib one."""
    if len(series) < 2:
        return [(t, 0.0) for t, _ in series]
    times = np.asarray([t for t, _ in series], dtype=float)
    values = np.asarray([v for _, v in series], dtype=float)
    if np.any(np.diff(times) < 0):
        raise ValueError("series must be time-sorted")
    spacing = float(np.median(np.diff(times)))
    if window <= spacing:
        raise WindowTooSmall(
            f"window {window}s must exceed the median sample spacing {spacing}s"
        )
    half = window / 2.0 + 1e-9 * window
    lo = np.searchsorted(times, times - half, side="left")
    hi = np.searchsorted(times, times + half, side="right")
    csum = np.concatenate([[0.0], np.cumsum(values)])
    trend = (csum[hi] - csum[lo]) / (hi - lo)
    return list(zip(times.tolist(), (values - trend).tolist()))


def detrend_outcome(fn, series, window):
    try:
        return fn(series, window)
    except (ValueError, WindowTooSmall) as exc:
        return type(exc), str(exc)


def seeded_series(rng, n):
    """Irregular times with gaps, samples exactly a half window apart and
    values with a clock-like ramp, resets and noise."""
    steps = rng.choice([0.1, 1.0], size=n - 1, p=[0.6, 0.4]) * rng.uniform(0.5, 1.5, n - 1)
    steps[rng.random(n - 1) < 0.4] = 0.1      # on a 0.1 s raster a 2 s window's edges hit samples
    steps[rng.random(n - 1) < 0.03] = rng.uniform(5.0, 60.0)   # gaps
    steps[rng.random(n - 1) < 0.02] = 0.0     # repeated timestamps
    times = 1000.0 * rng.random() + np.concatenate([[0.0], np.cumsum(steps)])
    values = (80.0 + 10.0 * times - 50.0 * np.floor(times / 5.0)
              + rng.normal(0.0, 10.0 ** rng.uniform(-2, 1), n))
    return list(zip(times.tolist(), values.tolist()))


def test_detrend_matches_numpy_reference():
    rng = np.random.default_rng(77)
    half = 2.0 / 2.0 + 1e-9 * 2.0   # detrend_toa's padded half window for a 2 s window
    edges = list(itertools.accumulate([0.0] + [half] * 7 + [0.5] * 6))
    cases = [[(3.0, 1.5), (3.1, -2.0)], [(0.0, 1.0)], [],
             [(t, float(i % 3)) for i, t in enumerate(edges)]]
    cases += [seeded_series(rng, int(n)) for n in rng.integers(2, 400, 200)]
    compared = 0
    for series in cases:
        for window in (0.1, 0.25, 2.0, 7.5):
            got = detrend_outcome(detrend, series, window)
            want = detrend_outcome(reference_detrend, series, window)
            if isinstance(want, tuple):   # the same error, with the same message
                assert got == want
                continue
            assert [t for t, _ in got] == [t for t, _ in want]
            assert max((abs(a - b) for (_, a), (_, b) in zip(got, want)), default=0.0) <= 1e-12
            compared += 1
    assert compared > 300


def test_detrend_errors_match_numpy_reference():
    unsorted = [(0.0, 1.0), (0.2, 2.0), (0.1, 3.0), (0.3, 4.0)]
    sparse = [(float(t), 0.0) for t in range(10)]
    for series, window, error in ((unsorted, 2.0, ValueError), (sparse, 0.5, WindowTooSmall),
                                  (sparse, 1.0, WindowTooSmall)):
        with pytest.raises(error) as got:
            detrend(series, window)
        with pytest.raises(error) as want:
            reference_detrend(series, window)
        assert str(got.value) == str(want.value)


def test_detrend_window_bound_is_the_median_spacing():
    """A window of exactly the median sample spacing, as statistics.median
    gives it for odd and even step counts, is too small, and the next float
    above it is not."""
    rng = np.random.default_rng(8)
    for n in (2, 3, 4, 5, 30, 31):
        times = np.cumsum(rng.uniform(0.05, 0.5, n)).tolist()
        spacing = statistics.median(b - a for a, b in zip(times, times[1:]))
        with pytest.raises(WindowTooSmall, match=f"spacing {spacing}s"):
            detrend_toa(times, [0.0] * n, window=spacing)
        detrend_toa(times, [0.0] * n, window=math.nextafter(spacing, math.inf))


def test_detrend_window_too_small():
    series = [(float(t), 0.0) for t in range(10)]
    with pytest.raises(WindowTooSmall):
        detrend(series, window=0.5)


def test_detrend_idempotent():
    # dense sampling so the window average of pure noise is well below the
    # noise itself; idempotence holds up to edge effects
    rng = np.random.default_rng(3)
    times = np.arange(0, 40, 2e-4)
    series = list(zip(times.tolist(),
                      (0.3 * times + rng.normal(0, 1.0, times.size)).tolist()))
    once = detrend(series, window=4.0)
    twice = detrend(once, window=4.0)
    interior = np.array([4.0 < t < 36.0 for t, _ in once])
    r1 = np.array([r for _, r in once])[interior]
    r2 = np.array([r for _, r in twice])[interior]
    rms = math.sqrt(np.mean(r1 ** 2))
    assert math.sqrt(np.mean((r1 - r2) ** 2)) < 0.01 * rms


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
    epochs = make_epochs({"1": -80.5, "2": -81.0}, {"1": 1.0, "2": 1.0}, n=200)
    points = estimate_noise_points(session_of(epochs), window=2.0)
    assert len(points) == 1


def test_noise_points_no_rsrp():
    epochs = make_epochs({"1": -80.0}, {"1": 1.0}, n=50)
    stripped = [(t, {n: (p, None) for n, (p, _) in obs.items()}) for t, obs in epochs]
    with pytest.raises(NoRsrp):
        estimate_noise_points(session_of(stripped))


def test_noise_spread_whose_sum_overflows_is_fit_error():
    """A power bin whose residuals are finite but sum past the float range is
    a FitError: +-1.7e308 alternate, each sign in its own bin, so one bin holds
    thirty residuals of 8/9 * 1.7e308."""
    epochs = [(i / 4.0, {"1": (1.7e308, -50.0) if i % 2 else (-1.7e308, -60.0)})
              for i in range(60)]
    with pytest.raises(FitError, match="power bin is not finite"):
        estimate_noise_points(session_of(epochs), window=2.0)


def test_noise_points_match_numpy_std():
    """Each bin's two-pass sample std against np.std(ddof=1) of the same
    residuals, on nodes spread over many bins with blank rsrp rows."""
    rsrps = {str(i): float(r) for i, r in enumerate(np.linspace(-100.0, -55.0, 12))}
    sigmas = {n: 60.0 / (r + 110.0) for n, r in rsrps.items()}
    epochs = make_epochs(rsrps, sigmas, n=600, seed=4)
    epochs = [(t, {n: (p, None if (i + j) % 7 == 0 else r)
                   for j, (n, (p, r)) in enumerate(obs.items())})
              for i, (t, obs) in enumerate(epochs)]
    bins = {}
    for node in rsrps:
        rows = [(t, *obs[node]) for t, obs in epochs if node in obs]
        for (_, resid), (_, _, rsrp) in zip(reference_detrend([(t, v) for t, v, _ in rows], 2.0),
                                            rows):
            if rsrp is not None:
                bins.setdefault(math.floor(rsrp / 2.0), []).append(resid)
    want = [((idx + 0.5) * 2.0, float(np.std(bins[idx], ddof=1))) for idx in sorted(bins)]
    points = estimate_noise_points(session_of(epochs), window=2.0)
    assert len(points) == len(want) >= 10
    for p, (center, std) in zip(points, want):
        assert p.rsrp == center
        assert p.sigma_hat == pytest.approx(std, rel=1e-12)


def test_noise_points_track_generating_model():
    """Closed loop: data generated from the model tracks its curve per bin."""
    k, rsrp0 = 60.0, -110.0
    rsrps = {str(i): float(r) for i, r in enumerate(range(-95, -65, 5))}
    sigmas = {n: k / (r - rsrp0) for n, r in rsrps.items()}
    epochs = make_epochs(rsrps, sigmas, n=4000, seed=11)
    points = estimate_noise_points(session_of(epochs), window=2.0)
    assert len(points) >= 5
    for p in points:
        expected = k / (p.rsrp - rsrp0)
        assert abs(p.sigma_hat - expected) < 0.15 * expected


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
