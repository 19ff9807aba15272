"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s or -v to see them).

The statistical criteria run on a fixed 8-node synthetic scenario: biases
spanning [-25, +25] m, constant 1.5 m ToA noise, 1000 epochs at 2 Hz along a
square loop inside the node perimeter.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from tdoa_dtb.cli import main as cli_main
from tdoa_dtb.dtb import DtbEntry, DtbTable, rereference_dtb
from tdoa_dtb.dtb import calibrate as calibrate_dtb
from tdoa_dtb.ekf import run_filter
from tdoa_dtb.geometry import NodeCatalog, Position
from tdoa_dtb.metrics import sigma_formal, sigma_postfits, true_error
from tdoa_dtb.noise import NoiseModel, NoisePoint, fit_noise_model
from tdoa_dtb.synthetic import ClockModel, Scenario, generate, truth_dtb

from conftest import eight_node_catalog, loop_waypoints, measurement_model

TOA_SIGMA = 1.5
BIASES = {"1": -25.0, "2": 18.0, "3": -10.0, "4": 25.0,
          "5": 5.0, "6": -20.0, "7": 12.0, "8": -3.0}
# filter noise model matching the constant generative sigma
FLAT_NOISE = NoiseModel(1.0, -200.0, sigma_floor=1.4, sigma_cap=1.6)

IPIN_DATA_DIR = os.environ.get("IPIN_DATA_DIR", "")


def report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {criterion}" + (f" ({detail})" if detail else ""))
    assert ok, f"{criterion}: {detail}"


def acceptance_scenario(seed=101, biases=BIASES, duration=499.5, speed=0.16,
                        **kwargs):
    defaults = dict(
        catalog=eight_node_catalog(30.0),
        node_biases=biases,
        waypoints=loop_waypoints(30.0),
        speed=speed,
        epoch_rate=2.0,
        noise=TOA_SIGMA,
        seed=seed,
        duration=duration,
    )
    defaults.update(kwargs)
    return Scenario(**defaults)


def calibrate(session, ref="1"):
    table, _ = calibrate_dtb(session.toa, session.trajectory, session.catalog, ref)
    return table


@pytest.fixture(scope="module")
def calibrated_run():
    """Shared generate -> calibrate -> position run, timed."""
    t0 = time.perf_counter()
    session = generate(acceptance_scenario())
    table = calibrate(session)
    calib_seconds = time.perf_counter() - t0
    t0 = time.perf_counter()
    track, residuals = run_filter(session.toa, table, session.catalog, FLAT_NOISE)
    filter_seconds = time.perf_counter() - t0
    return dict(session=session, table=table, track=track, residuals=residuals,
                calib_seconds=calib_seconds, filter_seconds=filter_seconds)


def test_criterion_1_dtb_oracle_recovery(calibrated_run):
    session = calibrated_run["session"]
    table = calibrated_run["table"]
    truth = truth_dtb(session.scenario, "1")
    assert len(session.toa.times) == 1000
    mean_errs = [abs(table.entries[n].mean - truth.entries[n].mean)
                 for n in table.entries]
    stds = [table.entries[n].std for n in table.entries]
    lo, hi = TOA_SIGMA * math.sqrt(2.0) * 0.8, TOA_SIGMA * math.sqrt(2.0) * 1.2
    ok = (max(mean_errs) < 0.3
          and all(lo <= s <= hi for s in stds)
          and calibrated_run["calib_seconds"] < 5.0)
    report("1 DTB oracle recovery", ok,
           f"max mean err {max(mean_errs):.3f} m, stds "
           f"[{min(stds):.2f}, {max(stds):.2f}] m, "
           f"{calibrated_run['calib_seconds']:.2f} s")


def test_criterion_2_dtb_stability_magnitude(calibrated_run):
    # meter-level ToA noise must put the DTB stds in the ~2 m regime
    stds = [e.std for e in calibrated_run["table"].entries.values()]
    ok = all(1.3 <= s <= 2.7 for s in stds)
    report("2 DTB stability magnitude", ok,
           f"stds span [{min(stds):.2f}, {max(stds):.2f}] m")


def test_criterion_3_positioning_with_dtb(calibrated_run):
    session = calibrated_run["session"]
    track = calibrated_run["track"]
    mean_err, _ = true_error(track, session.trajectory)
    report("3 positioning with DTB", mean_err <= 2.0,
           f"true_error_mean {mean_err:.3f} m")


def test_criterion_3_optional_real_session():
    if not IPIN_DATA_DIR or not os.path.isdir(IPIN_DATA_DIR):
        print("[SKIP] 3b real D5 session (set IPIN_DATA_DIR to enable)")
        pytest.skip("public session data not locally available")
    pytest.fail("real-session harness not wired for this data layout")


def test_criterion_4_divergence_without_dtb(calibrated_run):
    session = calibrated_run["session"]
    t0 = time.perf_counter()
    zeros = DtbTable("1", {n: DtbEntry(0.0, 0.0, 1)
                           for n in calibrated_run["table"].entries})
    uncal, _ = run_filter(session.toa, zeros, session.catalog, FLAT_NOISE)
    elapsed = time.perf_counter() - t0
    cal_err, _ = true_error(calibrated_run["track"], session.trajectory)
    uncal_err, _ = true_error(uncal, session.trajectory)
    ok = uncal_err > 10.0 * cal_err and elapsed < 5.0
    report("4 divergence without DTB", ok,
           f"{uncal_err:.1f} m vs {cal_err:.2f} m calibrated, {elapsed:.2f} s")


def test_criterion_5_metric_ordering():
    n_runs = 50
    formal_le_rms = 0
    postfits_ge_formal = 0
    for seed in range(n_runs):
        scenario = acceptance_scenario(seed=seed, duration=99.5, speed=0.8)
        session = generate(scenario)
        track, residuals = run_filter(session.toa, truth_dtb(scenario, "1"),
                                      session.catalog, FLAT_NOISE)
        _, rms = true_error(track, session.trajectory)
        formal = sigma_formal(track)
        postfits = sigma_postfits([v for _, _, v in residuals])
        formal_le_rms += formal <= rms
        postfits_ge_formal += postfits >= formal
    ok = formal_le_rms >= 0.8 * n_runs and postfits_ge_formal == n_runs
    report("5 metric ordering", ok,
           f"formal<=rms in {formal_le_rms}/{n_runs}, "
           f"postfits>=formal in {postfits_ge_formal}/{n_runs}")


def test_criterion_6_jacobian_finite_differences():
    rng = np.random.default_rng(2024)
    step = 1e-4
    worst = 0.0
    trials = 0
    while trials < 1000:
        nx, ny, mx, my, rx, ry = rng.uniform(-50, 50, 6)
        if (np.hypot(rx - nx, ry - ny) < 0.1 or np.hypot(rx - mx, ry - my) < 0.1
                or (nx, ny) == (mx, my)):
            continue
        trials += 1
        catalog = NodeCatalog({"n": Position(nx, ny), "m": Position(mx, my)})
        dtb = DtbTable("m", {"n": DtbEntry(0.0, 0.0, 1)})

        def h(pos):
            return measurement_model(*pos, "n", dtb, catalog)[0]

        rover = np.array([rx, ry])
        _, (hx, hy) = measurement_model(*rover, "n", dtb, catalog)
        fd_x = (h(rover + [step, 0]) - h(rover - [step, 0])) / (2 * step)
        fd_y = (h(rover + [0, step]) - h(rover - [0, step])) / (2 * step)
        worst = max(worst, abs(hx - fd_x), abs(hy - fd_y))
    report("6 jacobian correctness", worst < 1e-6, f"max error {worst:.2e}")


def test_criterion_7_rover_clock_immunity():
    # quantized pseudo-ranges (hardware-style timestamp grid) with a
    # grid-aligned sawtooth make the cancellation bit-exact
    base = dict(seed=7, duration=99.5, speed=0.8, quantize=2.0 ** -20)
    clean_scn = acceptance_scenario(**base)
    saw = ClockModel(kind="sawtooth", drift_rate=16.0, reset_period=4.0,
                     reset_magnitude=64.0)
    clocked_scn = acceptance_scenario(rover_clock=saw, **base)

    clean = generate(clean_scn)
    clocked = generate(clocked_scn)
    samples_equal = (
        calibrate_dtb(clean.toa, clean.trajectory, clean.catalog, "1")[1]
        == calibrate_dtb(clocked.toa, clocked.trajectory, clocked.catalog, "1")[1])
    r1, _ = run_filter(clean.toa, truth_dtb(clean_scn, "1"), clean.catalog, FLAT_NOISE)
    r2, _ = run_filter(clocked.toa, truth_dtb(clocked_scn, "1"), clocked.catalog, FLAT_NOISE)
    track_equal = all((a.x, a.y) == (b.x, b.y) for a, b in zip(r1, r2))
    report("7 rover-clock immunity", samples_equal and track_equal,
           "DTB samples and track bit-identical under sawtooth clock")


def test_criterion_8_noise_model_round_trip():
    k_true, rsrp0_true = 60.0, -110.0
    exact = [NoisePoint(float(r), k_true / (r - rsrp0_true))
             for r in (-95, -90, -85, -80, -75, -70)]
    model = fit_noise_model(exact)
    exact_ok = (abs(model.k - k_true) < 1e-6 and abs(model.rsrp0 - rsrp0_true) < 1e-6)

    # noisy fits vs brute-force grid oracle, compared on the Monte Carlo mean
    rsrps = np.linspace(-95, -70, 12)
    ks, r0s, ks_g, r0s_g = [], [], [], []
    for seed in range(100):
        rng = np.random.default_rng(seed)
        pts = [NoisePoint(float(r),
                          float(k_true / (r - rsrp0_true) * (1 + rng.normal(0, 0.10))))
               for r in rsrps]
        m = fit_noise_model(pts)
        ks.append(m.k)
        r0s.append(m.rsrp0)
        kg, rg = _grid_fit(pts)
        ks_g.append(kg)
        r0s_g.append(rg)
    noisy_ok = (abs(np.mean(ks) - np.mean(ks_g)) <= 0.2 * np.mean(ks_g)
                and abs(np.mean(r0s) - np.mean(r0s_g)) <= 3.0)
    report("8 noise-model round trip", exact_ok and noisy_ok,
           f"exact |dk|={abs(model.k - k_true):.1e}; noisy mean k "
           f"{np.mean(ks):.1f} vs oracle {np.mean(ks_g):.1f}")


def _grid_fit(points, k_range=(1.0, 300.0), r0_range=(-160.0, -97.0), n=150):
    rsrp = np.array([p.rsrp for p in points])
    sig = np.array([p.sigma_hat for p in points])
    ks = np.linspace(*k_range, n)
    r0s = np.linspace(*r0_range, n)
    r0s = r0s[r0s < rsrp.min() - 1.0]
    pred = ks[:, None, None] / (rsrp[None, None, :] - r0s[None, :, None])
    cost = ((sig[None, None, :] - pred) ** 2).sum(axis=2)
    i, j = np.unravel_index(np.argmin(cost), cost.shape)
    return float(ks[i]), float(r0s[j])


def test_criterion_9_rereferencing_consistency():
    session = generate(acceptance_scenario(seed=31, duration=99.5, speed=0.8))
    direct = {}
    for ref in ("1", "5"):
        direct[ref] = calibrate(session, ref)
    via = rereference_dtb(direct["1"], "5")
    worst = max(abs(via.entries[n].mean - direct["5"].entries[n].mean)
                for n in direct["5"].entries)
    report("9 re-referencing consistency", worst < 1e-9, f"max diff {worst:.2e} m")


SCENARIO_YAML = """
seed: 11
epoch_rate: 2.0
speed: 1.0
duration: 200.0
nodes:
  "1": [0.0, 0.0]
  "2": [20.0, 0.0]
  "3": [20.0, 20.0]
  "4": [0.0, 20.0]
biases: {"1": 2.0, "2": 18.0, "3": -12.0, "4": 5.0}
waypoints: [[5.0, 5.0], [15.0, 5.0], [15.0, 15.0], [5.0, 15.0], [5.0, 5.0]]
noise: {k: 60.0, rsrp0: -110.0, sigma_floor: 0.3, sigma_cap: 15.0}
"""


def test_criterion_10_determinism(tmp_path):
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text(SCENARIO_YAML)
    digests = []
    for run in ("a", "b"):
        d = tmp_path / run
        d.mkdir()
        sim = d / "sim"
        assert cli_main(["simulate", "--scenario", str(scenario),
                         "--out-dir", str(sim)]) == 0
        assert cli_main(["fit-noise", "--toa", str(sim / "toa.csv"),
                         "--out", str(d / "noise.csv")]) == 0
        assert cli_main(["calibrate", "--toa", str(sim / "toa.csv"),
                         "--nodes", str(sim / "nodes.csv"),
                         "--traj", str(sim / "trajectory.csv"),
                         "--out", str(d / "dtb.csv")]) == 0
        assert cli_main(["position", "--toa", str(sim / "toa.csv"),
                         "--nodes", str(sim / "nodes.csv"),
                         "--dtb", str(d / "dtb.csv"),
                         "--noise", str(d / "noise.csv"),
                         "--out", str(d / "track.csv"),
                         "--residuals", str(d / "residuals.csv")]) == 0
        assert cli_main(["evaluate", "--track", str(d / "track.csv"),
                         "--traj", str(sim / "trajectory.csv"),
                         "--residuals", str(d / "residuals.csv"),
                         "--out", str(d / "metrics.json")]) == 0
        blob = b""
        for name in ("sim/toa.csv", "sim/nodes.csv", "sim/trajectory.csv",
                     "sim/truth_dtb.csv", "noise.csv", "dtb.csv",
                     "track.csv", "residuals.csv", "metrics.json"):
            blob += (d / name).read_bytes()
        digests.append(blob)
    report("10 determinism", digests[0] == digests[1],
           "all pipeline artifacts byte-identical across reruns")
