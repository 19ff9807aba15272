import math
from pathlib import Path

import numpy as np
import pytest

from tdoa_dtb.cli import main
from tdoa_dtb.dtb import calibrate
from tdoa_dtb.errors import InvalidScenario
from tdoa_dtb.geometry import range_between
from tdoa_dtb.ingestion import write_toa_csv
from tdoa_dtb.synthetic import (ClockModel, PathLossModel, Scenario, generate,
                                load_scenario, noise_draws, truth_dtb)

from conftest import epochs_of, square_catalog

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"


def test_degenerate_scenario_exact_geometry(basic_scenario):
    basic_scenario.node_biases = {}
    session = generate(basic_scenario)
    for t, obs in epochs_of(session.toa):
        rover = session.trajectory.interpolate(t)
        for node_id, (pseudorange, _) in obs.items():
            rho = range_between(rover, session.catalog[node_id])
            assert pseudorange == pytest.approx(rho, abs=1e-9)


def test_truth_dtb_matches_bias_differences():
    scenario = Scenario(catalog=square_catalog(),
                        node_biases={"1": 0.0, "2": -25.8},
                        waypoints=[(5.0, 5.0), (15.0, 5.0)])
    table = truth_dtb(scenario, "1")
    # DTB(2 vs 1) = -b^2 + b^1
    assert table.entries["2"].mean == pytest.approx(25.8, abs=1e-12)


def test_truth_dtb_includes_nlos_differences():
    scenario = Scenario(catalog=square_catalog(),
                        node_biases={"2": 5.0},
                        nlos_offset={"2": 1.5, "3": 0.5},
                        waypoints=[(5.0, 5.0), (15.0, 5.0)])
    table = truth_dtb(scenario, "1")
    assert table.entries["2"].mean == pytest.approx(-5.0 + 1.5, abs=1e-12)
    assert table.entries["3"].mean == pytest.approx(0.5, abs=1e-12)


def test_sawtooth_jumps_on_all_nodes():
    clock = ClockModel(kind="sawtooth", drift_rate=10.0, reset_period=5.0,
                       reset_magnitude=50.0)
    scenario = Scenario(catalog=square_catalog(), rover_clock=clock,
                        waypoints=[(10.0, 10.0)], speed=0.0, epoch_rate=1.0,
                        duration=12.0)
    session = generate(scenario)
    by_epoch = {t: {n: p for n, (p, _) in obs.items()} for t, obs in epochs_of(session.toa)}
    # static rover: consecutive ToA differences are pure clock drift / resets
    for node_id in session.catalog.ids():
        step_4_5 = by_epoch[5.0][node_id] - by_epoch[4.0][node_id]
        step_2_3 = by_epoch[3.0][node_id] - by_epoch[2.0][node_id]
        assert step_2_3 == pytest.approx(10.0, abs=1e-9)
        assert step_4_5 == pytest.approx(10.0 - 50.0, abs=1e-9)


def test_clock_model_invariance_of_dtb(basic_scenario):
    basic_scenario.quantize = 2.0 ** -20
    tables = []
    for clock in (ClockModel(),
                  ClockModel(kind="constant", value=37.0),
                  ClockModel(kind="sawtooth", drift_rate=8.0, reset_period=2.0,
                             reset_magnitude=16.0)):
        basic_scenario.rover_clock = clock
        session = generate(basic_scenario)
        tables.append(calibrate(session.toa, session.trajectory, session.catalog, "1")[0])
    assert tables[0] == tables[1] == tables[2]


def test_determinism_byte_identical(tmp_path, basic_scenario):
    basic_scenario.noise = 1.0
    paths = []
    for name in ("a.csv", "b.csv"):
        session = generate(basic_scenario)
        path = tmp_path / name
        write_toa_csv(session.toa, path)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_seed_changes_output(basic_scenario):
    basic_scenario.noise = 1.0
    s1 = generate(basic_scenario)
    basic_scenario.seed += 1
    s2 = generate(basic_scenario)
    assert s1.toa != s2.toa


def test_noise_stream_independent_of_generation_order(basic_scenario):
    """Observation noise is keyed by (seed, node, epoch), not draw order."""
    basic_scenario.noise = 1.0
    full = generate(basic_scenario)
    short = generate(Scenario(**{**basic_scenario.__dict__, "duration": 5.0}))
    for e_full, e_short in zip(epochs_of(full.toa), epochs_of(short.toa)):
        assert list(e_full[1].items()) == list(e_short[1].items())


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3])
def test_noise_draws_match_per_row_default_rng(seed):
    """One vectorised pass gives every row's default_rng([seed, node, epoch])
    draw, bit for bit; 2**32 needs two seed words, 2**64 + 3 more than the
    four words of SeedSequence's pool."""
    for n_nodes in (1, 8, 64):
        expected = [np.random.default_rng([seed, node, k]).standard_normal()
                    for k in range(100) for node in range(n_nodes)]
        assert noise_draws(seed, n_nodes, 100) == expected


def test_noiseless_pseudoranges_are_exact():
    """With sigma 0 the draws add nothing: every pseudorange is the forward
    model to the last bit."""
    scenario = Scenario(catalog=square_catalog(),
                        node_biases={"1": 2.0, "2": 5.0, "3": 0.1, "4": -3.0},
                        rover_clock=ClockModel(kind="constant", value=37.3),
                        waypoints=[(5.0, 5.0), (15.0, 5.0), (15.0, 15.0)],
                        nlos_offset={"3": 0.7}, noise=0.0, seed=2**64 + 3)
    session = generate(scenario)
    for t, obs in epochs_of(session.toa):
        rover = session.trajectory.interpolate(t)
        for node_id, (pseudorange, _) in obs.items():
            toa = (range_between(rover, scenario.catalog[node_id])
                   - scenario.node_biases[node_id] + scenario.nlos_offset.get(node_id, 0.0))
            assert pseudorange == toa + 37.3


def test_simulate_reproduces_the_golden_session(tmp_path):
    """simulate on the golden scenario writes the committed session files byte for byte."""
    assert main(["simulate", "--scenario", str(GOLDEN / "scenario.yaml"),
                 "--out-dir", str(tmp_path)]) == 0
    for name in ("toa.csv", "nodes.csv", "trajectory.csv"):
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


def _polyline(waypoints):
    """Oracle: the waypoints and their cumulative path length, in numpy."""
    pts = np.asarray(waypoints, dtype=float)
    if pts.shape[0] == 1:
        return pts, np.array([0.0])
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    return pts, np.concatenate([[0.0], np.cumsum(seg)])


def _position_at(pts, cumlen, dist):
    """Oracle: the point dist along the polyline, clamped to its ends."""
    total = cumlen[-1]
    if total == 0.0 or dist <= 0.0:
        return float(pts[0, 0]), float(pts[0, 1])
    if dist >= total:
        return float(pts[-1, 0]), float(pts[-1, 1])
    i = int(np.searchsorted(cumlen, dist, side="right")) - 1
    w = (dist - cumlen[i]) / (cumlen[i + 1] - cumlen[i])
    p = (1.0 - w) * pts[i] + w * pts[i + 1]
    return float(p[0]), float(p[1])


def _oracle_cases():
    """(waypoints, speed, duration): seeded lists where each waypoint repeats
    the previous one with probability 0.3, half of them run past the end of
    the path, plus the degenerate paths."""
    rng = np.random.default_rng(17)
    for _ in range(150):
        waypoints = [tuple(float(v) for v in rng.uniform(-50.0, 50.0, 2))]
        for _ in range(int(rng.integers(0, 7))):
            waypoints.append(waypoints[-1] if rng.random() < 0.3
                             else tuple(float(v) for v in rng.uniform(-50.0, 50.0, 2)))
        speed = float(rng.uniform(0.5, 20.0))
        length = _polyline(waypoints)[1][-1]
        duration = None
        if length == 0.0 or rng.random() < 0.5:
            duration = float(rng.uniform(1.0, 2.0)) * (length / speed) + 1.0   # past the end
        yield waypoints, speed, duration
    yield [(3.0, -4.0)], 1.0, 5.0                                   # a single waypoint
    yield [(1.5, 2.5)] * 4, 2.0, 5.0                                # identical waypoints
    yield [(0.0, 0.0), (10.0, 0.0), (10.0, 10.0)], 0.0, 5.0        # standing still
    yield [(0.0, 0.0), (0.0, 0.0), (3.0, 4.0), (3.0, 4.0), (3.0, 4.0), (6.0, 0.0)], 1.0, 20.0


def test_rover_path_matches_numpy_polyline():
    """The simulated rover path, trajectory and epoch count agree exactly with
    the numpy piecewise-linear interpolation it replaced."""
    catalog = square_catalog()
    for waypoints, speed, duration in _oracle_cases():
        scenario = Scenario(catalog=catalog, waypoints=waypoints, speed=speed,
                            epoch_rate=2.0, duration=duration)
        pts, cumlen = _polyline(waypoints)
        if duration is None:
            duration = cumlen[-1] / speed
        session = generate(scenario)
        assert len(session.toa.times) == int(math.floor(duration * 2.0)) + 1
        for t, (x, y, _) in zip(session.trajectory.times, session.trajectory.xyz):
            assert (x, y) == _position_at(pts, cumlen, speed * t)


def test_end_to_end_calibration_recovery():
    """Calibration on noisy generated data recovers the truth DTB means."""
    catalog = square_catalog()
    scenario = Scenario(
        catalog=catalog,
        node_biases={"1": 2.0, "2": -8.0, "3": 15.0, "4": -1.0},
        waypoints=[(5.0, 5.0), (15.0, 5.0), (15.0, 15.0), (5.0, 15.0), (5.0, 5.0)],
        speed=0.08, epoch_rate=1.0, noise=1.0, seed=21,
    )
    session = generate(scenario)
    assert len(session.toa.times) >= 500
    table, _ = calibrate(session.toa, session.trajectory, catalog, "1")
    truth = truth_dtb(scenario, "1")
    bound = 4.0 * math.sqrt(2.0) / math.sqrt(500)
    for node_id, entry in table.entries.items():
        assert abs(entry.mean - truth.entries[node_id].mean) < bound


def test_rsrp_follows_path_loss(basic_scenario):
    session = generate(basic_scenario)
    model = basic_scenario.path_loss
    t, obs = epochs_of(session.toa)[0]
    rover = session.trajectory.interpolate(t)
    for node_id, (_, rsrp) in obs.items():
        rho = range_between(rover, session.catalog[node_id])
        assert rsrp == pytest.approx(model.rsrp(rho), abs=1e-9)


def test_invalid_scenarios():
    with pytest.raises(InvalidScenario):
        Scenario(catalog=square_catalog(), waypoints=[])
    with pytest.raises(InvalidScenario):
        Scenario(catalog=square_catalog(), waypoints=[(0, 0)], epoch_rate=0.0)
    with pytest.raises(InvalidScenario):
        Scenario(catalog=square_catalog(), waypoints=[(0, 0), (1, 0)], speed=0.0)
    with pytest.raises(InvalidScenario):
        Scenario(catalog=square_catalog(), waypoints=[(0, 0)],
                 node_biases={"99": 1.0})
    with pytest.raises(InvalidScenario):
        ClockModel(kind="nope")


def test_scenario_yaml_loading(tmp_path):
    path = tmp_path / "scenario.yaml"
    path.write_text("""
seed: 5
epoch_rate: 2.0
speed: 1.0
duration: 20.0
nodes:
  "1": [0.0, 0.0]
  "2": [20.0, 0.0]
  "3": [20.0, 20.0]
  "4": [0.0, 20.0]
biases: {"2": 5.0}
clock: {kind: sawtooth, drift_rate: 10.0, reset_period: 5.0, reset_magnitude: 50.0}
waypoints: [[5.0, 5.0], [15.0, 5.0]]
noise: {sigma: 1.5}
path_loss: {p0: -40.0, gamma: 2.5}
nlos: {"3": 0.5}
""")
    scenario = load_scenario(path)
    assert scenario.seed == 5
    assert scenario.node_biases == {"2": 5.0}
    assert scenario.rover_clock.kind == "sawtooth"
    assert scenario.noise == 1.5
    assert scenario.nlos_offset == {"3": 0.5}
    generate(scenario)   # loadable scenario must be generatable


def test_scenario_yaml_invalid(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("nodes: {}\n")
    with pytest.raises(InvalidScenario):
        load_scenario(path)
