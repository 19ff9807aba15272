import itertools
import math
import random
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

from tdoa_dtb import synthetic
from tdoa_dtb.cli import main
from tdoa_dtb.dtb import calibrate
from tdoa_dtb.errors import InvalidScenario
from tdoa_dtb.geometry import NodeCatalog, Position, range_between
from tdoa_dtb.ingestion import ReferenceTrajectory, write_toa_csv
from tdoa_dtb.noise import NoiseModel, sigma_for
from tdoa_dtb.synthetic import (ClockModel, PathLossModel, Scenario, _path_samples, generate,
                                load_scenario, noise_draws, truth_dtb)

import test_acceptance
import test_cli
import test_table
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
    with pytest.raises(InvalidScenario, match="reference '9' not in catalog"):
        truth_dtb(scenario, "9")


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


def _seed_words(seed, n_nodes, n_epochs):
    """Each row's SeedSequence words, from numpy's own SeedSequence, as uint64 columns."""
    words = [np.random.SeedSequence([seed, node, k]).generate_state(8)
             for k in range(n_epochs) for node in range(n_nodes)]
    return list(np.array(words, dtype=np.uint64).T)


@pytest.mark.parametrize("seed", [1, 2**40 + 17])
def test_noise_draws_fast_path_and_fallback(seed):
    """On the benchmark's session shapes both paths of noise_draws are taken:
    the ziggurat fast path in every layer with a bound, and numpy's generator
    for the rows past it, and every draw is the per-row generator's."""
    # layer 1's bound is 0, as numpy's ki_double[1] is: its rows always fall back
    assert synthetic._KI[1] == 0 and np.all(synthetic._KI[np.arange(256) != 1] > 0)
    for n_nodes, n_epochs in ((8, 751), (64, 81)):
        expected = [np.random.default_rng([seed, node, k]).standard_normal()
                    for k in range(n_epochs) for node in range(n_nodes)]
        assert noise_draws(seed, n_nodes, n_epochs) == expected
        u = synthetic._first_outputs(_seed_words(seed, n_nodes, n_epochs))
        layer = (u & np.uint64(0xFF)).astype(np.intp)
        rabs = (u >> np.uint64(9) & np.uint64(2**52 - 1)).astype(np.float64)
        fast = rabs < synthetic._KI[layer]
        assert set(layer[fast].tolist()) == set(range(256)) - {1}
        assert set(layer.tolist()) == set(range(256))
        # about 1.5% of rows fall back, and not only layer 1's
        assert 0 < np.count_nonzero(~fast & (layer != 1)) < np.count_nonzero(~fast) < 0.03 * u.size


_M = 0x2360ED051FC65DA44385DF649FCCF645
EDGE_HALVES = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


def test_first_outputs_limb_arithmetic_on_edge_words():
    """The 32-bit limb arithmetic gives numpy's first PCG64 output, and the
    128-bit formula's, for 64-bit halves of 0, 1, all ones and carries out of
    the low word in every position of the state and increment seeds."""
    seeds = list(itertools.product(EDGE_HALVES, repeat=4))
    # the hash order of the SeedSequence words: state high, state low, inc high, inc low,
    # each 64-bit half as its low then its high 32 bits
    words = [np.array([halves[i // 2] >> 32 * (i % 2) & (2**32 - 1) for halves in seeds],
                      dtype=np.uint64) for i in range(8)]
    got = synthetic._first_outputs(words).tolist()
    bit_generator = np.random.PCG64()
    full_state = bit_generator.state
    for (s_hi, s_lo, i_hi, i_lo), u in zip(seeds, got):
        s, inc = s_hi << 64 | s_lo, ((i_hi << 64 | i_lo) << 1 | 1) % 2**128
        state = (s * _M * _M + inc * (_M * _M + _M + 1)) % 2**128   # seeded, then one step
        hi, lo, rot = state >> 64, state & (2**64 - 1), state >> 122
        assert u == ((hi ^ lo) >> rot | (hi ^ lo) << (64 - rot)) & (2**64 - 1)
        full_state["state"] = {"state": ((inc + s) * _M + inc) % 2**128, "inc": inc}
        bit_generator.state = full_state
        assert u == int(bit_generator.random_raw())


def test_ziggurat_table_and_bound_match_numpy():
    """In every layer but layer 1 (bound 0), a first output at the largest rabs
    the fast path accepts makes numpy's standard_normal return rabs * wi from
    that one output, so the embedded table is numpy's and the derived bound is
    not above numpy's."""
    bit_generator = np.random.PCG64()
    generator, full_state = np.random.Generator(bit_generator), bit_generator.state
    for layer in set(range(256)) - {1}:
        for sign in (0, 1):
            rabs = int(synthetic._KI[layer]) - 1
            u = rabs << 9 | sign << 8 | layer   # the output of state u: hi = 0, no rotation
            full_state["state"] = {"state": (u - 1) * pow(_M, -1, 2**128) % 2**128, "inc": 1}
            bit_generator.state = full_state
            assert generator.standard_normal() == (-1) ** sign * rabs * synthetic._WI[layer]
            assert bit_generator.state["state"]["state"] == u   # one output, no slow path


@pytest.mark.parametrize("seed", [2**63, 2**64 - 1, 2**128 - 1])
def test_noise_draws_with_high_seed_bits(seed):
    """Seeds whose words have bit 31 set, up to four words of ones, draw as the
    per-row generator does."""
    expected = [np.random.default_rng([seed, node, k]).standard_normal()
                for k in range(100) for node in range(8)]
    assert noise_draws(seed, 8, 100) == expected


def test_noiseless_pseudoranges_are_exact(monkeypatch):
    """With sigma 0 no noise is drawn: every pseudorange is the forward model
    to the last bit."""
    def no_draws(*args):
        raise AssertionError("noise_draws called for a noiseless scenario")

    monkeypatch.setattr(synthetic, "noise_draws", no_draws)
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


def _per_row(scenario):
    """Oracle: generate as one loop over rows, each drawn from its own
    default_rng([seed, node, epoch]). Returns the rows (time, node_id,
    pseudorange, rsrp) and the trajectory (time, x, y, z), or raises the
    InvalidScenario of the first bad row."""
    samples = _path_samples(scenario.waypoints)
    total = samples[-1][0]
    path = ReferenceTrajectory(samples) if len(samples) > 1 else None
    duration = scenario.duration
    if duration is None:
        duration = total / scenario.speed if scenario.speed > 0 else 1.0
    clock, loss, grid = scenario.rover_clock, scenario.path_loss, scenario.quantize
    rows, trajectory = [], []
    for k in range(math.floor(duration * scenario.epoch_rate) + 1):
        t = k / scenario.epoch_rate
        dist = min(max(scenario.speed * t, 0.0), total)
        rover = path.interpolate(dist) if path else samples[0][1]
        trajectory.append((t, rover.x, rover.y, rover.z))
        if clock.kind == "sawtooth":
            bias = clock.drift_rate * t - clock.reset_magnitude * math.floor(t / clock.reset_period)
        else:
            bias = clock.value if clock.kind == "constant" else 0.0
        for node_index, node_id in enumerate(scenario.catalog.ids()):
            rho = range_between(rover, scenario.catalog[node_id])
            rsrp = loss.p0 - 10.0 * loss.gamma * math.log10(max(rho, loss.min_range))
            if isinstance(scenario.noise, NoiseModel):
                sigma = sigma_for(scenario.noise, rsrp)
            else:
                sigma = float(scenario.noise)
            eps = 0.0
            if sigma > 0:
                eps = sigma * np.random.default_rng([scenario.seed, node_index, k]).standard_normal()
            toa = (rho - scenario.node_biases.get(node_id, 0.0)
                   + scenario.nlos_offset.get(node_id, 0.0) + eps)
            if grid is not None and math.isfinite(toa):
                try:
                    toa = round(toa / grid) * grid
                except OverflowError:
                    raise InvalidScenario(f"quantize grid {grid} is too fine for "
                                          f"pseudorange {toa}") from None
            pseudorange = toa + bias
            if not (math.isfinite(pseudorange) and math.isfinite(rsrp)):
                raise InvalidScenario(f"non-finite pseudorange {pseudorange} or rsrp {rsrp} "
                                      f"of node {node_id!r} at t={t}")
            rows.append((t, node_id, pseudorange, rsrp))
    return rows, trajectory


def _oracle_scenarios():
    """Seeded scenarios over every clock kind, noise form (constant sigma 0 and
    0.8, two noise models) and quantize grid, with nodes off the z = 0 plane,
    NLOS offsets, single waypoints, a rover on a node, durations past the
    path's end and seeds of 2**64 and more among them; then a quantized zero."""
    rng = random.Random(20)
    clocks = (ClockModel(), ClockModel(kind="constant", value=-37.3),
              ClockModel(kind="sawtooth", drift_rate=10.0, reset_period=1.5,
                         reset_magnitude=50.0))
    noises = (0.0, 0.8, NoiseModel(60.0, -110.0),
              NoiseModel(5.0, -60.0, sigma_floor=0.1, sigma_cap=2.0))
    combos = itertools.product(clocks, noises, (None, 2.0 ** -20, 0.25))
    for index, (clock, noise, grid) in enumerate(combos):
        catalog = NodeCatalog({str(i + 1): Position(rng.uniform(-30.0, 30.0),
                                                    rng.uniform(-30.0, 30.0),
                                                    rng.choice((0.0, rng.uniform(-3.0, 3.0))))
                               for i in range(rng.randint(2, 6))})
        waypoints = [(rng.uniform(-25.0, 25.0), rng.uniform(-25.0, 25.0))
                     for _ in range((1, 2, 3, 5)[index % 4])]
        if index % 7 == 0:
            waypoints[0] = (catalog["1"].x, catalog["1"].y)
        length = sum(math.dist(a, b) for a, b in zip(waypoints, waypoints[1:]))
        speed = length / rng.uniform(3.0, 8.0) if length else 1.0
        duration = None if length and index % 3 else 1.5 * length / speed + 1.0
        yield Scenario(catalog=catalog,
                       node_biases={n: rng.uniform(-30.0, 30.0) for n in catalog.ids()
                                    if rng.random() < 0.7},
                       rover_clock=clock, waypoints=waypoints, speed=speed,
                       epoch_rate=rng.choice((1.0, 2.0, 3.3)), noise=noise,
                       path_loss=PathLossModel(p0=rng.choice((-40.0, -31.5)),
                                               gamma=rng.choice((2.0, 2.5, 3.1)),
                                               min_range=rng.choice((0.1, 2.0))),
                       nlos_offset={n: rng.uniform(0.0, 3.0) for n in catalog.ids()
                                    if rng.random() < 0.3},
                       seed=rng.randrange(2**32) + (2**64 if index % 5 in (1, 3) else 0),
                       duration=duration, quantize=grid)
    # the rover on node 1: its toa -0.1 rounds to +0.0 (round() gives the int
    # 0), so that the clock's -0.0 at t = 0 (a negative drift) adds to +0.0
    yield Scenario(catalog=square_catalog(), node_biases={"1": 0.1}, waypoints=[(0.0, 0.0)],
                   rover_clock=ClockModel(kind="sawtooth", drift_rate=-1.0, reset_period=5.0),
                   duration=2.0, quantize=0.25)


def _bits(values):
    return [value.hex() for value in values]


def test_generate_matches_the_per_row_oracle():
    """generate's array passes give the oracle's pseudoranges, rsrp, times and
    trajectory bit for bit, all as Python floats."""
    for scenario in _oracle_scenarios():
        rows, trajectory = _per_row(scenario)
        times, node_ids, pseudoranges, rsrps = map(list, zip(*rows))
        session = generate(scenario)
        toa, traj = session.toa, session.trajectory
        assert all(type(v) is float for v in [*toa.times, *toa.pseudorange, *toa.rsrp])
        assert [toa.node_ids[i] for i in toa.node] == node_ids
        counts = [end - start for start, end in zip(toa.starts, toa.starts[1:])]
        row_times = [t for t, count in zip(toa.times, counts) for _ in range(count)]
        assert _bits(row_times) == _bits(times)
        assert _bits(toa.pseudorange) == _bits(pseudoranges)
        assert _bits(toa.rsrp) == _bits(rsrps)
        assert _bits(toa.times) == _bits(traj.times) == _bits(t for t, *_ in trajectory)
        assert [_bits(xyz) for xyz in traj.xyz] == [_bits(xyz) for _, *xyz in trajectory]


@pytest.mark.parametrize("changes", [
    {"rover_clock": ClockModel(kind="sawtooth", drift_rate=1.0e308, reset_period=100.0)},
    {"catalog": NodeCatalog({"1": Position(0.0, 0.0), "2": Position(20.0, 0.0),
                             "3": Position(1.0e200, 20.0)})},
    {"node_biases": {"2": 1.0e308}, "nlos_offset": {"2": -1.0e308}},
    {"quantize": 1.0e-310},
    {"quantize": 1.0e-310, "noise": 0.0,   # the rover on node 1: its row 0 quantizes to 0
     "waypoints": [(0.0, 0.0), (20.0, 0.0)]},
    {"quantize": 1.0e-310, "path_loss": PathLossModel(gamma=1.0e308)},
    {"path_loss": PathLossModel(gamma=1.0e308)}],
    ids=["clock-drift", "node-at-1e200", "bias-and-nlos", "quantize", "quantize-second-row",
         "quantize-before-rsrp", "rsrp"])
def test_bad_row_matches_the_per_row_oracle(changes):
    """A scenario that overflows names the oracle's first bad row: its node,
    time and values, and a quantize overflow before a non-finite value of the
    same row."""
    scenario = Scenario(**{"catalog": square_catalog(), "waypoints": [(5.0, 5.0), (15.0, 5.0)],
                           "speed": 2.0, "epoch_rate": 2.0, "noise": 0.5, "seed": 3,
                           **changes})
    with pytest.raises(InvalidScenario) as oracle:
        _per_row(scenario)
    with pytest.raises(InvalidScenario) as array:
        generate(scenario)
    assert str(array.value) == str(oracle.value)


def test_simulate_reproduces_the_golden_session(tmp_path, yaml_parser):
    """simulate on the golden scenario writes the committed session files byte
    for byte, whichever parser reads the scenario."""
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


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sigma_column_matches_sigma_for_bit_for_bit():
    """generate's array clamp gives sigma_for's value, bit for bit and without
    a warning, at the pole, where k / (rsrp - rsrp0) is exactly the floor or
    the cap, one ulp either side of each, at +-inf and at huge finite powers."""
    model = NoiseModel(60.0, -110.0, sigma_floor=0.5, sigma_cap=15.0)
    at_floor, at_cap = -110.0 + 60.0 / 0.5, -110.0 + 60.0 / 15.0
    assert model.k / (at_floor - model.rsrp0) == model.sigma_floor
    assert model.k / (at_cap - model.rsrp0) == model.sigma_cap
    points = (model.rsrp0, at_floor, at_cap, -80.0, math.inf, -math.inf, 1.0e308, -1.0e308)
    rsrp = [math.nextafter(p, towards) for p in points for towards in (-math.inf, p, math.inf)]
    sigmas = synthetic._sigmas(model, np.array(rsrp).reshape(4, -1))
    assert _bits(sigmas.ravel().tolist()) == _bits(sigma_for(model, r) for r in rsrp)


def _outcome(parse, data):
    """A parser's value as its repr, or its error as its type and text."""
    try:
        return repr(parse(data))
    except Exception as exc:
        return type(exc), str(exc)


YAML_TOKEN = re.compile(r"\s+|\w+|.")
# tokens that YAML reads specially, among them tabs, "?" and characters that
# are not printable ASCII, on which libyaml and PyYAML differ
YAML_SPECIALS = ("\t", "?", "? ", "\x85", "\ufeff", "\u2028", "\xa0", "\xe9", "\r", "\x00",
                 "\x7f", ": ", ", ", "- ", "[", "]", "{", "}", "#", "'", '"', "\\", "&a ", "*a",
                 "!!str ", "!!float ", "<<: ", "|", ">", "%", "@", "`", "---", "...", "~",
                 ".inf", ".nan", "0x1F", "0o17", "1_000", "1e3", "2001-02-30", "\n", "\n  ")


def _yaml_inputs():
    """Every scenario in tests/data and every scenario string of the tests."""
    data = Path(__file__).resolve().parent / "data"
    texts = [path.read_bytes() for path in sorted(data.rglob("*.yaml"))]
    texts += [module.SCENARIO_YAML.encode() for module in (test_acceptance, test_cli, test_table)]
    texts += [text if isinstance(text, bytes) else text.encode()
              for text in test_cli.SCENARIO_PROBES.values()]
    return texts


def _mutants(texts, count, seed=37):
    """count seeded edits of 1 to 5 tokens each (replace, insert, delete or
    duplicate) of the texts, with tokens drawn from the texts and YAML_SPECIALS."""
    rng = random.Random(seed)
    tokenized = [YAML_TOKEN.findall(text.decode(errors="replace")) for text in texts]
    pool = sorted({token for tokens in tokenized for token in tokens}) + list(YAML_SPECIALS) * 3
    for _ in range(count):
        tokens = list(rng.choice(tokenized))
        for _ in range(rng.randint(1, 5)):
            i = rng.randrange(len(tokens))
            edit = rng.randrange(4)
            if edit == 0:
                tokens[i] = rng.choice(pool)
            elif edit == 1:
                tokens.insert(i, rng.choice(pool))
            elif edit == 2 and len(tokens) > 1:
                del tokens[i]
            else:
                tokens.insert(i, tokens[i])
        yield "".join(tokens).encode()


@pytest.fixture
def libyaml_values(monkeypatch):
    """The texts whose value libyaml's loader gave, in call order."""
    texts = []
    if hasattr(yaml, "CSafeLoader"):
        class Recorded(yaml.CSafeLoader):
            def __init__(self, stream):
                super().__init__(stream)
                self.stream = stream

            def get_single_data(self):
                value = super().get_single_data()
                texts.append(self.stream)
                return value

        monkeypatch.setattr(yaml, "CSafeLoader", Recorded)
    return texts


def test_libyaml_path_gives_pyyaml_value_or_error(libyaml_values):
    """load_scenario's parser gives PyYAML's value or error, compared by repr,
    on every scenario of the tests and on seeded token mutations of them,
    and takes libyaml's value on every plain-ASCII scenario file."""
    texts = _yaml_inputs()
    for data in [*texts, *_mutants(texts, 1500)]:
        assert _outcome(synthetic._parse_yaml, data) == _outcome(yaml.safe_load, data), data
    if hasattr(yaml, "CSafeLoader"):
        plain = [text for text in texts if re.fullmatch(rb"[ -~\n]*", text) and b"?" not in text
                 and type(_outcome(yaml.safe_load, text)) is str]
        assert len(plain) >= 25 and set(plain) <= set(libyaml_values)
        assert len(libyaml_values) > 300   # the mutants too reach libyaml's values


@pytest.mark.parametrize("data", [
    b"seed:\t15\n",                                 # a tab after a colon
    b"waypoints: [[5.0?, 5.0]]\n",                   # "?" in a flow collection
    "seed: 15\n\ufeff# a BOM on a line\nspeed: 4.0\n".encode()],   # a character not ASCII
    ids=["tab", "question-mark-in-flow", "bom"])
def test_libyaml_divergence_goes_to_pyyaml(libyaml_values, data):
    """libyaml reads each of these, PyYAML rejects it, and the parser sends it
    to PyYAML, which words the error, without asking libyaml."""
    if not hasattr(yaml, "CSafeLoader"):
        pytest.skip("PyYAML built without libyaml")
    yaml.load(data, Loader=yaml.CSafeLoader)
    assert libyaml_values == [data]
    with pytest.raises(yaml.YAMLError) as pyyaml:
        yaml.safe_load(data)
    with pytest.raises(yaml.YAMLError) as parsed:
        synthetic._parse_yaml(data)
    assert str(parsed.value) == str(pyyaml.value)
    assert libyaml_values == [data]
