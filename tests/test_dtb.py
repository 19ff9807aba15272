import math

import pytest

from tdoa_dtb.differencing import form_tdoa, reference_rows
from tdoa_dtb.dtb import (DtbEntry, DtbTable, aggregate_dtb, calibrate, read_dtb,
                          rereference_dtb, write_dtb)
from tdoa_dtb.errors import ParseError, TdoaDtbError, UnknownNode
from tdoa_dtb.geometry import NodeCatalog, Position
from tdoa_dtb.ingestion import ReferenceTrajectory
from tdoa_dtb.noise import NoiseModel
from tdoa_dtb.synthetic import ClockModel, Scenario, generate

from conftest import (eight_node_catalog, epochs_of, loop_waypoints, sd_range, session_of,
                      square_catalog)


def calibrate_synthetic(scenario, ref="1"):
    """Straight-line calibration of a generated session against its trajectory:
    (time, node_id, measured minus true single difference) samples."""
    sim = generate(scenario)
    toa = sim.toa
    samples = []
    for epoch, (t, ref_row) in enumerate(zip(toa.times, reference_rows(toa, toa.node_index(ref)))):
        rover = sim.trajectory.interpolate(t)
        rows, diffs = form_tdoa(toa, epoch, ref_row)
        for row, sd in zip(rows, diffs):
            node_id = toa.node_ids[toa.node[row]]
            geom = sd_range(rover, sim.catalog[node_id], sim.catalog[ref])
            samples.append((t, node_id, sd - geom))
    return sim, samples


def test_calibrate_matches_straight_line_loop(basic_scenario):
    """calibrate takes the rover-to-reference range once per epoch; its samples
    still equal, bit for bit, sd_range taken per difference, on the square and
    on eight nodes under a sawtooth clock against reference "6"."""
    basic_scenario.noise = 0.8
    eight_nodes = Scenario(
        catalog=eight_node_catalog(),
        node_biases={str(i): 3.5 * i - 14.0 for i in range(1, 9)},
        rover_clock=ClockModel(kind="sawtooth", drift_rate=10.0, reset_period=5.0,
                               reset_magnitude=50.0),
        waypoints=loop_waypoints(), speed=1.0, epoch_rate=10.0,
        noise=NoiseModel(60.0, -110.0), seed=23)
    for scenario, ref in ((basic_scenario, "1"), (eight_nodes, "6")):
        sim, samples = calibrate_synthetic(scenario, ref=ref)
        table, got = calibrate(sim.toa, sim.trajectory, sim.catalog, ref,
                               trim_sigma=2.0, label="S")
        assert len(got) == (len(sim.catalog.ids()) - 1) * len(sim.toa.times)
        assert got == samples
        assert table == aggregate_dtb(samples, ref, session="S", trim_sigma=2.0)


def test_calibrate_drops_epochs_outside_trajectory(basic_scenario):
    sim, samples = calibrate_synthetic(basic_scenario, ref="1")
    part = ReferenceTrajectory([(t, Position(*xyz)) for t, xyz in
                                zip(sim.trajectory.times[10:40], sim.trajectory.xyz[10:40])])
    table, got = calibrate(sim.toa, part, sim.catalog, "1")
    expected = [s for s in samples if part.interpolate(s[0]) is not None]
    assert len(expected) == 30 * 3
    assert got == expected
    assert table == aggregate_dtb(expected, "1")


def test_calibrate_drops_epochs_without_reference(basic_scenario):
    sim, samples = calibrate_synthetic(basic_scenario, ref="1")
    epochs = [(t, {n: o for n, o in obs.items() if n != "1"}) if i % 3 == 0 else (t, obs)
              for i, (t, obs) in enumerate(epochs_of(sim.toa))]
    kept = {t for i, t in enumerate(sim.toa.times) if i % 3 != 0}
    _, got = calibrate(session_of(epochs), sim.trajectory, sim.catalog, "1")
    assert got == [s for s in samples if s[0] in kept]


def test_calibrate_without_usable_epoch(basic_scenario):
    sim = generate(basic_scenario)
    with pytest.raises(TdoaDtbError, match="reference node '99' never observed within the "
                                            "trajectory span"):
        calibrate(sim.toa, sim.trajectory, sim.catalog, "99")
    late = ReferenceTrajectory([(1e6, Position(5, 5)), (1e6 + 1, Position(6, 5))])
    with pytest.raises(TdoaDtbError, match="reference node '1' never observed within the "
                                            "trajectory span"):
        calibrate(sim.toa, late, sim.catalog, "1")


def test_instantaneous_bias_free():
    catalog = square_catalog()
    rover = Position(5.0, 5.0)
    geom = sd_range(rover, catalog["2"], catalog["1"])
    epoch = session_of([(0.0, {"1": (0.0, None), "2": (geom, None)})])
    traj = ReferenceTrajectory([(0.0, rover), (1.0, rover)])
    _, samples = calibrate(epoch, traj, catalog, "1")
    assert samples == [(0.0, "2", 0.0)]


def test_instantaneous_matches_injected_biases(basic_scenario):
    # b^n = 5, b^m = 2, zero noise -> every sample is -b^n + b^m = -3
    session, samples = calibrate_synthetic(basic_scenario, ref="1")
    for _, node_id, value in samples:
        if node_id == "2":
            assert value == pytest.approx(-3.0, abs=1e-9)


def test_instantaneous_unknown_node():
    catalog = square_catalog()
    epoch = session_of([(0.0, {"1": (10.0, None), "99": (11.0, None)})])
    traj = ReferenceTrajectory([(0.0, Position(5, 5)), (1.0, Position(5, 5))])
    with pytest.raises(UnknownNode, match="'99'"):
        calibrate(epoch, traj, catalog, "1")


def test_calibrate_names_an_unknown_node_of_a_skipped_epoch():
    # node 99 is observed only at t=5, outside the trajectory span
    catalog = square_catalog()
    epochs = session_of([(0.0, {"1": (10.0, None), "2": (11.0, None)}),
                         (5.0, {"1": (10.0, None), "99": (11.0, None)})])
    traj = ReferenceTrajectory([(0.0, Position(5, 5)), (1.0, Position(5, 5))])
    with pytest.raises(UnknownNode, match="'99'"):
        calibrate(epochs, traj, catalog, "1")


def test_aggregate_hand_computed():
    samples = [(float(i), "2", v) for i, v in enumerate([-7.0, -8.0, -8.1, -7.9])]
    table = aggregate_dtb(samples, "1")
    entry = table.entries["2"]
    assert entry.mean == pytest.approx(-7.75, abs=1e-12)
    # sample std (n-1 divisor), frozen from direct evaluation
    assert entry.std == pytest.approx(0.506622805119022, abs=1e-12)
    assert entry.n_samples == 4


def test_aggregate_single_sample():
    table = aggregate_dtb([(0.0, "2", 3.0)], "1")
    assert table.entries["2"] == DtbEntry(3.0, 0.0, 1)


def test_aggregate_trim_sigma():
    values = [0.0] * 50 + [100.0]
    samples = [(float(i), "2", v) for i, v in enumerate(values)]
    trimmed = aggregate_dtb(samples, "1", trim_sigma=3.0)
    untrimmed = aggregate_dtb(samples, "1")
    assert trimmed.entries["2"].mean == pytest.approx(0.0, abs=1e-12)
    assert untrimmed.entries["2"].mean > 1.0


def test_zero_noise_oracle(basic_scenario):
    """Aggregated means equal -b^n + b^m exactly for every node."""
    _, samples = calibrate_synthetic(basic_scenario, ref="1")
    table = aggregate_dtb(samples, "1")
    biases = basic_scenario.node_biases
    for node_id, entry in table.entries.items():
        assert entry.mean == pytest.approx(-biases[node_id] + biases["1"], abs=1e-9)
        assert entry.std <= 1e-9


def test_noisy_oracle(basic_scenario):
    sigma = 0.8
    basic_scenario.noise = sigma
    basic_scenario.duration = 250.0
    basic_scenario.speed = 0.1
    _, samples = calibrate_synthetic(basic_scenario, ref="1")
    table = aggregate_dtb(samples, "1")
    biases = basic_scenario.node_biases
    for node_id, entry in table.entries.items():
        bound = 4.0 * sigma * math.sqrt(2.0) / math.sqrt(entry.n_samples)
        assert abs(entry.mean - (-biases[node_id] + biases["1"])) < bound


def test_rover_clock_immunity(basic_scenario):
    """Any rover clock, including a sawtooth, leaves DTB samples unchanged."""
    basic_scenario.quantize = 2.0 ** -20
    _, clean = calibrate_synthetic(basic_scenario, ref="1")
    basic_scenario.rover_clock = ClockModel(
        kind="sawtooth", drift_rate=16.0, reset_period=4.0, reset_magnitude=64.0)
    _, sawtooth = calibrate_synthetic(basic_scenario, ref="1")
    assert clean == sawtooth


def test_rereference_identity():
    table = DtbTable("1", {"2": DtbEntry(-3.0, 0.1, 5)})
    assert rereference_dtb(table, "1") is table


def test_rereference_pairwise_algebra():
    # table(ref=m): n -> -3, k -> +2; rereference to k -> n -> -5, m -> -2
    table = DtbTable("m", {"n": DtbEntry(-3.0, 0.0, 5), "k": DtbEntry(2.0, 0.0, 5)})
    out = rereference_dtb(table, "k")
    assert out.ref_node_id == "k"
    assert out.entries["n"].mean == pytest.approx(-5.0, abs=1e-12)
    assert out.entries["m"].mean == pytest.approx(-2.0, abs=1e-12)
    assert "k" not in out.entries


def test_rereference_std_combination():
    table = DtbTable("m", {"n": DtbEntry(1.0, 0.3, 5), "k": DtbEntry(2.0, 0.4, 7)})
    out = rereference_dtb(table, "k")
    assert out.entries["n"].std == pytest.approx(0.5, abs=1e-12)
    assert out.entries["m"].std == pytest.approx(0.4, abs=1e-12)


def test_rereference_round_trip():
    """A -> B -> A gives back reference A, B's mean exactly (negated twice) and
    every other mean to within the rounding of one subtraction and one
    addition. std and n_samples do not round-trip: by the independence rule
    another node's std widens to sqrt(std_n**2 + 2 * std_B**2), and its count
    is capped at B's."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    entry = st.builds(DtbEntry, st.floats(-1e6, 1e6), st.floats(0.0, 1e3),
                      st.integers(1, 10_000))

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(st.lists(entry, min_size=2, max_size=8), st.data())
    def check(entries, data):
        table = DtbTable("0", {str(i + 1): e for i, e in enumerate(entries)})
        b = data.draw(st.sampled_from(sorted(table.entries)))
        back = rereference_dtb(rereference_dtb(table, b), "0")
        assert back.ref_node_id == "0" and back.entries.keys() == table.entries.keys()
        pivot = table.entries[b]
        assert back.entries[b] == pivot
        for node_id, e in table.entries.items():
            if node_id != b:
                got = back.entries[node_id]
                assert abs(got.mean - e.mean) <= 2**-51 * (abs(e.mean) + abs(pivot.mean))
                assert got.std == pytest.approx(math.sqrt(e.std**2 + 2 * pivot.std**2))
                assert got.n_samples == min(e.n_samples, pivot.n_samples)

    check()


def test_rereference_unknown_node():
    table = DtbTable("1", {"2": DtbEntry(-3.0, 0.1, 5)})
    with pytest.raises(UnknownNode):
        rereference_dtb(table, "9")


def test_rereference_matches_direct_build(basic_scenario):
    """Table built against ref 1 then re-referenced to 3 equals the direct table."""
    _, samples1 = calibrate_synthetic(basic_scenario, ref="1")
    _, samples3 = calibrate_synthetic(basic_scenario, ref="3")
    via_rereference = rereference_dtb(aggregate_dtb(samples1, "1"), "3")
    direct = aggregate_dtb(samples3, "3")
    assert via_rereference.ref_node_id == direct.ref_node_id
    for node_id in direct.entries:
        assert via_rereference.entries[node_id].mean == pytest.approx(
            direct.entries[node_id].mean, abs=1e-9)


def test_rereference_round_trip_returns_original_means():
    table = DtbTable("m", {"n": DtbEntry(-3.0, 0.2, 5), "k": DtbEntry(2.0, 0.1, 9)})
    back = rereference_dtb(rereference_dtb(table, "k"), "m")
    for node_id in table.entries:
        assert back.entries[node_id].mean == pytest.approx(
            table.entries[node_id].mean, abs=1e-9)


def test_write_read_round_trip(tmp_path):
    table = DtbTable("1", {"2": DtbEntry(-7.75, 0.5066, 4),
                           "3": DtbEntry(17.6, 1.5, 120),
                           "10": DtbEntry(0.1 + 0.2, 1.0 / 3.0, 7)}, session="D5")
    path = tmp_path / "dtb.csv"
    write_dtb(table, path)
    assert read_dtb(path) == table
    assert path.read_bytes().endswith(b"D5,1,10,0.30000000000000004,0.3333333333333333,7\r\n")


def test_read_rejects_duplicate_rows(tmp_path):
    path = tmp_path / "dtb.csv"
    path.write_text("session,ref_node,node_id,mean_m,std_m,n_samples\n"
                    "s,1,2,1.0,0.1,5\ns,1,2,1.1,0.1,5\n")
    with pytest.raises(ParseError):
        read_dtb(path)


def test_read_rejects_negative_std(tmp_path):
    path = tmp_path / "dtb.csv"
    path.write_text("session,ref_node,node_id,mean_m,std_m,n_samples\n"
                    "s,1,2,1.0,-1.0,5\n")
    with pytest.raises(ParseError):
        read_dtb(path)


def test_table_mean_of_reference_is_zero():
    table = DtbTable("1", {"2": DtbEntry(-3.0, 0.1, 5)})
    assert table.mean("1") == 0.0
    assert table.mean("2") == -3.0
    with pytest.raises(UnknownNode):
        table.mean("9")
