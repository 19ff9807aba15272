import math
import random
from collections import Counter

import numpy as np
import pytest

from tdoa_dtb.cli import main
from tdoa_dtb.dtb import calibrate
from tdoa_dtb.errors import ParseError, TdoaDtbError
from tdoa_dtb.geometry import NodeCatalog, Position, node_sort_key
from tdoa_dtb.ingestion import (SPEED_OF_LIGHT, ReferenceTrajectory, Session,
                                group_epochs, load_toa_session, write_toa_csv,
                                write_trajectory_csv, load_trajectory)
from tdoa_dtb.noise import NoiseModel
from tdoa_dtb.synthetic import ClockModel, Scenario, generate
from tdoa_dtb.table import write_csv

from conftest import epochs_of, loop_waypoints, eight_node_catalog


def _write(path, text):
    path.write_text(text)
    return path


def _toa_rows_file(path, rows):
    write_csv(path, ["time", "node_id", "toa", "rsrp"], rows)
    return path


def session_files(tmp_path, toa_text=None):
    toa = _write(tmp_path / "toa.csv", toa_text or
                 "time,node_id,toa,rsrp\n"
                 "10.0,1,65.0,-80\n"
                 "10.0,2,62.0,-85\n"
                 "10.0,3,70.0,\n"
                 "11.0,1,64.0,-80\n")
    nodes = _write(tmp_path / "nodes.csv",
                   "node_id,x,y\n1,0,0\n2,10,0\n3,0,10\n")
    traj = _write(tmp_path / "traj.csv",
                  "time,x,y\n9.0,0,0\n12.0,3,0\n")
    return toa, nodes, traj


def test_grouping_same_timestamp(tmp_path):
    toa, _, _ = session_files(tmp_path)
    session = load_toa_session(toa)
    assert session == Session(["1", "2", "3"], [0, 1, 2, 0], [65.0, 62.0, 70.0, 64.0],
                              [-80.0, -85.0, None, -80.0], [10.0, 11.0], [0, 3, 4])
    # missing rsrp flagged as None
    assert epochs_of(session)[0] == (10.0, {"1": (65.0, -80.0), "2": (62.0, -85.0),
                                           "3": (70.0, None)})


def test_seconds_unit_conversion(tmp_path):
    toa = _write(tmp_path / "toa.csv", "time,node_id,toa,rsrp\n0.0,1,2.0e-7,\n")
    (pseudorange,) = load_toa_session(toa, unit_mode="seconds").pseudorange
    assert pseudorange == pytest.approx(2.0e-7 * SPEED_OF_LIGHT, abs=1e-9)
    assert pseudorange == pytest.approx(59.9584916, abs=1e-6)


def test_seconds_unit_implausible(tmp_path):
    # values already in meters declared as seconds blow past light-travel bounds
    toa = _write(tmp_path / "toa.csv", "time,node_id,toa,rsrp\n0.0,1,65.0,\n")
    with pytest.raises(ParseError, match=r":2: converted pseudorange 1\.949e\+10 m exceeds "
                                         "plausible light-travel bounds") as exc:
        load_toa_session(toa, unit_mode="seconds")
    assert (exc.value.path, exc.value.line) == (toa, 2)


def test_unknown_node(tmp_path, capsys):
    """calibrate on a ToA file observing a node the nodes file lacks exits 2
    with UnknownNode naming it, and writes no table."""
    toa, nodes, traj = session_files(
        tmp_path, "time,node_id,toa,rsrp\n10.0,99,65.0,\n")
    out = tmp_path / "dtb.csv"
    assert main(["calibrate", "--toa", str(toa), "--nodes", str(nodes), "--traj", str(traj),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "UnknownNode: node '99' not in catalog" in err and "Traceback" not in err
    assert not out.exists()


def test_parse_error_carries_line(tmp_path):
    toa, _, _ = session_files(
        tmp_path, "time,node_id,toa,rsrp\n10.0,1,65.0,\nbad,1,1.0,\n")
    with pytest.raises(ParseError) as exc:
        load_toa_session(toa)
    assert exc.value.line == 3


def test_grouping_is_a_partition(tmp_path):
    """On random rows and tolerances, load_toa_session either names a duplicate
    node or puts every row in the one epoch whose [time, time + tol] holds it,
    each epoch's rows in node_sort_key order."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    finite = st.floats(-1e3, 1e3, allow_nan=False)
    row = st.tuples(st.sampled_from([0.0, 0.0004, 0.0009, 0.0015, 0.5, 1.0, 1.0007, 2.0]),
                    st.sampled_from(["1", "2", "3", "10", "a", "b"]),
                    finite, st.none() | finite)

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(st.lists(row, max_size=30),
                      st.sampled_from([0.0, 1e-3, 2e-3, 0.6, 1.5]))
    def check(rows, tol):
        path = _toa_rows_file(tmp_path / "toa.csv", rows)
        if not rows:
            with pytest.raises(TdoaDtbError, match="no observations"):
                load_toa_session(path, epoch_tol=tol)
            return
        try:
            session = load_toa_session(path, epoch_tol=tol)
        except TdoaDtbError as exc:
            node = str(exc).split("'")[1]
            assert str(exc).startswith(f"{path}: duplicate node {node!r} in epoch at t=")
            assert sum(1 for r in rows if r[1] == node) > 1
            return
        assert session.node_ids == sorted({r[1] for r in rows}, key=node_sort_key)
        starts = session.starts
        assert starts[0] == 0 and starts[-1] == len(rows) == len(session.node)
        assert len(starts) == len(session.times) + 1
        assert all(end > start for start, end in zip(starts, starts[1:]))
        for start, end in zip(starts, starts[1:]):   # node order, no node twice
            assert all(a < b for a, b in zip(session.node[start:end - 1],
                                             session.node[start + 1:end]))
        epochs = epochs_of(session)
        times = [t for t, _ in epochs]
        assert all(t1 - t0 > tol for t0, t1 in zip(times, times[1:]))
        assert Counter((n, *o) for _, obs in epochs for n, o in obs.items()) == \
            Counter((n, p, r) for _, n, p, r in rows)
        members = {t: [] for t in times}
        for t, n, p, r in rows:
            (home,) = [(time, obs) for time, obs in epochs if time <= t <= time + tol]
            assert home[1][n] == (p, r)
            members[home[0]].append((t, node_sort_key(n), n))
        for time, obs in epochs:
            assert time == min(members[time])[0]
            assert list(obs) == sorted({n for *_, n in members[time]}, key=node_sort_key)

    check()


def test_epoch_rejects_duplicate_node(tmp_path):
    path = _toa_rows_file(tmp_path / "toa.csv", [(0.0, "1", 1.0, None), (0.0005, "2", 1.0, None),
                                                 (0.0008, "1", 2.0, None)])
    with pytest.raises(TdoaDtbError, match=r"duplicate node '1' in epoch at t=0.0"):
        load_toa_session(path)


def test_duplicate_node_in_rows_already_in_order_is_rejected(tmp_path):
    """Rows in time and node order, as a file written from a session holds
    them, but for one node twice: the grouping that skips the sorts names it."""
    path = _toa_rows_file(tmp_path / "toa.csv", [(0.0, "1", 1.0, None), (0.0, "2", 1.0, None),
                                                 (0.0, "2", 2.0, None), (0.1, "1", 1.0, None)])
    with pytest.raises(TdoaDtbError, match=r"duplicate node '2' in epoch at t=0.0"):
        load_toa_session(path)


@pytest.mark.parametrize("nodes", ["3232", "2323"])
def test_duplicate_error_names_the_first_duplicated_node_in_node_order(tmp_path, nodes):
    """An epoch holding two duplicated nodes, its rows at four times within the
    tolerance, names the first of them in node order, whatever the times."""
    rows = [(t, node_id, 1.0, None) for t, node_id in zip((0.0, 0.0002, 0.0004, 0.0006), nodes)]
    with pytest.raises(TdoaDtbError, match=r"duplicate node '2' in epoch at t=0.0"):
        load_toa_session(_toa_rows_file(tmp_path / "toa.csv", rows))


def test_obs_is_in_node_sort_key_order(tmp_path):
    """Loaded and generated sessions hold each epoch's rows in node_sort_key
    order, whatever the row order of the file, and calibrate returns each
    epoch's samples in that order."""
    ids = ["10", "9", "2", "a", " b", "1.5", "B"]
    rows = [(t, node_id, 100.0 * t + i, None if i % 3 else -70.0 - i)
            for t in (0.0, 0.1, 0.2) for i, node_id in enumerate(ids)]
    # an epoch whose rows differ in time within the tolerance
    rows += [(0.3, "9", 1.0, None), (0.3002, "10", 2.0, None), (0.3004, "2", 3.0, None)]
    random.Random(3).shuffle(rows)
    session = load_toa_session(_toa_rows_file(tmp_path / "toa.csv", rows))
    order = ["1.5", "2", "9", "10", "B", "a", "b"]
    assert session.node_ids == order
    epochs = epochs_of(session)
    assert [list(obs) for _, obs in epochs] == [order] * 3 + [["2", "9", "10"]]
    traj = ReferenceTrajectory([(0.0, Position(1.0, 1.0)), (1.0, Position(5.0, 1.0))])
    on_track = NodeCatalog({node_id: Position(3.0 * i, i % 2) for i, node_id in enumerate(order)})
    for ref in order:
        _, samples = calibrate(session, traj, on_track, ref)
        assert [(t, node_id) for t, node_id, _ in samples] == \
            [(t, n) for t, obs in epochs if ref in obs for n in obs if n != ref]

    catalog = NodeCatalog({node_id: Position(3.0 * i, i % 2) for i, node_id in enumerate(ids)})
    sim = generate(Scenario(catalog=catalog, waypoints=[(1.0, 1.0), (5.0, 1.0)],
                            epoch_rate=2.0))
    for _, obs in epochs_of(sim.toa):
        assert list(obs) == sorted(ids, key=node_sort_key)


def test_generated_session_round_trips_through_a_toa_file(tmp_path):
    """generate, write_toa_csv and load_toa_session give back an equal Session:
    the one grouping path serves the simulator and the loader alike."""
    scenario = Scenario(
        catalog=eight_node_catalog(), node_biases={"3": 4.0, "7": -9.5},
        rover_clock=ClockModel(kind="sawtooth", drift_rate=10.0, reset_period=5.0,
                               reset_magnitude=50.0),
        waypoints=loop_waypoints(), speed=1.0, epoch_rate=10.0,
        noise=NoiseModel(60.0, -110.0), seed=31, duration=30.0)
    session = generate(scenario).toa
    write_toa_csv(session, tmp_path / "toa.csv")
    assert load_toa_session(tmp_path / "toa.csv") == session
    assert len(session.times) == 301 and len(session.node) == 8 * 301


def test_shuffled_rows_group_into_the_sorted_session():
    """Rows out of time or node order give the Session that the same rows in
    order give without a sort."""
    session = generate(Scenario(catalog=eight_node_catalog(), waypoints=loop_waypoints(),
                                epoch_rate=10.0, noise=NoiseModel(60.0, -110.0), seed=5,
                                duration=10.0)).toa
    counts = [end - start for start, end in zip(session.starts, session.starts[1:])]
    rows = list(zip([t for t, n in zip(session.times, counts) for _ in range(n)],
                    map(session.node_ids.__getitem__, session.node),
                    session.pseudorange, session.rsrp))
    assert group_epochs(*map(list, zip(*rows))) == session
    random.Random(11).shuffle(rows)
    assert group_epochs(*map(list, zip(*rows))) == session
    rows.sort(key=lambda row: row[0])   # in time order, each epoch's nodes shuffled
    assert group_epochs(*map(list, zip(*rows))) == session


def test_interpolate_midpoint():
    traj = ReferenceTrajectory([(0.0, Position(0, 0)), (10.0, Position(10, 0))])
    p = traj.interpolate(5.0)
    assert (p.x, p.y) == (5.0, 0.0)


def test_interpolate_knot_identity():
    traj = ReferenceTrajectory([(0.0, Position(0, 0)), (4.0, Position(2, 2)),
                                (8.0, Position(2, 6))])
    p = traj.interpolate(4.0)
    assert (p.x, p.y) == (2.0, 2.0)


def test_interpolate_piecewise():
    traj = ReferenceTrajectory([(0.0, Position(0, 0)), (4.0, Position(2, 2)),
                                (8.0, Position(2, 6))])
    p = traj.interpolate(6.0)
    assert p.x == pytest.approx(2.0, abs=1e-12)
    assert p.y == pytest.approx(4.0, abs=1e-12)


def test_interpolate_matches_numpy_reference():
    """Per-coordinate (1-w)*a + w*b against the numpy row arithmetic it
    replaced, at seeded times inside segments, on knots and at both ends."""
    rng = np.random.default_rng(9)
    times = np.cumsum(rng.uniform(0.01, 3.0, 60))
    xyz = rng.normal(0.0, 50.0, (60, 3))
    traj = ReferenceTrajectory([(float(t), Position(*map(float, row)))
                                for t, row in zip(times, xyz)])
    queries = np.concatenate([rng.uniform(times[0], times[-1], 500), times])
    for t in queries.tolist():
        i0 = min(int(np.searchsorted(times, t, side="right")) - 1, len(times) - 1)
        if t == times[i0]:
            want = xyz[i0]
        else:
            w = (t - times[i0]) / (times[i0 + 1] - times[i0])
            want = (1.0 - w) * xyz[i0] + w * xyz[i0 + 1]
        p = traj.interpolate(t)
        assert (p.x, p.y, p.z) == tuple(want.tolist())


def test_interpolate_out_of_range():
    """Outside the time span, and at a nan time, there is no position; each
    end of the span gives its own sample."""
    traj = ReferenceTrajectory([(0.0, Position(0, 0)), (10.0, Position(10, 0))])
    for t in (10.5, -0.1, math.nan, math.inf):
        assert traj.interpolate(t) is None
    assert traj.interpolate(0.0) == Position(0, 0)
    assert traj.interpolate(10.0) == Position(10, 0)


@pytest.mark.parametrize("t0,t1", [(0.0, 0.0), (1.0, 0.0), (-1e308, 1e308)],
                         ids=["repeated", "decreasing", "step-past-float-range"])
def test_trajectory_needs_increasing_times(t0, t1):
    with pytest.raises(ValueError, match="^trajectory times must be strictly increasing"):
        ReferenceTrajectory([(t0, Position(0, 0)), (t1, Position(1, 0))])


def test_session_round_trip(tmp_path):
    toa, _, traj = session_files(tmp_path)
    session, trajectory = load_toa_session(toa), load_trajectory(traj)

    toa2 = tmp_path / "toa2.csv"
    traj2 = tmp_path / "traj2.csv"
    write_toa_csv(session, toa2)
    write_trajectory_csv(trajectory, traj2)
    session2, trajectory2 = load_toa_session(toa2), load_trajectory(traj2)

    assert session2 == session
    assert (trajectory2.times, trajectory2.xyz) == (trajectory.times, trajectory.xyz)

    # a second write of what was read gives the same bytes
    toa3 = tmp_path / "toa3.csv"
    traj3 = tmp_path / "traj3.csv"
    write_toa_csv(session2, toa3)
    write_trajectory_csv(trajectory2, traj3)
    assert toa3.read_bytes() == toa2.read_bytes()
    assert traj3.read_bytes() == traj2.read_bytes()
    assert toa2.read_bytes().splitlines(keepends=True)[3] == b"10.0,3,70.0,\r\n"


def test_trajectory_file_times_must_increase(tmp_path):
    path = _write(tmp_path / "t.csv", "time,x,y\n0,0,0\n1,1,0\n1,2,0\n")
    with pytest.raises(ParseError) as exc:
        load_trajectory(path)
    assert exc.value.line == 4


def test_trajectory_too_short(tmp_path):
    path = _write(tmp_path / "t.csv", "time,x,y\n0,0,0\n")
    with pytest.raises(ParseError):
        load_trajectory(path)
