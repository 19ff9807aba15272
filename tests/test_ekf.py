import math
import random
import statistics
from pathlib import Path

import numpy as np
import pytest

from tdoa_dtb.differencing import reference_rows
from tdoa_dtb.dtb import DtbEntry, DtbTable, calibrate, mean_std, rereference_dtb
from tdoa_dtb.ekf import (INNOVATION_GATE, PSD_TOL, TrackPoint, _check_state, init_apriori,
                          read_residuals_csv, read_track_csv, run_filter, session_model,
                          update, write_residuals_csv, write_track_csv)
from tdoa_dtb.errors import TdoaDtbError, UnknownNode
from tdoa_dtb.geometry import NodeCatalog, Position, node_sort_key, range_between, read_nodes
from tdoa_dtb.ingestion import Session, load_toa_session, load_trajectory
from tdoa_dtb.metrics import true_error
from tdoa_dtb.noise import NoiseModel, estimate_noise_points, fit_noise_model, sigma_for
from tdoa_dtb.synthetic import ClockModel, Scenario, generate, truth_dtb

from conftest import (eight_node_catalog, epochs_of, loop_waypoints, measurement_model, sd_range,
                      session_of, square_catalog)

WIDE_NOISE = NoiseModel(60.0, -110.0, sigma_floor=0.3, sigma_cap=15.0)
GOLDEN = Path(__file__).resolve().parent / "data" / "golden"


def empty_dtb(catalog, ref):
    return DtbTable(ref, {n: DtbEntry(0.0, 0.0, 1) for n in catalog.ids() if n != ref})


def positioning_scenario(seed=0, noise=0.0, biases=None, **kwargs):
    catalog = eight_node_catalog(30.0)
    defaults = dict(
        catalog=catalog,
        node_biases=biases or {},
        waypoints=loop_waypoints(30.0),
        speed=1.0,
        epoch_rate=2.0,
        noise=noise,
        seed=seed,
    )
    defaults.update(kwargs)
    return Scenario(**defaults)


def run_synthetic(scenario, dtb=None):
    session = generate(scenario)
    dtb = dtb or truth_dtb(scenario, "1")
    track, residuals = run_filter(session.toa, dtb, session.catalog, WIDE_NOISE)
    return session, track, residuals


def test_init_apriori_square():
    x, y, a, b, d = init_apriori(NodeCatalog({
        "1": Position(0, 0), "2": Position(10, 0),
        "3": Position(0, 10), "4": Position(10, 10)}))
    assert (x, y) == pytest.approx([5.0, 5.0])
    assert a == pytest.approx(100.0 / 3.0)
    assert d == pytest.approx(100.0 / 3.0)
    assert b == 0.0


def test_init_apriori_variance_floor():
    state = init_apriori(NodeCatalog({"1": Position(0, 0), "2": Position(0, 100)}))
    assert state[2] == 1.0   # coincident x floored to 1 m^2


def test_init_apriori_matches_numpy_reference():
    """Stdlib mean and ddof=1 variance against numpy's on seeded layouts:
    2 to 64 nodes, spreads from 0.1 m to 10 km, offsets up to 1e6 m, and
    layouts narrow enough on one axis for the 1 m^2 floor."""
    rng = np.random.default_rng(2024)
    floored = 0
    for _ in range(300):
        n = int(rng.integers(2, 65))
        scale = 10.0 ** rng.uniform(-1.0, 4.0, 2)
        xy = rng.normal(size=(n, 2)) * scale + rng.uniform(-1e6, 1e6, 2)
        catalog = NodeCatalog({str(i): Position(float(x), float(y))
                               for i, (x, y) in enumerate(xy)})
        x, y, a, b, d = init_apriori(catalog)
        want_var = np.maximum(xy.var(axis=0, ddof=1), 1.0)
        floored += int(np.sum(want_var == 1.0))
        assert [x, y] == pytest.approx(xy.mean(axis=0).tolist(), rel=1e-12, abs=1e-12)
        assert [a, d] == pytest.approx(want_var.tolist(), rel=1e-12, abs=1e-12)
        assert b == 0.0
    assert floored > 0


def test_init_apriori_is_mean_std_of_the_node_coordinates():
    """Each axis's mean and floored variance are mean_std's mean and squared
    std, bit for bit, on seeded samples of 2 to 64 values, scales from 1e-3 to
    1e6 and offsets up to 1e6. The mean is statistics.fmean, bit for bit, and
    the variance statistics.variance to within 1e-12. Coordinates whose
    variance leaves the float range give a non-finite prior, which run_filter
    refuses at the first epoch's time."""
    rng = random.Random(21)
    for _ in range(3000):
        n = rng.randint(2, 64)
        scale, offset = 10.0 ** rng.uniform(-3.0, 6.0), rng.uniform(-1e6, 1e6)
        xs = [offset + scale * rng.gauss(0.0, 1.0) for _ in range(n)]
        ys = [float(i) for i in range(n)]
        state = init_apriori(NodeCatalog({str(i): Position(x, y)
                                          for i, (x, y) in enumerate(zip(xs, ys))}))
        (mean, std), (mean_y, std_y) = mean_std(xs), mean_std(ys)
        assert state == (mean, mean_y, max(std * std, 1.0), 0.0, max(std_y * std_y, 1.0))
        assert mean == statistics.fmean(xs)
        assert std * std == pytest.approx(statistics.variance(xs), rel=1e-12)
    # sqrt(13) squared is 13 to an ulp, not exactly
    assert mean_std([3.0, 5.0, 10.0])[1] ** 2 == pytest.approx(13.0, rel=2.0 ** -52)
    for xs in ([1e308, -1e308], [1.7e308, 1.7e308, -1.7e308], [0.0, 2e154, -2e154]):
        catalog = NodeCatalog({str(i): Position(x, i) for i, x in enumerate(xs)})
        session = session_of([(t, {n: (0.0, -70.0) for n in catalog.ids()}) for t in (2.5, 3.0)])
        with pytest.raises(TdoaDtbError) as exc:
            run_filter(session, empty_dtb(catalog, "0"), catalog, WIDE_NOISE)
        assert str(exc.value) == "filter state at t=2.5: non-finite filter covariance"


def test_state_rejects_indefinite_covariance():
    with pytest.raises(ValueError, match="not PSD"):
        _check_state(0.0, 0.0, 1.0, 2.0, 1.0)   # eigenvalues 3, -1


def test_state_accepts_near_singular_psd_covariance():
    _check_state(0.0, 0.0, 1e-12, 0.0, 1.0)


def test_state_rejects_non_finite_covariance():
    with pytest.raises(ValueError, match="non-finite"):
        _check_state(0.0, 0.0, math.nan, 0.0, 1.0)


def test_psd_check_agrees_with_eigvalsh():
    """The closed-form 2x2 check raises exactly when eigvalsh finds an eigenvalue
    below PSD_TOL, on random symmetric matrices clear of the tolerance."""
    rng = np.random.default_rng(17)
    checked = 0
    for _ in range(2000):
        scale = 10.0 ** rng.uniform(-3, 3)
        a, b, d = (rng.normal(size=3) * scale).tolist()
        min_eig = np.linalg.eigvalsh(np.array([[a, b], [b, d]])).min()
        if abs(min_eig - PSD_TOL) < 1e-6 * scale:
            continue
        checked += 1
        if min_eig < PSD_TOL:
            with pytest.raises(ValueError, match="not PSD"):
                _check_state(0.0, 0.0, a, b, d)
        else:
            _check_state(0.0, 0.0, a, b, d)
    assert checked > 1900


@pytest.mark.parametrize("times", [(0.0, 0.5, 4.5), (10.0, 10.25, 13.0)])
def test_epoch_without_a_difference_keeps_the_prediction(times):
    """Epochs that hold a single node have no difference: x, y and cov_xy are
    the previous epoch's, and each variance grows by 0.25 dt, dt taken from
    the two epochs' times."""
    catalog = NodeCatalog({"1": Position(0.0, 0.0), "2": Position(20.0, 0.0),
                           "3": Position(25.0, 20.0), "4": Position(0.0, 15.0)})
    rover = Position(3.0, 7.0)
    first = {n: (range_between(rover, p), -70.0) for n, p in catalog.items()}
    session = session_of([(times[0], first), *((t, {"2": (0.0, -70.0)}) for t in times[1:])])
    track, _ = run_filter(session, empty_dtb(catalog, "1"), catalog, WIDE_NOISE)
    assert track[0].n_obs == 3 and track[0].cov_xy != 0.0
    for before, after in zip(track, track[1:]):
        dt = after.time - before.time
        assert (after.x, after.y, after.cov_xy) == (before.x, before.y, before.cov_xy)
        assert after.cov_xx == before.cov_xx + 0.25 * dt
        assert after.cov_yy == before.cov_yy + 0.25 * dt
        assert (after.n_obs, after.n_rejected) == (0, 0)
    assert [p.time for p in track] == list(times)


def test_measurement_model_collinear():
    catalog = NodeCatalog({"n": Position(10, 0), "m": Position(-10, 0)})
    dtb = empty_dtb(catalog, "m")
    predicted, (hx, hy) = measurement_model(0.0, 0.0, "n", dtb, catalog)
    assert predicted == 0.0
    assert hx == pytest.approx(-2.0, abs=1e-12)
    assert hy == pytest.approx(0.0, abs=1e-12)


def test_measurement_model_singular():
    """A rover on a node, the reference or not, takes that range's partials
    as 0: the subgradient of a distance at its own point."""
    catalog = NodeCatalog({"n": Position(10, 0), "m": Position(-10, 0)})
    dtb = empty_dtb(catalog, "m")
    assert measurement_model(10.0, 0.0, "n", dtb, catalog) == (-20.0, (-1.0, 0.0))
    assert measurement_model(-10.0, 0.0, "n", dtb, catalog) == (20.0, (-1.0, 0.0))


def test_measurement_model_applies_dtb():
    catalog = NodeCatalog({"n": Position(10, 0), "m": Position(-10, 0)})
    dtb = DtbTable("m", {"n": DtbEntry(-3.0, 0.0, 1)})
    predicted, _ = measurement_model(0.0, 0.0, "n", dtb, catalog)
    assert predicted == -3.0


def test_jacobian_matches_finite_differences():
    """Central finite differences over 1000 random geometries, < 1e-6 m/m."""
    rng = np.random.default_rng(99)
    step = 1e-4
    worst = 0.0
    trials = 0
    while trials < 1000:
        nx, ny, mx, my, rx, ry = rng.uniform(-50, 50, 6)
        catalog_positions = {"n": Position(nx, ny), "m": Position(mx, my)}
        try:
            catalog = NodeCatalog(catalog_positions)
        except ValueError:
            continue
        rover = np.array([rx, ry])
        if (np.hypot(rx - nx, ry - ny) < 0.1 or np.hypot(rx - mx, ry - my) < 0.1):
            continue
        trials += 1
        dtb = empty_dtb(catalog, "m")

        def predicted_at(pos):
            return measurement_model(*pos, "n", dtb, catalog)[0]

        _, (hx, hy) = measurement_model(*rover, "n", dtb, catalog)
        fd_x = (predicted_at(rover + [step, 0]) - predicted_at(rover - [step, 0])) / (2 * step)
        fd_y = (predicted_at(rover + [0, step]) - predicted_at(rover - [0, step])) / (2 * step)
        worst = max(worst, abs(hx - fd_x), abs(hy - fd_y))
    assert worst < 1e-6


def test_update_all_gated_leaves_prediction():
    catalog = square_catalog()
    dtb = empty_dtb(catalog, "1")
    state = (10.0, 10.0, 0.01, 0.0, 0.01)
    # absurd measurement far outside the gate
    epoch = session_of([(0.0, {"1": (0.0, None), "2": (500.0, None)})])
    new_state, postfits, n_rejected = update(
        state, epoch, 0, *session_model(epoch, dtb, catalog, WIDE_NOISE))
    assert len(postfits) == 0
    assert n_rejected == 1
    assert new_state == state


def test_update_reduces_covariance_trace():
    scenario = positioning_scenario()
    session = generate(scenario)
    dtb = truth_dtb(scenario, "1")
    state = init_apriori(session.catalog)
    new_state, postfits, _ = update(
        state, session.toa, 0, *session_model(session.toa, dtb, session.catalog, WIDE_NOISE))
    assert len(postfits) == session.toa.starts[1] - 1
    assert new_state[2] + new_state[4] < state[2] + state[4]   # the trace


def reference_update(state, session, epoch, dtb, catalog, noise):
    """The Kalman-gain form of update: n-by-n S, its inverse and the Joseph
    covariance, kept as the oracle for the information-form update. It reads
    epoch k of the session by node id, differences it itself and takes
    sigma_ref anew for every difference. States are (x, y, P_xx, P_xy, P_yy),
    the covariance returned symmetrised; postfits are keyed by node index."""
    ids = session.node_ids
    obs = {ids[session.node[row]]: (session.pseudorange[row], session.rsrp[row])
           for row in range(session.starts[epoch], session.starts[epoch + 1])}
    ref = dtb.ref_node_id
    ref_pseudorange, rsrp_ref = obs[ref]
    r_ref = sigma_for(noise, rsrp_ref) ** 2
    x, y, a, b, d = state
    p = np.array([[a, b], [b, d]])
    rows = []
    rejected = 0
    for node_id in sorted(obs, key=node_sort_key):
        if node_id == ref:
            continue
        pseudorange, rsrp = obs[node_id]
        sd = pseudorange - ref_pseudorange
        predicted, h = measurement_model(x, y, node_id, dtb, catalog)
        r_var = sigma_for(noise, rsrp) ** 2 + sigma_for(noise, rsrp_ref) ** 2
        innovation = sd - predicted
        hvec = np.array(h)
        s = float(hvec @ p @ hvec + r_var)
        if abs(innovation) > INNOVATION_GATE * np.sqrt(s):
            rejected += 1
            continue
        rows.append(((node_id, sd), innovation, hvec, r_var))
    if not rows:
        return state, [], rejected
    h_mat = np.array([r[2] for r in rows])
    innovations = np.array([r[1] for r in rows])
    r_mat = np.diag([r[3] - r_ref for r in rows]) + r_ref   # diag(sigma_n^2) + sigma_ref^2 11'
    s_mat = h_mat @ p @ h_mat.T + r_mat
    gain = p @ h_mat.T @ np.linalg.inv(s_mat)
    x, y = (np.array([x, y]) + gain @ innovations).tolist()
    ikh = np.eye(2) - gain @ h_mat
    (a, b), (c, d) = (ikh @ p @ ikh.T + gain @ r_mat @ gain.T).tolist()
    new_state = (x, y, a, 0.5 * (b + c), d)
    postfits = [(ids.index(node_id), sd - measurement_model(x, y, node_id, dtb, catalog)[0])
                for (node_id, sd), _, _, _ in rows]
    return new_state, postfits, rejected


def random_epoch(rng, n_nodes, at_node=None):
    """One epoch differenced against node "1" with noise, blunders and blank rsrp.

    Returns (state, session, dtb, catalog), the session holding the one epoch;
    node "1" has pseudorange 0, so every
    other node's pseudorange is its single difference. The state sits near the
    true rover, or exactly on node at_node when it is given.
    """
    ids = [str(i + 1) for i in range(n_nodes)]
    catalog = NodeCatalog({i: Position(*rng.uniform(0.0, 120.0, 2)) for i in ids})
    dtb = DtbTable("1", {i: DtbEntry(float(rng.uniform(-20, 20)), 0.0, 1) for i in ids[1:]})
    rover = Position(*rng.uniform(10.0, 110.0, 2))
    guess = ((catalog[at_node].x, catalog[at_node].y) if at_node else
             (rover.x + rng.normal(), rover.y + rng.normal()))
    root = rng.normal(size=(2, 2)) * 10.0 ** rng.uniform(-1, 1.5)
    (a, b), (_, d) = (root @ root.T + 1e-3 * np.eye(2)).tolist()
    state = (float(guess[0]), float(guess[1]), a, b, d)
    rsrp_ref = None if rng.random() < 0.2 else float(rng.uniform(-105, -50))
    obs = {"1": (0.0, rsrp_ref)}
    for node_id in ids[1:]:
        sd = (sd_range(rover, catalog[node_id], catalog["1"]) + dtb.mean(node_id)
              + rng.normal(0.0, 1.0))
        if rng.random() < 0.1:
            sd += rng.uniform(200.0, 500.0)   # blunder well outside the gate
        rsrp = None if rng.random() < 0.1 else float(rng.uniform(-105, -50))
        obs[node_id] = (sd, rsrp)
    return state, session_of([(0.0, obs)]), dtb, catalog


def assert_updates_agree(got, want):
    (state, postfits, rejected), (ref_state, ref_postfits, ref_rejected) = got, want
    assert rejected == ref_rejected
    assert [n for n, _ in postfits] == [n for n, _ in ref_postfits]
    assert np.abs(np.subtract(state[:2], ref_state[:2])).max() <= 1e-9
    scale = np.abs(ref_state[2:]).max()
    assert np.abs(np.subtract(state[2:], ref_state[2:])).max() <= 1e-12 * scale
    assert np.allclose([v for _, v in postfits], [v for _, v in ref_postfits],
                       rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("n_nodes", [8, 64])
def test_update_matches_kalman_gain_reference(n_nodes):
    """Information-form update against the Kalman-gain oracle on random epochs,
    including gated blunders, a rover on node "2" (trials 1, 11, 21 and 31) or
    on the reference (the last 4), blank rsrp and a singular prior."""
    rng = np.random.default_rng(n_nodes)
    n_rejected = n_blank = 0
    updated = {"1": 0, "2": 0}   # on-node trials that applied a difference
    for trial in range(44):
        at_node = "1" if trial >= 40 else "2" if trial % 10 == 1 else None
        state, epoch, dtb, catalog = random_epoch(rng, n_nodes, at_node)
        if trial == 0:
            state = (*state[:2], 1e-12, 0.0, 1.0)
        got = update(state, epoch, 0, *session_model(epoch, dtb, catalog, WIDE_NOISE))
        assert_updates_agree(got, reference_update(state, epoch, 0, dtb, catalog, WIDE_NOISE))
        n_rejected += got[2]
        if at_node:
            updated[at_node] += bool(got[1])
        n_blank += sum(rsrp is None for n, rsrp in zip(epoch.node, epoch.rsrp)
                       if epoch.node_ids[n] != "1")
    assert n_rejected > 0 and n_blank > 0 and min(updated.values()) > 0


def test_run_filter_matches_kalman_gain_reference(monkeypatch):
    scenario = positioning_scenario(noise=1.0, seed=7, duration=60.0)
    session = generate(scenario)
    dtb = truth_dtb(scenario, "1")
    track, residuals = run_filter(session.toa, dtb, session.catalog, WIDE_NOISE)
    epochs = []

    def oracle(state, toa, epoch, *_):
        epochs.append(epoch)
        return reference_update(state, toa, epoch, dtb, session.catalog, WIDE_NOISE)

    monkeypatch.setattr("tdoa_dtb.ekf.update", oracle)
    want = run_filter(session.toa, dtb, session.catalog, WIDE_NOISE)
    assert epochs == list(range(len(session.toa.times)))   # once per epoch
    assert_runs_agree((track, residuals), want)


def assert_runs_agree(got, want):
    (track, residuals), (ref_track, ref_residuals) = got, want
    assert [(p.time, p.n_obs, p.n_rejected) for p in track] == \
        [(p.time, p.n_obs, p.n_rejected) for p in ref_track]
    assert [r[:2] for r in residuals] == [r[:2] for r in ref_residuals]
    for p, q in zip(track, ref_track):
        assert abs(p.x - q.x) <= 1e-9 and abs(p.y - q.y) <= 1e-9
        cov, ref_cov = (np.array([r.cov_xx, r.cov_xy, r.cov_yy]) for r in (p, q))
        assert np.abs(cov - ref_cov).max() <= 1e-12 * np.abs(ref_cov).max()
    assert np.allclose([r[2] for r in residuals], [r[2] for r in ref_residuals],
                       rtol=0.0, atol=1e-9)


def test_zero_noise_convergence():
    """Exact DTB and noiseless data: position error under 1 mm within 20 epochs.

    The filter must be told the measurements are exact, otherwise it keeps a
    tracking lag proportional to the assumed noise.
    """
    tight = NoiseModel(0.01, -110.0, sigma_floor=1e-4, sigma_cap=0.01)
    # slow rover keeps the per-epoch linearization error well below 1 mm
    scenario = positioning_scenario(noise=0.0, biases={"2": 5.0, "5": -4.0},
                                    speed=0.1, duration=25.0)
    session = generate(scenario)
    track, _ = run_filter(session.toa, truth_dtb(scenario, "1"),
                          session.catalog, tight)
    for p in track[20:40]:
        ref = session.trajectory.interpolate(p.time)
        err = np.hypot(p.x - ref.x, p.y - ref.y)
        assert err < 1e-3


@pytest.mark.parametrize("node_id", ["2", "1"], ids=["node", "reference"])
def test_rover_parked_on_a_node_is_followed_when_it_moves(node_id):
    """A noiseless rover parked on a node for 150 epochs at 2 Hz, then moving
    at 0.1 m/s towards the layout's centre for 150 more: the estimate reaches
    the node, where that range's partials are 0, and follows the rover off it,
    applying every difference of every epoch."""
    catalog = eight_node_catalog(30.0)
    start = catalog[node_id]
    heading = np.subtract((15.0, 15.0), (start.x, start.y))
    heading /= np.hypot(*heading)
    rovers = [Position(*((start.x, start.y) + 0.05 * max(k - 149, 0) * heading))
              for k in range(300)]
    epochs = [(0.5 * k, {n: (range_between(rover, p), -60.0) for n, p in catalog.items()})
              for k, rover in enumerate(rovers)]
    track, _ = run_filter(session_of(epochs), empty_dtb(catalog, "1"), catalog, WIDE_NOISE)
    assert [(p.n_obs, p.n_rejected) for p in track] == [(7, 0)] * 300
    errors = [np.hypot(p.x - r.x, p.y - r.y) for p, r in zip(track, rovers)]
    assert max(errors[100:150]) < 1e-6   # on the node
    assert max(errors[-20:]) < 0.2   # 7.5 m off it, behind by the random walk's lag


def test_covariance_psd_through_filter():
    scenario = positioning_scenario(noise=1.0, seed=5)
    _, track, _ = run_synthetic(scenario)
    for p in track:
        eig = np.linalg.eigvalsh(np.array([[p.cov_xx, p.cov_xy], [p.cov_xy, p.cov_yy]]))
        assert eig.min() > -1e-9


def test_divergence_without_dtb():
    """All-zero DTB on ~20 m biases ruins the track."""
    biases = {n: b for n, b in zip("12345678", [0, 22, -18, 20, -21, 19, 23, -20])}
    scenario = positioning_scenario(noise=1.0, biases=biases, seed=2)
    session, good, _ = run_synthetic(scenario)
    zeros = empty_dtb(session.catalog, "1")
    _, bad, _ = run_synthetic(scenario, dtb=zeros)
    good_err, _ = true_error(good, session.trajectory)
    bad_err, _ = true_error(bad, session.trajectory)
    assert bad_err > 10.0 * good_err


def test_rover_clock_immunity_end_to_end():
    """Sawtooth clock injected on all ToA leaves the track bit-identical."""
    biases = {"2": 5.0, "5": -4.0}
    base = dict(noise=1.0, biases=biases, seed=3, quantize=2.0 ** -20)
    _, clean, _ = run_synthetic(positioning_scenario(**base))
    saw = ClockModel(kind="sawtooth", drift_rate=16.0, reset_period=4.0,
                     reset_magnitude=64.0)
    _, clocked, _ = run_synthetic(positioning_scenario(rover_clock=saw, **base))
    for a, b in zip(clean, clocked):
        assert (a.x, a.y) == (b.x, b.y)
        assert (a.cov_xx, a.cov_xy, a.cov_yy) == (b.cov_xx, b.cov_xy, b.cov_yy)


def test_gauge_invariance_of_node_biases():
    """A common offset on every node bias is unobservable."""
    biases = {n: float(b) for n, b in zip("12345678", range(8))}
    shifted = {n: b + 7.0 for n, b in biases.items()}
    base = dict(noise=1.0, seed=4, quantize=2.0 ** -20)
    s1 = positioning_scenario(biases=biases, **base)
    s2 = positioning_scenario(biases=shifted, **base)
    assert truth_dtb(s1, "1") == truth_dtb(s2, "1")
    _, r1, _ = run_synthetic(s1)
    _, r2, _ = run_synthetic(s2)
    for a, b in zip(r1, r2):
        assert (a.x, a.y) == (b.x, b.y)


def test_postfit_residuals_centered():
    """With exact DTB and Gaussian noise the postfits are centered at zero."""
    scenario = positioning_scenario(noise=1.0, seed=6,
                                    duration=400.0, speed=0.25)
    _, _, residuals = run_synthetic(scenario)
    resid = np.array([v for _, _, v in residuals])
    sigma = resid.std(ddof=1)
    assert abs(resid.mean()) < 4.0 * sigma / np.sqrt(resid.size)


def test_run_filter_empty():
    catalog = square_catalog()
    empty = Session([], [], [], [], [], [0])
    assert run_filter(empty, empty_dtb(catalog, "1"), catalog, WIDE_NOISE) == ([], [])


def test_run_filter_single_epoch():
    scenario = positioning_scenario()
    session = generate(scenario)
    track, _ = run_filter(session_of(epochs_of(session.toa)[:1]), truth_dtb(scenario, "1"),
                          session.catalog, WIDE_NOISE)
    assert len(track) == 1
    assert track[0].n_obs == 7


def test_run_filter_differences_each_epoch_against_its_first_row(monkeypatch):
    """An epoch without the table's reference is differenced against its
    first node, and updates once, as the Kalman-gain oracle does with the
    table re-referenced to that epoch's first node."""
    scenario = positioning_scenario(noise=1.0, seed=7, duration=20.0)
    session = generate(scenario)
    dtb = truth_dtb(scenario, "1")
    epochs = epochs_of(session.toa)
    for k, stripped in ((5, "1"), (9, "12")):   # epoch 9 keeps neither node 1 nor node 2
        for node_id in stripped:
            del epochs[k][1][node_id]
    toa = session_of(epochs)
    got = run_filter(toa, dtb, session.catalog, WIDE_NOISE)
    for k, first in ((5, "2"), (9, "3")):
        t, obs = epochs[k]
        assert got[0][k].n_obs == len(obs) - 1
        assert sorted(n for time, n, _ in got[1] if time == t) == sorted(set(obs) - {first})

    calls = []

    def oracle(state, toa, epoch, *_):
        calls.append(epoch)
        node_id = toa.node_ids[toa.node[toa.starts[epoch]]]
        table = dtb if node_id == "1" else rereference_dtb(dtb, node_id)
        return reference_update(state, toa, epoch, table, session.catalog, WIDE_NOISE)

    monkeypatch.setattr("tdoa_dtb.ekf.update", oracle)
    assert_runs_agree(got, run_filter(toa, dtb, session.catalog, WIDE_NOISE))
    assert calls == list(range(len(toa.times)))   # once per epoch, those without node 1 too


@pytest.mark.parametrize("rsrp", [
    {"2": None, "3": -70.0, "4": -70.0},   # the first node's rsrp is blank, others tie
    {"2": None, "3": None, "4": None},
    {"2": -90.0, "3": -80.0, "4": None}])   # the first node is not the strongest
def test_epoch_without_the_reference_omits_its_first_nodes_residual(rsrp):
    catalog = square_catalog()
    full = {n: (0.0, -80.0) for n in "1234"}   # equal ranges from the prior at the centre
    session = session_of([(0.0, full), (0.5, {n: (0.0, r) for n, r in rsrp.items()})])
    _, residuals = run_filter(session, empty_dtb(catalog, "1"), catalog, WIDE_NOISE)
    assert sorted(n for t, n, _ in residuals if t == 0.5) == ["3", "4"]


def test_track_does_not_depend_on_the_tables_reference():
    """The golden gaps session, whose every fourth epoch lacks node 1,
    calibrated against node 1 and positioned with that table and with it
    re-referenced to every other node: the same counts, gated blunders among
    them, and positions within rounding."""
    catalog = read_nodes(GOLDEN / "nodes.csv")
    session = load_toa_session(GOLDEN / "toa_gaps.csv")
    dtb, _ = calibrate(session, load_trajectory(GOLDEN / "trajectory.csv"), catalog, "1")
    noise = fit_noise_model(estimate_noise_points(load_toa_session(GOLDEN / "toa.csv")))
    track, _ = run_filter(session, dtb, catalog, noise)
    assert 0 < sum(p.n_rejected for p in track)
    assert reference_rows(session, session.node_index("1")).count(-1) == 20
    for other in dtb.entries:
        moved, _ = run_filter(session, rereference_dtb(dtb, other), catalog, noise)
        assert [(p.time, p.n_obs, p.n_rejected) for p in moved] == \
            [(p.time, p.n_obs, p.n_rejected) for p in track]
        assert max(max(abs(p.x - q.x), abs(p.y - q.y)) for p, q in zip(moved, track)) <= 1e-9


def nine_digits(value: float) -> float:
    return float("%.9g" % value)


def test_track_and_residuals_round_trip(tmp_path):
    """Times, node ids and counts read back exactly, and each metre value as
    exactly its nine-significant-digit rounding."""
    _, track, residuals = run_synthetic(positioning_scenario(noise=1.0, duration=20.0))
    write_track_csv(track, tmp_path / "track.csv")
    write_residuals_csv(residuals, tmp_path / "residuals.csv")
    assert read_track_csv(tmp_path / "track.csv") == [
        TrackPoint(p.time, *map(nine_digits, p[1:6]), p.n_obs, p.n_rejected) for p in track]
    assert read_residuals_csv(tmp_path / "residuals.csv") == [
        (t, node_id, nine_digits(value)) for t, node_id, value in residuals]


def test_near_singular_covariances_are_read_back(tmp_path):
    """Rank-1 and badly conditioned covariances, which nine digits can round
    below the reader's PSD rule, go through write_track_csv and read back: the
    covariance columns at nine digits, or at repr for the whole track."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    path = tmp_path / "track.csv"
    # log10 of the larger eigenvalue, log10 of the condition (rank 1 past 12), axis angle
    shape = st.tuples(st.floats(-6.0, 4.0), st.floats(0.0, 13.0), st.floats(0.0, math.pi))

    @hypothesis.settings(max_examples=400, deadline=None)
    @hypothesis.given(st.lists(shape, min_size=1, max_size=4))
    @hypothesis.example([(4.0, 13.0, 0.3)])   # nine digits give a min eigenvalue of -2.5e-6
    def check(shapes):
        track = []
        for i, (log_scale, log_cond, angle) in enumerate(shapes):
            big = 10.0 ** log_scale
            small = 0.0 if log_cond > 12.0 else big / 10.0 ** log_cond
            c, s = math.cos(angle), math.sin(angle)
            a, b, d = big * c * c + small * s * s, (big - small) * c * s, big * s * s + small * c * c
            state = (12.345678901234 * i, -0.1 - i, a, b, d)
            _check_state(*state)   # each row a state run_filter could write
            track.append(TrackPoint(0.5 * i, *state, 3, 0))
        write_track_csv(track, path)
        read = read_track_csv(path)
        nine_xy = [p._replace(x=nine_digits(p.x), y=nine_digits(p.y)) for p in track]
        assert read in (nine_xy, [TrackPoint(*p[:3], *map(nine_digits, p[3:6]), *p[6:])
                                  for p in nine_xy])

    check()
