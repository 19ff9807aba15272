import json

import pytest

from tdoa_dtb.cli import main
from tdoa_dtb.dtb import read_dtb

SCENARIO_YAML = """
seed: 11
epoch_rate: 2.0
speed: 1.0
duration: 300.0
nodes:
  "1": [0.0, 0.0]
  "2": [20.0, 0.0]
  "3": [20.0, 20.0]
  "4": [0.0, 20.0]
biases: {"1": 2.0, "2": 18.0, "3": -12.0, "4": 5.0}
clock: {kind: sawtooth, drift_rate: 10.0, reset_period: 5.0, reset_magnitude: 50.0}
waypoints: [[5.0, 5.0], [15.0, 5.0], [15.0, 15.0], [5.0, 15.0], [5.0, 5.0]]
noise: {k: 60.0, rsrp0: -110.0, sigma_floor: 0.3, sigma_cap: 15.0}
path_loss: {p0: -40.0, gamma: 2.5}
"""


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.yaml"
    path.write_text(SCENARIO_YAML)
    return path


def test_missing_required_flag_is_usage_error(capsys):
    assert main(["evaluate"]) == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error():
    assert main(["frobnicate"]) == 1


def test_data_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "missing.csv"
    code = main(["evaluate", "--track", str(bad), "--traj", str(bad),
                 "--residuals", str(bad), "--out", str(tmp_path / "m.json")])
    assert code == 2


def test_duplicate_node_in_one_epoch_is_a_data_error(tmp_path, capsys):
    toa = tmp_path / "toa.csv"
    toa.write_text("time,node_id,toa,rsrp\n10.0,1,5.0,\n10.0,2,6.0,\n10.0005,1,7.0,\n")
    code = main(["fit-noise", "--toa", str(toa), "--out", str(tmp_path / "noise.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert str(toa) in err and "t=10.0" in err


def test_calibrate_reference_never_present(tmp_path, scenario_file, capsys):
    out = tmp_path / "sim"
    assert main(["simulate", "--scenario", str(scenario_file),
                 "--out-dir", str(out)]) == 0
    code = main(["calibrate", "--toa", str(out / "toa.csv"),
                 "--nodes", str(out / "nodes.csv"),
                 "--traj", str(out / "trajectory.csv"),
                 "--ref-node", "99", "--out", str(tmp_path / "dtb.csv")])
    assert code == 2
    assert "ReferenceMissing" in capsys.readouterr().err


def test_full_pipeline(tmp_path, scenario_file):
    sim = tmp_path / "sim"
    dtb = tmp_path / "dtb.csv"
    noise = tmp_path / "noise.csv"
    track = tmp_path / "track.csv"
    residuals = tmp_path / "residuals.csv"
    metrics = tmp_path / "metrics.json"

    assert main(["simulate", "--scenario", str(scenario_file),
                 "--out-dir", str(sim)]) == 0
    for name in ("toa.csv", "nodes.csv", "trajectory.csv", "truth_dtb.csv",
                 "run_manifest.json"):
        assert (sim / name).exists()

    assert main(["fit-noise", "--toa", str(sim / "toa.csv"),
                 "--out", str(noise),
                 "--points", str(tmp_path / "points.csv")]) == 0
    assert noise.exists() and (tmp_path / "points.csv").exists()

    assert main(["calibrate", "--toa", str(sim / "toa.csv"),
                 "--nodes", str(sim / "nodes.csv"),
                 "--traj", str(sim / "trajectory.csv"),
                 "--ref-node", "auto", "--out", str(dtb),
                 "--session", "synthetic"]) == 0
    table = read_dtb(dtb)
    truth = read_dtb(sim / "truth_dtb.csv")
    if table.ref_node_id != truth.ref_node_id:
        from tdoa_dtb.dtb import rereference_dtb
        table = rereference_dtb(table, truth.ref_node_id)
    for node_id, entry in truth.entries.items():
        assert abs(table.entries[node_id].mean - entry.mean) < 0.5

    assert main(["position", "--toa", str(sim / "toa.csv"),
                 "--nodes", str(sim / "nodes.csv"),
                 "--dtb", str(dtb), "--noise", str(noise),
                 "--out", str(track), "--residuals", str(residuals)]) == 0

    assert main(["evaluate", "--track", str(track),
                 "--traj", str(sim / "trajectory.csv"),
                 "--residuals", str(residuals), "--out", str(metrics),
                 "--residual-hist", str(tmp_path / "hist.csv")]) == 0
    data = json.loads(metrics.read_text())
    assert set(data) == {"true_error_mean_m", "true_error_rms_m",
                         "sigma_formal_m", "sigma_postfits_m", "n_epochs"}
    assert data["true_error_mean_m"] < 3.0
    assert data["n_epochs"] == 601


def test_rereference_subcommand(tmp_path, scenario_file):
    sim = tmp_path / "sim"
    main(["simulate", "--scenario", str(scenario_file), "--out-dir", str(sim)])
    out = tmp_path / "dtb_ref3.csv"
    assert main(["rereference", "--dtb", str(sim / "truth_dtb.csv"),
                 "--new-ref", "3", "--out", str(out)]) == 0
    table = read_dtb(out)
    assert table.ref_node_id == "3"
    # truth biases: DTB(2 vs 3) = -b2 + b3 = -18 - 12 = -30
    assert table.entries["2"].mean == pytest.approx(-30.0, abs=1e-9)


def test_simulate_seed_override_changes_data(tmp_path, scenario_file):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["simulate", "--scenario", str(scenario_file), "--out-dir", str(a)])
    main(["simulate", "--scenario", str(scenario_file), "--out-dir", str(b),
          "--seed", "99"])
    assert (a / "toa.csv").read_bytes() != (b / "toa.csv").read_bytes()


def test_rerun_is_byte_identical(tmp_path, scenario_file):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        main(["simulate", "--scenario", str(scenario_file), "--out-dir", str(out)])
    for name in ("toa.csv", "nodes.csv", "trajectory.csv", "truth_dtb.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


_POSITION = ["position", "--nodes", "n.csv", "--dtb", "d.csv", "--noise", "m.csv",
             "--residuals", "r.csv"]
_CALIBRATE = ["calibrate", "--nodes", "n.csv", "--traj", "t.csv"]
BAD_FLAG_COMMANDS = {
    "--epoch-tol": _CALIBRATE, "--trim-sigma": _CALIBRATE,
    "--bin": ["fit-noise"], "--window": ["fit-noise"],
    "--sigma-x": _POSITION, "--sigma-y": _POSITION, "--gate": _POSITION,
    "--default-sigma": _POSITION, "--min-obs": _POSITION,
}
BAD_FLAG_CASES = [(flag, value) for flag in BAD_FLAG_COMMANDS
                  for value in ("0", "-1", "nan", "inf")
                  if (flag, value) != ("--epoch-tol", "0")]


@pytest.mark.parametrize("flag,value", BAD_FLAG_CASES)
def test_bad_numeric_flag_is_usage_error(tmp_path, capsys, flag, value):
    out = tmp_path / "out.csv"
    argv = BAD_FLAG_COMMANDS[flag] + ["--toa", str(tmp_path / "toa.csv"),
                                      "--out", str(out), flag, value]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "error:" in err and flag in err and "Traceback" not in err
    assert not out.exists()


def test_epoch_tol_zero_is_accepted(tmp_path, scenario_file):
    sim = tmp_path / "sim"
    assert main(["simulate", "--scenario", str(scenario_file), "--out-dir", str(sim)]) == 0
    assert main(["fit-noise", "--toa", str(sim / "toa.csv"), "--epoch-tol", "0",
                 "--out", str(tmp_path / "noise.csv")]) == 0
