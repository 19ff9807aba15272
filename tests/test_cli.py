import argparse
import csv
import itertools
import json
import os
import random
import re
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import pytest

import tdoa_dtb
from tdoa_dtb.cli import build_parser, main
from tdoa_dtb.dtb import read_dtb
from tdoa_dtb.ekf import read_residuals_csv, read_track_csv
from tdoa_dtb.geometry import read_nodes
from tdoa_dtb.ingestion import SPEED_OF_LIGHT, load_toa_session
from tdoa_dtb.table import read_csv

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


TRAJECTORY_CSV = "time,x,y\n-1e308,0,0\n1e308,10,0\n"
TRACK_CSV = "time,x,y,cov_xx,cov_xy,cov_yy,n_obs,n_rejected\n9e307,1,1,1,0,1,3,0\n"
RESIDUALS_CSV = "time,node_id,postfit_m\n9e307,1,0.1\n9e307,2,0.2\n9e307,3,-0.1\n"


def _one_error_line(capsys, prefix):
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("missing", ["input", "out-dir"])
def test_data_error_exit_code(tmp_path, capsys, missing):
    """A file that cannot be read or written is exit 2 with one line that
    names the error's class, as a data error is."""
    track, traj, residuals = (tmp_path / name for name in ("track.csv", "traj.csv", "res.csv"))
    if missing == "input":
        track = traj = residuals = tmp_path / "missing.csv"
    else:   # readable inputs with a common span, and an output in no directory
        track.write_text(TRACK_CSV)
        traj.write_text("time,x,y\n0,0,0\n1e308,10,0\n")
        residuals.write_text(RESIDUALS_CSV)
    code = main(["evaluate", "--track", str(track), "--traj", str(traj),
                 "--residuals", str(residuals), "--out", str(tmp_path / "no" / "m.json")])
    assert code == 2
    _one_error_line(capsys, "tdoa-dtb evaluate: FileNotFoundError: ")


@pytest.mark.parametrize("command", ["calibrate", "evaluate"])
def test_trajectory_step_past_float_range_is_a_data_error(tmp_path, capsys, command):
    """Samples at -1e308 and 1e308 s are 2e308 s apart, past the float range:
    a data error at the second sample's line, where interpolating at 9e307 s
    used to ask for a non-finite position."""
    traj = tmp_path / "traj.csv"
    traj.write_text(TRAJECTORY_CSV)
    inputs = {"calibrate": {"--toa": RESIDUALS_CSV.replace("postfit_m", "toa"),
                            "--nodes": "node_id,x,y\n1,0,0\n2,10,0\n3,0,10\n"},
              "evaluate": {"--track": TRACK_CSV, "--residuals": RESIDUALS_CSV}}[command]
    argv = [command, "--traj", str(traj), "--out", str(tmp_path / "out")]
    for flag, text in inputs.items():
        (tmp_path / f"{flag[2:]}.csv").write_text(text)
        argv += [flag, str(tmp_path / f"{flag[2:]}.csv")]
    assert main(argv) == 2
    _one_error_line(capsys, f"tdoa-dtb {command}: ParseError: {traj}:3: "
                            "trajectory times must be strictly increasing")
    assert not (tmp_path / "out").exists()


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
    assert ("TdoaDtbError: reference node '99' never observed within the trajectory span"
            in capsys.readouterr().err)


def test_calibrate_reads_toa_in_seconds(tmp_path, scenario_file, capsys):
    """calibrate --unit seconds on the simulated toa column divided by c gives
    the DTB means of the meters run; on the meters file it is a ParseError at
    the first data line."""
    sim = tmp_path / "sim"
    assert main(["simulate", "--scenario", str(scenario_file), "--out-dir", str(sim)]) == 0
    header, *rows = (sim / "toa.csv").read_text().splitlines()
    seconds = tmp_path / "toa_seconds.csv"
    with open(seconds, "w") as f:
        f.write(header + "\n")
        for row in rows:
            t, node_id, toa, rsrp = row.split(",")
            f.write(f"{t},{node_id},{float(toa) / SPEED_OF_LIGHT!r},{rsrp}\n")

    def calibrate(toa, out, unit):
        return main(["calibrate", "--toa", str(toa), "--nodes", str(sim / "nodes.csv"),
                     "--traj", str(sim / "trajectory.csv"), "--out", str(out), "--unit", unit])

    assert calibrate(sim / "toa.csv", tmp_path / "dtb_m.csv", "meters") == 0
    assert calibrate(seconds, tmp_path / "dtb_s.csv", "seconds") == 0
    meters, from_seconds = read_dtb(tmp_path / "dtb_m.csv"), read_dtb(tmp_path / "dtb_s.csv")
    assert from_seconds.ref_node_id == meters.ref_node_id
    assert from_seconds.entries.keys() == meters.entries.keys()
    for node_id, entry in meters.entries.items():
        assert from_seconds.entries[node_id].mean == pytest.approx(entry.mean, abs=1e-9)
    capsys.readouterr()
    assert calibrate(sim / "toa.csv", tmp_path / "dtb_bad.csv", "seconds") == 2
    err = capsys.readouterr().err
    assert f"ParseError: {sim / 'toa.csv'}:2: converted pseudorange" in err
    assert "Traceback" not in err
    assert not (tmp_path / "dtb_bad.csv").exists()


def test_non_finite_dtb_sample_is_a_data_error(tmp_path, scenario_file, capsys):
    """Finite pseudoranges whose single difference overflows end as exit 2
    naming the node and the epoch time, with no DTB file."""
    sim = tmp_path / "sim"
    assert main(["simulate", "--scenario", str(scenario_file), "--out-dir", str(sim)]) == 0
    header, *rows = (sim / "toa.csv").read_text().splitlines()
    for i, toa in ((0, "-1.7e308"), (1, "1.7e308")):
        t, node_id, _, rsrp = rows[i].split(",")
        rows[i] = ",".join([t, node_id, toa, rsrp])
    toa_file = tmp_path / "toa_probe.csv"
    toa_file.write_text("\n".join([header, *rows]) + "\n")
    out = tmp_path / "dtb.csv"
    assert main(["calibrate", "--toa", str(toa_file), "--nodes", str(sim / "nodes.csv"),
                 "--traj", str(sim / "trajectory.csv"), "--ref-node", "1",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "non-finite DTB sample" in err and "node '2'" in err and "t=0.0" in err
    assert "Traceback" not in err and not out.exists()


def test_non_finite_noise_spread_is_a_data_error(tmp_path, scenario_file, capsys):
    """Pseudoranges near the float limit, whose noise-bin spread overflows, end
    as exit 2 saying the spread is not finite, with no noise model file."""
    sim = tmp_path / "sim"
    assert main(["simulate", "--scenario", str(scenario_file), "--out-dir", str(sim)]) == 0
    header, *rows = (sim / "toa.csv").read_text().splitlines()
    for i, toa in ((0, "-1.7e308"), (1, "1.7e308")):
        t, node_id, _, rsrp = rows[i].split(",")
        rows[i] = ",".join([t, node_id, toa, rsrp])
    toa_file = tmp_path / "toa_probe.csv"
    toa_file.write_text("\n".join([header, *rows]) + "\n")
    out = tmp_path / "noise.csv"
    assert main(["fit-noise", "--toa", str(toa_file), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "not finite" in err
    assert "Traceback" not in err and not out.exists()


def test_fit_noise_on_two_nodes_is_a_data_error(tmp_path, capsys):
    """The golden session's rows of nodes 1 and 2 alone share no 3 nodes in
    any epoch: exit 2 saying so, with no noise model file."""
    golden = Path(__file__).resolve().parent / "data" / "golden" / "toa.csv"
    header, *rows = golden.read_text().splitlines()
    toa, out = tmp_path / "toa.csv", tmp_path / "noise.csv"
    kept = [row for row in rows if row.split(",")[1] in ("1", "2")]
    toa.write_text("\n".join([header, *kept]))
    assert main(["fit-noise", "--toa", str(toa), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "no three consecutive epochs share 3 nodes" in err
    assert "Traceback" not in err and not out.exists()


def test_rsrp_near_the_float_limit_has_a_bin(tmp_path):
    """An rsrp of -1e308 falls in a 2 dB bin: fit-noise succeeds."""
    golden = Path(__file__).resolve().parent / "data" / "golden" / "toa.csv"
    header, first, *rows = golden.read_text().splitlines()
    toa = tmp_path / "toa.csv"
    toa.write_text("\n".join([header, ",".join(first.split(",")[:3] + ["-1e308"]), *rows]))
    assert main(["fit-noise", "--toa", str(toa), "--out", str(tmp_path / "noise.csv")]) == 0


@pytest.mark.parametrize("probe", ["node-at-1e200", "trajectory-at-1e200"])
def test_out_of_range_geometry_is_a_data_error(tmp_path, scenario_file, capsys, probe):
    """A node or a trajectory sample so far out that its ranges overflow ends
    calibrate as exit 2 naming a node and the epoch time, with no DTB file."""
    sim = tmp_path / "sim"
    assert main(["simulate", "--scenario", str(scenario_file), "--out-dir", str(sim)]) == 0
    nodes, traj = sim / "nodes.csv", sim / "trajectory.csv"
    if probe == "node-at-1e200":
        nodes, culprit = tmp_path / "nodes_far.csv", "node '3'"
        text = (sim / "nodes.csv").read_text()
        nodes.write_text(text.replace("\n3,20.0,20.0,0.0\n", "\n3,1e200,0.0,0.0\n"))
    else:
        traj, culprit = tmp_path / "trajectory_far.csv", "node '2'"
        header, first, *rows = (sim / "trajectory.csv").read_text().splitlines()
        t, _, y, z = first.split(",")
        traj.write_text("\n".join([header, f"{t},1e200,{y},{z}", *rows]) + "\n")
    out = tmp_path / "dtb.csv"
    assert main(["calibrate", "--toa", str(sim / "toa.csv"), "--nodes", str(nodes),
                 "--traj", str(traj), "--ref-node", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "TdoaDtbError: non-finite DTB sample" in err and f"of {culprit} at t=0.0" in err
    assert "Traceback" not in err and not out.exists()


def test_non_finite_dtb_mean_is_a_data_error(tmp_path, scenario_file, capsys):
    """Finite DTB samples whose sum leaves the float range end calibrate as
    exit 2 naming the node, instead of an inf in the table."""
    sim = tmp_path / "sim"
    assert main(["simulate", "--scenario", str(scenario_file), "--out-dir", str(sim)]) == 0
    header, *rows = (sim / "toa.csv").read_text().splitlines()
    for i in [i for i, row in enumerate(rows) if row.split(",")[1] == "2"][:2]:
        t, node_id, _, rsrp = rows[i].split(",")
        rows[i] = ",".join([t, node_id, "1.7e308", rsrp])
    toa_file = tmp_path / "toa_probe.csv"
    toa_file.write_text("\n".join([header, *rows]) + "\n")
    out = tmp_path / "dtb.csv"
    assert main(["calibrate", "--toa", str(toa_file), "--nodes", str(sim / "nodes.csv"),
                 "--traj", str(sim / "trajectory.csv"), "--ref-node", "1",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "non-finite DTB mean" in err and "of node '2'" in err
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("row2,row3", [("1.5e308,0.1", "-1.5e308,0.1"), ("0.5,1e200", "1.0,0.1")],
                         ids=["mean-difference-overflows", "std-square-overflows"])
def test_rereference_out_of_float_range_is_a_data_error(tmp_path, capsys, row2, row3):
    """A re-referenced mean or std that leaves the float range ends rereference
    as exit 2 naming the node, with no table written."""
    dtb, out = tmp_path / "dtb.csv", tmp_path / "dtb_ref3.csv"
    dtb.write_text("session,ref_node,node_id,mean_m,std_m,n_samples\n"
                   f",1,2,{row2},10\n,1,3,{row3},10\n")
    assert main(["rereference", "--dtb", str(dtb), "--new-ref", "3", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "non-finite DTB mean" in err and "of node '2'" in err
    assert "Traceback" not in err and not out.exists()


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


def test_each_command_keeps_its_own_manifest(tmp_path):
    """The four pipeline commands writing into one directory leave four
    manifests, each beside its output and naming its own command; a rerun
    replaces only its own."""
    i, d = Path(__file__).resolve().parent / "data" / "golden", tmp_path
    steps = {
        "fit-noise": ["fit-noise", "--toa", f"{i}/toa.csv", "--out", f"{d}/noise.csv"],
        "calibrate": ["calibrate", "--toa", f"{i}/toa.csv", "--nodes", f"{i}/nodes.csv",
                      "--traj", f"{i}/trajectory.csv", "--out", f"{d}/dtb.csv"],
        "position": ["position", "--toa", f"{i}/toa.csv", "--nodes", f"{i}/nodes.csv",
                     "--dtb", f"{d}/dtb.csv", "--noise", f"{d}/noise.csv",
                     "--out", f"{d}/track.csv", "--residuals", f"{d}/residuals.csv"],
        "evaluate": ["evaluate", "--track", f"{d}/track.csv", "--traj", f"{i}/trajectory.csv",
                     "--residuals", f"{d}/residuals.csv", "--out", f"{d}/metrics.json"],
    }
    for argv in steps.values():
        assert main(argv) == 0, argv
    manifests = {path.name: path.read_bytes() for path in d.glob("*manifest*")}
    assert {name: json.loads(text)["subcommand"] for name, text in manifests.items()} == {
        "noise.csv.manifest.json": "fit-noise", "dtb.csv.manifest.json": "calibrate",
        "track.csv.manifest.json": "position", "metrics.json.manifest.json": "evaluate"}
    assert main(steps["calibrate"] + ["--session", "rerun"]) == 0
    rerun = {path.name: path.read_bytes() for path in d.glob("*manifest*")}
    assert [name for name in manifests if rerun[name] != manifests[name]] == \
        ["dtb.csv.manifest.json"]
    assert json.loads(rerun["dtb.csv.manifest.json"])["parameters"]["session"] == "rerun"


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


def test_text_flags_are_stripped_as_cells_are_on_read(tmp_path, eight_node_session):
    """calibrate --session ' a ' writes the session cell that rereference, which
    reads the table back with its text cells stripped, writes again; the node
    flags are stripped too."""
    sim, dtb, dtb3 = eight_node_session, tmp_path / "dtb.csv", tmp_path / "dtb3.csv"
    assert main(["calibrate", "--toa", str(sim / "toa.csv"), "--nodes", str(sim / "nodes.csv"),
                 "--traj", str(sim / "trajectory.csv"), "--ref-node", " 1 ",
                 "--session", " a ", "--out", str(dtb)]) == 0
    assert main(["rereference", "--dtb", str(dtb), "--new-ref", " 3 ", "--out", str(dtb3)]) == 0
    cells = []
    for path in (dtb, dtb3):
        with open(path, newline="") as f:
            cells.append({(row["session"], row["ref_node"]) for row in csv.DictReader(f)})
    assert cells == [{("a", "1")}, {("a", "3")}]


def test_ids_and_labels_that_csv_must_quote_survive_every_command(tmp_path):
    """Node ids and a session label holding a comma, a double quote, a space
    and the text None: csv.writer quotes them, csv.reader reads them back, and
    every table of the pipeline reads back with the same ids."""
    ids = ["1,a", '2"b', "3 c", "None", '5, "None" e', "6", "7", "8"]
    label = 'lab, "None" 1'
    text = (Path(__file__).parent / "data" / "golden" / "scenario.yaml").read_text()
    for number, node_id in enumerate(ids, 1):   # the golden session's nodes, renamed
        text = text.replace(f'"{number}":', f"'{node_id}':")
    (tmp_path / "scenario.yaml").write_text(text)
    sim, d = tmp_path / "sim", tmp_path
    steps = [
        ["simulate", "--scenario", f"{d}/scenario.yaml", "--out-dir", f"{sim}"],
        ["fit-noise", "--toa", f"{sim}/toa.csv", "--out", f"{d}/noise.csv",
         "--points", f"{d}/points.csv"],
        ["calibrate", "--toa", f"{sim}/toa.csv", "--nodes", f"{sim}/nodes.csv",
         "--traj", f"{sim}/trajectory.csv", "--ref-node", "None", "--session", label,
         "--out", f"{d}/dtb.csv", "--samples", f"{d}/samples.csv"],
        ["position", "--toa", f"{sim}/toa.csv", "--nodes", f"{sim}/nodes.csv",
         "--dtb", f"{d}/dtb.csv", "--noise", f"{d}/noise.csv",
         "--out", f"{d}/track.csv", "--residuals", f"{d}/residuals.csv"],
        ["evaluate", "--track", f"{d}/track.csv", "--traj", f"{sim}/trajectory.csv",
         "--residuals", f"{d}/residuals.csv", "--out", f"{d}/metrics.json",
         "--residual-hist", f"{d}/hist.csv"],
        ["rereference", "--dtb", f"{d}/dtb.csv", "--new-ref", ids[4], "--out", f"{d}/dtb5.csv"],
    ]
    for argv in steps:
        assert main(argv) == 0, argv
    assert sorted(load_toa_session(sim / "toa.csv").node_ids) == sorted(ids)
    assert sorted(read_nodes(sim / "nodes.csv").ids()) == sorted(ids)
    truth = read_dtb(sim / "truth_dtb.csv")
    assert sorted([truth.ref_node_id, *truth.entries]) == sorted(ids)
    for path, ref in ((d / "dtb.csv", "None"), (d / "dtb5.csv", ids[4])):
        table = read_dtb(path)
        assert (table.session, table.ref_node_id) == (label, ref)
        assert sorted([ref, *table.entries]) == sorted(ids)
    _, node_ids, refs, _ = read_csv(d / "samples.csv", {"time": float, "node_id": str,
                                                         "ref_node": str, "dtb_m": float})
    assert set(node_ids) == set(ids) - {"None"} and set(refs) == {"None"}
    assert {node_id for _, node_id, _ in read_residuals_csv(d / "residuals.csv")} <= set(ids)
    assert len(read_track_csv(d / "track.csv")) == 81
    for name, columns in (("points.csv", ["rsrp_dbm", "sigma_m"]),
                          ("hist.csv", ["bin_left_m", "bin_right_m", "count"])):
        assert all(read_csv(d / name, dict.fromkeys(columns, float)))


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
    # flags the fit and the filter no longer take: any value is a usage error
    "--window": ["fit-noise"], "--bin": ["fit-noise"], "--sigma-x": _POSITION,
    "--sigma-y": _POSITION, "--gate": _POSITION, "--default-sigma": _POSITION,
}
BAD_FLAG_CASES = [(flag, value) for flag in BAD_FLAG_COMMANDS
                  for value in ("0", "-1", "nan", "inf", "1e200", "1e-200", "abc")
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


@pytest.mark.parametrize("command,flag", [
    ("position", "--sigma-x"), ("position", "--sigma-y"), ("position", "--gate"),
    ("position", "--default-sigma"), ("fit-noise", "--bin"), ("fit-noise", "--window")])
def test_removed_tuning_flag_is_unrecognised(tmp_path, capsys, eight_node_session, command, flag):
    """The filter's process noise, gate and no-rsrp sigma and the noise fit's
    bin width are fixed, and the fit has no detrend window: each former flag
    is an unrecognised argument, exit 1, with no output file."""
    sim, out = eight_node_session, tmp_path / "out.csv"
    argv = [command, "--toa", str(sim / "toa.csv"), "--out", str(out), flag, "2"]
    if command == "position":
        argv += ["--nodes", str(sim / "nodes.csv"), "--dtb", str(sim / "truth_dtb.csv"),
                 "--noise", str(tmp_path / "noise.csv"),
                 "--residuals", str(tmp_path / "residuals.csv")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"error: unrecognized arguments: {flag} 2" in err and "Traceback" not in err
    assert not out.exists()


def test_epoch_tol_zero_is_accepted(tmp_path, scenario_file):
    sim = tmp_path / "sim"
    assert main(["simulate", "--scenario", str(scenario_file), "--out-dir", str(sim)]) == 0
    assert main(["fit-noise", "--toa", str(sim / "toa.csv"), "--epoch-tol", "0",
                 "--out", str(tmp_path / "noise.csv")]) == 0



# the dense-8n benchmark layout: the 120 m ring at 10 Hz, walked from its centre
# for 40 s, long enough for fit-noise to see more than 10 dB of received power
ODD_ID_YAML = """
seed: 3
epoch_rate: 10.0
speed: 1.0
duration: 40.0
nodes: {"nan": [0.0, 0.0], "NaN": [60.0, 0.0], "inf": [120.0, 0.0], "0": [120.0, 60.0],
        "-0": [120.0, 120.0], "01": [60.0, 120.0], "a": [0.0, 120.0], "B": [0.0, 60.0]}
biases: {"nan": 4.0, "NaN": -7.0, "inf": 12.0, "0": -3.0, "-0": 9.0, "01": -15.0, "a": 1.0}
clock: {kind: sawtooth, drift_rate: 10.0, reset_period: 5.0, reset_magnitude: 50.0}
waypoints: [[60.0, 60.0], [60.0, 10.0]]
noise: {k: 60.0, rsrp0: -110.0}
path_loss: {p0: -40.0, gamma: 2.5}
"""


def _write_rows(path, header, rows):
    with open(path, "w", newline="") as f:
        csv.writer(f).writerows([header, *rows])
    return path


def _reversed_rows(path):
    """A copy of the CSV table at path with its rows in reverse order."""
    with open(path, newline="") as f:
        header, *rows = csv.reader(f)
    return _write_rows(path.with_name(f"reversed_{path.name}"), header, rows[::-1])


def _pipeline_outputs(d, toa, nodes, traj, new_ref, reorder):
    """The bytes of every output of fit-noise, calibrate, position, evaluate and
    rereference run into d, each command reading reorder(path) of an earlier output."""
    d.mkdir()
    assert main(["fit-noise", "--toa", str(toa), "--out", str(d / "noise.csv"),
                 "--points", str(d / "points.csv")]) == 0
    assert main(["calibrate", "--toa", str(toa), "--nodes", str(nodes), "--traj", str(traj),
                 "--ref-node", "auto", "--out", str(d / "dtb.csv"),
                 "--samples", str(d / "samples.csv")]) == 0
    assert main(["position", "--toa", str(toa), "--nodes", str(nodes),
                 "--dtb", str(reorder(d / "dtb.csv")), "--noise", str(d / "noise.csv"),
                 "--out", str(d / "track.csv"), "--residuals", str(d / "residuals.csv")]) == 0
    assert main(["evaluate", "--track", str(reorder(d / "track.csv")), "--traj", str(traj),
                 "--residuals", str(reorder(d / "residuals.csv")),
                 "--out", str(d / "metrics.json"), "--residual-hist", str(d / "hist.csv")]) == 0
    assert main(["rereference", "--dtb", str(reorder(d / "dtb.csv")), "--new-ref", new_ref,
                 "--out", str(d / "reref.csv")]) == 0
    return {name: (d / name).read_bytes() for name in
            ("noise.csv", "points.csv", "dtb.csv", "samples.csv", "track.csv", "residuals.csv",
             "metrics.json", "hist.csv", "reref.csv")}


@pytest.mark.parametrize("scenario,new_ref", [(SCENARIO_YAML, "3"), (ODD_ID_YAML, "nan")],
                         ids=["numeric-ids", "nan-and-text-ids"])
def test_row_order_within_an_epoch_does_not_change_outputs(tmp_path, scenario, new_ref):
    """Rows of one epoch written out of node order, their times spread within
    the tolerance after the epoch's first row, give byte for byte the outputs
    of the same rows all stamped with the epoch's time; so do those rows
    shuffled across the whole file, and the rows of the nodes file and of the
    DTB, track and residual files a command reads in reverse order. Node order
    holds for ids that read as NaN or as equal numbers too."""
    (tmp_path / "scenario.yaml").write_text(scenario)
    sim = tmp_path / "sim"
    assert main(["simulate", "--scenario", str(tmp_path / "scenario.yaml"),
                 "--out-dir", str(sim)]) == 0
    with open(sim / "toa.csv", newline="") as f:
        header, *rows = csv.reader(f)
    rng, jittered = random.Random(1), []
    for _, epoch in itertools.groupby(rows, key=lambda row: row[0]):
        epoch = list(epoch)
        rng.shuffle(epoch)
        jittered += [[repr(float(t) + (i and rng.uniform(1e-5, 9e-4))), *cells]
                     for i, (t, *cells) in enumerate(epoch)]
    shuffled = rng.sample(jittered, len(jittered))
    traj, nodes = sim / "trajectory.csv", _reversed_rows(sim / "nodes.csv")
    expected = _pipeline_outputs(tmp_path / "canonical", sim / "toa.csv", sim / "nodes.csv",
                                 traj, new_ref, reorder=lambda path: path)
    for name, toa_rows in (("jittered", jittered), ("shuffled", shuffled)):
        toa = _write_rows(tmp_path / f"{name}.csv", header, toa_rows)
        assert _pipeline_outputs(tmp_path / name, toa, nodes, traj, new_ref,
                                 reorder=_reversed_rows) == expected, name


EIGHT_NODE_YAML = """
seed: 5
epoch_rate: 2.0
speed: 1.0
duration: 30.0
nodes:
  "1": [0.0, 0.0]
  "2": [30.0, 0.0]
  "3": [60.0, 0.0]
  "4": [60.0, 30.0]
  "5": [60.0, 60.0]
  "6": [30.0, 60.0]
  "7": [0.0, 60.0]
  "8": [0.0, 30.0]
clock: {kind: sawtooth, drift_rate: 10.0, reset_period: 5.0, reset_magnitude: 50.0}
waypoints: [[25.0, 25.0], [35.0, 25.0], [35.0, 35.0]]
noise: {k: 60.0, rsrp0: -110.0, sigma_floor: 0.3, sigma_cap: 15.0}
path_loss: {p0: -40.0, gamma: 2.5}
"""


@pytest.fixture
def eight_node_session(tmp_path):
    """A simulated 8-node session with its truth DTB table and a noise model."""
    scenario = tmp_path / "scenario8.yaml"
    scenario.write_text(EIGHT_NODE_YAML)
    sim = tmp_path / "sim8"
    assert main(["simulate", "--scenario", str(scenario), "--out-dir", str(sim)]) == 0
    (tmp_path / "noise.csv").write_text("k,rsrp0,sigma_floor,sigma_cap\n60.0,-110.0,0.3,15.0\n")
    return sim


def _overflow_probe(tmp_path, monkeypatch, sim, probe):
    """Files for one probe: (toa, nodes, time of the failing epoch)."""
    header, *rows = (sim / "toa.csv").read_text().splitlines()
    toa, nodes = tmp_path / "toa_probe.csv", sim / "nodes.csv"
    if probe == "first-epoch-at-minus-1.7e308":
        # the first epoch's eight rows; the next epoch's update overflows
        rows = [f"-1.7e308,{row.split(',', 1)[1]}" for row in rows[:8]] + rows[8:]
        failing = float(rows[8].split(",")[0])
    elif probe == "one-row-at-1e308":
        # at a process noise density of 2 m/sqrt(s) its prediction adds Q = 4 * 1e308 = inf
        monkeypatch.setattr("tdoa_dtb.ekf.PROCESS_NOISE", 2.0)
        rows = rows + [f"1e308,{rows[0].split(',', 1)[1]}"]
        failing = 1e308
    else:
        # the prior's variance of the node x coordinates overflows
        node_header, *node_rows = nodes.read_text().splitlines()
        node_id, _, y, z = node_rows[-1].split(",")
        nodes = tmp_path / "nodes_far.csv"
        node_rows[-1] = f"{node_id},1e200,{y},{z}"
        nodes.write_text("\n".join([node_header, *node_rows]) + "\n")
        failing = float(rows[0].split(",")[0])
    toa.write_text("\n".join([header, *rows]) + "\n")
    return toa, nodes, failing


@pytest.mark.parametrize("probe", ["first-epoch-at-minus-1.7e308", "one-row-at-1e308",
                                   "node-at-1e200"])
def test_filter_overflow_is_a_data_error(tmp_path, capsys, monkeypatch, eight_node_session,
                                         probe):
    """Times or a node layout that drive the filter state beyond the float
    range end as exit 2, on one line naming the epoch time and the failed
    check, with no track or residual file."""
    toa, nodes, failing = _overflow_probe(tmp_path, monkeypatch, eight_node_session, probe)
    track, residuals = tmp_path / "track.csv", tmp_path / "residuals.csv"
    assert main(["position", "--toa", str(toa), "--nodes", str(nodes),
                 "--dtb", str(eight_node_session / "truth_dtb.csv"),
                 "--noise", str(tmp_path / "noise.csv"), "--out", str(track),
                 "--residuals", str(residuals)]) == 2
    assert capsys.readouterr().err == ("tdoa-dtb position: TdoaDtbError: filter state at "
                                       f"t={failing!r}: non-finite filter covariance\n")
    assert not track.exists() and not residuals.exists()


def test_sigma_floor_that_squares_to_0_is_a_noise_file_error(tmp_path, capsys, eight_node_session):
    """A noise model whose sigma floor squares to 0, a weight of 1/0, is a data
    error at its line of noise.csv before the filter runs."""
    noise, track = tmp_path / "noise.csv", tmp_path / "track.csv"
    noise.write_text("k,rsrp0,sigma_floor,sigma_cap\n60.0,-110.0,1e-200,15.0\n")
    assert main(["position", "--toa", str(eight_node_session / "toa.csv"),
                 "--nodes", str(eight_node_session / "nodes.csv"),
                 "--dtb", str(eight_node_session / "truth_dtb.csv"), "--noise", str(noise),
                 "--out", str(track), "--residuals", str(tmp_path / "residuals.csv")]) == 2
    err = capsys.readouterr().err
    assert f"{noise}:2: bad noise model: sigma_floor 1e-200 squares to 0" in err
    assert "Traceback" not in err and not track.exists()


def test_sigma_cap_that_squares_to_inf_is_a_noise_file_error(tmp_path, capsys, eight_node_session):
    """A noise model whose sigma cap squares to inf, weights that sum to 0, is
    a data error at its line of noise.csv before the filter runs."""
    noise, track = tmp_path / "noise.csv", tmp_path / "track.csv"
    noise.write_text("k,rsrp0,sigma_floor,sigma_cap\n1e300,-110.0,0.3,1e200\n")
    assert main(["position", "--toa", str(eight_node_session / "toa.csv"),
                 "--nodes", str(eight_node_session / "nodes.csv"),
                 "--dtb", str(eight_node_session / "truth_dtb.csv"), "--noise", str(noise),
                 "--out", str(track), "--residuals", str(tmp_path / "residuals.csv")]) == 2
    err = capsys.readouterr().err
    assert f"{noise}:2: bad noise model: sigma_cap 1e+200 squares to inf" in err
    assert "Traceback" not in err and not track.exists()


SQUARE = {"1": (0, 0), "2": (20, 0), "3": (20, 20), "4": (0, 20), "5": (10, 30), "9": (30, 10)}


def _position(tmp_path, toa_rows, catalog_ids, dtb_ids):
    """Run position on hand-written files: ToA rows (time, node_id) at 14.0 m
    and -80 dBm, a catalog of SQUARE's catalog_ids and a DTB table against
    node "1" holding dtb_ids. Returns the exit code."""
    files = {name: tmp_path / f"{name}.csv" for name in ("toa", "nodes", "dtb", "noise", "track")}
    files["toa"].write_text("time,node_id,toa,rsrp\n"
                            + "".join(f"{t},{n},14.0,-80\n" for t, n in toa_rows))
    files["nodes"].write_text("node_id,x,y\n"
                              + "".join(f"{n},{x},{y}\n" for n in catalog_ids
                                        for x, y in [SQUARE[n]]))
    files["dtb"].write_text("session,ref_node,node_id,mean_m,std_m,n_samples\n"
                            + "".join(f"S,1,{n},0.0,0.0,1\n" for n in dtb_ids))
    files["noise"].write_text("k,rsrp0,sigma_floor,sigma_cap\n60.0,-110.0,0.3,15.0\n")
    return main(["position", "--toa", str(files["toa"]), "--nodes", str(files["nodes"]),
                 "--dtb", str(files["dtb"]), "--noise", str(files["noise"]),
                 "--out", str(files["track"]), "--residuals", str(tmp_path / "res.csv")])


DIFFERENCED = [(t, n) for t in (0.0, 0.5, 1.0) for n in "1234"]
PREDICTION_ONLY = [(t, n) for t in (0.0, 0.5, 1.5) for n in "1234"] + [(1.0, "2")]


@pytest.mark.parametrize("missing_from,catalog_ids,dtb_ids,rows", [
    pytest.param("DTB table", "12345", "234", DIFFERENCED + [(1.0, "5")],
                 id="DTB table-12345-234"),
    pytest.param("catalog", "1234", "2349", DIFFERENCED + [(1.0, "9")],
                 id="catalog-1234-2349"),
    pytest.param("catalog", "1234", "234", PREDICTION_ONLY + [(1.0, "9")],
                 id="catalog-prediction-only")])
def test_position_names_a_node_missing_from_the_dtb_table_or_catalog(
        tmp_path, capsys, missing_from, catalog_ids, dtb_ids, rows):
    """A session node missing from the DTB table or the catalog ends position
    with exit 2 and UnknownNode naming it, also when it appears only in an
    epoch without the reference, which is never differenced."""
    node = rows[-1][1]
    assert _position(tmp_path, rows, catalog_ids, dtb_ids) == 2
    err = capsys.readouterr().err
    assert f"UnknownNode: node {node!r} not in {missing_from}" in err and "Traceback" not in err


def test_position_writes_each_epochs_own_time(tmp_path):
    """Track and residual rows carry their epoch's time as read, even after an
    epoch so far back that a clock advanced by each step would round: the
    time of the epoch at 1.5 s is not rebuilt as -1e16 + (1.5 + 1e16) = 2.0."""
    times = (-1e16, 1.5, 1.75)
    assert _position(tmp_path, [(t, n) for t in times for n in "1234"], "1234", "234") == 0
    assert [p.time for p in read_track_csv(tmp_path / "track.csv")] == list(times)
    assert sorted({t for t, *_ in read_residuals_csv(tmp_path / "res.csv")}) == list(times)


COMMAND_PATH_SCRIPT = """
import json, sys

import tdoa_dtb.cli

def heavy():
    return sorted(m for m in ("numpy", "yaml", "dataclasses", "statistics") if m in sys.modules)

assert heavy() == [], ("import tdoa_dtb.cli", heavy())
steps = json.loads(sys.argv[1])
for argv in steps[:-1]:
    assert tdoa_dtb.cli.main(argv) == 0, argv
    assert heavy() == [], (argv[0], heavy())

assert tdoa_dtb.cli.main(steps[-1]) == 0, steps[-1]
from tdoa_dtb import Scenario, generate
assert Scenario.__module__ == generate.__module__ == "tdoa_dtb.synthetic"
namespace = {}
exec("from tdoa_dtb import *", namespace)
missing = sorted(set(tdoa_dtb.__all__) - set(namespace))
assert missing == [], missing
"""


def test_command_path_loads_neither_numpy_nor_yaml(tmp_path, scenario_file):
    """Every command but simulate runs in a fresh interpreter without numpy,
    yaml, dataclasses or statistics; simulate and the package's simulator
    exports still work there."""
    sim, d = tmp_path / "sim", tmp_path
    assert main(["simulate", "--scenario", str(scenario_file), "--out-dir", str(sim)]) == 0
    steps = [
        ["fit-noise", "--toa", f"{sim}/toa.csv", "--out", f"{d}/noise.csv"],
        ["calibrate", "--toa", f"{sim}/toa.csv", "--nodes", f"{sim}/nodes.csv",
         "--traj", f"{sim}/trajectory.csv", "--out", f"{d}/dtb.csv"],
        ["position", "--toa", f"{sim}/toa.csv", "--nodes", f"{sim}/nodes.csv",
         "--dtb", f"{d}/dtb.csv", "--noise", f"{d}/noise.csv", "--out", f"{d}/track.csv",
         "--residuals", f"{d}/residuals.csv"],
        ["evaluate", "--track", f"{d}/track.csv", "--traj", f"{sim}/trajectory.csv",
         "--residuals", f"{d}/residuals.csv", "--out", f"{d}/metrics.json"],
        ["rereference", "--dtb", f"{d}/dtb.csv", "--new-ref", "3", "--out", f"{d}/dtb3.csv"],
        ["simulate", "--scenario", str(scenario_file), "--out-dir", f"{d}/sim2"],
    ]
    src = str(Path(tdoa_dtb.__file__).resolve().parent.parent)
    result = subprocess.run([sys.executable, "-c", COMMAND_PATH_SCRIPT, json.dumps(steps)],
                            env=dict(os.environ, PYTHONPATH=src),
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert (d / "sim2" / "toa.csv").read_bytes() == (sim / "toa.csv").read_bytes()
    assert json.loads((d / "metrics.json").read_text())["n_epochs"] == 601


PACKAGE_NAMES = [
    "NodeCatalog", "Position", "range_between", "read_nodes", "write_nodes",
    "ReferenceTrajectory", "Session", "group_epochs",
    "DtbEntry", "DtbTable", "aggregate_dtb", "calibrate", "read_dtb", "rereference_dtb",
    "select_reference", "write_dtb",
    "NoiseModel", "NoisePoint", "estimate_noise_points", "fit_noise_model", "sigma_for",
    "TrackPoint", "init_apriori", "run_filter", "update",
    "session_metrics", "sigma_formal", "sigma_postfits", "true_error",
    "ClockModel", "PathLossModel", "Scenario", "generate", "load_scenario",
]

PACKAGE_ROOT_SCRIPT = """
import json, sys

import tdoa_dtb

loaded = sorted(m for m in sys.modules if m.startswith("tdoa_dtb."))
namespace = {}
exec("from tdoa_dtb import *", namespace)
names = [name for name in namespace if name != "__builtins__"]
modules = sorted({namespace[name].__module__ for name in names})
try:
    tdoa_dtb.no_such_name
except AttributeError as exc:
    missing = str(exc)
print(json.dumps([loaded, tdoa_dtb.__all__, names, modules, missing]))
"""


def test_package_root_imports_each_name_on_first_use():
    """import tdoa_dtb loads no submodule; a star import then binds the same
    34 names, each from its own module."""
    src = str(Path(tdoa_dtb.__file__).resolve().parent.parent)
    result = subprocess.run([sys.executable, "-c", PACKAGE_ROOT_SCRIPT],
                            env=dict(os.environ, PYTHONPATH=src),
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    loaded, names_all, names, modules, missing = json.loads(result.stdout)
    assert loaded == []
    assert names_all == names == PACKAGE_NAMES
    assert modules == [f"tdoa_dtb.{m}" for m in ("dtb", "ekf", "geometry", "ingestion",
                                                 "metrics", "noise", "synthetic")]
    assert missing == "module 'tdoa_dtb' has no attribute 'no_such_name'"


def test_readme_quick_start_runs():
    """README's Python block runs in a fresh interpreter, through the package
    root, with RuntimeWarnings as errors."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert len(blocks) == 1
    src = str(Path(tdoa_dtb.__file__).resolve().parent.parent)
    result = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", blocks[0]],
                            env=dict(os.environ, PYTHONPATH=src),
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


def test_position_tiny_gate_rejects_every_difference(tmp_path, monkeypatch, eight_node_session):
    """At an innovation gate of 1e-6 sigmas each difference is rejected: no epoch
    updates, and each rejects all its differences."""
    monkeypatch.setattr("tdoa_dtb.ekf.INNOVATION_GATE", 1e-6)
    sim, track = eight_node_session, tmp_path / "track.csv"
    with open(sim / "toa.csv") as f:
        rows_per_epoch = Counter(row["time"] for row in csv.DictReader(f))
    assert main(["position", "--toa", str(sim / "toa.csv"), "--nodes", str(sim / "nodes.csv"),
                 "--dtb", str(sim / "truth_dtb.csv"), "--noise", str(tmp_path / "noise.csv"),
                 "--out", str(track), "--residuals", str(tmp_path / "residuals.csv")]) == 0
    with open(track) as f:
        assert [(row["n_obs"], int(row["n_rejected"])) for row in csv.DictReader(f)] == \
            [("0", rows - 1) for rows in rows_per_epoch.values()]


@pytest.mark.parametrize("command", ["calibrate", "position"])
def test_one_node_catalog_is_a_data_error_at_its_header(tmp_path, capsys, eight_node_session,
                                                        command):
    sim, nodes, out = eight_node_session, tmp_path / "nodes.csv", tmp_path / "out.csv"
    nodes.write_text("node_id,x,y\n1,0,0\n")
    argv = [command, "--toa", str(sim / "toa.csv"), "--nodes", str(nodes), "--out", str(out)]
    if command == "calibrate":
        argv += ["--traj", str(sim / "trajectory.csv")]
    else:
        argv += ["--dtb", str(sim / "truth_dtb.csv"), "--noise", str(tmp_path / "noise.csv"),
                 "--residuals", str(tmp_path / "residuals.csv")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"{nodes}:1: catalog needs at least 2 nodes, got 1" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("row,message", [
    ("1,1,0,-5,0,1,3,0", "track.csv:2: covariance not PSD"),
    ("1,1e200,0,1,0,1,3,0", "metric true_error_rms_m is inf"),
    ("1,1,0,1e308,0,1e308,3,0", "metric sigma_formal_m is inf"),
    ("1,1e308,0,1,0,1,3,0\n2,1e308,0,1,0,1,3,0", "metric true_error_mean_m is inf")],
    ids=["negative-cov_xx", "x-1e200", "cov-1e308", "x-1e308-every-row"])
def test_evaluate_on_a_bad_track_is_a_data_error(tmp_path, capsys, row, message):
    """A track row whose covariance is not PSD, or whose values take a metric
    out of float range, ends evaluate with exit 2 and no metrics file."""
    (tmp_path / "track.csv").write_text("time,x,y,cov_xx,cov_xy,cov_yy,n_obs,n_rejected\n"
                                        + row + "\n")
    (tmp_path / "trajectory.csv").write_text("time,x,y\n0,0,0\n10,10,0\n")
    (tmp_path / "residuals.csv").write_text("time,node_id,postfit_m\n1,2,0.1\n1,3,-0.2\n"
                                            "1,4,0.3\n")
    assert main(["evaluate", "--track", str(tmp_path / "track.csv"),
                 "--traj", str(tmp_path / "trajectory.csv"),
                 "--residuals", str(tmp_path / "residuals.csv"),
                 "--out", str(tmp_path / "metrics.json")]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "metrics.json").exists()


def test_reference_node_at_the_prior_updates_every_epoch(tmp_path, capsys):
    """tests/data/centre_reference.yaml puts node "1" at the centre of a 3x3
    grid: the node centroid, where the filter's prior starts, and the node
    that --ref-node auto picks. With default flags every epoch updates and
    evaluate succeeds."""
    scenario = Path(__file__).resolve().parent / "data" / "centre_reference.yaml"
    d = tmp_path / "run"
    for argv in (["simulate", "--scenario", str(scenario), "--out-dir", str(d)],
                 ["fit-noise", "--toa", str(d / "toa.csv"), "--out", str(d / "noise.csv")],
                 ["calibrate", "--toa", str(d / "toa.csv"), "--nodes", str(d / "nodes.csv"),
                  "--traj", str(d / "trajectory.csv"), "--out", str(d / "dtb.csv")],
                 ["position", "--toa", str(d / "toa.csv"), "--nodes", str(d / "nodes.csv"),
                  "--dtb", str(d / "dtb.csv"), "--noise", str(d / "noise.csv"),
                  "--out", str(d / "track.csv"), "--residuals", str(d / "residuals.csv")],
                 ["evaluate", "--track", str(d / "track.csv"), "--traj",
                  str(d / "trajectory.csv"), "--residuals", str(d / "residuals.csv"),
                  "--out", str(d / "metrics.json")]):
        assert main(argv) == 0, capsys.readouterr().err
    err = capsys.readouterr().err
    assert "against reference '1'" in err and "filtered 181 epochs (181 with updates)" in err
    assert read_dtb(d / "dtb.csv").ref_node_id == "1"
    assert all(p.n_obs > 0 for p in read_track_csv(d / "track.csv"))
    assert json.loads((d / "metrics.json").read_text())["true_error_mean_m"] <= 2.0


@pytest.mark.parametrize("noise,same_as", [("0.5", "{sigma: 0.5}"), (None, "{sigma: 0.0}")],
                         ids=["number", "absent"])
def test_noise_spellings_write_the_same_session(tmp_path, noise, same_as):
    """A bare number is a constant sigma, as {sigma: ...} is, and a scenario
    without noise is noiseless: simulate writes the same files either way."""
    mapping = _scenario_with("noise", same_as)
    spelled = mapping.replace(f"noise: {same_as}\n", f"noise: {noise}\n" if noise else "")
    assert spelled != mapping
    sessions = []
    for name, text in (("spelled", spelled), ("mapping", mapping)):
        scenario, out = tmp_path / f"{name}.yaml", tmp_path / name
        scenario.write_text(text)
        assert main(["simulate", "--scenario", str(scenario), "--out-dir", str(out)]) == 0
        sessions.append({f: (out / f).read_bytes() for f in
                         ("toa.csv", "nodes.csv", "trajectory.csv", "truth_dtb.csv")})
    assert sessions[0] == sessions[1]


def _scenario_with(key, value):
    """SCENARIO_YAML with the entry of key replaced by key: value."""
    lines = SCENARIO_YAML.strip().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(f"{key}:"))
    end = start + 1
    while end < len(lines) and lines[end].startswith(" "):
        end += 1
    return "\n".join(lines[:start] + lines[end:] + [f"{key}: {value}"]) + "\n"


SCENARIO_PROBES = {
    "nodes-list": _scenario_with("nodes", "[1, 2]"),
    "biases-list": _scenario_with("biases", "[1, 2]"),
    "yaml-syntax-error": SCENARIO_YAML + "waypoints: [[5.0, 5.0]\n",
    "yaml-control-character": SCENARIO_YAML + "seed: 1\x01\n",
    "not-utf-8": SCENARIO_YAML.encode() + b"# \xff\n",
    "duration-inf": _scenario_with("duration", ".inf"),
    "epoch-rate-nan": _scenario_with("epoch_rate", ".nan"),
    "noise-sigma-nan": _scenario_with("noise", "{sigma: .nan}"),
    "clock-reset-period-nan": _scenario_with("clock", "{kind: sawtooth, reset_period: .nan}"),
    "seed-inf": _scenario_with("seed", ".inf"),
    "seed-fraction": _scenario_with("seed", "1.5"),
    "seed-bool": _scenario_with("seed", "true"),
    "seed-negative-fraction": _scenario_with("seed", "-0.5"),
    "quantize-0": SCENARIO_YAML + "quantize: 0\n",
    "path-loss-min-range-0": _scenario_with("path_loss", "{min_range: 0}"),
    "duration-overflows": _scenario_with("duration", "1.0e308"),
    "epoch-rate-overflows": _scenario_with("epoch_rate", "1.0e308"),
    "quantize-overflows": SCENARIO_YAML + "quantize: 1.0e-310\n",
    "clock-drift-overflows": _scenario_with(
        "clock", "{kind: sawtooth, drift_rate: 1.0e308, reset_period: 100.0}"),
    "clock-reset-period-tiny": _scenario_with(   # the reset count overflows at t = 0.5
        "clock", "{kind: sawtooth, drift_rate: 10.0, reset_period: 1.0e-310, "
                 "reset_magnitude: 50.0}"),
    "bias-and-nlos-overflow": _scenario_with("biases", '{"1": 1.0e308}')
    + 'nlos: {"1": -1.0e308}\n',
    "truth-dtb-overflows": _scenario_with("biases", '{"1": 1.0e308, "2": -1.0e308}'),
    "node-at-1e200": _scenario_with(
        "nodes", '{"1": [0.0, 0.0], "2": [20.0, 0.0], "3": [20.0, 20.0], "4": [1.0e200, 20.0]}'),
    # 4e301 s at 2 Hz: finite, but far more epochs than the noise key holds
    "speed-1e-300": _scenario_with("speed", "1.0e-300").replace("duration: 300.0\n", ""),
    "epoch-count-2**32": _scenario_with("duration", "2147483647.5"),   # 2**32 epochs at 2 Hz
    "clock-reset-period-0": _scenario_with("clock", "{kind: sawtooth, reset_period: 0}"),
    "speed-negative": _scenario_with("speed", "-1.0"),
    "noise-negative": _scenario_with("noise", "-1.0"),
    "top-level-list": "- seed: 11\n- epoch_rate: 2.0\n",
    "duration-0.1": _scenario_with("duration", "0.1"),   # 0.2 epoch steps at 2 Hz
    # a first step of 2e308 m: past the float range, and the path with it
    "path-length-overflows": _scenario_with("waypoints", "[[-1.0e308, 0.0], [1.0e308, 0.0]]"),
    "path-length-overflows-then-turns": _scenario_with(
        "waypoints", "[[-1.0e308, 0.0], [1.0e308, 0.0], [1.0e308, 1.0]]"),
}


@pytest.mark.parametrize("probe", SCENARIO_PROBES)
def test_malformed_scenario_is_a_data_error(tmp_path, capsys, probe):
    """simulate exits 2 with one InvalidScenario line on stderr, raises no
    warning (numpy's overflow warnings among them) and writes nothing."""
    scenario, out = tmp_path / "scenario.yaml", tmp_path / "sim"
    text = SCENARIO_PROBES[probe]
    scenario.write_bytes(text if isinstance(text, bytes) else text.encode())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["simulate", "--scenario", str(scenario), "--out-dir", str(out)]) == 2
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err.startswith("tdoa-dtb simulate: InvalidScenario: ") and "Traceback" not in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_yaml_syntax_error_names_its_line(tmp_path, capsys, yaml_parser):
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text(SCENARIO_YAML + "waypoints: [[5.0, 5.0]\n")
    assert main(["simulate", "--scenario", str(scenario), "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (f"tdoa-dtb simulate: InvalidScenario: {scenario}:17: "
                                       "expected ',' or ']', but got '<stream end>'\n")



@pytest.mark.parametrize("text,line,problem", [
    (SCENARIO_PROBES["yaml-control-character"], 16,
     "unacceptable character #x0001: special characters are not allowed"),
    (SCENARIO_PROBES["not-utf-8"], 16, "unacceptable character #x00ff: invalid start byte"),
    # two-byte characters before it: the line counts characters, not bytes
    (("# \u00e9\u00e9\n" * 3 + "\n" + SCENARIO_YAML + "seed: 1\x01\n").encode(), 20,
     "unacceptable character #x0001: special characters are not allowed")],
    ids=["yaml-control-character", "not-utf-8", "control-character-after-utf-8"])
def test_unreadable_yaml_names_its_line(tmp_path, capsys, yaml_parser, text, line, problem):
    """A byte that is not UTF-8 or a character YAML does not allow ends as
    InvalidScenario at its line, as a parser error does, with or without libyaml."""
    scenario = tmp_path / "scenario.yaml"
    scenario.write_bytes(text if isinstance(text, bytes) else text.encode())
    assert main(["simulate", "--scenario", str(scenario), "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (f"tdoa-dtb simulate: InvalidScenario: {scenario}:{line}: "
                                       f"{problem}\n")


@pytest.mark.parametrize("probe,seed", [("seed-fraction", "1.5"), ("seed-bool", "True"),
                                        ("seed-negative-fraction", "-0.5"), ("seed-inf", "inf")])
def test_seed_that_is_not_an_integer_is_named(tmp_path, capsys, probe, seed):
    """int() would truncate such a seed, and -0.5 would pass as seed 0."""
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text(SCENARIO_PROBES[probe])
    assert main(["simulate", "--scenario", str(scenario), "--out-dir", str(tmp_path / "sim")]) == 2
    assert capsys.readouterr().err == ("tdoa-dtb simulate: InvalidScenario: "
                                       f"seed must be an integer, got {seed}\n")


def test_simulate_negative_seed_is_a_data_error(tmp_path, capsys, scenario_file):
    out = tmp_path / "sim"
    assert main(["simulate", "--scenario", str(scenario_file), "--out-dir", str(out),
                 "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert "seed must be non-negative" in err and "Traceback" not in err
    assert not out.exists()


def test_readme_names_exactly_the_cli_options():
    """README's "CLI pipeline" section, up to "Scenario YAML", names every
    option of every command, and no option that no command has."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## CLI pipeline", 1)[1].split("## Scenario YAML", 1)[0]
    named = set(re.findall(r"--[a-z](?:[a-z-]*[a-z])?", section))
    parser = build_parser()
    (commands,) = (action for action in parser._actions
                   if isinstance(action, argparse._SubParsersAction))
    options = {option for command in commands.choices.values() for action in command._actions
               for option in action.option_strings if option.startswith("--")}
    assert named == options - {"--help"}
