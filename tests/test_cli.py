import csv
import itertools
import json
import os
import random
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import pytest

import tdoa_dtb
from tdoa_dtb.cli import main
from tdoa_dtb.dtb import read_dtb
from tdoa_dtb.ingestion import SPEED_OF_LIGHT

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


def test_calibrate_reads_toa_in_seconds(tmp_path, scenario_file, capsys):
    """calibrate --unit seconds on the simulated toa column divided by c gives
    the DTB means of the meters run; on the meters file it is a UnitError at
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
    assert f"UnitError: {sim / 'toa.csv'}:2:" in err and "Traceback" not in err
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
                  for value in ("0", "-1", "nan", "inf", "1e200")
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



def test_row_order_within_an_epoch_does_not_change_outputs(tmp_path, scenario_file):
    """Rows of one epoch written out of node order, their times spread within
    the tolerance after the epoch's first row, give byte for byte the outputs
    of the same rows all stamped with the epoch's time."""
    sim = tmp_path / "sim"
    assert main(["simulate", "--scenario", str(scenario_file), "--out-dir", str(sim)]) == 0
    with open(sim / "toa.csv", newline="") as f:
        header, *rows = csv.reader(f)
    rng, jittered = random.Random(1), []
    for _, epoch in itertools.groupby(rows, key=lambda row: row[0]):
        epoch = list(epoch)
        rng.shuffle(epoch)
        jittered += [[repr(float(t) + (i and rng.uniform(1e-5, 9e-4))), *cells]
                     for i, (t, *cells) in enumerate(epoch)]
    with open(tmp_path / "jittered.csv", "w", newline="") as f:
        csv.writer(f).writerows([header, *jittered])
    outputs = []
    for toa in (sim / "toa.csv", tmp_path / "jittered.csv"):
        d = tmp_path / toa.stem
        d.mkdir()
        assert main(["fit-noise", "--toa", str(toa), "--out", str(d / "noise.csv"),
                     "--points", str(d / "points.csv")]) == 0
        assert main(["calibrate", "--toa", str(toa), "--nodes", str(sim / "nodes.csv"),
                     "--traj", str(sim / "trajectory.csv"), "--out", str(d / "dtb.csv"),
                     "--samples", str(d / "samples.csv")]) == 0
        assert main(["position", "--toa", str(toa), "--nodes", str(sim / "nodes.csv"),
                     "--dtb", str(d / "dtb.csv"), "--noise", str(d / "noise.csv"),
                     "--out", str(d / "track.csv"), "--residuals", str(d / "residuals.csv")]) == 0
        outputs.append([(d / name).read_bytes() for name in
                        ("noise.csv", "points.csv", "dtb.csv", "samples.csv", "track.csv",
                         "residuals.csv")])
    assert outputs[0] == outputs[1]

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


def _overflow_probe(tmp_path, sim, probe):
    """Files and flags for one probe: (toa, nodes, flags, time of the failing epoch)."""
    header, *rows = (sim / "toa.csv").read_text().splitlines()
    toa, nodes, flags = tmp_path / "toa_probe.csv", sim / "nodes.csv", []
    if probe == "first-epoch-at-minus-1.7e308":
        # the first epoch's eight rows; the next epoch's update overflows
        rows = [f"-1.7e308,{row.split(',', 1)[1]}" for row in rows[:8]] + rows[8:]
        failing = float(rows[8].split(",")[0])
    elif probe == "one-row-at-1e308":
        # its prediction adds Q = 4 * 1e308 = inf
        rows = rows + [f"1e308,{rows[0].split(',', 1)[1]}"]
        flags, failing = ["--sigma-x", "2"], 1e308
    else:
        # the prior's variance of the node x coordinates overflows
        node_header, *node_rows = nodes.read_text().splitlines()
        node_id, _, y, z = node_rows[-1].split(",")
        nodes = tmp_path / "nodes_far.csv"
        node_rows[-1] = f"{node_id},1e200,{y},{z}"
        nodes.write_text("\n".join([node_header, *node_rows]) + "\n")
        failing = float(rows[0].split(",")[0])
    toa.write_text("\n".join([header, *rows]) + "\n")
    return toa, nodes, flags, failing


@pytest.mark.parametrize("probe", ["first-epoch-at-minus-1.7e308", "one-row-at-1e308",
                                   "node-at-1e200"])
def test_filter_overflow_is_a_data_error(tmp_path, capsys, eight_node_session, probe):
    """Times or a node layout that drive the filter state beyond the float range
    end as exit 2 naming the epoch time, with no track or residual file."""
    toa, nodes, flags, failing = _overflow_probe(tmp_path, eight_node_session, probe)
    track, residuals = tmp_path / "track.csv", tmp_path / "residuals.csv"
    assert main(["position", "--toa", str(toa), "--nodes", str(nodes),
                 "--dtb", str(eight_node_session / "truth_dtb.csv"),
                 "--noise", str(tmp_path / "noise.csv"), "--out", str(track),
                 "--residuals", str(residuals), *flags]) == 2
    err = capsys.readouterr().err
    assert f"filter state at t={failing!r}:" in err and "Traceback" not in err
    assert not track.exists() and not residuals.exists()


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


COMMAND_PATH_SCRIPT = """
import json, sys

import tdoa_dtb.cli

def heavy():
    return sorted(m for m in ("numpy", "yaml") if m in sys.modules)

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
    """Every command but simulate runs in a fresh interpreter without numpy or
    yaml; simulate and the package's simulator exports still work there."""
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


def _position_track(tmp_path, sim, *flags):
    """Track rows of position on a simulated session with its truth DTB table."""
    track = tmp_path / "track.csv"
    assert main(["position", "--toa", str(sim / "toa.csv"), "--nodes", str(sim / "nodes.csv"),
                 "--dtb", str(sim / "truth_dtb.csv"), "--noise", str(tmp_path / "noise.csv"),
                 "--out", str(track), "--residuals", str(tmp_path / "residuals.csv"),
                 *flags]) == 0
    with open(track) as f:
        return list(csv.DictReader(f))


def test_position_min_obs_above_the_differences_of_an_epoch_never_updates(
        tmp_path, eight_node_session):
    """Eight nodes give at most 7 differences an epoch: --min-obs 8 leaves
    every epoch at its prediction."""
    assert {row["n_obs"] for row in _position_track(tmp_path, eight_node_session)} == {"7"}
    track = _position_track(tmp_path, eight_node_session, "--min-obs", "8")
    assert len(track) == 61 and {row["n_obs"] for row in track} == {"0"}


def test_position_tiny_gate_rejects_every_difference(tmp_path, eight_node_session):
    with open(eight_node_session / "toa.csv") as f:
        rows_per_epoch = Counter(row["time"] for row in csv.DictReader(f))
    track = _position_track(tmp_path, eight_node_session, "--gate", "1e-6")
    assert [(row["n_obs"], int(row["n_rejected"])) for row in track] == \
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
    "duration-inf": _scenario_with("duration", ".inf"),
    "epoch-rate-nan": _scenario_with("epoch_rate", ".nan"),
    "noise-sigma-nan": _scenario_with("noise", "{sigma: .nan}"),
    "clock-reset-period-nan": _scenario_with("clock", "{kind: sawtooth, reset_period: .nan}"),
    "seed-inf": _scenario_with("seed", ".inf"),
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
}


@pytest.mark.parametrize("probe", SCENARIO_PROBES)
def test_malformed_scenario_is_a_data_error(tmp_path, capsys, probe):
    """simulate exits 2 with one InvalidScenario line on stderr, raises no
    warning (numpy's overflow warnings among them) and writes nothing."""
    scenario, out = tmp_path / "scenario.yaml", tmp_path / "sim"
    scenario.write_text(SCENARIO_PROBES[probe])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["simulate", "--scenario", str(scenario), "--out-dir", str(out)]) == 2
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err.startswith("tdoa-dtb simulate: InvalidScenario: ") and "Traceback" not in err
    # one line, but for the YAML parser's message, which shows the bad line below it
    assert err.count("\n") == 1 or probe == "yaml-syntax-error"
    assert not out.exists()


def test_simulate_negative_seed_is_a_data_error(tmp_path, capsys, scenario_file):
    out = tmp_path / "sim"
    assert main(["simulate", "--scenario", str(scenario_file), "--out-dir", str(out),
                 "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert "seed must be non-negative" in err and "Traceback" not in err
    assert not out.exists()


def test_simulate_unknown_truth_ref_writes_nothing(tmp_path, capsys, scenario_file):
    out = tmp_path / "sim"
    assert main(["simulate", "--scenario", str(scenario_file), "--out-dir", str(out),
                 "--truth-ref", "99"]) == 2
    err = capsys.readouterr().err
    assert "InvalidScenario: reference '99' not in catalog" in err and "Traceback" not in err
    assert not out.exists()
