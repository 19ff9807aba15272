"""Every file reader rejects malformed input as ParseError at its line, and the
CLI command that reads the file turns that into exit 2 with ``path:line``."""

import csv
import shutil

import pytest

from tdoa_dtb.cli import main
from tdoa_dtb.dtb import read_dtb
from tdoa_dtb.ekf import read_residuals_csv, read_track_csv
from tdoa_dtb.errors import ParseError
from tdoa_dtb.geometry import NodeCatalog
from tdoa_dtb.ingestion import load_toa_rows, load_trajectory
from tdoa_dtb.noise import NoiseModel, read_noise_model, write_noise_model

SCENARIO_YAML = """
seed: 5
epoch_rate: 2.0
speed: 1.0
duration: 30.0
nodes: {"1": [0.0, 0.0], "2": [20.0, 0.0], "3": [20.0, 20.0], "4": [0.0, 20.0]}
biases: {"2": 4.0, "3": -6.0}
waypoints: [[5.0, 5.0], [15.0, 5.0], [15.0, 15.0]]
noise: {k: 60.0, rsrp0: -110.0}
"""

# file -> (reader, CLI command that reads it, a required column, columns to spoil)
FORMATS = {
    "toa.csv": (load_toa_rows, "position", "toa", ["time", "toa", "rsrp"]),
    "nodes.csv": (NodeCatalog.from_csv, "position", "x", ["x", "z"]),
    "trajectory.csv": (load_trajectory, "evaluate", "time", ["time", "y"]),
    "dtb.csv": (read_dtb, "position", "mean_m", ["mean_m", "std_m", "n_samples"]),
    "noise.csv": (read_noise_model, "position", "k", ["k", "rsrp0"]),
    "track.csv": (read_track_csv, "evaluate", "x", ["x", "cov_xy", "n_obs"]),
    "residuals.csv": (read_residuals_csv, "evaluate", "postfit_m", ["postfit_m"]),
}

CASES = ([(name, None, None) for name in FORMATS]
         + [(name, column, bad) for name, (*_, columns) in FORMATS.items()
            for column in columns for bad in ("x1", "nan", "inf")])


@pytest.fixture(scope="module")
def session_dir(tmp_path_factory):
    """One valid set of every file format, written by the pipeline."""
    d = tmp_path_factory.mktemp("session")
    (d / "scenario.yaml").write_text(SCENARIO_YAML)
    assert main(["simulate", "--scenario", str(d / "scenario.yaml"), "--out-dir", str(d)]) == 0
    write_noise_model(NoiseModel(60.0, -110.0), d / "noise.csv")
    assert main(["calibrate", "--toa", str(d / "toa.csv"), "--nodes", str(d / "nodes.csv"),
                 "--traj", str(d / "trajectory.csv"), "--out", str(d / "dtb.csv")]) == 0
    assert main(cli_argv("position", d)) == 0
    (d / "track_out.csv").rename(d / "track.csv")
    (d / "resid_out.csv").rename(d / "residuals.csv")
    return d


def cli_argv(command, d):
    if command == "position":
        return ["position", "--toa", str(d / "toa.csv"), "--nodes", str(d / "nodes.csv"),
                "--dtb", str(d / "dtb.csv"), "--noise", str(d / "noise.csv"),
                "--out", str(d / "track_out.csv"), "--residuals", str(d / "resid_out.csv")]
    return ["evaluate", "--track", str(d / "track.csv"), "--traj", str(d / "trajectory.csv"),
            "--residuals", str(d / "residuals.csv"), "--out", str(d / "metrics.json")]


@pytest.mark.parametrize("name,column,bad", CASES,
                         ids=[f"{n}-{c or 'header'}-{b or 'missing'}" for n, c, b in CASES])
def test_malformed_file_is_a_parse_error_at_its_line(tmp_path, session_dir, capsys,
                                                     name, column, bad):
    reader, command, required, _ = FORMATS[name]
    for f in session_dir.glob("*.csv"):
        shutil.copy(f, tmp_path)
    path = tmp_path / name
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    if column is None:
        # a required column renamed away from the header
        rows[0][rows[0].index(required)] += "_renamed"
        line = 1
    else:
        line = min(3, len(rows))
        rows[line - 1][rows[0].index(column)] = bad
    with open(path, "w", newline="") as f:
        csv.writer(f).writerows(rows)

    with pytest.raises(ParseError) as exc:
        reader(path)
    assert exc.value.line == line

    capsys.readouterr()
    assert main(cli_argv(command, tmp_path)) == 2
    err = capsys.readouterr().err
    assert f"{path}:{line}:" in err
    assert "Traceback" not in err
    assert not any((tmp_path / out).exists()
                   for out in ("track_out.csv", "resid_out.csv", "metrics.json"))
