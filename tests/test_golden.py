"""Golden outputs: the sha256 of every output of the command path (fit-noise,
calibrate, position, evaluate, rereference) on the session in data/golden,
against the list in data/golden/SHA256SUMS. The arithmetic of the command path
is spelled so that these bytes are the same on every supported Python version
and C library; simulate, which needs numpy's random stream and the C
library's log10, and each command's <out>.manifest.json, which holds a
timestamp, stay out.

toa_gaps.csv is toa.csv without node "1"'s row in every epoch k with
k % 4 == 3, and with node "3"'s rsrp blank where k % 5 == 0. Calibrated against
node "1", its 20 epochs without that node give no samples; positioned with
that table, they are differenced against their first node, as every epoch is.

The command path runs twice: on the session as it is, whose tables the
reader splits at their commas, and on a copy whose input tables have their
first header cell quoted, which sends them to csv.reader. Both give the same
hashes.

Imports neither pytest nor numpy, so that it also runs on a bare interpreter:

    PYTHONPATH=src python tests/test_golden.py

On a mismatch it prints the actual list, in the format of SHA256SUMS.
"""

import hashlib
import sys
import tempfile
from pathlib import Path

from tdoa_dtb.cli import main

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"
SUMS = GOLDEN / "SHA256SUMS"
SESSION = ("toa.csv", "toa_gaps.csv", "nodes.csv", "trajectory.csv")
COMMANDS = ("fit-noise", "calibrate", "position", "evaluate", "rereference",
            "calibrate-gaps", "position-gaps")


def command(name: str, inputs: Path, out: Path) -> list[str]:
    """argv of one command of the command path, with every optional output,
    reading its files from inputs and writing into out."""
    i = inputs
    return {
        "fit-noise": ["fit-noise", "--toa", f"{i}/toa.csv", "--out", f"{out}/noise.csv",
                      "--points", f"{out}/noise_points.csv"],
        "calibrate": ["calibrate", "--toa", f"{i}/toa.csv", "--nodes", f"{i}/nodes.csv",
                      "--traj", f"{i}/trajectory.csv", "--trim-sigma", "3",
                      "--out", f"{out}/dtb.csv", "--samples", f"{out}/dtb_samples.csv"],
        "position": ["position", "--toa", f"{i}/toa.csv", "--nodes", f"{i}/nodes.csv",
                     "--dtb", f"{i}/dtb.csv", "--noise", f"{i}/noise.csv",
                     "--out", f"{out}/track.csv", "--residuals", f"{out}/residuals.csv"],
        "evaluate": ["evaluate", "--track", f"{i}/track.csv", "--traj", f"{i}/trajectory.csv",
                     "--residuals", f"{i}/residuals.csv", "--out", f"{out}/metrics.json",
                     "--residual-hist", f"{out}/residual_hist.csv"],
        "rereference": ["rereference", "--dtb", f"{i}/dtb.csv", "--new-ref", "5",
                        "--out", f"{out}/dtb_ref5.csv"],
        "calibrate-gaps": ["calibrate", "--toa", f"{i}/toa_gaps.csv", "--nodes", f"{i}/nodes.csv",
                           "--traj", f"{i}/trajectory.csv", "--ref-node", "1",
                           "--out", f"{out}/dtb_gaps.csv",
                           "--samples", f"{out}/dtb_gaps_samples.csv"],
        "position-gaps": ["position", "--toa", f"{i}/toa_gaps.csv", "--nodes", f"{i}/nodes.csv",
                          "--dtb", f"{i}/dtb_gaps.csv", "--noise", f"{i}/noise.csv",
                          "--out", f"{out}/track_gaps.csv",
                          "--residuals", f"{out}/residuals_gaps.csv"],
    }[name]


def run_command_path(out: Path, commands=COMMANDS, quoted: bool = False) -> None:
    """Copy the golden session into out, with the first header cell of each
    table quoted if asked, and run the commands there, in order."""
    for name in SESSION:
        data = (GOLDEN / name).read_bytes()
        if quoted:   # "time",node_id,...
            data = b'"' + data.replace(b",", b'",', 1)
        (out / name).write_bytes(data)
    for name in commands:
        code = main(command(name, out, out))
        if code != 0:
            raise AssertionError(f"tdoa-dtb {name} exited {code}")


def actual_sums(quoted: bool = False) -> str:
    """The SHA256SUMS text of the outputs of a fresh run of the command path."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        run_command_path(out, quoted=quoted)
        return "".join(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}\n"
                       for path in sorted(out.iterdir())
                       if path.name not in SESSION and not path.name.endswith(".manifest.json"))


def test_command_path_outputs_match_the_golden_hashes():
    actual = actual_sums()
    assert actual == SUMS.read_text(), f"outputs differ from {SUMS}; actual list:\n{actual}"


def test_quoted_header_copy_matches_the_golden_hashes():
    actual = actual_sums(quoted=True)
    assert actual == SUMS.read_text(), f"outputs differ from {SUMS}; actual list:\n{actual}"


if __name__ == "__main__":
    for quoted in (False, True):
        actual = actual_sums(quoted)
        session = "the quoted-header copy" if quoted else "the session"
        if actual != SUMS.read_text():
            print(f"{__file__}: outputs of {session} differ from {SUMS}; actual list:",
                  file=sys.stderr)
            sys.stdout.write(actual)
            sys.exit(1)
        print(f"{__file__}: all outputs of {session} match {SUMS}", file=sys.stderr)
