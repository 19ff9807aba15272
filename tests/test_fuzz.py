"""Reader fuzzing: seeded byte-level mutations of each of the seven file
formats, each mutated file run through every command that reads it. A run
must end in success (exit 0) or a data error (exit 2), never in an exception
out of main."""

import random
import re
import shutil

import pytest

from tdoa_dtb.cli import main
from test_golden import command, run_command_path

READERS = {   # file format -> the commands that read it
    "toa.csv": ("fit-noise", "calibrate", "position"),
    "nodes.csv": ("calibrate", "position"),
    "trajectory.csv": ("calibrate", "evaluate"),
    "dtb.csv": ("position", "rereference"),
    "noise.csv": ("position",),
    "track.csv": ("evaluate",),
    "residuals.csv": ("evaluate",),
}
MUTATIONS_PER_FORMAT = 60
# byte strings a mutation inserts or writes over: number syntax, CSV structure
# and bytes that are not text; and the numbers it writes over a whole field,
# at the edges of the float range
TOKENS = [b"-", b".", b"e", b"9", b"0", b"e308", b"nan", b"inf", b",", b"\n", b"\r", b'"',
          b" ", b"\x00", b"\xff", b"\xc3"]
NUMBERS = [b"1e200", b"-1e200", b"1.7e308", b"-1.7e308", b"1e-320", b"0", b"-0.0", b""]
FIELD = re.compile(rb"[^,\r\n]*")


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """The golden session with the outputs of fit-noise, calibrate and
    position: one file of each format."""
    base = tmp_path_factory.mktemp("fuzz_base")
    run_command_path(base, ("fit-noise", "calibrate", "position"))
    return base


def mutate(data: bytes, rng: random.Random) -> bytes:
    """data with one to three byte-level edits: a byte or token overwritten,
    inserted or deleted, a line duplicated or dropped, the tail cut off, or,
    one time in three, a CSV field replaced by an extreme number."""
    data = bytearray(data)
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(data) + 1)
        token = rng.choice(TOKENS) if rng.random() < 0.7 else bytes([rng.randrange(256)])
        line_start = data.rfind(b"\n", 0, at) + 1
        line_end = data.find(b"\n", at) + 1 or len(data)
        field_start = max(line_start, data.rfind(b",", 0, at) + 1)
        op = rng.randrange(9)
        if op == 0:
            data[at:at + len(token)] = token
        elif op == 1:
            data[at:at] = token
        elif op == 2:
            del data[at:at + rng.randint(1, 4)]
        elif op == 3:
            data[line_start:line_start] = data[line_start:line_end]
        elif op == 4:
            del data[line_start:line_end]
        elif op == 5:
            del data[at:]
        else:
            data[field_start:FIELD.match(data, field_start).end()] = rng.choice(NUMBERS)
    return bytes(data)


@pytest.mark.parametrize("fmt", READERS)
def test_mutated_file_is_read_or_rejected_as_data(tmp_path, capsys, base, fmt):
    rng = random.Random(f"fuzz {fmt}")
    inputs, out = tmp_path / "in", tmp_path / "out"
    shutil.copytree(base, inputs)
    out.mkdir()
    for case in range(MUTATIONS_PER_FORMAT):
        (inputs / fmt).write_bytes(mutate((base / fmt).read_bytes(), rng))
        for name in READERS[fmt]:
            try:
                code = main(command(name, inputs, out))
            except Exception as exc:
                raise AssertionError(f"{fmt} mutation {case}: {name} raised {exc!r}") from exc
            assert code in (0, 2), f"{fmt} mutation {case}: {name} exited {code}"
    capsys.readouterr()
