"""Every file reader rejects malformed input as ParseError at its line, and the
CLI command that reads the file turns that into exit 2 with ``path:line``."""

import codecs
import collections
import csv
import io
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tdoa_dtb
from tdoa_dtb.cli import main
from tdoa_dtb.dtb import read_dtb
from tdoa_dtb.ekf import read_residuals_csv, read_track_csv
from tdoa_dtb.errors import ParseError, TdoaDtbError
from tdoa_dtb.geometry import read_nodes
from tdoa_dtb.ingestion import load_toa_session, load_trajectory
from tdoa_dtb.noise import NoiseModel, read_noise_model, write_noise_model
from tdoa_dtb.table import read_csv, write_csv, write_json

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
    "toa.csv": (load_toa_session, "position", "toa", ["time", "toa", "rsrp"]),
    "nodes.csv": (read_nodes, "position", "x", ["x", "z"]),
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


# header cells padded with spaces, or a leading UTF-8 byte order mark; a
# quoted header cell sends the table to csv.reader
HEADER_VARIANTS = {"spaced": (b" %s ", b""), "spaced-quoted": (b'" %s "', b""),
                   "bom": (b"%s", codecs.BOM_UTF8), "bom-quoted": (b'"%s"', codecs.BOM_UTF8)}


@pytest.mark.parametrize("variant", HEADER_VARIANTS)
@pytest.mark.parametrize("name", FORMATS)
def test_spaced_header_cells_and_a_byte_order_mark_read_as_the_original(tmp_path, session_dir,
                                                                        name, variant):
    """Header cells are stripped like every other text cell, so that no
    optional column silently goes missing, and a leading byte order mark is
    skipped, whichever reader path the table takes."""
    reader, cell, bom = FORMATS[name][0], *HEADER_VARIANTS[variant]
    header, rows = (session_dir / name).read_bytes().split(b"\r\n", 1)
    path = tmp_path / name
    path.write_bytes(bom + b",".join(cell % column for column in header.split(b",")) + b"\r\n"
                     + rows)
    read, original = reader(path), reader(session_dir / name)
    assert getattr(read, "__dict__", read) == getattr(original, "__dict__", original)


TOA_HEADER = "time,node_id,toa,rsrp\n"


def toa_file(tmp_path, body):
    path = tmp_path / "toa.csv"
    path.write_text(TOA_HEADER + body)
    return path


def toa_parse_error(path):
    with pytest.raises(ParseError) as exc:
        load_toa_session(path)
    return exc.value


def test_short_row_is_a_parse_error_at_its_line(tmp_path):
    error = toa_parse_error(toa_file(tmp_path, "0.0,1,5.0,-80\n0.0,2\n0.1,1,5.0,-80\n"))
    assert error.line == 3
    assert "bad toa" in str(error)


def test_first_bad_row_then_its_first_bad_column(tmp_path):
    # a later row is bad in an earlier column; the earlier row wins, and within
    # it the first of its two bad columns
    error = toa_parse_error(toa_file(tmp_path, "0.0,1,5.0,-80\n0.0,2,x1,nan\n"
                                               "0.1,1,5.0,-80\nbad,2,5.0,-80\n"))
    assert error.line == 3
    assert "bad toa" in str(error)


def test_bad_cell_is_reported_at_its_physical_line(tmp_path):
    # blank lines are skipped and a quoted cell spans lines 4 and 5
    error = toa_parse_error(toa_file(tmp_path, '0.0,1,5.0,-80\n\n0.0,"2\n",5.0,-80\n\n'
                                               "0.1,1,oops,-80\n"))
    assert error.line == 7
    assert "bad toa" in str(error)


def test_bad_cell_before_a_malformed_line_is_reported_first(tmp_path):
    huge = "9" * (csv.field_size_limit() + 1)
    error = toa_parse_error(toa_file(tmp_path, f"0.0,1,5.0,-80\n0.0,2,x1,-80\n0.1,1,{huge},-80\n"))
    assert error.line == 3
    assert "bad toa" in str(error)
    error = toa_parse_error(toa_file(tmp_path, f"0.0,1,{huge},-80\n0.0,2,x1,-80\n"))
    assert error.line == 2
    assert "malformed CSV" in str(error)


GOLDEN_TOA = Path(__file__).resolve().parent / "data" / "golden" / "toa.csv"


def golden_toa_with(tmp_path, appended: dict, line_end=b"\r\n"):
    """The golden toa.csv with bytes appended to some lines, {line: bytes},
    written with the given line end."""
    lines = GOLDEN_TOA.read_bytes().split(b"\r\n")
    for line, extra in appended.items():
        lines[line - 1] += extra
    path = tmp_path / "toa.csv"
    path.write_bytes(line_end.join(lines))
    return path


@pytest.mark.parametrize("line,line_end", [(3, b"\r\n"), (200, b"\r\n"), (501, b"\r\n"),
                                           (501, b"\r"), (501, b"\n")],
                         ids=["3", "200", "501", "501-cr", "501-lf"])
def test_byte_that_is_not_utf8_is_reported_at_its_line(tmp_path, capsys, line, line_end):
    path = golden_toa_with(tmp_path, {line: b"\xff"}, line_end)
    assert main(["fit-noise", "--toa", str(path), "--out", str(tmp_path / "noise.csv")]) == 2
    assert (f"ParseError: {path}:{line}: not a text file: 'utf-8' codec can't decode byte 0xff"
            in capsys.readouterr().err)


def test_first_problem_in_file_order_wins_over_a_byte_that_is_not_utf8(tmp_path):
    error = toa_parse_error(golden_toa_with(tmp_path, {3: b"x", 501: b"\xff"}))
    assert error.line == 3 and "bad rsrp" in str(error)
    error = toa_parse_error(golden_toa_with(tmp_path, {3: b"\xff", 501: b"x"}))
    assert error.line == 3 and "not a text file" in str(error)
    error = toa_parse_error(golden_toa_with(tmp_path, {1: b"\xff"}))
    assert error.line == 1 and "not a text file" in str(error)


def test_row_that_reaches_a_byte_that_is_not_utf8_is_not_read(tmp_path):
    """A quoted cell that spans from line 3 into the bad byte's line 4 makes
    no row of its own to check: the byte is the error."""
    path = toa_file(tmp_path, "")
    path.write_bytes(TOA_HEADER.encode() + b'0.0,1,5.0,-80\n0.0,"2\n\xff",5.0,-80\n0.1,1,x,-80\n')
    error = toa_parse_error(path)
    assert error.line == 4 and "not a text file" in str(error)


def test_files_are_utf8_whatever_the_locale(tmp_path):
    """Under the C locale, without UTF-8 mode, a catalog holding the id \u00e9
    reads, and is written back in UTF-8."""
    nodes, out = tmp_path / "nodes.csv", tmp_path / "out.csv"
    nodes.write_bytes("node_id,x,y\n1,0,0\n\u00e9,10,0\n".encode())
    script = ("import sys; from tdoa_dtb.geometry import read_nodes, write_nodes; "
              "catalog = read_nodes(sys.argv[1]); write_nodes(catalog, sys.argv[2]); "
              "print(ascii(catalog.ids()))")
    src = str(Path(tdoa_dtb.__file__).resolve().parent.parent)
    result = subprocess.run([sys.executable, "-c", script, str(nodes), str(out)],
                            env=dict(os.environ, PYTHONPATH=src, LC_ALL="C", PYTHONUTF8="0"),
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "['1', '\\xe9']\n"
    assert out.read_bytes() == "node_id,x,y,z\r\n1,0.0,0.0,0.0\r\n\u00e9,10.0,0.0,0.0\r\n".encode()


def test_blank_optional_cells_interleaved_read_as_none(tmp_path):
    path = toa_file(tmp_path, "0.0,1,5.0,\n0.0,2,6.0,-81.5\n0.0,3,7.0,\n"
                              "0.1,1,5.5,-80\n0.1,2,6.5,\n0.1,3,7.5,-82\n")
    session = load_toa_session(path)
    assert session.pseudorange == [5.0, 6.0, 7.0, 5.5, 6.5, 7.5]
    assert session.rsrp == [None, -81.5, None, -80.0, None, -82.0]


def test_cells_past_the_header_are_ignored(tmp_path):
    """An absent optional column reads None on every row, even on a row with
    more cells than the header."""
    toa = tmp_path / "toa.csv"
    toa.write_text("time,node_id,toa\n0,1,2,-80\n0,2,3\n")
    session = load_toa_session(toa)
    assert session.pseudorange == [2.0, 3.0] and session.rsrp == [None, None]
    traj = tmp_path / "traj.csv"
    traj.write_text("time,x,y\n0,0,0,5\n1,1,0,x1\n")
    assert load_trajectory(traj).xyz == [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0)]
    assert read_csv(traj, {"time": float}, {"z": float, "w": int}) == \
        [[0.0, 1.0], [None, None], [None, None]]


def test_header_only_toa_file_is_an_empty_session(tmp_path):
    with pytest.raises(TdoaDtbError, match="no observations"):
        load_toa_session(toa_file(tmp_path, ""))


def row_by_row(path, required, optional):
    """Reference reader: each row converted cell by cell, in file order. Returns
    the columns, or (line, message) of the first bad cell."""
    convert = {float: float, int: int, str: str.strip}
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader)
        columns = [(name, header.index(name) if name in header else None, kind,
                    name in optional) for name, kind in [*required.items(), *optional.items()]]
        rows = []
        for row in reader:
            if not row:
                continue
            row += [""] * (len(header) - len(row))
            values = []
            for name, index, kind, blank_ok in columns:
                if index is None or blank_ok and row[index] == "":
                    values.append(None)
                    continue
                try:
                    value = convert[kind](row[index])
                    if kind is float and not math.isfinite(value):
                        raise ValueError(f"non-finite number {row[index]!r}")
                except ValueError as exc:
                    return reader.line_num, f"bad {name}: {exc}"
                values.append(value)
            rows.append(values)
    return [list(column) for column in zip(*rows)] if rows else [[] for _ in columns]


def test_column_reader_matches_row_by_row_reader(tmp_path):
    """On random tables with blank, bad, non-finite and multi-line cells, short
    rows and blank lines, read_csv gives the values or the first error that a
    row-by-row reader gives."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    cell = st.sampled_from(["1.5", "-2", " 3 ", "", "7", "x1", "nan", "inf", "1e400", "4.0",
                            "a\nb", " c "])
    row = st.lists(cell, min_size=0, max_size=5)
    required = {"time": float, "node_id": str, "n": int}

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(st.permutations(["time", "node_id", "n", "rsrp"]), st.booleans(),
                      st.lists(row, max_size=8))
    def check(names, with_rsrp, rows):
        path = tmp_path / "t.csv"
        with open(path, "w", newline="") as f:
            csv.writer(f).writerows([[n for n in names if with_rsrp or n != "rsrp"], *rows])
        want = row_by_row(path, required, {"rsrp": float})
        try:
            got = read_csv(path, required, {"rsrp": float})
        except ParseError as exc:
            got = exc.line, str(exc).removeprefix(f"{path}:{exc.line}: ")
        assert got == want

    check()


def test_split_reader_matches_the_csv_reader(tmp_path):
    """Each random table reads as its copy with a quoted header cell, which
    only csv.reader reads: the same columns, or the same first error at the
    same line. The tables mix LF, CRLF and CR line ends, blank lines, NUL,
    bytes that are not UTF-8, lines past csv's field limit, rows shorter or
    longer than the header, and bad, nan and inf cells."""
    hypothesis = pytest.importorskip("hypothesis")
    ok = [b"1.5", b"-2", b" 3 ", b"", b"7", b"4.0", b" c ", b"1" * 15, b"\xc3\xa9"]
    cells = ok * 8 + [b"x1", b"nan", b"inf", b"\0", b"\xff", b"\x0b", b"\xc2\x85", b"9" * 41]
    line_ends = [b"\n", b"\r\n", b"\r"]
    required = {"time": float, "node_id": str, "n": int}

    def read(path):
        try:
            return read_csv(path, required, {"rsrp": float})
        except ParseError as exc:
            message = str(exc).removeprefix(f"{path}:{exc.line}: ")
            return exc.line, re.sub(r"position \d+", "position N", message)

    # one draw per table: hypothesis drawing cell by cell made the test three times slower
    @hypothesis.settings(max_examples=3000, deadline=None)
    @hypothesis.given(hypothesis.strategies.randoms(use_true_random=True))
    def check(rng):
        names = rng.sample(["time", "node_id", "n", "rsrp"], 4)
        if rng.random() < 0.5:   # rsrp is optional; now and then a required name goes
            names.remove(rng.choice(["rsrp"] * 5 + names))
        header = [f" {name} " if rng.random() < 0.3 else name for name in names]
        body = b""
        for _ in range(rng.randrange(7)):   # mostly rows of the header's width
            width = len(header) + rng.choice([0] * 8 + [-1, 1, -2, -3, -9])
            body += b",".join(rng.choices(cells, k=max(width, 0))) + rng.choice(line_ends)
        header_end = rng.choice(line_ends)
        path = tmp_path / "t.csv"
        path.write_bytes(",".join(header).encode() + header_end + body)
        split = read(path)
        path.write_bytes(",".join([f'"{header[0]}"', *header[1:]]).encode() + header_end + body)
        assert split == read(path)

    limit = csv.field_size_limit(40)   # lines past the limit in small tables
    try:
        check()
    finally:
        csv.field_size_limit(limit)


# cells that csv.writer writes bare, and rarer ones that it quotes (the list, an
# unhashable cell, for the comma of its str) or, NUL on Python 3.10, refuses
PLAIN_CELLS = [-0.0, 5e-324, 1e16, 1e-5, 0.1 + 0.2, 0, -7, 10**20, True, False, None,
               "plain", "", "None", "\u00e9", " padded "]
RARE_CELLS = ["a,b", 'say "hi"', "cr\r", "lf\n", "crlf\r\n", "nul\0", [1, "a"]]
NAMEDTUPLES = [collections.namedtuple(f"Row{width}", [f"c{i}" for i in range(width)])
               for width in range(7)]


def test_write_csv_writes_the_bytes_of_csv_writer(tmp_path):
    """write_csv writes each random table as csv.writer does, or fails as it
    does after the same rows. The tables have 1 to 5 columns and rows of
    tuples, lists and namedtuples; half of them hold rare cells, and half
    hold rows a cell wider or narrower than the header, so that each path
    of write_csv, and each of its checks, meets many tables."""
    hypothesis = pytest.importorskip("hypothesis")
    path = tmp_path / "t.csv"

    @hypothesis.settings(max_examples=1500, deadline=None)
    @hypothesis.given(hypothesis.strategies.randoms(use_true_random=True))
    def check(rng):
        header = rng.sample(["time", "node_id", "toa", "rsrp", "None", "a b"], rng.randint(1, 5))
        pool = PLAIN_CELLS * 6 + RARE_CELLS * rng.randint(0, 1)
        ragged = [0] * 12 + [-1, 1] * rng.randint(0, 1)
        rows = []
        for _ in range(rng.randrange(14)):
            width = len(header) + rng.choice(ragged)
            cells = rng.choices(pool, k=width)
            rows.append(rng.choice([tuple, list, NAMEDTUPLES[width]._make])(cells))
        expected, error = io.StringIO(), None
        try:
            csv.writer(expected).writerows([header, *rows])
        except csv.Error as exc:
            error = exc
        try:
            write_csv(path, header, iter(rows))
        except csv.Error as exc:
            assert str(exc) == str(error)
        else:
            assert error is None
        assert path.read_bytes() == expected.getvalue().encode()

    check()


# cells of a column with a %-format: numbers, and None, which stays blank
NUMBER_CELLS = [-0.0, 5e-324, 1e16, 1e-5, 0.1 + 0.2, 123.456789012345, -7, 10**20, True, None]


def test_write_csv_with_formats_writes_the_bytes_of_csv_writer(tmp_path):
    """With a %-format per column, write_csv writes each random table as
    csv.writer writes the same cells pre-formatted, None kept blank. Half of the
    tables hold a text cell that csv must quote (or, NUL on Python 3.10,
    refuses), so that both of write_csv's paths meet the formats."""
    hypothesis = pytest.importorskip("hypothesis")
    path = tmp_path / "t.csv"

    @hypothesis.settings(max_examples=1000, deadline=None)
    @hypothesis.given(hypothesis.strategies.randoms(use_true_random=True))
    def check(rng):
        header = rng.sample(["time", "node_id", "x", "postfit_m", "None", "a b"], rng.randint(1, 5))
        formats = [rng.choice(["%s", "%s", "%.9g", "%.3e", "%.17g"]) for _ in header]
        texts = PLAIN_CELLS * 6 + RARE_CELLS * rng.randint(0, 1)
        rows = [tuple(rng.choice(NUMBER_CELLS if form != "%s" or rng.random() < 0.5 else texts)
                      for form in formats) for _ in range(rng.randrange(14))]
        expected, error = io.StringIO(), None
        try:
            csv.writer(expected).writerows([header, *(
                [None if cell is None else form % (cell,) for cell, form in zip(row, formats)]
                for row in rows)])
        except csv.Error as exc:
            error = exc
        try:
            write_csv(path, header, iter(rows), formats)
        except csv.Error as exc:
            assert str(exc) == str(error)
        else:
            assert error is None
        assert path.read_bytes() == expected.getvalue().encode()

    check()


def test_write_csv_hands_csv_writer_only_the_tables_it_writes_otherwise(tmp_path, monkeypatch):
    """Every table the pipeline writes (ids, floats, ints and %.9g columns, and
    the optional samples, points and histogram files) is formatted and never
    reaches csv.writer; a None cell, the text None and a cell to quote each
    send their table to csv.writer, which writes its own bytes."""
    handed = []
    real_writer = csv.writer
    monkeypatch.setattr(csv, "writer", lambda f: handed.append(f) or real_writer(f))
    d = tmp_path
    (d / "scenario.yaml").write_text(SCENARIO_YAML)
    for argv in (["simulate", "--scenario", str(d / "scenario.yaml"), "--out-dir", str(d)],
                 ["fit-noise", "--toa", str(d / "toa.csv"), "--out", str(d / "noise.csv"),
                  "--points", str(d / "points.csv")],
                 ["calibrate", "--toa", str(d / "toa.csv"), "--nodes", str(d / "nodes.csv"),
                  "--traj", str(d / "trajectory.csv"), "--out", str(d / "dtb.csv"),
                  "--samples", str(d / "samples.csv")],
                 cli_argv("position", d)):
        assert main(argv) == 0
    (d / "track_out.csv").rename(d / "track.csv")
    (d / "resid_out.csv").rename(d / "residuals.csv")
    assert main([*cli_argv("evaluate", d), "--residual-hist", str(d / "hist.csv")]) == 0
    assert len(list(d.glob("*.csv"))) == 11 and not handed
    path, header = d / "t.csv", ["time", "node_id", "rsrp"]
    for row, line in (((1.5, "a", None), b"1.5,a,\r\n"),
                      ((1.5, "None", -0.0), b"1.5,None,-0\r\n"),
                      ((2, 'say "hi"', 1e16), b'2,"say ""hi""",1e+16\r\n')):
        handed.clear()
        write_csv(path, header, [(1, "b", 2.5), row], ["%s", "%s", "%.9g"])
        assert len(handed) == 1
        assert path.read_bytes() == b"time,node_id,rsrp\r\n1,b,2.5\r\n" + line


def test_write_json_is_sorted_indented_and_refuses_nan(tmp_path):
    path = tmp_path / "out.json"
    write_json(path, {"b": 1.5, "a": ["\u00e9", 2]})
    assert path.read_bytes() == b'{\n  "a": [\n    "\\u00e9",\n    2\n  ],\n  "b": 1.5\n}\n'
    with pytest.raises(ValueError, match="not JSON compliant"):
        write_json(path, {"x": math.nan})


TRACK_HEADER = b"time,x,y,cov_xx,cov_xy,cov_yy,n_obs,n_rejected\n"
TRAJECTORY = b"time,x,y\n0,0,0\n2,1,1\n1,2,2\n3,3,3\n"
HUGE_CELL = b"9" * (csv.field_size_limit() + 1)   # a malformed line: too long a field
# (reader, file bytes, line and message of the first problem in file order): a
# reader's own check of a row wins over a later bad cell, malformed line or byte
RULE_CASES = {
    "trajectory-then-not-utf8": (load_trajectory, TRAJECTORY + b"4,4,4\xff\n",
                                 "4: trajectory times must be strictly increasing"),
    "trajectory-then-bad-cell": (load_trajectory, TRAJECTORY + b"4,abc,4\n",
                                 "4: trajectory times must be strictly increasing"),
    "trajectory-then-malformed": (load_trajectory, TRAJECTORY + b"4,%s,4\n" % HUGE_CELL,
                                  "4: trajectory times must be strictly increasing"),
    "nodes-then-bad-cell": (read_nodes, b"node_id,x,y\n1,0,0\n2,10,0\n1,20,0\n3,0,10\n4,x,1\n",
                            "4: duplicate node id '1'"),
    "track-then-bad-cell": (read_track_csv,
                            TRACK_HEADER + b"0,0,0,1,0,1,3,0\n1,0,0,1,5,1,3,0\n"
                                           b"2,0,0,1,0,1,3,0\n3,0,0,1,0,1,three,0\n",
                            "3: covariance not PSD, min eigenvalue -4.000e+00"),
    "dtb-then-not-utf8": (read_dtb, b"session,ref_node,node_id,mean_m,std_m,n_samples\n"
                                    b",1,2,0.5,0.1,10\n,3,4,0.5,0.1,10\n,1,5,0.5,0.1,10\xff\n",
                          "3: mixed reference node or session in one file"),
    "noise-then-bad-cell": (read_noise_model, b"k,rsrp0,sigma_floor,sigma_cap\n"
                                              b"60,-110,2,1\n60,-110,x,15\n",
                            "2: bad noise model"),
    "seconds-then-bad-cell": (lambda path: load_toa_session(path, "seconds"),
                              TOA_HEADER.encode() + b"0,1,1e-8,-80\n0,2,1.0,-80\n0,3,x,-80\n",
                              "3: converted pseudorange 2.998e+08 m exceeds"),
}


@pytest.mark.parametrize("case", RULE_CASES)
def test_a_readers_own_row_check_wins_over_a_later_problem(tmp_path, case):
    reader, data, message = RULE_CASES[case]
    path = tmp_path / "file.csv"
    path.write_bytes(data)
    with pytest.raises(ParseError) as exc:
        reader(path)
    assert str(exc.value).startswith(f"{path}:{message}")
