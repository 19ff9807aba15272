import itertools
import math

import numpy as np
import pytest

from tdoa_dtb.errors import ParseError, UnknownNode
from tdoa_dtb.geometry import (NodeCatalog, Position, node_sort_key, range_between, read_nodes,
                               write_nodes)

from conftest import sd_range


def test_range_pythagorean_triple():
    assert range_between(Position(0, 0, 0), Position(3, 4, 0)) == 5.0


def test_range_identity():
    assert range_between(Position(1, 2, 0), Position(1, 2, 0)) == 0.0


def test_range_unit_cube_diagonal():
    # direct evaluation: sqrt(1 + 1 + 1)
    assert range_between(Position(0, 0, 0), Position(1, 1, 1)) == pytest.approx(
        math.sqrt(3.0), abs=1e-12)


def test_range_uses_z():
    assert range_between(Position(0, 0, 0), Position(0, 0, 2)) == 2.0


def test_node_sort_key_is_one_order_whatever_the_input_order():
    """Numbers by value before text; an id that reads as NaN is text, and the
    id's text breaks ties between equal values."""
    expected = ["-1e400", "-0", "0", "00", "01", "1", "inf", "B", "NaN", "a", "nan"]
    for ids in itertools.permutations(["nan", "NaN", "inf", "0", "-0", "01", "a", "B"]):
        assert sorted([*ids, "1", "00", "-1e400"], key=node_sort_key) == expected


def test_position_rejects_non_finite():
    with pytest.raises(ValueError):
        Position(float("nan"), 0.0)
    with pytest.raises(ValueError):
        Position(0.0, float("inf"))


def test_sd_range_symmetric_geometry():
    assert sd_range(Position(0, 0), Position(10, 0), Position(0, 10)) == 0.0


def test_sd_range_two_ranges():
    # 5 - 10
    assert sd_range(Position(0, 0), Position(3, 4), Position(6, 8)) == -5.0


def test_sd_range_same_node_position():
    p = Position(4.0, -1.0)
    assert sd_range(Position(2.0, 3.0), p, p) == 0.0


def test_range_symmetry_random():
    rng = np.random.default_rng(1)
    for _ in range(200):
        a = Position(*rng.uniform(-100, 100, 3))
        b = Position(*rng.uniform(-100, 100, 3))
        assert range_between(a, b) == range_between(b, a)


def test_triangle_inequality_random():
    rng = np.random.default_rng(2)
    for _ in range(200):
        a, b, c = (Position(*rng.uniform(-100, 100, 3)) for _ in range(3))
        assert range_between(a, c) <= range_between(a, b) + range_between(b, c) + 1e-9


def test_sd_range_bounded_by_baseline():
    # reverse triangle inequality
    rng = np.random.default_rng(3)
    for _ in range(200):
        rover, node, ref = (Position(*rng.uniform(-50, 50, 3)) for _ in range(3))
        assert abs(sd_range(rover, node, ref)) <= range_between(node, ref) + 1e-9


def test_catalog_requires_two_nodes():
    with pytest.raises(ValueError, match="catalog needs at least 2 nodes, got 1"):
        NodeCatalog({"1": Position(0, 0)})


def test_catalog_rejects_duplicate_positions():
    with pytest.raises(ValueError):
        NodeCatalog({"1": Position(0, 0), "2": Position(0.0, 0.0, 0.0)})


def test_catalog_lookup_and_order():
    cat = NodeCatalog({"10": Position(0, 0), "2": Position(1, 0), "9": Position(0, 1)})
    assert cat.ids() == ["2", "9", "10"]   # numeric ordering of numeric ids
    assert "2" in cat
    with pytest.raises(UnknownNode):
        cat["99"]


def test_catalog_csv_round_trip(tmp_path):
    cat = NodeCatalog({"1": Position(0.5, -2.25, 1.0), "2": Position(3.0, 4.0),
                       "x": Position(0.1 + 0.2, 1.0 / 3.0)})
    path = tmp_path / "nodes.csv"
    write_nodes(cat, path)
    loaded = read_nodes(path)
    assert loaded.items() == cat.items()
    # z is optional and node ids lose surrounding spaces
    path.write_text("node_id,x,y\n 1 ,0.5,-2.25\n2,3,4\n")
    assert read_nodes(path).items() == [("1", Position(0.5, -2.25)),
                                        ("2", Position(3.0, 4.0))]


@pytest.mark.parametrize("rows", ["1,0,0\n1,5,5\n", "1,0,0\n2,0,0\n"])
def test_catalog_csv_rejects_duplicates_at_their_line(tmp_path, rows):
    path = tmp_path / "nodes.csv"
    path.write_text("node_id,x,y\n3,9,9\n" + rows)
    with pytest.raises(ParseError) as exc:
        read_nodes(path)
    assert exc.value.line == 4
