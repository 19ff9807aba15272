"""The package's small records: equality, hash and repr over their fields,
and their checks, with the filter state's, with the exact messages, in the
order they run."""

import math

import pytest

from tdoa_dtb.dtb import DtbEntry, DtbTable
from tdoa_dtb.ekf import _check_state
from tdoa_dtb.geometry import Position
from tdoa_dtb.noise import NoiseModel, NoisePoint


def test_position_equality_and_hash_follow_its_fields():
    a, b = Position(1.0, 2.0), Position(1.0, 2.0, 0.0)
    assert a == b and hash(a) == hash(b) and {a: "1"}[b] == "1"
    assert a != Position(1.0, 2.0, 1e-9) and a != Position(2.0, 1.0)
    assert a != (1.0, 2.0, 0.0) and a != DtbEntry(1.0, 2.0, 1)
    assert Position(1, 2) == Position(1.0, 2.0)
    assert repr(Position(1.0, -2.5, 3.0)) == "Position(x=1.0, y=-2.5, z=3.0)"


def test_dtb_entry_equality_and_table_equality():
    assert DtbEntry(-1.5, 0.25, 3) == DtbEntry(mean=-1.5, std=0.25, n_samples=3)
    assert DtbEntry(-1.5, 0.25, 3) != DtbEntry(-1.5, 0.25, 4)
    assert repr(DtbEntry(-1.5, 0.25, 3)) == "DtbEntry(mean=-1.5, std=0.25, n_samples=3)"
    table = DtbTable("1", {"2": DtbEntry(0.5, 0.0, 1)}, "s")
    assert table == DtbTable("1", {"2": DtbEntry(0.5, 0.0, 1)}, "s")
    assert table != DtbTable("1", {"2": DtbEntry(0.5, 0.1, 1)}, "s")


def test_noise_records_compare_by_fields():
    assert NoiseModel(60.0, -110.0) == NoiseModel(k=60.0, rsrp0=-110.0, sigma_floor=0.3,
                                                  sigma_cap=15.0)
    assert NoiseModel(60.0, -110.0) != NoiseModel(60.0, -110.0, sigma_cap=14.0)
    assert repr(NoisePoint(-80.0, 1.5)) == "NoisePoint(rsrp=-80.0, sigma_hat=1.5)"
    assert {NoisePoint(-80.0, 1.5), NoisePoint(-80.0, 1.5)} == {NoisePoint(-80.0, 1.5)}


@pytest.mark.parametrize("record", [Position(0.0, 0.0), DtbEntry(0.0, 0.0, 1),
                                    NoiseModel(60.0, -110.0), NoisePoint(-80.0, 1.0)])
def test_records_hold_their_fields_in_slots(record):
    assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        record.extra = 1.0


CHECKS = [
    (lambda: Position(math.inf, 0.0), "non-finite coordinate in Position(x=inf, y=0.0, z=0.0)"),
    (lambda: Position(0.0, 0.0, math.nan),
     "non-finite coordinate in Position(x=0.0, y=0.0, z=nan)"),
    (lambda: DtbEntry(0.0, -1.0, 0), "DTB entry with no samples"),
    (lambda: DtbEntry(0.0, -1.0, 1), "negative DTB std"),
    (lambda: NoiseModel(math.nan, math.nan, 1.0, 0.5),
     "noise model scale must be positive, got nan"),
    (lambda: NoiseModel(60.0, math.inf, 1.0, 0.5), "noise model asymptote must be finite, got inf"),
    (lambda: NoiseModel(60.0, -110.0, 1.0, 0.5), "need 0 < sigma_floor < sigma_cap < inf"),
    (lambda: NoiseModel(60.0, -110.0, 0.3, math.inf), "need 0 < sigma_floor < sigma_cap < inf"),
    (lambda: NoiseModel(60.0, -110.0, 1e-200, 15.0), "sigma_floor 1e-200 squares to 0"),
    (lambda: NoiseModel(1e300, -110.0, 0.3, 1e200), "sigma_cap 1e+200 squares to inf"),
    (lambda: NoisePoint(-80.0, -1.0), "negative sigma_hat"),
    (lambda: _check_state(math.nan, 0.0, math.inf, 0.0, 1.0), "non-finite filter covariance"),
    (lambda: _check_state(math.nan, 0.0, 1.0, 2.0, 1.0),
     "covariance not PSD, min eigenvalue -1.000e+00"),
    (lambda: _check_state(math.nan, 0.0, 1.0, 0.0, 1.0), "non-finite filter position"),
]


@pytest.mark.parametrize("build,message", CHECKS, ids=[m for _, m in CHECKS])
def test_checks_raise_their_messages_in_order(build, message):
    """Each record's first failing check, with the others also failing where
    they run later, raises ValueError with its exact message."""
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message
