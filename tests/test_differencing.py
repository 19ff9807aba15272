import pytest

from tdoa_dtb.differencing import form_tdoa, select_reference
from tdoa_dtb.errors import EmptySession, ReferenceMissing
from tdoa_dtb.ingestion import Session
from tdoa_dtb.synthetic import ClockModel, Scenario, generate

from conftest import session_of


def make_epoch(values, t=0.0, rsrp=None):
    return session_of([(t, {node_id: (v, rsrp) for node_id, v in values.items()})])


def differences(session, ref, epoch=0):
    """form_tdoa's differences as (node_id, sd, rsrp) rows."""
    _, rows, diffs = form_tdoa(session, epoch, session.node_index(ref))
    return [(session.node_ids[session.node[row]], sd, session.rsrp[row])
            for row, sd in zip(rows, diffs)]


def test_subtraction_definition():
    epoch = make_epoch({"n": 65.0, "m": 62.0})
    [(node_id, sd, _)] = differences(epoch, "m")
    assert sd == 3.0
    assert node_id == "n"


def test_reference_only_epoch_gives_empty_list():
    epoch = make_epoch({"m": 62.0})
    assert form_tdoa(epoch, 0, epoch.node_index("m")) == (0, [], [])


def test_reference_missing():
    epoch = make_epoch({"n": 65.0})
    with pytest.raises(ReferenceMissing):
        form_tdoa(epoch, 0, epoch.node_index("m"))
    with pytest.raises(ReferenceMissing):
        form_tdoa(make_epoch({"n": 65.0, "m": 62.0}, t=1.0), 0, 5)


def test_rover_bias_cancellation_constant_shift():
    base = {"1": 65.0, "2": 62.0, "3": 70.5}
    shifted = {k: v + 40.0 for k, v in base.items()}
    out1 = differences(make_epoch(base), "1")
    out2 = differences(make_epoch(shifted), "1")
    for a, b in zip(out1, out2):
        assert a[1] == pytest.approx(b[1], abs=1e-12)


def test_rover_bias_cancellation_synthetic(basic_scenario):
    """Same scenario with and without an injected clock gives identical TDoA."""
    clean = generate(basic_scenario).toa
    basic_scenario.rover_clock = ClockModel(kind="constant", value=40.0)
    biased = generate(basic_scenario).toa
    assert clean.times == biased.times and clean.node == biased.node
    for epoch in range(len(clean.times)):
        for a, b in zip(differences(clean, "1", epoch), differences(biased, "1", epoch)):
            assert a[1] == pytest.approx(b[1], abs=1e-9)


def test_anti_symmetry():
    epoch = make_epoch({"1": 65.0, "2": 62.0})
    [(_, fwd, _)] = differences(epoch, "2")
    [(_, rev, _)] = differences(epoch, "1")
    assert fwd == -rev


def test_output_count():
    epoch = make_epoch({"1": 1.0, "2": 2.0, "3": 3.0, "4": 4.0})
    assert len(differences(epoch, "2")) == len(epoch.node) - 1


def test_rsrp_carried_through():
    epoch = session_of([(0.0, {"1": (65.0, -80.0), "2": (62.0, -85.0)})])
    ref_row, [row], _ = form_tdoa(epoch, 0, epoch.node_index("2"))
    assert epoch.rsrp[row] == -80.0
    assert epoch.rsrp[ref_row] == -85.0


def test_form_tdoa_walks_one_epoch_of_many():
    session = session_of([(0.0, {"1": (1.0, None), "2": (5.0, None)}),
                          (1.0, {"2": (7.0, None), "3": (2.0, None)}),
                          (2.0, {"1": (4.0, None), "2": (6.0, None), "3": (9.0, None)})])
    assert form_tdoa(session, 2, session.node_index("2")) == (5, [4, 6], [-2.0, 3.0])
    assert form_tdoa(session, 1, session.node_index("3")) == (3, [2], [5.0])
    with pytest.raises(ReferenceMissing):
        form_tdoa(session, 1, session.node_index("1"))


def test_select_most_visible():
    epochs = [(float(t), {"5": (1.0, None), "2": (1.0, None)}) for t in range(10)]
    epochs += [(float(t + 10), {"5": (1.0, None)}) for t in range(3)]
    assert select_reference(session_of(epochs)) == "5"


def test_select_tie_breaks_to_smallest_id():
    epochs = [(float(t), {"7": (1.0, None), "3": (1.0, None)}) for t in range(4)]
    assert select_reference(session_of(epochs)) == "3"


def test_select_empty_session():
    with pytest.raises(EmptySession):
        select_reference(Session([], [], [], [], [], [0]))
