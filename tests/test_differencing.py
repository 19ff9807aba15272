import pytest

from tdoa_dtb.differencing import form_tdoa, reference_rows, select_reference
from tdoa_dtb.errors import TdoaDtbError
from tdoa_dtb.ingestion import Session
from tdoa_dtb.synthetic import ClockModel, Scenario, generate

from conftest import session_of


def make_epoch(values, t=0.0, rsrp=None):
    return session_of([(t, {node_id: (v, rsrp) for node_id, v in values.items()})])


def differences(session, ref, epoch=0):
    """form_tdoa's differences as (node_id, sd, rsrp) rows."""
    rows, diffs = form_tdoa(session, epoch, reference_rows(session, session.node_index(ref))[epoch])
    return [(session.node_ids[session.node[row]], sd, session.rsrp[row])
            for row, sd in zip(rows, diffs)]


def test_subtraction_definition():
    epoch = make_epoch({"n": 65.0, "m": 62.0})
    [(node_id, sd, _)] = differences(epoch, "m")
    assert sd == 3.0
    assert node_id == "n"


def test_reference_only_epoch_gives_empty_list():
    epoch = make_epoch({"m": 62.0})
    assert reference_rows(epoch, epoch.node_index("m")) == [0]
    assert form_tdoa(epoch, 0, 0) == ([], [])


def test_reference_missing():
    epoch = make_epoch({"n": 65.0})
    assert epoch.node_index("m") == -1 and reference_rows(epoch, -1) == [-1]
    assert reference_rows(make_epoch({"n": 65.0, "m": 62.0}, t=1.0), 5) == [-1]


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
    [ref_row] = reference_rows(epoch, epoch.node_index("2"))
    [row], _ = form_tdoa(epoch, 0, ref_row)
    assert epoch.rsrp[row] == -80.0
    assert epoch.rsrp[ref_row] == -85.0


def test_form_tdoa_walks_one_epoch_of_many():
    session = session_of([(0.0, {"1": (1.0, None), "2": (5.0, None)}),
                          (1.0, {"2": (7.0, None), "3": (2.0, None)}),
                          (2.0, {"1": (4.0, None), "2": (6.0, None), "3": (9.0, None)})])
    assert reference_rows(session, session.node_index("2")) == [1, 2, 5]
    assert reference_rows(session, session.node_index("3")) == [-1, 3, 6]
    assert reference_rows(session, session.node_index("1")) == [0, -1, 4]
    assert form_tdoa(session, 2, 5) == ([4, 6], [-2.0, 3.0])
    assert form_tdoa(session, 1, 3) == ([2], [5.0])


def test_reference_rows_match_a_linear_scan():
    """On random sessions, among them epochs that hold only the reference, the
    row of each node, and of a node the session never saw, is the one a scan
    of the epoch finds, or -1."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    ids = ["1", "2", "3", "10", "a"]
    epoch = st.dictionaries(st.sampled_from(ids), st.just((0.0, None)), min_size=1)

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(st.lists(epoch, min_size=1, max_size=8))
    def check(epochs):
        session = session_of([(float(t), obs) for t, obs in enumerate(epochs)])
        for ref in [*range(len(session.node_ids)), -1]:
            scan = [next((row for row in range(start, end) if session.node[row] == ref), -1)
                    for start, end in zip(session.starts, session.starts[1:])]
            assert reference_rows(session, ref) == scan

    check()


def test_select_most_visible():
    epochs = [(float(t), {"5": (1.0, None), "2": (1.0, None)}) for t in range(10)]
    epochs += [(float(t + 10), {"5": (1.0, None)}) for t in range(3)]
    assert select_reference(session_of(epochs)) == "5"


@pytest.mark.parametrize("ids,expected", [(("7", "3"), "3"), (("nan", "7"), "7"),
                                          (("nan", "NaN", "a"), "NaN"), (("0", "-0"), "-0")])
def test_select_tie_breaks_to_smallest_id(ids, expected):
    """Ties go to the first node in node order, an id that reads as NaN included."""
    epochs = [(float(t), {node_id: (1.0, None) for node_id in ids}) for t in range(4)]
    assert select_reference(session_of(epochs)) == expected


def test_select_empty_session():
    with pytest.raises(TdoaDtbError, match="cannot select a reference node from an empty session"):
        select_reference(Session([], [], [], [], [], [0]))
