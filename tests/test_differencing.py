import pytest

from tdoa_dtb.differencing import form_tdoa, select_reference
from tdoa_dtb.errors import EmptySession, ReferenceMissing
from tdoa_dtb.ingestion import Epoch
from tdoa_dtb.synthetic import ClockModel, Scenario, generate


def make_epoch(values, t=0.0, rsrp=None):
    return Epoch(t, {node_id: (v, rsrp) for node_id, v in values.items()})


def test_subtraction_definition():
    epoch = make_epoch({"n": 65.0, "m": 62.0})
    _, [(node_id, sd, _)] = form_tdoa(epoch, "m")
    assert sd == 3.0
    assert node_id == "n"


def test_reference_only_epoch_gives_empty_list():
    assert form_tdoa(make_epoch({"m": 62.0}), "m") == (None, [])


def test_reference_missing():
    with pytest.raises(ReferenceMissing):
        form_tdoa(make_epoch({"n": 65.0}), "m")


def test_rover_bias_cancellation_constant_shift():
    base = {"1": 65.0, "2": 62.0, "3": 70.5}
    shifted = {k: v + 40.0 for k, v in base.items()}
    _, out1 = form_tdoa(make_epoch(base), "1")
    _, out2 = form_tdoa(make_epoch(shifted), "1")
    for a, b in zip(out1, out2):
        assert a[1] == pytest.approx(b[1], abs=1e-12)


def test_rover_bias_cancellation_synthetic(basic_scenario):
    """Same scenario with and without an injected clock gives identical TDoA."""
    clean = generate(basic_scenario)
    basic_scenario.rover_clock = ClockModel(kind="constant", value=40.0)
    biased = generate(basic_scenario)
    for e1, e2 in zip(clean.epochs, biased.epochs):
        _, t1 = form_tdoa(e1, "1")
        _, t2 = form_tdoa(e2, "1")
        for a, b in zip(t1, t2):
            assert a[1] == pytest.approx(b[1], abs=1e-9)


def test_anti_symmetry():
    epoch = make_epoch({"1": 65.0, "2": 62.0})
    _, [(_, fwd, _)] = form_tdoa(epoch, "2")
    _, [(_, rev, _)] = form_tdoa(epoch, "1")
    assert fwd == -rev


def test_output_count():
    epoch = make_epoch({"1": 1.0, "2": 2.0, "3": 3.0, "4": 4.0})
    assert len(form_tdoa(epoch, "2")[1]) == len(epoch.obs) - 1


def test_rsrp_carried_through():
    epoch = Epoch(0.0, {"1": (65.0, -80.0), "2": (62.0, -85.0)})
    ref_rsrp, [(_, _, rsrp)] = form_tdoa(epoch, "2")
    assert rsrp == -80.0
    assert ref_rsrp == -85.0


def test_select_most_visible():
    epochs = [make_epoch({"5": 1.0, "2": 1.0}, t=float(t)) for t in range(10)]
    epochs += [make_epoch({"5": 1.0}, t=float(t + 10)) for t in range(3)]
    assert select_reference(epochs) == "5"


def test_select_tie_breaks_to_smallest_id():
    epochs = [make_epoch({"7": 1.0, "3": 1.0}, t=float(t)) for t in range(4)]
    assert select_reference(epochs) == "3"


def test_select_empty_session():
    with pytest.raises(EmptySession):
        select_reference([])
