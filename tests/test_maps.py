"""The paper's two regime maps, cell by cell: every valid cell's solve
certified against the oracles, and the abstract's displacement claim as a
property of the cells.

The maps are the sweep templates of ``configs/f3.json`` (50x50) and of
``tests/f2_binding_sweep.json`` (30x30, where the deterrent binds).  A
myopic agent trains fully and is displaced exactly when the retention
margin ``M = gap*(s_high - s_low) - pi1*cost/gap`` (``gap = pi1 - pi0``)
is negative at ``v_max``.  Its partials are sign-definite: ``M`` falls as
pi0 or the cost rises, so displacement never switches off as either
rises, and rises with pi1, so displacement never switches on as it rises.
The same properties are also checked on hypothesis-drawn models.
"""

from pathlib import Path

import hypothesis.strategies as st
import pytest
from conftest import affine_models
from hypothesis import HealthCheck, assume, event, given, settings

from twinvest.config import load_model_file
from twinvest.contracts import displacement_deterrent_margin_raw
from twinvest.dynamics import AgentKind, simulate_two_period
from twinvest.model import validate
from twinvest.oracle import certify_investment, certify_regimes

ROOT = Path(__file__).resolve().parent.parent
MAPS = {"f3": ROOT / "configs" / "f3.json", "f2_binding": Path(__file__).with_name("f2_binding_sweep.json")}


@pytest.fixture(scope="module")
def maps():
    """Each map's axes and its valid cells: ``{(i1, i2): model}``, keyed by
    the positions of the cell's values on axis 1 and axis 2."""
    out = {}
    for name, path in MAPS.items():
        mf = load_model_file(path)
        axis1, axis2 = mf.sweep
        cells = {}
        for i1, x1 in enumerate(axis1.values):
            row = mf.model.with_coefficient(axis1.target, axis1.coefficient, x1)
            for i2, x2 in enumerate(axis2.values):
                model = row.with_coefficient(axis2.target, axis2.coefficient, x2)
                if validate(model).passed:
                    cells[i1, i2] = model
        out[name] = axis1, axis2, cells
    return out


@pytest.mark.parametrize("name, valid", [("f3", 2500), ("f2_binding", 720)])
def test_every_valid_cell_is_certified(maps, name, valid):
    cells = maps[name][2]
    assert len(cells) == valid
    cases = [(f"{name}[{i1},{i2}]", model) for (i1, i2), model in sorted(cells.items())]
    for report in (certify_regimes(cases), certify_investment(cases)):
        assert report.passed, report.describe()
        assert report.checks >= valid


def myopic_displaced(cells) -> dict:
    return {key: simulate_two_period(model, AgentKind.MYOPIC).displacement_period == 2 for key, model in cells.items()}


def switches(displaced, axis) -> dict:
    """Each change of displacement between neighbouring valid cells as the
    value on ``axis`` (0 for axis 1, 1 for axis 2) rises, skipping invalid
    cells: ``{(was, now): [(key, next_key), ...]}``."""
    lines, found = {}, {}
    for key in sorted(displaced, key=lambda k: (k[1 - axis], k[axis])):
        lines.setdefault(key[1 - axis], []).append(key)
    for line in lines.values():
        for low, high in zip(line, line[1:]):
            if displaced[low] != displaced[high]:
                found.setdefault((displaced[low], displaced[high]), []).append((low, high))
    return found


ON, OFF = (False, True), (True, False)


@pytest.mark.parametrize(
    "name, displaced_cells, axis1_switch",
    [
        # cost[1] of f3 is the cost's decay rate: a higher one means a
        # lower cost at v_max, so displacement only switches off as it rises
        ("f3", 10, OFF),
        # cost[0] of f2_binding is the cost's level
        ("f2_binding", 268, ON),
    ],
)
def test_myopic_displacement_is_monotone_along_both_axes(maps, name, displaced_cells, axis1_switch):
    axis1, axis2, cells = maps[name]
    assert (axis1.target, axis2.target, axis2.coefficient) == ("cost", "pi0", 1)
    for axis in (axis1, axis2):
        assert list(axis.values) == sorted(set(axis.values))  # ascending
    displaced = myopic_displaced(cells)
    assert sum(displaced.values()) == displaced_cells
    # each switch the property allows occurs, and none of the other kind
    along2 = switches(displaced, 1)  # pi0[1] rises
    assert set(along2) == {ON}, along2.get(OFF)
    along1 = switches(displaced, 0)  # the cost coefficient rises
    assert set(along1) == {axis1_switch}, along1


@pytest.mark.parametrize("name", sorted(MAPS))
def test_strategic_agent_is_never_displaced(maps, name):
    for model in maps[name][2].values():
        assert simulate_two_period(model, AgentKind.STRATEGIC).displacement_period is None


#: The oracle's tie band: where the raw margin at ``v_max`` lies inside it,
#: the reduced margin's sign may round either way.
TIE_TOL = 1e-12


def displaced(model) -> bool:
    return simulate_two_period(model, AgentKind.MYOPIC).displacement_period == 2


# most drawn models fail the viability check at v = 0, so most draws are
# filtered out
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(affine_models(), st.sampled_from(["pi0", "pi1", "cost"]), st.floats(1e-6, 0.3))
def test_myopic_displacement_is_monotone_in_each_primitive(model, name, d):
    # coefficient 0 of one primitive shifted up by d raises it at every v
    shifted = model.with_coefficient(name, 0, model.family(name).coefficients[0] + d)
    assume(validate(model).passed and validate(shifted).passed)
    for m in (model, shifted):
        raw = displacement_deterrent_margin_raw(m, m.v_max)
        if abs(raw) > TIE_TOL:
            assert displaced(m) == (raw < 0.0)
    before, after = displaced(model), displaced(shifted)
    if before != after:
        event(f"{name} switches displacement {'on' if after else 'off'}")
    if name == "pi1":
        assert not (after and not before)  # never switches on as pi1 rises
    else:
        assert not (before and not after)  # never switches off as pi0 or the cost rises
