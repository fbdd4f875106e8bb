import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from twinvest.continuous import (
    ContinuousEffortModel,
    _induced_payments,
    _slope,
    contract_for_effort,
    foc_residual,
    limited_liability_binding,
    principal_optimal_effort,
    principal_surplus_at,
    principal_surplus_grid,
    validate_continuous,
)
from twinvest.contracts import Contract, employed_agent_payoff
from twinvest.families import ParametricFamily as F
from twinvest.fixtures import f5
from twinvest.model import DomainError, ValidationReport, Violation
from twinvest.sampling import random_continuous_models


@st.composite
def sqrt_like_models(draw):
    # concave power success curves bounded inside (0, 1]
    a = draw(st.floats(0.0, 0.2))
    gamma = draw(st.floats(0.3, 1.0))
    e_max = draw(st.floats(0.5, 1.5))
    b = draw(st.floats(0.05, (0.95 - a) / e_max**gamma))
    return ContinuousEffortModel(
        p=F.power(a, b, gamma),
        c0=draw(st.floats(0.05, 0.5)),
        e_min=draw(st.floats(0.02, 0.2)),
        e_max=e_max,
        s_high=draw(st.floats(0.5, 3.0)),
        s_low=0.0,
    )


def effort_between(model, t):
    """The effort a fraction ``t`` of the way from ``e_min`` to ``e_max``,
    clamped to that range: the interpolation can round one ulp past
    ``e_max``, an effort the model rightly refuses."""
    return min(max(model.e_min + t * (model.e_max - model.e_min), model.e_min), model.e_max)


def agent_utility(model, e, contract):
    """The agent's expected payment less the effort cost ``c0 * e``."""
    return employed_agent_payoff(float(model.p.value(e)), contract.t_high, contract.t_low, model.c0 * e)


#: A range whose interpolation at t = 1 rounds one ulp above its e_max.
ULP_PAST_E_MAX = dict(model=dataclasses.replace(f5(), e_min=0.1813016770743595, e_max=1.4419699426266182), t=1.0)


class TestContractForEffort:
    def test_f5_quarter_effort(self):
        # p' = 1 at e = 0.25: floor binds, spread is the full wage
        c = contract_for_effort(f5(), 0.25)
        assert c == Contract(0.25, 0.0)
        assert limited_liability_binding(f5(), 0.25)

    def test_f5_full_effort(self):
        # p' = 0.5 at e = 1
        c = contract_for_effort(f5(), 1.0)
        assert c.t_high == pytest.approx(0.5)
        assert c.t_low == 0.0

    def test_vanishing_cost_limit(self):
        cheap = dataclasses.replace(f5(), c0=1e-14)
        c = contract_for_effort(cheap, 0.5)
        assert c.t_high == pytest.approx(0.0, abs=1e-12)
        assert c.t_low == 0.0

    def test_slack_liability_branch(self):
        # negative intercept makes p/p' fall below e, so participation binds
        model = ContinuousEffortModel(F.affine(-0.1, 0.9), 0.3, 0.2, 1.0, 2.0, 0.0)
        assert validate_continuous(model).passed
        e = 0.8
        assert not limited_liability_binding(model, e)
        c = contract_for_effort(model, e)
        p = float(model.p.value(e))
        slope = float(model.p.derivative(e))
        assert c.t_low == pytest.approx(0.3 * e - p / slope * 0.3)
        # participation holds with equality when the floor is slack
        assert agent_utility(model, e, c) == pytest.approx(0.0, abs=1e-12)
        # general form equals the max of the two closed-form branches
        assert c.t_high == pytest.approx(
            max(0.3 / slope, 0.3 * e + (1.0 - p) / slope * 0.3)
        )

    def test_out_of_range_effort(self):
        with pytest.raises(DomainError):
            contract_for_effort(f5(), 0.01)

    @pytest.mark.parametrize("e", [10**400, -(10**400)], ids=["plus", "minus"])
    def test_integer_too_large_for_a_float_is_named(self, e):
        model = f5()
        want = f"effort too large for a float, outside [{model.e_min}, {model.e_max}]"
        for call in (principal_surplus_at, contract_for_effort):
            with pytest.raises(DomainError) as raised:
                call(model, e)
            assert str(raised.value) == want


class TestFocResidual:
    def test_induced_contract_is_stationary(self):
        assert foc_residual(f5(), 0.25, Contract(0.25, 0.0)) == pytest.approx(0.0, abs=1e-12)

    def test_overpaying_contract(self):
        assert foc_residual(f5(), 0.25, Contract(0.5, 0.0)) == pytest.approx(0.25)

    def test_flat_contract(self):
        assert foc_residual(f5(), 0.25, Contract(0.3, 0.3)) == pytest.approx(-0.25)

    @given(model=sqrt_like_models(), t=st.floats(0.0, 1.0))
    @example(**ULP_PAST_E_MAX)
    @settings(max_examples=100, deadline=None)
    def test_residual_vanishes_for_induced_contracts(self, model, t):
        e = effort_between(model, t)
        contract = contract_for_effort(model, e)
        assert abs(foc_residual(model, e, contract)) <= 1e-10

    @given(model=sqrt_like_models(), t=st.floats(0.0, 1.0))
    @example(**ULP_PAST_E_MAX)
    @settings(max_examples=100, deadline=None)
    def test_participation_holds_everywhere(self, model, t):
        e = effort_between(model, t)
        contract = contract_for_effort(model, e)
        assert agent_utility(model, e, contract) >= -1e-12


class TestPrincipalOptimalEffort:
    def test_f5_boundary_optimum(self):
        # surplus 2*sqrt(e) - e/2 increases on the whole interval
        sol = principal_optimal_effort(f5())
        assert sol.e_opt == 1.0
        assert sol.principal_surplus == pytest.approx(1.5, abs=1e-12)
        assert sol.contract.t_high == pytest.approx(0.5)
        assert sol.liability_binding

    def test_f5_low_stakes_interior(self):
        # 0.2/sqrt(e) = 0.5 at e = 0.16
        sol = principal_optimal_effort(dataclasses.replace(f5(), s_high=0.4))
        assert sol.e_opt == pytest.approx(0.16, abs=1e-6)
        assert sol.principal_surplus == pytest.approx(0.08, abs=1e-9)

    def test_worthless_outcomes_pin_minimum_effort(self):
        sol = principal_optimal_effort(dataclasses.replace(f5(), s_high=0.0, s_low=0.0))
        assert sol.e_opt == f5().e_min

    def test_grid_scan_equals_scalar_surplus_exactly(self):
        # the scan's argmax picks the refinement bracket; a grid value one
        # ulp off the scalar one could move it
        for model in [f5()] + random_continuous_models(50, seed=12345):
            es = model.grid()
            assert principal_surplus_grid(model, es).tolist() == [
                principal_surplus_at(model, e) for e in es
            ]

    def test_solution_fields_are_python_floats(self):
        # a grid point that wins the refinement is returned as a float too
        for model in [f5()] + random_continuous_models(100, 5):
            sol = principal_optimal_effort(model)
            assert type(sol.e_opt) is float
            assert type(sol.principal_surplus) is float

    @pytest.mark.parametrize("grid_points", [0, 1])
    def test_grid_of_fewer_than_two_points_rejected(self, grid_points):
        with pytest.raises(ValueError, match="at least 2 points"):
            principal_optimal_effort(f5(), grid_points)
        with pytest.raises(ValueError, match="at least 2 points"):
            validate_continuous(f5(), grid_points)

    @pytest.mark.parametrize(
        "p", [F.constant(0.5), F.affine(0.9, -0.1), F.exponential_decay(0.9, 0.5)]
    )
    def test_nonpositive_slope_rejected(self, p):
        model = dataclasses.replace(f5(), p=p)
        with pytest.raises(ValueError, match="must be strictly positive"):
            principal_optimal_effort(model)
        with pytest.raises(ValueError, match="must be strictly positive"):
            principal_surplus_at(model, model.e_min)


class TestValidateContinuous:
    def test_f5_passes_including_certain_success_at_top(self):
        assert validate_continuous(f5()).passed

    @pytest.mark.parametrize(
        "p,condition,e,detail",
        [
            (F.affine(-0.1, 1.0), "p-in-unit-interval", 0.04, "p must stay within (0, 1]"),
            (F.affine(0.5, 0.8), "p-in-unit-interval", 0.6255999999999999, "p must stay within (0, 1]"),
            (F.constant(0.5), "p-increasing", 0.04, "p slope must be strictly positive"),
            (F.exponential_decay(0.5, 1.0), "p-increasing", 0.04, "p slope must be strictly positive"),
            (F.power(0.0, 0.5, 1.5), "p-concave", 0.04, "p must be concave"),
            (F.power(0.1, 0.5, 2.0), "p-concave", 0.04, "p must be concave"),
        ],
    )
    def test_rejected_success_curve_named_at_its_first_point(self, p, condition, e, detail):
        report = validate_continuous(dataclasses.replace(f5(), p=p), 101)
        assert report == ValidationReport(False, Violation(condition, e, detail), (), 101)
        assert report.describe() == f"invalid: {condition} at {e:.6g}: {detail}"

    def test_stakes_ordering_reported_before_the_grid_is_evaluated(self):
        # evaluating this p would overflow, a warning that this suite raises
        model = dataclasses.replace(f5(), s_high=0.5, s_low=0.5, p=F.affine(1e308, 1e308))
        report = validate_continuous(model, 11)
        assert report == ValidationReport(False, Violation("stakes-ordering", None, "s_high=0.5 must exceed s_low=0.5"), (), 11)
        assert report.describe() == "invalid: stakes-ordering: s_high=0.5 must exceed s_low=0.5"

    def test_non_finite_success_curve_named_at_its_first_point(self):
        # p = 1e308 + 1e308*e overflows to inf from e = 0.8 on; that comes
        # before p > 1, which holds everywhere
        model = dataclasses.replace(f5(), p=F.affine(1e308, 1e308))
        es = model.grid(101)
        # validate_continuous itself must not warn: the suite raises numpy's
        # RuntimeWarning, so the call stays outside the errstate block
        report = validate_continuous(model, 101)
        with np.errstate(over="ignore"):
            first = float(es[np.argmax(~np.isfinite(1e308 + 1e308 * es))])
        assert 0.79 < first < 0.81
        assert report == ValidationReport(
            False, Violation("finite-evaluation", first, "p not finite/differentiable here"), (), 101
        )

    def test_effort_bounds(self):
        with pytest.raises(ValueError, match="e_min"):
            ContinuousEffortModel(F.power(0.0, 1.0, 0.5), 0.25, 0.0, 1.0, 2.0, 0.0)

    @pytest.mark.parametrize("field", ["e_min", "e_max", "s_high", "s_low"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_bounds_and_stakes_rejected(self, field, value):
        # an infinite stake would solve to an infinite surplus, and an
        # infinite e_max to a grid of NaN
        with pytest.raises(ValueError, match="finite"):
            dataclasses.replace(f5(), **{field: value})


@pytest.mark.parametrize("x", [-0.0, 0.0, math.nan, 5e-324, -5e-324, 1.0, -1.0])
def test_liability_floor_on_a_float_keeps_numpys_bits(x):
    # with c0 = 1, p = 0 and p' = 1 the participation payment is e itself;
    # compared as bytes, so the floor keeps -0.0 (and NaN) as np.maximum does
    cm = dataclasses.replace(f5(), c0=1.0)
    got = _induced_payments(cm, x, 0.0, 1.0)
    want = _induced_payments(cm, np.array([x]), np.array([0.0]), np.array([1.0]))
    assert [type(t) for t in got] == [float, float]
    assert [np.float64(t).tobytes() for t in got] == [t.tobytes() for t in want]


def test_contract_for_effort_has_the_grid_routes_bits():
    for cm in [f5(), *random_continuous_models(100, 3), *random_continuous_models(100, 8)]:
        es = cm.grid()
        t_high, t_low = _induced_payments(cm, es, np.asarray(cm.p.value(es), dtype=float), _slope(cm, es))
        contracts = [contract_for_effort(cm, e) for e in es.tolist()]
        assert np.array([c.t_high for c in contracts]).tobytes() == t_high.tobytes()
        assert np.array([c.t_low for c in contracts]).tobytes() == t_low.tobytes()
