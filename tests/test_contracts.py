import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import affine_models, investments
from twinvest.contracts import (
    Contract,
    agent_surplus,
    delta_pi,
    displacement_deterrent_check,
    displacement_deterrent_margin,
    displacement_deterrent_margin_raw,
    effort_inducement_check,
    employed_principal_payoff,
    incentive_wage,
    optimal_contract,
    outcome_separability,
    principal_payoff,
    principal_surplus,
    should_offer_twin,
    social_total_surplus,
    surpluses,
)
from twinvest.families import ParametricFamily as F
from twinvest.fixtures import f1, f2, f3, f4
from twinvest.model import DomainError, ModelPrimitives, evaluate_grid
from twinvest.sampling import random_models


def fixture_models():
    return [f1(), f2(), f3(), f4()]


class TestOptimalContract:
    def test_f1_at_zero(self):
        # 0.2 / 0.5
        c = optimal_contract(f1(), 0.0)
        assert c.t_high == pytest.approx(0.4)
        assert c.t_low == 0.0

    def test_f1_at_one(self):
        # 0.1 / 0.3
        c = optimal_contract(f1(), 1.0)
        assert c.t_high == pytest.approx(1.0 / 3.0)

    def test_vanishing_cost_limit(self):
        model = ModelPrimitives(F.affine(0.2, 0.3), F.affine(0.7, 0.1),
                                F.constant(1e-14), 1.0, 2.0, 0.0)
        c = optimal_contract(model, 0.5)
        assert c.t_high == pytest.approx(0.0, abs=1e-12)
        assert c.t_low == 0.0

    @pytest.mark.parametrize(
        "pi0, pi1",
        [(F.constant(0.5), F.constant(0.5)), (F.constant(0.0625), F.constant(0.0))],
        ids=["equal", "reversed"],
    )
    def test_unordered_probabilities_raise_a_domain_error(self, pi0, pi1):
        # no wage induces effort: a zero gap divided by, or a negative wage
        model = ModelPrimitives(pi0, pi1, F.constant(0.0625), 1.0, 1.0, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DomainError, match=r"pi1 = .* must exceed pi0 = .* at v = 0\.5"):
                optimal_contract(model, 0.5)

    def test_limited_liability_enforced(self):
        with pytest.raises(ValueError, match="t_high >= t_low >= 0"):
            Contract(0.1, 0.2)
        with pytest.raises(ValueError, match="t_high >= t_low >= 0"):
            Contract(0.1, -0.1)


class TestSurpluses:
    def test_gap_and_separability_are_the_breakdowns(self):
        for model in fixture_models():
            for v in model.grid(101):
                s = surpluses(model, v)
                assert (delta_pi(model, v), outcome_separability(model, v)) == (s.delta_pi, s.outcome_separability)

    def test_f1_at_zero(self):
        s = surpluses(f1(), 0.0)
        assert s.agent_surplus == pytest.approx(0.08)
        assert s.outcome_separability == pytest.approx(3.5)
        assert s.principal_surplus == pytest.approx(0.7 * (2.0 - 0.4))
        assert s.quality_importance == pytest.approx(2.0)

    def test_f1_at_one(self):
        s = surpluses(f1(), 1.0)
        assert s.agent_surplus == pytest.approx(1.0 / 6.0)
        assert s.outcome_separability == pytest.approx(1.6)
        assert s.principal_surplus == pytest.approx(0.8 * (2.0 - 1.0 / 3.0))

    def test_total_is_sum_and_matches_social_surplus(self):
        s = surpluses(f1(), 0.5)
        assert s.total_surplus == pytest.approx(s.agent_surplus + s.principal_surplus, abs=1e-9)
        # rent plus principal surplus re-assembles the first-best total
        assert s.total_surplus == pytest.approx(social_total_surplus(f1(), 0.5), abs=1e-9)

    @given(model=affine_models(), v=investments())
    @settings(max_examples=100, deadline=None)
    def test_rent_identity_two_forms(self, model, v):
        # pi0*c/(pi1-pi0) == c/(Q-1) up to rounding
        s = surpluses(model, v)
        q = s.outcome_separability
        cost = float(model.cost.value(v))
        assert s.agent_surplus == pytest.approx(cost / (q - 1.0), abs=1e-10)

    @given(model=affine_models(), v=investments())
    @settings(max_examples=100, deadline=None)
    def test_agent_indifference_under_optimal_contract(self, model, v):
        # expected payment minus cost equals the information rent
        c = optimal_contract(model, v)
        pi1 = float(model.pi1.value(v))
        cost = float(model.cost.value(v))
        incentive = pi1 * c.t_high + (1.0 - pi1) * c.t_low - cost
        assert incentive == pytest.approx(agent_surplus(model, v), abs=1e-10)

    @given(model=affine_models(), v=investments())
    @settings(max_examples=100, deadline=None)
    def test_incentive_constraint_binds_exactly(self, model, v):
        c = optimal_contract(model, v)
        gap = float(model.pi1.value(v)) - float(model.pi0.value(v))
        assert c.spread * gap == pytest.approx(float(model.cost.value(v)), abs=1e-12)


class TestPrincipalPayoff:
    def test_is_the_per_period_payoff_at_the_optimal_contract(self):
        # one formula: the one the strategic simulate records and rehire read
        for model in fixture_models() + random_models(200, 3):
            g = evaluate_grid(model, model.grid(1001))
            per_period = employed_principal_payoff(model, g.pi1, incentive_wage(g), 0.0)
            assert np.array_equal(principal_payoff(model, g), per_period)


class TestEffortInducement:
    def test_f1_at_zero(self):
        assert effort_inducement_check(f1(), 0.0)

    def test_low_stakes_fail(self):
        broken = dataclasses.replace(f1(), s_high=0.5)
        assert not effort_inducement_check(broken, 0.0)

    def test_is_the_retention_check(self):
        assert effort_inducement_check is displacement_deterrent_check

    def test_zero_quality_importance_never_induces(self):
        flat = dataclasses.replace(f1(), s_high=1.0, s_low=1.0)
        assert not effort_inducement_check(flat, 0.0)
        assert not effort_inducement_check(flat, 1.0)


class TestDisplacementDeterrent:
    def test_f1_holds_at_full_training(self):
        # 2 * (1 - 1/1.6) = 0.75 >= 1/3
        assert displacement_deterrent_check(f1(), 1.0)
        assert displacement_deterrent_margin(f1(), 1.0) == pytest.approx(0.75 - 1.0 / 3.0)

    def test_f2_fails_at_full_training(self):
        # 0.85 * 0.375 = 0.31875 < 1/3
        assert not displacement_deterrent_check(f2(), 1.0)

    def test_f2_holds_at_zero(self):
        # 0.85 * (2.5/3.5) ~ 0.60714 >= 0.4
        assert displacement_deterrent_check(f2(), 0.0)

    def test_raw_form_takes_a_negative_wage(self):
        # pi1 < pi0 makes the wage -0.5, which no Contract can hold
        model = ModelPrimitives(
            pi0=F.constant(0.6), pi1=F.constant(0.4), cost=F.constant(0.1),
            v_max=1.0, s_high=2.0, s_low=0.0,
        )
        with pytest.raises(ValueError):
            optimal_contract(model, 0.5)
        assert displacement_deterrent_margin_raw(model, 0.5) == pytest.approx(0.4 * 2.5 - 1.2)

    @given(model=affine_models(), v=investments())
    @settings(max_examples=100, deadline=None)
    def test_reduced_and_raw_forms_agree(self, model, v):
        reduced = displacement_deterrent_margin(model, v)
        raw = displacement_deterrent_margin_raw(model, v)
        # raw form is pi1 times the reduced one
        pi1 = float(model.pi1.value(v))
        assert raw == pytest.approx(pi1 * reduced, abs=1e-10)
        assert (reduced >= 0) == (raw >= 0) or abs(raw) < 1e-12


class TestSocialSurplus:
    def test_f1_values(self):
        assert social_total_surplus(f1(), 0.0) == pytest.approx(1.2)
        assert social_total_surplus(f1(), 1.0) == pytest.approx(1.5)

    def test_flat_when_pi1_and_cost_constant(self):
        model = ModelPrimitives(F.affine(0.2, 0.3), F.constant(0.8),
                                F.constant(0.1), 1.0, 2.0, 0.0)
        values = {social_total_surplus(model, v) for v in (0.0, 0.3, 1.0)}
        assert len(values) == 1

    @given(model=affine_models())
    @settings(max_examples=60, deadline=None)
    def test_nondecreasing_in_investment(self, model):
        vs = np.linspace(0.0, model.v_max, 101)
        values = [social_total_surplus(model, float(v)) for v in vs]
        assert all(b - a >= -1e-12 for a, b in zip(values, values[1:]))


class TestShouldOfferTwin:
    def test_f1_anticipating_full_training(self):
        # 1.33333 >= 1.12
        assert should_offer_twin(f1(), 1.0)

    def test_anticipating_zero_is_reflexive(self):
        for fixture in (f1, f2, f4):
            assert should_offer_twin(fixture(), 0.0)

    def test_near_tie_loss_is_not_offered(self):
        # the twin lowers the principal's surplus by 6.4e-14: a loss, not a tie
        model = ModelPrimitives(F.affine(0.3, 1e-13), F.constant(0.8), F.constant(0.2), 1.0, 2.0, 0.0)
        assert -1e-13 < principal_surplus(model, 1.0) - principal_surplus(model, 0.0) < 0.0
        assert not should_offer_twin(model, 1.0)

    def test_f4_zero_investment_equality(self):
        model = f4()
        assert should_offer_twin(model, 0.0)
        assert principal_surplus(model, 0.0) == pytest.approx(1.12)
