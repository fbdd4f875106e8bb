import dataclasses
import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import twinvest.investment
import twinvest.model
import twinvest.optimize
from twinvest.contracts import (
    agent_surplus,
    displacement_deterrent_check,
    displacement_deterrent_margin,
    principal_payoff,
    principal_surplus,
    retention_margin,
    surpluses,
)
from twinvest.families import ParametricFamily as F
from twinvest.fixtures import DISCRETE_FIXTURES, f1, f2, f3, f4
from twinvest.investment import (
    RegimeLabel,
    classify_regime,
    deterrent_sign_change_roots,
    displacement_threshold,
    optimal_investment,
    wage_slope_diagnostics,
)
from twinvest.model import DomainError, GridEval, ModelPrimitives, evaluate_grid, evaluate_model_grid
from twinvest.optimize import bisect_bracket
from twinvest.oracle import brute_force_investment
from twinvest.sampling import random_models


def exactness_models() -> list[ModelPrimitives]:
    """The discrete fixtures plus seeded random models of every family kind."""
    return [make() for make in DISCRETE_FIXTURES.values()] + random_models(50, seed=12345)


def f2_threshold_closed_form() -> float:
    # The retention margin of f2 vanishes where
    # 0.85*(0.5-0.2v)^2 = (0.2-0.1v)*(0.7+0.1v), i.e. at the smaller root of
    # 0.044 v^2 - 0.12 v + 0.0725 = 0 (hand rearrangement, independent of
    # the bisection path).
    disc = math.sqrt(0.12**2 - 4.0 * 0.044 * 0.0725)
    return (0.12 - disc) / (2.0 * 0.044)


def near_tie_f2() -> ModelPrimitives:
    # f2 with the stake at which the feasibility margin at v = 0.6 lies
    # within DEFAULT_TOL below zero: 0.6 ends the feasible run, and no sign
    # flip of the retention margin sits beside it
    return dataclasses.replace(f2(), s_high=0.736842105262958)


def f3_interior_closed_form() -> tuple[float, float]:
    # Rent slope vanishes where 0.24/(x*(0.8-x)) = 1.8 with x = 0.2+0.3v;
    # smaller root of x^2 - 0.8x + 2/15 = 0.
    x = (0.8 - math.sqrt(0.64 - 4.0 * (0.24 / 1.8))) / 2.0
    v = (x - 0.2) / 0.3
    rent = 0.2 * math.exp(-1.8 * v) * x / (0.8 - x)
    return v, rent


class TestClassifyRegime:
    def test_fixture_labels(self):
        assert classify_regime(f1()) is RegimeLabel.MAX_INVESTMENT
        assert classify_regime(f2()) is RegimeLabel.MAX_INVESTMENT
        assert classify_regime(f3()) is RegimeLabel.INTERIOR
        assert classify_regime(f4()) is RegimeLabel.NO_INVESTMENT

    def test_rising_separability_corollary(self):
        # pi0 constant, pi1 rising: Q strictly increasing everywhere
        assert classify_regime(f4()) is RegimeLabel.NO_INVESTMENT

    def test_all_constant_is_indeterminate(self):
        model = ModelPrimitives(F.constant(0.2), F.constant(0.7), F.constant(0.1),
                                1.0, 2.0, 0.0)
        assert classify_regime(model) is RegimeLabel.INDETERMINATE


#: Slopes on and around the regime tests' edges, NaN and infinities.
SLOPES = (-1.0, -2e-12, -1e-12, 0.0, 1e-12, 2e-12, 1.0, math.nan, math.inf, -math.inf)


@st.composite
def slope_grids(draw):
    """A grid (or a block of grids) of primitives whose ``Q'`` is ``dpi1``
    and whose ``U'`` sign is ``dcost - dpi1``: pi0 = 1, pi1 = 2, cost = 1."""
    shape = draw(st.sampled_from([(3,), (1, 2), (4, 3), (6, 2)]))
    dpi1, dcost = (
        np.array(draw(st.lists(st.sampled_from(SLOPES), min_size=math.prod(shape), max_size=math.prod(shape))))
        .reshape(shape)
        for _ in range(2)
    )
    ones = np.ones(shape)
    return GridEval(np.linspace(0.0, 1.0, shape[-1]), ones, 2.0 * ones, ones, 0.0 * ones, dpi1, dcost)


class TestClassifyRegimeCodes:
    @settings(max_examples=200, deadline=None)
    @given(slope_grids())
    def test_extrema_decide_like_every_point(self, g):
        # the all-points reading of the sufficient conditions, NaN and
        # infinities included
        with np.errstate(all="ignore"):
            rate_cost, rate_sep, dq = twinvest.investment._rates(g)
            diff = rate_cost - rate_sep
            codes = twinvest.investment._regime_codes(g)
        tol = twinvest.model.DEFAULT_TOL
        no_investment = np.all(dq > tol, axis=-1) | np.all(diff < -tol, axis=-1)
        max_investment = np.all(dq <= tol, axis=-1) & np.all(diff > tol, axis=-1)
        interior = (diff[..., 0] > tol) & (diff[..., -1] < -tol)
        expected = np.where(no_investment, 0, np.where(max_investment, 1, np.where(interior, 2, 3)))
        assert np.array_equal(codes, expected)


@st.composite
def margin_blocks(draw):
    """A block whose feasibility margins are ``0.5 - cost`` (pi0 = 1,
    pi1 = 2, unit stakes) and an arbitrary rent per point."""
    n, size = draw(st.integers(1, 5)), draw(st.integers(2, 6))
    costs = (0.1, 0.5, 0.5 + 1e-12, 0.5 + 2e-12, 0.6, math.nan, math.inf)
    rents = (0.0, 1.0, 2.0, -1.0, math.nan, math.inf, -math.inf)
    cost, us = (
        np.array(draw(st.lists(st.sampled_from(pool), min_size=n * size, max_size=n * size))).reshape(n, size)
        for pool in (costs, rents)
    )
    ones = np.ones((n, size))
    return GridEval(np.linspace(0.0, 1.0, size), ones, 2.0 * ones, cost, 0.0 * ones, 0.0 * ones, 0.0 * ones), us


class TestFeasibleRun:
    @settings(max_examples=200, deadline=None)
    @given(margin_blocks())
    def test_matches_a_search_of_every_row(self, block):
        g, us = block
        model = ModelPrimitives(F.constant(0.5), F.constant(0.6), F.constant(0.1), 1.0, 1.0, 0.0)
        found = twinvest.investment._feasible_run(model, g, us, np.argmax(us, axis=1))
        # every row searched: the best feasible point and the run of
        # feasible points around it
        n, size = us.shape
        feasible = 0.5 - g.cost >= -twinvest.model.DEFAULT_TOL
        j = np.argmax(np.where(feasible, us, -np.inf), axis=1)
        cols = np.arange(size)
        gap_left, gap_right = ~feasible & (cols < j[:, None]), ~feasible & (cols > j[:, None])
        jl = np.where(gap_left.any(axis=1), size - np.argmax(gap_left[:, ::-1], axis=1), 0)
        jr = np.where(gap_right.any(axis=1), np.argmax(gap_right, axis=1) - 1, size - 1)
        expected = (feasible.any(axis=1), j, us[np.arange(n), j], jl, jr)
        for got, want in zip(found, expected):
            assert got.tobytes() == want.tobytes()


class TestOptimalInvestment:
    def test_f1_max_investment(self):
        sol = optimal_investment(f1())
        assert sol.v_opt == pytest.approx(1.0, abs=1e-9)
        assert sol.u_at_opt == pytest.approx(1.0 / 6.0, abs=1e-9)
        assert not sol.deterrent_binding
        assert sol.displacement_threshold is None
        assert sol.feasible

    def test_f2_clipped_to_threshold(self):
        sol = optimal_investment(f2())
        expected = f2_threshold_closed_form()
        assert sol.deterrent_binding
        assert sol.v_opt == pytest.approx(expected, abs=1e-8)
        assert sol.v_star_unconstrained == pytest.approx(1.0, abs=1e-9)
        assert displacement_deterrent_check(f2(), sol.v_opt)

    def test_f3_interior(self):
        v_expected, u_expected = f3_interior_closed_form()
        sol = optimal_investment(f3())
        assert sol.v_opt == pytest.approx(v_expected, abs=1e-6)
        assert sol.u_at_opt == pytest.approx(u_expected, abs=1e-9)
        assert not sol.deterrent_binding
        # beats both endpoints: U(0) = 0.2/3, U(1) = 0.2*exp(-1.8)*0.5/0.3
        assert sol.u_at_opt > 0.2 / 3.0
        assert sol.u_at_opt > 0.2 * math.exp(-1.8) * 0.5 / 0.3

    def test_f4_zero_investment(self):
        sol = optimal_investment(f4())
        assert sol.v_opt == 0.0
        assert sol.u_at_opt == pytest.approx(0.08)

    def test_infeasible_reported_not_silent(self):
        # tiny stakes make the twin dominate at every investment level
        model = dataclasses.replace(f1(), s_high=0.2)
        sol = optimal_investment(model)
        assert not sol.feasible
        assert sol.v_opt is None and sol.u_at_opt is None
        assert not sol.deterrent_binding

    def test_near_tie_run_end_stays_at_its_grid_point(self):
        model = near_tie_f2()
        sol = optimal_investment(model)
        assert (sol.v_opt, sol.u_at_opt) == brute_force_investment(model, 1e-4, enforce_deterrent=True)
        assert sol.deterrent_binding

    def test_one_bisection_per_root(self, monkeypatch):
        # the feasible run's ends reuse the roots' bisections
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return bisect_bracket(*args, **kwargs)

        monkeypatch.setattr(twinvest.investment, "bisect_bracket", counting)
        for model in exactness_models():
            calls.clear()
            sol = optimal_investment(model)
            assert len(calls) == len(sol.deterrent_roots)

    def test_caller_grid_gives_the_same_solution(self):
        for model in exactness_models()[:20]:
            grid = evaluate_model_grid(model, 301)
            assert optimal_investment(model, 301, grid=grid) == optimal_investment(model, 301)

    def test_binding_solution_respects_constraint_and_order(self):
        from twinvest.model import evaluate
        from twinvest.sampling import random_models

        def rent_slope(model, v):
            p = evaluate(model, v)
            q = p.pi1 / p.pi0
            dq = (p.dpi1 * p.pi0 - p.pi1 * p.dpi0) / (p.pi0 * p.pi0)
            return (p.dcost * (q - 1.0) - p.cost * dq) / (q - 1.0) ** 2

        for model in random_models(40, 31):
            sol = optimal_investment(model)
            assert displacement_deterrent_check(model, sol.v_opt)
            # rent still rising at a binding clip point means the constraint
            # capped the solution below the unconstrained optimum
            if sol.deterrent_binding and rent_slope(model, sol.v_opt) > 0.0:
                assert sol.v_opt <= sol.v_star_unconstrained + 1e-9


class TestDisplacementThreshold:
    def test_f1_absent(self):
        # margin positive throughout (0.2071 at v=0... 0.4167 at v=1)
        assert displacement_threshold(f1()) is None

    def test_f2_root(self):
        v_star = displacement_threshold(f2())
        assert 0.90 < v_star < 0.91
        assert v_star == pytest.approx(f2_threshold_closed_form(), abs=1e-8)
        assert abs(displacement_deterrent_margin(f2(), v_star)) < 1e-10

    def test_zero_quality_importance_displaces_immediately(self):
        flat = dataclasses.replace(f1(), s_high=1.0, s_low=1.0)
        assert displacement_threshold(flat) == 0.0

    def test_sign_change_roots_listed(self):
        assert deterrent_sign_change_roots(f1()) == []
        roots = deterrent_sign_change_roots(f2())
        assert len(roots) == 1
        assert roots[0] == pytest.approx(f2_threshold_closed_form(), abs=1e-8)

    def test_roots_only_run_no_rent_refinement(self, monkeypatch):
        # the threshold and the roots need the margin's grid pass and its
        # bisections, not the golden-section searches of the rent
        expected = [optimal_investment(model) for model in exactness_models()]

        def refused(*args, **kwargs):
            raise AssertionError("rent refinement called")

        monkeypatch.setattr(twinvest.investment, "refine_max", refused)
        monkeypatch.setattr(twinvest.optimize, "golden_section_max", refused)
        for model, sol in zip(exactness_models(), expected):
            assert deterrent_sign_change_roots(model) == list(sol.deterrent_roots)
            assert displacement_threshold(model) == sol.displacement_threshold

    def test_grid_margin_equals_scalar_margin_exactly(self):
        # the sign-change scan reads the margin off one grid evaluation; it
        # must be the scalar margin bit for bit, or a near-zero grid value
        # could flip sign and move a root
        for model in exactness_models():
            vs = model.grid()
            grid_margin = retention_margin(model, evaluate_grid(model, vs))
            assert grid_margin.tolist() == [displacement_deterrent_margin(model, v) for v in vs]

    def test_double_crossing_lists_both_roots(self):
        # cost falls then flattens while the gap narrows: the margin is
        # negative at 0, turns positive, and turns negative again
        model = ModelPrimitives(F.affine(0.1, 0.68), F.affine(0.7, 0.1),
                                F.exponential_decay(0.6, 5.0), 1.0, 1.0, 0.0)
        vs = model.grid()
        margins = [displacement_deterrent_margin(model, v) for v in vs]
        assert margins[0] < 0.0 and max(margins) > 0.0 and margins[-1] < 0.0
        roots = deterrent_sign_change_roots(model)
        assert len(roots) == 2
        for root in roots:
            assert abs(displacement_deterrent_margin(model, root)) < 1e-10
        assert displacement_threshold(model) == 0.0
        assert optimal_investment(model).deterrent_roots == tuple(roots)

    def test_threshold_bracketed_by_dense_margin_scan(self):
        # enumeration oracle: the root must sit inside the first sign-change
        # interval of a fine margin grid
        import numpy as np

        from twinvest.sampling import random_models

        for model in random_models(40, 17):
            v_star = displacement_threshold(model)
            vs = np.linspace(0.0, model.v_max, 20001)
            margins = np.array([displacement_deterrent_margin(model, v) for v in vs])
            flips = np.nonzero((margins[:-1] >= 0) != (margins[1:] >= 0))[0]
            if v_star is None:
                assert len(flips) == 0
                assert margins.min() >= -1e-12
            elif v_star > 0.0:
                lo, hi = vs[flips[0]], vs[flips[0] + 1]
                assert lo <= v_star <= hi

    def test_monotone_in_quality_importance(self):
        # raising the stakes weakly raises the threshold, then removes it
        last = 0.0
        for s_high in (0.80, 0.85, 0.90, 0.95):
            model = dataclasses.replace(f2(), s_high=s_high)
            v_star = displacement_threshold(model)
            if v_star is None:
                last = float("inf")
                continue
            assert v_star >= last - 1e-12
            last = v_star
        assert displacement_threshold(dataclasses.replace(f2(), s_high=2.0)) is None


class TestWageSlopeDiagnostics:
    def test_f1_falling_wage(self):
        # wage runs 0.4 -> 0.375 -> 1/3 across the range
        d = wage_slope_diagnostics(f1(), 0.5)
        assert d.t_bar_slope < 0.0
        assert d.rising_gap_implies_falling_wage
        assert d.rising_wage_implies_falling_separability

    def test_f4_widening_gap(self):
        for v in (0.0, 0.5, 1.0):
            d = wage_slope_diagnostics(f4(), v)
            assert d.delta_pi_slope == pytest.approx(0.2)
            assert d.t_bar_slope < 0.0
            assert d.rising_gap_implies_falling_wage

    def test_flat_case_vacuous(self):
        model = ModelPrimitives(F.affine(0.2, 0.1), F.affine(0.6, 0.1),
                                F.constant(0.1), 1.0, 2.0, 0.0)
        d = wage_slope_diagnostics(model, 0.5)
        assert d.t_bar_slope == pytest.approx(0.0, abs=1e-15)
        assert d.delta_pi_slope == pytest.approx(0.0, abs=1e-15)
        assert d.rising_gap_implies_falling_wage
        assert d.rising_wage_implies_falling_separability

    def test_rising_wage_case(self):
        # constant cost with a fast-shrinking gap: wage rises, so the
        # separability slope must be negative and the rate condition hold
        model = ModelPrimitives(F.affine(0.2, 0.3), F.affine(0.75, 0.05),
                                F.constant(0.2), 1.0, 2.0, 0.0)
        for v in (0.0, 0.5, 1.0):
            d = wage_slope_diagnostics(model, v)
            assert d.t_bar_slope > 0.0
            assert d.q_slope < 0.0
            assert d.rising_wage_implies_falling_separability


class TestRefinementObjectives:
    def test_agent_surplus_matches_breakdown_exactly(self):
        for model in exactness_models():
            for v in model.grid(101):
                assert agent_surplus(model, v) == surpluses(model, v).agent_surplus

    def test_principal_surplus_matches_breakdown_exactly(self):
        for model in exactness_models():
            vs = model.grid(101)
            scalar = [principal_surplus(model, v) for v in vs]
            assert scalar == [surpluses(model, v).principal_surplus for v in vs]
            assert principal_payoff(model, evaluate_grid(model, vs)).tolist() == scalar

    @pytest.mark.parametrize("v", [-1e-9, 1.0 + 1e-9, math.nan])
    def test_agent_surplus_rejects_outside_domain(self, v):
        with pytest.raises(DomainError):
            agent_surplus(f1(), v)
