import dataclasses
import math
import warnings
from unittest import mock

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
    effort_inducement_check,
    principal_payoff,
    principal_surplus,
    retention_margin,
    surpluses,
)
from twinvest.dynamics import AgentKind, simulate_two_period
from twinvest.families import ParametricFamily as F
from twinvest.fixtures import f1, f2, f3, f4
from twinvest.investment import (
    RegimeLabel,
    classify_regime,
    deterrent_sign_change_roots,
    displacement_threshold,
    optimal_investment,
)
from twinvest.model import (
    DomainError,
    GridEval,
    InvalidModelError,
    ModelPrimitives,
    evaluate,
    evaluate_grid,
    pair_terms,
    retention_holds,
    validate,
)
from twinvest.optimize import bisect_bracket
from twinvest.oracle import certify_investment, certify_regimes
from twinvest.sampling import random_models


def exactness_models() -> list[ModelPrimitives]:
    """The discrete fixtures plus seeded random models of every family kind."""
    return [f1(), f2(), f3(), f4()] + random_models(50, seed=12345)


def f2_threshold_closed_form() -> float:
    # The retention margin of f2 vanishes where
    # 0.85*(0.5-0.2v)^2 = (0.2-0.1v)*(0.7+0.1v), i.e. at the smaller root of
    # 0.044 v^2 - 0.12 v + 0.0725 = 0 (hand rearrangement, independent of
    # the bisection path).
    disc = math.sqrt(0.12**2 - 4.0 * 0.044 * 0.0725)
    return (0.12 - disc) / (2.0 * 0.044)


def near_tie_f2() -> ModelPrimitives:
    # f2 with the stake at which the retention margin at the grid point
    # v = 0.6 is -1e-13: 0.6 is infeasible, the feasible run ends at 0.599
    # and the displacement threshold sits just below 0.6
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

    @pytest.mark.parametrize("diagnostic", [classify_regime, displacement_threshold, deterrent_sign_change_roots])
    def test_broken_model_is_a_named_error(self, diagnostic):
        # a zero probability gap at v = 1: the rates and the margin would
        # divide by zero there
        model = dataclasses.replace(f1(), pi1=F.affine(0.5, 0.0))
        with pytest.raises(InvalidModelError) as exc:
            diagnostic(model)
        assert exc.value.report == validate(model)
        assert exc.value.report.violation.condition == "pi-ordering"

    @pytest.mark.parametrize(
        "model, condition, expected",
        [
            (dataclasses.replace(f3(), s_high=f3().s_low), "stakes-ordering", (RegimeLabel.INTERIOR, 0.0, [])),
            (
                dataclasses.replace(f1(), s_high=0.2), "baseline-contracting-viability",
                (RegimeLabel.MAX_INVESTMENT, 0.0, []),
            ),
        ],
    )
    def test_stakes_or_viability_failure_is_answered(self, model, condition, expected):
        # only a failed grid check raises: the stakes and the viability at
        # v = 0 enter no rate, and the margin is defined on a valid grid
        assert validate(model).violation.condition == condition
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = classify_regime(model), displacement_threshold(model), deterrent_sign_change_roots(model)
        assert got == expected


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
            rate_cost = twinvest.investment._rate_cost(g)
            rate_sep, dq = twinvest.investment._pair_rates(g)
            diff = rate_cost - rate_sep
            codes = twinvest.investment._regime_codes(rate_cost, rate_sep, dq.min(axis=-1), dq.max(axis=-1))
        tol = twinvest.model.DEFAULT_TOL
        no_investment = np.all(dq > tol, axis=-1) | np.all(diff < -tol, axis=-1)
        max_investment = np.all(dq <= tol, axis=-1) & np.all(diff > tol, axis=-1)
        interior = (diff[..., 0] > tol) & (diff[..., -1] < -tol)
        expected = np.where(no_investment, 0, np.where(max_investment, 1, np.where(interior, 2, 3)))
        assert np.array_equal(codes, expected)


#: Costs around the retention tie ``0.5 - 4*cost == 0`` at ``pi1 = 0.5``.
COSTS = (0.1, 0.125 - 2.0**-50, 0.125, 0.125 + 2.0**-50, 0.2)


@st.composite
def bounded_maps(draw):
    """The cost and pair tables of a map of cells, a block size and the
    cells' primitives, with a row per cell along each axis.

    The cost table's rows run along axis 1 and the pair table's along axis
    2, each one row or several, and a cell pairs them.  pi0 is 0.25, so
    Q'/(Q-1) is four times pi1's slope where pi1 is 0.5: the slopes, drawn
    from :data:`SLOPES` (a quarter of them for pi1), make rate differences
    on and around ``DEFAULT_TOL``, NaN and infinite.  A row may be all NaN,
    as a row failing a check of validate is.  The grid's length need not
    be a multiple of the block size, which may exceed it."""
    r1, r2, size = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(2, 12))
    block = draw(st.integers(1, size + 1))

    def rows(pool, count):  # flat rows make a tie at every point of a block
        drawn = draw(st.lists(st.sampled_from(pool), min_size=count * size, max_size=count * size))
        x = np.array(drawn).reshape(count, size)
        return x[:, :1].repeat(size, axis=1) if draw(st.booleans()) else x

    def nan_rows(*arrays):
        bad = np.array(draw(st.lists(st.booleans(), min_size=len(arrays[0]), max_size=len(arrays[0]))))
        return ~bad, [np.where(bad[:, None], np.nan, x) for x in arrays]

    cost_ok, (cost, dcost) = nan_rows(rows(COSTS, r1), rows(SLOPES, r1))
    pi1_ok, (pi1, dpi1) = nan_rows(rows((0.5, 0.5 + 2.0**-50, 0.75), r2), rows(SLOPES, r2) / 4.0)
    model = ModelPrimitives(F.constant(0.25), F.constant(0.5), F.constant(0.1), 1.0, 1.0, 0.0)
    vs = np.linspace(0.0, 1.0, size)
    on_axis1 = lambda x: x.reshape(r1, 1, *x.shape[1:])  # noqa: E731
    on_axis2 = lambda x: x.reshape(1, r2, *x.shape[1:])  # noqa: E731
    pi0 = np.full((1, 1, size), 0.25)
    with np.errstate(all="ignore"):
        cost_table = twinvest.investment._cost_table(
            vs, dict(ok=on_axis1(cost_ok), value=on_axis1(cost), slope=on_axis1(dcost))
        )
        t0 = dict(ok=np.ones((1, 1), bool), value=pi0, slope=0.0 * pi0)
        t1 = dict(ok=on_axis2(pi1_ok), value=on_axis2(pi1), slope=on_axis2(dpi1))
        pair_table = twinvest.investment._pair_table(model, vs, t0, t1, np.ones((1, r2), bool))
    cells = lambda x: np.broadcast_to(x, (r1, r2, size))  # noqa: E731 - a grid per cell
    g = GridEval(vs, *map(cells, (pi0, on_axis2(pi1), on_axis1(cost), 0.0 * pi0, on_axis2(dpi1), on_axis1(dcost))))
    ok = cost_ok[:, None] & pi1_ok[None, :]
    return model, cost_table, pair_table, block, g, ok


class TestDecidedFromBounds:
    """What the tables' extremes decide is what every point decides."""

    @staticmethod
    def reference(g: GridEval):
        """The regime index, whether the retention margin holds at every
        point and the rate difference and margin at each point, per cell,
        from every point's values (unit quality importance)."""
        tol = twinvest.model.DEFAULT_TOL
        with np.errstate(all="ignore"):
            q = g.pi1 / g.pi0
            dq = (g.dpi1 * g.pi0 - g.pi1 * g.dpi0) / (g.pi0 * g.pi0)
            diff = g.dcost / g.cost - dq / (q - 1.0)
            margin = 1.0 * (1.0 - 1.0 / q) - g.cost / (g.pi1 - g.pi0)
        no_investment = np.all(dq > tol, axis=-1) | np.all(diff < -tol, axis=-1)
        max_investment = np.all(dq <= tol, axis=-1) & np.all(diff > tol, axis=-1)
        interior = (diff[..., 0] > tol) & (diff[..., -1] < -tol)
        codes = np.where(no_investment, 0, np.where(max_investment, 1, np.where(interior, 2, 3)))
        return codes, np.all(margin >= 0.0, axis=-1), diff, margin

    @settings(max_examples=300, deadline=None)
    @given(bounded_maps())
    def test_decided_cells_equal_every_point(self, drawn):
        model, cost, pair, block, g, ok = drawn
        with mock.patch.object(twinvest.investment, "_BLOCK_POINTS", block):
            valid, codes, retained = twinvest.investment._decided(model, cost, pair)
        expected, held, _, margin = self.reference(g)
        assert np.array_equal(valid, ok & (margin[..., 0] >= 0.0))
        decided = codes >= 0
        assert np.array_equal(codes[decided], expected[decided])
        assert held[retained].all()

    @settings(max_examples=300, deadline=None)
    @given(bounded_maps())
    def test_block_bounds_hold_at_every_point(self, drawn):
        # on every cell, whatever the row bounds decide; a block of one
        # point decides exactly as that point does
        model, cost, pair, block, g, ok = drawn
        cells = np.nonzero(np.ones(ok.shape, bool))
        with mock.patch.object(twinvest.investment, "_BLOCK_POINTS", block), np.errstate(all="ignore"):
            on_blocks = twinvest.investment._bounds(model, cost, pair, cells)
        _, _, diff, margin = self.reference(g)
        tol = twinvest.model.DEFAULT_TOL
        every_point = [np.all(diff < -tol, axis=-1), np.all(diff > tol, axis=-1), np.all(margin >= 0.0, axis=-1)]
        for bound, held in zip(on_blocks, every_point):
            bound = bound.reshape(ok.shape)
            assert held[ok & bound].all()
            if block == 1:
                assert np.array_equal(bound[ok], held[ok])

    def test_each_outcome(self):
        # cells: cost'/cost below Q'/(Q-1) everywhere; above it with Q' <= 0
        # (MaxInvestment) and with Q' > 0 at one point (Indeterminate); and
        # crossing it from above (Interior, from the grid's ends).  Costs
        # 0.1 and 0.125 (a tie) keep the margin 0.5 - 4*cost nonnegative,
        # 0.2 does not.
        vs = np.linspace(0.0, 1.0, 3)
        cost = np.array([[0.125] * 3, [0.1] * 3, [0.1] * 3, [0.1, 0.1, 0.2]])[None]
        dcost = np.array([[-1.0] * 3, [0.0] * 3, [1.0] * 3, [1.0, 1.0, -1.0]])[None]
        dpi1 = np.array([[0.0] * 3, [-0.25] * 3, [0.0, 0.25, 0.0], [0.0] * 3])[None]
        pi0, pi1 = np.full((1, 4, 3), 0.25), np.full((1, 4, 3), 0.5)
        model = ModelPrimitives(F.constant(0.25), F.constant(0.5), F.constant(0.1), 1.0, 1.0, 0.0)
        ok = np.ones((1, 4), bool)
        cost_table = twinvest.investment._cost_table(vs, dict(ok=ok, value=cost, slope=dcost))
        t0, t1 = dict(ok=ok, value=pi0, slope=0.0 * pi0), dict(ok=ok, value=pi1, slope=dpi1)
        pair_table = twinvest.investment._pair_table(model, vs, t0, t1, ok)
        valid, codes, retained = twinvest.investment._decided(model, cost_table, pair_table)
        assert valid.tolist() == [[True] * 4]
        assert codes.tolist() == [[0, 1, 3, 2]]
        assert retained.tolist() == [[True, True, True, False]]
        expected, held, _, _ = self.reference(GridEval(vs, pi0, pi1, cost, 0.0 * pi0, dpi1, dcost))
        assert expected.tolist() == [[0, 1, 3, 2]] and held.tolist() == [[True, True, True, False]]


@st.composite
def margin_blocks(draw):
    """A block whose feasibility margins are ``0.5 - cost`` (pi0 = 1,
    pi1 = 2, unit stakes) and an arbitrary rent per point.  Every cell is
    retained at ``v = 0``, as every valid cell is; 0.5 is a tie there."""
    n, size = draw(st.integers(1, 5)), draw(st.integers(2, 6))
    costs = (0.1, 0.5, 0.5 + 1e-12, 0.5 + 2e-12, 0.6, math.nan, math.inf)
    rents = (0.0, 1.0, 2.0, -1.0, math.nan, math.inf, -math.inf)
    cost, us = (
        np.array(draw(st.lists(st.sampled_from(pool), min_size=n * size, max_size=n * size))).reshape(n, size)
        for pool in (costs, rents)
    )
    cost[:, 0] = draw(st.lists(st.sampled_from(costs[:2]), min_size=n, max_size=n))
    ones = np.ones((n, size))
    return GridEval(np.linspace(0.0, 1.0, size), ones, 2.0 * ones, cost, 0.0 * ones, 0.0 * ones, 0.0 * ones), us


class TestFeasibleRun:
    @settings(max_examples=200, deadline=None)
    @given(margin_blocks())
    def test_matches_a_search_of_every_row(self, block):
        g, us = block
        model = ModelPrimitives(F.constant(0.5), F.constant(0.6), F.constant(0.1), 1.0, 1.0, 0.0)
        # the block's rent is the drawn one, not the one its primitives give
        with mock.patch.object(twinvest.investment, "information_rent", lambda g, pair: us):
            pair = pair_terms(model, g)
            nonneg = retention_holds(model, g, pair)
            # a row retained at every point is not opened, as the bounds leave it
            opened = np.flatnonzero(~nonneg.all(axis=1))
            found = twinvest.investment._grid_pass(g, pair, opened, nonneg[opened], None)
        # every row searched: the best feasible point with its rent
        n = len(us)
        feasible = 0.5 - g.cost >= 0.0
        j = np.argmax(np.where(feasible, us, -np.inf), axis=1)
        for got, want in zip((found.j, found.u_j), (j, us[np.arange(n), j])):
            assert got.tobytes() == want.tobytes()


class TestOptimalInvestment:
    def test_f1_max_investment(self):
        sol = optimal_investment(f1())
        assert sol.v_opt == pytest.approx(1.0, abs=1e-9)
        assert sol.u_at_opt == pytest.approx(1.0 / 6.0, abs=1e-9)
        assert not sol.deterrent_binding
        assert sol.displacement_threshold is None
        assert displacement_deterrent_check(f1(), sol.v_opt)

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
        # tiny stakes make the twin dominate at every investment level, and
        # a pi1 that ties pi0 at v = 1 zeroes the probability gap there:
        # both solvers name the failed check, with no warning on the way
        models = (
            dataclasses.replace(f1(), s_high=0.2),
            dataclasses.replace(f1(), pi1=F.affine(0.5, 0.0)),
        )
        for model, condition in zip(models, ("baseline-contracting-viability", "pi-ordering")):
            report = validate(model)
            assert report.violation.condition == condition
            for solve in (optimal_investment, lambda m: simulate_two_period(m, AgentKind.STRATEGIC)):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with pytest.raises(InvalidModelError) as raised:
                        solve(model)
                assert raised.value.report == report
                assert str(raised.value) == report.describe()

    def test_invalid_model_report_uses_the_solve_grid(self):
        # the report is validate's on the grid the solve was given
        model = dataclasses.replace(f1(), pi1=F.affine(0.5, 0.0))
        with pytest.raises(InvalidModelError) as raised:
            optimal_investment(model, 11)
        assert raised.value.report == validate(model, 11)
        assert raised.value.report.grid_points == 11

    def test_near_tie_run_end_stays_within_the_threshold(self):
        model = near_tie_f2()
        sol = optimal_investment(model)
        assert sol.v_opt <= sol.displacement_threshold
        assert displacement_deterrent_margin(model, sol.v_opt) >= 0.0
        assert sol.deterrent_binding
        assert certify_investment([("near-tie", model)]).passed

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


def retention_stake(model: ModelPrimitives, v: float) -> float:
    # the stake s_high - s_low at which the retention margin is 0 at v
    p = evaluate(model, v)
    return p.pi1 * p.cost / (p.pi1 - p.pi0) ** 2


@st.composite
def retention_models(draw):
    """A random model as drawn; or with its stake strictly between the
    retention stakes at 0 and at ``v_max``, as solve-batch sets it; or with
    the stake that zeroes the margin at one grid point, an exact tie like
    :func:`near_tie_f2`."""
    model = random_models(1, draw(st.integers(0, 2**32 - 1)))[0]
    kind = draw(st.sampled_from(("drawn", "between", "tie")))
    if kind == "drawn":
        return model
    if kind == "between":
        low, high = sorted((retention_stake(model, 0.0), retention_stake(model, model.v_max)))
        stake = low + draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)) * (high - low)
    else:
        stake = retention_stake(model, draw(st.sampled_from(model.grid().tolist())))
    return dataclasses.replace(model, s_high=model.s_low + stake)


class TestOneRetentionRule:
    @settings(max_examples=80, deadline=None)
    @given(retention_models())
    def test_solve_threshold_validation_and_inducement_agree(self, model):
        report = validate(model)
        if not report.passed:
            with pytest.raises(InvalidModelError) as raised:
                optimal_investment(model)
            assert raised.value.report == report
        else:
            sol = optimal_investment(model)
            assert displacement_deterrent_check(model, 0.0)
            assert displacement_deterrent_margin(model, sol.v_opt) >= 0.0
            # the roots split the line into runs where retention alternately
            # holds and fails; v_opt lies in no open run where it fails.  With
            # one root that is v_opt <= displacement_threshold.
            ends = list(sol.deterrent_roots) + [math.inf]
            assert not any(lo < sol.v_opt < hi for lo, hi in zip(ends[::2], ends[1::2]))
        for v in model.grid():
            assert effort_inducement_check(model, v) == displacement_deterrent_check(model, v)


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

    def test_exact_zero_margin_at_zero_is_a_root_at_zero(self):
        # the margin is exactly 0 at v = 0 and negative just after, so the
        # margin's root is the grid end 0.0, where the agent is still retained
        model = ModelPrimitives(
            F.affine(0.0677043630006203, 0.41070773464078636), F.constant(0.8920731302400443),
            F.constant(0.11772128568588341), 1.0, 0.4438495880048995, 0.28931973331149824,
        )
        assert validate(model).passed
        assert displacement_deterrent_margin(model, 0.0) == 0.0
        assert displacement_deterrent_margin(model, 1e-3) < 0.0
        sol = optimal_investment(model)
        assert (sol.v_opt, sol.displacement_threshold, sol.deterrent_roots) == (0.0, 0.0, (0.0,))
        assert displacement_threshold(model) == 0.0
        assert displacement_deterrent_check(model, 0.0)

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
        # not retained at v = 0, so not a model the solver takes
        with pytest.raises(InvalidModelError):
            optimal_investment(model)

    def test_feasible_run_from_a_bisected_root(self):
        # the margin is positive at 0, turns negative, and turns positive
        # again: the best feasible point lies in the second run, which
        # begins at the second root's bisected end
        model = ModelPrimitives(
            F.affine(0.12254045267400125, 0.05638877527337435), F.constant(0.525972415060961),
            F.power(0.4012175756894693, -0.13327311607154382, 1.9922893625863738),
            1.0, 1.566330960773247, 0.22951834894642242,
        )
        assert validate(model).passed
        roots = deterrent_sign_change_roots(model)
        assert roots == pytest.approx([0.12795, 0.68826], abs=1e-5)
        sol = optimal_investment(model)
        assert sol.deterrent_roots == tuple(roots)
        assert sol.displacement_threshold == roots[0]
        assert sol.v_opt >= roots[1]
        assert sol.deterrent_binding
        assert displacement_deterrent_check(model, sol.v_opt)

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

    def test_solve_and_strategic_simulate_share_the_principal_payoff(self):
        for model in [f1(), f2(), f3(), f4()] + random_models(200, 3):
            record = simulate_two_period(model, AgentKind.STRATEGIC).records[0]
            assert optimal_investment(model).principal_surplus_at_opt == record.principal_expected_payoff

    @pytest.mark.parametrize("grid_points", [2, 51, 1001])
    def test_solve_total_is_the_breakdowns(self, grid_points):
        # solve prints the sum of its solution's two payoffs as total_surplus
        for model in exactness_models():
            sol = optimal_investment(model, grid_points)
            assert sol.u_at_opt + sol.principal_surplus_at_opt == surpluses(model, sol.v_opt).total_surplus

    @pytest.mark.parametrize("v", [-1e-9, 1.0 + 1e-9, math.nan])
    def test_agent_surplus_rejects_outside_domain(self, v):
        with pytest.raises(DomainError):
            agent_surplus(f1(), v)


#: Every entry point of a solve or a diagnostic: each returns a labelled
#: result or raises InvalidModelError with the model's validate report.
ENTRY_POINTS = {
    "optimal_investment": optimal_investment,
    "classify_regime": classify_regime,
    "displacement_threshold": displacement_threshold,
    "deterrent_sign_change_roots": deterrent_sign_change_roots,
    "myopic": lambda m: simulate_two_period(m, AgentKind.MYOPIC),
    "strategic": lambda m: simulate_two_period(m, AgentKind.STRATEGIC),
}


def entry_point_results(model):
    """``{name: result or raised report}`` of every :data:`ENTRY_POINTS`
    entry on ``model``, with numpy warnings raised as errors."""
    found = {}
    for name, entry in ENTRY_POINTS.items():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                found[name] = entry(model)
            except InvalidModelError as raised:
                found[name] = raised.report
    return found


class TestDegenerateProbabilities:
    def test_zero_scale_power_family_is_a_finite_evaluation_failure(self):
        # pi1 = 0.7 + 0*v**0.5 is constant, but its slope is 0 * inf at v = 0
        model = dataclasses.replace(f1(), pi1=F.power(0.7, 0.0, 0.5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = validate(model)
        assert (report.violation.condition, report.violation.v) == ("finite-evaluation", 0.0)
        assert entry_point_results(model) == dict.fromkeys(ENTRY_POINTS, report)

    @pytest.mark.parametrize("make", [f1, f2, f3, f4], ids=lambda make: make.__name__)
    @pytest.mark.parametrize("family", ["affine", "constant"])
    def test_tiny_pi0_is_solved_or_a_named_error(self, make, family):
        # pi0*pi0 underflows below about 1.5e-154 and pi1/pi0 overflows for
        # a subnormal pi0, which validate refuses
        for a in (1e-160, 1e-200, 1e-300, 1e-311, 5e-324):
            pi0 = F.affine(a, 0.3) if family == "affine" else F.constant(a)
            model = dataclasses.replace(make(), pi0=pi0)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                report = validate(model)
            results = entry_point_results(model)
            if a < np.finfo(float).tiny:
                assert (report.violation.condition, report.violation.v) == ("pi0-positive", 0.0)
                assert results == dict.fromkeys(ENTRY_POINTS, report)
                continue
            assert report.passed
            assert not any(isinstance(r, twinvest.model.ValidationReport) for r in results.values())
            cases = [(f"{make.__name__}-{family}-{a}", model)]
            for certified in (certify_regimes(cases), certify_investment(cases)):
                assert certified.passed, certified.describe()


class TestSolverInvariants:
    """Outputs of the solver that must agree with each other on every model
    it solves, with no oracle: classify_regime reads the single-grid route
    and optimal_investment the tables' route, so one label rule decides
    both only if they give the same label."""

    @pytest.mark.parametrize("seed", [0, 1, 7, 12345])
    def test_labels_agree_with_the_solve(self, seed):
        for model in random_models(200, seed):
            solution = optimal_investment(model)
            assert classify_regime(model) is solution.regime
            if solution.regime is RegimeLabel.MAX_INVESTMENT:
                assert solution.v_star_unconstrained == model.v_max
