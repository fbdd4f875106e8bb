import dataclasses
import math
import os
import re
import warnings

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import twinvest.oracle as oracle_module
from twinvest.contracts import Contract
from twinvest.dynamics import AgentKind, EffortLevel
from twinvest.fixtures import f1, f2, f3, f4, f5
from twinvest.oracle import (
    brute_force_contract,
    brute_force_effort,
    brute_force_investment,
    brute_force_two_period,
    certify_contract,
    certify_continuous,
    certify_investment,
    certify_regimes,
    certify_two_period,
    run_certification,
)
from twinvest.families import ParametricFamily as F
from twinvest.investment import RegimeLabel
from twinvest.model import DomainError, ModelPrimitives, evaluate, evaluate_grid
from twinvest.sampling import random_continuous_models, random_models


def one_shot_contract(model, v, payment_step=1e-3):
    """The payment enumeration as one broadcast over the whole grid.

    Reference for the streamed :func:`brute_force_contract`: same raw
    expressions and the same first-maximum rule of ``argmax``, with every
    pair materialized at once.
    """
    p = evaluate(model, v)
    top = max(model.s_high, 0.0)
    num = max(int(math.ceil(top / payment_step)), 1) + 1
    payments = np.linspace(0.0, top, num)
    t_high = payments[np.newaxis, :]
    t_low = payments[:, np.newaxis]
    agent_high = p.pi1 * t_high + (1.0 - p.pi1) * t_low - p.cost
    agent_low = p.pi0 * t_high + (1.0 - p.pi0) * t_low
    feasible = (agent_high >= -1e-12) & (agent_high - agent_low >= -1e-12)
    surplus = p.pi1 * (model.s_high - t_high) + (1.0 - p.pi1) * (model.s_low - t_low)
    surplus = np.where(feasible, surplus, -np.inf)
    k = int(np.argmax(surplus))
    if surplus.flat[k] == -np.inf:
        return None
    i, j = divmod(k, num)
    return Contract(float(payments[j]), float(payments[i]))


def payment_count(model, payment_step):
    return max(int(math.ceil(max(model.s_high, 0.0) / payment_step)), 1) + 1


def one_shot_zoom(model, endpoint, step):
    """:func:`oracle._zoom_confirms_interior` with all its points evaluated
    at once: the reference for the sliced scan."""
    if endpoint == 0.0:
        vs = np.linspace(0.0, min(step, model.v_max), 100_001)
    else:
        vs = np.linspace(max(model.v_max - step, 0.0), model.v_max, 100_001)
    g = evaluate_grid(model, vs)
    rent = g.pi0 * g.cost / (g.pi1 - g.pi0)
    i = int(np.argmax(rent))
    at_end = rent[0] if endpoint == 0.0 else rent[-1]
    return 0.0 < vs[i] < model.v_max and rent[i] > at_end


# Rows per block of the payment enumeration, from one row to all of them.
BLOCK_ROWS = [1, 3, 16, 200, 10_000]


class TestBruteForceInvestment:
    def test_f1_full_training(self):
        v, rent = brute_force_investment(f1(), step=1e-4)
        assert v == 1.0
        assert rent == pytest.approx(1.0 / 6.0, abs=1e-6)

    def test_f3_interior(self):
        v, rent = brute_force_investment(f3(), step=1e-4)
        assert v == pytest.approx(0.1223, abs=1e-3)
        assert rent == pytest.approx(0.06743057, abs=1e-7)

    def test_f2_stops_at_last_feasible_point(self):
        v, _ = brute_force_investment(f2(), step=1e-4)
        assert v == pytest.approx(0.9034, abs=2e-4)

    def test_unconstrained_variant(self):
        v, _ = brute_force_investment(f2(), step=1e-3, enforce_deterrent=False)
        assert v == 1.0

    def test_empty_feasible_set(self):
        model = dataclasses.replace(f1(), s_high=0.2)
        assert brute_force_investment(model, step=1e-3) is None

    def test_ties_toward_smaller_v(self):
        # constant primitives: rent is flat, enumeration must return 0
        from twinvest.families import ParametricFamily as F
        from twinvest.model import ModelPrimitives

        model = ModelPrimitives(F.constant(0.2), F.constant(0.7), F.constant(0.1),
                                1.0, 2.0, 0.0)
        v, _ = brute_force_investment(model, step=1e-3)
        assert v == 0.0


class TestBruteForceContract:
    def test_f1_at_zero(self):
        c = brute_force_contract(f1(), 0.0)
        assert c.t_high == pytest.approx(0.4, abs=1e-3)
        assert c.t_low == 0.0

    def test_f1_at_one(self):
        c = brute_force_contract(f1(), 1.0)
        assert c.t_high == pytest.approx(1.0 / 3.0, abs=1e-3)
        assert c.t_low == 0.0

    def test_vanishing_cost(self):
        from twinvest.families import ParametricFamily as F

        cheap = dataclasses.replace(f1(), cost=F.constant(1e-13))
        c = brute_force_contract(cheap, 0.5)
        assert c.t_high == 0.0
        assert c.t_low == 0.0

    @pytest.mark.parametrize(
        "pi0, pi1",
        [(F.constant(0.5), F.constant(0.5)), (F.constant(0.0625), F.constant(0.0))],
        ids=["equal", "reversed"],
    )
    def test_unordered_probabilities_raise_a_domain_error(self, pi0, pi1):
        # incentive compatibility would ask t_low > t_high, or hold nowhere
        model = ModelPrimitives(pi0, pi1, F.constant(0.0625), 1.0, 1.0, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DomainError, match=r"pi1 = .* must exceed pi0 = .* at v = 0\.5"):
                brute_force_contract(model, 0.5, payment_step=1 / 8)

    def test_infeasible_when_wage_exceeds_grid(self):
        model = dataclasses.replace(f1(), s_high=0.3)
        # wage at v=0 is 0.4 > 0.3, so no effort-inducing pair on [0, 0.3]^2
        assert brute_force_contract(model, 0.0) is None


class TestStreamedContractEnumeration:
    """The block-streamed enumeration returns exactly the one-shot result."""

    @pytest.mark.parametrize("make", [f1, f2, f3, f4])
    def test_fixtures_at_certified_investments(self, make):
        model = make()
        for v in (0.0, model.v_max / 2.0, model.v_max):
            assert brute_force_contract(model, v) == one_shot_contract(model, v)

    def test_random_models(self):
        rng = np.random.default_rng(7)
        for model in random_models(20, seed=12345):
            v = float(rng.uniform(0.0, model.v_max))
            found = brute_force_contract(model, v, payment_step=2e-3)
            assert found == one_shot_contract(model, v, payment_step=2e-3)

    def test_partial_last_block(self):
        num = payment_count(f1(), 0.0125)
        assert num > oracle_module._CHUNK_ROWS and num % oracle_module._CHUNK_ROWS != 0
        found = brute_force_contract(f1(), 0.5, payment_step=0.0125)
        assert found is not None
        assert found == one_shot_contract(f1(), 0.5, payment_step=0.0125)

    def test_fewer_payments_than_one_block(self):
        assert payment_count(f1(), 0.25) < oracle_module._CHUNK_ROWS
        found = brute_force_contract(f1(), 0.0, payment_step=0.25)
        assert found == Contract(0.5, 0.0)
        assert found == one_shot_contract(f1(), 0.0, payment_step=0.25)

    def test_infeasible_grid(self):
        model = dataclasses.replace(f1(), s_high=0.3)
        assert brute_force_contract(model, 0.0) is None
        assert one_shot_contract(model, 0.0) is None

    @pytest.mark.parametrize("rows", BLOCK_ROWS)
    def test_block_size_changes_no_result(self, rows, monkeypatch):
        monkeypatch.setattr(oracle_module, "_CHUNK_ROWS", rows)
        for make in (f1, f2, f3, f4):
            model = make()
            for v in (0.0, model.v_max):
                found = brute_force_contract(model, v, payment_step=1e-2)
                assert found == one_shot_contract(model, v, payment_step=1e-2)


# Constant primitives with pi0 < 0: outside any valid model, but the only
# way to make participation bind above the incentive line, which the
# enumeration, reading only the raw expressions, does not care about.  Here
# participation asks t_high + t_low >= 2*cost and incentive compatibility
# t_high - t_low >= cost, and the surplus is 1 - (t_high + t_low)/2, so the
# pairs on the participation line tie.  The stakes are dyadic, so on a
# dyadic payment step every surplus is exact.
def raw_model(cost):
    return ModelPrimitives(F.constant(-0.5), F.constant(0.5), F.constant(cost), 1.0, 2.0, 0.0)


def dyadic(low, high, denominator):
    """Multiples of ``1/denominator`` in ``[low, high]``: exact floats whose
    products with dyadic payments stay exact."""
    return st.integers(math.ceil(low * denominator), math.floor(high * denominator)).map(
        lambda k: k / denominator
    )


@st.composite
def tie_prone_contracts(draw):
    """Constant primitives with dyadic values, stakes and payment steps, so
    that every surplus is exact and tied best pairs, and infeasible pairs
    tying the best, come up often.  ``pi0 < 0`` is allowed, as in
    :func:`raw_model`; ``pi0 < pi1`` keeps every incentive-compatible pair
    at ``t_high > t_low``, which a :class:`Contract` needs."""
    pi1 = draw(dyadic(0.0, 0.95, 16))
    pi0 = draw(dyadic(-0.5, min(0.9, pi1 - 1 / 16), 16))
    cost = draw(dyadic(1 / 16, 1.0, 16))
    s_high, s_low = draw(dyadic(1 / 8, 2.0, 8)), draw(dyadic(-1.0, 1.0, 8))
    model = ModelPrimitives(F.constant(pi0), F.constant(pi1), F.constant(cost), 1.0, s_high, s_low)
    return model, draw(st.sampled_from([1 / 8, 1 / 16, 1 / 32, 1 / 64]))


class TestBlockKernel:
    """Blocks with no feasible pair, and exact surplus ties, give the
    one-shot result at every block size."""

    @pytest.mark.parametrize("rows", BLOCK_ROWS)
    def test_infeasible_blocks_before_and_after(self, rows, monkeypatch):
        # cost 1.25 leaves feasible pairs only at 0.5 <= t_low <= 0.75, rows
        # 32-48 of 129: with 16-row blocks, blocks 0-1 and 4-8 have none
        monkeypatch.setattr(oracle_module, "_CHUNK_ROWS", rows)
        model = raw_model(1.25)
        found = brute_force_contract(model, 0.5, payment_step=1 / 64)
        assert found == one_shot_contract(model, 0.5, payment_step=1 / 64)
        assert found == Contract(2.0, 0.5)

    @pytest.mark.parametrize("rows", BLOCK_ROWS)
    @pytest.mark.parametrize("step", [1 / 8, 1 / 64], ids=["one-block", "two-blocks"])
    def test_first_of_tied_pairs_wins(self, step, rows, monkeypatch):
        # cost 0.5: every pair with t_high + t_low = 1 and t_low <= 0.25
        # ties; on a 1/8 step those are rows 0-2, on a 1/64 step rows 0-16,
        # which straddle the first two 16-row blocks
        monkeypatch.setattr(oracle_module, "_CHUNK_ROWS", rows)
        model = raw_model(0.5)
        found = brute_force_contract(model, 0.5, payment_step=step)
        assert found == one_shot_contract(model, 0.5, payment_step=step)
        assert found == Contract(1.0, 0.0)
        p = evaluate(model, 0.5)
        surplus = [p.pi1 * (2.0 - (1.0 - t)) + (1.0 - p.pi1) * (0.0 - t) for t in (0.0, 0.25)]
        assert surplus[0] == surplus[1]  # the tie is exact

    @pytest.mark.parametrize("rows", BLOCK_ROWS)
    def test_infeasible_pairs_tying_the_best_are_passed_over(self, rows, monkeypatch):
        # with pi1 = 0 the surplus does not depend on t_high, so each row's
        # infeasible pairs, left of t_high = t_low + 2*cost, tie its feasible
        # ones; the best row is t_low = cost
        monkeypatch.setattr(oracle_module, "_CHUNK_ROWS", rows)
        model = ModelPrimitives(F.constant(-0.5), F.constant(0.0), F.constant(0.25), 1.0, 2.0, 0.0)
        found = brute_force_contract(model, 0.5, payment_step=1 / 8)
        assert found == one_shot_contract(model, 0.5, payment_step=1 / 8)
        assert found == Contract(0.75, 0.25)

    @pytest.mark.parametrize("rows", BLOCK_ROWS)
    def test_random_models_at_both_ends(self, rows, monkeypatch):
        monkeypatch.setattr(oracle_module, "_CHUNK_ROWS", rows)
        for model in random_models(50, seed=2024):
            for v in (0.0, model.v_max):
                found = brute_force_contract(model, v, payment_step=1e-2)
                assert found == one_shot_contract(model, v, payment_step=1e-2)

    @settings(max_examples=150, deadline=None)
    @given(tie_prone_contracts())
    def test_tie_prone_models_at_every_block_size(self, case):
        model, step = case
        want = one_shot_contract(model, 0.5, payment_step=step)
        for rows in BLOCK_ROWS:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(oracle_module, "_CHUNK_ROWS", rows)
                assert brute_force_contract(model, 0.5, payment_step=step) == want


class TestZoomSlices:
    """The endpoint zoom, evaluated in slices, agrees with one scan of all
    its points at both endpoints."""

    @staticmethod
    def cases():
        near_max_rate = 0.3 / (0.2 + 0.3 * 0.6) + 0.3 / (0.6 - 0.3 * 0.6) + 5e-5
        models = [
            f1(),  # rent rises to v_max
            f3(),  # interior peak far from both ends
            dataclasses.replace(f3(), cost=F.exponential_decay(0.2, 1.999)),  # peak near 0
            dataclasses.replace(f3(), cost=F.exponential_decay(0.2, 5.0)),  # rent falls from 0
            # peak a hair below v_max = 0.6
            dataclasses.replace(f3(), cost=F.exponential_decay(0.2, near_max_rate), v_max=0.6),
            ModelPrimitives(F.constant(0.2), F.constant(0.7), F.constant(0.1), 1.0, 2.0, 0.0),
        ]
        models += random_models(10, seed=31)
        return [(m, end) for m in models for end in (0.0, m.v_max)]

    @pytest.mark.parametrize("size", [977, 8_192, 100_001])
    def test_slices_agree_with_one_scan(self, size, monkeypatch):
        monkeypatch.setattr(oracle_module, "_ZOOM_SLICE", size)
        outcomes = set()
        for model, end in self.cases():
            found = oracle_module._zoom_confirms_interior(model, end, 1e-3)
            assert found == one_shot_zoom(model, end, 1e-3)
            outcomes.add((end == 0.0, found))
        assert len(outcomes) == 4  # both answers at both endpoints


class TestStepValidation:
    @pytest.mark.parametrize("step", [0.0, -1e-3, math.nan, math.inf])
    def test_bad_step_is_named(self, step):
        with pytest.raises(DomainError, match="payment_step"):
            brute_force_contract(f1(), 0.5, step)
        with pytest.raises(DomainError, match="^step "):
            brute_force_investment(f1(), step)
        with pytest.raises(DomainError, match="^step "):
            brute_force_effort(f5(), step)
        with pytest.raises(DomainError, match="v_step"):
            brute_force_two_period(f1(), AgentKind.MYOPIC, v_step=step)
        with pytest.raises(DomainError, match="payment_step"):
            brute_force_two_period(f1(), AgentKind.STRATEGIC, payment_step=step)


# Finite floats from 1e-300 to 1e300 in magnitude, with zeros, negatives and
# subnormals; a sum of two stays below the overflow threshold.
finite_floats = st.one_of(
    st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e300]),
)


@st.composite
def outer_sum_operands(draw):
    n = draw(st.integers(1, 40))
    vector = st.lists(finite_floats, min_size=n, max_size=n)
    return np.array(draw(vector)), np.array(draw(vector))


class TestRankTwoOuterSum:
    """The enumeration's row-plus-column sums, formed as rank-2 products,
    equal the broadcast add (``==`` does not see the sign of a zero)."""

    @settings(max_examples=200, deadline=None)
    @given(outer_sum_operands())
    def test_product_equals_broadcast_add(self, operands):
        high, low = operands
        left, right = oracle_module._outer_sum_factors(high, low)
        assert np.array_equal(left @ right, high[None, :] + low[:, None])

    @settings(max_examples=200, deadline=None)
    @given(outer_sum_operands(), st.data())
    def test_row_slice_ignores_what_the_buffer_held(self, operands, data):
        # the oracle writes each block into a reused buffer, which must not
        # leak into the product
        high, low = operands
        n = len(high)
        a = data.draw(st.integers(0, n - 1))
        b = data.draw(st.integers(a + 1, n))
        left, right = oracle_module._outer_sum_factors(high, low)
        buffer = np.full((n, n), np.nan)
        buffer[::2] = -np.inf
        block = buffer[: b - a]
        np.matmul(left[a:b], right, out=block)
        assert np.array_equal(block, high[None, :] + low[a:b, None])


class TestRowMaximum:
    """The enumeration's best feasible surplus per row, the masked maximum
    of the column term plus the row term, equals the masked maximum of the
    row-plus-column sums: rounding is monotone."""

    @settings(max_examples=300, deadline=None)
    @given(outer_sum_operands(), st.data())
    def test_maximum_then_add_equals_add_then_maximum(self, operands, data):
        high, low = operands
        n = len(high)
        mask = np.array(data.draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n)))
        mask = mask.reshape(n, n)
        mask[data.draw(st.integers(0, n - 1))] = False  # a row with no feasible pair
        rows = np.broadcast_to(high, (n, n))
        found = np.maximum.reduce(rows, axis=1, where=mask, initial=-np.inf) + low
        want = np.max(np.where(mask, high[None, :] + low[:, None], -np.inf), axis=1)
        assert np.array_equal(found, want)


class TestBruteForceEffort:
    def test_f5(self):
        e, surplus = brute_force_effort(f5())
        assert e == 1.0
        assert surplus == pytest.approx(1.5, abs=1e-9)

    def test_f5_low_stakes(self):
        e, surplus = brute_force_effort(dataclasses.replace(f5(), s_high=0.4))
        assert e == pytest.approx(0.16, abs=1e-4)
        assert surplus == pytest.approx(0.08, abs=1e-8)


class TestBruteForceTwoPeriod:
    def test_f2_myopic_displaced(self):
        trace = brute_force_two_period(f2(), AgentKind.MYOPIC)
        assert trace.displacement_period == 2
        assert trace.records[0].effort is EffortLevel.LOW

    def test_f1_myopic_retained(self):
        trace = brute_force_two_period(f1(), AgentKind.MYOPIC)
        assert trace.displacement_period is None
        assert all(r.effort is EffortLevel.HIGH for r in trace.records)

    def test_f2_strategic_near_threshold(self):
        trace = brute_force_two_period(f2(), AgentKind.STRATEGIC)
        assert trace.displacement_period is None
        assert trace.records[0].investment == pytest.approx(0.9034, abs=1e-3)


class TestCertification:
    def test_contract_on_fixtures(self):
        cases = [
            (name, model, v)
            for name, model in [("f1", f1()), ("f2", f2()), ("f3", f3()), ("f4", f4())]
            for v in (0.0, 0.5, 1.0)
        ]
        report = certify_contract(cases)
        assert report.passed
        assert report.checks == 12

    def test_investment_on_fixtures_and_random(self):
        cases = [("f1", f1()), ("f2", f2()), ("f3", f3()), ("f4", f4())]
        cases += [(f"r{i}", m) for i, m in enumerate(random_models(20, 21))]
        report = certify_investment(cases)
        assert report.passed
        assert report.max_v_error <= 1e-3

    def test_regimes_on_random(self):
        cases = [(f"r{i}", m) for i, m in enumerate(random_models(20, 22))]
        assert certify_regimes(cases).passed

    def test_two_period_on_fixtures(self):
        report = certify_two_period([("f1", f1()), ("f2", f2())])
        assert report.passed
        assert report.checks == 4

    def test_continuous_on_fixture_and_random(self):
        cases = [("f5", f5())]
        cases += [(f"rc{i}", m) for i, m in enumerate(random_continuous_models(10, 23))]
        assert certify_continuous(cases).passed

    def test_corrupted_solver_detected(self, monkeypatch):
        # fault injection: a solver that reports the wrong optimum must
        # surface as a disagreement, not pass silently
        import twinvest.oracle as oracle_module
        from twinvest.investment import optimal_investment as real_solver

        def corrupted(model, *args, **kwargs):
            sol = real_solver(model, *args, **kwargs)
            return dataclasses.replace(sol, v_opt=0.5 * sol.v_opt, u_at_opt=0.0)

        monkeypatch.setattr(oracle_module, "optimal_investment", corrupted)
        report = certify_investment([("f1", f1())])
        ov, ou = brute_force_investment(f1(), 1e-4)
        assert ov == 1.0
        TestDisagreementReports.assert_report(
            report,
            f"optimal_investment: FAIL checks=1 max_v_error=0.5 max_value_error={ou:.12g}\n"
            f"  disagreement f1: analytic=v=0.5 U=0 oracle=v=1 U={ou:.8g}",
            {
                "target_op": "optimal_investment", "checks": 1, "max_v_error": "0.5",
                "max_value_error": "%.12g" % ou, "v_tolerance": "0.001", "value_tolerance": "1e-09",
                "disagreements": [{"inputs": "f1", "analytic": "v=0.5 U=0", "oracle": f"v=1 U={ou:.8g}"}],
            },
        )

    def test_report_serialization(self):
        report = certify_contract([("f1", f1(), 0.0)])
        payload = report.to_dict()
        assert payload["target_op"] == "optimal_contract"
        assert payload["disagreements"] == []
        assert "PASS" in report.describe()


def test_run_certification_fixtures_only():
    reports = run_certification(seed=5, n_models=0)
    assert len(reports) == 5
    assert all(r.passed for r in reports)


@pytest.mark.parametrize("step", [0.0, -1e-4, math.nan, math.inf])
def test_run_certification_rejects_bad_step(step):
    with pytest.raises(DomainError, match="oracle_step"):
        run_certification(seed=5, n_models=0, oracle_step=step)


def test_run_certification_rejects_negative_model_count():
    with pytest.raises(DomainError, match="n_models"):
        run_certification(seed=5, n_models=-1)


def test_run_certification_enumerates_each_contract_once(monkeypatch):
    # the contract report and both two-period traces of f1 and f2 meet
    # again at v_max; in one process a run enumerates each (model, v,
    # payment_step) once (a forked worker keeps a cache of its own)
    monkeypatch.setattr(oracle_module, "_usable_cpus", lambda: 1)
    real, keys = oracle_module.brute_force_contract, []

    def counting(model, v, payment_step=1e-3):
        keys.append((model, v, payment_step))
        return real(model, v, payment_step)

    monkeypatch.setattr(oracle_module, "brute_force_contract", counting)
    reports = run_certification(seed=5, n_models=0)
    assert all(r.passed for r in reports)
    assert len(keys) == len(set(keys)) == 13
    contract_cases = {(m, v, 1e-3) for m in (f1(), f2(), f3(), f4()) for v in (0.0, m.v_max / 2.0, m.v_max)}
    assert contract_cases <= set(keys)
    # outside a run, every call enumerates
    keys.clear()
    for _ in range(2):
        brute_force_two_period(f2(), AgentKind.MYOPIC)
    assert len(keys) == 2 * len(set(keys))


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"n_models": 2.5}, "n_models must be an integer, got 2.5"),
        ({"seed": -1}, "seed must be >= 0, got -1"),
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
    ],
)
def test_run_certification_names_a_bad_count_or_seed(kwargs, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        run_certification(**{"seed": 5, "n_models": 0, **kwargs})


def sequential_certification(seed, n_models):
    """The five ``certify_*`` reports of ``run_certification(seed,
    n_models)``, each called directly, in order, on the same inputs."""
    fixtures = [("f1", f1()), ("f2", f2()), ("f3", f3()), ("f4", f4())]
    randoms = [(f"random-{i}", m) for i, m in enumerate(random_models(n_models, seed))]
    two_period = [("f1", f1()), ("f2", f2())] + [
        (f"random2p-{i}", m)
        for i, m in enumerate(random_models(min(n_models, 50), seed + 1, min_retention_margin=5e-3))
    ]
    continuous = [("f5", f5())] + [
        (f"randomc-{i}", m) for i, m in enumerate(random_continuous_models(min(n_models, 100), seed + 2))
    ]
    return [
        certify_contract([(name, m, v) for name, m in fixtures for v in (0.0, m.v_max / 2.0, m.v_max)]),
        certify_investment(fixtures + randoms),
        certify_regimes(randoms),
        certify_two_period(two_period),
        certify_continuous(continuous, seed=seed + 3),
    ]


#: The unpatched CPU count (``TestWorkers`` patches it).
USABLE_CPUS = oracle_module._usable_cpus


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestWorkers:
    """``run_certification`` shares the two-period cases with forked
    workers (``_usable_cpus`` is patched to fork some on any machine) and
    folds their certifier calls back in case order."""

    @pytest.fixture(autouse=True)
    def three_workers(self, monkeypatch):
        # more workers than the cores of a small machine
        monkeypatch.setattr(oracle_module, "_usable_cpus", lambda: 4)

    def test_the_fold_equals_the_sequential_loop(self):
        assert run_certification(seed=9, n_models=30) == sequential_certification(9, 30)
        assert_no_child_left()

    def test_disagreements_spread_over_the_queue_keep_case_order(self, monkeypatch):
        two_period = random_models(30, 10, min_retention_margin=5e-3)
        wrong = {f1(), two_period[5], two_period[14], two_period[15], two_period[29]}
        real = oracle_module.brute_force_two_period

        def oracle(model, kind, *args):
            trace = real(model, kind, *args)
            return dataclasses.replace(trace, displacement_period=7) if model in wrong else trace

        monkeypatch.setattr(oracle_module, "brute_force_two_period", oracle)
        reports = run_certification(seed=9, n_models=30)
        assert reports == sequential_certification(9, 30)
        assert [d.inputs for d in reports[3].disagreements] == [
            f"{name} {kind}"
            for name in ("f1", "random2p-5", "random2p-14", "random2p-15", "random2p-29")
            for kind in ("myopic", "strategic")
        ]
        assert_no_child_left()

    def test_a_nan_error_folds_as_in_the_sequential_loop(self):
        # a NaN error: max() and the tolerance test both pass over it
        errors = [0.25, math.nan, 0.5, 3.0, math.nan, 1.0] * 4
        cases = [(i, err) for i, err in enumerate(errors)]

        def case(i, err):
            np.linalg.inv(np.eye(200))  # about a millisecond, so that the workers take cases too
            return os.getpid(), [("record", f"c{i}", err, 2.0 - err, "a", "o"), ("match",)]

        with oracle_module._shared_cases(case, cases) as results:
            pids, calls = zip(*results())
        assert len(set(pids)) > 1
        folded = oracle_module._Certifier("t", 0.75, 0.75)
        sequential = oracle_module._Certifier("t", 0.75, 0.75)
        for one, args in zip(calls, cases):
            folded.replay(one)
            sequential.replay(case(*args)[1])
        assert repr(folded.report()) == repr(sequential.report())
        assert_no_child_left()

    def test_a_case_that_raises_in_a_worker_raises_in_the_parent(self, monkeypatch, tmp_path):
        # f1 is case 0, which a worker takes first; the parent runs it again
        raisers, real = tmp_path / "raisers", oracle_module.brute_force_two_period

        def oracle(model, kind, *args):
            if model == f1():
                with raisers.open("a") as f:
                    f.write(f"{os.getpid()}\n")
                raise ValueError("no outcome for f1")
            return real(model, kind, *args)

        monkeypatch.setattr(oracle_module, "brute_force_two_period", oracle)
        with pytest.raises(ValueError, match="^no outcome for f1$"):
            run_certification(seed=5, n_models=3)
        pids = set(raisers.read_text().split())
        assert str(os.getpid()) in pids and len(pids) > 1
        assert_no_child_left()

    def test_a_worker_that_dies_loses_no_case(self, monkeypatch):
        parent, real = os.getpid(), oracle_module._two_period_checks

        def checks(name, model):
            if os.getpid() != parent and name == "random2p-1":
                os._exit(1)
            return real(name, model)

        monkeypatch.setattr(oracle_module, "_two_period_checks", checks)
        assert run_certification(seed=9, n_models=20) == sequential_certification(9, 20)
        assert_no_child_left()

    def test_an_error_in_the_parent_reaps_the_workers(self, monkeypatch):
        def contract_report(cases):
            raise RuntimeError("contract report failed")

        monkeypatch.setattr(oracle_module, "certify_contract", contract_report)
        with pytest.raises(RuntimeError, match="contract report failed"):
            run_certification(seed=9, n_models=50)
        assert_no_child_left()

    def test_one_cpu_in_the_affinity_set_starts_no_worker(self, monkeypatch):
        monkeypatch.setattr(oracle_module, "_usable_cpus", USABLE_CPUS)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked on one CPU"))
        assert run_certification(seed=9, n_models=5) == sequential_certification(9, 5)

    def test_no_fork_starts_no_worker(self, monkeypatch):
        monkeypatch.delattr(os, "fork", raising=False)
        assert run_certification(seed=9, n_models=5) == sequential_certification(9, 5)


class TestDisagreementReports:
    """Every certifier's disagreement branch, forced by replacing the
    analytic function that ``oracle`` imports (or, where the oracle must
    find nothing, by a case it cannot solve); each report is pinned through
    ``passed``, ``describe()`` and ``to_dict()``."""

    @staticmethod
    def assert_report(report, describe, payload):
        assert not report.passed
        assert report.describe() == describe
        assert report.to_dict() == payload

    def test_contract_off_by_a_cent(self, monkeypatch):
        real = oracle_module.optimal_contract
        monkeypatch.setattr(
            oracle_module, "optimal_contract",
            lambda model, v: dataclasses.replace(real(model, v), t_high=real(model, v).t_high + 0.01),
        )
        report = certify_contract([("f1", f1(), 0.0), ("f1", f1(), 1.0)])
        err = real(f1(), 0.0).t_high + 0.01 - 0.4
        self.assert_report(
            report,
            "optimal_contract: FAIL checks=2 max_v_error=0 max_value_error=0.01\n"
            "  disagreement f1 v=0: analytic=(0.41, 0) oracle=(0.4, 0)\n"
            "  disagreement f1 v=1: analytic=(0.343333, 0) oracle=(0.334, 0)",
            {
                "target_op": "optimal_contract", "checks": 2, "max_v_error": "0",
                "max_value_error": "%.12g" % err, "v_tolerance": "0", "value_tolerance": "0.001000001",
                "disagreements": [
                    {"inputs": "f1 v=0", "analytic": "(0.41, 0)", "oracle": "(0.4, 0)"},
                    {"inputs": "f1 v=1", "analytic": "(0.343333, 0)", "oracle": "(0.334, 0)"},
                ],
            },
        )
        assert report.max_value_error == max(err, abs(real(f1(), 1.0).t_high + 0.01 - 0.334))

    def test_contract_without_a_feasible_pair(self):
        # the wage at v = 0 is 0.4, above every payment on [0, 0.3]
        model = dataclasses.replace(f1(), s_high=0.3)
        report = certify_contract([("f1-low", model, 0.0)])
        analytic = "Contract(t_high=0.4000000000000001, t_low=0.0)"
        self.assert_report(
            report,
            f"optimal_contract: FAIL checks=1 max_v_error=0 max_value_error=0\n"
            f"  disagreement f1-low v=0: analytic={analytic} oracle=no feasible pair",
            {
                "target_op": "optimal_contract", "checks": 1, "max_v_error": "0", "max_value_error": "0",
                "v_tolerance": "0", "value_tolerance": "0.001000001",
                "disagreements": [{"inputs": "f1-low v=0", "analytic": analytic, "oracle": "no feasible pair"}],
            },
        )

    def test_investment_without_a_feasible_point(self, monkeypatch):
        # retention fails on the whole grid; the solver (which would refuse
        # the model) answers with f1's solution
        solution = oracle_module.optimal_investment(f1())
        monkeypatch.setattr(oracle_module, "optimal_investment", lambda model: solution)
        report = certify_investment([("f1", f1()), ("f1-low", dataclasses.replace(f1(), s_high=0.5))])
        self.assert_report(
            report,
            "optimal_investment: FAIL checks=2 max_v_error=0 max_value_error=0\n"
            "  disagreement f1-low: analytic=v=1 oracle=no feasible point",
            {
                "target_op": "optimal_investment", "checks": 2, "max_v_error": "0", "max_value_error": "0",
                "v_tolerance": "0.001", "value_tolerance": "1e-09",
                "disagreements": [{"inputs": "f1-low", "analytic": "v=1", "oracle": "no feasible point"}],
            },
        )

    @pytest.mark.parametrize(
        "name,make,label,argmax",
        [
            ("f1", f1, RegimeLabel.NO_INVESTMENT, "1"),  # MaxInvestment, called NoInvestment
            ("f4", f4, RegimeLabel.MAX_INVESTMENT, "0"),  # NoInvestment, called MaxInvestment
            ("f4", f4, RegimeLabel.INTERIOR, "0"),  # the zoom finds no interior peak
        ],
    )
    def test_regime_label_against_the_argmax(self, name, make, label, argmax, monkeypatch):
        monkeypatch.setattr(oracle_module, "classify_regime", lambda model: label)
        report = certify_regimes([(name, make())])
        self.assert_report(
            report,
            f"classify_regime: FAIL checks=1 max_v_error=0 max_value_error=0\n"
            f"  disagreement {name}: analytic={label.value} oracle=argmax={argmax}",
            {
                "target_op": "classify_regime", "checks": 1, "max_v_error": "0", "max_value_error": "0",
                "v_tolerance": "0", "value_tolerance": "0",
                "disagreements": [{"inputs": name, "analytic": label.value, "oracle": f"argmax={argmax}"}],
            },
        )

    @pytest.mark.parametrize(
        "corrupt,brief,why",
        [
            (lambda t: dataclasses.replace(t, displacement_period=2), "[HH]", "displacement_period"),
            (lambda t: _with_record(t, 0, effort=EffortLevel.LOW), "[LH]", "period 1 structure"),
            (lambda t: _with_record(t, 1, employed=False), "[Hx]", "period 2 structure"),
            (lambda t: _with_record(t, 1, investment=t.records[1].investment + 0.01), "[HH]", "period 2 investment"),
            (lambda t: _with_record(t, 0, contract=Contract(t.records[0].contract.t_high + 0.01, 0.0)), "[HH]",
             "period 1 contract"),
            (lambda t: _with_record(t, 0, contract=Contract(t.records[0].contract.t_high, 0.01)), "[HH]",
             "period 1 contract"),
            (lambda t: _with_record(t, 1, agent_expected_payoff=t.records[1].agent_expected_payoff + 0.01), "[HH]",
             "period 2 payoff"),
            (lambda t: _with_record(t, 1, principal_expected_payoff=0.0), "[HH]", "period 2 payoff"),
        ],
    )
    def test_two_period_trace_reasons(self, corrupt, brief, why, monkeypatch):
        # the strategic f2 trace, corrupted in one field; the myopic one agrees
        real = oracle_module.simulate_two_period

        def simulate(model, kind):
            trace = real(model, kind)
            return corrupt(trace) if kind is AgentKind.STRATEGIC else trace

        monkeypatch.setattr(oracle_module, "simulate_two_period", simulate)
        report = certify_two_period([("f2", f2())])
        analytic = f"{brief} v=0.9034"
        self.assert_report(
            report,
            "simulate_two_period: FAIL checks=2 max_v_error=0 max_value_error=0\n"
            f"  disagreement f2 strategic: analytic={analytic} oracle=[HH] v=0.9034 ({why})",
            {
                "target_op": "simulate_two_period", "checks": 2, "max_v_error": "0", "max_value_error": "0",
                "v_tolerance": "0.002", "value_tolerance": "0.005",
                "disagreements": [
                    {"inputs": "f2 strategic", "analytic": analytic, "oracle": f"[HH] v=0.9034 ({why})"}
                ],
            },
        )

    def test_continuous_residual_and_optimum(self, monkeypatch):
        real = oracle_module.principal_optimal_effort
        monkeypatch.setattr(oracle_module, "foc_residual", lambda cmodel, e, contract: 1.0)
        monkeypatch.setattr(
            oracle_module, "principal_optimal_effort",
            lambda cmodel: dataclasses.replace(real(cmodel), e_opt=0.5),
        )
        report = certify_continuous([("f5", f5())], seed=0)
        es = np.random.default_rng(0).uniform(f5().e_min, f5().e_max, size=3)
        residuals = [
            {"inputs": f"f5 e={e:.6g}", "analytic": "residual=1.000e+00", "oracle": "0"} for e in es
        ]
        self.assert_report(
            report,
            "principal_optimal_effort: FAIL checks=4 max_v_error=0.5 max_value_error=0\n"
            + "".join(f"  disagreement {d['inputs']}: analytic={d['analytic']} oracle=0\n" for d in residuals)
            + "  disagreement f5: analytic=e=0.5 oracle=e=1",
            {
                "target_op": "principal_optimal_effort", "checks": 4, "max_v_error": "0.5",
                "max_value_error": "0", "v_tolerance": "0.0001", "value_tolerance": "1e-06",
                "disagreements": residuals + [{"inputs": "f5", "analytic": "e=0.5", "oracle": "e=1"}],
            },
        )
        assert [d["inputs"] for d in residuals] == ["f5 e=0.651483", "f5 e=0.298995", "f5 e=0.0793346"]


def _with_record(trace, i, **changes):
    """``trace`` with record ``i`` changed."""
    records = list(trace.records)
    records[i] = dataclasses.replace(records[i], **changes)
    return dataclasses.replace(trace, records=tuple(records))
