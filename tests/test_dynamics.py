import dataclasses
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import twinvest.model
from twinvest.config import load_model_file
from twinvest.contracts import (
    Contract,
    displacement_deterrent_check,
    incentive_wage,
    optimal_contract,
    principal_payoff,
)
from twinvest.dynamics import (
    AgentKind,
    EffortLevel,
    _employed_record,
    _full_training,
    _rehire_after,
    _twin_record,
    _twin_surplus,
    degradation_deterrent_check,
    myopic_investment,
    rehire_cycle_length,
    sample_outcomes,
    simulate_cycles,
    simulate_two_period,
)
from twinvest.families import ParametricFamily as F
from twinvest.fixtures import f1, f2, f3, f4
from twinvest.investment import optimal_investment
from twinvest.model import (
    DomainError, InvalidModelError, ModelPrimitives, evaluate, evaluate_grid, validate
)
from twinvest.optimize import bisect_bracket
from twinvest.oracle import brute_force_two_period
from twinvest.sampling import random_models


def zero_wage_displaced_model() -> ModelPrimitives:
    # valid, displaced at v_max, with an incentive wage of 1e-12 there
    return load_model_file(Path(__file__).with_name("zero_wage_displaced.json")).model


def displaced_constant_pi0_model() -> ModelPrimitives:
    # high constant standalone performance: displacement without degradation relief
    return ModelPrimitives(F.constant(0.55), F.affine(0.7, 0.1),
                           F.affine(0.2, -0.1), 1.0, 0.85, 0.0)


class TestMyopicChoices:
    @pytest.mark.parametrize("offer", [Contract(1.0 / 3.0, 0.0), Contract(0.0, 0.0)])
    def test_investment_is_contract_independent(self, offer):
        # under either offer, both effort plans pay more the more the agent
        # trains, so the myopic choice is v_max whatever was offered
        for model in (f1(), f2()):
            g = evaluate_grid(model, model.grid())
            shirk = g.pi0 * offer.t_high + (1.0 - g.pi0) * offer.t_low
            work = g.pi1 * offer.t_high + (1.0 - g.pi1) * offer.t_low - g.cost
            assert (np.diff(shirk) >= 0.0).all() and (np.diff(work) >= 0.0).all()
            assert myopic_investment(model) == model.v_max == 1.0

    def test_shirks_below_full_training_wage(self):
        # f2 is offered 0 < 1/3, the wage at v_max; the zero-wage model 0 < 1e-12,
        # and working for nothing would cost it 1e-13
        for model in (f2(), zero_wage_displaced_model()):
            first = simulate_two_period(model, AgentKind.MYOPIC).records[0]
            assert first.contract == Contract(0.0, 0.0)
            assert first.contract.spread < incentive_wage(evaluate(model, 1.0))
            assert first.effort is EffortLevel.LOW
            assert first.agent_expected_payoff == 0.0

    def test_exact_wage_does_not_shirk(self):
        # f1 is offered exactly the wage at v_max; the tie resolves to high effort
        first = simulate_two_period(f1(), AgentKind.MYOPIC).records[0]
        assert first.contract == optimal_contract(f1(), 1.0)
        assert first.effort is EffortLevel.HIGH


class TestPeriod1Contract:
    def test_f1_offers_full_training_wage(self):
        first = simulate_two_period(f1(), AgentKind.MYOPIC).records[0]
        assert first.contract.t_high == pytest.approx(1.0 / 3.0)

    def test_f2_offers_nothing(self):
        assert simulate_two_period(f2(), AgentKind.MYOPIC).records[0].contract == Contract(0.0, 0.0)

    def test_zero_quality_importance_is_invalid(self):
        # equal stakes fail validation before any offer is made
        flat = dataclasses.replace(f1(), s_high=1.0, s_low=1.0)
        with pytest.raises(InvalidModelError, match="stakes-ordering"):
            simulate_two_period(flat, AgentKind.MYOPIC)


class TestInvalidAtFullTraining:
    """The two calls that evaluate only ``v_max`` raise the model's
    validation report where the wage or the margin would divide by zero,
    and call ``validate`` only to build that error."""

    CALLS = {
        "degradation_deterrent_check": lambda m: degradation_deterrent_check(m, 0.5),
        "rehire_cycle_length": lambda m: rehire_cycle_length(m, 0.5),
    }

    @pytest.mark.parametrize("name", sorted(CALLS))
    @pytest.mark.parametrize(
        "model",
        [
            dataclasses.replace(f1(), pi0=F.affine(0.2, 0.6), pi1=F.constant(0.8)),  # pi1 == pi0 at v_max
            dataclasses.replace(f1(), pi0=F.constant(0.0)),  # pi0 == 0: Q divides by it
            dataclasses.replace(f2(), cost=F.affine(0.2, -0.2)),  # zero cost: no positive wage
        ],
        ids=["equal-pi", "zero-pi0", "zero-cost"],
    )
    def test_raises_the_validation_report(self, name, model):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidModelError) as exc:
                self.CALLS[name](model)
        assert not exc.value.report.passed
        assert exc.value.report == validate(model)

    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_valid_model_is_not_validated(self, count_calls, name):
        calls = count_calls(twinvest.model.validate)
        for model in (f1(), f2()):
            self.CALLS[name](model)
        assert calls == []


class TestTwoPeriod:
    def test_f2_myopic_shirks_and_is_displaced(self):
        trace = simulate_two_period(f2(), AgentKind.MYOPIC)
        assert trace.displacement_period == 2
        first, second = trace.records
        assert first.contract == Contract(0.0, 0.0)
        assert first.investment == 1.0
        assert first.effort is EffortLevel.LOW
        assert first.agent_expected_payoff == 0.0
        assert first.principal_expected_payoff == pytest.approx(0.5 * 0.85)
        assert not second.employed
        assert second.agent_expected_payoff == 0.0

    def test_f1_myopic_retained_with_high_effort(self):
        trace = simulate_two_period(f1(), AgentKind.MYOPIC)
        assert trace.displacement_period is None
        for r in trace.records:
            assert r.employed
            assert r.effort is EffortLevel.HIGH
            assert r.contract.t_high == pytest.approx(1.0 / 3.0)
            assert r.agent_expected_payoff == pytest.approx(1.0 / 6.0)
            assert r.principal_expected_payoff == pytest.approx(0.8 * (2.0 - 1.0 / 3.0))

    def test_f2_strategic_keeps_job_below_threshold(self):
        trace = simulate_two_period(f2(), AgentKind.STRATEGIC)
        sol = optimal_investment(f2())
        assert trace.displacement_period is None
        for r in trace.records:
            assert r.employed
            assert r.investment == pytest.approx(sol.v_opt)
            assert r.contract.t_high == pytest.approx(optimal_contract(f2(), sol.v_opt).t_high)

    def test_investment_frozen_after_period_one(self):
        for kind in AgentKind:
            for fixture in (f1, f2, f3):
                trace = simulate_two_period(fixture(), kind)
                values = {r.investment for r in trace.records}
                assert len(values) == 1

    def test_shirk_displacement_linkage_random_models(self):
        # low period-1 effort under the committed offer <=> period-2 displacement
        for model in random_models(50, 99):
            trace = simulate_two_period(model, AgentKind.MYOPIC)
            shirked = trace.records[0].effort is EffortLevel.LOW
            assert shirked == (trace.displacement_period == 2)

    def test_strategic_dominates_myopic_payoff(self):
        for model in random_models(50, 99) + [f1(), f2(), f3(), f4()]:
            myopic = simulate_two_period(model, AgentKind.MYOPIC)
            strategic = simulate_two_period(model, AgentKind.STRATEGIC)
            total_m = sum(r.agent_expected_payoff for r in myopic.records)
            total_s = sum(r.agent_expected_payoff for r in strategic.records)
            assert total_s >= total_m - 1e-9

    @pytest.mark.parametrize(
        "model",
        [dataclasses.replace(f1(), pi1=F.affine(0.5, 0.0)), dataclasses.replace(f1(), s_high=0.2)],
        ids=["pi-ordering", "baseline-viability"],
    )
    @pytest.mark.parametrize(
        "simulate",
        [
            lambda m: simulate_two_period(m, AgentKind.MYOPIC),
            lambda m: simulate_cycles(m, 0.9, 6),
        ],
        ids=["myopic", "cycles"],
    )
    def test_invalid_model_raises_its_report(self, model, simulate):
        # an equal pi0 and pi1 would divide by zero, and a model that is not
        # viable at v = 0 would yield a trace (the strategic path is checked
        # with optimal_investment in test_investment)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidModelError) as exc:
                simulate(model)
        assert not exc.value.report.passed
        assert exc.value.report == validate(model)

    @pytest.mark.parametrize("agent", ["myopic", "strategic", None, 0])
    @pytest.mark.parametrize("play", [simulate_two_period, brute_force_two_period])
    def test_agent_kind_must_be_a_member(self, play, agent):
        # a value that is not an AgentKind would pick a game by accident
        with pytest.raises(DomainError, match=re.escape(repr(agent))):
            play(f2(), agent)

    def test_discount_recorded(self):
        trace = simulate_two_period(f1(), AgentKind.MYOPIC, discount=0.95)
        assert trace.discount == 0.95

    @pytest.mark.parametrize("discount", [5, 1.0, 0.0, -0.5, float("nan"), float("inf"), "0.5"])
    @pytest.mark.parametrize("simulate", [
        lambda m, d: simulate_two_period(m, AgentKind.MYOPIC, discount=d),
        lambda m, d: simulate_two_period(m, AgentKind.STRATEGIC, discount=d),
        lambda m, d: simulate_cycles(m, 0.9, 4, discount=d),
    ], ids=["myopic", "strategic", "cycles"])
    def test_discount_outside_the_unit_interval_is_named(self, simulate, discount):
        # the range of the CLI's --delta check; the trace would record it as is
        for model in (f1(), f2()):
            with pytest.raises(DomainError, match=rf"^discount must be None or lie in \(0, 1\), got {re.escape(repr(discount))}$"):
                simulate(model, discount)

    @pytest.mark.parametrize("model", [f1, f2])
    def test_myopic_evaluates_primitives_once(self, count_calls, model):
        # retained (f1) or displaced (f2): one evaluation at v_max serves
        # the offer, the shirk check, retention and both records
        calls = count_calls(twinvest.model.evaluate)
        simulate_two_period(model(), AgentKind.MYOPIC)
        assert calls == ["evaluate"]


class TestDegradation:
    def test_f2_half_persistence_retains_agent(self):
        # 0.41333 > 0.35 * 0.85 = 0.2975
        assert degradation_deterrent_check(f2(), 0.5)

    def test_persistence_near_one_reduces_to_plain_deterrent(self):
        assert not degradation_deterrent_check(f2(), 0.999999)

    def test_constant_pi0_unaffected_by_degradation(self):
        model = displaced_constant_pi0_model()
        for alpha in (0.1, 0.5, 0.9):
            assert not degradation_deterrent_check(model, alpha)
        # and for a retained fixture the check stays true
        for alpha in (0.1, 0.5, 0.9):
            assert degradation_deterrent_check(f1(), alpha)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.2, 1.5, float("nan"), "0.99", np.array([0.99]), None])
    @pytest.mark.parametrize("entry", [
        degradation_deterrent_check, rehire_cycle_length, lambda model, alpha: simulate_cycles(model, alpha, 12),
    ])
    def test_alpha_that_is_not_a_real_number_in_the_unit_interval_is_named(self, entry, alpha):
        message = f"alpha (time persistence) must be a real number in (0, 1), got {alpha!r}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            entry(f2(), alpha)

    def test_numpy_float_alpha_is_the_same_alpha(self):
        assert simulate_cycles(f2(), np.float64(0.99), 12) == simulate_cycles(f2(), 0.99, 12)

    def test_degraded_threshold_exceeds_plain_threshold(self):
        # the degraded retention margin crosses zero later than the plain
        # one; with strong enough degradation it never crosses at all
        model = f2()
        plain = _midpoint_root(lambda v: _retention_margin(model, v, v))
        for alpha in (0.6, 0.9, 0.99, 0.999):
            degraded_margin = lambda v: _retention_margin(model, v, alpha * v)
            if degraded_margin(1.0) >= 0.0:
                continue  # retained on the whole range: threshold beyond v_max
            degraded = _midpoint_root(degraded_margin)
            assert degraded > plain
        # alpha close to 1 must leave a genuine root in range
        assert _retention_margin(model, 1.0, 0.999) < 0.0


def _midpoint_root(f):
    """Midpoint of the sign-change bracket ``[0, 1]`` of ``f`` shrunk to 1e-12."""
    lo, hi = bisect_bracket(f, 0.0, 1.0, f(0.0), f(1.0))
    return 0.5 * (lo + hi)


def _retention_margin(model, v, twin_ability):
    # raw comparison rebuilt from primitives: contracted surplus at v vs.
    # twin alone at the (possibly degraded) ability level
    pi1 = float(model.pi1.value(v))
    pi0 = float(model.pi0.value(v))
    cost = float(model.cost.value(v))
    wage = cost / (pi1 - pi0)
    human = pi1 * (model.s_high - wage) + (1.0 - pi1) * model.s_low
    twin = float(model.pi0.value(twin_ability)) * model.s_high + (
        1.0 - float(model.pi0.value(twin_ability))
    ) * model.s_low
    return human - twin


class TestRehireCycles:
    def test_f2_cycle_lengths(self):
        # hand-iterated geometric decay of the twin's ability
        assert rehire_cycle_length(f2(), 0.9) == 1
        assert rehire_cycle_length(f2(), 0.99) == 5

    def test_moot_without_displacement(self):
        assert rehire_cycle_length(f1(), 0.9) is None

    def test_constant_pi0_never_rehires(self):
        assert rehire_cycle_length(displaced_constant_pi0_model(), 0.9, horizon=500) is None

    def test_weakly_decreasing_in_severity(self):
        lengths = [rehire_cycle_length(f2(), a) for a in (0.5, 0.7, 0.9, 0.99)]
        assert lengths == [1, 1, 1, 5]
        assert all(a <= b for a, b in zip(lengths, lengths[1:]))

    def test_f2_cycle_trace_pattern(self):
        trace = simulate_cycles(f2(), 0.99, 12)
        pattern = "".join("E" if r.employed else "T" for r in trace.records)
        assert pattern == "ETTTTTETTTTT"
        assert trace.cycle_length == 5
        assert trace.displacement_period == 2
        # twin ability decays geometrically within each twin run
        twin_abilities = [r.twin_ability for r in trace.records[1:6]]
        assert twin_abilities == pytest.approx([0.99**k for k in range(1, 6)])

    def test_f1_employed_forever(self):
        trace = simulate_cycles(f1(), 0.5, 6)
        assert all(r.employed for r in trace.records)
        assert trace.cycle_length is None

    def test_single_period_horizon(self):
        trace = simulate_cycles(f2(), 0.9, 1)
        assert len(trace.records) == 1
        assert trace.records[0].employed

    @pytest.mark.parametrize("horizon", [0, -3])
    def test_horizon_below_one_is_named(self, horizon):
        with pytest.raises(DomainError, match=f"horizon must be >= 1, got {horizon}"):
            simulate_cycles(f2(), 0.9, horizon)

    @pytest.mark.parametrize("horizon", [-1, -10_000])
    def test_negative_rehire_horizon_is_named(self, horizon):
        # horizon 0 scans nothing and is legal; a negative one is a mistake
        for model in (f1(), f2()):
            with pytest.raises(DomainError, match=f"^horizon must be >= 0, got {horizon}$"):
                rehire_cycle_length(model, 0.5, horizon)
        assert rehire_cycle_length(f2(), 0.5, 0) is None

    @pytest.mark.parametrize("horizon", [2.5, float("nan"), float("inf")])
    @pytest.mark.parametrize("entry", [simulate_cycles, rehire_cycle_length])
    def test_horizon_that_is_not_an_integer_is_named(self, entry, horizon):
        # a retained and a displaced model, refused before any loop: an
        # infinite horizon would never run out
        for model in (f1(), f2()):
            with pytest.raises(DomainError, match=f"horizon must be an integer, got {horizon}"):
                entry(model, 0.9, horizon)

    @pytest.mark.parametrize("model, alpha", [(f1, 0.8), (f2, 0.99)])
    def test_primitives_evaluated_once_per_trace(self, count_calls, model, alpha):
        # every employed period repeats one record; only twin periods differ
        calls = count_calls(twinvest.model.evaluate)
        counts = []
        for horizon in (3, 12):
            calls.clear()
            trace = simulate_cycles(model(), alpha, horizon)
            counts.append(len(calls))
        assert counts[0] == counts[1]
        assert [r.period for r in trace.records] == list(range(1, 13))

    def test_displaced_trace_evaluates_primitives_once(self, count_calls):
        # the rehire cycle reads the trace's own evaluation at v_max
        calls = count_calls(twinvest.model.evaluate)
        trace = simulate_cycles(f2(), 0.9, 6)
        assert calls == ["evaluate"]
        assert trace.displacement_period is not None

    def test_unemployed_records_are_zeroed(self):
        trace = simulate_cycles(f2(), 0.9, 8)
        for r in trace.records:
            if not r.employed:
                assert r.contract == Contract(0.0, 0.0)
                assert r.effort is EffortLevel.LOW
                assert r.agent_expected_payoff == 0.0


def scalar_cycle_length(model, alpha, horizon=10_000):
    """Reference for the chunked scan: one scalar ``_twin_surplus`` call per
    period, the ability decayed by ``ability *= alpha``."""
    if displacement_deterrent_check(model, model.v_max):
        return None
    rehire = principal_payoff(model, evaluate(model, model.v_max))
    ability = model.v_max
    for n in range(1, horizon + 1):
        ability *= alpha
        if rehire - _twin_surplus(model, ability) >= 0.0:
            return n
    return None


def restaked_models(count, seed):
    """Random models with the stake drawn between the retention thresholds of
    a fully trained and a fully degraded twin: displaced at ``v_max``, and
    rehired once the twin has decayed far enough (unless ``pi0`` is flat)."""
    rng = np.random.default_rng(seed)
    models = []
    for model in random_models(count, seed):
        p = evaluate(model, model.v_max)
        wage = incentive_wage(p)
        low = p.pi1 * wage / (p.pi1 - float(model.pi0.value(0.0)))
        high = p.pi1 * wage / (p.pi1 - p.pi0)
        stake = low + (high - low) * rng.uniform()
        models.append(dataclasses.replace(model, s_high=model.s_low + stake))
    return models


class TestChunkedRehireScan:
    # chunks of 16, 64, 256, 1024, 4096, 4096 periods end after period 16,
    # 80, 336, 1360, 5456 and 9552
    ALPHAS = (0.3, 0.9, 0.99, 0.999, 0.9999)

    def test_drawn_models_match_scalar_loop(self):
        lengths = []
        for model in restaked_models(40, 5):
            for alpha in self.ALPHAS:
                expected = scalar_cycle_length(model, alpha)
                assert rehire_cycle_length(model, alpha) == expected, (model, alpha)
                lengths.append(expected)
        found = [n for n in lengths if n is not None]
        # cycles end in every chunk, and some draws never rehire
        assert None in lengths and min(found) == 1 and max(found) > 9552

    def test_cycle_at_the_horizon_edge(self):
        # the cycle ends one period before, at, and one period after the horizon
        for model in restaked_models(40, 5)[:15]:
            for alpha in self.ALPHAS:
                n = scalar_cycle_length(model, alpha)
                if n is None:
                    continue
                assert rehire_cycle_length(model, alpha, n - 1) is None
                for horizon in (n, n + 1):
                    assert rehire_cycle_length(model, alpha, horizon) == n

    @pytest.mark.parametrize("horizon", [0, 1, 15, 17, 79, 81, 100, 337, 2000, 9553])
    def test_horizons_that_are_not_chunk_sizes(self, horizon):
        for model in restaked_models(40, 5)[:10]:
            for alpha in self.ALPHAS:
                expected = scalar_cycle_length(model, alpha, horizon)
                assert rehire_cycle_length(model, alpha, horizon) == expected

    @pytest.mark.parametrize("alpha", [0.1, 0.9, 0.9999])
    def test_constant_pi0_scans_the_whole_horizon(self, alpha):
        model = displaced_constant_pi0_model()
        assert scalar_cycle_length(model, alpha) is None
        assert rehire_cycle_length(model, alpha) is None


def loop_cycles(model, alpha, horizon):
    """Reference for ``simulate_cycles``: its earlier nested loops, which
    count the periods and the twin run of each cycle one by one.  Returns
    the records, the displacement period and the cycle length."""
    play = _full_training(model)
    v = model.v_max
    employed = _employed_record(model, 1, play.offer, play.point, play.effort)
    if play.retained:
        return tuple(dataclasses.replace(employed, period=t) for t in range(1, horizon + 1)), None, None
    n = _rehire_after(model, alpha, play, 10_000)
    records = []
    period = 1
    displaced_at = None
    while period <= horizon:
        records.append(dataclasses.replace(employed, period=period))
        period += 1
        k = 0
        while period <= horizon and (n is None or k < n):
            k += 1
            records.append(_twin_record(model, period, v, alpha**k * v))
            if displaced_at is None:
                displaced_at = period
            period += 1
    return tuple(records), displaced_at, n


def never_rehired_model() -> ModelPrimitives:
    # valid, displaced at v_max, and the wage there is above the stake, so
    # even a twin degraded to v = 0 beats rehiring: no cycle length
    return ModelPrimitives(F.affine(0.3, 0.44), F.affine(0.8, 0.01),
                           F.affine(0.2, -0.1), 1.0, 1.0, 0.0)


class TestCyclesMatchTheLoop:
    MODELS = [
        f1(), f2(), f3(), f4(), never_rehired_model(),
        *random_models(40, 3),
        *(m for m in restaked_models(40, 5) if validate(m).passed),
    ]

    @pytest.mark.parametrize("alpha", [0.5, 0.9, 0.99])
    def test_records_match_record_by_record(self, alpha):
        # repr tells floats apart by their bits; the models are retained (f1,
        # f4 with its constant pi0, the random ones), displaced and rehired
        # (f2, the restaked ones) or displaced for good (no cycle length)
        lengths = set()
        for model in self.MODELS:
            for horizon in range(1, 41):
                trace = simulate_cycles(model, alpha, horizon)
                records, displaced_at, n = loop_cycles(model, alpha, horizon)
                assert repr(trace.records) == repr(records), (model, horizon)
                assert (trace.displacement_period, trace.cycle_length) == (displaced_at, n)
                lengths.add(n)
        assert None in lengths and len(lengths) > 1
        assert rehire_cycle_length(never_rehired_model(), alpha) is None
        assert simulate_cycles(never_rehired_model(), alpha, 3).displacement_period == 2


class TestSampling:
    def test_same_seed_same_outcomes(self):
        trace = simulate_cycles(f2(), 0.9, 10)
        a = sample_outcomes(f2(), trace, seed=7)
        b = sample_outcomes(f2(), trace, seed=7)
        assert a == b

    def test_realized_columns_in_csv(self):
        trace = simulate_two_period(f1(), AgentKind.MYOPIC)
        realized = sample_outcomes(f1(), trace, seed=3)
        csv = trace.to_csv(realized)
        header = csv.splitlines()[0].split(",")
        assert "realized_outcome" in header
        assert len(csv.splitlines()) == 3

    @pytest.mark.parametrize("seed, message", [
        (-1, "seed must be >= 0, got -1"),
        (1.5, "seed must be an integer, got 1.5"),
        (3.0, "seed must be an integer, got 3.0"),
        ("3", "seed must be an integer, got '3'"),
        (None, "seed must be an integer, got None"),
    ])
    def test_seed_that_is_not_a_non_negative_integer_is_named(self, seed, message):
        trace = simulate_cycles(f2(), 0.9, 4)
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            sample_outcomes(f2(), trace, seed)

    def test_integer_like_seed_is_the_same_seed(self):
        trace = simulate_cycles(f2(), 0.9, 10)
        assert sample_outcomes(f2(), trace, np.int64(7)) == sample_outcomes(f2(), trace, 7)

    def test_expected_payoffs_untouched_by_sampling(self):
        trace = simulate_two_period(f1(), AgentKind.MYOPIC)
        before = [r.agent_expected_payoff for r in trace.records]
        sample_outcomes(f1(), trace, seed=3)
        assert [r.agent_expected_payoff for r in trace.records] == before
