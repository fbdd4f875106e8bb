"""Two-period game simulation, twin degradation and rehire cycles.

In the two-period game the principal commits to the period-1 contract
before the agent trains the twin.  A myopic agent then always trains to
``v_max`` (both the high- and low-effort period-1 objectives increase in
the investment), shirks whenever the offered success payment is strictly
below the incentive wage at ``v_max``, and is displaced in period 2
exactly when retention fails there.  Anticipating that, the principal's
period-1 offer collapses to one of two values: the incentive wage at
``v_max`` when the agent will be retained, and zero otherwise.

A strategic agent instead plays the single-period solution in both
periods: deterrent-respecting investment, high effort, never displaced.

With a twin whose capability decays geometrically by ``alpha`` per
untrained period, displacement becomes self-limiting: after enough
twin-only periods the degraded twin falls below the contracted surplus
and the agent is rehired for one retraining period, giving an
employ/twin-run cycle.

Traces record expected payoffs.  A seeded sampling mode can realize the
per-period Bernoulli outcomes for demonstration; it never feeds back into
any decision.
"""

from __future__ import annotations

import enum
import io
from dataclasses import dataclass

import numpy as np

from .contracts import (
    Contract,
    ZERO_CONTRACT,
    displacement_deterrent_check,
    employed_agent_payoff,
    employed_principal_payoff,
    optimal_contract,
    twin_alone_payoff,
)
from .model import DEFAULT_TOL, DomainError, ModelPrimitives, evaluate
from .investment import optimal_investment
from .report import format_bool, format_number


class AgentKind(enum.Enum):
    STRATEGIC = "strategic"
    MYOPIC = "myopic"


class EffortLevel(enum.Enum):
    HIGH = "high"
    LOW = "low"


@dataclass(frozen=True)
class PeriodRecord:
    """One period of play; ``twin_ability`` is the training level behind the
    period's outcome distribution (degraded below ``investment`` in
    twin-only periods under time decay)."""

    period: int
    contract: Contract
    investment: float
    twin_ability: float
    effort: EffortLevel
    employed: bool
    agent_expected_payoff: float
    principal_expected_payoff: float


@dataclass(frozen=True)
class TimelineTrace:
    records: tuple[PeriodRecord, ...]
    displacement_period: int | None = None
    cycle_length: int | None = None
    discount: float | None = None

    def summary(self) -> str:
        parts = [
            f"periods={len(self.records)}",
            f"displacement_period={self.displacement_period if self.displacement_period else 'none'}",
            f"cycle_length={self.cycle_length if self.cycle_length else 'none'}",
        ]
        if self.discount is not None:
            parts.append(f"delta={format_number(self.discount)}")
        return " ".join(parts)

    def to_csv(self, realized: tuple["RealizedOutcome", ...] | None = None) -> str:
        header = [
            "period", "employed", "effort", "investment", "twin_ability",
            "t_high", "t_low", "agent_expected_payoff", "principal_expected_payoff",
        ]
        if realized is not None:
            header += ["realized_outcome", "realized_agent_payoff", "realized_principal_payoff"]
        out = io.StringIO()
        out.write(",".join(header) + "\n")
        for i, r in enumerate(self.records):
            row = [
                str(r.period),
                format_bool(r.employed),
                r.effort.value,
                format_number(r.investment),
                format_number(r.twin_ability),
                format_number(r.contract.t_high),
                format_number(r.contract.t_low),
                format_number(r.agent_expected_payoff),
                format_number(r.principal_expected_payoff),
            ]
            if realized is not None:
                s = realized[i]
                row += [
                    "high" if s.outcome_high else "low",
                    format_number(s.agent_payoff),
                    format_number(s.principal_payoff),
                ]
            out.write(",".join(row) + "\n")
        return out.getvalue()


# ---------------------------------------------------------------------------
# Per-period payoff helpers
# ---------------------------------------------------------------------------


def _success_probability(model: ModelPrimitives, ability: float, effort: EffortLevel) -> float:
    fam = model.pi1 if effort is EffortLevel.HIGH else model.pi0
    return float(fam.value(ability))


def _employed_record(
    model: ModelPrimitives,
    period: int,
    contract: Contract,
    v: float,
    effort: EffortLevel,
) -> PeriodRecord:
    p = evaluate(model, v)
    if effort is EffortLevel.HIGH:
        prob, cost = p.pi1, p.cost
    else:
        prob, cost = p.pi0, 0.0
    agent = employed_agent_payoff(prob, contract.t_high, contract.t_low, cost)
    principal = employed_principal_payoff(model, prob, contract.t_high, contract.t_low)
    return PeriodRecord(period, contract, v, v, effort, True, agent, principal)


def _twin_surplus(model: ModelPrimitives, ability: float) -> float:
    """Principal's expected payoff from the twin alone at training ``ability``."""
    return twin_alone_payoff(model, float(model.pi0.value(ability)))


def _twin_record(
    model: ModelPrimitives, period: int, v: float, ability: float
) -> PeriodRecord:
    principal = _twin_surplus(model, ability)
    return PeriodRecord(period, ZERO_CONTRACT, v, ability, EffortLevel.LOW, False, 0.0, principal)


# ---------------------------------------------------------------------------
# Two-period game
# ---------------------------------------------------------------------------


def myopic_investment(model: ModelPrimitives) -> float:
    """The myopic agent's period-1 training choice: always ``v_max``.

    Whatever effort the agent plans, the period-1 payoff is nondecreasing
    in the investment, so the offer (fixed before training) cannot steer it.
    """
    return model.v_max


def shirk_check(model: ModelPrimitives, offered_contract: Contract) -> bool:
    """True when the offered spread falls strictly below the incentive wage
    at ``v_max``, making low effort the myopic best response."""
    wage = optimal_contract(model, model.v_max).t_high
    return offered_contract.spread < wage - DEFAULT_TOL


def principal_period1_contract(model: ModelPrimitives) -> Contract:
    """The principal's committed period-1 offer.

    When the agent would be displaced at ``v_max`` (retention fails there),
    inducing period-1 effort cannot pay either, so the offer is zero;
    otherwise the incentive wage at ``v_max`` is offered.  Retention at
    ``v_max`` is the operative test; it coincides with "the displacement
    threshold exists below ``v_max``" whenever the retention margin crosses
    zero only once.
    """
    if displacement_deterrent_check(model, model.v_max):
        return optimal_contract(model, model.v_max)
    return ZERO_CONTRACT


def simulate_two_period(
    model: ModelPrimitives,
    agent: AgentKind,
    discount: float | None = None,
) -> TimelineTrace:
    """Play the two-period game to completion and record both periods.

    The myopic path composes the committed offer, maximum training, the
    shirk test, and the period-2 retention decision at ``v_max``.  The
    strategic path freezes the single-period deterrent-respecting optimum
    and repeats it; that agent is never displaced.
    """
    if agent is AgentKind.MYOPIC:
        offer = principal_period1_contract(model)
        v = myopic_investment(model)
        effort1 = EffortLevel.LOW if shirk_check(model, offer) else EffortLevel.HIGH
        records = [_employed_record(model, 1, offer, v, effort1)]
        if displacement_deterrent_check(model, v):
            records.append(_employed_record(model, 2, optimal_contract(model, v), v, EffortLevel.HIGH))
            displaced = None
        else:
            records.append(_twin_record(model, 2, v, v))
            displaced = 2
        return TimelineTrace(tuple(records), displaced, None, discount)

    sol = optimal_investment(model)
    if not sol.feasible:
        raise ValueError("no deterrent-feasible investment; model fails validation")
    v = sol.v_opt
    contract = optimal_contract(model, v)
    records = tuple(
        _employed_record(model, t, contract, v, EffortLevel.HIGH) for t in (1, 2)
    )
    return TimelineTrace(records, None, None, discount)


# ---------------------------------------------------------------------------
# Degradation and rehire cycles
# ---------------------------------------------------------------------------


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"time persistence must lie in (0, 1), got {alpha}")
    return alpha


def _rehire_surplus(model: ModelPrimitives) -> float:
    """Principal surplus from employing the agent at full training."""
    p = evaluate(model, model.v_max)
    contract = optimal_contract(model, model.v_max)
    return employed_principal_payoff(model, p.pi1, contract.t_high, contract.t_low)


def degradation_deterrent_check(model: ModelPrimitives, alpha: float) -> bool:
    """Retention test when one untrained period degrades the twin to
    ``alpha * v_max``; ties retain the agent."""
    alpha = _check_alpha(alpha)
    return _rehire_surplus(model) - _twin_surplus(model, alpha * model.v_max) >= -DEFAULT_TOL


def rehire_cycle_length(
    model: ModelPrimitives,
    alpha: float,
    horizon: int = 10_000,
) -> int | None:
    """Number of twin-only periods until rehiring beats the degraded twin.

    Returns the smallest ``n >= 1`` with the twin's surplus at ability
    ``alpha**n * v_max`` below the contracted surplus at full training,
    or ``None`` when displacement never happens in the first place (the
    cycle question is moot) or no such ``n`` exists within ``horizon``
    (a twin that never degrades enough, e.g. constant ``pi0``).
    """
    alpha = _check_alpha(alpha)
    if displacement_deterrent_check(model, model.v_max):
        return None
    rehire = _rehire_surplus(model)
    ability = model.v_max
    for n in range(1, int(horizon) + 1):
        ability *= alpha
        if _twin_surplus(model, ability) - rehire < DEFAULT_TOL:
            return n
    return None


def simulate_cycles(
    model: ModelPrimitives,
    alpha: float,
    horizon: int,
    discount: float | None = None,
) -> TimelineTrace:
    """Trace ``horizon`` periods of the retrain/twin-run alternation.

    Each cycle is one retraining period (the agent is employed and the twin
    resets to ``v_max``) followed by ``rehire_cycle_length`` twin-only
    periods.  The retraining period reuses the two-period offer rule: in
    the displacement regime the offer is zero and the agent shirks, which
    still retrains the twin.  Without displacement the agent is simply
    employed every period.
    """
    alpha = _check_alpha(alpha)
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")

    retained = displacement_deterrent_check(model, model.v_max)
    offer = principal_period1_contract(model)
    v = model.v_max

    if retained:
        records = tuple(
            _employed_record(model, t, offer, v, EffortLevel.HIGH)
            for t in range(1, horizon + 1)
        )
        return TimelineTrace(records, None, None, discount)

    n = rehire_cycle_length(model, alpha)
    effort_retrain = EffortLevel.LOW if shirk_check(model, offer) else EffortLevel.HIGH
    records: list[PeriodRecord] = []
    period = 1
    displaced_at: int | None = None
    while period <= horizon:
        records.append(_employed_record(model, period, offer, v, effort_retrain))
        period += 1
        k = 0
        while period <= horizon and (n is None or k < n):
            k += 1
            records.append(_twin_record(model, period, v, alpha**k * v))
            if displaced_at is None:
                displaced_at = period
            period += 1
    return TimelineTrace(tuple(records), displaced_at, n, discount)


# ---------------------------------------------------------------------------
# Optional outcome sampling (presentation only)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RealizedOutcome:
    period: int
    outcome_high: bool
    agent_payoff: float
    principal_payoff: float


def sample_outcomes(
    model: ModelPrimitives, trace: TimelineTrace, seed: int
) -> tuple[RealizedOutcome, ...]:
    """Realize each period's Bernoulli outcome with a seeded generator."""
    rng = np.random.default_rng(seed)
    realized = []
    for r in trace.records:
        prob = _success_probability(model, r.twin_ability, r.effort)
        high = bool(rng.random() < prob)
        benefit = model.s_high if high else model.s_low
        if r.employed:
            payment = r.contract.t_high if high else r.contract.t_low
            cost = float(model.cost.value(r.investment)) if r.effort is EffortLevel.HIGH else 0.0
            realized.append(RealizedOutcome(r.period, high, payment - cost, benefit - payment))
        else:
            realized.append(RealizedOutcome(r.period, high, 0.0, benefit))
    return tuple(realized)
