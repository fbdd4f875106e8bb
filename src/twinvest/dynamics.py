"""Two-period game simulation, twin degradation and rehire cycles.

In the two-period game the principal commits to the period-1 contract
before the agent trains the twin.  A myopic agent then always trains to
``v_max`` (both the high- and low-effort period-1 objectives increase in
the investment), and everything follows from the one retention decision
at ``v_max`` (:func:`~twinvest.model.retention_holds`, a tie retains).
When it holds, the principal offers the incentive wage at ``v_max``, the
agent works for it and is kept in period 2.  Otherwise the offer is
zero, the agent shirks and is displaced in period 2.

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
import numbers
import operator
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .contracts import (
    Contract,
    ZERO_CONTRACT,
    employed_agent_payoff,
    employed_principal_payoff,
    incentive_wage,
    principal_payoff,
    retention_holds,
    twin_alone_payoff,
)
from .model import (
    DomainError, GridEval, InvalidModelError, ModelPrimitives, evaluate, margin_holds, validate
)
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

    def __post_init__(self):
        d = self.discount
        if d is not None and not (isinstance(d, numbers.Real) and 0.0 < d < 1.0):
            raise DomainError(f"discount must be None or lie in (0, 1), got {d!r}")

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


def _employed_record(
    model: ModelPrimitives,
    period: int,
    contract: Contract,
    p: GridEval,
    effort: EffortLevel,
) -> PeriodRecord:
    """An employed period at the investment ``p.v``, whose primitives ``p`` holds."""
    prob, cost = (p.pi1, p.cost) if effort is EffortLevel.HIGH else (p.pi0, 0.0)
    agent = employed_agent_payoff(prob, contract.t_high, contract.t_low, cost)
    principal = employed_principal_payoff(model, prob, contract.t_high, contract.t_low)
    return PeriodRecord(period, contract, p.v, p.v, effort, True, agent, principal)


def _twin_surplus(model: ModelPrimitives, ability):
    """Principal's expected payoff from the twin alone at training ``ability``,
    a number or an array of them."""
    return twin_alone_payoff(model, model.pi0.value(ability))


def _twin_record(model: ModelPrimitives, period: int, v: float, ability: float) -> PeriodRecord:
    principal = float(_twin_surplus(model, ability))
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


class _FullTraining(NamedTuple):
    """The primitives at ``v_max`` and the play they decide."""

    point: GridEval
    retained: bool
    offer: Contract
    effort: EffortLevel  # the myopic agent's period-1 effort: high exactly when retained


def _check_valid(model: ModelPrimitives) -> None:
    """Raise :class:`~twinvest.model.InvalidModelError` unless ``model`` validates."""
    report = validate(model)
    if not report.passed:
        raise InvalidModelError(report)


def _full_training(model: ModelPrimitives) -> _FullTraining:
    """Evaluate the primitives at ``v_max`` once and decide retention from
    that one evaluation; the committed offer and the myopic effort follow
    from retention alone.  Unless ``pi1 > pi0 > 0`` and ``cost > 0`` there
    (the wage divides by the gap, the margin by ``pi0``) it raises
    :class:`~twinvest.model.InvalidModelError` with the model's
    :func:`~twinvest.model.validate` report."""
    p = evaluate(model, model.v_max)
    if not (p.pi1 > p.pi0 > 0.0 and p.cost > 0.0):
        raise InvalidModelError(validate(model))
    if retention_holds(model, p):  # the incentive wage, which high effort earns
        return _FullTraining(p, True, Contract(incentive_wage(p), 0.0), EffortLevel.HIGH)
    return _FullTraining(p, False, ZERO_CONTRACT, EffortLevel.LOW)  # offered nothing, the agent shirks


def simulate_two_period(
    model: ModelPrimitives,
    agent: AgentKind,
    discount: float | None = None,
) -> TimelineTrace:
    """Play the two-period game to completion and record both periods.

    The myopic path plays maximum training and the retention decision at
    ``v_max``, which fixes the committed offer, the effort and period 2.  The
    strategic path freezes the single-period deterrent-respecting optimum
    and repeats it; that agent is never displaced.  Both paths raise
    :class:`~twinvest.model.InvalidModelError` on a model that fails
    validation (the strategic one in its solve), and
    :class:`~twinvest.model.DomainError` on an ``agent`` that is not an
    :class:`AgentKind` or a ``discount`` that is neither None nor in ``(0, 1)``.
    """
    if not isinstance(agent, AgentKind):
        raise DomainError(f"agent must be an AgentKind, got {agent!r}")
    if agent is AgentKind.MYOPIC:
        _check_valid(model)
        play = _full_training(model)
        first = _employed_record(model, 1, play.offer, play.point, play.effort)
        if play.retained:  # the full-training wage again, earned by high effort
            return TimelineTrace((first, replace(first, period=2)), None, None, discount)
        v = myopic_investment(model)
        return TimelineTrace((first, _twin_record(model, 2, v, v)), 2, None, discount)

    sol = optimal_investment(model)
    p = evaluate(model, sol.v_opt)
    contract = Contract(incentive_wage(p), 0.0)
    records = tuple(_employed_record(model, t, contract, p, EffortLevel.HIGH) for t in (1, 2))
    return TimelineTrace(records, None, None, discount)


# ---------------------------------------------------------------------------
# Degradation and rehire cycles
# ---------------------------------------------------------------------------


def _check_alpha(alpha: float) -> float:
    """``alpha`` as a float; anything but a real number in (0, 1), a
    string or an array too, raises DomainError naming the argument."""
    if not (isinstance(alpha, numbers.Real) and 0.0 < alpha < 1.0):
        raise DomainError(f"alpha (time persistence) must be a real number in (0, 1), got {alpha!r}")
    return float(alpha)


def _check_integer(name: str, value: int, least: int) -> int:
    """``value`` as an int of at least ``least``; a float, even a whole
    one, raises DomainError naming the argument."""
    try:
        value = operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise DomainError(f"{name} must be >= {least}, got {value}")
    return value


#: How many twin-only periods :func:`rehire_cycle_length` scans by default.
_REHIRE_HORIZON = 10_000


def degradation_deterrent_check(model: ModelPrimitives, alpha: float) -> bool:
    """Retention test when one untrained period degrades the twin to
    ``alpha * v_max``; ties retain the agent."""
    alpha = _check_alpha(alpha)
    rehire = principal_payoff(model, _full_training(model).point)
    return bool(margin_holds(rehire - _twin_surplus(model, alpha * model.v_max)))


def rehire_cycle_length(
    model: ModelPrimitives,
    alpha: float,
    horizon: int = _REHIRE_HORIZON,
) -> int | None:
    """Number of twin-only periods until rehiring beats the degraded twin.

    Returns the smallest ``n >= 1`` with the twin's surplus at ability
    ``alpha**n * v_max`` at or below the contracted surplus at full
    training (a tie rehires, as a tie retains),
    or ``None`` when displacement never happens in the first place (the
    cycle question is moot) or no such ``n`` exists within ``horizon``
    (a twin that never degrades enough, e.g. constant ``pi0``).

    The abilities are scanned in chunks of 16, 64, 256, 1024 and then 4096
    periods (the last one cut at ``horizon``), each evaluated in one array
    call; the cap keeps the memory of a chunk bounded whatever the
    horizon.  A chunk's abilities are a left fold (``np.multiply.accumulate``),
    so they keep the bits of a scalar scan that repeats ``ability *= alpha``.
    Raises :class:`~twinvest.model.DomainError` on ``alpha`` outside
    ``(0, 1)`` or a ``horizon`` that is not an integer of at least 0.
    """
    alpha, horizon = _check_alpha(alpha), _check_integer("horizon", horizon, 0)
    return _rehire_after(model, alpha, _full_training(model), horizon)


def _rehire_after(model: ModelPrimitives, alpha: float, play: _FullTraining, horizon: int) -> int | None:
    """:func:`rehire_cycle_length` from the model's full-training ``play``."""
    if play.retained:
        return None
    rehire = principal_payoff(model, play.point)
    ability, done, size = model.v_max, 0, 16
    while done < horizon:
        size = min(size, horizon - done)
        abilities = np.multiply.accumulate(np.r_[ability, np.full(size, alpha)])[1:]
        hits = np.flatnonzero(margin_holds(rehire - _twin_surplus(model, abilities)))
        if hits.size:
            return done + int(hits[0]) + 1
        ability, done, size = abilities[-1], done + size, min(4 * size, 4096)
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
    employed every period.  Raises :class:`~twinvest.model.InvalidModelError`
    on a model that fails validation, and :class:`~twinvest.model.DomainError`
    on ``alpha`` outside ``(0, 1)``, a ``horizon`` that is not an integer
    of at least 1 or a ``discount`` that is neither None nor in ``(0, 1)``.
    """
    _check_valid(model)
    alpha, horizon = _check_alpha(alpha), _check_integer("horizon", horizon, 1)

    play = _full_training(model)
    v = model.v_max
    # every employed period of a trace is the same record but for its period
    employed = _employed_record(model, 1, play.offer, play.point, play.effort)
    # period t sits k = (t - 1) % cycle periods into its cycle, and k == 0
    # retrains; a retained agent's cycle is that one period
    n = _rehire_after(model, alpha, play, _REHIRE_HORIZON)  # None when retained
    cycle = 1 if play.retained else 1 + (horizon if n is None else n)
    records = []
    for t in range(1, horizon + 1):
        k = (t - 1) % cycle
        records.append(_twin_record(model, t, v, alpha**k * v) if k else replace(employed, period=t))
    displaced = horizon > 1 and not play.retained
    return TimelineTrace(tuple(records), 2 if displaced else None, n, discount)


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
    """Realize each period's Bernoulli outcome with a seeded generator.

    Raises :class:`~twinvest.model.DomainError` unless ``seed`` is an
    integer of at least 0.
    """
    rng = np.random.default_rng(_check_integer("seed", seed, 0))
    realized = []
    for r in trace.records:
        fam = model.pi1 if r.effort is EffortLevel.HIGH else model.pi0
        high = bool(rng.random() < float(fam.value(r.twin_ability)))
        benefit = model.s_high if high else model.s_low
        if r.employed:
            payment = r.contract.t_high if high else r.contract.t_low
            cost = float(model.cost.value(r.investment)) if r.effort is EffortLevel.HIGH else 0.0
            realized.append(RealizedOutcome(r.period, high, payment - cost, benefit - payment))
        else:
            realized.append(RealizedOutcome(r.period, high, 0.0, benefit))
    return tuple(realized)
