"""Second-best contracts and surplus accounting at a fixed investment level.

With two outcomes, hidden effort and a zero limited-liability bound, the
profit-maximizing effort-inducing contract pays

    t_high = cost(v) / (pi1(v) - pi0(v)),    t_low = 0,

leaving the agent an information rent of
``U(v) = pi0*cost/(pi1-pi0) = cost/(Q-1)`` where ``Q = pi1/pi0`` is the
outcome separability of the task.  Everything here is a pure function of
``(model, v)``.  Retention and effort inducement are one test,
:func:`~twinvest.model.retention_holds`, and every decision here takes
:func:`~twinvest.model.margin_holds`' rule: an exact tie holds.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import (
    DomainError, ModelPrimitives, evaluate, incentive_wage, margin_holds, retention_holds, retention_margin
)


@dataclass(frozen=True)
class Contract:
    """Outcome-contingent payment pair; limited liability keeps both >= 0."""

    t_high: float
    t_low: float

    def __post_init__(self):
        object.__setattr__(self, "t_high", float(self.t_high))
        object.__setattr__(self, "t_low", float(self.t_low))
        if self.t_low < 0.0 or self.t_high < self.t_low:
            raise ValueError(
                f"contract must satisfy t_high >= t_low >= 0, got "
                f"({self.t_high}, {self.t_low})"
            )

    @property
    def spread(self) -> float:
        return self.t_high - self.t_low


ZERO_CONTRACT = Contract(0.0, 0.0)


def delta_pi(model: ModelPrimitives, v: float) -> float:
    """Probability gap ``pi1(v) - pi0(v)`` between high- and low-effort outcomes."""
    p = evaluate(model, v)
    return p.pi1 - p.pi0


def outcome_separability(model: ModelPrimitives, v: float) -> float:
    """``Q(v) = pi1(v)/pi0(v)``: how informative the outcome is about effort."""
    p = evaluate(model, v)
    return p.pi1 / p.pi0


# The formulas below, like ``incentive_wage`` and ``retention_margin`` of
# :mod:`twinvest.model`, take a :class:`~twinvest.model.GridEval`: one point
# (``evaluate``) or a whole grid (``evaluate_grid``).  Scalar and grid paths
# share them, so both round identically.


def information_rent(p, pair=None):
    """``pi0*cost/(pi1-pi0)`` of evaluated primitives, a point or a grid;
    ``pair`` is their :func:`~twinvest.model.pair_terms` when the caller
    holds them, and ``p.pi1`` is then not read."""
    return p.pi0 * p.cost / (p.pi1 - p.pi0 if pair is None else pair[0])


def principal_payoff(model: ModelPrimitives, p):
    """The principal's expected payoff under the optimal contract, of
    evaluated primitives, a point or a grid: the per-period
    :func:`employed_principal_payoff` at the :func:`incentive_wage`, paid on
    success only, ``pi1*(s_high - t_high) + (1-pi1)*s_low``."""
    return employed_principal_payoff(model, p.pi1, incentive_wage(p), 0.0)


# The three per-period payoffs below take numbers (or arrays), not a
# ``Contract``, so they also evaluate wages a ``Contract`` would reject.
# ``model`` only supplies the stakes ``s_high`` and ``s_low``.


def employed_agent_payoff(prob, t_high, t_low, cost):
    """``prob*t_high + (1-prob)*t_low - cost``: the employed agent's expected
    payoff when the better outcome arrives with probability ``prob``."""
    return prob * t_high + (1.0 - prob) * t_low - cost


def employed_principal_payoff(model, prob, t_high, t_low):
    """``prob*(s_high - t_high) + (1-prob)*(s_low - t_low)``: the principal's
    expected payoff from employing the agent at payments ``(t_high, t_low)``."""
    return prob * (model.s_high - t_high) + (1.0 - prob) * (model.s_low - t_low)


def twin_alone_payoff(model, pi0):
    """``pi0*s_high + (1-pi0)*s_low``: the principal's expected payoff from
    running the twin alone."""
    return pi0 * model.s_high + (1.0 - pi0) * model.s_low


def evaluate_ordered(model: ModelPrimitives, v: float):
    """:func:`~twinvest.model.evaluate` at ``v``, where ``pi1 > pi0`` must
    hold for any contract to induce effort; else a
    :class:`~twinvest.model.DomainError` names ``v``, pi0 and pi1."""
    p = evaluate(model, v)
    if not p.pi1 > p.pi0:
        raise DomainError(f"pi1 = {p.pi1!r} must exceed pi0 = {p.pi0!r} at v = {p.v!r} for effort to be induced")
    return p


def optimal_contract(model: ModelPrimitives, v: float) -> Contract:
    """Cheapest effort-inducing contract: wage ``cost/(pi1-pi0)`` on success
    only; a :class:`~twinvest.model.DomainError` unless ``pi1 > pi0`` at ``v``."""
    return Contract(incentive_wage(evaluate_ordered(model, v)), 0.0)


def agent_surplus(model: ModelPrimitives, v: float) -> float:
    """Information rent ``U(v) = pi0*cost/(pi1-pi0)`` under the optimal contract."""
    return information_rent(evaluate(model, v))


def principal_surplus(model: ModelPrimitives, v: float) -> float:
    """Expected principal payoff under the optimal effort-inducing contract."""
    return principal_payoff(model, evaluate(model, v))


@dataclass(frozen=True)
class SurplusBreakdown:
    """Both parties' expected surpluses plus the diagnostics they derive from."""

    agent_surplus: float
    principal_surplus: float
    total_surplus: float
    outcome_separability: float
    delta_pi: float
    quality_importance: float


def surpluses(model: ModelPrimitives, v: float) -> SurplusBreakdown:
    """Full surplus breakdown at ``v``: the agent's rent is
    :func:`information_rent` and the principal's payoff
    :func:`principal_payoff`, the same formulas the solver reads."""
    p = evaluate(model, v)
    rent = information_rent(p)
    principal = principal_payoff(model, p)
    return SurplusBreakdown(
        agent_surplus=rent,
        principal_surplus=principal,
        total_surplus=rent + principal,
        outcome_separability=p.pi1 / p.pi0,
        delta_pi=p.pi1 - p.pi0,
        quality_importance=model.quality_importance,
    )


def social_total_surplus(model: ModelPrimitives, v: float) -> float:
    """First-best total surplus under high effort: expected benefit minus cost."""
    p = evaluate(model, v)
    return p.pi1 * model.quality_importance + model.s_low - p.cost


def displacement_deterrent_margin(model: ModelPrimitives, v: float) -> float:
    """Margin of the retention condition; the human keeps the job while >= 0.

    Zero crossing of ``(s_high - s_low)*(1 - 1/Q(v)) - t_high(v)`` marks the
    investment level at which running the twin alone starts to beat
    contracting with its trainer.
    """
    return retention_margin(model, evaluate(model, v))


def displacement_deterrent_margin_raw(model: ModelPrimitives, v: float) -> float:
    """Retention margin in its unreduced form: the principal's payoff from
    employing the human under the optimal contract minus that from running
    the twin alone.

    Algebraically ``pi1(v)`` times :func:`displacement_deterrent_margin`,
    but rounded as the two payoffs are; :mod:`twinvest.sampling` filters
    random models on it.
    """
    p = evaluate(model, v)
    return principal_payoff(model, p) - twin_alone_payoff(model, p.pi0)


def displacement_deterrent_check(model: ModelPrimitives, v: float) -> bool:
    """True when the principal weakly prefers employing the human at ``v``
    (:func:`~twinvest.model.retention_holds`; a tie retains the human)."""
    return retention_holds(model, evaluate(model, v))


#: True when the effort gain ``(pi1-pi0)*(s_high-s_low)`` at ``v`` covers
#: the expected wage: the retention test itself.
effort_inducement_check = displacement_deterrent_check


def should_offer_twin(model: ModelPrimitives, anticipated_v: float) -> bool:
    """True when offering the twin (anticipating investment ``anticipated_v``)
    leaves the principal at least as well off as the baseline without a
    twin, zero investment; a tie offers it."""
    return bool(margin_holds(principal_surplus(model, anticipated_v) - principal_surplus(model, 0.0)))
