"""Second-best contracts and surplus accounting at a fixed investment level.

With two outcomes, hidden effort and a zero limited-liability bound, the
profit-maximizing effort-inducing contract pays

    t_high = cost(v) / (pi1(v) - pi0(v)),    t_low = 0,

leaving the agent an information rent of
``U(v) = pi0*cost/(pi1-pi0) = cost/(Q-1)`` where ``Q = pi1/pi0`` is the
outcome separability of the task.  Everything here is a pure function of
``(model, v)``; all comparisons resolve ties in favor of employing the
human / inducing effort, using an absolute tolerance on payoff units.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import DEFAULT_TOL, ModelPrimitives, evaluate, evaluate_values


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


# The four formulas below take any evaluated primitives with ``pi0``,
# ``pi1`` and ``cost`` fields: one point (``evaluate``/``evaluate_values``)
# or a whole grid (``evaluate_grid``).  Scalar and grid paths share them, so
# both round identically.


def incentive_wage(p):
    """Success payment ``cost/(pi1-pi0)`` of evaluated primitives, a point or a grid."""
    return p.cost / (p.pi1 - p.pi0)


def information_rent(p):
    """``pi0*cost/(pi1-pi0)`` of evaluated primitives, a point or a grid."""
    return p.pi0 * p.cost / (p.pi1 - p.pi0)


def retention_margin(model: ModelPrimitives, p):
    """``(s_high - s_low)*(1 - 1/Q) - t_high`` of evaluated primitives, a point or a grid."""
    q = p.pi1 / p.pi0
    return model.quality_importance * (1.0 - 1.0 / q) - incentive_wage(p)


def checked_information_rent(p):
    """:func:`information_rent` of evaluated primitives, a point or a grid,
    checked against its second algebraic route ``cost/(Q-1)``.

    The two routes are the same quantity, so a mismatch beyond 1e-10
    (relative, floored at 1) signals corrupted primitives rather than a
    model property: it raises ``ArithmeticError`` naming the first failing
    ``v``.
    """
    u_gap = information_rent(p)
    u_sep = p.cost / (p.pi1 / p.pi0 - 1.0)
    bad = np.abs(u_gap - u_sep) > 1e-10 * np.maximum(1.0, np.abs(u_gap))
    if bad.any():
        i = int(np.argmax(bad))
        v, a, b = (np.ravel(x)[i] for x in (p.v, u_gap, u_sep))
        raise ArithmeticError(
            f"agent-surplus identity violated at v={v}: {float(a)!r} vs {float(b)!r}"
        )
    return u_gap


def principal_payoff(model: ModelPrimitives, p):
    """``pi1*s_high + (1-pi1)*s_low - pi1*cost/(pi1-pi0)``: the principal's
    expected payoff under the optimal contract, of evaluated primitives, a
    point or a grid."""
    return p.pi1 * model.s_high + (1.0 - p.pi1) * model.s_low - p.pi1 * p.cost / (p.pi1 - p.pi0)


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


def optimal_contract(model: ModelPrimitives, v: float) -> Contract:
    """Cheapest effort-inducing contract: wage ``cost/(pi1-pi0)`` on success only."""
    return Contract(incentive_wage(evaluate(model, v)), 0.0)


def agent_surplus(model: ModelPrimitives, v: float) -> float:
    """Information rent ``U(v) = pi0*cost/(pi1-pi0)`` under the optimal contract."""
    return information_rent(evaluate_values(model, v))


def principal_surplus(model: ModelPrimitives, v: float) -> float:
    """Expected principal payoff under the optimal effort-inducing contract."""
    return principal_payoff(model, evaluate_values(model, v))


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
    """Full surplus breakdown at ``v``; the agent's rent is
    :func:`checked_information_rent`, so it raises ``ArithmeticError`` on
    corrupted primitives."""
    p = evaluate(model, v)
    u_gap = checked_information_rent(p)
    principal = principal_payoff(model, p)
    return SurplusBreakdown(
        agent_surplus=u_gap,
        principal_surplus=principal,
        total_surplus=u_gap + principal,
        outcome_separability=p.pi1 / p.pi0,
        delta_pi=p.pi1 - p.pi0,
        quality_importance=model.quality_importance,
    )


def effort_inducement_check(model: ModelPrimitives, v: float) -> bool:
    """True when inducing high effort pays: incremental outcome gain covers the wage."""
    p = evaluate(model, v)
    gap = p.pi1 - p.pi0
    lhs = gap * model.quality_importance
    rhs = p.pi1 * p.cost / gap
    return lhs - rhs >= -DEFAULT_TOL


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
    return retention_margin(model, evaluate_values(model, v))


def displacement_deterrent_margin_raw(model: ModelPrimitives, v: float) -> float:
    """Retention margin in its unreduced form: contracted surplus minus twin surplus.

    Algebraically ``pi1(v)`` times :func:`displacement_deterrent_margin`;
    kept separate because brute-force checks and the backward-induction
    oracle compare the two principal options directly.
    """
    p = evaluate(model, v)
    with_human = employed_principal_payoff(model, p.pi1, incentive_wage(p), 0.0)
    return with_human - twin_alone_payoff(model, p.pi0)


def displacement_deterrent_check(model: ModelPrimitives, v: float) -> bool:
    """True when the principal (weakly) prefers employing the human at ``v``."""
    return displacement_deterrent_margin(model, v) >= -DEFAULT_TOL


def should_offer_twin(model: ModelPrimitives, anticipated_v: float) -> bool:
    """True when offering the twin (anticipating investment ``anticipated_v``)
    leaves the principal at least as well off as the no-twin baseline."""
    return principal_surplus(model, anticipated_v) - principal_surplus(model, 0.0) >= -DEFAULT_TOL
