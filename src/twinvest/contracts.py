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


def principal_payoff(model: ModelPrimitives, p):
    """``pi1*s_high + (1-pi1)*s_low - pi1*cost/(pi1-pi0)``: the principal's
    expected payoff under the optimal contract, of evaluated primitives, a
    point or a grid."""
    return p.pi1 * model.s_high + (1.0 - p.pi1) * model.s_low - p.pi1 * p.cost / (p.pi1 - p.pi0)


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
    """Full surplus breakdown at ``v``.

    The agent's rent is computed through both algebraic routes
    (``pi0*cost/gap`` and ``cost/(Q-1)``); they are the same quantity, and a
    mismatch beyond 1e-10 signals corrupted primitives rather than a model
    property, so it raises.
    """
    p = evaluate(model, v)
    gap = p.pi1 - p.pi0
    q = p.pi1 / p.pi0
    u_gap = information_rent(p)
    u_sep = p.cost / (q - 1.0)
    if abs(u_gap - u_sep) > 1e-10 * max(1.0, abs(u_gap)):
        raise ArithmeticError(
            f"agent-surplus identity violated at v={v}: {u_gap!r} vs {u_sep!r}"
        )
    principal = principal_payoff(model, p)
    return SurplusBreakdown(
        agent_surplus=u_gap,
        principal_surplus=principal,
        total_surplus=u_gap + principal,
        outcome_separability=q,
        delta_pi=gap,
        quality_importance=model.quality_importance,
    )


def effort_inducement_check(
    model: ModelPrimitives, v: float, tol: float = DEFAULT_TOL
) -> bool:
    """True when inducing high effort pays: incremental outcome gain covers the wage."""
    p = evaluate(model, v)
    gap = p.pi1 - p.pi0
    lhs = gap * model.quality_importance
    rhs = p.pi1 * p.cost / gap
    return lhs - rhs >= -tol


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
    wage = incentive_wage(p)
    with_human = p.pi1 * (model.s_high - wage) + (1.0 - p.pi1) * model.s_low
    twin_alone = p.pi0 * model.s_high + (1.0 - p.pi0) * model.s_low
    return with_human - twin_alone


def displacement_deterrent_check(
    model: ModelPrimitives, v: float, tol: float = DEFAULT_TOL
) -> bool:
    """True when the principal (weakly) prefers employing the human at ``v``."""
    return displacement_deterrent_margin(model, v) >= -tol


def should_offer_twin(
    model: ModelPrimitives, anticipated_v: float, tol: float = DEFAULT_TOL
) -> bool:
    """True when offering the twin (anticipating investment ``anticipated_v``)
    leaves the principal at least as well off as the no-twin baseline."""
    return principal_surplus(model, anticipated_v) - principal_surplus(model, 0.0) >= -tol
