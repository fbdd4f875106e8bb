"""Strategic training-investment solver.

The agent picks the investment ``v`` that maximizes their information rent
``U(v) = cost/(Q-1)`` subject to not being displaced (the retention margin
staying nonnegative).  The sign of ``U'`` reduces to comparing two relative
rates, ``cost'/cost`` against ``Q'/(Q-1)``, which yields three sufficient
regime conditions checked on a dense grid:

* ``cost'/cost < Q'/(Q-1)`` everywhere  -> invest nothing;
* ``Q' <= 0`` and ``|cost'/cost| < |Q'/(Q-1)|`` everywhere -> invest the max;
* rent rising at 0 and falling at ``v_max`` -> some interior optimum.

The conditions are sufficient, not exhaustive, so anything else is labeled
indeterminate.  ``U`` need not be quasiconcave, so the optimizer is
grid-scan-then-golden-section rather than a single local search, and the
deterrent-feasible set is treated as a union of intervals.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .contracts import (
    agent_surplus,
    displacement_deterrent_margin,
    incentive_wage,
    information_rent,
    principal_surplus,
    retention_margin,
)
from .model import (
    DEFAULT_GRID_POINTS,
    DEFAULT_TOL,
    GridEval,
    ModelPrimitives,
    evaluate,
    evaluate_model_grid,
)
from .optimize import bisect_bracket, bisect_root, refine_grid_max, refine_max


class RegimeLabel(enum.Enum):
    NO_INVESTMENT = "NoInvestment"
    MAX_INVESTMENT = "MaxInvestment"
    INTERIOR = "Interior"
    INDETERMINATE = "Indeterminate"


def _rates(p):
    """cost'/cost, Q'/(Q-1) and Q' of evaluated primitives, a point or a grid."""
    q = p.pi1 / p.pi0
    dq = (p.dpi1 * p.pi0 - p.pi1 * p.dpi0) / (p.pi0 * p.pi0)
    rate_cost = p.dcost / p.cost
    rate_sep = dq / (q - 1.0)
    return rate_cost, rate_sep, dq


def classify_regime(
    model: ModelPrimitives,
    grid_points: int = DEFAULT_GRID_POINTS,
    grid: GridEval | None = None,
) -> RegimeLabel:
    """Classify the unconstrained-optimum regime via the sufficient conditions.

    Ties between the two rates (within ``DEFAULT_TOL``) make neither
    strict condition hold and resolve toward
    :attr:`RegimeLabel.INDETERMINATE`.  A strictly rising separability
    everywhere forces the no-investment label on its own.
    ``grid`` is the model's ``grid_points``-point :func:`evaluate_grid`
    result when the caller already holds it.
    """
    rate_cost, rate_sep, dq = _rates(evaluate_model_grid(model, grid_points, grid))
    diff = rate_cost - rate_sep  # sign of U'

    if np.all(dq > DEFAULT_TOL):
        return RegimeLabel.NO_INVESTMENT
    if np.all(diff < -DEFAULT_TOL):
        return RegimeLabel.NO_INVESTMENT
    if np.all(dq <= DEFAULT_TOL) and np.all(diff > DEFAULT_TOL):
        return RegimeLabel.MAX_INVESTMENT
    if diff[0] > DEFAULT_TOL and diff[-1] < -DEFAULT_TOL:
        return RegimeLabel.INTERIOR
    return RegimeLabel.INDETERMINATE


# ---------------------------------------------------------------------------
# Displacement threshold
# ---------------------------------------------------------------------------


def deterrent_sign_change_roots(
    model: ModelPrimitives,
    grid_points: int = DEFAULT_GRID_POINTS,
    grid: GridEval | None = None,
) -> list[float]:
    """All sign-change roots of the retention margin on ``(0, v_max)``.

    Diagnostic companion to :func:`displacement_threshold`, which returns
    only the smallest one; with arbitrary families the feasible set can be
    a union of intervals and every boundary is of interest.

    The margin on the grid comes from one :func:`evaluate_grid` pass (or
    ``grid``, when the caller already holds it) through the same formula
    as :func:`displacement_deterrent_margin`, so it equals the scalar
    margin bit for bit.  Each bracket where the sign flips is then
    bisected on the scalar margin.
    """
    g = evaluate_model_grid(model, grid_points, grid)
    vs = g.v
    margin = retention_margin(model, g)
    f = lambda v: displacement_deterrent_margin(model, v)
    nonneg = margin >= 0.0
    return [
        bisect_root(f, vs[i], vs[i + 1], margin[i], margin[i + 1])
        for i in np.flatnonzero(nonneg[:-1] != nonneg[1:])
    ]


def displacement_threshold(
    model: ModelPrimitives, grid_points: int = DEFAULT_GRID_POINTS
) -> float | None:
    """Smallest investment at which the retention margin crosses zero.

    Returns ``None`` when the margin stays nonnegative on the whole range
    (no displacement risk) and ``0.0`` when it is already negative at zero
    investment (the twin dominates immediately).  Roots are found by
    bisection; the bracket is shrunk until the residual is far below 1e-10.
    """
    if displacement_deterrent_margin(model, 0.0) < 0.0:
        return 0.0
    roots = deterrent_sign_change_roots(model, grid_points)
    return roots[0] if roots else None


# ---------------------------------------------------------------------------
# Constrained optimum
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InvestmentSolution:
    """Solution of the deterrent-constrained rent maximization.

    ``feasible`` is False when the retention condition fails at every grid
    point including zero investment; then there is no contracting outcome
    (the principal runs the twin alone) and the optional fields are None.
    Validated models always retain the agent at ``v = 0``, so this only
    arises for deliberately broken instances.  ``deterrent_roots`` lists
    every sign-change root of the retention margin, as
    :func:`deterrent_sign_change_roots` returns them.
    """

    regime: RegimeLabel
    v_star_unconstrained: float
    v_opt: float | None
    displacement_threshold: float | None
    deterrent_binding: bool
    u_at_opt: float | None
    principal_surplus_at_opt: float | None
    feasible: bool = True
    deterrent_roots: tuple[float, ...] = ()


def optimal_investment(
    model: ModelPrimitives,
    grid_points: int = DEFAULT_GRID_POINTS,
    grid: GridEval | None = None,
) -> InvestmentSolution:
    """Maximize the agent's rent over ``[0, v_max]``, respecting the deterrent.

    Grid-first bracketing handles non-quasiconcave objectives; the best
    bracket is then refined by golden-section.  For the constrained part the
    feasible grid points are filtered by the retention margin, the best one
    is refined inside its containing feasible interval, and the interval
    endpoints are located by bisection on the margin so the returned point
    is feasible by construction.  Both refinements are
    :func:`~twinvest.optimize.refine_max`.  Ties break toward smaller ``v``,
    and feasibility allows a margin down to ``-DEFAULT_TOL``.

    The grid is evaluated once, or not at all when the caller passes its
    ``grid_points``-point :func:`evaluate_grid` result as ``grid``.  The
    rent, the feasibility margins, the displacement threshold with every
    sign-change root of the margin, and the regime rates all come from that
    one result; only the refinement steps evaluate single points.
    """
    g = evaluate_model_grid(model, grid_points, grid)
    vs = g.v
    us = information_rent(g)
    margins = model.quality_importance * (1.0 - g.pi0 / g.pi1) - incentive_wage(g)
    feasible = margins >= -DEFAULT_TOL

    u = lambda v: agent_surplus(model, v)
    m = lambda v: displacement_deterrent_margin(model, v)

    i_star = int(np.argmax(us))
    v_unc, _ = refine_grid_max(u, vs, us, i_star)

    roots = tuple(deterrent_sign_change_roots(model, grid_points, grid=g))
    # same test as displacement_threshold, on the grid's v = 0 point
    if retention_margin(model, g)[0] < 0.0:
        threshold = 0.0
    else:
        threshold = roots[0] if roots else None
    regime = classify_regime(model, grid_points, grid=g)

    if not feasible.any():
        return InvestmentSolution(
            regime=regime,
            v_star_unconstrained=v_unc,
            v_opt=None,
            displacement_threshold=threshold,
            deterrent_binding=False,
            u_at_opt=None,
            principal_surplus_at_opt=None,
            feasible=False,
            deterrent_roots=roots,
        )

    us_feas = np.where(feasible, us, -np.inf)
    j = int(np.argmax(us_feas))

    # Containing feasible run of grid points, then its exact endpoints.
    jl = j
    while jl > 0 and feasible[jl - 1]:
        jl -= 1
    jr = j
    while jr < len(vs) - 1 and feasible[jr + 1]:
        jr += 1

    if jl == 0:
        a = vs[0]
    else:
        _, a = bisect_bracket(m, vs[jl - 1], vs[jl], margins[jl - 1], margins[jl])
    if jr == len(vs) - 1:
        b = vs[-1]
    else:
        b, _ = bisect_bracket(m, vs[jr], vs[jr + 1], margins[jr], margins[jr + 1])

    v_opt, u_opt = refine_max(u, [(vs[j], us[j]), (a, u(a)), (b, u(b))], a, b)
    if m(v_opt) < -DEFAULT_TOL:
        # refinement strayed into an infeasible dip between grid points
        v_opt, u_opt = vs[j], us[j]

    binding = m(v_unc) < -DEFAULT_TOL
    return InvestmentSolution(
        regime=regime,
        v_star_unconstrained=v_unc,
        v_opt=v_opt,
        displacement_threshold=threshold,
        deterrent_binding=binding,
        u_at_opt=u_opt,
        principal_surplus_at_opt=principal_surplus(model, v_opt),
        feasible=True,
        deterrent_roots=roots,
    )


# ---------------------------------------------------------------------------
# Wage-slope diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WageSlopeDiagnostics:
    """Analytic slopes of the wage, the probability gap and the separability.

    The two consistency flags encode the directional facts the slopes must
    respect: a widening probability gap forces the wage down, and a rising
    wage can only happen while separability falls fast enough that the
    max-investment rate condition holds.
    """

    t_bar_slope: float
    delta_pi_slope: float
    q_slope: float
    rising_gap_implies_falling_wage: bool
    rising_wage_implies_falling_separability: bool


def wage_slope_diagnostics(model: ModelPrimitives, v: float) -> WageSlopeDiagnostics:
    p = evaluate(model, v)
    gap = p.pi1 - p.pi0
    dgap = p.dpi1 - p.dpi0
    t_slope = (p.dcost * gap - p.cost * dgap) / (gap * gap)
    rate_cost, rate_sep, dq = _rates(p)
    return WageSlopeDiagnostics(
        t_bar_slope=t_slope,
        delta_pi_slope=dgap,
        q_slope=dq,
        rising_gap_implies_falling_wage=(not dgap > 0.0) or t_slope < 0.0,
        rising_wage_implies_falling_separability=(not t_slope > 0.0)
        or (dq < 0.0 and abs(rate_cost) < abs(rate_sep)),
    )
