"""Continuous-effort variant with two outcomes and limited liability.

Effort ``e`` ranges over ``[e_min, e_max]``; success arrives with
probability ``p(e)`` (increasing, concave), and effort costs ``c0 * e``.
For a target effort the first-order condition pins the payment spread at
``c0 / p'(e)``, and the participation constraint plus the nonnegativity
floor give

    t_low  = max(0, c0*e - (p(e)/p'(e))*c0)
    t_high = t_low + c0/p'(e)

When the liability floor binds (``t_low = 0``) the success payment is
exactly ``c0/p'(e)``.  Concavity of ``p`` with a linear cost makes the
local condition sufficient, so inducing a target effort is a single
optimization and the principal's problem is a bounded scalar search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .contracts import Contract, employed_principal_payoff
from .families import ParametricFamily
from .model import DEFAULT_GRID_POINTS, DEFAULT_TOL, DomainError, ValidationReport, check_grid_points, first_violation
from .optimize import refine_max


@dataclass(frozen=True)
class ContinuousEffortModel:
    """Primitives of the continuous-effort game; immutable."""

    p: ParametricFamily
    c0: float
    e_min: float
    e_max: float
    s_high: float
    s_low: float

    def __post_init__(self):
        for name in ("c0", "e_min", "e_max", "s_high", "s_low"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not math.isfinite(self.c0) or self.c0 <= 0.0:
            raise ValueError(f"cost slope c0 must be > 0, got {self.c0}")
        if not (math.isfinite(self.s_high) and math.isfinite(self.s_low)):
            raise ValueError("s_high and s_low must be finite")
        if not (math.isfinite(self.e_max) and 0.0 < self.e_min < self.e_max):
            raise ValueError(
                f"effort bounds must be finite with 0 < e_min < e_max, got "
                f"[{self.e_min}, {self.e_max}]"
            )

    def check_domain(self, e: float) -> float:
        try:
            e = float(e)
        except OverflowError:
            raise DomainError(f"effort too large for a float, outside [{self.e_min}, {self.e_max}]") from None
        if not math.isfinite(e) or e < self.e_min or e > self.e_max:
            raise DomainError(f"effort {e} outside [{self.e_min}, {self.e_max}]")
        return e

    def grid(self, grid_points: int = DEFAULT_GRID_POINTS) -> np.ndarray:
        return np.linspace(self.e_min, self.e_max, check_grid_points(grid_points))


def validate_continuous(
    cmodel: ContinuousEffortModel, grid_points: int = DEFAULT_GRID_POINTS
) -> ValidationReport:
    """Grid-check the success family, after the stakes: finite, strictly
    inside (0,1), increasing, concave (curvature at most ``DEFAULT_TOL``)."""

    def checks():
        es = cmodel.grid(grid_points)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is named below
            vals = np.asarray(cmodel.p.value(es), dtype=float)
            slopes = np.asarray(cmodel.p.derivative(es), dtype=float)
            curv = np.asarray(cmodel.p.second_derivative(es), dtype=float)
        bad = ~np.isfinite(vals) | ~np.isfinite(slopes) | ~np.isfinite(curv)
        yield "finite-evaluation", es, bad, "p not finite/differentiable here"
        # p may touch 1 exactly at the top of the range (certain success at
        # maximum effort); only the lower bound is strict.
        yield "p-in-unit-interval", es, (vals <= 0.0) | (vals > 1.0), "p must stay within (0, 1]"
        yield "p-increasing", es, slopes <= 0.0, "p slope must be strictly positive"
        yield "p-concave", es, curv > DEFAULT_TOL, "p must be concave"

    return first_violation(cmodel, grid_points, checks())


# ---------------------------------------------------------------------------
# Contracts and the principal's problem
# ---------------------------------------------------------------------------


def _slope(cmodel: ContinuousEffortModel, e):
    """``p'(e)`` at a point or over an array; ``ValueError`` at the first
    effort where it is not strictly positive.

    At a Python float it is ``float(p'(e))``, tested as a float: the same
    formula, and the same bits as that point of an array."""
    if type(e) is float:
        slope = float(cmodel.p.derivative(e))
        if not slope > 0.0:
            raise ValueError(f"p'({e}) = {slope} must be strictly positive")
        return slope
    slope = np.asarray(cmodel.p.derivative(e), dtype=float)
    bad = ~(slope > 0.0)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"p'({np.ravel(e)[i]}) = {slope.flat[i]} must be strictly positive")
    return slope if slope.ndim else float(slope)


def _point(cmodel: ContinuousEffortModel, e: float) -> tuple[float, float, float]:
    """``(e, p(e), p'(e))`` after the domain and positive-slope checks."""
    e = cmodel.check_domain(e)
    slope = _slope(cmodel, e)
    return e, float(cmodel.p.value(e)), slope


# The two payment formulas below take ``e``, ``p(e)`` and ``p'(e)`` as one
# point or as arrays over a grid, as does the principal's payoff
# (:func:`~twinvest.contracts.employed_principal_payoff`).  The scalar
# functions and the grid scan of :func:`principal_optimal_effort` share
# them, so both round identically.


def _participation_low_payment(cmodel: ContinuousEffortModel, e, p, slope):
    """``c0*e - (p/p')*c0``: the low payment participation asks for; the
    liability floor binds where it is ``<= 0``."""
    return cmodel.c0 * e - (p / slope) * cmodel.c0


def _induced_payments(cmodel: ContinuousEffortModel, e, p, slope):
    """``(t_high, t_low)`` of the cheapest contract inducing effort ``e``.

    At one point of Python floats the liability floor is ``0.0 if x < 0.0
    else x``, which is ``np.maximum(0.0, x)`` bit for bit: ``-0.0`` and NaN
    are kept, as numpy keeps them."""
    t_low = _participation_low_payment(cmodel, e, p, slope)
    t_low = (0.0 if t_low < 0.0 else t_low) if type(t_low) is float else np.maximum(0.0, t_low)
    return t_low + cmodel.c0 / slope, t_low


def contract_for_effort(cmodel: ContinuousEffortModel, e: float) -> Contract:
    """Cheapest contract whose best response is the target effort ``e``.

    Implements the general participation-constrained form; whether the
    liability floor binds is reported by :func:`limited_liability_binding`.
    """
    return Contract(*_induced_payments(cmodel, *_point(cmodel, e)))


def limited_liability_binding(cmodel: ContinuousEffortModel, e: float) -> bool:
    """True when the zero floor (not participation) pins the low payment."""
    return bool(_participation_low_payment(cmodel, *_point(cmodel, e)) <= 0.0)


def foc_residual(cmodel: ContinuousEffortModel, e: float, contract: Contract) -> float:
    """Stationarity residual ``p'(e)*(t_high - t_low) - c0`` of the agent's choice."""
    e = cmodel.check_domain(e)
    return float(cmodel.p.derivative(e)) * contract.spread - cmodel.c0


def principal_surplus_at(cmodel: ContinuousEffortModel, e: float) -> float:
    """Principal's expected payoff from inducing effort ``e`` at its contract."""
    e, p, slope = _point(cmodel, e)
    return float(employed_principal_payoff(cmodel, p, *_induced_payments(cmodel, e, p, slope)))


def principal_surplus_grid(cmodel: ContinuousEffortModel, es: np.ndarray) -> np.ndarray:
    """:func:`principal_surplus_at` over an array of efforts in one pass.

    Same formulas, so every element equals the scalar value bit for bit.
    Raises ``ValueError`` at the first effort whose slope is not positive.
    """
    es = np.asarray(es, dtype=float)
    slope = _slope(cmodel, es)
    p = np.asarray(cmodel.p.value(es), dtype=float)
    return employed_principal_payoff(cmodel, p, *_induced_payments(cmodel, es, p, slope))


@dataclass(frozen=True)
class EffortSolution:
    e_opt: float
    contract: Contract
    principal_surplus: float
    liability_binding: bool


def principal_optimal_effort(
    cmodel: ContinuousEffortModel, grid_points: int = DEFAULT_GRID_POINTS
) -> EffortSolution:
    """Maximize the principal's surplus over the effort interval.

    The grid is scanned in one array pass (:func:`principal_surplus_grid`,
    equal to :func:`principal_surplus_at` at every point);
    :func:`~twinvest.optimize.refine_max` then refines the grid argmax in
    its neighbour bracket, clipped to the grid, on the scalar surplus.  A
    boundary optimum is returned as the boundary point.
    """
    es = cmodel.grid(grid_points)
    surplus = principal_surplus_grid(cmodel, es)
    i = int(np.argmax(surplus))
    f = lambda e: principal_surplus_at(cmodel, e)
    lo, hi = es[max(i - 1, 0)], es[min(i + 1, len(es) - 1)]
    e_opt, value = refine_max(f, lo, hi, es[i].item(), surplus[i].item())
    return EffortSolution(
        e_opt=e_opt,
        contract=contract_for_effort(cmodel, e_opt),
        principal_surplus=value,
        liability_binding=limited_liability_binding(cmodel, e_opt),
    )
