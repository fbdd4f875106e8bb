"""Model primitives for the two-outcome limited-liability contracting game.

A :class:`ModelPrimitives` instance describes one task/technology pair: the
probability that the AI twin alone produces the better outcome (``pi0``),
the probability when the human exerts high effort alongside it (``pi1``),
the human's effort cost (``cost``) -- all as functions of the training
investment ``v`` on ``[0, v_max]`` -- plus the principal's stakes
``s_high > s_low`` for the better and worse outcomes.

Construction only checks structure (family shapes, positive ``v_max``).
The economic assumptions live in :func:`validate`, which reports rather
than raises, so that deliberately broken instances can be probed by tests
and by the regime-sweep machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .families import ParametricFamily


class DomainError(ValueError):
    """An argument fell outside the model's declared domain."""


#: Absolute tolerance for weak inequality checks on payoff-scale quantities.
DEFAULT_TOL = 1e-12

#: Default number of points in dense-grid invariant scans.
DEFAULT_GRID_POINTS = 1001

PRIMITIVE_NAMES = ("pi0", "pi1", "cost")


@dataclass(frozen=True)
class ModelPrimitives:
    """One instance of the contracting game, immutable after construction."""

    pi0: ParametricFamily
    pi1: ParametricFamily
    cost: ParametricFamily
    v_max: float
    s_high: float
    s_low: float

    def __post_init__(self):
        object.__setattr__(self, "v_max", float(self.v_max))
        object.__setattr__(self, "s_high", float(self.s_high))
        object.__setattr__(self, "s_low", float(self.s_low))
        if not np.isfinite(self.v_max) or self.v_max <= 0.0:
            raise ValueError(f"v_max must be a positive finite number, got {self.v_max}")
        if not (np.isfinite(self.s_high) and np.isfinite(self.s_low)):
            raise ValueError("s_high and s_low must be finite")

    @property
    def quality_importance(self) -> float:
        """The principal's stake in the better outcome, ``s_high - s_low``."""
        return self.s_high - self.s_low

    def family(self, name: str) -> ParametricFamily:
        if name not in PRIMITIVE_NAMES:
            raise ValueError(f"unknown primitive {name!r}; expected one of {PRIMITIVE_NAMES}")
        return getattr(self, name)

    def with_coefficient(self, name: str, index: int, value: float) -> "ModelPrimitives":
        """Return a copy with one coefficient of one primitive replaced."""
        return replace(self, **{name: self.family(name).with_coefficient(index, value)})

    def check_domain(self, v: float) -> float:
        v = float(v)
        if not np.isfinite(v) or v < 0.0 or v > self.v_max:
            raise DomainError(f"investment {v} outside [0, {self.v_max}]")
        return v

    def grid(self, grid_points: int = DEFAULT_GRID_POINTS) -> np.ndarray:
        if grid_points < 2:
            raise ValueError(f"grid needs at least 2 points, got {grid_points}")
        return np.linspace(0.0, self.v_max, int(grid_points))


@dataclass(frozen=True)
class EvaluatedPoint:
    """Function and first-derivative values of all primitives at one ``v``."""

    v: float
    pi0: float
    pi1: float
    cost: float
    dpi0: float
    dpi1: float
    dcost: float


class GridEval(NamedTuple):
    """Vectorized primitive evaluation over an investment grid."""

    v: np.ndarray
    pi0: np.ndarray
    pi1: np.ndarray
    cost: np.ndarray
    dpi0: np.ndarray
    dpi1: np.ndarray
    dcost: np.ndarray


class PrimitiveValues(NamedTuple):
    """Primitive values at one ``v`` without derivatives, for value-only objectives."""

    pi0: float
    pi1: float
    cost: float


def evaluate_values(model: ModelPrimitives, v: float) -> PrimitiveValues:
    """Evaluate the primitives (not their derivatives) at ``v``.

    Same values and same :class:`DomainError` as :func:`evaluate`; the
    refinement objectives call it hundreds of times per solve.
    """
    v = model.check_domain(v)
    return PrimitiveValues(
        pi0=float(model.pi0.value(v)),
        pi1=float(model.pi1.value(v)),
        cost=float(model.cost.value(v)),
    )


def evaluate(model: ModelPrimitives, v: float) -> EvaluatedPoint:
    """Evaluate all primitives and their analytic derivatives at ``v``.

    Raises :class:`DomainError` if ``v`` is outside ``[0, v_max]``.
    """
    v = model.check_domain(v)
    return EvaluatedPoint(
        v=v,
        pi0=float(model.pi0.value(v)),
        pi1=float(model.pi1.value(v)),
        cost=float(model.cost.value(v)),
        dpi0=float(model.pi0.derivative(v)),
        dpi1=float(model.pi1.derivative(v)),
        dcost=float(model.cost.derivative(v)),
    )


def evaluate_grid(model: ModelPrimitives, vs: np.ndarray) -> GridEval:
    """Evaluate all primitives on an array of investment levels (no domain check)."""
    vs = np.asarray(vs, dtype=float)
    return GridEval(
        v=vs,
        pi0=np.asarray(model.pi0.value(vs), dtype=float),
        pi1=np.asarray(model.pi1.value(vs), dtype=float),
        cost=np.asarray(model.cost.value(vs), dtype=float),
        dpi0=np.asarray(model.pi0.derivative(vs), dtype=float),
        dpi1=np.asarray(model.pi1.derivative(vs), dtype=float),
        dcost=np.asarray(model.cost.derivative(vs), dtype=float),
    )


def evaluate_model_grid(
    model: ModelPrimitives,
    grid_points: int = DEFAULT_GRID_POINTS,
    grid: GridEval | None = None,
) -> GridEval:
    """The model's ``grid_points``-point :func:`evaluate_grid` result:
    ``grid`` when the caller already holds it, else a fresh evaluation."""
    return evaluate_grid(model, model.grid(grid_points)) if grid is None else grid


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    """First model assumption found violated, with the offending ``v``."""

    condition: str
    v: float | None
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    passed: bool
    violation: Violation | None
    warnings: tuple[str, ...]
    grid_points: int

    def describe(self) -> str:
        if self.passed:
            lines = [f"valid (checked on {self.grid_points}-point grid)"]
        else:
            where = "" if self.violation.v is None else f" at {self.violation.v:.6g}"
            lines = [f"invalid: {self.violation.condition}{where}: {self.violation.detail}"]
        lines.extend(f"warning: {w}" for w in self.warnings)
        return "\n".join(lines)


def _first_index(mask: np.ndarray) -> int:
    return int(np.argmax(mask))


def validate(
    model: ModelPrimitives,
    grid_points: int = DEFAULT_GRID_POINTS,
    grid: GridEval | None = None,
) -> ValidationReport:
    """Check every model assumption on a dense grid; report, never raise.

    ``grid`` is the model's ``grid_points``-point :func:`evaluate_grid`
    result when the caller already holds it.

    Checked in order, stopping at the first violation (weak inequalities
    allow a slack of ``DEFAULT_TOL``):

    * ``s_high > s_low`` (quality importance positive);
    * finite values and derivatives of all primitives on the grid
      (differentiability over the closed interval);
    * ``0 < pi0(v)`` and ``pi1(v) < 1`` and strict ordering ``pi0 < pi1``;
    * monotonicity: ``pi0' >= 0``, ``pi1' >= 0``, ``cost' <= 0``;
    * ``cost(v) > 0``;
    * baseline contracting viability at ``v = 0``: the gain from inducing
      effort covers the expected wage,
      ``(pi1-pi0)*(s_high-s_low) >= pi1*cost/(pi1-pi0)``.
      This same comparison is the zero-investment retention condition, so a
      model that passes validation always has a feasible contracting outcome.

    A vanishing ``pi1`` slope anywhere is flagged as a warning, not a
    failure: several downstream slope results assume a strictly positive
    slope while the base assumptions only require a weak one.
    """
    warnings: list[str] = []

    def report(condition: str, v: float | None, detail: str) -> ValidationReport:
        return ValidationReport(
            passed=False,
            violation=Violation(condition, v, detail),
            warnings=tuple(warnings),
            grid_points=grid_points,
        )

    if not model.s_high > model.s_low:
        return report(
            "stakes-ordering", None,
            f"s_high={model.s_high:.6g} must exceed s_low={model.s_low:.6g}",
        )

    g = evaluate_model_grid(model, grid_points, grid)
    vs = g.v

    for name, vals, derivs in (
        ("pi0", g.pi0, g.dpi0),
        ("pi1", g.pi1, g.dpi1),
        ("cost", g.cost, g.dcost),
    ):
        bad = ~np.isfinite(vals) | ~np.isfinite(derivs)
        if bad.any():
            i = _first_index(bad)
            return report(
                "finite-evaluation", float(vs[i]),
                f"{name} value/derivative not finite (family not differentiable here)",
            )

    checks = (
        ("pi0-positive", g.pi0 <= 0.0, "pi0 must stay strictly positive"),
        ("pi1-below-one", g.pi1 >= 1.0, "pi1 must stay strictly below 1"),
        ("pi-ordering", g.pi1 - g.pi0 <= 0.0, "pi1 must exceed pi0 strictly"),
        ("pi0-nondecreasing", g.dpi0 < -DEFAULT_TOL, "pi0 slope must be >= 0"),
        ("pi1-nondecreasing", g.dpi1 < -DEFAULT_TOL, "pi1 slope must be >= 0"),
        ("cost-positive", g.cost <= 0.0, "effort cost must stay strictly positive"),
        ("cost-nonincreasing", g.dcost > DEFAULT_TOL, "cost slope must be <= 0"),
    )
    for condition, bad, detail in checks:
        if bad.any():
            i = _first_index(bad)
            return report(condition, float(vs[i]), detail)

    gap0 = g.pi1[0] - g.pi0[0]
    lhs = gap0 * model.quality_importance
    rhs = g.pi1[0] * g.cost[0] / gap0
    if lhs - rhs < -DEFAULT_TOL:
        return report(
            "baseline-contracting-viability", 0.0,
            f"effort gain {lhs:.6g} below expected wage {rhs:.6g} at zero investment",
        )

    if np.any(np.abs(g.dpi1) <= DEFAULT_TOL):
        warnings.append(
            "pi1 slope vanishes on part of the range; slope-based results "
            "that assume a strictly increasing pi1 degenerate there"
        )

    return ValidationReport(True, None, tuple(warnings), grid_points)
