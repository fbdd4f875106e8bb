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
and labelled by the regime sweep; the solvers raise
:class:`InvalidModelError` on them.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from typing import Mapping, NamedTuple

import numpy as np

from .families import ParametricFamily, family_formula, family_value_slope


class DomainError(ValueError):
    """An argument fell outside the model's declared domain."""


class InvalidModelError(ValueError):
    """A solver was given a model that :func:`validate` rejects; ``report``
    is that :class:`ValidationReport`."""

    def __init__(self, report: ValidationReport):
        super().__init__(report.describe())
        self.report = report


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

    def check_domain(self, v):
        """``v`` as a float, or as a float array when it is an array, after
        checking that it lies in ``[0, v_max]``; the :class:`DomainError`
        names the first value that does not."""
        if not isinstance(v, np.ndarray):
            v = float(v)
            if not 0.0 <= v <= self.v_max:
                raise DomainError(f"investment {v} outside [0, {self.v_max}]")
            return v
        # min and max are NaN when any element is
        if v.size and not (v.min() >= 0.0 and v.max() <= self.v_max):
            outside = ~((v >= 0.0) & (v <= self.v_max))
            raise DomainError(f"investment {v[outside][0]} outside [0, {self.v_max}]")
        return v

    def grid(self, grid_points: int = DEFAULT_GRID_POINTS) -> np.ndarray:
        if grid_points < 2:
            raise ValueError(f"grid needs at least 2 points, got {grid_points}")
        return np.linspace(0.0, self.v_max, int(grid_points))


def _families(model: ModelPrimitives) -> tuple[tuple[str, tuple], ...]:
    """``(kind, coefficients)`` of the model's pi0, pi1 and cost."""
    p0, p1, c = model.pi0, model.pi1, model.cost
    return (p0.kind, p0.coefficients), (p1.kind, p1.coefficients), (c.kind, c.coefficients)


@dataclass(frozen=True)
class ModelBatch:
    """Models solved together: the cells of a sweep.

    The cells share ``base``'s family kinds, ``v_max`` and stakes and
    differ only in some coefficients.  ``families`` holds ``(kind,
    coefficients)`` for pi0, pi1 and cost; each coefficient is a float
    shared by every cell or a 1-D array with one entry per cell.  A single
    model is a batch of one (:meth:`single`).
    """

    base: ModelPrimitives
    size: int
    families: tuple[tuple[str, tuple], ...]

    @classmethod
    def single(cls, model: ModelPrimitives) -> "ModelBatch":
        return cls(model, 1, _families(model))

    @classmethod
    def sweep(
        cls, base: ModelPrimitives, columns: Mapping[tuple[str, int], np.ndarray]
    ) -> "ModelBatch":
        """``base`` with each coefficient ``(primitive, index)`` of ``columns``
        replaced by its per-cell column; all columns have the batch's length.

        The columns bypass :class:`ParametricFamily`'s coefficient checks,
        so callers check the values first.
        """
        sizes = {len(col) for col in columns.values()}
        if len(sizes) != 1:
            raise ValueError(f"sweep columns need one common length, got {sorted(sizes)}")
        families = []
        for name in PRIMITIVE_NAMES:
            family = base.family(name)
            coeffs = list(family.coefficients)
            for (target, index), col in columns.items():
                if target == name:
                    coeffs[index] = np.asarray(col, dtype=float)
            families.append((family.kind, tuple(coeffs)))
        return cls(base, sizes.pop(), tuple(families))

    def take(self, cells: np.ndarray) -> "ModelBatch":
        """The batch of the given cells, in that order (repeats allowed)."""
        families = tuple(
            (kind, tuple(c[cells] if isinstance(c, np.ndarray) else c for c in coeffs))
            for kind, coeffs in self.families
        )
        return ModelBatch(self.base, len(cells), families)

    @property
    def shared(self) -> bool:
        """True when no coefficient varies across cells (a single model)."""
        return not any(isinstance(c, np.ndarray) for _, coeffs in self.families for c in coeffs)


class GridEval(NamedTuple):
    """Primitive values and slopes at investment ``v``: Python floats at one
    point (:func:`evaluate`), arrays on a grid (:func:`evaluate_grid`), or
    (cells x grid) arrays on a block of cells (:func:`evaluate_batch_grid`).
    A value-only evaluation leaves the slopes ``None``."""

    v: np.ndarray
    pi0: np.ndarray
    pi1: np.ndarray
    cost: np.ndarray
    dpi0: np.ndarray | None = None
    dpi1: np.ndarray | None = None
    dcost: np.ndarray | None = None


def _value_slopes(families, v) -> tuple:
    """pi0, pi1 and cost of the ``(kind, coefficients)`` families at ``v``,
    then their slopes, all from :func:`~twinvest.families.family_value_slope`."""
    (p0, dp0), (p1, dp1), (c, dc) = [family_value_slope(kind, k, v) for kind, k in families]
    return p0, p1, c, dp0, dp1, dc


def evaluate(model: ModelPrimitives, v: float) -> GridEval:
    """Evaluate all primitives and their analytic derivatives at ``v``, as
    Python floats.

    Raises :class:`DomainError` if ``v`` is outside ``[0, v_max]``.
    """
    v = model.check_domain(v)
    return GridEval(v, *map(float, _value_slopes(_families(model), v)))


def evaluate_grid(model: ModelPrimitives, vs: np.ndarray) -> GridEval:
    """Evaluate all primitives on an array of investment levels (no domain check)."""
    vs = np.asarray(vs, dtype=float)
    return GridEval(vs, *(np.asarray(x, dtype=float) for x in _value_slopes(_families(model), vs)))


def _block(x, shape: tuple[int, int]) -> np.ndarray:
    """A primitive's values (or slopes) as a (cells x grid) array.

    A row shared by every cell stays a view.  A column, one value per cell,
    is copied out along the grid: numpy reduces and combines a contiguous
    block several times faster than one with a zero stride along its rows.
    """
    x = np.asarray(x, dtype=float)
    if x.size == shape[0] * shape[1]:
        return x.reshape(shape)
    block = np.broadcast_to(x, shape)
    return block.copy() if x.shape[-1] == 1 else block


def evaluate_batch_grid(batch: ModelBatch, vs: np.ndarray) -> GridEval:
    """All primitives of every cell of ``batch`` on the shared grid ``vs``:
    ``v`` is ``vs``, every other field a (cells x grid) array."""
    vs = np.asarray(vs, dtype=float)
    shape = (batch.size, len(vs))
    # per-cell coefficients as columns of the block
    columns = [
        (kind, tuple(c[:, None] if isinstance(c, np.ndarray) else c for c in coeffs))
        for kind, coeffs in batch.families
    ]
    return GridEval(vs, *(_block(x, shape) for x in _value_slopes(columns, vs)))


def evaluate_batch_values(batch: ModelBatch, v: np.ndarray) -> GridEval:
    """Primitive values at one investment per cell (``v`` has one entry per
    cell; when no coefficient varies it may also be a float), with the
    array domain check of :meth:`ModelPrimitives.check_domain`; element
    for element the values of :func:`evaluate`; the slopes are ``None``."""
    v = batch.base.check_domain(v)
    (k0, c0), (k1, c1), (k2, c2) = batch.families
    return GridEval(v, family_formula(k0, c0, v), family_formula(k1, c1, v), family_formula(k2, c2, v))


# The three formulas below read only the ``pi0``, ``pi1`` and ``cost`` fields
# of a :class:`GridEval`, so they take one point (``evaluate``), a whole grid
# (``evaluate_grid``), a block of cells or one value per cell
# (``evaluate_batch_values``).


def incentive_wage(p):
    """Success payment ``cost/(pi1-pi0)`` of evaluated primitives."""
    return p.cost / (p.pi1 - p.pi0)


def retention_margin(model: ModelPrimitives, p):
    """``(s_high - s_low)*(1 - 1/Q) - t_high`` of evaluated primitives.

    ``pi1`` times it is both the principal's gain from employing the human
    over running the twin alone and the effort gain ``(pi1-pi0)*(s_high-s_low)``
    less the expected wage, so retention and effort inducement are one
    condition."""
    q = p.pi1 / p.pi0
    return model.quality_importance * (1.0 - 1.0 / q) - incentive_wage(p)


def retention_holds(model: ModelPrimitives, p):
    """True where ``retention_margin >= 0`` (NaN fails): the principal weakly
    prefers the human, and inducing effort pays.  The one tie rule of the
    solvers; the displacement thresholds are bisected roots of it."""
    return retention_margin(model, p) >= 0.0


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


def _assumption_checks(g: GridEval):
    """``(condition, failed, bad, detail)`` for each grid check of
    :func:`validate`, in the order it checks them.  ``failed`` says whether
    the check fails, per cell on a block of cells; ``bad()`` is its mask of
    bad points, for naming the first one.

    ``failed`` comes from each array's min and max over the grid.  Both are
    finite exactly when every value is, since either is NaN when a value
    is.  On finite values a one-sided bound fails somewhere exactly when it
    fails at the extremum on its side.  The finiteness checks come first,
    so the bounds only decide finite grids.  ``pi-ordering`` compares two
    arrays and stays element-wise.
    """
    lows = np.array([x.min(axis=-1) for x in g[1:]])
    highs = np.array([x.max(axis=-1) for x in g[1:]])
    low, high = GridEval(g.v, *lows), GridEval(g.v, *highs)
    finite = GridEval(g.v, *(np.isfinite(lows) & np.isfinite(highs)))

    def non_finite(name):
        d = "d" + name
        failed = ~(getattr(finite, name) & getattr(finite, d))
        return failed, lambda: ~np.isfinite(getattr(g, name)) | ~np.isfinite(getattr(g, d))

    def bound(extremum, field, test, limit):
        return test(getattr(extremum, field), limit), lambda: test(getattr(g, field), limit)

    for name in PRIMITIVE_NAMES:
        yield (
            "finite-evaluation",
            *non_finite(name),
            f"{name} value/derivative not finite (family not differentiable here)",
        )
    yield "pi0-positive", *bound(low, "pi0", operator.le, 0.0), "pi0 must stay strictly positive"
    yield "pi1-below-one", *bound(high, "pi1", operator.ge, 1.0), "pi1 must stay strictly below 1"
    # pi1 - pi0 <= 0 exactly when pi1 <= pi0, without subtracting non-finite values
    ordering = g.pi1 <= g.pi0
    yield "pi-ordering", ordering.any(axis=-1), lambda: ordering, "pi1 must exceed pi0 strictly"
    yield "pi0-nondecreasing", *bound(low, "dpi0", operator.lt, -DEFAULT_TOL), "pi0 slope must be >= 0"
    yield "pi1-nondecreasing", *bound(low, "dpi1", operator.lt, -DEFAULT_TOL), "pi1 slope must be >= 0"
    yield "cost-positive", *bound(low, "cost", operator.le, 0.0), "effort cost must stay strictly positive"
    yield "cost-nonincreasing", *bound(high, "dcost", operator.gt, DEFAULT_TOL), "cost slope must be <= 0"


def batch_validity(batch: ModelBatch, g: GridEval) -> np.ndarray:
    """Per-cell pass flags of :func:`validate` for a block of cells.

    ``g`` is :func:`evaluate_batch_grid` of ``batch``.  The checks are
    those of :func:`validate`, decided from each row's min and max (and
    ``pi-ordering`` element-wise) as there, so a cell passes exactly when
    its own report does.  No bad-point mask is built.  The viability test
    divides by the probability gap, so it only runs on cells that passed
    every grid check.
    """
    failed = np.any([fails for _, fails, _, _ in _assumption_checks(g)], axis=0)
    ok = ~failed & (batch.base.s_high > batch.base.s_low)
    rows = np.flatnonzero(ok)
    ok[rows] = retention_holds(batch.base, GridEval(g.v[0], g.pi0[rows, 0], g.pi1[rows, 0], g.cost[rows, 0]))
    return ok


def validate(
    model: ModelPrimitives,
    grid_points: int = DEFAULT_GRID_POINTS,
    grid: GridEval | None = None,
) -> ValidationReport:
    """Check every model assumption on a dense grid; report, never raise.

    ``grid`` is the model's ``grid_points``-point :func:`evaluate_grid`
    result when the caller already holds it.

    Checked in order, stopping at the first violation (the weak slope
    inequalities allow a slack of ``DEFAULT_TOL``):

    * ``s_high > s_low`` (quality importance positive);
    * finite values and derivatives of all primitives on the grid
      (differentiability over the closed interval);
    * ``0 < pi0(v)`` and ``pi1(v) < 1`` and strict ordering ``pi0 < pi1``;
    * monotonicity: ``pi0' >= 0``, ``pi1' >= 0``, ``cost' <= 0``;
    * ``cost(v) > 0``;
    * baseline contracting viability at ``v = 0``: the gain from inducing
      effort covers the expected wage.  This is :func:`retention_holds` at
      zero investment, with no slack, so a model that passes validation is
      always feasible and retained at ``v = 0``.

    Each grid check is decided from the grid's min and max of the arrays it
    bounds (``pi-ordering`` element-wise), and only a failed check builds
    its element-wise mask, to report the first bad ``v``.

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

    g = evaluate_grid(model, model.grid(grid_points)) if grid is None else grid
    for condition, failed, bad, detail in _assumption_checks(g):
        if failed:
            return report(condition, float(g.v[np.argmax(bad())]), detail)

    p = GridEval(g.v[0], g.pi0[0], g.pi1[0], g.cost[0])
    if not retention_holds(model, p):
        gap = p.pi1 - p.pi0
        lhs, rhs = gap * model.quality_importance, p.pi1 * p.cost / gap
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
