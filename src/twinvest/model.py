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

import math
import operator
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Mapping, NamedTuple

import numpy as np

from .families import ParametricFamily, family_function, family_value_slope


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
        if not math.isfinite(self.v_max) or self.v_max <= 0.0:
            raise ValueError(f"v_max must be a positive finite number, got {self.v_max}")
        if not (math.isfinite(self.s_high) and math.isfinite(self.s_low)):
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
            try:
                v = float(v)
            except OverflowError:
                raise DomainError(f"investment too large for a float, outside [0, {self.v_max}]") from None
            if not 0.0 <= v <= self.v_max:
                raise DomainError(f"investment {v} outside [0, {self.v_max}]")
            return v
        # min and max are NaN when any element is
        if v.size and not (v.min() >= 0.0 and v.max() <= self.v_max):
            outside = ~((v >= 0.0) & (v <= self.v_max))
            raise DomainError(f"investment {v[outside][0]} outside [0, {self.v_max}]")
        return v

    def grid(self, grid_points: int = DEFAULT_GRID_POINTS) -> np.ndarray:
        return np.linspace(0.0, self.v_max, check_grid_points(grid_points))


def check_grid_points(grid_points: int) -> int:
    """``grid_points`` as an int of at least 2, else :class:`DomainError` (a whole float too)."""
    n = operator.index(grid_points) if hasattr(grid_points, "__index__") else 0
    if n < 2:
        raise DomainError(f"grid needs at least 2 points, got {grid_points!r}")
    return n


def _families(model: ModelPrimitives) -> tuple[tuple[str, tuple], ...]:
    """``(kind, coefficients)`` of the model's pi0, pi1 and cost."""
    p0, p1, c = model.pi0, model.pi1, model.cost
    return (p0.kind, p0.coefficients), (p1.kind, p1.coefficients), (c.kind, c.coefficients)


@dataclass(frozen=True)
class ModelBatch:
    """Models solved together: the cells of a sweep.

    The cells share ``base``'s family kinds, ``v_max`` and stakes and
    differ only in some coefficients.  A batch is ``shape`` ``(n1, n2)``:
    n1 axis-1 values by n2 axis-2 values, cells in row-major order; a
    single model is 1x1 and a batch of one axis is 1xn.  ``families``
    holds ``(kind, coefficients)`` for pi0, pi1 and cost; each coefficient
    is a float shared by every cell or an array that broadcasts to
    ``shape``: a sweep's axis values are a column (axis 1) or a row (axis
    2).  So a primitive has one grid per axis-2 value, or one, at each
    axis-1 value, and one per value of the one axis that varies it, or
    one, in the whole batch (:func:`evaluate_batch_grid`).
    """

    base: ModelPrimitives
    shape: tuple[int, int]
    families: tuple[tuple[str, tuple], ...]

    @property
    def size(self) -> int:
        return math.prod(self.shape)

    @classmethod
    def single(cls, model: ModelPrimitives) -> "ModelBatch":
        return cls(model, (1, 1), _families(model))

    @classmethod
    def sweep(
        cls, base: ModelPrimitives, columns: Mapping[tuple[str, int], np.ndarray]
    ) -> "ModelBatch":
        """``base`` with each coefficient ``(primitive, index)`` of ``columns``
        replaced by its array; the arrays broadcast together to the batch's
        shape (a 1-D array is a row: one entry per axis-2 value).

        The columns bypass :class:`ParametricFamily`'s coefficient checks,
        so callers check the values first.
        """
        columns = {key: np.asarray(col, dtype=float) for key, col in columns.items()}
        families = []
        for name in PRIMITIVE_NAMES:
            family = base.family(name)
            coeffs = list(family.coefficients)
            for (target, index), col in columns.items():
                if target == name:
                    coeffs[index] = col
            families.append((family.kind, tuple(coeffs)))
        return cls(base, np.broadcast_shapes((1, 1), *(c.shape for c in columns.values())), tuple(families))

    @cached_property
    def varies(self) -> tuple[tuple[bool, bool], ...]:
        """For pi0, pi1 and cost: whether a coefficient varies along axis 1,
        and whether one varies along axis 2."""
        n1, n2 = self.shape
        return tuple(
            (
                n1 > 1 and any(isinstance(c, np.ndarray) and c.ndim == 2 and len(c) > 1 for c in coeffs),
                n2 > 1 and any(isinstance(c, np.ndarray) and c.ndim and c.shape[-1] > 1 for c in coeffs),
            )
            for _, coeffs in self.families
        )

    def take(self, cells: np.ndarray) -> "ModelBatch":
        """The 1xn batch of the given cells, in that order (repeats allowed),
        with one coefficient entry per cell."""
        families = tuple(
            (kind, tuple(
                np.broadcast_to(c, self.shape).reshape(-1)[cells] if isinstance(c, np.ndarray) else c
                for c in coeffs
            ))
            for kind, coeffs in self.families
        )
        return ModelBatch(self.base, (1, len(cells)), families)

    @cached_property
    def shared(self) -> bool:
        """True when no coefficient varies across cells (a single model)."""
        return not any(isinstance(c, np.ndarray) for _, coeffs in self.families for c in coeffs)


class GridEval(NamedTuple):
    """Primitive values and slopes at investment ``v``: Python floats at one
    point (:func:`evaluate`), arrays on a grid (:func:`evaluate_grid`), or
    (rows x grid) arrays of a batch at one axis-1 value
    (:func:`evaluate_batch_grid`).
    A field not evaluated (a value-only evaluation's slopes) is ``None``."""

    v: np.ndarray
    pi0: np.ndarray
    pi1: np.ndarray
    cost: np.ndarray
    dpi0: np.ndarray | None = None
    dpi1: np.ndarray | None = None
    dcost: np.ndarray | None = None


# A GridEval from a tuple of all its fields: about 0.2 us less per point of
# a search than the generated constructor with its defaults.
_new_tuple = tuple.__new__


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


def _at_axis1(c: np.ndarray, i: int | None) -> np.ndarray:
    """A batch's coefficient array at axis-1 value ``i``, as a column: one
    entry per axis-2 value, or one when it does not vary along axis 2.
    With ``i`` None, the column of a coefficient that one axis varies at
    most: an entry per value of that axis, or one."""
    c = np.atleast_2d(c)
    return c.reshape(-1, 1) if i is None else c[i if len(c) > 1 else 0, :, None]


def evaluate_batch_grid(batch: ModelBatch, vs: np.ndarray, i: int | None, ks) -> GridEval:
    """Values and slopes on the grid ``vs`` of the primitives ``ks``
    (positions in :data:`PRIMITIVE_NAMES`; the others' fields are None) at
    axis-1 value ``i`` of ``batch``: (rows x grid) arrays, one row per
    axis-2 value, or one row when none of the primitive's coefficients
    varies along axis 2; row for row the :func:`evaluate_grid` of the cells
    that read that row.  With ``i`` None they are the rows of the whole
    batch, of primitives that one axis varies at most
    (:attr:`ModelBatch.varies`): one row per value of that axis, or one."""
    vs = np.asarray(vs, dtype=float)
    fields = [None] * 6
    for k in ks:
        kind, coeffs = batch.families[k]
        columns = [_at_axis1(c, i) if isinstance(c, np.ndarray) else c for c in coeffs]
        shape = (max([len(c) for c in columns if isinstance(c, np.ndarray)], default=1), len(vs))
        fields[k], fields[k + 3] = (
            x if x.shape == shape else np.broadcast_to(x, shape)
            for x in family_value_slope(kind, columns, vs[None])
        )
    return GridEval(vs, *fields)


def batch_formula(batch: ModelBatch, formula):
    """``formula(batch.base, p)`` of the primitive values ``p`` at one
    investment per cell of a 1xn ``batch``, as a function of the
    investment: the objective of a search.  The investment has one entry
    per cell (when no coefficient varies it may also be a float) and gets
    the domain check of :meth:`ModelPrimitives.check_domain`; ``p`` holds
    element for element the values of :func:`evaluate`, and no slopes.
    Each family's formula is looked up once, here
    (:func:`~twinvest.families.family_function`), not at each point."""
    base = batch.base
    check = base.check_domain
    f0, f1, f2 = (family_function(kind, c) for kind, c in batch.families)

    def at(v):
        v = check(v)
        return formula(base, _new_tuple(GridEval, (v, f0(v), f1(v), f2(v), None, None, None)))

    return at


# The formulas below read only the ``pi0``, ``pi1`` and ``cost`` fields of a
# :class:`GridEval`, so they take one point (``evaluate``), a whole grid
# (``evaluate_grid``), a block of cells or one value per cell
# (``batch_formula``).


def incentive_wage(p):
    """Success payment ``cost/(pi1-pi0)`` of evaluated primitives."""
    return p.cost / (p.pi1 - p.pi0)


def pair_terms(model: ModelPrimitives, p) -> tuple:
    """What :func:`retention_margin` and the information rent read of pi0
    and pi1 alone: the gap ``pi1 - pi0`` and the stake
    ``(s_high - s_low)*(1 - 1/Q)``, once per pair of rows in a batch."""
    q = p.pi1 / p.pi0
    return p.pi1 - p.pi0, model.quality_importance * (1.0 - 1.0 / q)


def retention_margin(model: ModelPrimitives, p, pair: tuple | None = None):
    """``(s_high - s_low)*(1 - 1/Q) - t_high`` of evaluated primitives, or
    of ``p.cost`` and the :func:`pair_terms` ``pair`` when given.

    ``pi1`` times it is both the principal's gain from employing the human
    over running the twin alone and the effort gain ``(pi1-pi0)*(s_high-s_low)``
    less the expected wage, so retention and effort inducement are one
    condition."""
    gap, stake = pair_terms(model, p) if pair is None else pair
    return stake - p.cost / gap


def margin_holds(margin):
    """True where ``margin >= 0`` (a number or an array): a tie holds, NaN
    fails.  The one tie rule of retention, effort, rehire and offer."""
    return margin >= 0.0


def retention_holds(model: ModelPrimitives, p, pair: tuple | None = None):
    """:func:`margin_holds` of the :func:`retention_margin`: the principal
    weakly prefers the human, and inducing effort pays.  The displacement
    thresholds are bisected roots of it."""
    return margin_holds(retention_margin(model, p, pair))


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


def _assumption_checks(g: GridEval, ordering=None):
    """``(condition, table, bad, detail)`` for each grid check of
    :func:`validate`, in the order it checks them, on the primitives whose
    fields ``g`` holds (not None); ``pi-ordering`` reads ``ordering``, which
    is ``pi1 <= pi0`` point by point (no subtraction of non-finite values),
    and is skipped without it.  ``table`` is what a check reads, a
    primitive or the ``"pair"``; ``bad`` is its mask of failing points.
    """
    fields = {f: x for f, x in zip(GridEval._fields[1:], g[1:]) if x is not None}

    def bound(condition, field, test, limit, detail):
        if field in fields:
            yield condition, field.lstrip("d"), test(fields[field], limit), detail

    for name in PRIMITIVE_NAMES:
        if name in fields:
            yield (
                "finite-evaluation", name, ~np.isfinite(fields[name]) | ~np.isfinite(fields["d" + name]),
                f"{name} value/derivative not finite (family not differentiable here)",
            )
    # below the smallest normal float, pi1/pi0 overflows
    yield from bound("pi0-positive", "pi0", operator.lt, np.finfo(float).tiny, "pi0 must stay positive and normal")
    yield from bound("pi1-below-one", "pi1", operator.ge, 1.0, "pi1 must stay strictly below 1")
    if ordering is not None:
        yield "pi-ordering", "pair", ordering, "pi1 must exceed pi0 strictly"
    yield from bound("pi0-nondecreasing", "dpi0", operator.lt, -DEFAULT_TOL, "pi0 slope must be >= 0")
    yield from bound("pi1-nondecreasing", "dpi1", operator.lt, -DEFAULT_TOL, "pi1 slope must be >= 0")
    yield from bound("cost-positive", "cost", operator.le, 0.0, "effort cost must stay strictly positive")
    yield from bound("cost-nonincreasing", "dcost", operator.gt, DEFAULT_TOL, "cost slope must be <= 0")


def row_passes(g: GridEval, ordering=None) -> dict[str, np.ndarray]:
    """For each table that :func:`_assumption_checks` checks on ``g`` (and
    ``ordering``), a flag per row: True where every check of it passes."""
    failed: dict[str, np.ndarray] = {}
    for _, table, bad, _ in _assumption_checks(g, ordering):
        failed[table] = failed.get(table, False) | bad.any(axis=-1)
    return {table: ~fails for table, fails in failed.items()}


def first_violation(model, grid_points: int, checks, warnings=()) -> ValidationReport:
    """The report on ``model``, a game with stakes ``s_high`` and ``s_low``,
    checked on ``grid_points`` points: ``s_high > s_low`` first, then each
    ``(condition, points, bad, detail)`` of ``checks`` in order, a violation
    at the first of ``points`` where ``bad`` holds.  ``checks`` is iterated
    only once the stakes pass and up to the first violation, so a generator
    evaluates each check only when it is reached; a pass carries the
    ``warnings`` found by then."""
    if not model.s_high > model.s_low:
        detail = f"s_high={model.s_high:.6g} must exceed s_low={model.s_low:.6g}"
        return ValidationReport(False, Violation("stakes-ordering", None, detail), (), grid_points)
    for condition, points, bad, detail in checks:
        if bad.any():
            return ValidationReport(False, Violation(condition, float(points[bad.argmax()]), detail), (), grid_points)
    return ValidationReport(True, None, tuple(warnings), grid_points)


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
    * finite values and derivatives of pi0, then pi1, then cost on the
      grid (differentiability over the closed interval);
    * ``pi0(v)`` positive and not subnormal, ``pi1(v) < 1`` and strict
      ordering ``pi0 < pi1``;
    * monotonicity of the probabilities: ``pi0' >= 0``, ``pi1' >= 0``;
    * ``cost(v) > 0`` and ``cost' <= 0``;
    * baseline contracting viability at ``v = 0``: the gain from inducing
      effort covers the expected wage.  This is :func:`retention_holds` at
      zero investment, with no slack, so a model that passes validation is
      always feasible and retained at ``v = 0``.

    A violated grid check is reported at its first bad ``v``.

    A vanishing ``pi1`` slope anywhere is flagged as a warning, not a
    failure: several downstream slope results assume a strictly positive
    slope while the base assumptions only require a weak one.
    """
    warnings = []

    def checks():
        g = evaluate_grid(model, model.grid(grid_points)) if grid is None else grid
        for condition, _, bad, detail in _assumption_checks(g, g.pi1 <= g.pi0):
            yield condition, g.v, bad, detail
        p = GridEval(g.v[0], g.pi0[0], g.pi1[0], g.cost[0])
        if not retention_holds(model, p):  # formatting the message costs about 5 us: only on failure
            gap = p.pi1 - p.pi0
            lhs, rhs = gap * model.quality_importance, p.pi1 * p.cost / gap
            detail = f"effort gain {lhs:.6g} below expected wage {rhs:.6g} at zero investment"
            yield "baseline-contracting-viability", g.v[:1], np.ones(1, bool), detail
        if np.any(np.abs(g.dpi1) <= DEFAULT_TOL):
            warnings.append(
                "pi1 slope vanishes on part of the range; slope-based results "
                "that assume a strictly increasing pi1 degenerate there"
            )

    return first_violation(model, grid_points, checks(), warnings)
