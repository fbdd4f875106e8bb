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
from typing import NamedTuple

import numpy as np

from .contracts import information_rent, principal_payoff, retention_holds, retention_margin
from .model import (
    DEFAULT_GRID_POINTS,
    DEFAULT_TOL,
    PRIMITIVE_NAMES,
    GridEval,
    InvalidModelError,
    ModelBatch,
    ModelPrimitives,
    batch_formula,
    evaluate_batch_grid,
    pair_terms,
    row_passes,
    validate,
)
from .optimize import bisect_bracket, refine_max


class RegimeLabel(enum.Enum):
    NO_INVESTMENT = "NoInvestment"
    MAX_INVESTMENT = "MaxInvestment"
    INTERIOR = "Interior"
    INDETERMINATE = "Indeterminate"


def _rate_cost(p):
    """cost'/cost of evaluated primitives: the regime rate of cost alone."""
    return p.dcost / p.cost


def _pair_rates(p):
    """Q'/(Q-1) and Q' of evaluated primitives: the rates of pi0 and pi1."""
    q = p.pi1 / p.pi0
    dq = (p.dpi1 * p.pi0 - p.pi1 * p.dpi0) / (p.pi0 * p.pi0)
    return dq / (q - 1.0), dq


_REGIMES = tuple(RegimeLabel)


def _regime_codes(rate_cost, rate_sep, dq_low, dq_high):
    """Index into :data:`_REGIMES` of the regime of each of the cells of an
    axis-1 value (rows are cells), from its rates cost'/cost and Q'/(Q-1)
    and Q''s min and max over the grid: the cells that the tables' extremes
    leave open (:func:`_decided`), and the one row of :func:`classify_regime`.

    Each "everywhere" condition is decided at the extremum on its side of
    the rate difference over the grid, which fails it exactly when some
    point does, NaN included (an extremum is NaN when a value is, and NaN
    fails every comparison)."""
    diff = rate_cost - rate_sep  # sign of U'
    diff_low, diff_high = diff.min(axis=-1), diff.max(axis=-1)
    no_investment = (dq_low > DEFAULT_TOL) | (diff_high < -DEFAULT_TOL)
    max_investment = (dq_high <= DEFAULT_TOL) & (diff_low > DEFAULT_TOL)
    interior = (diff[..., 0] > DEFAULT_TOL) & (diff[..., -1] < -DEFAULT_TOL)
    return np.where(no_investment, 0, np.where(max_investment, 1, np.where(interior, 2, 3)))


def classify_regime(
    model: ModelPrimitives, grid_points: int = DEFAULT_GRID_POINTS
) -> RegimeLabel:
    """Classify the unconstrained-optimum regime via the sufficient conditions.

    Ties between the two rates (within ``DEFAULT_TOL``) make neither
    strict condition hold and resolve toward
    :attr:`RegimeLabel.INDETERMINATE`.  A strictly rising separability
    everywhere forces the no-investment label on its own.  It reads the
    solve's tables and raises :class:`~twinvest.model.InvalidModelError`
    on a model whose grid fails a check of validate (:func:`_single_tables`).
    """
    cost, pair = _single_tables(model, grid_points)
    return _REGIMES[int(_regime_codes(cost["rate"], pair["rate"], pair["dq_low"], pair["dq_high"])[0])]


def _single_tables(model: ModelPrimitives, grid_points: int) -> tuple[dict, dict]:
    """The cost and pair tables (:func:`_tables`) of ``model`` alone, one row
    each.  Raises :class:`~twinvest.model.InvalidModelError` unless both
    rows are ``ok`` (the grid checks of :func:`~twinvest.model.validate`:
    the rates and the retention margin divide by the probabilities and
    their gap); a model that fails only the stakes or the viability check
    passes."""
    _, cost, pair = next(_tables(ModelBatch.single(model), model.grid(grid_points)))
    if not (cost["ok"] & pair["ok"])[0]:
        raise InvalidModelError(validate(model, grid_points))
    return cost, pair


# ---------------------------------------------------------------------------
# Displacement threshold
# ---------------------------------------------------------------------------


def _objective(batch: ModelBatch, cells, formula):
    """``formula(model, values)`` at one investment per listed cell, as an
    objective for the refinements of :mod:`twinvest.optimize`; its
    ``narrow(idx)`` is the objective of the cells ``cells[idx]`` alone.

    When every cell of ``batch`` is the same model (:attr:`ModelBatch.shared`)
    the objective also takes a single float, the investment of every cell.
    """
    objective = batch_formula(batch if batch.shared else batch.take(cells), formula)
    objective.narrow = lambda idx: _objective(batch, cells[idx], formula)
    return objective


def _rent(model, p):
    return information_rent(p)


def _margin_roots(model: ModelPrimitives, grid_points: int) -> tuple[bool, list[float]]:
    """Whether the retention margin is negative at ``v = 0``, and its roots:
    the solve's retention mask, flips and bisection, without the rent."""
    cost, pair = _single_tables(model, grid_points)
    g, terms = GridEval(model.grid(grid_points), None, None, cost["value"]), (pair["gap"], pair["stake"])
    nonneg = retention_holds(model, g, terms)
    roots = _bisect_flips(ModelBatch.single(model), g.v, _flips(model, g, terms, nonneg, np.zeros(1, np.intp)))[2]
    return not nonneg[0, 0], roots.tolist()


def deterrent_sign_change_roots(
    model: ModelPrimitives, grid_points: int = DEFAULT_GRID_POINTS
) -> list[float]:
    """All sign-change roots of the retention margin on ``[0, v_max]``.

    Diagnostic companion to :func:`displacement_threshold`, which returns
    only the smallest one; with arbitrary families the feasible set can be
    a union of intervals and every boundary is of interest.

    The roots of :func:`optimal_investment`: each grid bracket where the
    margin's sign flips, bisected to the midpoint of its shrunken bracket.
    A bracket with an exact zero of the margin at a grid point closes on
    that point, so a root is a grid end (``0.0`` or ``v_max``) when the
    margin is exactly zero there and negative at the neighbouring point.
    It raises on the models :func:`classify_regime` raises on.
    """
    return _margin_roots(model, grid_points)[1]


def displacement_threshold(
    model: ModelPrimitives, grid_points: int = DEFAULT_GRID_POINTS
) -> float | None:
    """Smallest investment at which the retention margin crosses zero.

    Returns ``None`` when the margin stays nonnegative on the whole range
    (no displacement risk) and ``0.0`` when it is already negative at zero
    investment (the twin dominates immediately).  It is ``0.0`` too when
    the margin is exactly zero at ``v = 0`` and negative at the next grid
    point: that root is the grid end, where the agent is still retained
    (:func:`deterrent_sign_change_roots`).  This is the threshold of
    :func:`optimal_investment`: its roots are found by bisection, which
    shrinks each bracket until the residual is far below 1e-10.  It raises
    on the models :func:`classify_regime` raises on.
    """
    displaced_at_zero, roots = _margin_roots(model, grid_points)
    return 0.0 if displaced_at_zero else (roots[0] if roots else None)


# ---------------------------------------------------------------------------
# Constrained optimum
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InvestmentSolution:
    """Solution of the deterrent-constrained rent maximization of a valid
    model.

    A model that passes :func:`~twinvest.model.validate` retains the agent
    at ``v = 0``, so every solution has an optimum.  ``deterrent_roots``
    lists every sign-change root of the retention margin, as
    :func:`deterrent_sign_change_roots` returns them, and
    ``displacement_threshold`` is the first of them, or None when there is
    none: a root is a grid end, ``0.0`` included, when the margin is
    exactly zero there.
    """

    regime: RegimeLabel
    v_star_unconstrained: float
    v_opt: float
    displacement_threshold: float | None
    deterrent_binding: bool
    u_at_opt: float
    principal_surplus_at_opt: float
    deterrent_roots: tuple[float, ...] = ()


def optimal_investment(model: ModelPrimitives, grid_points: int = DEFAULT_GRID_POINTS) -> InvestmentSolution:
    """Maximize the agent's rent over ``[0, v_max]``, respecting the deterrent.

    The solve of :func:`solve_batch_columns` on a batch of one, by the
    route a sweep's cells take.  A model that fails validation raises
    :class:`~twinvest.model.InvalidModelError`, carrying its
    :func:`~twinvest.model.validate` report.
    """
    sol = solve_batch_columns(ModelBatch.single(model), grid_points).solutions(1)[0]
    if sol is None:
        raise InvalidModelError(validate(model, grid_points))
    return sol


class BatchSolution(NamedTuple):
    """The solves of a batch's valid cells, a column entry per cell: its flat
    index in the batch (ascending), its :class:`RegimeLabel` index, five
    :class:`InvestmentSolution` fields and its deterrent roots
    ``roots[bounds[c]:bounds[c + 1]]`` (the ``c``-th valid cell)."""

    cell: np.ndarray
    regime: np.ndarray
    v_star_unconstrained: np.ndarray
    v_opt: np.ndarray
    u_at_opt: np.ndarray
    deterrent_binding: np.ndarray
    principal_surplus_at_opt: np.ndarray
    roots: np.ndarray
    bounds: np.ndarray

    def solutions(self, size: int) -> list[InvestmentSolution | None]:
        """The :class:`InvestmentSolution` of each of the batch's ``size``
        cells, None for an invalid one."""
        roots, bounds, out = self.roots.tolist(), self.bounds.tolist(), [None] * size
        for c, (cell, code, v_star, v, u, bound, principal) in enumerate(zip(*(x.tolist() for x in self[:7]))):
            cell_roots = tuple(roots[bounds[c]:bounds[c + 1]])
            threshold = cell_roots[0] if cell_roots else None
            out[cell] = InvestmentSolution(_REGIMES[code], v_star, v, threshold, bound, u, principal, cell_roots)
        return out


class _GridPass(NamedTuple):
    """What the grid pass keeps of each solved cell, O(cells) in all.

    ``i_star`` is the rent argmax and ``j`` the feasible one, the best grid
    point where :func:`~twinvest.model.retention_holds`.  The run of
    feasible points around ``j`` ends beside the sign flips of the margin
    (:class:`_Flips`) nearest to it, from whose bisections its ends are
    refined.
    """

    regime: np.ndarray
    u_star: np.ndarray
    i_star: np.ndarray
    j: np.ndarray
    u_j: np.ndarray


class _Flips(NamedTuple):
    """Sign flips of the retention margin between grid points ``i`` and
    ``i + 1`` of a solved cell, with the margin's values ``lo``/``hi`` there."""

    cell: np.ndarray
    i: np.ndarray
    lo: np.ndarray
    hi: np.ndarray


def _flips(model: ModelPrimitives, p: GridEval, pair: tuple, nonneg: np.ndarray, rows: np.ndarray) -> _Flips:
    """The sign flips of the retention margin in the rows ``rows`` of the
    cells of an axis-1 value of ``model``, the points where their retention
    mask ``nonneg`` (where :func:`~twinvest.model.retention_holds`; a row
    per listed row) changes, from those cells' costs ``p.cost`` and
    :func:`~twinvest.model.pair_terms` ``pair``."""
    cell, i = np.nonzero(nonneg[:, :-1] != nonneg[:, 1:])
    cell = rows[cell]

    def margin(k):  # at the flips' points only, with the grid's bits
        def at(x):  # a one-row table's row serves every cell
            return x[cell if len(x) > 1 else 0, k]

        return retention_margin(model, GridEval(p.v[k], None, None, at(p.cost)), tuple(map(at, pair)))

    return _Flips(cell, i, margin(i), margin(i + 1))


_NO_FLIPS = _Flips(np.empty(0, np.intp), np.empty(0, np.intp), np.empty(0), np.empty(0))


def _grid_pass(model: ModelPrimitives, p: GridEval, pair: tuple, opened, nonneg, regime) -> tuple[_GridPass, _Flips]:
    """Everything the solve needs from the valid cells of an axis-1 value
    (rows are cells), from their pi0 and cost on the grid ``p``, their
    :func:`~twinvest.model.pair_terms` ``pair`` and regime codes; of
    ``model``, the batch's base, only the stakes are read.  ``nonneg`` is
    the retention mask of the rows ``opened`` (positions, ascending); every
    other row is retained at every grid point, so its argmax is feasible
    and it has no flip.  Only the opened rows are searched for flips and
    their best feasible points."""
    us = information_rent(p, pair)
    rows = np.arange(len(us))
    i_star = np.argmax(us, axis=1)
    u_star = us[rows, i_star]
    if not len(opened):
        return _GridPass(regime, u_star, i_star, i_star, u_star), _NO_FLIPS
    j = i_star.copy()
    j[opened] = np.argmax(np.where(nonneg, us[opened], -np.inf), axis=1)
    return _GridPass(regime, u_star, i_star, j, us[rows, j]), _flips(model, p, pair, nonneg, opened)


def solve_batch_columns(batch: ModelBatch, grid_points: int = DEFAULT_GRID_POINTS) -> BatchSolution:
    """The solve of every cell of ``batch`` that passes :func:`~twinvest.model.validate`.

    A single model is a batch of one and takes the same route.  The grid
    pass (:func:`_grid_passes`) goes through the batch one axis-1 value at a
    time.  It evaluates, validates and rates each primitive, and the pair of
    pi0 and pi1, once per axis-2 value when axis 2 varies it (else once),
    and again at each axis-1 value only when axis 1 varies it.  Per cell it
    yields the rent and its argmax; the regime label and the retention mask
    (:func:`~twinvest.model.retention_holds`) with the margin's sign flips
    come from the tables' per-row extremes where those decide them, and per
    cell elsewhere.  A valid cell is retained at ``v = 0``, so it always has
    an optimum.  One bisection array search finds every root, from which the
    displacement threshold and the feasible run's ends come: an end inside
    the grid moves to its flip's bisected end on the feasible side, so the
    optimum is feasible and never past the threshold.  One golden-section
    array search (:func:`~twinvest.optimize.refine_max`) refines the
    unconstrained argmax in its neighbour bracket and the best feasible grid
    point in its run, each seeded with its grid point; ties break toward
    smaller ``v``.  The array searches step only the brackets still open, on
    objectives narrowed to their cells.  One evaluation of the retention
    rule and the principal's payoff then checks and prices both optima.  A
    single model's few brackets run one by one, through the same searches on
    floats.  Each cell's result is exactly the one it gets alone.
    """
    vs = batch.base.grid(grid_points)
    solved = _grid_passes(batch, vs)
    if solved is None:
        return _NO_CELLS
    cells, p, flips = solved
    return BatchSolution(cells, *_refine(batch.take(cells), vs, p, flips))


_NO_CELLS = BatchSolution(*[np.empty(0, np.intp)] * 2, *[np.empty(0)] * 6, np.zeros(1, np.intp))


def _joined(parts: list):
    """One tuple of arrays from same-type tuples, one per axis-1 value."""
    return parts[0] if len(parts) == 1 else type(parts[0])(*map(np.concatenate, zip(*parts)))


def _nan_unless(ok: np.ndarray, *arrays: np.ndarray) -> list[np.ndarray]:
    """The arrays with NaN on the rows that are not ``ok``, so that arithmetic
    on a row that failed a check of :func:`~twinvest.model.validate` raises
    no floating-point warning (NaN operands raise none)."""
    return list(arrays) if ok.all() else [np.where(ok[:, None], x, np.nan) for x in arrays]


def _cost_table(vs: np.ndarray, ok: np.ndarray, value: np.ndarray, slope: np.ndarray) -> dict:
    """The cost table of a batch at one axis-1 value, from its rows' checks
    ``ok``, values and slopes (NaN on the rows that are not ok): ``value``
    and its ``rate`` cost'/cost, and the extremes of each row that
    :func:`_decided` reads: the rate's min and max and the cost's max."""
    rate = _rate_cost(GridEval(vs, None, None, value, dcost=slope))
    return dict(
        ok=ok, value=value, rate=rate, rate_low=rate.min(axis=-1), rate_high=rate.max(axis=-1), high=value.max(axis=-1)
    )


def _pair_table(model: ModelPrimitives, vs: np.ndarray, t0: dict, t1: dict) -> dict:
    """The pair table of the pi0 and pi1 tables: ``pi-ordering`` (a pair
    fails with either of its primitives too), its ``rate`` Q'/(Q-1), Q''s
    extremes, the :func:`~twinvest.model.pair_terms` ``gap`` and ``stake``
    of ``model``'s stakes, and the extremes of each row that
    :func:`_decided` reads: the rate's min and max and the min of the gap
    and of the stake."""
    x0, x1 = t0["value"], t1["value"]
    ok = t0["ok"] & t1["ok"] & row_passes(GridEval(vs, None, None, None), x1 <= x0)["pair"]
    x0, x1, d0, d1 = _nan_unless(ok, x0, x1, t0["slope"], t1["slope"])
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # pi0*pi0 underflows below ~1.5e-154
        rate, dq = _pair_rates(GridEval(vs, x0, x1, None, d0, d1))
    gap, stake = pair_terms(model, GridEval(vs, x0, x1, None))
    return dict(
        ok=ok, rate=rate, dq_low=dq.min(axis=-1), dq_high=dq.max(axis=-1), gap=gap, stake=stake,
        rate_low=rate.min(axis=-1), rate_high=rate.max(axis=-1), gap_low=gap.min(axis=-1), stake_low=stake.min(axis=-1),
    )


def _tables(batch: ModelBatch, vs: np.ndarray):
    """The tables of ``batch`` on the grid ``vs`` at each axis-1 value:
    ``(pi0, cost, pair)``.

    Four tables, pi0, pi1, cost and the pair of pi0 and pi1, each hold one
    row per axis-2 value, or one row when no coefficient they read varies
    along axis 2; a table is built at the first axis-1 value, and again at
    each one after only when a coefficient it reads varies along axis 1.
    A table is a dict of arrays whose ``ok`` flags the rows that pass the
    checks of :func:`~twinvest.model.validate` that read them alone (the
    others are NaN); a primitive's has its ``value`` and ``slope``, and the
    cost and pair tables are :func:`_cost_table` and :func:`_pair_table`.
    """
    along_axis1, tables = batch.along_axis1, [None] * 3
    for i in range(batch.shape[0]):
        ks = [k for k in range(3) if i == 0 or along_axis1[k]]
        g = evaluate_batch_grid(batch, vs, i, ks)
        passed = row_passes(g)
        for k in ks:
            ok = passed[PRIMITIVE_NAMES[k]]
            value, slope = _nan_unless(ok, g[1 + k], g[4 + k])
            tables[k] = _cost_table(vs, ok, value, slope) if k == 2 else dict(ok=ok, value=value, slope=slope)
        if 0 in ks or 1 in ks:
            pair = _pair_table(batch.base, vs, *tables[:2])
        yield tables[0], tables[2], pair


def _decided(cost: dict, pair: dict) -> tuple[np.ndarray, np.ndarray]:
    """What the per-row extremes of a cost and a pair table decide of the
    cells that pair their rows (row ``k`` of each, a one-row table's row
    for every cell): each cell's index into :data:`_REGIMES`, or -1 where
    they leave it open, and whether it is retained at every grid point.

    * ``max cost'/cost - min Q'/(Q-1) < -tol``: the rate difference is
      below ``-tol`` at every point, so the cell is ``NoInvestment``, as
      it is when ``min Q' > tol``;
    * ``min cost'/cost - max Q'/(Q-1) > tol``: the rate difference is
      above ``tol`` at every point, so the cell is ``MaxInvestment`` when
      ``max Q' <= tol`` and ``Indeterminate`` otherwise;
    * ``min stake - max cost/min gap >= 0``: the retention margin
      ``stake - cost/gap`` is nonnegative at every grid point.

    Each bound decides exactly as the per-point tests of
    :func:`_regime_codes` and :func:`~twinvest.model.retention_holds`:
    IEEE subtraction and division round monotonically, so the rounded
    difference or quotient of the extremes bounds the rounded one at
    every point (cost and gap are positive on a valid row).  A NaN bound,
    from a NaN value or from ``inf - inf``, fails its test and leaves the
    cell open.
    """
    with np.errstate(all="ignore"):
        falling = cost["rate_high"] - pair["rate_low"] < -DEFAULT_TOL
        rising = cost["rate_low"] - pair["rate_high"] > DEFAULT_TOL
        retained = pair["stake_low"] - cost["high"] / pair["gap_low"] >= 0.0
    dq_low, dq_high = pair["dq_low"], pair["dq_high"]
    codes = np.where(
        falling | (dq_low > DEFAULT_TOL), 0, np.where(rising, np.where(dq_high <= DEFAULT_TOL, 1, 3), -1)
    )
    return codes, retained


def _grid_passes(batch: ModelBatch, vs: np.ndarray):
    """The grid pass of :func:`solve_batch_columns`: the valid cells, their
    :class:`_GridPass` and their sign flips (indexing the valid cells), or
    None when no cell is valid.

    The batch is solved one axis-1 value at a time, from its tables
    (:func:`_tables`).  Each cell's validity is decided first, as one flag:
    the tables' ``ok``, the stakes and the viability check of
    :func:`~twinvest.model.validate` (retained at ``v = 0``), read from the
    tables' first column.  The per-row extremes of the tables decide, for
    all the cells of an axis-1 value at once (:func:`_decided`), most regime
    labels and which cells are retained at every grid point; a single
    model is a batch of one and is decided the same way.  Only the valid
    cells they leave open get the per-cell rate difference of
    :func:`_regime_codes`, or the retention margin with its flips (a cell
    whose margin holds at every point after all has none).  The rent and
    its argmax are per cell, in one step over the valid cells of an axis-1
    value, which reads slices of the tables; a one-row table's row
    broadcasts in the arithmetic (a sweep's axis 2 varies some table, so
    the step's arrays have a row per cell).
    """
    base = batch.base
    n2 = batch.shape[1]

    def cells_of(x):  # a table's entry per row as one per axis-2 value
        return x if len(x) == n2 else x.repeat(n2)

    def take(x, rows):  # a table's rows at the axis-2 values ``rows`` (ascending)
        if len(x) == 1:
            return x  # one row for every cell: it broadcasts
        return x[rows[0]:rows[-1] + 1] if rows[-1] - rows[0] == len(rows) - 1 else x[rows]

    solved, passes, flips, count = [], [], [], 0
    for i, (pi0, cost, pair) in enumerate(_tables(batch, vs)):
        codes, retained, dq_low, dq_high = map(cells_of, (*_decided(cost, pair), pair["dq_low"], pair["dq_high"]))
        at_zero = GridEval(vs[0], None, None, cost["value"][:, 0])  # validate's viability check reads v = 0
        viable = retention_holds(base, at_zero, (pair["gap"][:, 0], pair["stake"][:, 0]))
        rows = np.flatnonzero(cells_of(cost["ok"] & pair["ok"] & viable) & (base.s_high > base.s_low))
        if not len(rows):
            continue
        opened, nonneg = np.flatnonzero(~retained[rows]), None
        if len(opened):  # the rows the bounds leave open
            at = rows[opened]
            at_open = GridEval(vs, None, None, take(cost["value"], at))
            nonneg = retention_holds(base, at_open, (take(pair["gap"], at), take(pair["stake"], at)))
            held = nonneg.all(axis=1)  # retained at every point after all
            if held.any():
                opened, nonneg = opened[~held], nonneg[~held]
        p = GridEval(vs, take(pi0["value"], rows), None, take(cost["value"], rows))
        terms = take(pair["gap"], rows), take(pair["stake"], rows)
        regime = codes[rows]
        open_codes = np.flatnonzero(regime < 0)
        if len(open_codes):
            at = rows[open_codes]
            rates = take(cost["rate"], at), take(pair["rate"], at)
            regime[open_codes] = _regime_codes(*rates, dq_low[at], dq_high[at])
        grid_pass, row_flips = _grid_pass(base, p, terms, opened, nonneg, regime)
        passes.append(grid_pass)
        flips.append(row_flips._replace(cell=row_flips.cell + count))
        solved.append(i * n2 + rows)
        count += len(rows)
    if not passes:
        return None
    return np.concatenate(solved), _joined(passes), _joined(flips)


def _search(search, batch: ModelBatch, cells, formula, *columns):
    """``search`` (a search of :mod:`twinvest.optimize`) of one bracket per
    listed cell on the objective of ``formula`` there; ``columns`` are its
    arguments after the objective, an array each.

    The brackets of a shared batch (a single model) are searched one by one
    with float calls instead, which for its few brackets is cheaper than
    numpy; both give the same bits.
    """
    f = _objective(batch, cells, formula)
    if not batch.shared:
        return search(f, *columns)
    found = [search(f, *row) for row in zip(*(c.tolist() for c in columns))]
    return np.array(found).reshape(-1, 2).T


def _bisect_flips(batch: ModelBatch, vs: np.ndarray, flips: _Flips):
    """One bisection on the retention margin of every sign flip: the
    shrunken brackets' ends ``lo`` and ``hi``, and the roots, their
    midpoints."""
    if not len(flips.cell):
        return np.empty(0), np.empty(0), np.empty(0)
    lo, hi = _search(
        bisect_bracket, batch, flips.cell, retention_margin, vs[flips.i], vs[flips.i + 1], flips.lo, flips.hi
    )
    return lo, hi, 0.5 * (lo + hi)


def _refine(batch: ModelBatch, vs: np.ndarray, p: _GridPass, flips: _Flips) -> tuple:
    """Refine every valid cell of ``batch`` from its grid pass ``p`` and
    sign flips ``flips``, all cells in each search together, into the
    columns of :class:`BatchSolution` after ``cell``.  A refined point is
    feasible, and a solution binding, by :func:`~twinvest.model.retention_holds`."""
    n, size = batch.size, len(vs)
    cells = np.arange(n)

    # The feasible run around j ends beside the nearest flips on either
    # side: the last flip before j (its right point is the nearest
    # infeasible one on the left) and the first at or after j (its left
    # point is the run's last).  Each end moves to that flip's bisected end
    # on the run's side, which keeps the margin nonnegative; a run without
    # a flip on a side reaches the grid's end there.
    lo, hi, roots = _bisect_flips(batch, vs, flips)
    keys = flips.cell * size + flips.i  # ascending: np.nonzero is row-major
    k = np.searchsorted(keys, cells * size + p.j)
    # a last flip of no cell, read at k - 1 == -1 and at k == len(keys)
    cell, lo, hi = np.append(flips.cell, -1), np.append(lo, np.nan), np.append(hi, np.nan)
    a = np.where(cell[k - 1] == cells, hi[k - 1], vs[0])
    b = np.where(cell[k] == cells, lo[k], vs[-1])

    # One golden-section search of every cell's unconstrained argmax in its
    # neighbour bracket and of its feasible argmax in its run [a, b], each
    # seeded with its grid point.
    both = np.concatenate([cells, cells])
    x_j = vs[p.j]
    xs, us = _search(
        refine_max, batch, both, _rent,
        np.concatenate([vs[np.maximum(p.i_star - 1, 0)], a]),
        np.concatenate([vs[np.minimum(p.i_star + 1, size - 1)], b]),
        np.concatenate([vs[p.i_star], x_j]),
        np.concatenate([p.u_star, p.u_j]),
    )
    v_unc, v_opt, u_opt = xs[:n], xs[n:], us[n:]
    failed = ~_objective(batch, both, retention_holds)(np.concatenate([v_opt, v_unc]))
    # refinement strayed into an infeasible dip between grid points
    strayed = failed[:n]
    v_opt, u_opt = np.where(strayed, x_j, v_opt), np.where(strayed, p.u_j, u_opt)
    principal = _objective(batch, cells, principal_payoff)(v_opt)

    bounds = np.searchsorted(flips.cell, np.arange(n + 1))  # each cell's roots
    return p.regime, v_unc, v_opt, u_opt, failed[n:], principal, roots, bounds
