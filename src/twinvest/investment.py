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
    margin_holds,
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
    # in place, so that a map's pair table holds fewer grids while it is built
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # pi0*pi0 underflows below ~1.5e-154
        dq = p.dpi1 * p.pi0
        dq -= p.pi1 * p.dpi0
        dq /= p.pi0 * p.pi0
        return dq / (p.pi1 / p.pi0 - 1.0), dq


_REGIMES = tuple(RegimeLabel)


def _codes(dq_low, dq_high, falling, rising, ends, open_code):
    """The label rule: each cell's index into :data:`_REGIMES`, from Q''s
    min and max over the grid, whether the rate difference cost'/cost -
    Q'/(Q-1) is below ``-tol`` (``falling``) or above ``tol`` (``rising``)
    at every point, and that difference at ``v = 0`` and ``v_max`` (the
    first and last of ``ends``).  Once both "everywhere" conditions fail,
    those ends decide ``Interior`` exactly; ``open_code`` where none holds."""
    interior = (ends[..., 0] > DEFAULT_TOL) & (ends[..., -1] < -DEFAULT_TOL)
    return np.where(
        (dq_low > DEFAULT_TOL) | falling,
        0,
        np.where(rising, np.where(dq_high <= DEFAULT_TOL, 1, 3), np.where(interior, 2, open_code)),
    )


def _regime_codes(rate_cost, rate_sep, dq_low, dq_high):
    """:func:`_codes` of the cells of an axis-1 value (rows are cells) from
    every point's rates cost'/cost and Q'/(Q-1) and Q''s min and max,
    ``Indeterminate`` where no condition holds: the cells :func:`_decided`
    leaves open, and the one row of :func:`classify_regime`.  The extremum
    of the rate difference fails an "everywhere" condition exactly when
    some point does, NaN included (NaN fails every comparison)."""
    diff = rate_cost - rate_sep  # sign of U'
    falling, rising = diff.max(axis=-1) < -DEFAULT_TOL, diff.min(axis=-1) > DEFAULT_TOL
    return _codes(dq_low, dq_high, falling, rising, diff, 3)


def classify_regime(
    model: ModelPrimitives, grid_points: int = DEFAULT_GRID_POINTS
) -> RegimeLabel:
    """Classify the unconstrained-optimum regime via the sufficient conditions.

    Ties between the two rates (within ``DEFAULT_TOL``) make neither
    strict condition hold and resolve toward
    :attr:`RegimeLabel.INDETERMINATE`.  A strictly rising separability
    everywhere forces the no-investment label on its own.  It reads the
    rates of the solve's tables and raises
    :class:`~twinvest.model.InvalidModelError` on a model whose grid fails
    a check of validate (:func:`_single_grid`).
    """
    g = _single_grid(model, grid_points)
    rate_sep, dq = _pair_rates(g)
    return _REGIMES[int(_regime_codes(_rate_cost(g), rate_sep, dq.min(axis=-1), dq.max(axis=-1))[0])]


def _single_grid(model: ModelPrimitives, grid_points: int) -> GridEval:
    """The primitives of ``model`` alone on its grid, one row each, as the
    solve's tables hold them (:func:`~twinvest.model.evaluate_batch_grid`).
    Raises :class:`~twinvest.model.InvalidModelError` unless the row passes
    the grid checks of :func:`~twinvest.model.validate` (the rates and the
    retention margin divide by the probabilities and their gap); a model
    that fails only the stakes or the viability check passes."""
    g = evaluate_batch_grid(ModelBatch.single(model), model.grid(grid_points), 0, range(3))
    if not all(row_passes(g, g.pi1 <= g.pi0).values()):
        raise InvalidModelError(validate(model, grid_points))
    return g


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
    g = _single_grid(model, grid_points)
    margin = retention_margin(model, g)
    nonneg = margin_holds(margin)
    roots = _bisect_flips(ModelBatch.single(model), g.v, _flips(margin, nonneg, np.zeros(1, np.intp)))[2]
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


def _flips(margin: np.ndarray, nonneg: np.ndarray, rows: np.ndarray) -> _Flips:
    """The sign flips of the retention ``margin`` of the cells ``rows`` (a
    row of it each), the points where its mask ``nonneg``
    (:func:`~twinvest.model.margin_holds` of it) changes."""
    cell, i = np.nonzero(nonneg[:, :-1] != nonneg[:, 1:])
    return _Flips(rows[cell], i, margin[cell, i], margin[cell, i + 1])


_NO_FLIPS = _Flips(np.empty(0, np.intp), np.empty(0, np.intp), np.empty(0), np.empty(0))


def _grid_pass(p: GridEval, pair: tuple, opened, nonneg, regime) -> _GridPass:
    """What the solve keeps of the valid cells of an axis-1 value (rows are
    cells), from their pi0 and cost on the grid ``p``, their
    :func:`~twinvest.model.pair_terms` ``pair`` and regime codes.
    ``nonneg`` is the retention mask of the rows ``opened`` (positions,
    ascending); every other row is retained at every grid point, so its
    argmax is feasible.  Only the opened rows are searched for their best
    feasible points."""
    us = information_rent(p, pair)
    rows = np.arange(len(us))
    i_star = np.argmax(us, axis=1)
    j = i_star.copy()
    if len(opened):
        j[opened] = np.argmax(np.where(nonneg, us[opened], -np.inf), axis=1)
    return _GridPass(regime, us[rows, i_star], i_star, j, us[rows, j])


def solve_batch_columns(batch: ModelBatch, grid_points: int = DEFAULT_GRID_POINTS) -> BatchSolution:
    """The solve of every cell of ``batch`` that passes :func:`~twinvest.model.validate`.

    A single model is a batch of one and takes the same route.  The grid
    pass (:func:`_grid_passes`) evaluates, validates and rates each
    primitive, and the pair of pi0 and pi1, once per value of the one axis
    that varies it (else once), for the whole batch; only a primitive or
    pair that both axes vary is built again at each axis-1 value.  The
    tables then decide every cell at once (:func:`_decided`): its validity,
    and from their extremes most regime labels and retention masks
    (:func:`~twinvest.model.retention_holds`); per cell it yields the rent
    and its argmax, and the label, or the retention mask with the margin's
    sign flips, only where the extremes leave them open.  A valid cell is
    retained at ``v = 0``, so it always has an optimum.  One bisection array
    search finds every root, from which the
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
    return BatchSolution(cells, *_refine(batch if batch.shared else batch.take(cells), vs, p, flips))


_NO_CELLS = BatchSolution(*[np.empty(0, np.intp)] * 2, *[np.empty(0)] * 6, np.zeros(1, np.intp))


def _joined(parts: list):
    """One tuple of arrays from same-type tuples, one per axis-1 value."""
    return parts[0] if len(parts) == 1 else type(parts[0])(*map(np.concatenate, zip(*parts)))


def _nan_unless(ok: np.ndarray, *arrays: np.ndarray) -> list[np.ndarray]:
    """The arrays with NaN on the rows that are not ``ok``, so that arithmetic
    on a row that failed a check of :func:`~twinvest.model.validate` raises
    no floating-point warning (NaN operands raise none)."""
    return list(arrays) if ok.all() else [np.where(ok[..., None], x, np.nan) for x in arrays]


#: Grid points per block of a table's extremes (:func:`_bounds`).
_BLOCK_POINTS = 32


def _cost_table(vs: np.ndarray, t: dict) -> dict:
    """The cost table of the cost's primitive table ``t``: its ``ok`` and
    ``value`` and the ``rate`` cost'/cost."""
    return dict(ok=t["ok"], value=t["value"], rate=_rate_cost(GridEval(vs, None, None, t["value"], dcost=t["slope"])))


def _pair_table(model: ModelPrimitives, vs: np.ndarray, t0: dict, t1: dict, ordered: np.ndarray) -> dict:
    """The pair table of the pi0 and pi1 tables and the ``pi-ordering``
    flags ``ordered`` of their rows: ``ok`` (those flags and the
    primitives' checks), the ``pi0`` values, the ``rate`` Q'/(Q-1), Q''s
    min and max over each row and the :func:`~twinvest.model.pair_terms`
    ``gap`` and ``stake`` of ``model``'s stakes."""
    ok = t0["ok"] & t1["ok"] & ordered
    x0, x1, d0, d1 = _nan_unless(ok, t0["value"], t1["value"], t0["slope"], t1["slope"])
    gap, stake = pair_terms(model, GridEval(vs, x0, x1, None))  # before the rates: the build then peaks lower
    rate, dq = _pair_rates(GridEval(vs, x0, x1, None, d0, d1))
    return dict(
        ok=ok, pi0=t0["value"], rate=rate, dq_low=dq.min(axis=-1), dq_high=dq.max(axis=-1), gap=gap, stake=stake
    )


def _tables(batch: ModelBatch, vs: np.ndarray):
    """The cost and pair tables of ``batch`` on the grid ``vs``, in slabs of
    axis-1 values: ``(values, cost, pair)``, ``values`` the slab's range.

    A table is a dict of (axis-1 rows x axis-2 rows x ...) arrays, with one
    row along an axis per value of the slab there, or one row where no
    coefficient the table reads varies along it (:attr:`ModelBatch.varies`),
    so each distinct grid is evaluated, validated and rated once.  Every
    table that at most one axis varies is built once, for the whole batch,
    which is one slab when no table varies along both axes.  Otherwise each
    axis-1 value is a slab, which reads the whole-batch tables' rows at that
    value and builds again only the tables that both axes vary.  ``ok``
    flags the rows that pass the checks of :func:`~twinvest.model.validate`
    that read them alone (the others are NaN); a primitive's table has its
    ``value`` and ``slope``.
    """
    base, n1, size = batch.base, batch.shape[0], len(vs)
    varies = (*batch.varies, tuple(a or b for a, b in zip(*batch.varies[:2])))  # pi0, pi1, cost and their pair
    both = [all(axes) for axes in varies]

    def build(tables, i):  # with i None, the tables that one axis varies at most; else those both vary, at i
        ks = [k for k in range(3) if both[k] == (i is not None)]
        g = evaluate_batch_grid(batch, vs, i, ks)
        x = {k: g[1 + k].reshape(n1 if i is None and varies[k][0] else 1, -1, size) for k in ks}
        with_pair = both[3] == (i is not None)
        if with_pair:  # pi-ordering, checked with the primitives; a table's NaN rows fail their pair anyway
            x0, x1 = (x[k] if k in x else tables[k]["value"] for k in (0, 1))
        passed = row_passes(g, x1 <= x0 if with_pair else None)
        for k in ks:
            ok = passed[PRIMITIVE_NAMES[k]].reshape(x[k].shape[:2])
            value, slope = _nan_unless(ok, x[k], g[4 + k].reshape(x[k].shape))
            tables[k] = dict(ok=ok, value=value, slope=slope)
        if with_pair:  # before the cost table: a table built holds less than one being built
            tables[3] = _pair_table(base, vs, tables[0], tables[1], passed["pair"])
        if 2 in ks:
            tables[2] = _cost_table(vs, tables[2])
        return tables

    whole = build({}, None)
    if not any(both):
        yield range(n1), whole[2], whole[3]
        return
    for i in range(n1):
        at_i = {k: {key: x[i:i + 1] if len(x) > 1 else x for key, x in t.items()} for k, t in whole.items()}
        tables = build(at_i, i)
        yield range(i, i + 1), tables[2], tables[3]


def _bounds(model: ModelPrimitives, cost: dict, pair: dict, cells: tuple | None = None) -> list[np.ndarray]:
    """Where the rate difference falls below ``-tol``, where it rises above
    ``tol`` and where the retention margin is nonnegative, at every point:
    from the extremes of each row of a slab's cost and pair tables, as
    (axis-1 x axis-2) arrays, or, given ``cells`` (axis-1 and axis-2
    positions), of each block of :data:`_BLOCK_POINTS` grid points (the
    last one ragged) of those cells, an entry per cell.  The bounds are
    ``max cost'/cost - min Q'/(Q-1) < -tol``, ``min cost'/cost - max
    Q'/(Q-1) > tol`` and :func:`~twinvest.model.retention_holds` at ``max
    cost``, ``min gap`` and ``min stake``.

    Each decides exactly as its per-point test: IEEE subtraction and
    division round monotonically, so the rounded difference or quotient of
    the extremes bounds the rounded one at each point (cost and gap are
    positive on a valid row; Moore, Kearfott & Cloud, *Introduction to
    Interval Analysis*, SIAM 2009).  A NaN bound, from a NaN value or from
    ``inf - inf``, fails; the caller silences that arithmetic's warnings.
    """

    def at(x, reduce):  # the extremes of the table array x
        if cells is None:
            return reduce.reduce(x, axis=-1)
        x = reduce.reduceat(x, np.arange(0, x.shape[-1], _BLOCK_POINTS), axis=-1)
        return x[cells[0] if len(x) > 1 else 0, cells[1] if x.shape[1] > 1 else 0]

    low, high = np.minimum, np.maximum
    worst = GridEval(None, None, None, at(cost["value"], high))
    held = [
        at(cost["rate"], high) - at(pair["rate"], low) < -DEFAULT_TOL,
        at(cost["rate"], low) - at(pair["rate"], high) > DEFAULT_TOL,
        retention_holds(model, worst, (at(pair["gap"], low), at(pair["stake"], low))),
    ]
    return held if cells is None else [h.all(axis=-1) for h in held]


def _decided(model: ModelPrimitives, cost: dict, pair: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What a slab's cost and pair tables decide of its cells, as (axis-1 x
    axis-2) arrays: validity, the index into :data:`_REGIMES` (-1 where
    left open) and retention at every grid point.

    A cell is valid when its rows are ``ok``, ``model``'s stakes are
    ordered and it is retained at ``v = 0`` (the viability check of
    :func:`~twinvest.model.validate`).  Its label is :func:`_codes` of the
    "everywhere" conditions and of the rate difference at the grid's ends.
    The conditions and retention are bounded by each row's extremes
    (:func:`_bounds`), then, for the valid cells left open when they
    outnumber the tables' rows, by each block's: a table row's block
    extremes cost about what one cell's per-point test does.
    """
    at_zero = GridEval(None, None, None, cost["value"][..., 0])
    viable = retention_holds(model, at_zero, (pair["gap"][..., 0], pair["stake"][..., 0]))
    valid = cost["ok"] & pair["ok"] & viable & (model.s_high > model.s_low)
    last = cost["rate"].shape[-1] - 1
    with np.errstate(all="ignore"):
        ends = cost["rate"][..., ::last] - pair["rate"][..., ::last]  # at v = 0 and v_max
        falling, rising, retained = _bounds(model, cost, pair)
        codes = _codes(pair["dq_low"], pair["dq_high"], falling, rising, ends, -1)
        rows = cost["ok"].size + pair["ok"].size
        if valid.size > rows:  # else the open cells cannot outnumber the rows
            cells = np.nonzero(valid & ~(retained & (codes >= 0)))
            if len(cells[0]) > rows:
                for held, on_blocks in zip((falling, rising, retained), _bounds(model, cost, pair, cells)):
                    held[cells] |= on_blocks
                codes = _codes(pair["dq_low"], pair["dq_high"], falling, rising, ends, -1)
    return valid, codes, retained


def _grid_passes(batch: ModelBatch, vs: np.ndarray):
    """The grid pass of :func:`solve_batch_columns`: the valid cells, their
    :class:`_GridPass` and their sign flips (indexing the valid cells), or
    None when no cell is valid.

    Each slab of the tables (:func:`_tables`; a single model is a slab of
    one cell) is decided in one step before any per-cell work
    (:func:`_decided`).  Then each axis-1 value takes one step over its
    valid cells, on slices of the tables (a one-row table's row broadcasts
    in the arithmetic): the rent and its argmax, and only for the cells
    left open, the retention margin with its flips (none when it holds at
    every point after all) and the per-point regime test of
    :func:`_regime_codes`.
    """
    base = batch.base
    n2 = batch.shape[1]

    def take(x, rows):  # a table's rows at the axis-2 values ``rows`` (ascending)
        if len(x) == 1:
            return x  # one row for every cell: it broadcasts
        return x[rows[0]:rows[-1] + 1] if rows[-1] - rows[0] == len(rows) - 1 else x[rows]

    solved, passes, flips, count = [], [], [], 0
    for values, cost, pair in _tables(batch, vs):
        valid, codes, retained = _decided(base, cost, pair)  # (axis-1 x axis-2) of the slab
        for k, i in enumerate(values):
            rows = np.flatnonzero(valid[k])
            if not len(rows):
                continue

            def at(x):  # a table's rows at axis-1 value i
                return x[k if len(x) > 1 else 0]

            value, gap, stake = at(cost["value"]), at(pair["gap"]), at(pair["stake"])
            opened, nonneg, row_flips = np.flatnonzero(~retained[k, rows]), None, _NO_FLIPS
            if len(opened):  # the rows the bounds leave open
                cells = rows[opened]
                margin = retention_margin(
                    base, GridEval(vs, None, None, take(value, cells)), (take(gap, cells), take(stake, cells))
                )
                nonneg = margin_holds(margin)
                held = nonneg.all(axis=1)  # retained at every point after all
                if held.any():
                    opened, nonneg, margin = opened[~held], nonneg[~held], margin[~held]
                row_flips = _flips(margin, nonneg, opened)
                del margin  # not held through the rent pass
            p = GridEval(vs, take(at(pair["pi0"]), rows), None, take(value, rows))
            regime = codes[k, rows]
            open_codes = np.flatnonzero(regime < 0)
            if len(open_codes):
                cells = rows[open_codes]
                rates = take(at(cost["rate"]), cells), take(at(pair["rate"]), cells)
                dq = take(at(pair["dq_low"]), cells), take(at(pair["dq_high"]), cells)
                regime[open_codes] = _regime_codes(*rates, *dq)
            passes.append(_grid_pass(p, (take(gap, rows), take(stake, rows)), opened, nonneg, regime))
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
