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

from .contracts import (
    incentive_wage,
    information_rent,
    principal_payoff,
    retention_margin,
)
from .model import (
    DEFAULT_GRID_POINTS,
    DEFAULT_TOL,
    GridEval,
    ModelBatch,
    ModelPrimitives,
    batch_validity,
    evaluate,
    evaluate_batch_grid,
    evaluate_batch_values,
    evaluate_model_grid,
)
from .optimize import bisect_bracket, refine_max


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


_REGIMES = tuple(RegimeLabel)

#: Cells per block of a batch's grid pass.  Each (cells x grid) float array
#: of a 1001-point block is then 128 KB; a whole 50x50 map at once would
#: take 20 MB per array.
_BLOCK_CELLS = 16


def _regime_codes(g: GridEval):
    """Index into :data:`_REGIMES` of the regime of one model's grid, or of
    each cell of a block (rows are cells).

    Each "everywhere" condition is decided at the grid's extremum on its
    side, which fails it exactly when some point does, NaN included (an
    extremum is NaN when a value is, and NaN fails every comparison)."""
    rate_cost, rate_sep, dq = _rates(g)
    diff = rate_cost - rate_sep  # sign of U'
    dq_low, dq_high = dq.min(axis=-1), dq.max(axis=-1)
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
    everywhere forces the no-investment label on its own.
    """
    return _REGIMES[int(_regime_codes(evaluate_model_grid(model, grid_points)))]


# ---------------------------------------------------------------------------
# Displacement threshold
# ---------------------------------------------------------------------------


def _objective(batch: ModelBatch, cells, formula):
    """``formula(model, values)`` at one investment per listed cell, as an
    objective for the refinements of :mod:`twinvest.optimize`.

    When every cell of ``batch`` is the same model (:attr:`ModelBatch.shared`)
    the objective also takes single floats, and it evaluates an array
    point by point on floats: at the few points one model refines, numpy's
    cost per call outweighs its cost per element.  Both round alike.
    """
    if batch.shared:
        def point(v):
            return formula(batch.base, evaluate_batch_values(batch, v))

        return lambda v: np.array([point(x) for x in v.tolist()]) if type(v) is np.ndarray else point(v)
    sub = batch.take(cells)
    return lambda v: formula(sub.base, evaluate_batch_values(sub, v))


def _rent(model, p):
    return information_rent(p)


def _margin_roots(model: ModelPrimitives, grid_points: int) -> tuple[bool, list[float]]:
    """Whether the retention margin is negative at ``v = 0``, and its roots:
    the solve's grid pass and bisection of the margin alone, without the
    rent refinements."""
    batch = ModelBatch.single(model)
    vs = batch.base.grid(grid_points)
    displaced_at_zero, flips = _retention_flips(model, evaluate_batch_grid(batch, vs))
    return bool(displaced_at_zero[0]), _bisect_flips(batch, vs, flips)[2].tolist()


def _threshold(displaced_at_zero: bool, roots) -> float | None:
    return 0.0 if displaced_at_zero else (roots[0] if len(roots) else None)


def deterrent_sign_change_roots(
    model: ModelPrimitives, grid_points: int = DEFAULT_GRID_POINTS
) -> list[float]:
    """All sign-change roots of the retention margin on ``(0, v_max)``.

    Diagnostic companion to :func:`displacement_threshold`, which returns
    only the smallest one; with arbitrary families the feasible set can be
    a union of intervals and every boundary is of interest.

    The roots of :func:`optimal_investment`: each grid bracket where the
    margin's sign flips, bisected to the midpoint of its shrunken bracket.
    """
    return _margin_roots(model, grid_points)[1]


def displacement_threshold(
    model: ModelPrimitives, grid_points: int = DEFAULT_GRID_POINTS
) -> float | None:
    """Smallest investment at which the retention margin crosses zero.

    Returns ``None`` when the margin stays nonnegative on the whole range
    (no displacement risk) and ``0.0`` when it is already negative at zero
    investment (the twin dominates immediately).  This is the threshold of
    :func:`optimal_investment`: its roots are found by bisection, which
    shrinks each bracket until the residual is far below 1e-10.
    """
    return _threshold(*_margin_roots(model, grid_points))


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

    The solve of :func:`solve_batch` on a batch of one; ``grid`` is the
    model's ``grid_points``-point :func:`evaluate_grid` result when the
    caller already holds it.
    """
    if grid is not None:
        grid = GridEval(grid.v, *(x[None, :] for x in grid[1:]))
    return solve_batch(ModelBatch.single(model), grid_points, grid)[0]


class _GridPass(NamedTuple):
    """What the grid pass keeps of each solved cell, O(cells) in all.

    ``i_star`` is the rent argmax and ``j`` the feasible one, inside the
    feasible run ``[jl, jr]`` of grid points.  The run's ends are refined
    from the margin's sign flips next to them (:class:`_Flips`).
    """

    regime: np.ndarray
    u_star: np.ndarray
    i_star: np.ndarray
    displaced_at_zero: np.ndarray
    feasible: np.ndarray
    j: np.ndarray
    u_j: np.ndarray
    jl: np.ndarray
    jr: np.ndarray


class _Flips(NamedTuple):
    """Sign flips of the retention margin between grid points ``i`` and
    ``i + 1`` of a solved cell, with the margin's values ``lo``/``hi`` there."""

    cell: np.ndarray
    i: np.ndarray
    lo: np.ndarray
    hi: np.ndarray


def _feasible_run(model: ModelPrimitives, g: GridEval, us: np.ndarray, i_star: np.ndarray):
    """Per cell of a block: whether any grid point is feasible, the best
    feasible point ``j`` and its rent, and the feasible run ``[jl, jr]``
    around it (see :class:`_GridPass`).

    A cell feasible at every point has its rent argmax ``i_star`` for ``j``
    and the whole grid for its run; only the other cells are searched.
    """
    n, size = us.shape
    margins = model.quality_importance * (1.0 - g.pi0 / g.pi1) - incentive_wage(g)
    j, jl, jr = i_star.copy(), np.zeros(n, dtype=int), np.full(n, size - 1)
    any_feasible = np.ones(n, dtype=bool)
    rows = np.flatnonzero(~(margins.min(axis=1) >= -DEFAULT_TOL))  # NaN is infeasible
    if len(rows):
        feasible = margins[rows] >= -DEFAULT_TOL
        infeasible = ~feasible
        j[rows] = k = np.argmax(np.where(feasible, us[rows], -np.inf), axis=1)
        # the run ends next to the nearest infeasible points on either side
        cols = np.arange(size)
        gap_left = infeasible & (cols < k[:, None])
        gap_right = infeasible & (cols > k[:, None])
        jl[rows] = np.where(gap_left.any(axis=1), size - np.argmax(gap_left[:, ::-1], axis=1), 0)
        jr[rows] = np.where(gap_right.any(axis=1), np.argmax(gap_right, axis=1) - 1, size - 1)
        any_feasible[rows] = feasible.any(axis=1)
    return any_feasible, j, us[np.arange(n), j], jl, jr


def _retention_flips(model: ModelPrimitives, g: GridEval) -> tuple[np.ndarray, _Flips]:
    """Per cell of a block of ``model``'s cells, whether the retention margin
    is negative at ``v = 0``; and the block's sign flips of the margin."""
    retention = retention_margin(model, g)
    nonneg = retention >= 0.0
    cell, i = np.nonzero(nonneg[:, :-1] != nonneg[:, 1:])
    return retention[:, 0] < 0.0, _Flips(cell, i, retention[cell, i], retention[cell, i + 1])


def _grid_pass(model: ModelPrimitives, g: GridEval) -> tuple[_GridPass, _Flips]:
    """Everything the solve needs from one block's grid (rows are cells).

    ``model`` is the batch's base; only its stakes are read, since the
    cells' own coefficients are in ``g`` already.  The helpers return only
    per-cell results, so each one's (cells x grid) temporaries are freed
    before the next starts.  Each "everywhere" test (regimes, and
    feasibility of a whole row) is decided from a row's min or max, and
    the feasible run is searched for only in rows with an infeasible point.
    """
    us = information_rent(g)
    i_star = np.argmax(us, axis=1)
    u_star = us[np.arange(len(us)), i_star]
    displaced_at_zero, flips = _retention_flips(model, g)
    return _GridPass(
        _regime_codes(g), u_star, i_star, displaced_at_zero, *_feasible_run(model, g, us, i_star)
    ), flips


def solve_batch(
    batch: ModelBatch,
    grid_points: int = DEFAULT_GRID_POINTS,
    grid: GridEval | None = None,
    skip_invalid: bool = False,
) -> list[InvestmentSolution | None]:
    """:func:`optimal_investment` of every cell of ``batch``, solved together.

    Grid-first bracketing handles non-quasiconcave objectives; the best
    bracket is then refined by golden-section.  For the constrained part the
    feasible grid points are filtered by the retention margin and the best
    one is refined inside its containing feasible interval.  Each sign flip
    of the margin is bisected once, for the roots; an interval end next to
    a flip is that bisection's end on the feasible side, so the returned
    point is feasible by construction, and an end with no flip beside it
    (its margin within ``DEFAULT_TOL`` below zero) stays at its grid point.
    Both refinements are
    :func:`~twinvest.optimize.refine_max`.  Ties break toward smaller ``v``,
    and feasibility allows a margin down to ``-DEFAULT_TOL``.

    The grid pass runs over blocks of :data:`_BLOCK_CELLS` cells, each
    evaluated once (``grid``, a one-row block, stands in for a batch of
    one).  The rent, the feasibility margins, the displacement threshold
    with every sign-change root of the margin, and the regime rates come
    from it.  Then every bisection, and after it every golden-section
    search, of all cells runs as one array search of
    :mod:`~twinvest.optimize`, which evaluates the objective once per step
    for all of them.  A single model's few brackets run one by one instead,
    through the same searches on floats.  Each cell's result is exactly the
    one it gets alone.  With
    ``skip_invalid`` each block's cells are first validated on the same
    grid (:func:`~twinvest.model.batch_validity`) and an invalid cell is
    returned as None without entering the solve.  A block whose cells all
    pass is solved on its grid as evaluated; only a block with an invalid
    cell has its valid rows copied out.
    """
    if grid is not None and batch.size != 1:
        raise ValueError(f"grid stands in for a batch of one, got {batch.size} cells")
    vs = batch.base.grid(grid_points) if grid is None else grid.v
    out: list[InvestmentSolution | None] = [None] * batch.size
    solved = _grid_passes(batch, vs, grid, skip_invalid)
    if solved is not None:
        cells, p, flips = solved
        for cell, sol in zip(cells.tolist(), _refine(batch.take(cells), vs, p, flips)):
            out[cell] = sol
    return out


def _joined(parts: list):
    """One tuple of arrays from per-block tuples of the same type."""
    return parts[0] if len(parts) == 1 else type(parts[0])(*map(np.concatenate, zip(*parts)))


def _grid_passes(batch: ModelBatch, vs: np.ndarray, grid: GridEval | None, skip_invalid: bool):
    """The grid pass of :func:`solve_batch`, block by block: the solved
    cells, their :class:`_GridPass` and their sign flips (indexing the
    solved cells), or None when no cell is solved."""
    solved, passes, flips, count = [], [], [], 0
    for start in range(0, batch.size, _BLOCK_CELLS):
        block = batch.take(np.arange(start, min(start + _BLOCK_CELLS, batch.size)))
        g = evaluate_batch_grid(block, vs) if grid is None else grid
        rows = np.arange(block.size)
        if skip_invalid:
            valid = batch_validity(block, g)
            if not valid.all():  # an all-valid block is solved as it is
                rows = np.flatnonzero(valid)
                g = GridEval(vs, *(x[rows] for x in g[1:]))
        if len(rows):
            grid_pass, block_flips = _grid_pass(batch.base, g)
            passes.append(grid_pass)
            flips.append(block_flips._replace(cell=block_flips.cell + count))
            solved.append(start + rows)
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


def _refine_columns(f, lo, hi, *candidates):
    """:func:`~twinvest.optimize.refine_max` with the candidates given as
    columns ``x, f(x), x, f(x), ...``."""
    return refine_max(f, list(zip(candidates[::2], candidates[1::2])), lo, hi)


def _refine(
    batch: ModelBatch, vs: np.ndarray, p: _GridPass, flips: _Flips
) -> list[InvestmentSolution]:
    """Refine every cell of ``batch`` from its grid pass ``p`` and sign
    flips ``flips``, all cells in each search together."""
    n, size = batch.size, len(vs)

    # An end of a feasible run [jl, jr] next to a sign flip moves to that
    # flip's bisected end on the run's side, which keeps the margin
    # nonnegative; an end with no flip beside it (its margin within
    # DEFAULT_TOL below zero) stays at its grid point.
    a, b = vs[p.jl], vs[p.jr]
    lo, hi, roots = _bisect_flips(batch, vs, flips)
    if len(flips.cell):
        keys = flips.cell * size + flips.i  # ascending: np.nonzero is row-major
        for ends, i, bisected in ((a, p.jl - 1, hi), (b, p.jr, lo)):
            key = np.arange(n) * size + i  # i = -1 or size - 1, a grid end, matches no flip
            k = np.minimum(np.searchsorted(keys, key), len(keys) - 1)
            beside = keys[k] == key
            ends[beside] = bisected[k[beside]]

    # Golden-section refinements: the unconstrained argmax of every cell in
    # its neighbour bracket, then the feasible argmax of every feasible cell
    # in its feasible interval [a, b].
    bracket = vs[np.maximum(p.i_star - 1, 0)], vs[np.minimum(p.i_star + 1, size - 1)]
    v_unc, _ = _search(_refine_columns, batch, np.arange(n), _rent, *bracket, vs[p.i_star], p.u_star)
    feas = np.flatnonzero(p.feasible)
    m = len(feas)
    twice = np.concatenate([feas, feas])
    a, b = a[feas], b[feas]
    u_ab = _objective(batch, twice, _rent)(np.concatenate([a, b]))
    x_j, u_j = vs[p.j[feas]], p.u_j[feas]
    v_opt, u_opt = _search(_refine_columns, batch, feas, _rent, a, b, x_j, u_j, a, u_ab[:m], b, u_ab[m:])
    margins = _objective(batch, twice, retention_margin)(np.concatenate([v_opt, v_unc[feas]]))
    # refinement strayed into an infeasible dip between grid points
    strayed = margins[:m] < -DEFAULT_TOL
    v_opt, u_opt = np.where(strayed, x_j, v_opt), np.where(strayed, u_j, u_opt)
    binding = margins[m:] < -DEFAULT_TOL
    principal = _objective(batch, feas, principal_payoff)(v_opt)

    optimum = dict(zip(feas.tolist(), zip(v_opt.tolist(), u_opt.tolist(), binding.tolist(), principal.tolist())))
    bounds = np.searchsorted(flips.cell, np.arange(n + 1)).tolist()  # each cell's roots
    roots = roots.tolist()
    out = []
    for c, (code, v_star, at_zero) in enumerate(
        zip(p.regime.tolist(), v_unc.tolist(), p.displaced_at_zero.tolist())
    ):
        cell_roots = tuple(roots[bounds[c]:bounds[c + 1]])
        v, u, bound, principal_at_opt = optimum.get(c, (None, None, False, None))
        out.append(InvestmentSolution(
            regime=_REGIMES[code],
            v_star_unconstrained=v_star,
            v_opt=v,
            displacement_threshold=_threshold(at_zero, cell_roots),
            deterrent_binding=bound,
            u_at_opt=u,
            principal_surplus_at_opt=principal_at_opt,
            feasible=c in optimum,
            deterrent_roots=cell_roots,
        ))
    return out


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
