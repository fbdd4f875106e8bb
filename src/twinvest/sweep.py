"""Two-parameter regime sweeps producing plot-ready CSV maps.

A sweep template designates two different coefficients of the base
model's families and a grid of values for each.  All grid cells are solved
in one batch (:func:`~twinvest.investment.solve_batch_columns`).  A
primitive, or the pair of pi0 and pi1, is evaluated, validated and rated
once per axis-2 value when only axis 2 varies it, once per axis-1 value
when only axis 1 does, once when neither does and once per cell when both
do.  Those tables then decide each cell's validity for the whole map at
once, and their extremes over each row, and over blocks of grid points
where the rows leave many cells open, decide most regime labels and
retention masks; only what reads both axes, and what the extremes leave
open, is computed per cell.
Each cell's result is exactly what solving that cell alone gives: it does
not depend on the batch.  Cells whose model violates the base assumptions
are recorded as ``Invalid`` rather than skipped, so the output is always a
full rectangle.  Cell order is deterministic: axis 1 outer, axis 2 inner.
The map keeps the batch's columns and writes its CSV from them; the
per-cell :attr:`RegimeMap.cells` are built only on first access.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .investment import BatchSolution, RegimeLabel, solve_batch_columns
from .model import DEFAULT_GRID_POINTS, ModelBatch, ModelPrimitives
from .report import format_rows

INVALID_LABEL = "Invalid"

_LABELS = tuple(label.value for label in RegimeLabel)

CSV_HEADER = ("param1", "param2", "regime", "v_opt", "u_opt", "deterrent_binding", "v_star")


@dataclass(frozen=True)
class SweepAxis:
    """One varying coefficient: which primitive, which slot, and ``count``
    values evenly spaced from ``start`` to ``stop`` (``start`` alone when
    ``count`` is 1)."""

    target: str  # "pi0" | "pi1" | "cost"
    coefficient: int
    start: float
    stop: float
    count: int

    def __post_init__(self):
        if not hasattr(self.count, "__index__"):
            raise ValueError(f"axis count must be an integer, got {self.count!r}")
        object.__setattr__(self, "count", operator.index(self.count))
        if self.count < 1:
            raise ValueError(f"axis count must be >= 1, got {self.count}")

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(np.linspace(self.start, self.stop, self.count).tolist())

    def label(self) -> str:
        return f"{self.target}[{self.coefficient}]"


@dataclass(frozen=True)
class RegimeCell:
    param1: float
    param2: float
    regime: str
    v_opt: float | None
    u_opt: float | None
    deterrent_binding: bool | None
    v_star: float | None


@dataclass(frozen=True, eq=False)
class RegimeMap:
    """The solved template; a cell that ``solved`` does not list is invalid."""

    axis1: SweepAxis
    axis2: SweepAxis
    solved: BatchSolution

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.axis1.values), len(self.axis2.values)

    @cached_property
    def cells(self) -> tuple[RegimeCell, ...]:
        """One :class:`RegimeCell` per cell, axis 1 outer."""
        params = itertools.product(self.axis1.values, self.axis2.values)
        return tuple(
            RegimeCell(p1, p2, INVALID_LABEL, None, None, None, None) if s is None
            else RegimeCell(p1, p2, s.regime.value, s.v_opt, s.u_at_opt, s.deterrent_binding, s.displacement_threshold)
            for (p1, p2), s in zip(params, self.solved.solutions(math.prod(self.shape)))
        )

    def regimes_present(self) -> set[str]:
        present = {_LABELS[code] for code in set(self.solved.regime.tolist())}
        return present if len(self.solved.cell) == math.prod(self.shape) else present | {INVALID_LABEL}

    def to_csv(self) -> str:
        s, size = self.solved, math.prod(self.shape)
        first, with_root = s.bounds[:-1], np.flatnonzero(s.bounds[:-1] < s.bounds[1:])
        v_star = [""] * len(s.cell)  # a cell's threshold is its first root
        for c, x in zip(with_root.tolist(), format_rows([s.roots[first[with_root]]]).splitlines()):
            v_star[c] = x
        labels = [_LABELS[c] for c in s.regime.tolist()]
        binding = ["true" if b else "false" for b in s.deterrent_binding.tolist()]
        rows = list(map(",".join, zip(labels, format_rows([s.v_opt, s.u_at_opt]).splitlines(), binding, v_star)))
        if len(rows) < size:  # an invalid cell has a label only
            rows, solved = [INVALID_LABEL + ",,,,"] * size, rows
            for c, row in zip(s.cell.tolist(), solved):
                rows[c] = row
        x1, x2 = (format_rows([np.array(axis.values)]).splitlines() for axis in (self.axis1, self.axis2))
        params = map(",".join, itertools.product(x1, x2))
        return ",".join(CSV_HEADER) + "\n" + "\n".join(map(",".join, zip(params, rows))) + "\n"


class SweepAxisError(ValueError):
    """A sweep axis value does not make a legal family of the base model."""


def _check_axis(base: ModelPrimitives, axis: SweepAxis) -> None:
    """Raise :class:`SweepAxisError` naming the axis unless its ends are
    finite real numbers, the width of its range is finite and every one of
    its values makes a legal family out of the base model's."""
    for end, x in (("start", axis.start), ("stop", axis.stop)):
        if not isinstance(x, numbers.Real):
            raise SweepAxisError(f"sweep axis {axis.label()}: {end} must be a real number, got {x!r}")
        if not math.isfinite(x):
            raise SweepAxisError(f"sweep axis {axis.label()}: {end} must be finite, got {x!r}")
    if not math.isfinite(float(axis.stop) - float(axis.start)):  # else the values would be NaN
        span = f"the range from {axis.start!r} to {axis.stop!r}"
        raise SweepAxisError(f"sweep axis {axis.label()}: {span} is wider than the largest float")
    try:
        family = base.family(axis.target)
        for x in axis.values:
            family.with_coefficient(axis.coefficient, x)
    except ValueError as exc:
        raise SweepAxisError(f"sweep axis {axis.label()}: {exc}") from None


def regime_sweep(
    base: ModelPrimitives,
    axis1: SweepAxis,
    axis2: SweepAxis,
    grid_points: int = DEFAULT_GRID_POINTS,
) -> RegimeMap:
    """Solve every cell of the two-axis template over the base model.

    Raises :class:`SweepAxisError` (a ``ValueError``) naming the axis when
    a value does not make a legal family (say a negative exponential-decay
    rate, or a coefficient index the family does not have), an end is not
    a finite real number or its range is wider than the largest float, and
    naming both when the two axes vary one coefficient.  The checks run
    before any cell is solved, since the batch takes the axis values as
    coefficient arrays without building a family per cell.
    """
    _check_axis(base, axis1)
    _check_axis(base, axis2)
    if (axis1.target, axis1.coefficient) == (axis2.target, axis2.coefficient):
        raise SweepAxisError(f"sweep axes {axis1.label()} and {axis2.label()} vary the same coefficient")
    columns = {
        (axis1.target, axis1.coefficient): np.array(axis1.values)[:, None],
        (axis2.target, axis2.coefficient): np.array(axis2.values),
    }
    return RegimeMap(axis1, axis2, solve_batch_columns(ModelBatch.sweep(base, columns), grid_points))
