"""Two-parameter regime sweeps producing plot-ready CSV maps.

A sweep template designates two different coefficients of the base
model's families and a grid of values for each.  All grid cells are solved
in one batch (:func:`~twinvest.investment.solve_batch`), one axis-1 value
at a time.  A primitive, or the pair of pi0 and pi1, is evaluated,
validated and rated once per axis-2 value when only axis 2 varies it, once
per axis-1 value when only axis 1 does, once when neither does and once
per cell when both do; only what reads both axes is computed per cell.
Each cell's result is exactly what solving that cell alone gives: it does
not depend on the batch.  Cells whose model violates the base assumptions
are recorded as ``Invalid`` rather than skipped, so the output is always a
full rectangle.  Cell order is deterministic: axis 1 outer, axis 2 inner.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .investment import solve_batch
from .model import DEFAULT_GRID_POINTS, ModelBatch, ModelPrimitives
from .report import format_number

INVALID_LABEL = "Invalid"

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
        if self.count < 1:
            raise ValueError(f"axis count must be >= 1, got {self.count}")

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(np.linspace(self.start, self.stop, int(self.count)).tolist())

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


@dataclass(frozen=True)
class RegimeMap:
    axis1: SweepAxis
    axis2: SweepAxis
    cells: tuple[RegimeCell, ...]

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.axis1.values), len(self.axis2.values)

    def regimes_present(self) -> set[str]:
        return {c.regime for c in self.cells}

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write(",".join(CSV_HEADER) + "\n")
        for c in self.cells:
            binding = "" if c.deterrent_binding is None else str(c.deterrent_binding).lower()
            row = (
                format_number(c.param1),
                format_number(c.param2),
                c.regime,
                "" if c.v_opt is None else format_number(c.v_opt),
                "" if c.u_opt is None else format_number(c.u_opt),
                binding,
                "" if c.v_star is None else format_number(c.v_star),
            )
            out.write(",".join(row) + "\n")
        return out.getvalue()


class SweepAxisError(ValueError):
    """A sweep axis value does not make a legal family of the base model."""


def _check_axis(base: ModelPrimitives, axis: SweepAxis) -> None:
    """Raise :class:`SweepAxisError` naming the axis unless every one of
    its values makes a legal family out of the base model's."""
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
    rate, or a coefficient index the family does not have), and naming
    both when the two axes vary one coefficient.  The checks run before
    any cell is solved, since the batch takes the axis values as
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
    solutions = solve_batch(ModelBatch.sweep(base, columns), grid_points)
    x1 = np.repeat(axis1.values, len(axis2.values))
    x2 = np.tile(axis2.values, len(axis1.values))
    cells = tuple(
        RegimeCell(p1, p2, INVALID_LABEL, None, None, None, None)
        if sol is None
        else RegimeCell(
            param1=p1,
            param2=p2,
            regime=sol.regime.value,
            v_opt=sol.v_opt,
            u_opt=sol.u_at_opt,
            deterrent_binding=sol.deterrent_binding,
            v_star=sol.displacement_threshold,
        )
        for p1, p2, sol in zip(x1.tolist(), x2.tolist(), solutions)
    )
    return RegimeMap(axis1, axis2, cells)
