"""Two-parameter regime sweeps producing plot-ready CSV maps.

A sweep template designates two coefficients of the base model's families
and a grid of values for each.  Every grid cell is solved independently;
cells whose model violates the base assumptions are recorded as
``Invalid`` rather than skipped, so the output is always a full rectangle.
Cell order is deterministic: axis 1 outer, axis 2 inner.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .investment import optimal_investment
from .model import DEFAULT_GRID_POINTS, ModelPrimitives, evaluate_model_grid, validate
from .report import format_number

INVALID_LABEL = "Invalid"

CSV_HEADER = ("param1", "param2", "regime", "v_opt", "u_opt", "deterrent_binding", "v_star")


@dataclass(frozen=True)
class SweepAxis:
    """One varying coefficient: which primitive, which slot, which values."""

    target: str  # "pi0" | "pi1" | "cost"
    coefficient: int
    values: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(x) for x in self.values))
        if not self.values:
            raise ValueError("sweep axis needs at least one value")

    @classmethod
    def linspace(
        cls, target: str, coefficient: int, start: float, stop: float, count: int
    ) -> "SweepAxis":
        if count < 1:
            raise ValueError(f"axis count must be >= 1, got {count}")
        return cls(target, coefficient, tuple(np.linspace(start, stop, int(count))))

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


def regime_sweep(
    base: ModelPrimitives,
    axis1: SweepAxis,
    axis2: SweepAxis,
    grid_points: int = DEFAULT_GRID_POINTS,
) -> RegimeMap:
    """Solve every cell of the two-axis template over the base model."""
    cells: list[RegimeCell] = []
    for x1 in axis1.values:
        model_1 = base.with_coefficient(axis1.target, axis1.coefficient, x1)
        for x2 in axis2.values:
            cell_model = model_1.with_coefficient(axis2.target, axis2.coefficient, x2)
            cells.append(_solve_cell(cell_model, x1, x2, grid_points))
    return RegimeMap(axis1, axis2, tuple(cells))


def _solve_cell(
    model: ModelPrimitives, x1: float, x2: float, grid_points: int
) -> RegimeCell:
    grid = evaluate_model_grid(model, grid_points)
    report = validate(model, grid_points, grid=grid)
    if not report.passed:
        return RegimeCell(x1, x2, INVALID_LABEL, None, None, None, None)
    sol = optimal_investment(model, grid_points, grid=grid)
    return RegimeCell(
        param1=x1,
        param2=x2,
        regime=sol.regime.value,
        v_opt=sol.v_opt,
        u_opt=sol.u_at_opt,
        deterrent_binding=sol.deterrent_binding,
        v_star=sol.displacement_threshold,
    )
