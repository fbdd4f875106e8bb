import io

import numpy as np
import pytest

import twinvest.investment
import twinvest.model
from twinvest.families import ParametricFamily as F
from twinvest.fixtures import f1, f2, f3
from twinvest.investment import optimal_investment, solve_batch
from twinvest.contracts import retention_holds
from twinvest.model import ModelBatch, ModelPrimitives, evaluate_grid, validate
from twinvest.oracle import brute_force_investment
from twinvest.sweep import INVALID_LABEL, SweepAxis, SweepAxisError, regime_sweep


def f3_axes(count=10):
    return (
        SweepAxis.linspace("cost", 1, 0.5, 3.0, count),
        SweepAxis.linspace("pi0", 1, 0.1, 0.4, count),
    )


class TestRegimeSweep:
    def test_degenerate_single_cell(self):
        axis1 = SweepAxis("cost", 1, (-0.1,))
        axis2 = SweepAxis("pi0", 1, (0.3,))
        regime_map = regime_sweep(f1(), axis1, axis2)
        assert regime_map.shape == (1, 1)
        cell = regime_map.cells[0]
        assert cell.regime == "MaxInvestment"
        assert cell.v_opt == pytest.approx(1.0)

    def test_f3_template_has_multiple_regimes(self):
        axis1, axis2 = f3_axes(10)
        regime_map = regime_sweep(f3(), axis1, axis2, grid_points=301)
        assert len(regime_map.cells) == 100
        present = regime_map.regimes_present()
        assert {"NoInvestment", "MaxInvestment", "Interior"} <= present

    def test_one_grid_evaluation_per_cell(self, monkeypatch):
        # the batch evaluates each cell's grid once, for validate and the solve
        points = []
        real = twinvest.investment.evaluate_batch_grid

        def counting(batch, vs):
            points.append(batch.size * len(vs))
            return real(batch, vs)

        monkeypatch.setattr(twinvest.investment, "evaluate_batch_grid", counting)
        monkeypatch.setattr(twinvest.model, "evaluate_grid", None)  # not called at all
        axis1, axis2 = f3_axes(3)
        regime_map = regime_sweep(f3(), axis1, axis2, grid_points=101)
        assert sum(points) == len(regime_map.cells) * 101 == 9 * 101

    def test_cells_agree_with_grid_oracle(self):
        # spot-check the per-cell solver against enumeration
        axis1, axis2 = f3_axes(5)
        regime_map = regime_sweep(f3(), axis1, axis2, grid_points=301)
        for cell in regime_map.cells[::6]:
            if cell.regime == INVALID_LABEL:
                continue
            model = (
                f3()
                .with_coefficient("cost", 1, cell.param1)
                .with_coefficient("pi0", 1, cell.param2)
            )
            ov, ou = brute_force_investment(model, step=1e-4)
            assert cell.v_opt == pytest.approx(ov, abs=1e-3)
            assert cell.u_opt >= ou - 1e-9

    def test_invalid_cells_recorded_not_skipped(self):
        # pushing the pi1 level below pi0 breaks the ordering invariant
        axis1 = SweepAxis("pi1", 0, (0.1, 0.8))
        axis2 = SweepAxis("cost", 0, (0.2,))
        regime_map = regime_sweep(f3(), axis1, axis2)
        regimes = [c.regime for c in regime_map.cells]
        assert regimes[0] == INVALID_LABEL
        assert regimes[1] != INVALID_LABEL
        invalid = regime_map.cells[0]
        assert invalid.v_opt is None and invalid.u_opt is None


def power_model() -> ModelPrimitives:
    """f3 with a convex power curve for pi1, so sweeps over its exponent
    take the ``np.power`` path (and exponents below 1 make invalid cells)."""
    return ModelPrimitives(
        pi0=F.affine(0.2, 0.3),
        pi1=F.power(0.7, 0.25, 2.0),
        cost=F.exponential_decay(0.2, 1.8),
        v_max=1.0,
        s_high=2.0,
        s_low=0.0,
    )


TEMPLATES = {
    "f3-10x10": (f3, SweepAxis.linspace("cost", 1, 0.5, 3.0, 10), SweepAxis.linspace("pi0", 1, 0.1, 0.4, 10)),
    "power-gamma": (
        power_model,
        SweepAxis.linspace("pi1", 2, 0.5, 3.0, 6),
        SweepAxis.linspace("cost", 1, 0.0, 3.0, 5),
    ),
    # one block of 16 cells, the low pi1 levels below pi0 and so invalid
    "invalid-in-block": (f3, SweepAxis.linspace("pi1", 0, 0.1, 0.9, 4), SweepAxis.linspace("cost", 0, 0.1, 0.4, 4)),
    # low stakes: the retention margin changes sign inside most cells' range
    "margin-flips": (
        f2,
        SweepAxis.linspace("cost", 0, 0.12, 0.3, 6),
        SweepAxis.linspace("pi0", 1, 0.0, 0.45, 6),
    ),
    # two blocks of 16 cells, each mixing invalid cells (falling pi0), cells
    # feasible at every grid point and cells displaced inside the range
    "mixed-blocks": (
        f2,
        SweepAxis.linspace("cost", 0, 0.12, 0.3, 4),
        SweepAxis.linspace("pi0", 1, -0.1, 0.45, 8),
    ),
}


def cell_model(base, axis1, axis2, x1, x2):
    return base.with_coefficient(axis1.target, axis1.coefficient, x1).with_coefficient(
        axis2.target, axis2.coefficient, x2
    )


class TestBatchIndependence:
    """A cell's result is the one its model gets alone, whatever the batch."""

    @pytest.mark.parametrize("name", sorted(TEMPLATES))
    def test_cells_equal_single_model_solves(self, name):
        make, axis1, axis2 = TEMPLATES[name]
        base = make()
        regime_map = regime_sweep(base, axis1, axis2)
        columns = {(axis1.target, axis1.coefficient): [c.param1 for c in regime_map.cells]}
        columns[(axis2.target, axis2.coefficient)] = [c.param2 for c in regime_map.cells]
        batch = solve_batch(ModelBatch.sweep(base, columns), skip_invalid=True)
        for cell, sol in zip(regime_map.cells, batch):
            model = cell_model(base, axis1, axis2, cell.param1, cell.param2)
            if not validate(model).passed:
                assert (cell.regime, sol) == (INVALID_LABEL, None)
                continue
            alone = optimal_investment(model)
            assert sol == alone  # every field, roots included
            assert (cell.regime, cell.v_opt, cell.u_opt, cell.deterrent_binding, cell.v_star) == (
                alone.regime.value, alone.v_opt, alone.u_at_opt, alone.deterrent_binding,
                alone.displacement_threshold,
            )

    def test_templates_cover_their_cases(self):
        # each template exercises what its name says
        def cells(name):
            make, axis1, axis2 = TEMPLATES[name]
            return regime_sweep(make(), axis1, axis2).cells

        power = [c.regime for c in cells("power-gamma")]
        assert INVALID_LABEL in power and set(power) - {INVALID_LABEL}
        mixed = [c.regime for c in cells("invalid-in-block")]
        assert len(mixed) <= twinvest.investment._BLOCK_CELLS
        assert INVALID_LABEL in mixed and set(mixed) - {INVALID_LABEL}
        flips = [c.v_star for c in cells("margin-flips")]
        assert sum(v is not None and 0.0 < v < 1.0 for v in flips) >= 5

        make, axis1, axis2 = TEMPLATES["mixed-blocks"]
        kinds = []
        for cell in cells("mixed-blocks"):
            model = cell_model(make(), axis1, axis2, cell.param1, cell.param2)
            if cell.regime == INVALID_LABEL:
                kinds.append("invalid")
            else:
                feasible = retention_holds(model, evaluate_grid(model, model.grid()))
                kinds.append("feasible" if feasible.all() else "partly infeasible")
        block = twinvest.investment._BLOCK_CELLS
        assert len(kinds) == 2 * block
        for start in range(0, len(kinds), block):
            assert set(kinds[start:start + block]) == {"invalid", "feasible", "partly infeasible"}

    def test_near_tie_cell_solves_with_its_neighbours(self):
        # the middle cell's feasible run ends at a grid point whose margin
        # lies within DEFAULT_TOL below zero, with no sign flip beside it
        costs = np.array([0.2, 0.22150000000001, 0.19])
        batch = solve_batch(ModelBatch.sweep(f2(), {("cost", 0): costs}))
        for cost, sol in zip(costs.tolist(), batch):
            assert sol == optimal_investment(f2().with_coefficient("cost", 0, cost))

    def test_given_grid_only_stands_in_for_a_batch_of_one(self):
        base = f3()
        grid = twinvest.model.evaluate_batch_grid(ModelBatch.single(base), base.grid(101))
        assert solve_batch(ModelBatch.single(base), 101, grid) == [optimal_investment(base, 101)]
        batch = ModelBatch.sweep(base, {("cost", 1): [0.5, 1.0]})
        with pytest.raises(ValueError, match="batch of one"):
            solve_batch(batch, 101, grid)


class TestAxisChecks:
    def test_negative_decay_rate_names_the_axis(self):
        axis1 = SweepAxis.linspace("cost", 1, -1.0, 3.0, 5)
        axis2 = SweepAxis.linspace("pi0", 1, 0.1, 0.4, 5)
        with pytest.raises(SweepAxisError, match=r"cost\[1\].*rate must be >= 0"):
            regime_sweep(f3(), axis1, axis2)

    def test_missing_coefficient_names_the_axis(self):
        axis1 = SweepAxis.linspace("pi0", 1, 0.1, 0.4, 3)
        axis2 = SweepAxis.linspace("cost", 5, 0.5, 3.0, 3)
        with pytest.raises(ValueError, match=r"cost\[5\].*out of range"):
            regime_sweep(f3(), axis1, axis2)


class TestCsv:
    def test_header_and_shape(self):
        axis1, axis2 = f3_axes(3)
        regime_map = regime_sweep(f3(), axis1, axis2, grid_points=201)
        lines = regime_map.to_csv().splitlines()
        assert lines[0] == "param1,param2,regime,v_opt,u_opt,deterrent_binding,v_star"
        assert len(lines) == 10

    def test_deterministic_row_order(self):
        axis1, axis2 = f3_axes(3)
        a = regime_sweep(f3(), axis1, axis2, grid_points=201).to_csv()
        b = regime_sweep(f3(), axis1, axis2, grid_points=201).to_csv()
        assert a == b

    def test_numeric_fields_reparse(self):
        axis1, axis2 = f3_axes(3)
        regime_map = regime_sweep(f3(), axis1, axis2, grid_points=201)
        rows = regime_map.to_csv().splitlines()[1:]
        for cell, row in zip(regime_map.cells, rows):
            fields = row.split(",")
            assert abs(float(fields[0]) - cell.param1) < 1e-9
            if cell.v_opt is not None:
                assert abs(float(fields[3]) - cell.v_opt) < 1e-9
                assert abs(float(fields[4]) - cell.u_opt) < 1e-9


def test_axis_validation():
    with pytest.raises(ValueError, match="at least one value"):
        SweepAxis("cost", 1, ())
    with pytest.raises(ValueError, match="count"):
        SweepAxis.linspace("cost", 1, 0.0, 1.0, 0)
