import io

import pytest

import twinvest.model
from twinvest.fixtures import f1, f3
from twinvest.oracle import brute_force_investment
from twinvest.sweep import INVALID_LABEL, SweepAxis, regime_sweep


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
        # validate and optimal_investment share the cell's grid
        calls = []
        real = twinvest.model.evaluate_grid
        monkeypatch.setattr(
            twinvest.model, "evaluate_grid", lambda *a: calls.append(1) or real(*a)
        )
        axis1, axis2 = f3_axes(3)
        regime_map = regime_sweep(f3(), axis1, axis2, grid_points=101)
        assert len(calls) == len(regime_map.cells) == 9

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
