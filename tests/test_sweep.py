import dataclasses
import io
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import twinvest.investment
import twinvest.model
from twinvest import cli
from twinvest.config import load_model_file
from twinvest.families import ParametricFamily as F
from twinvest.fixtures import f1, f2, f3
from twinvest.investment import InvestmentSolution, optimal_investment, solve_batch_columns
from twinvest.contracts import retention_holds
from twinvest.model import ModelBatch, ModelPrimitives, evaluate_grid, validate
from twinvest.oracle import brute_force_investment
from twinvest.report import format_number
from twinvest.sweep import CSV_HEADER, INVALID_LABEL, RegimeCell, SweepAxis, SweepAxisError, regime_sweep


def f3_axes(count=10):
    return (
        SweepAxis("cost", 1, 0.5, 3.0, count),
        SweepAxis("pi0", 1, 0.1, 0.4, count),
    )


class TestRegimeSweep:
    def test_degenerate_single_cell(self):
        axis1 = SweepAxis("cost", 1, -0.1, -0.1, 1)
        axis2 = SweepAxis("pi0", 1, 0.3, 0.3, 1)
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

    def test_one_grid_evaluation_per_axis_value(self, monkeypatch):
        # the batch evaluates each primitive's grid once per value of the
        # axis that varies it, for validate and the solve: f3's cost on
        # axis 1, pi0 on axis 2 and the constant pi1 once
        points = []
        real = twinvest.model.family_value_slope

        def counting(kind, c, v):
            points.append(math.prod(np.broadcast_shapes(np.shape(v), *map(np.shape, c))))
            return real(kind, c, v)

        monkeypatch.setattr(twinvest.model, "family_value_slope", counting)
        monkeypatch.setattr(twinvest.model, "evaluate_grid", None)  # not called at all
        axis1, axis2 = f3_axes(3)
        regime_map = regime_sweep(f3(), axis1, axis2, grid_points=101)
        assert len(regime_map.cells) == 9
        assert sum(points) == (3 + 3 + 1) * 101

    def test_one_golden_section_search_per_solve(self, monkeypatch):
        # both optima of every cell are refined in one array search
        calls = []
        real = twinvest.investment.refine_max

        def counting(f, lo, hi, x, fx):
            calls.append(len(lo))
            return real(f, lo, hi, x, fx)

        monkeypatch.setattr(twinvest.investment, "refine_max", counting)
        axis1, axis2 = f3_axes(4)
        regime_map = regime_sweep(f3(), axis1, axis2, grid_points=101)
        solved = sum(cell.regime != INVALID_LABEL for cell in regime_map.cells)
        assert solved > 1
        assert calls == [2 * solved]  # every solved cell is feasible here

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
        axis1 = SweepAxis("pi1", 0, 0.1, 0.8, 2)
        axis2 = SweepAxis("cost", 0, 0.2, 0.2, 1)
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
    "f3-10x10": (f3, SweepAxis("cost", 1, 0.5, 3.0, 10), SweepAxis("pi0", 1, 0.1, 0.4, 10)),
    "power-gamma": (
        power_model,
        SweepAxis("pi1", 2, 0.5, 3.0, 6),
        SweepAxis("cost", 1, 0.0, 3.0, 5),
    ),
    # one block per axis-1 value, the low pi1 levels below pi0 and so invalid
    "invalid-in-block": (f3, SweepAxis("cost", 0, 0.1, 0.4, 4), SweepAxis("pi1", 0, 0.1, 0.9, 4)),
    # low stakes: the retention margin changes sign inside most cells' range
    "margin-flips": (
        f2,
        SweepAxis("cost", 0, 0.12, 0.3, 6),
        SweepAxis("pi0", 1, 0.0, 0.45, 6),
    ),
    # one block per axis-1 value, each mixing invalid cells (falling pi0),
    # cells feasible at every grid point and cells displaced inside the range
    "mixed-blocks": (
        f2,
        SweepAxis("cost", 0, 0.15, 0.3, 4),
        SweepAxis("pi0", 1, -0.1, 0.45, 8),
    ),
    # both axes vary cost, so its table is built again at each axis-1 value;
    # low levels and steep falls make cells displaced or invalid
    "cost-both-axes": (
        f2,
        SweepAxis("cost", 0, 0.05, 0.3, 5),
        SweepAxis("cost", 1, -0.3, 0.0, 7),
    ),
    # each axis varies one of pi0 and pi1, so the pair table is built again
    # at each axis-1 value; a falling pi0 or a pi1 level below pi0 makes a
    # cell invalid
    "pair-both-axes": (
        f3,
        SweepAxis("pi0", 1, -0.1, 0.4, 6),
        SweepAxis("pi1", 0, 0.3, 0.9, 6),
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
        sweep = ModelBatch.sweep(base, columns)
        batch = solve_batch_columns(sweep).solutions(sweep.size)
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

        def validity(name):
            return ["invalid" if c.regime == INVALID_LABEL else "valid" for c in cells(name)]

        def rows(name, kinds):  # the kinds of each axis-1 value
            n2 = len(TEMPLATES[name][2].values)
            return [kinds[start:start + n2] for start in range(0, len(kinds), n2)]

        def blocks(name, kinds):
            # the kinds of each step of the grid pass: the cells of one
            # axis-1 value
            return [set(row) for row in rows(name, kinds)]

        power = [c.regime for c in cells("power-gamma")]
        assert INVALID_LABEL in power and set(power) - {INVALID_LABEL}
        mixed = blocks("invalid-in-block", validity("invalid-in-block"))
        assert len(mixed) > 1 and all(kinds == {"invalid", "valid"} for kinds in mixed)
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
        mixed = blocks("mixed-blocks", kinds)
        assert len(mixed) > 1 and all(k == {"invalid", "feasible", "partly infeasible"} for k in mixed)

        # the tables of what both axes vary are built at several axis-1
        # values, each with valid and invalid cells
        for name in ("cost-both-axes", "pair-both-axes"):
            assert sum(set(row) == {"invalid", "valid"} for row in rows(name, validity(name))) > 1

    def test_near_tie_cell_solves_with_its_neighbours(self):
        # the middle cell's retention margin is -2.6e-14 at the grid point 0.6
        costs = np.array([0.2, 0.22150000000001, 0.19])
        sweep = ModelBatch.sweep(f2(), {("cost", 0): costs})
        batch = solve_batch_columns(sweep).solutions(sweep.size)
        for cost, sol in zip(costs.tolist(), batch):
            assert sol == optimal_investment(f2().with_coefficient("cost", 0, cost))


def per_cell_csv(regime_map) -> str:
    """The map's CSV written cell by cell from ``RegimeMap.cells``: the
    reference for the columnar writer."""
    out = io.StringIO()
    out.write(",".join(CSV_HEADER) + "\n")
    for c in regime_map.cells:
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


def decided_cells(base, axis1, axis2):
    """What the tables decide of each cell of a template (``_decided`` on
    each slab of ``_tables``): validity, regime indices (-1 where open) and
    whether each cell is retained at every grid point, axis 1 outer."""
    columns = {
        (axis1.target, axis1.coefficient): np.array(axis1.values)[:, None],
        (axis2.target, axis2.coefficient): np.array(axis2.values),
    }
    batch = ModelBatch.sweep(base, columns)
    valid, codes, retained = [], [], []
    for _, cost, pair in twinvest.investment._tables(batch, base.grid()):
        for out, decided in zip((valid, codes, retained), twinvest.investment._decided(base, cost, pair)):
            out.extend(decided.ravel().tolist())
    return valid, codes, retained


def map_file(name: str) -> Path:
    """A model file with a ``sweep`` section: the paper's f3 map or a test map."""
    return Path(__file__).parents[1] / "configs" / name if name == "f3.json" else Path(__file__).with_name(name)


MAP_FILES = ("f3.json", "f2_binding_sweep.json", "f2_cost_both_axes_sweep.json", "f3_pair_both_axes_sweep.json")


class TestDecidedFromBounds:
    """The tables' extremes decide a cell only as its own grid does."""

    @pytest.mark.parametrize("name", sorted(TEMPLATES))
    def test_decided_cells_equal_single_model_checks(self, name):
        make, axis1, axis2 = TEMPLATES[name]
        base = make()
        decided = zip(*decided_cells(base, axis1, axis2))
        labels = list(twinvest.investment.RegimeLabel)
        params = [(x1, x2) for x1 in axis1.values for x2 in axis2.values]
        for (x1, x2), (valid, code, held) in zip(params, decided):
            model = cell_model(base, axis1, axis2, x1, x2)
            assert valid == validate(model).passed, (x1, x2)
            if not valid:
                continue
            if code >= 0:
                assert labels[code] == twinvest.investment.classify_regime(model), (x1, x2)
            if held:
                assert retention_holds(model, evaluate_grid(model, model.grid())).all(), (x1, x2)

    def test_f3_map_decides_its_end_labels(self):
        # every NoInvestment, MaxInvestment and Interior label of the
        # paper's map comes from the tables alone, the last from the rate
        # difference at the grid's ends; only the Indeterminate cells stay
        # open, and the block bounds retain every cell but the 10 whose
        # margin changes sign
        mf = load_model_file(map_file("f3.json"))
        valid, codes, retained = decided_cells(mf.model, *mf.sweep)
        regimes = [c.regime for c in regime_sweep(mf.model, *mf.sweep).cells]
        assert all(valid)
        ends = [r in ("NoInvestment", "MaxInvestment") for r in regimes]
        assert sum(ends) == 2098
        assert [code in (0, 1) for code in codes] == ends
        assert [code in (0, 1, 2) for code in codes] == [r != "Indeterminate" for r in regimes]
        assert codes.count(-1) == regimes.count("Indeterminate") == 113
        assert sum(retained) == 2490

    @pytest.mark.parametrize("block", [1001, 7])
    @pytest.mark.parametrize("name", MAP_FILES)
    def test_map_bytes_do_not_depend_on_the_block_size(self, name, block, monkeypatch):
        # a block of the whole grid is a row's extremes
        mf = load_model_file(map_file(name))
        want = regime_sweep(mf.model, *mf.sweep).to_csv()
        monkeypatch.setattr(twinvest.investment, "_BLOCK_POINTS", block)
        assert regime_sweep(mf.model, *mf.sweep).to_csv() == want


class TestF3Traffic:
    """The per-cell work of the paper's map goes only to the cells the
    tables leave open."""

    def test_only_open_cells_reach_the_per_point_tests(self, monkeypatch):
        margin_rows, regime_codes = [], []
        real_margin, real_codes = twinvest.investment.retention_margin, twinvest.investment._regime_codes

        def margin(model, p, pair=None):
            out = real_margin(model, p, pair)
            if np.ndim(p.v) == 1 and np.ndim(out) == 2:  # a margin over the whole grid
                margin_rows.append(len(out))
            return out

        def codes(*args):
            out = real_codes(*args)
            regime_codes.extend(out.tolist())
            return out

        monkeypatch.setattr(twinvest.investment, "retention_margin", margin)
        monkeypatch.setattr(twinvest.investment, "_regime_codes", codes)
        mf = load_model_file(map_file("f3.json"))
        regime_map = regime_sweep(mf.model, *mf.sweep)
        flips = np.diff(regime_map.solved.bounds) > 0  # the cells whose margin changes sign
        assert sum(margin_rows) == flips.sum() == 10
        assert regime_codes == [3] * 113

    def test_transposed_map_mirrors_every_cell(self):
        # the cost table along axis 2 and the pair table along axis 1,
        # against the other way round
        mf = load_model_file(map_file("f3.json"))
        axis1, axis2 = mf.sweep
        regime_map = regime_sweep(mf.model, axis1, axis2)
        transposed = regime_sweep(mf.model, axis2, axis1)
        n1, n2 = regime_map.shape
        for k, cell in enumerate(regime_map.cells):
            mirror = transposed.cells[(k % n2) * n1 + k // n2]
            assert (mirror.param1, mirror.param2) == (cell.param2, cell.param1)
            fields = ("regime", "v_opt", "u_opt", "deterrent_binding", "v_star")
            assert [getattr(mirror, f) for f in fields] == [getattr(cell, f) for f in fields]


#: tracemalloc peak of one sweep and its CSV (MB), about 25 % above the
#: measured 3.28, 26.79, 3.08 and 5.78 MB.
MEMORY_LIMITS_MB = {
    ("f3.json", None): 4.1,
    ("f3.json", 200): 33.5,
    ("f2_cost_both_axes_sweep.json", None): 3.9,
    ("f3_pair_both_axes_sweep.json", None): 7.2,
}


@pytest.mark.parametrize("name, count", MEMORY_LIMITS_MB)
def test_sweep_memory_stays_bounded(name, count):
    mf = load_model_file(map_file(name))
    axes = mf.sweep if count is None else [dataclasses.replace(axis, count=count) for axis in mf.sweep]
    tracemalloc.start()
    try:
        regime_sweep(mf.model, *axes).to_csv()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 1e6 <= MEMORY_LIMITS_MB[name, count]


class TestColumnarMap:
    """The map writes its CSV and its regimes from the batch's columns."""

    @pytest.mark.parametrize("name", sorted(TEMPLATES))
    def test_csv_equals_the_per_cell_writer(self, name):
        make, axis1, axis2 = TEMPLATES[name]
        regime_map = regime_sweep(make(), axis1, axis2)
        assert regime_map.to_csv() == per_cell_csv(regime_map)
        assert regime_map.regimes_present() == {c.regime for c in regime_map.cells}

    def test_sweep_command_builds_no_per_cell_object(self, count_calls, tmp_path):
        calls = count_calls(InvestmentSolution, RegimeCell)
        config = Path(__file__).parents[1] / "configs" / "f3.json"
        assert cli.main(["sweep", "--model", str(config), "--out", str(tmp_path / "map.csv")]) == 0
        assert calls == []
        # the counters see the objects that the cells of a map are built from
        assert len(regime_sweep(f3(), *f3_axes(2)).cells) == 4
        assert sorted(set(calls)) == ["InvestmentSolution", "RegimeCell"] and len(calls) == 8


class TestAxisChecks:
    def test_negative_decay_rate_names_the_axis(self):
        axis1 = SweepAxis("cost", 1, -1.0, 3.0, 5)
        axis2 = SweepAxis("pi0", 1, 0.1, 0.4, 5)
        with pytest.raises(SweepAxisError, match=r"cost\[1\].*rate must be >= 0"):
            regime_sweep(f3(), axis1, axis2)

    def test_two_axes_on_one_coefficient_name_both(self):
        axis1 = SweepAxis("cost", 1, 0.5, 3.0, 2)
        axis2 = SweepAxis("cost", 1, 1.0, 1.0, 1)
        with pytest.raises(SweepAxisError, match=r"cost\[1\] and cost\[1\]"):
            regime_sweep(f3(), axis1, axis2)

    def test_missing_coefficient_names_the_axis(self):
        axis1 = SweepAxis("pi0", 1, 0.1, 0.4, 3)
        axis2 = SweepAxis("cost", 5, 0.5, 3.0, 3)
        with pytest.raises(ValueError, match=r"cost\[5\].*out of range"):
            regime_sweep(f3(), axis1, axis2)

    @pytest.mark.parametrize("coefficient", [1.0, "1", None, np.float64(1.0)])
    def test_coefficient_that_is_not_an_integer_is_named(self, coefficient):
        # on either axis
        axis = SweepAxis("cost", coefficient, 0.5, 3.0, 3)
        label = re.escape(f"cost[{coefficient}]")
        message = rf"^sweep axis {label}: coefficient index must be an integer, got {re.escape(repr(coefficient))}$"
        with pytest.raises(SweepAxisError, match=message):
            regime_sweep(f3(), axis, SweepAxis("pi0", 1, 0.1, 0.4, 3))
        with pytest.raises(SweepAxisError, match=message):
            regime_sweep(f3(), SweepAxis("pi0", 1, 0.1, 0.4, 3), axis)

    def test_integer_like_coefficient_solves_as_an_int(self):
        axes = SweepAxis("cost", np.int64(1), 0.5, 3.0, 3), SweepAxis("pi0", np.int64(1), 0.1, 0.4, 3)
        assert regime_sweep(f3(), *axes).to_csv() == regime_sweep(f3(), *f3_axes(3)).to_csv()

    @pytest.mark.parametrize("count", [2.5, 3.0, math.inf, math.nan, "3", None])
    def test_count_that_is_not_an_integer_is_named(self, count):
        with pytest.raises(ValueError, match=rf"^axis count must be an integer, got {re.escape(repr(count))}$"):
            SweepAxis("cost", 1, 0.5, 3.0, count)

    def test_integer_like_count_is_taken_as_an_int(self):
        axis = SweepAxis("cost", 1, 0.5, 3.0, np.int64(3))
        assert axis == SweepAxis("cost", 1, 0.5, 3.0, 3) and type(axis.count) is int

    @pytest.mark.parametrize("end", ["start", "stop"])
    def test_non_finite_end_names_the_end(self, end):
        axis = dataclasses.replace(f3_axes(3)[0], **{end: math.nan})
        with pytest.raises(SweepAxisError, match=rf"^sweep axis cost\[1\]: {end} must be finite, got nan$"):
            regime_sweep(f3(), axis, f3_axes(3)[1])

    @pytest.mark.parametrize("end", ["start", "stop"])
    @pytest.mark.parametrize("value", ["0.5", None, 1 + 2j])
    def test_end_that_is_not_a_real_number_is_named(self, end, value):
        # checked before the finiteness test, which would raise a bare TypeError
        axis = dataclasses.replace(f3_axes(3)[0], **{end: value})
        message = rf"^sweep axis cost\[1\]: {end} must be a real number, got {re.escape(repr(value))}$"
        with pytest.raises(SweepAxisError, match=message):
            regime_sweep(f3(), axis, f3_axes(3)[1])
        with pytest.raises(SweepAxisError, match=message):
            regime_sweep(f3(), f3_axes(3)[1], axis)


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

    def test_f2_binding_sweep_pinned(self):
        # most cells have a displacement threshold inside the range and a
        # binding optimum, so the map's pin in golden.json pins the
        # feasible run's refined ends
        mf = load_model_file(Path(__file__).with_name("f2_binding_sweep.json"))
        regime_map = regime_sweep(mf.model, *mf.sweep)
        inside = sum(c.v_star is not None and 0.0 < c.v_star < 1.0 for c in regime_map.cells)
        binding = sum(c.deterrent_binding is True for c in regime_map.cells)
        assert (inside, binding) == (269, 265)

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
    with pytest.raises(ValueError, match="count"):
        SweepAxis("cost", 1, 0.0, 1.0, 0)
