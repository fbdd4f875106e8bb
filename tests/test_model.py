import dataclasses
import itertools

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from twinvest.families import ParametricFamily as F
from twinvest.fixtures import f1, f2, f3, f4
from twinvest.model import (
    DEFAULT_TOL,
    DomainError,
    GridEval,
    ModelBatch,
    ModelPrimitives,
    batch_validity,
    evaluate,
    evaluate_batch_grid,
    evaluate_model_grid,
    validate,
)


class TestEvaluate:
    def test_f1_at_zero(self):
        # hand evaluation of the affine forms
        p = evaluate(f1(), 0.0)
        assert (p.pi0, p.pi1, p.cost) == pytest.approx((0.2, 0.7, 0.2))
        assert (p.dpi0, p.dpi1, p.dcost) == pytest.approx((0.3, 0.1, -0.1))

    def test_f1_at_one(self):
        p = evaluate(f1(), 1.0)
        assert (p.pi0, p.pi1, p.cost) == pytest.approx((0.5, 0.8, 0.1))

    def test_constant_families_identity(self):
        model = ModelPrimitives(
            pi0=F.constant(0.2), pi1=F.constant(0.7), cost=F.constant(0.1),
            v_max=2.0, s_high=1.0, s_low=0.0,
        )
        p = evaluate(model, 1.3)
        assert (p.pi0, p.pi1, p.cost) == (0.2, 0.7, 0.1)
        assert (p.dpi0, p.dpi1, p.dcost) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("v", [-0.01, 1.01, float("nan")])
    def test_out_of_range_investment(self, v):
        with pytest.raises(DomainError):
            evaluate(f1(), v)

    def test_v_max_must_be_positive(self):
        with pytest.raises(ValueError, match="v_max"):
            ModelPrimitives(F.constant(0.2), F.constant(0.7), F.constant(0.1),
                            v_max=0.0, s_high=1.0, s_low=0.0)


class TestValidate:
    @pytest.mark.parametrize("fixture", [f1, f2, f3, f4])
    def test_fixtures_pass(self, fixture):
        assert validate(fixture()).passed

    def test_f3_flags_vanishing_pi1_slope(self):
        report = validate(f3())
        assert report.passed
        assert any("pi1 slope vanishes" in w for w in report.warnings)

    def test_baseline_viability_failure(self):
        # hand check: 0.5 * 0.3 = 0.15 < 0.7 * 0.2 / 0.5 = 0.28
        broken = dataclasses.replace(f1(), s_high=0.5)
        report = validate(broken)
        assert not report.passed
        assert report.violation.condition == "baseline-contracting-viability"
        assert report.violation.v == 0.0

    def test_probability_ordering_failure(self):
        # pi1 crosses pi0 inside the range
        broken = dataclasses.replace(f1(), pi1=F.affine(0.25, 0.0))
        report = validate(broken)
        assert not report.passed
        assert report.violation.condition == "pi-ordering"
        assert report.violation.v is not None

    @pytest.mark.parametrize(
        "field,family,condition",
        [
            ("pi0", F.affine(0.2, -0.05), "pi0-nondecreasing"),
            ("pi1", F.affine(0.9, 0.2), "pi1-below-one"),
            ("pi0", F.affine(-0.1, 0.3), "pi0-positive"),
            ("cost", F.affine(0.05, -0.1), "cost-positive"),
            ("cost", F.affine(0.2, 0.1), "cost-nonincreasing"),
            ("pi0", F.power(0.2, 0.3, 0.5), "finite-evaluation"),
        ],
    )
    def test_each_invariant_rejected(self, field, family, condition):
        broken = dataclasses.replace(f1(), **{field: family})
        report = validate(broken)
        assert not report.passed
        assert report.violation.condition == condition

    @pytest.mark.parametrize(
        "model",
        [f1(), f3(), dataclasses.replace(f1(), s_high=0.5),
         dataclasses.replace(f1(), cost=F.affine(0.2, 0.1))],
    )
    def test_caller_grid_gives_the_same_report(self, model):
        grid = evaluate_model_grid(model, 301)
        assert validate(model, 301, grid=grid) == validate(model, 301)

    def test_stakes_ordering(self):
        broken = dataclasses.replace(f1(), s_high=0.0, s_low=0.0)
        report = validate(broken)
        assert not report.passed
        assert report.violation.condition == "stakes-ordering"

    def test_describe_mentions_condition(self):
        broken = dataclasses.replace(f1(), s_high=0.5)
        assert "baseline-contracting-viability" in validate(broken).describe()

    @pytest.mark.parametrize("field", GridEval._fields[1:])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_point_named_where_it_is(self, field, bad):
        # a single model's report, and a block of cells holding it between
        # two good rows
        model = f1()
        good = evaluate_model_grid(model, 11)
        broken = good._replace(**{field: getattr(good, field).copy()})
        getattr(broken, field)[7] = bad
        report = validate(model, 11, grid=broken)
        assert (report.violation.condition, report.violation.v) == ("finite-evaluation", good.v[7])
        assert report.violation.detail.startswith(field.lstrip("d") + " ")
        block = GridEval(good.v, *(np.stack([a, b, a]) for a, b in zip(good[1:], broken[1:])))
        batch = ModelBatch.sweep(model, {("pi0", 0): [0.2, 0.2, 0.2]})
        assert batch_validity(batch, block).tolist() == [True, False, True]

    @pytest.mark.parametrize(
        "change,expected",
        [
            (dict(pi1=F.affine(0.25, 0.0)), ("pi-ordering", 0.167)),
            (dict(pi1=F.affine(0.5, 0.0)), ("pi-ordering", 1.0)),  # a tie at v_max only
            (dict(pi1=F.affine(0.2, 0.5)), ("pi-ordering", 0.0)),  # a tie at zero only
            (dict(pi0=F.affine(0.2, -2 * DEFAULT_TOL)), ("pi0-nondecreasing", 0.0)),
            (dict(pi0=F.affine(0.2, -DEFAULT_TOL)), None),
            (dict(pi1=F.affine(0.7, -2 * DEFAULT_TOL)), ("pi1-nondecreasing", 0.0)),
            (dict(pi1=F.affine(0.7, -DEFAULT_TOL)), None),
            (dict(cost=F.affine(0.2, 2 * DEFAULT_TOL)), ("cost-nonincreasing", 0.0)),
            (dict(cost=F.affine(0.2, DEFAULT_TOL)), None),
            (dict(cost=F.affine(0.2, -0.2)), ("cost-positive", 1.0)),  # cost reaches 0
            (dict(cost=F.affine(0.2, -0.3)), ("cost-positive", 0.667)),
            (dict(pi1=F.power(0.7, 0.1, 0.5)), ("finite-evaluation", 0.0)),  # slope +inf at 0
            (dict(cost=F.power(0.2, -0.1, 0.5)), ("finite-evaluation", 0.0)),  # slope -inf at 0
            (dict(pi1=F.affine(0.9, 0.2)), ("pi1-below-one", 0.5)),
            (dict(pi1=F.affine(0.75, 0.25)), ("pi1-below-one", 1.0)),
            (dict(pi0=F.affine(0.0, 0.3)), ("pi0-positive", 0.0)),
            (dict(pi0=F.affine(-0.1, -0.3)), ("pi0-positive", 0.0)),  # the first check in order
            (dict(s_high=0.5), ("baseline-contracting-viability", 0.0)),
            (dict(s_high=0.0, s_low=0.0), ("stakes-ordering", None)),
        ],
    )
    def test_broken_model_names_condition_and_first_bad_point(self, change, expected):
        report = validate(dataclasses.replace(f1(), **change))
        found = None if report.passed else (report.violation.condition, report.violation.v)
        assert found == expected


def edge_base() -> ModelPrimitives:
    """f1 with a power curve for pi1, so a sweep over its exponent reaches
    the infinite slope at 0 of an exponent below 1."""
    return ModelPrimitives(
        pi0=F.affine(0.2, 0.3), pi1=F.power(0.7, 0.25, 1.0), cost=F.affine(0.2, -0.1),
        v_max=1.0, s_high=2.0, s_low=0.0,
    )


#: Values of the swept coefficients of :func:`edge_base` on and around the
#: edges of :func:`validate`'s checks.
EDGES = {
    # a slope exactly at -DEFAULT_TOL passes, twice that fails
    ("pi0", 1): (0.3, 0.0, -DEFAULT_TOL, -2 * DEFAULT_TOL),
    # 0.2 ties pi0 at v = 0 only; 0.25 leaves too small a gap for effort
    # to pay at v = 0; 0.75 reaches 1 at v_max
    ("pi1", 0): (0.7, 0.2, 0.25, 0.75, 0.9),
    # an exponent below 1 has an infinite slope at 0
    ("pi1", 2): (1.0, 0.5, 2.0),
    # -0.2 takes the cost to 0 at v_max; DEFAULT_TOL passes, twice fails
    ("cost", 1): (-0.1, -0.2, DEFAULT_TOL, 2 * DEFAULT_TOL),
}

EDGE_RANGES = {("pi0", 1): (-0.01, 0.5), ("pi1", 0): (0.1, 0.95), ("pi1", 2): (0.2, 3.0), ("cost", 1): (-0.3, 0.01)}


def edge_cells_agree(cells, grid_points=101):
    """Check the batch validity of ``cells`` (one value per key of
    :data:`EDGES` each) against their own reports; return the reports."""
    base = edge_base()
    batch = ModelBatch.sweep(base, {key: [cell[k] for cell in cells] for k, key in enumerate(EDGES)})
    flags = batch_validity(batch, evaluate_batch_grid(batch, base.grid(grid_points)))
    reports = []
    for cell in cells:
        model = base
        for (name, index), x in zip(EDGES, cell):
            model = model.with_coefficient(name, index, x)
        reports.append(validate(model, grid_points))
    assert flags.tolist() == [r.passed for r in reports]
    return reports


@pytest.mark.parametrize(
    "columns",
    [
        {("cost", 1): [0.0, 0.5, 1.8, 3.0], ("pi0", 1): [0.1, 0.2, 0.3, 0.4]},
        {("cost", 0): [0.1, 0.2, 0.3, 0.4]},
        {("cost", 0): [0.1, 0.2, 0.3, 0.4], ("cost", 1): [3.0, 1.8, 0.5, 0.0]},
    ],
)
def test_batch_grid_rows_are_the_cells_own_grids(columns):
    # bit for bit, sign of zero included, in every field
    base = f3()
    batch = ModelBatch.sweep(base, columns)
    block = evaluate_batch_grid(batch, base.grid(101))
    for row in range(batch.size):
        model = base
        for (name, index), values in columns.items():
            model = model.with_coefficient(name, index, values[row])
        alone = evaluate_model_grid(model, 101)
        for got, want in zip(block[1:], alone[1:]):
            assert got[row].tobytes() == want.tobytes()


class TestBatchValidity:
    """A cell passes :func:`batch_validity` exactly when its own
    :func:`validate` report passes."""

    def test_every_edge_combination(self):
        reports = edge_cells_agree(list(itertools.product(*EDGES.values())))
        conditions = {r.violation.condition for r in reports if not r.passed}
        assert conditions >= {
            "finite-evaluation", "pi1-below-one", "pi-ordering", "pi0-nondecreasing",
            "cost-positive", "cost-nonincreasing", "baseline-contracting-viability",
        }
        assert any(r.passed for r in reports)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(*(
                st.sampled_from(EDGES[key]) | st.floats(*EDGE_RANGES[key]) for key in EDGES
            )),
            min_size=1,
            max_size=40,
        )
    )
    def test_matches_validate_on_mixed_sweeps(self, cells):
        edge_cells_agree(cells)


def test_with_coefficient_roundtrip():
    model = f1().with_coefficient("cost", 0, 0.3)
    assert model.cost.coefficients == (0.3, -0.1)
    assert f1().cost.coefficients == (0.2, -0.1)
    with pytest.raises(ValueError, match="unknown primitive"):
        f1().with_coefficient("wage", 0, 0.3)
