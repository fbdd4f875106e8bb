import dataclasses
import itertools
import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import twinvest.investment
from twinvest.families import ParametricFamily as F
from twinvest.fixtures import f1, f2, f3, f4
from twinvest.model import (
    DEFAULT_TOL,
    DomainError,
    GridEval,
    ModelBatch,
    ModelPrimitives,
    batch_formula,
    evaluate,
    evaluate_batch_grid,
    evaluate_grid,
    retention_holds,
    retention_margin,
    ValidationReport,
    Violation,
    row_passes,
    validate,
)
from twinvest.contracts import principal_payoff
from twinvest.optimize import golden_section_max
from twinvest.sampling import random_models
from twinvest.continuous import principal_optimal_effort, validate_continuous
from twinvest.fixtures import f5
from twinvest.investment import optimal_investment, solve_batch_columns
from twinvest.sweep import SweepAxis, regime_sweep


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

    @pytest.mark.parametrize("v", [10**400, -(10**400)], ids=["plus", "minus"])
    def test_integer_too_large_for_a_float_is_named(self, v):
        # float() of a 401-digit int raises OverflowError; the message names
        # the range and leaves the digits out
        with pytest.raises(DomainError) as raised:
            evaluate(f1(), v)
        assert str(raised.value) == "investment too large for a float, outside [0, 1.0]"

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
        grid = evaluate_grid(model, model.grid(301))
        assert validate(model, 301, grid=grid) == validate(model, 301)

    def test_stakes_ordering(self):
        broken = dataclasses.replace(f1(), s_high=0.0, s_low=0.0)
        report = validate(broken)
        assert not report.passed
        assert report.violation.condition == "stakes-ordering"

    def test_stakes_ordering_reported_before_the_grid_is_built(self):
        # a one-point grid raises DomainError, were it built
        report = validate(dataclasses.replace(f1(), s_high=0.0, s_low=0.0), 1)
        assert report == ValidationReport(False, Violation("stakes-ordering", None, "s_high=0 must exceed s_low=0"), (), 1)

    def test_reports_word_for_word(self):
        # hand check: 0.5 * 0.5 = 0.25 < 0.7 * 0.2 / 0.5 = 0.28
        assert validate(dataclasses.replace(f1(), s_high=0.5)).describe() == (
            "invalid: baseline-contracting-viability at 0: "
            "effort gain 0.25 below expected wage 0.28 at zero investment"
        )
        assert validate(f3(), 11).describe() == (
            "valid (checked on 11-point grid)\n"
            "warning: pi1 slope vanishes on part of the range; slope-based results "
            "that assume a strictly increasing pi1 degenerate there"
        )
        assert validate(dataclasses.replace(f1(), cost=F.affine(0.2, -0.3)), 4).describe() == (
            "invalid: cost-positive at 1: effort cost must stay strictly positive"
        )

    def test_describe_mentions_condition(self):
        broken = dataclasses.replace(f1(), s_high=0.5)
        assert "baseline-contracting-viability" in validate(broken).describe()

    @pytest.mark.parametrize("field", GridEval._fields[1:])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_point_named_where_it_is(self, field, bad, monkeypatch):
        # a single model's report, and its solve when the grid pass reads
        # the broken row between two good ones
        model = f1()
        good = evaluate_grid(model, model.grid(11))
        broken = good._replace(**{field: getattr(good, field).copy()})
        getattr(broken, field)[7] = bad
        report = validate(model, 11, grid=broken)
        assert (report.violation.condition, report.violation.v) == ("finite-evaluation", good.v[7])
        assert report.violation.detail.startswith(field.lstrip("d") + " ")
        single, flags = ModelBatch.single(model), []
        for grid in (good, broken, good):
            rows = GridEval(grid.v, *(x[None] for x in grid[1:]))
            monkeypatch.setattr(twinvest.investment, "evaluate_batch_grid", lambda *args, rows=rows: rows)
            flags.append(solve_batch_columns(single, 11).solutions(1) != [None])
        assert flags == [True, False, True]

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



@pytest.mark.parametrize("grid_points", [2.5, 11.0, float("nan"), "11"])
@pytest.mark.parametrize(
    "solve",
    [
        lambda n: validate(f1(), n),
        lambda n: optimal_investment(f1(), n),
        lambda n: regime_sweep(f1(), SweepAxis("cost", 1, -0.1, -0.05, 2), SweepAxis("pi0", 1, 0.1, 0.3, 2), n),
        lambda n: validate_continuous(f5(), n),
        lambda n: principal_optimal_effort(f5(), n),
    ],
    ids=["validate", "optimal_investment", "regime_sweep", "validate_continuous", "principal_optimal_effort"],
)
def test_grid_points_must_be_an_integer(solve, grid_points):
    # a float, even a whole one, is refused rather than truncated
    with pytest.raises(DomainError, match="grid needs at least 2 points"):
        solve(grid_points)

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
    flags = [sol is not None for sol in solve_batch_columns(batch, grid_points).solutions(batch.size)]
    reports = []
    for cell in cells:
        model = base
        for (name, index), x in zip(EDGES, cell):
            model = model.with_coefficient(name, index, x)
        reports.append(validate(model, grid_points))
    assert flags == [r.passed for r in reports]
    return reports


@pytest.mark.parametrize(
    "columns",
    [
        # 1xn batches: one entry per axis-2 value
        {("cost", 1): [0.0, 0.5, 1.8, 3.0], ("pi0", 1): [0.1, 0.2, 0.3, 0.4]},
        {("cost", 0): [0.1, 0.2, 0.3, 0.4]},
        {("cost", 0): [0.1, 0.2, 0.3, 0.4], ("cost", 1): [3.0, 1.8, 0.5, 0.0]},
        # 3x4 batches: one coefficient per axis, and cost with one on each
        {("cost", 1): [[0.0], [0.5], [3.0]], ("pi0", 1): [0.1, 0.2, 0.3, 0.4]},
        {("cost", 0): [[0.1], [0.2], [0.3]], ("cost", 1): [3.0, 1.8, 0.5, 0.0]},
    ],
)
def test_batch_grid_rows_are_the_cells_own_grids(columns):
    # bit for bit, sign of zero included, in every field
    base = f3()
    batch = ModelBatch.sweep(base, columns)
    n1, n2 = batch.shape
    for i in range(n1):
        rows = evaluate_batch_grid(batch, base.grid(101), i, range(3))
        assert all(len(x) in (1, n2) for x in rows[1:])
        for j in range(n2):
            model = base
            for (name, index), values in columns.items():
                model = model.with_coefficient(name, index, np.broadcast_to(values, batch.shape)[i, j])
            alone = evaluate_grid(model, model.grid(101))
            for got, want in zip(cell_grid(rows, j), alone[1:]):
                assert got.tobytes() == want.tobytes()


def cell_grid(rows, j):
    """The grids of the cell at axis-2 value ``j`` in an
    :func:`evaluate_batch_grid` result: its row of each field, or the one."""
    return [x[j if len(x) > 1 else 0] for x in rows[1:]]


ROUTE_MODELS = {
    # every family kind: a falling affine, decays with kappa > 0 and kappa = 0
    # (slope -0.0), power with gamma = 1, 2.5 and 0.5 (slope inf at 0), constant
    "affine-exp-linear": ModelPrimitives(
        pi0=F.affine(0.3, -0.1), pi1=F.exponential_decay(0.8, 0.5), cost=F.power(0.2, -0.1, 1.0),
        v_max=1.5, s_high=1.0, s_low=0.0,
    ),
    "flat-exp-power-constant": ModelPrimitives(
        pi0=F.exponential_decay(0.2, 0.0), pi1=F.power(0.5, 0.3, 2.5), cost=F.constant(0.1),
        v_max=1.0, s_high=1.0, s_low=0.0,
    ),
    "root-power": ModelPrimitives(
        pi0=F.constant(0.2), pi1=F.power(0.3, 0.2, 0.5), cost=F.exponential_decay(0.4, 1.3),
        v_max=2.0, s_high=1.0, s_low=0.0,
    ),
}


@pytest.mark.parametrize("model", ROUTE_MODELS.values(), ids=ROUTE_MODELS)
def test_every_evaluation_route_gives_the_same_bits(model):
    # compared as bytes, so the sign of zero counts
    vs = model.grid(41)
    want = evaluate_grid(model, vs)
    points = [evaluate(model, v) for v in vs]
    assert all(type(x) is float for p in points for x in p)
    single = ModelBatch.single(model)
    scale = model.pi1.coefficients[0]
    sweep = ModelBatch.sweep(model, {("pi1", 0): [0.5 * scale, scale, 1.5 * scale]})
    values_at = batch_formula(single, lambda model, p: p)
    values = values_at(vs)
    assert values[4:] == (None, None, None)
    routes = {
        "evaluate": np.array(points).T,
        "single block": [vs] + cell_grid(evaluate_batch_grid(single, vs, 0, range(3)), 0),
        "sweep block": [vs] + cell_grid(evaluate_batch_grid(sweep, vs, 0, range(3)), 1),
        "batch values": values[:4],
        "batch values per point": np.array([values_at(v)[:4] for v in vs]).T,
    }
    for route, fields in routes.items():
        for field, got in zip(GridEval._fields, fields):
            assert np.asarray(got).tobytes() == getattr(want, field).tobytes(), (route, field)


SEARCH_OBJECTIVES = {
    "rent": twinvest.investment._rent,
    "retention_margin": retention_margin,
    "retention_holds": retention_holds,
    "principal_payoff": principal_payoff,
}


def probed_points(model: ModelPrimitives) -> list[float]:
    """Floats in ``[0, v_max]``: a grid with both ends, and the probes of two
    golden-section searches of the rent, over the range and one grid cell."""
    rent = batch_formula(ModelBatch.single(model), twinvest.investment._rent)
    vs = model.grid(101).tolist()
    probes = []

    def recording(v):
        probes.append(v)
        return rent(v)

    golden_section_max(recording, 0.0, model.v_max)
    golden_section_max(recording, vs[1], vs[2])
    return vs + probes


@pytest.mark.parametrize("name", SEARCH_OBJECTIVES)
def test_search_objectives_float_route_gives_the_array_bits(name):
    # a float point, compared as bytes with the same point of an array, so
    # the sign of zero counts
    for model in [*ROUTE_MODELS.values(), *random_models(50, 3), *random_models(50, 11)]:
        at = batch_formula(ModelBatch.single(model), SEARCH_OBJECTIVES[name])
        vs = probed_points(model)
        assert all(type(v) is float for v in vs)
        got, want = np.array([at(v) for v in vs]), np.asarray(at(np.array(vs)))
        assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes()), model


@pytest.mark.parametrize("model", ROUTE_MODELS.values(), ids=ROUTE_MODELS)
def test_search_objective_outside_the_domain_raises_check_domains_error(model):
    at = batch_formula(ModelBatch.single(model), twinvest.investment._rent)
    for v in (-0.01, model.v_max + 0.01, math.nan):
        with pytest.raises(DomainError) as raised:
            at(v)
        assert str(raised.value) == f"investment {v} outside [0, {model.v_max}]"


class TestBatchValidity:
    """A cell of a batch is solved (:func:`~twinvest.investment.solve_batch_columns`)
    exactly when its own :func:`validate` report passes."""

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



#: Values a drawn validation grid mixes in: the non-finite ones, the
#: probability bounds, slopes exactly at the tolerance and a subnormal.
SPECIAL_VALUES = (float("nan"), float("inf"), float("-inf"), 0.0, 1.0, DEFAULT_TOL, -DEFAULT_TOL, 1e-311)

#: Ranges of the finite values of each field of a drawn grid, wide enough
#: to fail each check and narrow enough that whole grids also pass;
#: subnormal values included.
FIELD_RANGES = {
    "pi0": (0.0, 0.5), "pi1": (0.5, 1.0), "cost": (0.0, 0.3),
    "dpi0": (-0.01, 0.5), "dpi1": (-0.01, 0.5), "dcost": (-0.5, 0.01),
}


@st.composite
def validation_grids(draw):
    """A (rows x points) :class:`GridEval` of 1-4 rows on f1's grid: values
    from :data:`FIELD_RANGES`, with up to four points set to one of
    :data:`SPECIAL_VALUES` or to a tie of pi1 with pi0."""
    rows, n = draw(st.integers(1, 4)), draw(st.integers(2, 5))
    fields = {}
    for field, (lo, hi) in FIELD_RANGES.items():
        values = draw(st.lists(st.floats(lo, hi), min_size=rows * n, max_size=rows * n))
        fields[field] = np.array(values).reshape(rows, n)
    edit = st.tuples(
        st.sampled_from([*FIELD_RANGES, "tie"]), st.integers(0, rows - 1), st.integers(0, n - 1),
        st.sampled_from(SPECIAL_VALUES),
    )
    for field, row, i, x in draw(st.lists(edit, max_size=4)):
        if field == "tie":
            fields["pi1"][row, i] = fields["pi0"][row, i]
        else:
            fields[field][row, i] = x
    return GridEval(f1().grid(n), **fields)


def finite(p, name):
    return math.isfinite(p[name]) and math.isfinite(p["d" + name])


#: The grid checks of :func:`validate` in its documented order, as
#: ``(condition, table, fails)``; ``fails`` tests one point, a dict of floats.
POINT_CHECKS = (
    ("finite-evaluation", "pi0", lambda p: not finite(p, "pi0")),
    ("finite-evaluation", "pi1", lambda p: not finite(p, "pi1")),
    ("finite-evaluation", "cost", lambda p: not finite(p, "cost")),
    ("pi0-positive", "pi0", lambda p: not np.finfo(float).tiny <= p["pi0"]),
    ("pi1-below-one", "pi1", lambda p: not p["pi1"] < 1.0),
    ("pi-ordering", "pair", lambda p: not p["pi0"] < p["pi1"]),
    ("pi0-nondecreasing", "pi0", lambda p: not p["dpi0"] >= -DEFAULT_TOL),
    ("pi1-nondecreasing", "pi1", lambda p: not p["dpi1"] >= -DEFAULT_TOL),
    ("cost-positive", "cost", lambda p: not p["cost"] > 0.0),
    ("cost-nonincreasing", "cost", lambda p: not p["dcost"] <= DEFAULT_TOL),
)


def reference_report(model, points):
    """``(condition, v)`` of the first violation of a one-row grid's
    ``points`` (dicts of floats), walking :data:`POINT_CHECKS` point by
    point and then the viability at ``v = 0``; ``(None, None)`` when it
    passes."""
    for condition, _, fails in POINT_CHECKS:
        for p in points:
            if fails(p):
                return condition, p["v"]
    p = points[0]
    stake = model.quality_importance * (1.0 - 1.0 / (p["pi1"] / p["pi0"]))
    if not stake - p["cost"] / (p["pi1"] - p["pi0"]) >= 0.0:
        return "baseline-contracting-viability", 0.0
    return None, None


@settings(max_examples=300, deadline=None)
@given(validation_grids())
def test_validation_matches_a_per_point_reference(g):
    model, tables = f1(), ("pi0", "pi1", "cost", "pair")
    passed = row_passes(g, g.pi1 <= g.pi0)
    passed["pair"] = passed["pair"] & passed["pi0"] & passed["pi1"]
    for row in range(len(g.pi0)):
        one = GridEval(g.v, *(x[row] for x in g[1:]))
        points = [dict(zip(GridEval._fields, p)) for p in zip(*(x.tolist() for x in one))]
        report = validate(model, len(g.v), grid=one)
        found = (None, None) if report.passed else (report.violation.condition, report.violation.v)
        assert found == reference_report(model, points)
        if report.passed:
            assert bool(report.warnings) == any(abs(p["dpi1"]) <= DEFAULT_TOL for p in points)
        ok = {t: not any(fails(p) for _, table, fails in POINT_CHECKS if table == t for p in points) for t in tables}
        ok["pair"] = ok["pair"] and ok["pi0"] and ok["pi1"]
        assert {t: bool(passed[t][row]) for t in tables} == ok

def test_with_coefficient_roundtrip():
    model = f1().with_coefficient("cost", 0, 0.3)
    assert model.cost.coefficients == (0.3, -0.1)
    assert f1().cost.coefficients == (0.2, -0.1)
    with pytest.raises(ValueError, match="unknown primitive"):
        f1().with_coefficient("wage", 0, 0.3)


def test_with_coefficient_names_an_index_that_is_not_an_integer():
    with pytest.raises(ValueError, match=r"^coefficient index must be an integer, got 1\.0$"):
        f1().with_coefficient("cost", 1.0, 0.3)
