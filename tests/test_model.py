import dataclasses

import pytest

from twinvest.families import ParametricFamily as F
from twinvest.fixtures import f1, f2, f3, f4
from twinvest.model import (
    DomainError,
    ModelPrimitives,
    evaluate,
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


def test_with_coefficient_roundtrip():
    model = f1().with_coefficient("cost", 0, 0.3)
    assert model.cost.coefficients == (0.3, -0.1)
    assert f1().cost.coefficients == (0.2, -0.1)
    with pytest.raises(ValueError, match="unknown primitive"):
        f1().with_coefficient("wage", 0, 0.3)
