import math
import re

import numpy as np
import pytest

from twinvest.families import ParametricFamily as F
from twinvest.families import family_formula, family_value_slope


def central_difference(family, v, h=1e-6):
    return (family.value(v + h) - family.value(v - h)) / (2.0 * h)


class TestEvaluation:
    def test_affine(self):
        fam = F.affine(0.2, 0.3)
        assert fam.value(0.0) == 0.2
        assert fam.value(1.0) == pytest.approx(0.5)
        assert fam.derivative(0.7) == 0.3
        assert fam.second_derivative(0.7) == 0.0

    def test_exponential_decay(self):
        fam = F.exponential_decay(0.2, 1.8)
        assert fam.value(0.0) == 0.2
        assert fam.value(1.0) == pytest.approx(0.2 * math.exp(-1.8))
        assert fam.derivative(0.5) == pytest.approx(-1.8 * 0.2 * math.exp(-0.9))
        assert fam.second_derivative(0.5) == pytest.approx(1.8**2 * 0.2 * math.exp(-0.9))

    def test_power(self):
        fam = F.power(0.1, 0.4, 2.5)
        assert fam.value(0.0) == 0.1
        assert fam.value(0.8) == pytest.approx(0.1 + 0.4 * 0.8**2.5)
        assert fam.derivative(0.8) == pytest.approx(0.4 * 2.5 * 0.8**1.5)

    def test_power_sqrt_derivative_unbounded_at_zero(self):
        fam = F.power(0.0, 1.0, 0.5)
        assert fam.value(0.25) == pytest.approx(0.5)
        assert fam.derivative(0.25) == pytest.approx(1.0)
        assert np.isinf(fam.derivative(0.0))

    def test_constant(self):
        fam = F.constant(0.8)
        assert fam.value(0.3) == 0.8
        assert fam.derivative(0.3) == 0.0
        out = fam.value(np.array([0.0, 0.5]))
        assert out.tolist() == [0.8, 0.8]

    def test_array_broadcast_matches_scalars(self):
        fam = F.exponential_decay(0.5, 2.0)
        vs = np.linspace(0.0, 1.0, 7)
        arr = fam.value(vs)
        assert arr == pytest.approx([fam.value(float(v)) for v in vs])

    @pytest.mark.parametrize(
        "kind,coeffs",
        [
            ("exponential-decay", (0.2, 1.8)),
            ("exponential-decay", (0.2, 0.0)),  # a slope of -0.0
            ("exponential-decay", (0.2, np.array([[0.0], [0.5], [3.0], [800.0]]))),  # to subnormal and 0
            ("exponential-decay", (np.array([[1e-300], [0.7], [1e300]]), 1.8)),
            ("exponential-decay", (np.array([[0.3], [2.0]]), np.array([[1.1], [4.0]]))),
            ("affine", (0.2, np.array([[0.3], [-0.1]]))),
            ("power", (0.7, 0.25, np.array([[0.5], [2.0]]))),
            ("constant", (np.array([[0.1], [0.9]]),)),
        ],
    )
    def test_value_slope_pair_keeps_the_bits_of_two_calls(self, kind, coeffs):
        vs = np.linspace(0.0, 1.0, 101)
        for got, derivative in zip(family_value_slope(kind, coeffs, vs), (False, True)):
            want = np.asarray(family_formula(kind, coeffs, vs, derivative))
            assert got.shape == want.shape and got.tobytes() == want.tobytes()



def closed_forms(kind, c, v):
    """Value, slope and curvature of a family, written out here in the
    arithmetic order of :mod:`twinvest.families`."""
    def filled(x):
        return np.full(v.shape, x) if isinstance(v, np.ndarray) else x

    with np.errstate(divide="ignore"):
        if kind == "affine":
            return c[0] + c[1] * v, filled(c[1]), filled(0.0)
        if kind == "exponential-decay":
            a, k = c
            return a * np.exp(-k * v), -k * a * np.exp(-k * v), k * k * a * np.exp(-k * v)
        if kind == "power":
            a, b, g = c
            curvature = filled(0.0) if g == 1.0 else b * g * (g - 1.0) * np.power(v, g - 2.0)
            return a + b * np.power(v, g), b * g * np.power(v, g - 1.0), curvature
        return filled(c[0]), filled(0.0), filled(0.0)


@pytest.mark.parametrize(
    "family",
    [
        F.affine(0.2, 0.3),
        F.affine(0.2, -0.1),
        F.exponential_decay(0.2, 0.0),  # a slope of -0.0
        F.exponential_decay(0.2, 1.8),
        *(F.power(0.1, 0.4, g) for g in (0.5, 1.0, 1.5, 2.0, 3.0)),
        F.power(0.1, -0.4, 0.5),  # slope -inf at 0
        F.constant(0.8),
    ],
    ids=repr,
)
@pytest.mark.parametrize(
    "v", [0.0, 0.37, float("nan"), np.append(np.linspace(0.0, 2.0, 9), np.nan)], ids=["zero", "float", "nan", "grid"]
)
def test_family_formulas_bit_for_bit(family, v):
    got = (family.value(v), family.derivative(v), family.second_derivative(v))
    for method, x, want in zip(("value", "derivative", "second_derivative"), got, closed_forms(family.kind, family.coefficients, v)):
        assert np.shape(x) == np.shape(v), method
        assert np.asarray(x, dtype=float).tobytes() == np.asarray(want, dtype=float).tobytes(), method

class TestConstruction:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown family kind"):
            F("cubic", (1.0, 2.0))

    @pytest.mark.parametrize(
        "kind,coeffs",
        [("affine", (1.0,)), ("constant", (1.0, 2.0)), ("power", (1.0, 2.0))],
    )
    def test_coefficient_count(self, kind, coeffs):
        with pytest.raises(ValueError, match="coefficients"):
            F(kind, coeffs)

    def test_exponential_requires_positive_scale(self):
        with pytest.raises(ValueError, match="scale"):
            F.exponential_decay(0.0, 1.0)
        with pytest.raises(ValueError, match="rate"):
            F.exponential_decay(1.0, -0.5)

    def test_power_requires_positive_exponent(self):
        with pytest.raises(ValueError, match="exponent"):
            F.power(0.0, 1.0, 0.0)

    def test_with_coefficient(self):
        fam = F.affine(0.2, 0.3).with_coefficient(1, 0.9)
        assert fam.coefficients == (0.2, 0.9)
        with pytest.raises(ValueError, match="out of range"):
            fam.with_coefficient(2, 1.0)

    @pytest.mark.parametrize("index", [1.0, "1", None, 1.5, np.float64(1.0)])
    def test_with_coefficient_names_an_index_that_is_not_an_integer(self, index):
        with pytest.raises(ValueError, match=rf"^coefficient index must be an integer, got {re.escape(repr(index))}$"):
            F.affine(0.2, 0.3).with_coefficient(index, 0.9)

    def test_with_coefficient_takes_an_integer_like_index(self):
        assert F.affine(0.2, 0.3).with_coefficient(np.int64(1), 0.9) == F.affine(0.2, 0.9)


def test_analytic_derivatives_match_central_differences():
    # 100 random points per family kind, relative error below 1e-6
    rng = np.random.default_rng(42)
    families = [
        F.affine(0.2, 0.3),
        F.exponential_decay(0.2, 1.8),
        F.power(0.1, 0.4, 2.5),
        F.power(0.0, 1.0, 0.5),
        F.constant(0.8),
    ]
    for fam in families:
        for v in rng.uniform(0.01, 1.0, size=100):
            exact = fam.derivative(float(v))
            approx = central_difference(fam, float(v))
            scale = max(1.0, abs(exact))
            assert abs(exact - approx) / scale < 1e-6, (fam.kind, v)
