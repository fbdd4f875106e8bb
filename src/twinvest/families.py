"""Closed-form scalar function families used as model primitives.

Every primitive of the contract model (outcome probabilities, effort cost,
success probability in the continuous-effort variant) is one of four
parametric families of a single variable, each with analytic first and
second derivatives:

    affine             f(v) = a + b*v                 coefficients (a, b)
    exponential-decay  f(v) = a*exp(-kappa*v)         coefficients (a, kappa)
    power              f(v) = a + b*v**gamma          coefficients (a, b, gamma)
    constant           f(v) = a                       coefficients (a,)

Closed-form derivatives keep differentiation error out of every downstream
slope comparison, so the only tolerances in the solvers are optimization
tolerances.  ``value``/``derivative``/``second_derivative`` accept floats or
numpy arrays and broadcast like ufuncs; ``value`` and ``derivative`` are
:func:`family_formula`, which also takes per-cell coefficient columns.  A
grid evaluation takes both at once from :func:`family_value_slope`.

A power family with ``gamma < 1`` has an unbounded derivative at 0; it is
legal here (the continuous-effort model evaluates it only on an interval
bounded away from 0) and model validation rejects it when the domain
includes 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

AFFINE = "affine"
EXPONENTIAL_DECAY = "exponential-decay"
POWER = "power"
CONSTANT = "constant"

FAMILY_KINDS = (AFFINE, EXPONENTIAL_DECAY, POWER, CONSTANT)

_COEFF_COUNT = {AFFINE: 2, EXPONENTIAL_DECAY: 2, POWER: 3, CONSTANT: 1}


def _const_like(v, c):
    """``c``, broadcast to the shape of ``v`` when ``v`` is an array and
    ``c`` a number that does not depend on it."""
    if isinstance(v, np.ndarray) and not isinstance(c, np.ndarray):
        return np.full(v.shape, c)
    return c


def family_formula(kind: str, c, v, derivative: bool = False):
    """Value (or first derivative) of the ``kind`` family at ``v``.

    ``c`` holds the coefficients, each a float or an array that broadcasts
    against ``v``; a batch of models passes per-cell columns here.  A
    point, a grid and a block of cells therefore all round through the
    same arithmetic, element for element.  A result that does not depend
    on ``v`` (a constant family, an affine slope) is the coefficient
    itself, filled to the shape of ``v`` when ``v`` is an array and the
    coefficient a number.
    """
    if kind == AFFINE:
        return _const_like(v, c[1]) if derivative else c[0] + c[1] * v
    if kind == EXPONENTIAL_DECAY:
        if derivative:
            return -c[1] * c[0] * np.exp(-c[1] * v)
        return c[0] * np.exp(-c[1] * v)
    if kind == POWER:
        if derivative:
            with np.errstate(divide="ignore"):
                return c[1] * c[2] * np.power(v, c[2] - 1.0)
        return c[0] + c[1] * np.power(v, c[2])
    return _const_like(v, 0.0 if derivative else c[0])


def family_value_slope(kind: str, c, v: np.ndarray):
    """:func:`family_formula` of the ``kind`` family on the grid ``v``,
    value and slope.

    An exponential decay's value ``a*exp(-kappa*v)`` and slope
    ``-kappa*a*exp(-kappa*v)`` are each a scale times ``exp(-kappa*v)``.
    The scale is the formula at ``v = 0`` (times ``exp(-0.0)``, exactly 1)
    and the exponential is the unit-scale decay (times exactly 1), so the
    two share one ``np.exp`` and keep the bits of two calls.
    """
    if kind != EXPONENTIAL_DECAY:
        return family_formula(kind, c, v), family_formula(kind, c, v, True)
    decay = family_formula(kind, (1.0, c[1]), v)
    return tuple(family_formula(kind, c, 0.0, derivative) * decay for derivative in (False, True))


@dataclass(frozen=True)
class ParametricFamily:
    """One closed-form scalar function; immutable and safe to share."""

    kind: str
    coefficients: tuple[float, ...]

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise ValueError(
                f"unknown family kind {self.kind!r}; expected one of {FAMILY_KINDS}"
            )
        coeffs = tuple(float(c) for c in self.coefficients)
        object.__setattr__(self, "coefficients", coeffs)
        expected = _COEFF_COUNT[self.kind]
        if len(coeffs) != expected:
            raise ValueError(
                f"{self.kind} family takes {expected} coefficients, got {len(coeffs)}"
            )
        if not all(np.isfinite(coeffs)):
            raise ValueError(f"family coefficients must be finite, got {coeffs}")
        if self.kind == EXPONENTIAL_DECAY:
            a, kappa = coeffs
            if a <= 0.0:
                raise ValueError(f"exponential-decay scale must be > 0, got {a}")
            if kappa < 0.0:
                raise ValueError(f"exponential-decay rate must be >= 0, got {kappa}")
        if self.kind == POWER and coeffs[2] <= 0.0:
            raise ValueError(f"power exponent must be > 0, got {coeffs[2]}")

    # -- convenience constructors -------------------------------------------------

    @classmethod
    def affine(cls, intercept: float, slope: float) -> "ParametricFamily":
        return cls(AFFINE, (intercept, slope))

    @classmethod
    def exponential_decay(cls, scale: float, rate: float) -> "ParametricFamily":
        return cls(EXPONENTIAL_DECAY, (scale, rate))

    @classmethod
    def power(cls, intercept: float, scale: float, exponent: float) -> "ParametricFamily":
        return cls(POWER, (intercept, scale, exponent))

    @classmethod
    def constant(cls, level: float) -> "ParametricFamily":
        return cls(CONSTANT, (level,))

    # -- evaluation ----------------------------------------------------------------

    def value(self, v):
        return family_formula(self.kind, self.coefficients, v)

    def derivative(self, v):
        return family_formula(self.kind, self.coefficients, v, True)

    def second_derivative(self, v):
        c = self.coefficients
        if self.kind == EXPONENTIAL_DECAY:
            return c[1] * c[1] * c[0] * np.exp(-c[1] * v)
        if self.kind == POWER:
            gamma = c[2]
            if gamma == 1.0:
                return _const_like(v, 0.0)
            with np.errstate(divide="ignore"):
                return c[1] * gamma * (gamma - 1.0) * np.power(v, gamma - 2.0)
        return _const_like(v, 0.0)

    def with_coefficient(self, index: int, value: float) -> "ParametricFamily":
        """Return a copy with one coefficient replaced (used by sweeps)."""
        if not 0 <= index < len(self.coefficients):
            raise ValueError(
                f"coefficient index {index} out of range for {self.kind} family"
            )
        coeffs = list(self.coefficients)
        coeffs[index] = float(value)
        return ParametricFamily(self.kind, tuple(coeffs))
