"""Canonical fixtures, one per analytic regime of the solver.

f1  max-investment regime, retention never binds
f2  f1's probabilities and cost with low stakes: interior displacement threshold
f3  interior rent optimum (exponentially decaying cost against constant pi1)
f4  zero-investment regime (separability strictly rising)
f5  continuous-effort instance with a square-root success curve

Expected values quoted in the tests were computed with the brute-force
oracles before being frozen.
"""

from __future__ import annotations

from .continuous import ContinuousEffortModel
from .families import ParametricFamily as F
from .model import ModelPrimitives


def f1() -> ModelPrimitives:
    return ModelPrimitives(
        pi0=F.affine(0.2, 0.3),
        pi1=F.affine(0.7, 0.1),
        cost=F.affine(0.2, -0.1),
        v_max=1.0,
        s_high=2.0,
        s_low=0.0,
    )


def f2() -> ModelPrimitives:
    base = f1()
    return ModelPrimitives(base.pi0, base.pi1, base.cost, base.v_max, 0.85, 0.0)


def f3() -> ModelPrimitives:
    return ModelPrimitives(
        pi0=F.affine(0.2, 0.3),
        pi1=F.constant(0.8),
        cost=F.exponential_decay(0.2, 1.8),
        v_max=1.0,
        s_high=2.0,
        s_low=0.0,
    )


def f4() -> ModelPrimitives:
    return ModelPrimitives(
        pi0=F.constant(0.2),
        pi1=F.affine(0.7, 0.2),
        cost=F.affine(0.2, -0.1),
        v_max=1.0,
        s_high=2.0,
        s_low=0.0,
    )


def f5() -> ContinuousEffortModel:
    return ContinuousEffortModel(
        p=F.power(0.0, 1.0, 0.5),
        c0=0.25,
        e_min=0.04,
        e_max=1.0,
        s_high=2.0,
        s_low=0.0,
    )
