"""Seeded random generation of valid model instances.

Used by the oracle certification suite and the property tests.  Candidates
are drawn from coefficient ranges that usually satisfy the base
assumptions and are then filtered through the validators, so every
returned instance is valid by construction of the filter, not by luck.

Two extra filters keep certification comparisons meaningful:

* effort inducement is required on the whole investment range (not just at
  zero), so the two-period game and the contract oracle are well posed for
  every sampled instance;
* instances whose retention decision at ``v_max`` sits within the payment
  oracle's grid resolution of a tie are discarded, since a discretized
  oracle cannot resolve the winner there.
"""

from __future__ import annotations

import numpy as np

from .contracts import displacement_deterrent_margin_raw
from .continuous import ContinuousEffortModel, validate_continuous
from .families import ParametricFamily as F
from .model import GridEval, ModelPrimitives, evaluate_model_grid, validate

_GENERATION_LIMIT = 10_000

#: Points of the grid each candidate is validated and filtered on.
_GRID_POINTS = 201


def _pi_pair(rng: np.random.Generator) -> tuple[F, F]:
    """Draw (pi0, pi1) with room below pi1 < 1 and a healthy gap."""
    a0 = rng.uniform(0.05, 0.4)
    a1 = rng.uniform(a0 + 0.1, 0.9)

    def rise(intercept, headroom):
        kind = rng.choice(("affine", "constant", "power"))
        if kind == "constant":
            return F.constant(intercept)
        slope = rng.uniform(0.0, headroom)
        if kind == "affine":
            return F.affine(intercept, slope)
        return F.power(intercept, slope, rng.uniform(1.0, 3.0))

    return rise(a0, 0.45), rise(a1, 0.95 - a1)


def _cost_family(rng: np.random.Generator) -> F:
    c0 = rng.uniform(0.05, 0.5)
    kind = rng.choice(("affine", "exponential-decay", "power", "constant"))
    if kind == "constant":
        return F.constant(c0)
    if kind == "exponential-decay":
        return F.exponential_decay(c0, rng.uniform(0.0, 3.0))
    drop = rng.uniform(0.0, 0.9) * c0
    if kind == "affine":
        return F.affine(c0, -drop)
    return F.power(c0, -drop, rng.uniform(1.0, 3.0))


def _inducement_everywhere(model: ModelPrimitives, g: GridEval) -> bool:
    gap = g.pi1 - g.pi0
    return bool(np.all(gap * model.quality_importance >= g.pi1 * g.cost / gap))


def random_model(
    rng: np.random.Generator, min_retention_margin: float = 0.0
) -> ModelPrimitives:
    """One validated random instance (v_max fixed at 1 for grid comparability)."""
    for _ in range(_GENERATION_LIMIT):
        pi0, pi1 = _pi_pair(rng)
        s_low = rng.uniform(0.0, 0.5)
        candidate = ModelPrimitives(
            pi0=pi0,
            pi1=pi1,
            cost=_cost_family(rng),
            v_max=1.0,
            s_high=s_low + rng.uniform(0.2, 3.0),
            s_low=s_low,
        )
        grid = evaluate_model_grid(candidate, _GRID_POINTS)
        if not validate(candidate, _GRID_POINTS, grid=grid).passed:
            continue
        if not _inducement_everywhere(candidate, grid):
            continue
        if min_retention_margin > 0.0:
            margin = displacement_deterrent_margin_raw(candidate, candidate.v_max)
            if abs(margin) < min_retention_margin:
                continue
        return candidate
    raise RuntimeError("random model generation failed to find a valid instance")


def random_models(
    n: int, seed: int, min_retention_margin: float = 0.0
) -> list[ModelPrimitives]:
    rng = np.random.default_rng(seed)
    return [random_model(rng, min_retention_margin) for _ in range(n)]


def random_continuous_model(rng: np.random.Generator) -> ContinuousEffortModel:
    """One validated random continuous-effort instance."""
    for _ in range(_GENERATION_LIMIT):
        e_min = rng.uniform(0.02, 0.3)
        e_max = e_min + rng.uniform(0.2, 1.5)
        a = rng.uniform(-0.2, 0.3)
        headroom = 0.95 - a
        if headroom <= 0.05:
            continue
        if rng.random() < 0.5:
            p = F.affine(a, rng.uniform(0.05, headroom / e_max))
        else:
            p = F.power(a, rng.uniform(0.05, headroom / e_max), rng.uniform(0.3, 1.0))
        s_low = rng.uniform(0.0, 0.5)
        candidate = ContinuousEffortModel(
            p=p,
            c0=rng.uniform(0.05, 0.5),
            e_min=e_min,
            e_max=e_max,
            s_high=s_low + rng.uniform(0.2, 3.0),
            s_low=s_low,
        )
        if validate_continuous(candidate, _GRID_POINTS).passed:
            return candidate
    raise RuntimeError("random continuous model generation failed")


def random_continuous_models(n: int, seed: int) -> list[ContinuousEffortModel]:
    rng = np.random.default_rng(seed)
    return [random_continuous_model(rng) for _ in range(n)]
