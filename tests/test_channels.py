"""The abstract's two investment channels, each on its own, against their
closed forms.

Training may lower the cost of the human's effort, raise the probability
of success, or both.  Freeze one channel at its ``v = 0`` value and the
agent's rent ``U = cost/(Q - 1)``, with ``Q = pi1/pi0``, has a slope of
known sign:

* **Cost only** (pi0 and pi1 constant): ``U' = cost'/(Q - 1) <= 0`` for a
  nonincreasing cost.  The strategic agent refuses every pure effort
  saving, so ``v_star_unconstrained == v_opt == 0.0`` and the deterrent
  does not bind.  The retention margin cannot fall, so the myopic agent,
  retained at ``v = 0``, is never displaced.
* **Probability only** (cost constant): ``sign U' = -sign Q'``.  When
  ``|Q'| > DEFAULT_TOL`` at every grid point, with one sign, the
  unconstrained optimum is the end that ``-sign Q'`` names: exactly
  ``0.0`` where ``Q`` rises and ``v_max`` where it falls.  With a small
  ``|Q'|`` (below about 1e-5) ``U`` can be flat to its last bits near
  that end, and the golden-section search then stops where rounding puts
  the maximum: 4.3e-5 away on an affine pair with slopes 1e-12 (a search
  on the sign of the slope would find the end itself).  Such a ``v*``
  must have the end's rent up to rounding.  The fixtures and the seeded
  random models have no such case.

Models whose ``Q'`` vanishes only at ``v = 0`` (a power family with an
exponent above 1) fail the strict condition and are left out: the tie at
that end point leaves the solver's ``v*`` up to about 6e-5 away from it.
"""

import dataclasses

import numpy as np
import pytest
from conftest import affine_models
from hypothesis import HealthCheck, assume, event, given, settings

from twinvest.contracts import agent_surplus
from twinvest.dynamics import AgentKind, simulate_two_period
from twinvest.families import ParametricFamily as F
from twinvest.fixtures import f1, f2, f3, f4
from twinvest.investment import optimal_investment
from twinvest.model import DEFAULT_TOL, evaluate_grid, validate
from twinvest.sampling import random_models


def frozen(model, *names):
    """``model`` with the primitives ``names`` held at their ``v = 0`` values."""
    return dataclasses.replace(model, **{n: F.constant(float(model.family(n).value(0.0))) for n in names})


def cost_only(model):
    """``model`` with only its cost channel left, or None when that model
    is invalid or its cost rises anywhere on the grid."""
    m = frozen(model, "pi0", "pi1")
    g = evaluate_grid(m, m.grid())
    return m if validate(m).passed and np.all(g.dcost <= 0.0) else None


def probability_only(model):
    """``model`` with only its probability channel left, and the sign of
    ``Q'``; None when that model is invalid or ``|Q'| > DEFAULT_TOL`` fails
    at a grid point, or its sign changes."""
    m = frozen(model, "cost")
    if not validate(m).passed:
        return None
    g = evaluate_grid(m, m.grid())
    dq = (g.dpi1 * g.pi0 - g.pi1 * g.dpi0) / g.pi0**2
    for sign in (1.0, -1.0):
        if np.all(sign * dq > DEFAULT_TOL):
            return m, sign
    return None


def check_cost_channel(model):
    sol = optimal_investment(model)
    assert sol.v_star_unconstrained == sol.v_opt == 0.0
    assert not sol.deterrent_binding
    assert simulate_two_period(model, AgentKind.MYOPIC).displacement_period is None


def check_probability_channel(model, sign):
    """Whether ``v*`` is exactly the end that ``-sign Q'`` names, after
    checking that it is that end or has its rent to within 8 units in the
    last place."""
    v = optimal_investment(model).v_star_unconstrained
    end = 0.0 if sign > 0 else model.v_max  # Q rises (sign 1): U falls
    u_end = agent_surplus(model, end)
    assert v == end or abs(agent_surplus(model, v) - u_end) <= 8 * np.spacing(u_end)
    return v == end


@pytest.mark.parametrize("make", (f1, f2, f3, f4), ids=lambda make: make.__name__)
def test_fixtures(make):
    model = make()
    check_cost_channel(cost_only(model))
    assert check_probability_channel(*probability_only(model))


@pytest.mark.parametrize("seed", [0, 1])
def test_random_models(seed):
    # every family kind; on these seeds every cost-only model qualifies and
    # about 40 % of the probability-only ones
    cost, probability = 0, 0
    for model in random_models(200, seed):
        m = cost_only(model)
        if m is not None:
            check_cost_channel(m)
            cost += 1
        found = probability_only(model)
        if found is not None:
            assert check_probability_channel(*found)
            probability += 1
    assert cost == 200 and probability >= 60


# most drawn models fail the viability check at v = 0
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(affine_models())
def test_cost_channel_on_drawn_models(model):
    m = cost_only(model)
    assume(m is not None)
    check_cost_channel(m)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(affine_models())
def test_probability_channel_on_drawn_models(model):
    found = probability_only(model)
    assume(found is not None)
    if not check_probability_channel(*found):
        event("v* off its end by rounding")
