"""Shared hypothesis strategies building valid models constructively.

The bounds guarantee the structural invariants (probability ordering and
range, positive decreasing cost) without rejection sampling, so algebraic
identity properties can run over them directly.  The ``count_calls``
fixture counts calls of twinvest functions.
"""

import sys

import hypothesis.strategies as st
import pytest

from twinvest.families import ParametricFamily as F
from twinvest.model import ModelPrimitives


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(*functions)`` rebinds every twinvest binding of
    ``functions`` to a counting wrapper (the modules import each other with
    ``from ... import``) and returns the list that collects each call's
    function name."""

    def count(*functions):
        calls = []

        def counting(real):
            def wrapper(*args, **kwargs):
                calls.append(real.__name__)
                return real(*args, **kwargs)

            return wrapper

        for real in functions:
            wrapper = counting(real)
            for name, module in list(sys.modules.items()):
                if name.startswith("twinvest"):
                    for attr, value in list(vars(module).items()):
                        if value is real:
                            monkeypatch.setattr(module, attr, wrapper)
        return calls

    return count


@st.composite
def affine_models(draw):
    a0 = draw(st.floats(0.05, 0.3))
    gap = draw(st.floats(0.05, 0.15))
    b0 = draw(st.floats(0.0, 0.25))
    extra = draw(st.floats(0.0, 0.2))
    c0 = draw(st.floats(0.05, 0.5))
    drop = draw(st.floats(0.0, 0.9))
    s_low = draw(st.floats(0.0, 0.5))
    stake = draw(st.floats(0.2, 3.0))
    return ModelPrimitives(
        pi0=F.affine(a0, b0),
        pi1=F.affine(a0 + gap + 0.05, b0 + extra),
        cost=F.affine(c0, -drop * c0),
        v_max=1.0,
        s_high=s_low + stake,
        s_low=s_low,
    )


@st.composite
def investments(draw):
    return draw(st.floats(0.0, 1.0))
