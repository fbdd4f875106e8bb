"""Shared hypothesis strategies building valid models constructively.

The bounds guarantee the structural invariants (probability ordering and
range, positive decreasing cost) without rejection sampling, so algebraic
identity properties can run over them directly.  The ``count_calls``
fixture counts calls of twinvest functions, and ``oversized_file`` writes
a model file with one number too large for a float.
"""

import json
import sys

import hypothesis.strategies as st
import pytest

from twinvest.config import section_to_dict
from twinvest.families import ParametricFamily as F
from twinvest.fixtures import f1, f5
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


#: One number of each kind of section a model file has, as the keys that
#: reach it: a model number, a family coefficient, a continuous number and
#: a sweep axis end.
OVERSIZED_KEYS = [("v_max",), ("pi0", "coefficients", 1), ("continuous", "c0"), ("sweep", "axes", 0, "start")]


@pytest.fixture
def oversized_file(tmp_path):
    """``oversized_file(*keys)`` writes f1 with f5 as its continuous section
    and a sweep, the number at ``keys`` replaced by a 401-digit integer
    (JSON reads it as an int that no float can hold), and returns the file
    and the field path a :class:`~twinvest.config.ConfigError` names."""

    def write(*keys):
        obj = section_to_dict(f1())
        obj["continuous"] = section_to_dict(f5())
        axis = {"target": "cost", "coefficient": 1, "start": 0.5, "stop": 3.0, "count": 3}
        obj["sweep"] = {"axes": [axis, dict(axis, target="pi0", start=0.1, stop=0.4)]}
        parent = obj
        for key in keys[:-1]:
            parent = parent[key]
        parent[keys[-1]] = 10**400
        path = tmp_path / "oversized.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        field = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys).lstrip(".")
        return str(path), field

    return write


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
