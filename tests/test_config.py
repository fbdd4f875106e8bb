import json
import math
from pathlib import Path

import pytest
from conftest import OVERSIZED_KEYS

from twinvest import fixtures
from twinvest.config import (
    ConfigError,
    load_model_file,
    parse_model_file,
    section_to_dict,
)
from twinvest.fixtures import f1, f3, f5
from twinvest.sampling import random_continuous_models, random_models

CONFIGS = Path(__file__).parents[1] / "configs"


def write(tmp_path, obj, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return path


class TestRoundTrip:
    def test_discrete_model(self, tmp_path):
        path = write(tmp_path, section_to_dict(f1()))
        mf = load_model_file(path)
        assert mf.model == f1()
        assert mf.continuous is None
        assert mf.sweep is None

    def test_continuous_section(self, tmp_path):
        obj = section_to_dict(f1())
        obj["continuous"] = section_to_dict(f5())
        mf = load_model_file(write(tmp_path, obj))
        assert mf.continuous == f5()

    def test_sweep_section(self, tmp_path):
        obj = section_to_dict(f3())
        obj["sweep"] = {
            "axes": [
                {"target": "cost", "coefficient": 1, "start": 0.5, "stop": 3.0, "count": 4},
                {"target": "pi0", "coefficient": 1, "start": 0.1, "stop": 0.4, "count": 3},
            ]
        }
        mf = load_model_file(write(tmp_path, obj))
        axis1, axis2 = mf.sweep
        assert axis1.target == "cost" and len(axis1.values) == 4
        assert axis2.values[0] == pytest.approx(0.1)


class TestWriter:
    """The writer's keys are the dataclass fields, which the reader reads back."""

    @pytest.mark.parametrize("name", ["f1", "f2", "f3", "f4", "f5"])
    def test_example_file_is_the_writer_output(self, name):
        text = (CONFIGS / f"{name}.json").read_text(encoding="utf-8")
        if name == "f5":  # f1's model with f5's continuous section
            obj = section_to_dict(f1())
            obj["continuous"] = section_to_dict(f5())
        else:
            obj = section_to_dict(getattr(fixtures, name)())
        if name == "f3":
            obj["sweep"] = json.loads(text)["sweep"]
        assert json.dumps(obj, indent=2) + "\n" == text

    def test_random_sections_come_back_equal(self):
        models, cmodels = random_models(100, 3), random_continuous_models(100, 4)
        for model, cmodel in zip(models, cmodels):
            obj = section_to_dict(model)
            obj["continuous"] = section_to_dict(cmodel)
            mf = parse_model_file(json.loads(json.dumps(obj)))
            assert (mf.model, mf.continuous, mf.sweep) == (model, cmodel, None)


class TestErrors:
    def test_unknown_top_level_key(self):
        obj = section_to_dict(f1())
        obj["surprise"] = 1
        with pytest.raises(ConfigError, match="surprise: unknown key"):
            parse_model_file(obj)

    def test_family_field_path(self):
        obj = section_to_dict(f1())
        obj["pi0"]["coefficients"][1] = "fast"
        with pytest.raises(ConfigError, match=r"pi0\.coefficients\[1\]"):
            parse_model_file(obj)

    def test_missing_field_named(self):
        obj = section_to_dict(f1())
        del obj["v_max"]
        with pytest.raises(ConfigError, match="v_max: missing"):
            parse_model_file(obj)

    @pytest.mark.parametrize("section, key", [(None, "pi0"), (None, "cost"), ("continuous", "p")])
    def test_missing_family_named(self, section, key):
        # a missing family is a missing field, like a missing number
        obj = section_to_dict(f1())
        obj["continuous"] = section_to_dict(f5())
        del (obj if section is None else obj[section])[key]
        path = key if section is None else f"{section}.{key}"
        with pytest.raises(ConfigError, match=f"^{path}: missing required field$"):
            parse_model_file(obj)

    @pytest.mark.parametrize("key", ["e_max", "s_high"])
    def test_non_finite_continuous_number_named(self, tmp_path, key):
        obj = section_to_dict(f1())
        obj["continuous"] = section_to_dict(f5())
        obj["continuous"][key] = math.inf  # written as Infinity, which json reads
        with pytest.raises(ConfigError, match="^continuous: .*finite"):
            load_model_file(write(tmp_path, obj))

    def test_bad_kind_named(self):
        obj = section_to_dict(f1())
        obj["pi1"]["kind"] = "cubic"
        with pytest.raises(ConfigError, match=r"pi1\.kind"):
            parse_model_file(obj)

    def test_three_axes_rejected(self):
        obj = section_to_dict(f1())
        axis = {"target": "cost", "coefficient": 0, "start": 0.1, "stop": 0.2, "count": 2}
        obj["sweep"] = {"axes": [axis, axis, axis]}
        with pytest.raises(ConfigError, match="exactly 2 varying coefficients"):
            parse_model_file(obj)

    def test_one_axis_rejected(self):
        obj = section_to_dict(f1())
        obj["sweep"] = {
            "axes": [{"target": "cost", "coefficient": 0, "start": 0.1, "stop": 0.2, "count": 2}]
        }
        with pytest.raises(ConfigError, match="exactly 2"):
            parse_model_file(obj)

    def test_two_axes_on_one_coefficient_rejected(self):
        obj = section_to_dict(f1())
        axis = {"target": "cost", "coefficient": 1, "start": 0.1, "stop": 0.2, "count": 2}
        obj["sweep"] = {"axes": [axis, dict(axis, start=0.3)]}
        with pytest.raises(ConfigError, match=r"sweep\.axes\[1\]: varies cost\[1\] again"):
            parse_model_file(obj)

    def test_bad_axis_target(self):
        obj = section_to_dict(f1())
        obj["sweep"] = {
            "axes": [
                {"target": "wage", "coefficient": 0, "start": 0.1, "stop": 0.2, "count": 2},
                {"target": "cost", "coefficient": 0, "start": 0.1, "stop": 0.2, "count": 2},
            ]
        }
        with pytest.raises(ConfigError, match=r"sweep\.axes\[0\]\.target"):
            parse_model_file(obj)

    def test_empty_file_rejected(self):
        with pytest.raises(ConfigError, match="neither"):
            parse_model_file({})

    def test_nonexistent_path(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_model_file(tmp_path / "missing.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{", encoding="utf-8")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_model_file(path)

    @pytest.mark.parametrize("keys", OVERSIZED_KEYS, ids=lambda keys: keys[0])
    def test_integer_too_large_for_a_float_named(self, oversized_file, keys):
        # float() of a 401-digit int raises OverflowError, named with its field
        path, field = oversized_file(*keys)
        with pytest.raises(ConfigError) as info:
            load_model_file(path)
        assert str(info.value) == f"{field}: expected a number a float can hold"

    def test_structural_family_error_carries_path(self):
        obj = section_to_dict(f1())
        obj["cost"] = {"kind": "exponential-decay", "coefficients": [-1.0, 2.0]}
        with pytest.raises(ConfigError, match="cost"):
            parse_model_file(obj)
