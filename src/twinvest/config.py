"""Model definition files: JSON with exact field-path error reporting.

A file describes a discrete model (top-level ``pi0``/``pi1``/``cost``
families plus bounds and stakes), and may additionally carry a
``continuous`` section and a two-axis ``sweep`` template.  The keys of
each object are the fields of the dataclass it describes
(:class:`ModelPrimitives`, :class:`ContinuousEffortModel`,
:class:`ParametricFamily`, :class:`SweepAxis`).  Unknown keys are rejected,
and every parse error names the offending field path.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .continuous import ContinuousEffortModel
from .families import FAMILY_KINDS, ParametricFamily
from .model import PRIMITIVE_NAMES, ModelPrimitives
from .sweep import SweepAxis


class ConfigError(ValueError):
    """Malformed model file; ``path`` points at the offending field."""

    def __init__(self, path: str, message: str):
        self.path = path or "<root>"
        super().__init__(f"{self.path}: {message}")


def _keys(cls) -> frozenset[str]:
    return frozenset(f.name for f in fields(cls))


_MODEL_KEYS = _keys(ModelPrimitives)
_TOP_KEYS = _MODEL_KEYS | {"continuous", "sweep"}
_FAMILY_KEYS = _keys(ParametricFamily)
_CONTINUOUS_KEYS = _keys(ContinuousEffortModel)
_AXIS_KEYS = _keys(SweepAxis)


@dataclass(frozen=True)
class ModelFile:
    model: ModelPrimitives | None
    continuous: ContinuousEffortModel | None
    sweep: tuple[SweepAxis, SweepAxis] | None


def _require_mapping(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(path, f"expected an object, got {type(obj).__name__}")
    return obj


def _reject_unknown(obj: dict, allowed: set[str], path: str):
    unknown = set(obj) - allowed
    if unknown:
        key = sorted(unknown)[0]
        raise ConfigError(f"{path}.{key}" if path else key, "unknown key")


def _float(value, path: str) -> float:
    """``value`` as a float; a :class:`ConfigError` at ``path`` when it is
    not a JSON number (a bool is not one) or is an integer no float holds."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {type(value).__name__}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(path, "expected a number a float can hold") from None


def _number(obj: dict, key: str, path: str) -> float:
    path = f"{path}.{key}" if path else key
    if key not in obj:
        raise ConfigError(path, "missing required field")
    return _float(obj[key], path)


def _family(obj: dict, key: str, path: str) -> ParametricFamily:
    """The family under ``key``; a missing one is a missing field."""
    path = f"{path}.{key}" if path else key
    if key not in obj:
        raise ConfigError(path, "missing required field")
    return parse_family(obj[key], path)


def parse_family(obj, path: str) -> ParametricFamily:
    obj = _require_mapping(obj, path)
    _reject_unknown(obj, _FAMILY_KEYS, path)
    if "kind" not in obj:
        raise ConfigError(f"{path}.kind", "missing required field")
    kind = obj["kind"]
    if kind not in FAMILY_KINDS:
        raise ConfigError(f"{path}.kind", f"expected one of {FAMILY_KINDS}, got {kind!r}")
    coeffs = obj.get("coefficients")
    if not isinstance(coeffs, list) or not coeffs:
        raise ConfigError(f"{path}.coefficients", "expected a non-empty array of numbers")
    coeffs = tuple(_float(c, f"{path}.coefficients[{i}]") for i, c in enumerate(coeffs))
    try:
        return ParametricFamily(kind, coeffs)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


def _section(cls, obj: dict, path: str):
    """``cls`` from the fields of ``obj`` at ``path``, read in field order,
    so the first missing or malformed field is the one reported.  A field
    annotated ``ParametricFamily`` (annotations are strings: every module
    postpones them) is read as a family, any other as a number."""
    values = {
        f.name: (_family if f.type == "ParametricFamily" else _number)(obj, f.name, path)
        for f in fields(cls)
    }
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


def parse_model(obj: dict) -> ModelPrimitives:
    return _section(ModelPrimitives, obj, "")


def parse_continuous(obj) -> ContinuousEffortModel:
    path = "continuous"
    obj = _require_mapping(obj, path)
    _reject_unknown(obj, _CONTINUOUS_KEYS, path)
    return _section(ContinuousEffortModel, obj, path)


def parse_sweep(obj) -> tuple[SweepAxis, SweepAxis]:
    path = "sweep"
    obj = _require_mapping(obj, path)
    _reject_unknown(obj, {"axes"}, path)
    axes = obj.get("axes")
    if not isinstance(axes, list):
        raise ConfigError(f"{path}.axes", "expected an array of axis objects")
    if len(axes) != 2:
        raise ConfigError(
            f"{path}.axes", f"exactly 2 varying coefficients required, got {len(axes)}"
        )
    parsed = []
    for i, axis in enumerate(axes):
        apath = f"{path}.axes[{i}]"
        axis = _require_mapping(axis, apath)
        _reject_unknown(axis, _AXIS_KEYS, apath)
        target = axis.get("target")
        if target not in PRIMITIVE_NAMES:
            raise ConfigError(
                f"{apath}.target", f"expected one of {PRIMITIVE_NAMES}, got {target!r}"
            )
        coefficient = axis.get("coefficient")
        if isinstance(coefficient, bool) or not isinstance(coefficient, int):
            raise ConfigError(f"{apath}.coefficient", "expected an integer index")
        count = axis.get("count")
        if isinstance(count, bool) or not isinstance(count, int) or count < 1:
            raise ConfigError(f"{apath}.count", "expected a positive integer")
        parsed.append(
            SweepAxis(
                target,
                coefficient,
                _number(axis, "start", apath),
                _number(axis, "stop", apath),
                count,
            )
        )
    first, second = parsed
    if (first.target, first.coefficient) == (second.target, second.coefficient):
        raise ConfigError(f"{path}.axes[1]", f"varies {first.label()} again; the axes need different coefficients")
    return first, second


def parse_model_file(obj) -> ModelFile:
    obj = _require_mapping(obj, "")
    _reject_unknown(obj, _TOP_KEYS, "")
    has_discrete = bool(_MODEL_KEYS & set(obj))
    model = parse_model(obj) if has_discrete else None
    continuous = parse_continuous(obj["continuous"]) if "continuous" in obj else None
    sweep = parse_sweep(obj["sweep"]) if "sweep" in obj else None
    if model is None and continuous is None:
        raise ConfigError("", "file defines neither a discrete model nor a continuous section")
    return ModelFile(model, continuous, sweep)


def load_model_file(path: str | Path) -> ModelFile:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(str(path), f"cannot read file: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(str(path), f"invalid JSON: {exc}") from exc
    return parse_model_file(obj)


# ---------------------------------------------------------------------------
# Serialization (round-trips the fixtures into example files)
# ---------------------------------------------------------------------------


def section_to_dict(section: ModelPrimitives | ContinuousEffortModel) -> dict:
    """The model-file object of a model or continuous section: one key per
    dataclass field, each family an object of its own fields."""
    return asdict(section, dict_factory=lambda items: {k: list(v) if isinstance(v, tuple) else v for k, v in items})
