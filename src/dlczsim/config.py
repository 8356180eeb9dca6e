"""Experiment configuration: JSON schema, presets, deterministic hashing.

A configuration fully determines a simulation run together with one seed;
unknown keys are rejected so that a config file can be trusted to reproduce
byte-identical outputs.  A direct validator of the JSON Schema keywords that
``CONFIG_SCHEMA`` uses checks it, and also rejects NaN and Infinity, which
Python's ``json`` accepts.  The bundled ``paper`` preset carries the measured
channel efficiencies and splitter asymmetry of the modeled experiment; values
calibrated against its published count statistics (not measured directly)
are marked in the preset's provenance map.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Any, Mapping

from .entanglement import ChannelBudget
from .protocol import EnsembleParams, HeraldChoice, InterferometerParams

SCHEMA_VERSION = 1
MAX_TRIALS = 2**63 - 1  # numpy samples counts as int64

_COMPONENT_SCHEMA = {
    "type": "array",
    "items": [
        {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
        {"type": "number", "minimum": 0},
    ],
    "minItems": 2,
    "maxItems": 2,
}

_ENSEMBLE_SCHEMA = {
    "type": "object",
    "properties": {
        "chi": {"type": "number", "minimum": 0, "exclusiveMaximum": 1},
        "xi": {"type": "number", "minimum": 0, "maximum": 1},
    },
    "required": ["chi", "xi"],
    "additionalProperties": False,
}

_SIDE_SCHEMA = {
    "type": "object",
    "properties": {k: _COMPONENT_SCHEMA for k in ("fc", "c", "f", "apd")},
    "required": ["fc", "c", "f", "apd"],
    "additionalProperties": False,
}

CONFIG_SCHEMA: dict[str, Any] = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "description": {"type": "string"},
        "cutoff": {"type": "integer", "minimum": 2, "maximum": 5},
        "trials": {"type": "integer", "minimum": 0, "maximum": MAX_TRIALS},
        "seed": {"type": "integer", "minimum": 0},
        "layout": {"enum": ["diagonal", "fringe"]},
        "fringe_phases": {
            "oneOf": [
                {"type": "array", "items": {"type": "number"}, "minItems": 5},
                {
                    "type": "object",
                    "properties": {
                        # the published scans have about a dozen phases
                        "num": {"type": "integer", "minimum": 5, "maximum": 1000},
                        "start": {"type": "number"},
                        "stop": {"type": "number"},
                    },
                    "required": ["num"],
                    "additionalProperties": False,
                },
            ]
        },
        "ensembles": {
            "type": "object",
            "properties": {
                "L": _ENSEMBLE_SCHEMA,
                "R": _ENSEMBLE_SCHEMA,
            },
            "required": ["L", "R"],
            "additionalProperties": False,
        },
        "interferometer": {
            "type": "object",
            "properties": {
                "bs1_T": {"type": "number", "minimum": 0, "maximum": 1},
                "eta1": {"type": "number"},
                "eta2": {"type": "number"},
                "phi": {"type": "number"},
                "overlap": {"type": "number", "minimum": 0, "maximum": 1},
                "phase_jitter_sigma": {"type": "number", "minimum": 0},
            },
            "additionalProperties": False,
        },
        "herald": {
            "type": "object",
            "properties": {
                "which": {"enum": ["D1a", "D1b"]},
                "exclusive": {"type": "boolean"},
                "d1a_efficiency": {"type": "number", "minimum": 0, "maximum": 1},
                "d1b_efficiency": {"type": "number", "minimum": 0, "maximum": 1},
            },
            "additionalProperties": False,
        },
        "detectors": {
            "type": "object",
            "properties": {
                "eta_d2a": {"type": "number", "minimum": 0, "maximum": 1},
                "eta_d2b": {"type": "number", "minimum": 0, "maximum": 1},
                "eta_d2c": {"type": "number", "minimum": 0, "maximum": 1},
                "split": {"type": "number", "minimum": 0, "maximum": 1},
                "bs2_T": {"type": "number", "minimum": 0, "maximum": 1},
                "dark_prob": {"type": "number", "minimum": 0, "exclusiveMaximum": 1},
            },
            "additionalProperties": False,
        },
        "channel": {
            "type": "object",
            "properties": {"L": _SIDE_SCHEMA, "R": _SIDE_SCHEMA},
            "required": ["L", "R"],
            "additionalProperties": False,
        },
        "provenance": {"type": "object"},
    },
    "required": ["schema_version", "ensembles", "channel"],
    "additionalProperties": False,
}


class ConfigError(ValueError):
    """Configuration failed schema validation."""


_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool)) or (isinstance(v, float) and v.is_integer()),
}
_BOUNDS = (  # keyword, violated by, message
    ("minimum", lambda v, b: v < b, "less than the minimum of"),
    ("maximum", lambda v, b: v > b, "greater than the maximum of"),
    ("exclusiveMinimum", lambda v, b: v <= b, "less than or equal to the minimum of"),
    ("exclusiveMaximum", lambda v, b: v >= b, "greater than or equal to the maximum of"),
)


def _equal(a: Any, b: Any) -> bool:
    return isinstance(a, bool) == isinstance(b, bool) and a == b


def _validate(value: Any, schema: Mapping[str, Any], path: tuple = ()) -> None:
    """Check ``value`` against ``schema`` with the JSON Schema (draft 7)
    keywords that ``CONFIG_SCHEMA`` uses; raise ``ConfigError`` naming the
    JSON path of the first violation.  Numbers must also be finite."""

    def fail(message: str):
        raise ConfigError(f"config field {'/'.join(map(str, path)) or '<root>'}: {message}")

    if "oneOf" in schema:  # its options differ in type, so the value's type picks the one that can hold
        options = [option for option in schema["oneOf"] if _TYPES[option["type"]](value)]
        if len(options) != 1:
            fail(f"{value!r} is not valid under any of the given schemas")
        schema = options[0]
    if "const" in schema and not _equal(value, schema["const"]):
        fail(f"{schema['const']!r} was expected")
    if "enum" in schema and not any(_equal(value, option) for option in schema["enum"]):
        fail(f"{value!r} is not one of {schema['enum']!r}")
    kind = schema.get("type")
    if kind is not None and not _TYPES[kind](value):
        fail(f"{value!r} is not of type {kind!r}")
    if kind in ("number", "integer"):
        if not math.isfinite(value):
            fail(f"{value!r} is not a finite number")
        for keyword, violated, message in _BOUNDS:
            if keyword in schema and violated(value, schema[keyword]):
                fail(f"{value!r} is {message} {schema[keyword]!r}")
    elif kind == "array":
        low, high = schema.get("minItems", 0), schema.get("maxItems", math.inf)
        if not low <= len(value) <= high:
            fail(f"{value!r} has {len(value)} items, not {low} to {high}")
        items = schema.get("items", {})  # one schema for all items, or one per position
        for index, (item, sub) in enumerate(zip(value, items if isinstance(items, list) else [items] * len(value))):
            _validate(item, sub, (*path, index))
    elif kind == "object":
        properties = schema.get("properties", {})
        for key in schema.get("required", ()):
            if key not in value:
                fail(f"{key!r} is a required property")
        if schema.get("additionalProperties", True) is False:
            extra = [key for key in value if key not in properties]
            if extra:
                fail(f"Additional properties are not allowed ({', '.join(map(repr, extra))} unexpected)")
        for key, sub in properties.items():
            if key in value:
                _validate(value[key], sub, (*path, key))


@dataclass(frozen=True)
class DetectorBench:
    eta_d2a: float = 1.0
    eta_d2b: float = 1.0
    eta_d2c: float = 1.0
    split: float = 0.5
    bs2_T: float = 0.5
    dark_prob: float = 0.0


@dataclass(frozen=True)
class ExperimentConfig:
    left: EnsembleParams
    right: EnsembleParams
    budget: ChannelBudget
    interferometer: InterferometerParams = InterferometerParams()
    herald: HeraldChoice = HeraldChoice()
    d1a_efficiency: float = 1.0
    d1b_efficiency: float = 1.0
    detectors: DetectorBench = DetectorBench()
    layout: str = "diagonal"
    fringe_phases: tuple[float, ...] = ()
    cutoff: int = 3
    trials: int = 0
    seed: int = 0
    description: str = ""
    provenance: Mapping[str, str] = field(default_factory=dict)


def _phases_from_entry(entry: Any) -> tuple[float, ...]:
    if entry is None:
        return tuple(float(x) for x in _linspace(0.0, 2.0 * math.pi, 13))
    if isinstance(entry, list):
        return tuple(float(x) for x in entry)
    num = int(entry["num"])
    start = float(entry.get("start", 0.0))
    stop = float(entry.get("stop", 2.0 * math.pi))
    return tuple(_linspace(start, stop, num))


def _linspace(start: float, stop: float, num: int) -> list[float]:
    step = (stop - start) / (num - 1)
    return [start + k * step for k in range(num)]


def config_from_dict(data: Mapping[str, Any]) -> ExperimentConfig:
    """Validate against the schema and build the typed configuration.

    Schema violations are reported with their JSON path.  The schema admits
    integer-valued floats such as ``3.0`` as integers; they are converted.
    """
    _validate(data, CONFIG_SCHEMA)

    # only the keys present are passed on, so the dataclass defaults are the only ones
    herald = dict(data.get("herald", {}))
    top = {key: herald.pop(key) for key in ("d1a_efficiency", "d1b_efficiency") if key in herald}
    top |= {key: data[key] for key in ("layout", "description") if key in data}
    top |= {key: int(data[key]) for key in ("cutoff", "trials", "seed") if key in data}
    return ExperimentConfig(
        left=EnsembleParams(**data["ensembles"]["L"]),
        right=EnsembleParams(**data["ensembles"]["R"]),
        interferometer=InterferometerParams(**data.get("interferometer", {})),
        herald=HeraldChoice(**herald),
        detectors=DetectorBench(**data.get("detectors", {})),
        budget=ChannelBudget.from_dict(data["channel"]),
        fringe_phases=_phases_from_entry(data.get("fringe_phases")),
        provenance=dict(data.get("provenance", {})),
        **top,
    )


def canonical_json(data: Mapping[str, Any]) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def config_hash(data: Mapping[str, Any]) -> str:
    return hashlib.sha256(canonical_json(data).encode()).hexdigest()


def load_config_dict(path: str | Path) -> dict[str, Any]:
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc


PRESETS = ("paper", "paper_w120", "ideal")


def preset_dict(name: str) -> dict[str, Any]:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: {', '.join(PRESETS)}")
    text = resources.files("dlczsim.presets").joinpath(f"{name}.json").read_text()
    return json.loads(text)
