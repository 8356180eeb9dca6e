"""Experiment configuration: JSON schema, channel budget, presets, hashing.

A configuration fully determines a simulation run together with one seed;
unknown keys are rejected so that a config file can be trusted to reproduce
byte-identical outputs.  A direct validator of the JSON Schema keywords that
``CONFIG_SCHEMA`` uses checks it, and also rejects NaN and Infinity, which
Python's ``json`` accepts.  Each parameter states its default, type and
bounds once, on its dataclass field (``param``): the blocks, the channel
sides and the top-level keys of ``ExperimentConfig``; ``CONFIG_SCHEMA`` is
built from those fields.  The bundled ``paper`` preset carries the measured
channel efficiencies and splitter asymmetry of the modeled experiment; values
calibrated against its published count statistics (not measured directly)
are marked in the preset's provenance map.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import MISSING, dataclass, field, fields
from importlib import resources
from pathlib import Path
from typing import Any, Mapping

from .detection import MAX_TRIALS, fits_float

SCHEMA_VERSION = 1
PRESETS = ("paper", "paper_w120", "ideal")
LAYOUTS = ("diagonal", "fringe")
HERALDS = ("D1a", "D1b")  # the heralding detectors, in pattern order

PLANES: dict[str, tuple[str, ...]] = {
    "detectors": (),
    "z0": ("apd",),
    "z1": ("apd", "f", "c"),
    "z2": ("apd", "f", "c", "fc"),
}

class ConfigError(ValueError):
    """Configuration failed schema validation."""


_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, (list, tuple)),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "number": lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool),
    "integer": lambda v: (isinstance(v, numbers.Integral) and not isinstance(v, bool)) or (isinstance(v, float) and v.is_integer()),
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
    JSON path of the first violation.  A number must also fit a float."""

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
        if kind == "number" and not fits_float(value):  # an integer is compared exactly
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


def param(default: Any = MISSING, **schema: Any) -> Any:
    """A config block field: its default (none if omitted) and its JSON Schema."""
    return field(default=default, metadata=schema)


UNIT_INTERVAL = {"type": "number", "minimum": 0, "maximum": 1}


def config_block(*required: str):
    """Make a class a config block: a frozen dataclass whose fields state their
    schema with ``param``.  The block's ``SCHEMA`` is built once from them,
    with the ``required`` keys, and each instance checks itself against it."""

    def make(cls):
        cls.__post_init__ = lambda self: _validate(vars(self), self.SCHEMA)
        cls = dataclass(frozen=True)(cls)
        cls.SCHEMA = {
            "type": "object",
            "properties": {f.name: dict(f.metadata) for f in fields(cls)},
            **({"required": list(required)} if required else {}),
            "additionalProperties": False,
        }
        return cls

    return make


@config_block("chi", "xi")  # xi has a default in code, not in a file
class EnsembleParams:
    """Per-ensemble knobs: write excitation probability and read-out efficiency."""

    chi: float = param(type="number", minimum=0, exclusiveMaximum=1)
    xi: float = param(1.0, **UNIT_INTERVAL)


@config_block()
class InterferometerParams:
    """Phases, splitting ratio and mode overlap of the two interferometers.

    ``bs1_T`` is the transmittance of the heralding beam splitter for the
    right-hand field; ``overlap`` is the amplitude overlap between the two
    field-1 modes at that splitter; ``phase_jitter_sigma`` is the per-trial
    Gaussian spread of eta1 + eta2.
    """

    bs1_T: float = param(0.5, **UNIT_INTERVAL)
    eta1: float = param(0.0, type="number")
    eta2: float = param(0.0, type="number")
    phi: float = param(0.0, type="number")
    overlap: float = param(1.0, **UNIT_INTERVAL)
    phase_jitter_sigma: float = param(0.0, type="number", minimum=0)


@config_block()
class HeraldChoice:
    """The heralding event, a click at ``which`` (alone, if ``exclusive``),
    and the efficiencies of the two heralding detectors."""

    which: str = param("D1a", enum=list(HERALDS))
    exclusive: bool = param(True, type="boolean")
    d1a_efficiency: float = param(1.0, **UNIT_INTERVAL)
    d1b_efficiency: float = param(1.0, **UNIT_INTERVAL)


@config_block()
class DetectorBench:
    eta_d2a: float = param(1.0, **UNIT_INTERVAL)
    eta_d2b: float = param(1.0, **UNIT_INTERVAL)
    eta_d2c: float = param(1.0, **UNIT_INTERVAL)
    split: float = param(0.5, **UNIT_INTERVAL)
    bs2_T: float = param(0.5, **UNIT_INTERVAL)
    dark_prob: float = param(0.0, type="number", minimum=0, exclusiveMaximum=1)


_COMPONENT = {  # (transmission, uncertainty)
    "type": "array",
    "items": [{"type": "number", "exclusiveMinimum": 0, "maximum": 1}, {"type": "number", "minimum": 0}],
    "minItems": 2,
    "maxItems": 2,
}


@config_block("fc", "c", "f", "apd")
class ChannelSide:
    """One path's components, ordered from the ensemble toward the detectors:
    ``fc`` (filter cell), ``c`` (fiber coupling), ``f`` (auxiliary-light
    filter), ``apd`` (detector quantum efficiency)."""

    fc: tuple[float, float] = param(**_COMPONENT)
    c: tuple[float, float] = param(**_COMPONENT)
    f: tuple[float, float] = param(**_COMPONENT)
    apd: tuple[float, float] = param(**_COMPONENT)


@dataclass(frozen=True)
class ChannelBudget:
    """The two paths' components.  Planes are cumulative component sets
    counted backward from the raw detector record: z0 undoes only apd, z1
    additionally f and c, z2 additionally fc (ensemble output edge)."""

    left: ChannelSide
    right: ChannelSide

    def segment(self, side: str, from_plane: str, to_plane: str) -> tuple[float, float]:
        """Product transmission (and uncertainty) between two planes."""
        for plane in (from_plane, to_plane):
            if plane not in PLANES:
                raise ValueError(f"unknown plane {plane!r}")
        if set(PLANES[from_plane]) - set(PLANES[to_plane]):
            raise ValueError(f"target plane {to_plane} is downstream of {from_plane}")
        # a fixed multiplication order, the components' own, keeps the
        # product independent of string hashing (PYTHONHASHSEED)
        keys = [f.name for f in fields(ChannelSide) if f.name in PLANES[to_plane] and f.name not in PLANES[from_plane]]
        comps = self.left if side == "L" else self.right
        alpha = 1.0
        rel_var = 0.0
        for key in keys:
            value, err = getattr(comps, key)
            alpha *= value
            rel_var += (err / value) ** 2
        return alpha, alpha * math.sqrt(rel_var)

    def total(self, side: str) -> float:
        return self.segment(side, "detectors", "z2")[0]


def _linspace(start: float, stop: float, num: int) -> list[float]:
    step = (stop - start) / (num - 1)
    return [start + k * step for k in range(num)]


@dataclass(frozen=True)
class ExperimentConfig:
    """The typed configuration: one field a block, and the top-level keys of
    a file, which state their default and schema with ``param`` and are
    checked against it when the configuration is built."""

    left: EnsembleParams
    right: EnsembleParams
    budget: ChannelBudget
    interferometer: InterferometerParams = InterferometerParams()
    herald: HeraldChoice = HeraldChoice()
    detectors: DetectorBench = DetectorBench()
    cutoff: int = param(3, type="integer", minimum=2, maximum=5)
    trials: int = param(0, type="integer", minimum=0, maximum=MAX_TRIALS)
    seed: int = param(0, type="integer", minimum=0)
    layout: str = param("diagonal", enum=list(LAYOUTS))
    # a file gives the phases, or num of them from start to stop (one turn by default)
    fringe_phases: tuple[float, ...] = param(
        tuple(_linspace(0.0, 2.0 * math.pi, 13)),
        oneOf=[
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
        ],
    )

    def __post_init__(self):
        _validate({f.name: getattr(self, f.name) for f in _TOP_LEVEL}, _TOP_LEVEL_SCHEMA)


def _pair(block) -> dict[str, Any]:
    """The schema of an L/R pair of config blocks."""
    return {"type": "object", "properties": {"L": block.SCHEMA, "R": block.SCHEMA}, "required": ["L", "R"], "additionalProperties": False}


_TOP_LEVEL = [f for f in fields(ExperimentConfig) if f.metadata]  # the keys that are one field each
_TOP_LEVEL_SCHEMA = {"type": "object", "properties": {f.name: dict(f.metadata) for f in _TOP_LEVEL}}

CONFIG_SCHEMA: dict[str, Any] = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "description": {"type": "string"},  # like provenance, validated and hashed but not read
        **_TOP_LEVEL_SCHEMA["properties"],
        "ensembles": _pair(EnsembleParams),
        "interferometer": InterferometerParams.SCHEMA,
        "herald": HeraldChoice.SCHEMA,
        "detectors": DetectorBench.SCHEMA,
        "channel": _pair(ChannelSide),
        "provenance": {"type": "object"},
    },
    "required": ["schema_version", "ensembles", "channel"],
    "additionalProperties": False,
}


def _phases_from_entry(entry: Any) -> tuple[float, ...]:
    if isinstance(entry, list):
        return tuple(float(x) for x in entry)
    num = int(entry["num"])
    start = float(entry.get("start", 0.0))
    stop = float(entry.get("stop", 2.0 * math.pi))
    return tuple(_linspace(start, stop, num))


def config_from_dict(data: Mapping[str, Any]) -> ExperimentConfig:
    """Validate against the schema and build the typed configuration.

    Schema violations are reported with their JSON path.  The schema admits
    integer-valued floats such as ``3.0`` as integers; they are converted.
    """
    _validate(data, CONFIG_SCHEMA)

    # only the keys present are passed on, so the field defaults are the only ones
    top = {f.name: int(data[f.name]) if f.metadata.get("type") == "integer" else data[f.name] for f in _TOP_LEVEL if f.name in data}
    if "fringe_phases" in top:
        top["fringe_phases"] = _phases_from_entry(top["fringe_phases"])
    return ExperimentConfig(
        left=EnsembleParams(**data["ensembles"]["L"]),
        right=EnsembleParams(**data["ensembles"]["R"]),
        interferometer=InterferometerParams(**data.get("interferometer", {})),
        herald=HeraldChoice(**data.get("herald", {})),
        detectors=DetectorBench(**data.get("detectors", {})),
        budget=ChannelBudget(ChannelSide(**data["channel"]["L"]), ChannelSide(**data["channel"]["R"])),
        **top,
    )


def config_hash(data: Mapping[str, Any]) -> str:
    return hashlib.sha256(json.dumps(data, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def load_config_dict(path: str | Path) -> dict[str, Any]:
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc


def preset_dict(name: str) -> dict[str, Any]:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: {', '.join(PRESETS)}")
    text = resources.files("dlczsim.presets").joinpath(f"{name}.json").read_text()
    return json.loads(text)
