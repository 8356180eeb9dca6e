"""Experiment configuration: JSON schema, presets, deterministic hashing.

A configuration fully determines a simulation run together with one seed;
unknown keys are rejected so that a config file can be trusted to reproduce
byte-identical outputs.  The bundled ``paper`` preset carries the measured
channel efficiencies and splitter asymmetry of the modeled experiment;
entries whose values were calibrated against its published count statistics
(rather than measured directly) are marked in the preset's provenance map.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Any, Mapping

import jsonschema

from .entanglement import ChannelBudget
from .protocol import EnsembleParams, HeraldChoice, InterferometerParams

SCHEMA_VERSION = 1

_COMPONENT_SCHEMA = {
    "type": "array",
    "items": [
        {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
        {"type": "number", "minimum": 0},
    ],
    "minItems": 2,
    "maxItems": 2,
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
        "trials": {"type": "integer", "minimum": 0},
        "seed": {"type": "integer", "minimum": 0},
        "layout": {"enum": ["diagonal", "fringe"]},
        "fringe_phases": {
            "oneOf": [
                {"type": "array", "items": {"type": "number"}, "minItems": 5},
                {
                    "type": "object",
                    "properties": {
                        "num": {"type": "integer", "minimum": 5},
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
                "L": {"$ref": "#/definitions/ensemble"},
                "R": {"$ref": "#/definitions/ensemble"},
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
    "definitions": {
        "ensemble": {
            "type": "object",
            "properties": {
                "chi": {"type": "number", "minimum": 0, "exclusiveMaximum": 1},
                "xi": {"type": "number", "minimum": 0, "maximum": 1},
            },
            "required": ["chi", "xi"],
            "additionalProperties": False,
        }
    },
}


class ConfigError(ValueError):
    """Configuration failed schema validation."""


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
    interferometer: InterferometerParams = InterferometerParams()
    herald: HeraldChoice = HeraldChoice()
    d1a_efficiency: float = 1.0
    d1b_efficiency: float = 1.0
    detectors: DetectorBench = DetectorBench()
    budget: ChannelBudget | None = None
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

    Schema violations are reported with their JSON path.
    """
    try:
        jsonschema.validate(instance=data, schema=CONFIG_SCHEMA)
    except jsonschema.ValidationError as exc:
        path = "/".join(str(p) for p in exc.absolute_path) or "<root>"
        raise ConfigError(f"config field {path}: {exc.message}") from exc

    ens = data["ensembles"]
    interf = data.get("interferometer", {})
    herald = data.get("herald", {})
    bench = data.get("detectors", {})
    return ExperimentConfig(
        left=EnsembleParams(chi=ens["L"]["chi"], xi=ens["L"]["xi"]),
        right=EnsembleParams(chi=ens["R"]["chi"], xi=ens["R"]["xi"]),
        interferometer=InterferometerParams(
            bs1_T=interf.get("bs1_T", 0.5),
            eta1=interf.get("eta1", 0.0),
            eta2=interf.get("eta2", 0.0),
            phi=interf.get("phi", 0.0),
            overlap=interf.get("overlap", 1.0),
            phase_jitter_sigma=interf.get("phase_jitter_sigma", 0.0),
        ),
        herald=HeraldChoice(
            which=herald.get("which", "D1a"),
            exclusive=herald.get("exclusive", True),
        ),
        d1a_efficiency=herald.get("d1a_efficiency", 1.0),
        d1b_efficiency=herald.get("d1b_efficiency", 1.0),
        detectors=DetectorBench(
            eta_d2a=bench.get("eta_d2a", 1.0),
            eta_d2b=bench.get("eta_d2b", 1.0),
            eta_d2c=bench.get("eta_d2c", 1.0),
            split=bench.get("split", 0.5),
            bs2_T=bench.get("bs2_T", 0.5),
            dark_prob=bench.get("dark_prob", 0.0),
        ),
        budget=ChannelBudget.from_dict(data["channel"]),
        layout=data.get("layout", "diagonal"),
        fringe_phases=_phases_from_entry(data.get("fringe_phases")),
        cutoff=data.get("cutoff", 3),
        trials=data.get("trials", 0),
        seed=data.get("seed", 0),
        description=data.get("description", ""),
        provenance=dict(data.get("provenance", {})),
    )


def config_to_dict(config: ExperimentConfig) -> dict[str, Any]:
    out: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "cutoff": config.cutoff,
        "trials": config.trials,
        "seed": config.seed,
        "layout": config.layout,
        "fringe_phases": list(config.fringe_phases),
        "ensembles": {
            "L": {"chi": config.left.chi, "xi": config.left.xi},
            "R": {"chi": config.right.chi, "xi": config.right.xi},
        },
        "interferometer": {
            "bs1_T": config.interferometer.bs1_T,
            "eta1": config.interferometer.eta1,
            "eta2": config.interferometer.eta2,
            "phi": config.interferometer.phi,
            "overlap": config.interferometer.overlap,
            "phase_jitter_sigma": config.interferometer.phase_jitter_sigma,
        },
        "herald": {
            "which": config.herald.which,
            "exclusive": config.herald.exclusive,
            "d1a_efficiency": config.d1a_efficiency,
            "d1b_efficiency": config.d1b_efficiency,
        },
        "detectors": {
            "eta_d2a": config.detectors.eta_d2a,
            "eta_d2b": config.detectors.eta_d2b,
            "eta_d2c": config.detectors.eta_d2c,
            "split": config.detectors.split,
            "bs2_T": config.detectors.bs2_T,
            "dark_prob": config.detectors.dark_prob,
        },
        "channel": config.budget.as_dict() if config.budget else None,
    }
    if config.budget is None:
        del out["channel"]
        raise ConfigError("config without a channel budget cannot be serialized")
    if config.description:
        out["description"] = config.description
    if config.provenance:
        out["provenance"] = dict(config.provenance)
    return out


def canonical_json(data: Mapping[str, Any]) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def config_hash(data: Mapping[str, Any]) -> str:
    return hashlib.sha256(canonical_json(data).encode()).hexdigest()


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    return config_from_dict(data)


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


def load_preset(name: str) -> ExperimentConfig:
    return config_from_dict(preset_dict(name))
