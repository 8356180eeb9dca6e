"""The direct config validator against ``jsonschema`` as the oracle."""

import math
import sys
from dataclasses import fields, replace

import jsonschema
import numpy as np
import pytest

from dlczsim.config import (
    CONFIG_SCHEMA,
    ChannelSide,
    ConfigError,
    DetectorBench,
    ExperimentConfig,
    _validate,
    config_from_dict,
    preset_dict,
)
from dlczsim.protocol import EnsembleParams, HeraldChoice, InterferometerParams
from dlczsim.tomography import EfficiencyModel

_NON_FINITE = [math.nan, math.inf, -math.inf]
_SCALARS = [None, "x", True, False, [], {}, 0, 1, -1, 0.5, 2.5, 5, 1e300, 10**400, -(10**400), *_NON_FINITE]
_BOUNDS = ("minimum", "maximum", "exclusiveMinimum", "exclusiveMaximum")


def _type_matches(option, value):
    return isinstance(value, list) if option["type"] == "array" else isinstance(value, dict)


def _variants(schema, value, path=()):
    """(path, replacement) pairs: values that probe each keyword of ``schema``
    on both sides, at this position and at every position below it."""
    for probe in _SCALARS:
        yield path, probe
    if "oneOf" in schema:
        option = next(option for option in schema["oneOf"] if _type_matches(option, value))
        yield from _variants(option, value, path)
        return
    for keyword in _BOUNDS:
        if keyword in schema:
            bound = schema[keyword]
            for probe in (bound, float(bound), bound - 1, bound + 1, bound - 1e-9, bound + 1e-9):
                yield path, probe
    if "const" in schema:
        for probe in (schema["const"], float(schema["const"]), schema["const"] + 1):
            yield path, probe
    for probe in schema.get("enum", []):
        yield path, probe
    if isinstance(value, list):
        yield path, value[:-1]
        yield path, value + value[-1:]
        items = schema["items"]
        for index, item in enumerate(value):
            for sub_path, probe in _variants(items[index] if isinstance(items, list) else items, item, (index,)):
                yield path, _replace(value, sub_path, probe)
    if isinstance(value, dict):
        yield path, {**value, "unexpected": 1}
        for key in value:
            yield path, {k: v for k, v in value.items() if k != key}
        for key, sub in schema.get("properties", {}).items():
            if key in value:
                yield from _variants(sub, value[key], (*path, key))


def _replace(container, path, probe):
    if not path:
        return probe
    head, rest = path[0], path[1:]
    if isinstance(container, list):
        return [_replace(item, rest, probe) if i == head else item for i, item in enumerate(container)]
    return {**container, head: _replace(container[head], rest, probe)}


def _base_config():
    return {
        **preset_dict("paper"),
        "fringe_phases": [0.0, 1.0, 2.0, 3.0, 4.0],
        "description": "d",
        "provenance": {"chi": "calibrated"},
    }


def _keyword_mutations():
    base = _base_config()
    yield from ((base, path, probe) for path, probe in _variants(CONFIG_SCHEMA, base))
    # the other branch of the one oneOf
    ranged = {**base, "fringe_phases": {"num": 13, "start": 0.0, "stop": 1.0}}
    schema = {**CONFIG_SCHEMA, "properties": {"fringe_phases": CONFIG_SCHEMA["properties"]["fringe_phases"]}}
    yield from ((ranged, path, probe) for path, probe in _variants(schema, ranged) if path)


def _float_number_type(validator, types, instance, schema):
    """Draft 7's ``type`` with the one intended difference: a ``number`` must fit
    a float, so NaN, Infinity and integers beyond the float range are not numbers
    here (an ``integer`` may be any size)."""
    yield from jsonschema.Draft7Validator.VALIDATORS["type"](validator, types, instance, schema)
    if types == "number" and validator.is_type(instance, "number") and not abs(instance) <= sys.float_info.max:
        yield jsonschema.ValidationError(f"{instance!r} does not fit a float")


_ORACLE = jsonschema.validators.extend(jsonschema.Draft7Validator, validators={"type": _float_number_type})


def test_validator_agrees_with_jsonschema_on_keyword_mutations():
    oracle = _ORACLE(CONFIG_SCHEMA)
    checked = 0
    for base, path, probe in _keyword_mutations():
        instance = _replace(base, path, probe)
        try:
            _validate(instance, CONFIG_SCHEMA)  # validation only: some accepted probes ask for 1e300 phases
            accepted, where = True, None
        except ConfigError as exc:
            accepted, where = False, str(exc).split(":")[0].removeprefix("config field ")
        assert accepted == oracle.is_valid(instance), (path, probe)
        if not accepted and path:
            # the reported field lies at or below the mutated one
            assert (where + "/").startswith("/".join(map(str, path)) + "/"), (path, probe, where)
        checked += 1
    assert checked > 1000


@pytest.mark.parametrize("phases", [{"num": 4}, [0.0, 1.0, 2.0, 3.0]])
def test_validator_names_the_fringe_phase_field(phases):
    with pytest.raises(ConfigError, match="config field fringe_phases"):
        config_from_dict({**_base_config(), "fringe_phases": phases})


def test_config_blocks_are_the_dataclass_fields():
    # config_from_dict passes each block's keys on as they are, so each schema
    # block is the one its dataclass builds from its fields, and the dataclass
    # defaults are the only defaults
    props = CONFIG_SCHEMA["properties"]
    assert props["ensembles"]["properties"]["L"] is props["ensembles"]["properties"]["R"] is EnsembleParams.SCHEMA
    assert props["interferometer"] is InterferometerParams.SCHEMA
    assert props["detectors"] is DetectorBench.SCHEMA
    assert props["herald"] is HeraldChoice.SCHEMA
    assert props["channel"]["properties"]["L"] is props["channel"]["properties"]["R"] is ChannelSide.SCHEMA
    # the top-level keys are ExperimentConfig's own fields
    top = {f.name: f for f in fields(ExperimentConfig) if f.metadata}
    assert list(top) == ["cutoff", "trials", "seed", "layout", "fringe_phases"]
    for name, f in top.items():
        assert props[name] == f.metadata
    minimal = {key: value for key, value in preset_dict("ideal").items() if key in ("schema_version", "ensembles", "channel")}
    cfg = config_from_dict(minimal)
    assert (cfg.interferometer, cfg.herald, cfg.detectors) == (InterferometerParams(), HeraldChoice(), DetectorBench())
    assert cfg == ExperimentConfig(cfg.left, cfg.right, cfg.budget)
    assert cfg.fringe_phases == config_from_dict({**minimal, "fringe_phases": {"num": 13}}).fringe_phases


_BLOCKS = {  # block -> (a dataclass instance of it, its schema)
    "ensemble": (EnsembleParams(chi=0.1), CONFIG_SCHEMA["properties"]["ensembles"]["properties"]["L"]),
    "interferometer": (InterferometerParams(), CONFIG_SCHEMA["properties"]["interferometer"]),
    "herald": (HeraldChoice(), CONFIG_SCHEMA["properties"]["herald"]),
    "detectors": (DetectorBench(), CONFIG_SCHEMA["properties"]["detectors"]),
    "efficiency_model": (EfficiencyModel(), EfficiencyModel.SCHEMA),
}


def _invalid_values(schema):
    """A mistyped value; for a number a bool, NaN, the infinities and integers
    no float holds; and a value beyond each bound."""
    yield "0.5"
    if schema.get("type") == "number":
        yield from (True, *_NON_FINITE, 10**400, -(10**400))
    for keyword, beyond in (("minimum", -0.5), ("maximum", 0.5), ("exclusiveMinimum", 0), ("exclusiveMaximum", 0)):
        if keyword in schema:
            yield schema[keyword] + beyond


@pytest.mark.parametrize("block", list(_BLOCKS))
def test_config_dataclasses_check_their_fields_against_the_block_schema(block):
    instance, schema = _BLOCKS[block]
    checked = 0
    for name, sub in schema["properties"].items():
        for value in _invalid_values(sub):
            with pytest.raises(ConfigError, match=f"^config field {name}: "):
                replace(instance, **{name: value})
            checked += 1
        if sub.get("type") == "number":
            # a numpy scalar is checked as the number it holds; a numpy bool is no number
            for value, scalar in ((0, np.int64), (1, np.int64), (0.5, np.float32), (math.inf, np.float32)):
                try:
                    replace(instance, **{name: value})
                except ConfigError:
                    with pytest.raises(ConfigError, match=f"^config field {name}: "):
                        replace(instance, **{name: scalar(value)})
                else:
                    assert getattr(replace(instance, **{name: scalar(value)}), name) == value
            with pytest.raises(ConfigError, match=f"^config field {name}: np.True_ is not of type 'number'"):
                replace(instance, **{name: np.bool_(True)})
    assert checked >= 2 * len(schema["properties"])
