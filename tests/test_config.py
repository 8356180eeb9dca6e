"""The direct config validator against ``jsonschema`` as the oracle."""

import math
from dataclasses import fields

import jsonschema
import pytest

from dlczsim.config import CONFIG_SCHEMA, ConfigError, DetectorBench, ExperimentConfig, _validate, config_from_dict, preset_dict
from dlczsim.protocol import EnsembleParams, HeraldChoice, InterferometerParams

_NON_FINITE = [math.nan, math.inf, -math.inf]
_SCALARS = [None, "x", True, False, [], {}, 0, 1, -1, 0.5, 2.5, 5, 1e300, *_NON_FINITE]
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


def _has_non_finite(value):
    if isinstance(value, float):
        return not math.isfinite(value)
    if isinstance(value, (list, dict)):
        return any(_has_non_finite(v) for v in (value.values() if isinstance(value, dict) else value))
    return False


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


def test_validator_agrees_with_jsonschema_on_keyword_mutations():
    oracle = jsonschema.Draft7Validator(CONFIG_SCHEMA)
    checked = 0
    for base, path, probe in _keyword_mutations():
        instance = _replace(base, path, probe)
        try:
            _validate(instance, CONFIG_SCHEMA)  # validation only: some accepted probes ask for 1e300 phases
            accepted, where = True, None
        except ConfigError as exc:
            accepted, where = False, str(exc).split(":")[0].removeprefix("config field ")
        expected = oracle.is_valid(instance)
        if expected and _has_non_finite(instance):
            # the one intended difference: NaN and Infinity are not numbers here
            assert not accepted, (path, probe)
        else:
            assert accepted == expected, (path, probe)
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
    # config_from_dict passes each block's keys on as they are, so the schema
    # keys of a block are exactly its dataclass fields and the dataclass
    # defaults are the only defaults
    def names(cls):
        return {f.name for f in fields(cls)}

    props = CONFIG_SCHEMA["properties"]
    assert set(props["ensembles"]["properties"]["L"]["properties"]) == names(EnsembleParams)
    assert set(props["interferometer"]["properties"]) == names(InterferometerParams)
    assert set(props["detectors"]["properties"]) == names(DetectorBench)
    assert set(props["herald"]["properties"]) == names(HeraldChoice)
    minimal = {key: value for key, value in preset_dict("ideal").items() if key in ("schema_version", "ensembles", "channel")}
    cfg = config_from_dict(minimal)
    assert (cfg.interferometer, cfg.herald, cfg.detectors) == (InterferometerParams(), HeraldChoice(), DetectorBench())
    defaults = ExperimentConfig(cfg.left, cfg.right, cfg.budget)
    for name in ("layout", "cutoff", "trials", "seed"):
        assert getattr(cfg, name) == getattr(defaults, name)
