import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
import numpy as np
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import dlczsim
from dlczsim.cli import EXIT_CONFIG, EXIT_FIT, EXIT_INTEGRITY, EXIT_PHYSICS, _csv_cell, _round_floats, main
from dlczsim.config import (
    CONFIG_SCHEMA,
    ConfigError,
    config_from_dict,
    config_hash,
    preset_dict,
)
from dlczsim.layouts import PATTERNS
from dlczsim.pipeline import full_experiment
from dlczsim.tomography import arm_clicks

from helpers import ideal_config_dict, load_preset


@pytest.fixture()
def runner():
    return CliRunner()


def _run(runner, args):
    return runner.invoke(main, args, catch_exceptions=False)


def _data_files(path: Path):
    return sorted(p for p in path.iterdir() if p.name != "manifest.json")


# ---------------------------------------------------------------------------
# configuration schema


def test_schema_rejects_unknown_keys():
    data = ideal_config_dict()
    data["unexpected"] = 1
    with pytest.raises(ConfigError, match="unexpected"):
        config_from_dict(data)


def test_schema_reports_field_path():
    data = ideal_config_dict()
    data["ensembles"]["L"]["chi"] = 1.5
    with pytest.raises(ConfigError, match="ensembles/L/chi"):
        config_from_dict(data)


def test_presets_load_and_differ():
    paper = preset_dict("paper")
    w120 = preset_dict("paper_w120")
    assert paper["ensembles"]["L"]["chi"] != w120["ensembles"]["L"]["chi"]
    cfg = load_preset("paper")
    assert cfg.budget is not None
    assert abs(cfg.interferometer.bs1_T - 0.85 / 1.85) < 1e-12


# ---------------------------------------------------------------------------
# commands


def test_simulate_outputs_and_determinism(runner, tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(ideal_config_dict(trials=20000, layout="fringe")))
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    for out in (out1, out2):
        result = _run(runner, ["simulate", "--config", str(cfg_path), "--out", str(out), "--layout", "both"])
        assert result.exit_code == 0, result.output
    names = {p.name for p in _data_files(out1)}
    assert {"state_z2.json", "probs_diagonal.csv", "probs_fringe.csv", "counts_diagonal.csv", "counts_fringe.json"} <= names
    for p in _data_files(out1):
        assert p.read_bytes() == (out2 / p.name).read_bytes(), f"nondeterministic output {p.name}"
    manifest = json.loads((out1 / "manifest.json").read_text())
    for entry in manifest["outputs"]:
        digest = hashlib.sha256((out1 / entry["path"]).read_bytes()).hexdigest()
        assert digest == entry["sha256"]


def test_simulate_fringe_rows(runner, tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(ideal_config_dict(trials=0)))
    out = tmp_path / "run"
    result = _run(runner, ["simulate", "--config", str(cfg_path), "--out", str(out)])
    assert result.exit_code == 0
    rows = (out / "probs_fringe.csv").read_text().strip().splitlines()
    assert len(rows) - 1 == 13 * 8  # 13 phase points, 8 patterns each
    probs = {}
    for line in rows[1:]:
        phi, bits, p = line.split(",")
        probs.setdefault(phi, 0.0)
        probs[phi] += float(p)
    assert all(abs(total - 1.0) < 1e-9 for total in probs.values())


def test_fringe_scan_emits_both_heralds(runner, tmp_path):
    out = tmp_path / "scan"
    result = _run(runner, ["fringe-scan", "--preset", "ideal", "--out", str(out), "--trials", "130000"])
    assert result.exit_code == 0, result.output
    rows = (out / "fringe_scan.csv").read_text().strip().splitlines()
    assert len(rows) - 1 == 26  # 13 points per herald
    fits = json.loads((out / "fringe_fits.json").read_text())
    assert fits["D1a"]["visibility"] > 0.99
    assert fits["phase_offset_minus_pi"] < 0.05


def test_fringe_scan_reference_regime_visibility(runner, tmp_path):
    out = tmp_path / "scan-paper"
    result = _run(runner, ["fringe-scan", "--preset", "paper", "--out", str(out), "--trials", "1300000"])
    assert result.exit_code == 0, result.output
    fits = json.loads((out / "fringe_fits.json").read_text())
    for which in ("D1a", "D1b"):
        assert abs(fits[which]["visibility"] - 0.70) < 0.02 + 4.0 * fits[which]["sigma_visibility"]
    assert fits["phase_offset_minus_pi"] < 0.1


def test_analyze_round_trip_and_exit_codes(runner, tmp_path):
    sim_out = tmp_path / "sim"
    result = _run(
        runner,
        ["simulate", "--preset", "paper", "--out", str(sim_out), "--layout", "both", "--trials", "400000"],
    )
    assert result.exit_code == 0, result.output
    ana_out = tmp_path / "ana"
    result = _run(
        runner,
        ["analyze", "--preset", "paper", "--records", str(sim_out), "--out", str(ana_out), "--plane", "z2", "--mle"],
    )
    assert result.exit_code == 0, result.output
    payload = json.loads((ana_out / "tomography_result.json").read_text())
    # published-regime numbers come back out of the synthetic records
    sig = payload["sigmas"]
    assert abs(payload["populations"]["p10"] - 7.38e-3) < 5.0 * sig["p10"]
    assert abs(payload["populations"]["p01"] - 7.51e-3) < 5.0 * sig["p01"]
    assert abs(payload["visibility"]["visibility"] - 0.70) < 5.0 * payload["visibility"]["sigma_visibility"]
    conc = payload["concurrence"]["concurrence"]
    assert 1.0e-3 < conc < 4.0e-3
    assert 0.2 < payload["witnesses"]["h_c2"] < 0.45
    assert payload["mle"]["log_likelihood"] >= payload["mle"]["log_likelihood_two_stage"] - 1e-6
    planes = payload["planes"]
    assert "z2" in planes
    assert 0.010 < planes["z2"]["concurrence"]["concurrence"] < 0.035
    csv_rows = (ana_out / "concurrence_planes.csv").read_text().strip().splitlines()
    assert csv_rows[0].startswith("plane,herald,concurrence")
    assert len(csv_rows) == 3  # header + detectors + z2


def test_analyze_ideal_preset_records(runner, tmp_path):
    # the lossless heralded state has p00 ~ 0, at the edge of the model's
    # range: the full coherence inversion must still quote a finite, positive
    # sigma_|d| from its closed-form slope partials, and the MLE's p00, a
    # convergence residue, reads 0
    sim_out = tmp_path / "sim"
    assert _run(runner, ["simulate", "--preset", "ideal", "--layout", "both", "--seed", "11", "--out", str(sim_out)]).exit_code == 0
    ana_out = tmp_path / "ana"
    result = _run(runner, ["analyze", "--preset", "ideal", "--records", str(sim_out), "--mle", "--out", str(ana_out)])
    assert result.exit_code == 0, result.output
    payload = json.loads((ana_out / "tomography_result.json").read_text())
    assert payload["coherence"]["mode"] == "full"
    assert 0.0 < payload["coherence"]["sigma"] < 0.01
    assert payload["mle"]["restricted"]["p00"] == 0.0


def test_analyze_ideal_preset_without_vacuum_events(runner, tmp_path):
    # lossless records hold no (0,0) event; p00 ~ 0 is clamped and flagged,
    # not rejected as inconsistent counts
    sim_out = tmp_path / "sim"
    assert _run(runner, ["simulate", "--preset", "ideal", "--layout", "both", "--seed", "3", "--out", str(sim_out)]).exit_code == 0
    ana_out = tmp_path / "ana"
    result = _run(runner, ["analyze", "--preset", "ideal", "--records", str(sim_out), "--out", str(ana_out)])
    assert result.exit_code == 0, result.output
    payload = json.loads((ana_out / "tomography_result.json").read_text())
    assert "clamped_p00" in payload["flags"]
    assert payload["populations"]["p00"] == 0.0 < payload["sigmas"]["p00"]


def test_analyze_concurrence_planes_csv_holds_numbers(runner, tmp_path):
    sim_out, ana_out = tmp_path / "sim", tmp_path / "ana"
    assert _run(runner, ["simulate", "--preset", "paper", "--layout", "both", "--trials", "400000", "--out", str(sim_out)]).exit_code == 0
    result = _run(runner, ["analyze", "--preset", "paper", "--records", str(sim_out), "--plane", "z2", "--out", str(ana_out)])
    assert result.exit_code == 0, result.output
    with (ana_out / "concurrence_planes.csv").open(newline="") as fh:
        header, *rows = csv.reader(fh)
    assert len(rows) == 2
    for row in rows:
        for column, cell in zip(header, row, strict=True):
            if column not in ("plane", "herald"):
                float(cell)  # raises on anything but a number


_MALFORMED_RECORDS = {  # case -> (record, expected message)
    "negative_count": ({"detector_ids": ["D2a", "D2b", "D2c"], "trials": 10, "tally": {"000": 15, "100": -5}}, "negative count"),
    "zero_trials": ({"detector_ids": ["D2a", "D2b", "D2c"], "trials": 0, "tally": {"000": 0}}, "trials must be >= 1"),
    "non_binary_bits": ({"detector_ids": ["D2a", "D2b", "D2c"], "trials": 10, "tally": {"020": 10}}, "bits other than 0/1"),
    "missing_tally": ({"detector_ids": ["D2a", "D2b", "D2c"], "trials": 10}, "counts.json: field 0: 'tally' is a required property"),
    "string_trials": ({"detector_ids": ["D2a", "D2b", "D2c"], "trials": "10", "tally": {"000": 10}}, "wrong type"),
    "tally_list": ({"detector_ids": ["D2a", "D2b", "D2c"], "trials": 10, "tally": [["000", 10]]}, "counts.json: field 0/tally: [['000', 10]] is not of type 'object'"),
    "unknown_detector": ({"detector_ids": ["D2a", "D2b", "D3"], "trials": 10, "tally": {"000": 10}}, "are not D2a, D2b, D2c"),
    "detector_ids_string": ({"detector_ids": "D2a", "trials": 10, "tally": {"000": 10}}, "counts.json: field 0/detector_ids: 'D2a' is not of type 'array'"),
    "null_detector_id": ({"detector_ids": ["D2a", None, "D2c"], "trials": 10, "tally": {"000": 10}}, "counts.json: record 0: detector ids ('D2a', None, 'D2c') are not all strings"),
    "integer_detector_id": ({"detector_ids": ["D2a", 5, "D2c"], "trials": 10, "tally": {"000": 10}}, "counts.json: record 0: detector ids ('D2a', 5, 'D2c') are not all strings"),
    "string_seed": ({"detector_ids": ["D2a", "D2b", "D2c"], "trials": 10, "tally": {"000": 10}, "seed": "x"}, "seed 'x' is not a non-negative integer"),
    "negative_seed": ({"detector_ids": ["D2a", "D2b", "D2c"], "trials": 10, "tally": {"000": 10}, "seed": -1}, "seed -1 is not a non-negative integer"),
    "bool_seed": ({"detector_ids": ["D2a", "D2b", "D2c"], "trials": 10, "tally": {"000": 10}, "seed": True}, "seed True is not a non-negative integer"),
}


_CSV_HEADER = b"phase_phi_radians,pattern_bits,count,trials,seed\n"
# case -> (file name, file bytes, expected message): each record above as a
# one-record array, top-level JSON that is not a non-empty array of record
# objects, and files that are not UTF-8 or that no parser reads
_MALFORMED_RECORD_FILES = {
    **{case: ("counts.json", json.dumps([record]).encode(), message) for case, (record, message) in _MALFORMED_RECORDS.items()},
    "top_level_number": ("counts.json", b"5", "counts.json: field <root>: 5 is not of type 'array'"),
    "top_level_object": ("counts.json", b'{"a": 1}', "counts.json: field <root>: {'a': 1} is not of type 'array'"),
    "no_records": ("counts.json", b"[]", "counts.json: field <root>: [] has 0 items, not 1 to inf"),
    "json_not_utf8": ("counts.json", b'[{"detector_ids": ["D2\xe1"]}]', "counts.json: invalid JSON ('utf-8' codec can't decode byte 0xe1"),
    "json_nested_deep": ("counts.json", b"[" * 100_000 + b"]" * 100_000, "counts.json: invalid JSON (maximum recursion depth exceeded"),
    "csv_not_utf8": ("counts.csv", _CSV_HEADER + b",000,10,10,\xe1\n", "counts.csv: invalid CSV ('utf-8' codec can't decode byte 0xe1"),
    "csv_field_beyond_limit": ("counts.csv", _CSV_HEADER + b",000,10,10," + b"1" * 200_000, "counts.csv: invalid CSV (field larger than field limit"),
    "csv_negative_count": ("counts.csv", _CSV_HEADER + b",000,15,10,\n,100,-5,10,\n", "counts.csv: record 0: pattern (1, 0, 0) has negative count -5"),
    "csv_bit_two": ("counts.csv", _CSV_HEADER + b",200,10,10,\n", "counts.csv: record 0: pattern (2, 0, 0) has bits other than 0/1"),
}


@pytest.mark.parametrize("case", list(_MALFORMED_RECORD_FILES))
def test_analyze_malformed_record_exits_integrity_code(runner, tmp_path, case):
    name, payload, message = _MALFORMED_RECORD_FILES[case]
    records = tmp_path / name
    records.write_bytes(payload)
    result = runner.invoke(
        main,
        ["analyze", "--preset", "paper", "--diag", str(records), "--fringe", str(records), "--out", str(tmp_path / "o")],
    )
    assert result.exit_code == EXIT_INTEGRITY, result.output
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert result.output.startswith("error: ") and message in result.output
    assert len(result.output.splitlines()) == 1


@pytest.fixture(scope="module")
def paper_records(tmp_path_factory):
    """The diagonal and fringe JSON records of one ``paper`` simulation."""
    out = tmp_path_factory.mktemp("sim")
    args = ["simulate", "--preset", "paper", "--seed", "3", "--trials", "200000", "--layout", "both", "--out", str(out)]
    assert CliRunner().invoke(main, args).exit_code == 0
    return [json.loads((out / f"counts_{layout}.json").read_text()) for layout in ("diagonal", "fringe")]


def _corrupt(case: str, diag: list, fringe: list) -> None:
    tally = diag[0]["tally"]
    if case == "count_beyond_int64":
        tally["000"] += 2**63
        diag[0]["trials"] += 2**63
    elif case == "fractional_counts":
        tally["000"] -= 0.5
        tally["100"] += 0.5
    elif case == "fringe_record_in_diagonal_file":
        diag.append(fringe[0])
    else:
        fringe[0]["phase_phi_radians"] = {"phase_text": "abc", "phase_infinite": math.inf, "phase_nan": math.nan, "phase_huge_int": 10**400}[case]


_CORRUPTED_RECORDS = {  # case -> expected message
    "count_beyond_int64": "trials must be >= 1 and <= 9223372036854775807",
    "fractional_counts": "count of (0, 0, 0) has the wrong type",
    "phase_text": "phase 'abc' is not a finite real number",
    "phase_infinite": "phase inf is not a finite real number",
    "phase_nan": "phase nan is not a finite real number",
    "phase_huge_int": f"phase {10**400} is not a finite real number",  # beyond the float range
    "fringe_record_in_diagonal_file": "records describe different measurement settings",
}


@pytest.mark.parametrize("case", list(_CORRUPTED_RECORDS))
def test_analyze_corrupted_simulated_records_exit_integrity_code(runner, tmp_path, paper_records, case):
    diag, fringe = json.loads(json.dumps(paper_records))  # a deep copy
    _corrupt(case, diag, fringe)
    for name, records in (("diag", diag), ("fringe", fringe)):
        (tmp_path / f"{name}.json").write_text(json.dumps(records))
    args = ["analyze", "--preset", "paper", "--diag", str(tmp_path / "diag.json"), "--fringe", str(tmp_path / "fringe.json")]
    result = runner.invoke(main, [*args, "--out", str(tmp_path / "o")])
    assert result.exit_code == EXIT_INTEGRITY, result.output
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert "error:" in result.output and _CORRUPTED_RECORDS[case] in result.output


@pytest.mark.parametrize("mode, message", [("simplified", "h ratio undefined"), ("full", "model slope undefined")])
def test_analyze_undefined_witness_exits_fit_code(runner, tmp_path, paper_records, mode, message):
    # every D2a click moved into its no-click pattern: the inversion clamps p10 to 0
    diag, fringe = json.loads(json.dumps(paper_records))  # a deep copy
    tally = diag[0]["tally"]
    for bits in [bits for bits in tally if bits[0] == "1"]:
        tally["0" + bits[1:]] += tally.pop(bits)
    for name, records in (("diag", diag), ("fringe", fringe)):
        (tmp_path / f"{name}.json").write_text(json.dumps(records))
    args = ["analyze", "--preset", "paper", "--coherence-mode", mode, "--diag", str(tmp_path / "diag.json"), "--fringe", str(tmp_path / "fringe.json")]
    result = runner.invoke(main, [*args, "--out", str(tmp_path / "o")])
    assert result.exit_code == EXIT_FIT, result.output
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert "error:" in result.output and message in result.output


def _permuted(record: dict, order=(2, 0, 1)) -> dict:
    """A JSON count record with its detectors listed in ``order``."""
    tally = {"".join(bits[k] for k in order): n for bits, n in record["tally"].items()}
    return {**record, "detector_ids": [record["detector_ids"][k] for k in order], "tally": tally}


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=4,
)
_RECORD_FIELDS = [("detector_ids",), *(("detector_ids", k) for k in range(3)), ("trials",), ("tally",), ("seed",), ("phase_phi_radians",)]


def _replace(document, path: tuple, value) -> None:
    for key in path[:-1]:
        document = document[key]
    document[path[-1]] = value


def _write_inputs(work: Path, files: dict) -> list[str]:
    """Write each JSON document (option -> document) to ``work``; the options that name them."""
    options = []
    for option, document in files.items():
        path = work / f"{option}.json"
        path.write_text(json.dumps(document))
        options += [f"--{option}", str(path)]
    return options


def _key_paths(document: dict, depth: int = 2, path: tuple = ()):
    """The paths of the keys of ``document`` and of its nested objects, ``depth`` levels deep."""
    for key, value in document.items():
        yield (*path, key)
        if isinstance(value, dict) and depth > 1:
            yield from _key_paths(value, depth - 1, (*path, key))


# every input file ends analyze and backprop with exit 0 or a documented code, never a traceback
@settings(max_examples=50, deadline=None)
@given(layout=st.sampled_from(["diag", "fringe"]), index=st.integers(0, 12), field=st.sampled_from(_RECORD_FIELDS), value=_JSON_VALUES)
def test_no_record_file_ends_in_a_traceback(paper_records, layout, index, field, value):
    files = dict(zip(["diag", "fringe"], json.loads(json.dumps(paper_records))))  # a deep copy
    _replace(files[layout][index % len(files[layout])], field, value)
    with tempfile.TemporaryDirectory() as work:
        result = CliRunner().invoke(main, ["analyze", "--preset", "paper", *_write_inputs(Path(work), files), "--out", f"{work}/o"])
    assert result.exit_code in (0, EXIT_INTEGRITY, EXIT_FIT, EXIT_PHYSICS), result.output
    assert result.exception is None or isinstance(result.exception, SystemExit), repr(result.exception)


@pytest.fixture(scope="module")
def paper_result(paper_records, tmp_path_factory):
    """The tomography_result.json document of ``analyze`` on the ``paper`` records."""
    work = tmp_path_factory.mktemp("ana")
    args = ["analyze", "--preset", "paper", *_write_inputs(work, dict(zip(["diag", "fringe"], paper_records))), "--out", str(work)]
    assert CliRunner().invoke(main, args).exit_code == 0
    return json.loads((work / "tomography_result.json").read_text())


@settings(max_examples=80, deadline=None)
@given(data=st.data(), value=_JSON_VALUES)
def test_no_result_file_ends_in_a_traceback(paper_result, data, value):
    document = json.loads(json.dumps(paper_result))  # a deep copy
    _replace(document, data.draw(st.sampled_from(sorted(_key_paths(document)))), value)
    with tempfile.TemporaryDirectory() as work:
        result = CliRunner().invoke(main, ["backprop", "--preset", "paper", *_write_inputs(Path(work), {"result": document}), "--out", f"{work}/o"])
    assert result.exit_code in (0, EXIT_INTEGRITY, EXIT_FIT, EXIT_PHYSICS), result.output
    assert result.exception is None or isinstance(result.exception, SystemExit), repr(result.exception)


def test_analyze_records_in_another_detector_order(runner, tmp_path):
    # the JSON records declare their detector order; (D2c, D2a, D2b) must
    # analyze to the same bytes as the simulator's (D2a, D2b, D2c)
    sim_out, permuted = tmp_path / "sim", tmp_path / "permuted"
    assert _run(runner, ["simulate", "--preset", "paper", "--layout", "both", "--trials", "400000", "--out", str(sim_out)]).exit_code == 0
    permuted.mkdir()
    for name in ("counts_diagonal.json", "counts_fringe.json"):
        records = json.loads((sim_out / name).read_text())
        (permuted / name).write_text(json.dumps([_permuted(record) for record in records]))
    outputs = []
    for records_dir in (sim_out, permuted):
        out = tmp_path / f"ana_{records_dir.name}"
        args = ["analyze", "--preset", "paper", "--records", str(records_dir), "--mle", "--plane", "z2", "--out", str(out)]
        assert _run(runner, args).exit_code == 0
        outputs.append({p.name: p.read_bytes() for p in _data_files(out)})
    assert outputs[0] == outputs[1]


def test_analyze_merges_records_listed_in_different_detector_orders(runner, tmp_path):
    # one diagonal record twice, the second listed as (D2c, D2a, D2b): the
    # records are put into bench order before they merge
    sim = tmp_path / "sim"
    assert _run(runner, ["simulate", "--preset", "paper", "--layout", "both", "--seed", "3", "--out", str(sim)]).exit_code == 0
    (record,) = json.loads((sim / "counts_diagonal.json").read_text())
    outputs = []
    for name, records in (("same", [record, record]), ("mixed", [record, _permuted(record)])):
        diag, out = tmp_path / f"{name}.json", tmp_path / f"ana_{name}"
        diag.write_text(json.dumps(records))
        args = ["analyze", "--preset", "paper", "--diag", str(diag), "--fringe", str(sim / "counts_fringe.json"), "--mle", "--seed", "3"]
        result = _run(runner, [*args, "--out", str(out)])
        assert result.exit_code == 0, result.output
        outputs.append((out / "tomography_result.json").read_bytes())
    assert outputs[0] == outputs[1]


def _fresh_interpreter_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(dlczsim.__file__).parents[1]), env.get("PYTHONPATH")]))
    return env


def test_cli_commands_load_no_scipy_or_jsonschema(tmp_path):
    # one fresh interpreter runs the three commands, then lists what they imported
    sim, ana, scan = (str(tmp_path / name) for name in ("sim", "ana", "scan"))
    commands = [
        ["simulate", "--preset", "paper", "--layout", "both", "--trials", "400000", "--seed", "3", "--out", sim],
        ["analyze", "--preset", "paper", "--records", sim, "--mle", "--plane", "z2", "--seed", "3", "--out", ana],
        ["fringe-scan", "--preset", "paper", "--trials", "100000", "--seed", "3", "--out", scan],
    ]
    code = (
        "import json, sys\n"
        "from dlczsim.cli import main\n"
        "for args in json.loads(sys.argv[1]):\n"
        "    main(args=args, standalone_mode=False)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'jsonschema')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(commands)],
        env=_fresh_interpreter_env(),
        check=True,
        capture_output=True,
        text=True,
    )
    assert proc.stdout.strip().splitlines()[-1] == "[]"
    assert (tmp_path / "ana" / "tomography_result.json").exists()


def test_analyze_bytes_independent_of_hash_seed(tmp_path):
    # fresh interpreters, so that string hashing (and set order) differs
    env = _fresh_interpreter_env()
    for hash_seed in ("1", "2"):
        env["PYTHONHASHSEED"] = hash_seed
        sim, ana = tmp_path / hash_seed / "sim", tmp_path / hash_seed / "ana"
        for args in (
            ["simulate", "--preset", "paper", "--layout", "both", "--trials", "400000", "--seed", "3", "--out", str(sim)],
            ["analyze", "--preset", "paper", "--records", str(sim), "--mle", "--plane", "z2", "--seed", "3", "--out", str(ana)],
        ):
            subprocess.run([sys.executable, "-m", "dlczsim.cli", *args], env=env, check=True)
    for name in ("tomography_result.json", "concurrence_planes.csv"):
        assert (tmp_path / "1" / "ana" / name).read_bytes() == (tmp_path / "2" / "ana" / name).read_bytes(), name


_EVERY_NUMBER = """
import json
import numpy as np
from dlczsim import entanglement, pipeline
from dlczsim.config import config_from_dict, preset_dict

def hexed(obj):
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, complex):
        return [obj.real.hex(), obj.imag.hex()]
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, dict):
        return {str(key): hexed(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [hexed(value) for value in obj]
    return obj

for preset in ("paper", "ideal"):
    config = config_from_dict(preset_dict(preset))
    result = pipeline.full_experiment(config)
    diag = pipeline.sample_diagonal_records(result, config.trials, config.seed)
    fringe = pipeline.sample_fringe_records(result, config.trials, config.seed)
    analysis = entanglement.analyze_records(
        [diag], fringe, config.detectors, config.budget, herald=result.herald_which, seed=config.seed, plane="z2", mle=True
    )
    print(json.dumps(hexed({
        "herald": [result.herald_probability, dict(result.herald_patterns.items())],
        "states": [rho.matrix for rho in (result.atomic, result.z2, result.z1, result.z0)],
        "probabilities": [dict(probs.items()) for probs in (result.diagonal_probs, *(p for _, p in result.fringe_probs))],
        "records": [dict(record.items()) for record in (diag, *fringe)],
        "analysis": analysis,
    }), sort_keys=True))
"""


# OpenBLAS reads its thread count from any of these
_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# appended to a child's code: its last line is the process's thread count, or "?" without /proc
_PRINT_THREADS = """
import os
_status = "/proc/self/status"
print(next(line.split()[1] for line in open(_status) if line.startswith("Threads:")) if os.path.exists(_status) else "?")
"""


def _run_child(code: str, **threads: str) -> list[str]:
    """Runs ``code`` in a fresh interpreter with only the given thread variables set; its output lines."""
    env = _fresh_interpreter_env()
    for name in _THREAD_VARIABLES:
        env.pop(name, None)
    env.update(threads)
    return subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True).stdout.splitlines()


def test_library_numbers_independent_of_blas_threading():
    # the forward model, both samplers and the analysis chain with its MLE, each
    # number as float.hex, in fresh interpreters on one BLAS thread and on the default
    *pinned, pinned_threads = _run_child(_EVERY_NUMBER + _PRINT_THREADS, OPENBLAS_NUM_THREADS="1")
    *default, default_threads = _run_child(_EVERY_NUMBER + _PRINT_THREADS)
    assert len(pinned) == 2
    assert pinned == default
    if default_threads != "?":  # the comparison is between two threadings, not one twice
        assert pinned_threads == "1"
        assert int(default_threads) > 1 or len(os.sched_getaffinity(0)) == 1


def test_cli_runs_on_one_blas_thread_by_default():
    code = "import os\nfrom dlczsim.cli import main\nprint(os.environ.get('OPENBLAS_NUM_THREADS'))" + _PRINT_THREADS
    variable, threads = _run_child(code)
    assert variable == "1"
    if threads == "?":
        pytest.skip("no /proc/self/status to count threads")
    assert threads == "1"


@pytest.mark.parametrize("name", _THREAD_VARIABLES)
def test_cli_keeps_the_users_thread_setting(name):
    code = "import os\nfrom dlczsim.cli import main\nprint({n: os.environ.get(n) for n in %r})" % (_THREAD_VARIABLES,)
    (setting,) = _run_child(code, **{name: "2"})
    assert setting == repr({n: "2" if n == name else None for n in _THREAD_VARIABLES})


def test_package_import_loads_no_numpy():
    code = "import sys, dlczsim\nprint('numpy' in sys.modules)\nprint(all(getattr(dlczsim, n) for n in dlczsim.__all__))"
    assert _run_child(code) == ["False", "True"]


def test_analyze_requires_records(runner, tmp_path):
    result = runner.invoke(main, ["analyze", "--preset", "paper", "--out", str(tmp_path / "x")])
    assert result.exit_code == EXIT_CONFIG


def test_analyze_records_dir_without_a_count_file_exits_config_code(runner, tmp_path):
    # the default (diagonal) layout writes no fringe records
    sim_out = tmp_path / "sim"
    assert _run(runner, ["simulate", "--preset", "paper", "--trials", "20000", "--out", str(sim_out)]).exit_code == 0
    assert (sim_out / "counts_diagonal.json").exists()
    result = runner.invoke(main, ["analyze", "--preset", "paper", "--records", str(sim_out), "--out", str(tmp_path / "a")])
    assert result.exit_code == EXIT_CONFIG, result.output
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert "error:" in result.output and "counts_fringe.json" in result.output


def test_analyze_empty_record_file(runner, tmp_path):
    empty = tmp_path / "counts_diagonal.csv"
    empty.write_text("")
    fringe = tmp_path / "counts_fringe.csv"
    fringe.write_text("")
    result = runner.invoke(
        main,
        ["analyze", "--preset", "paper", "--diag", str(empty), "--fringe", str(fringe), "--out", str(tmp_path / "y")],
    )
    assert result.exit_code == EXIT_INTEGRITY


def test_analyze_illposed_fringe_exits_fit_code(runner, tmp_path):
    sim_out = tmp_path / "sim"
    assert _run(runner, ["simulate", "--preset", "ideal", "--out", str(sim_out), "--layout", "both", "--trials", "50000"]).exit_code == 0
    # truncate the fringe scan to three phases: ill-posed fit
    records = json.loads((sim_out / "counts_fringe.json").read_text())
    (sim_out / "counts_fringe.json").write_text(json.dumps(records[:3]))
    result = runner.invoke(
        main,
        ["analyze", "--preset", "ideal", "--records", str(sim_out), "--out", str(tmp_path / "z")],
    )
    assert result.exit_code == EXIT_FIT


def test_bad_config_exits_config_code(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema_version": 1}))
    result = runner.invoke(main, ["simulate", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert result.exit_code == EXIT_CONFIG


def test_removed_storage_delay_key_exits_config_code(runner, tmp_path):
    config = tmp_path / "old.json"
    config.write_text(json.dumps({**preset_dict("ideal"), "storage_delay_us": 1.0}))
    result = runner.invoke(main, ["simulate", "--config", str(config), "--out", str(tmp_path / "o")])
    assert result.exit_code == EXIT_CONFIG
    assert "storage_delay_us" in result.output


@pytest.mark.parametrize(
    "args, option",
    [
        (["simulate", "--seed", "-1"], "--seed"),
        (["simulate", "--trials", str(10**30)], "--trials"),
        (["fringe-scan", "--trials", "-5"], "--trials"),
        (["analyze", "--seed", "-1"], "--seed"),
    ],
    ids=["simulate_seed", "simulate_trials", "fringe_scan_trials", "analyze_seed"],
)
def test_out_of_range_seed_or_trials_exits_config_code(runner, tmp_path, args, option):
    result = runner.invoke(main, [*args, "--preset", "ideal", "--out", str(tmp_path / "o")])
    assert result.exit_code == EXIT_CONFIG, result.output
    assert f"Invalid value for '{option}'" in result.output
    assert isinstance(result.exception, SystemExit)  # a usage error, not a traceback
    assert not (tmp_path / "o").exists()


def test_config_trials_beyond_int64_exits_config_code(runner, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**preset_dict("ideal"), "trials": 1e30}))
    result = runner.invoke(main, ["simulate", "--config", str(config), "--out", str(tmp_path / "o")])
    assert result.exit_code == EXIT_CONFIG, result.output
    assert "config field trials: " in result.output
    assert isinstance(result.exception, SystemExit)


def test_config_seed_beyond_float_range_runs(runner, tmp_path):
    # integers are compared exactly, so a seed no float holds is valid
    config = tmp_path / "config.json"
    config.write_text(json.dumps(ideal_config_dict(trials=20000, seed=10**400)))
    result = runner.invoke(main, ["simulate", "--config", str(config), "--out", str(tmp_path / "o")])
    assert result.exit_code == 0, result.output
    records = json.loads((tmp_path / "o" / "counts_fringe.json").read_text())
    assert records and all(record["seed"] == 10**400 for record in records)


@pytest.mark.parametrize("field", ["cutoff", "trials", "seed"])
def test_integer_valued_float_matches_integer(runner, tmp_path, field):
    outputs = {}
    for form in (int, float):
        data = ideal_config_dict(trials=20000, layout="fringe")
        data[field] = form(data[field])
        config = tmp_path / f"{form.__name__}.json"
        config.write_text(json.dumps(data))
        out = tmp_path / form.__name__
        result = runner.invoke(main, ["simulate", "--config", str(config), "--layout", "both", "--out", str(out)])
        assert result.exit_code == 0, result.output
        outputs[form] = {p.name: p.read_bytes() for p in out.iterdir() if p.match("probs_*.csv") or p.match("counts_*.json")}
    assert len(outputs[int]) == 4
    assert outputs[float] == outputs[int]


@pytest.mark.parametrize("num", [1001, 1e300])
def test_fringe_phase_count_is_bounded(runner, tmp_path, num):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**preset_dict("ideal"), "fringe_phases": {"num": num}}))
    result = runner.invoke(main, ["simulate", "--config", str(config), "--out", str(tmp_path / "o")])
    assert result.exit_code == EXIT_CONFIG, result.output
    assert "config field fringe_phases/num: " in result.output


_NON_FINITE_CASES = {  # case -> (path into the preset, value, reported field)
    "chi_nan": (("ensembles", "L", "chi"), float("nan"), "ensembles/L/chi"),
    "overlap_nan": (("interferometer", "overlap"), float("nan"), "interferometer/overlap"),
    "fc_nan": (("channel", "L", "fc", 0), float("nan"), "channel/L/fc/0"),
    "eta1_infinity": (("interferometer", "eta1"), float("inf"), "interferometer/eta1"),
    "fringe_phase_nan": (("fringe_phases", 2), float("nan"), "fringe_phases/2"),
    # integers that no float holds
    "chi_huge_int": (("ensembles", "L", "chi"), 10**400, "ensembles/L/chi"),
    "eta1_huge_int": (("interferometer", "eta1"), -(10**400), "interferometer/eta1"),
    "fringe_phase_huge_int": (("fringe_phases", 0), 10**400, "fringe_phases/0"),
}


@pytest.mark.parametrize("case", list(_NON_FINITE_CASES))
def test_non_finite_config_number_exits_config_code(runner, tmp_path, case):
    path, value, field = _NON_FINITE_CASES[case]
    data = {**preset_dict("paper"), "fringe_phases": [0.0, 1.0, 2.0, 3.0, 4.0]}
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    config = tmp_path / "config.json"
    config.write_text(json.dumps(data))  # writes NaN / Infinity, which json reads back
    result = runner.invoke(main, ["simulate", "--config", str(config), "--out", str(tmp_path / "o")])
    assert result.exit_code == EXIT_CONFIG, result.output
    assert f"config field {field}: " in result.output
    assert "not a finite number" in result.output
    assert not (tmp_path / "o" / "probs_fringe.csv").exists()


def _schema_bounds():
    """(path, value) for each numeric bound of the ensembles, interferometer,
    herald and detectors schema blocks, an exclusive bound nudged 1e-9 inward."""
    blocks = CONFIG_SCHEMA["properties"]
    for path, block in [*((("ensembles", side), blocks["ensembles"]["properties"][side]) for side in ("L", "R")),
                        *(((name,), blocks[name]) for name in ("interferometer", "herald", "detectors"))]:
        for field, spec in block["properties"].items():
            for keyword, nudge in (("minimum", 0.0), ("maximum", 0.0), ("exclusiveMinimum", 1e-9), ("exclusiveMaximum", -1e-9)):
                if keyword in spec:
                    yield (*path, field), spec[keyword] + nudge


_SCHEMA_BOUNDS = list(_schema_bounds())
# channel components -> analyze's exit code: a transmission the schema accepts whose
# relative uncertainty overflows a float (no population survives back-propagation
# to z2), and an uncertainty above 1, which the schema rejects
_BUDGET_EXTREMES = {(("channel", "L", "apd"), (1e-300, 0.02)): EXIT_PHYSICS, (("channel", "L", "apd"), (0.5, 1e300)): EXIT_CONFIG}
_BOUNDS_AND_BUDGETS = [*_SCHEMA_BOUNDS, *_BUDGET_EXTREMES]
# bounds whose bench cannot be inverted: analyze's exit code and the setting its message names
_DEGENERATE_BENCHES = {("detectors", name): name for name in ("split", "bs2_T")}
# a dark source leaves p10 (L) or p01 (R) within noise of zero: the coherence or the witness is undefined
_DARK_SOURCES = {("ensembles", side, "chi") for side in "LR"}


@pytest.mark.parametrize("path, value", _BOUNDS_AND_BUDGETS, ids=[f"{'/'.join(path)}=" + ",".join(f"{v:g}" for v in np.atleast_1d(value)) for path, value in _BOUNDS_AND_BUDGETS])
def test_schema_bounds_end_with_an_exit_code(runner, tmp_path, path, value):
    # every value the schema accepts ends simulate and analyze with a
    # documented exit code and a message, never a traceback (exit 1)
    assert len(_SCHEMA_BOUNDS) >= 29
    data = preset_dict("paper")
    target = data
    for key in path[:-1]:
        target = target.setdefault(key, {})
    target[path[-1]] = value
    config = tmp_path / "config.json"
    config.write_text(json.dumps(data))
    sim, ana = tmp_path / "sim", tmp_path / "ana"
    for args, out in ((["simulate", "--layout", "both"], sim), (["analyze", "--records", str(sim), "--mle", "--plane", "z2"], ana)):
        result = runner.invoke(main, [*args, "--config", str(config), "--out", str(out)])
        assert result.exit_code in (0, EXIT_CONFIG, EXIT_INTEGRITY, EXIT_FIT, EXIT_PHYSICS), repr(result.exception)
        if result.exit_code:
            assert result.output.startswith("error: ")
            break
        assert (out / "manifest.json").exists()
    if (path[0] == "ensembles" and value == 0.0) or _BUDGET_EXTREMES.get((path, value)) == EXIT_PHYSICS:
        assert json.loads((sim / "g12.json").read_text())[path[1]]["g12"] is None
    if (path, value) in _BUDGET_EXTREMES:
        assert result.exit_code == _BUDGET_EXTREMES[path, value]
    if path in _DEGENERATE_BENCHES:
        assert result.exit_code == EXIT_FIT
        assert f"{_DEGENERATE_BENCHES[path]} = {value:g}" in result.output
    if path in _DARK_SOURCES and value == 0.0:
        assert result.exit_code == EXIT_FIT
        assert "p01" in result.output or "p10" in result.output


def test_backprop_direct_values_reproduces_published(runner, tmp_path):
    out = tmp_path / "bp"
    result = _run(
        runner,
        [
            "backprop",
            "--p00", "0.98510", "--p10", "7.38e-3", "--p01", "7.51e-3", "--p11", "1.7e-5",
            "-v", "0.70", "--plane", "z2", "--out", str(out),
        ],
    )
    assert result.exit_code == 0, result.output
    payload = json.loads((out / "backprop.json").read_text())
    z2 = payload["z2"]
    total = z2["state"]["p10"] + z2["state"]["p01"]
    assert abs(total - 0.110) < 0.005
    assert 0.015 <= z2["concurrence"]["concurrence"] <= 0.027


def test_backprop_keeps_an_exact_ideal_state(runner, tmp_path):
    # p00 = 0 through the identity budget of the ideal preset is rounding
    # residue of -1.1e-16, not an unphysical population (exit 5)
    args = ["--p00", "0", "--p01", "0.49941", "--p10", "0.49977", "--p11", "5e-4", "-v", "0.98"]
    result = _run(runner, ["backprop", "--preset", "ideal", *args, "--out", str(tmp_path / "bp")])
    assert result.exit_code == 0, result.output
    payload = json.loads((tmp_path / "bp" / "backprop.json").read_text())
    assert payload["z2"]["state"]["p00"] == 0.0


def test_backprop_unphysical_budget_exit(runner, tmp_path):
    result = runner.invoke(
        main,
        [
            "backprop",
            "--p00", "0.5", "--p10", "0.4", "--p01", "0.05", "--p11", "0.05",
            "-v", "0.1", "--plane", "z2", "--out", str(tmp_path / "bp2"),
        ],
    )
    assert result.exit_code == EXIT_PHYSICS
    # a transmission the schema accepts but no population survives: the
    # message quotes the populations in a few digits, not in hundreds
    data = preset_dict("paper")
    data["channel"]["L"]["fc"] = [1e-300, 0.0]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(data))
    result = runner.invoke(main, ["backprop", "--config", str(config), *_PUBLISHED_POPULATIONS, "-v", "0.70", "--out", str(tmp_path / "bp3")])
    assert result.exit_code == EXIT_PHYSICS, result.output
    assert result.output.startswith("error: back-propagated populations unphysical")
    assert len(result.output) < 200, result.output


_BACKPROP_POPULATIONS = ["--p10", "7.38e-3", "--p01", "7.51e-3", "--p11", "1.7e-5", "-v", "0.70"]
_PUBLISHED_POPULATIONS = ["--p00", "0.98510", "--p10", "7.38e-3", "--p01", "7.51e-3", "--p11", "1.7e-5"]
_PUBLISHED_RESULT = {"populations": {"p00": 0.98510, "p01": 7.51e-3, "p10": 7.38e-3, "p11": 1.7e-5}, "coherence": {"d_abs": 5e-3, "sigma": 1e-4}}
def _config_text(**components) -> str:
    """The ``paper`` preset with the given left-channel components, as a file's text."""
    data = preset_dict("paper")
    data["channel"]["L"].update(components)
    return json.dumps(data)


_MALFORMED_BACKPROP = {  # case -> (text of the file given to the last option or to --result, options, exit code, expected message)
    "invalid_json": ("{not json", [], EXIT_INTEGRITY, "result.json: invalid JSON"),
    "result_not_utf8": (json.dumps({**_PUBLISHED_RESULT, "herald": "D1\xe1"}, ensure_ascii=False), [], EXIT_INTEGRITY, "result.json: invalid JSON ('utf-8' codec can't decode byte 0xe1"),
    "result_nested_deep": ("[" * 100_000 + "]" * 100_000, [], EXIT_INTEGRITY, "result.json: invalid JSON (maximum recursion depth exceeded"),
    "config_not_utf8": (json.dumps({**preset_dict("paper"), "description": "caf\xe9"}, ensure_ascii=False), ["--config"], EXIT_CONFIG, "config.json: invalid JSON ('utf-8' codec can't decode byte 0xe9"),
    "config_nested_deep": ("{\"a\": " * 100_000 + "1" + "}" * 100_000, ["--config"], EXIT_CONFIG, "config.json: invalid JSON (maximum recursion depth exceeded"),
    # values the parser reads whose quotation would grow with them; in a fresh process the parser
    # reads arrays up to about 980 deep, fewer under the test runner's deeper stack
    "config_nested_array": ("[" * 500 + "]" * 500, ["--config"], EXIT_CONFIG, "config field <root>: [[[[[[[...]]]]]]] is not of type 'object'"),
    "config_long_array": (json.dumps({**preset_dict("paper"), "cutoff": [0] * 10_000}), ["--config"], EXIT_CONFIG, "config field cutoff: [0, 0, 0, 0, 0, 0, ...] is not of type 'integer'"),
    "config_many_keys": (json.dumps({**preset_dict("paper"), **{f"k{i}": 0 for i in range(2000)}}), ["--config"], EXIT_CONFIG, "config field <root>: Additional properties are not allowed ('k0', 'k1', 'k2', 'k3', 'k4', 'k5', ... unexpected)"),
    "config_long_key": (json.dumps({**preset_dict("paper"), "k" * 10_000: 0}), ["--config"], EXIT_CONFIG, "config field <root>: Additional properties are not allowed ('kkkkkkkkkkkk...kkkkkkkkkkkkk' unexpected)"),
    # a transmission the schema accepts whose relative uncertainty overflows a float: no population survives
    "budget_uncertainty_overflows": (_config_text(apd=[1e-300, 0.02]), [*_PUBLISHED_POPULATIONS, "-v", "0.70", "--config"], EXIT_PHYSICS, "back-propagated populations unphysical"),
    "budget_uncertainty_above_one": (_config_text(apd=[0.5, 1e300]), ["--config"], EXIT_CONFIG, "config field channel/L/apd/1: 1e+300 is greater than the maximum of 1"),
    "no_populations": (json.dumps({"which": "D1a", "probability": 0.17}), [], EXIT_INTEGRITY, "result.json: field <root>: 'populations' is a required property"),
    "mistyped_population": (
        json.dumps({**_PUBLISHED_RESULT, "populations": {"p00": 0.98, "p01": "7.5e-3", "p10": 7.4e-3, "p11": 1.7e-5}}),
        [], EXIT_INTEGRITY, "result.json: field populations/p01: '7.5e-3' is not of type 'number'",
    ),
    "non_finite_coherence": (
        json.dumps({"populations": {"p00": 0.98510, "p01": 7.51e-3, "p10": 7.38e-3, "p11": 1.7e-5}, "coherence": {"d_abs": math.nan, "sigma": 1e-4}}),
        [], EXIT_INTEGRITY, "result.json: field coherence/d_abs: nan is not a finite number",
    ),
    "population_beyond_float": (
        '{"populations": {"p00": 0.98510, "p01": 1%s, "p10": 7.38e-3, "p11": 1.7e-5}, "coherence": {"d_abs": 1e-3, "sigma": 1e-4}}' % ("0" * 400),
        # reprlib quotes the 401-digit integer by 40 characters
        [], EXIT_INTEGRITY, f"result.json: field populations/p01: 1{'0' * 17}...{'0' * 19} is not a finite number",
    ),
    "unknown_herald": (json.dumps({**_PUBLISHED_RESULT, "herald": {"x": [1, 2]}}), [], EXIT_INTEGRITY, "result.json: field herald: {'x': [1, 2]} is not one of ['D1a', 'D1b']"),
    "null_herald": (json.dumps({**_PUBLISHED_RESULT, "herald": None}), [], EXIT_INTEGRITY, "result.json: field herald: None is not one of ['D1a', 'D1b']"),
    "flags_not_a_list": (json.dumps({**_PUBLISHED_RESULT, "flags": "clamped_p00"}), [], EXIT_INTEGRITY, "result.json: field flags: 'clamped_p00' is not of type 'array'"),
    "flag_not_a_string": (json.dumps({**_PUBLISHED_RESULT, "flags": [1]}), [], EXIT_INTEGRITY, "result.json: field flags/0: 1 is not of type 'string'"),
    "negative_sigma": (json.dumps({**_PUBLISHED_RESULT, "sigmas": {"p00": -1.0}}), [], EXIT_INTEGRITY, "result.json: field sigmas/p00: -1.0 is less than the minimum of 0"),
    "negative_coherence_sigma": (
        json.dumps({**_PUBLISHED_RESULT, "coherence": {"d_abs": 5e-3, "sigma": -1e-4}}),
        [], EXIT_INTEGRITY, "result.json: field coherence/sigma: -0.0001 is less than the minimum of 0",
    ),
    "negative_p00": (None, ["--p00", "-0.5", *_BACKPROP_POPULATIONS], EXIT_PHYSICS, "p00 = -0.5 is negative"),
    "sum_above_one": (None, ["--p00", "0.99", *_BACKPROP_POPULATIONS], EXIT_PHYSICS, "retained probability"),
    "nan_visibility": (None, [*_PUBLISHED_POPULATIONS, "-v", "nan"], EXIT_PHYSICS, "|d| = nan is negative or not finite"),
    "negative_visibility": (None, [*_PUBLISHED_POPULATIONS, "--visibility=-0.7"], EXIT_PHYSICS, "is negative or not finite"),
}


@pytest.mark.parametrize("case", list(_MALFORMED_BACKPROP))
def test_backprop_malformed_input_exits_with_its_code(runner, tmp_path, case):
    text, options, code, message = _MALFORMED_BACKPROP[case]
    if text is not None:
        options = options or ["--result"]
        path = tmp_path / f"{options[-1].removeprefix('--')}.json"
        path.write_text(text, encoding="latin-1")  # ASCII, but for the cases that are not UTF-8
        options = [*options, str(path)]
    result = runner.invoke(main, ["backprop", *options, "--out", str(tmp_path / "bp")])
    assert result.exit_code == code, result.output
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert result.output.startswith("error: ") and message in result.output
    assert len(result.output.splitlines()) == 1
    assert len(result.output.replace(str(tmp_path), "").encode()) < 200  # the message, less the file's directory


def test_backprop_keeps_the_flags_analyze_raised(runner, tmp_path):
    # lossless records hold no vacuum event, so analyze clamps p00 and flags it
    sim_out, ana_out, bp_out = tmp_path / "sim", tmp_path / "ana", tmp_path / "bp"
    assert _run(runner, ["simulate", "--preset", "ideal", "--layout", "both", "--seed", "3", "--out", str(sim_out)]).exit_code == 0
    assert _run(runner, ["analyze", "--preset", "ideal", "--records", str(sim_out), "--out", str(ana_out)]).exit_code == 0
    result = _run(runner, ["backprop", "--preset", "ideal", "--result", str(ana_out / "tomography_result.json"), "--out", str(bp_out)])
    assert result.exit_code == 0, result.output
    flags = json.loads((ana_out / "tomography_result.json").read_text())["flags"]
    assert "clamped_p00" in flags
    planes = json.loads((bp_out / "backprop.json").read_text())
    assert set(planes) == {"detectors", "z0", "z1", "z2"}
    for entry in planes.values():
        assert set(flags) <= set(entry["state"]["flags"])


@pytest.mark.parametrize(
    "command, written",
    [(["simulate", "--layout", "both"], "probs_fringe.csv"), (["fringe-scan"], "fringe_scan.csv")],
    ids=["simulate", "fringe-scan"],
)
def test_ideal_probabilities_are_never_negative(runner, tmp_path, command, written):
    # each is Tr(E rho) of two positive operators; the lossless bench's sums
    # of its cancelling terms round to -1e-20 at phase 0 unless clipped
    out = tmp_path / "out"
    assert _run(runner, [*command, "--preset", "ideal", "--trials", "0", "--out", str(out)]).exit_code == 0
    with (out / written).open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    numbers = [float(value) for row in rows for key, value in row.items() if key not in ("pattern_bits", "herald")]
    assert len(numbers) > len(rows) and min(numbers) >= 0.0


def test_fringe_scan_without_trials_writes_the_exact_arm_probabilities(runner, tmp_path):
    out = tmp_path / "scan0"
    assert _run(runner, ["fringe-scan", "--preset", "paper", "--trials", "0", "--out", str(out)]).exit_code == 0
    with (out / "fringe_scan.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    config = load_preset("paper")
    for which in ("D1a", "D1b"):
        result = full_experiment(config, which)
        probs = np.array([[p[pattern] for pattern in PATTERNS] for _, p in result.fringe_probs])
        expected = [[_csv_cell(phi), *map(_csv_cell, arms)] for phi, arms in zip(config.fringe_phases, arm_clicks(probs))]
        written = [[row["phase_phi_radians"], row["n2a"], row["n2b_plus_n2c"]] for row in rows if row["herald"] == which]
        assert written == expected
    assert {row["trials"] for row in rows} == {"0"}
    assert not (out / "fringe_fits.json").exists()


def test_preset_w120_manifest_hash(runner, tmp_path):
    out = tmp_path / "w120"
    result = _run(runner, ["simulate", "--preset", "paper_w120", "--out", str(out), "--trials", "0"])
    assert result.exit_code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config_sha256"] == config_hash(preset_dict("paper_w120"))


_REMOVED_OPTIONS = [  # options that changed no output, now unknown to the command
    ["fringe-scan", "--herald", "d1a"],
    ["analyze", "--trials", "10"],
    ["backprop", "--seed", "1"],
    ["backprop", "--trials", "10"],
    *([command, "--window", "w120"] for command in ("simulate", "fringe-scan", "analyze", "backprop")),
]


@pytest.mark.parametrize("args", _REMOVED_OPTIONS, ids=" ".join)
def test_removed_option_is_a_usage_error(runner, tmp_path, args):
    result = runner.invoke(main, [*args, "--out", str(tmp_path / "o")])
    assert result.exit_code == EXIT_CONFIG
    assert "No such option" in result.output and args[1] in result.output
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flag", ["d1b", "D1B"])
def test_herald_flag_is_case_insensitive(runner, tmp_path, flag):
    out = tmp_path / "sim"
    assert _run(runner, ["simulate", "--preset", "ideal", "--trials", "0", "--herald", flag, "--out", str(out)]).exit_code == 0
    assert json.loads((out / "herald.json").read_text())["which"] == "D1b"


def test_numpy_scalars_write_the_bytes_of_floats():
    # a negative number of rounding size, as an unclipped sum of probabilities can be
    value = -8.128869315681114e-20
    for write in (_csv_cell, lambda x: json.dumps(_round_floats([x]))):
        assert write(np.float64(value)) == write(value)
    assert _csv_cell(np.float64(value)) == "-8.12886931568e-20"
