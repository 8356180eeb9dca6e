import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
import numpy as np
from click.testing import CliRunner

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
    # sigma_|d| from its closed-form slope partials
    sim_out = tmp_path / "sim"
    assert _run(runner, ["simulate", "--preset", "ideal", "--layout", "both", "--seed", "11", "--out", str(sim_out)]).exit_code == 0
    ana_out = tmp_path / "ana"
    result = _run(runner, ["analyze", "--preset", "ideal", "--records", str(sim_out), "--out", str(ana_out)])
    assert result.exit_code == 0, result.output
    payload = json.loads((ana_out / "tomography_result.json").read_text())
    assert payload["coherence"]["mode"] == "full"
    assert 0.0 < payload["coherence"]["sigma"] < 0.01


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
    "missing_tally": ({"detector_ids": ["D2a", "D2b", "D2c"], "trials": 10}, "has no field 'tally'"),
    "string_trials": ({"detector_ids": ["D2a", "D2b", "D2c"], "trials": "10", "tally": {"000": 10}}, "wrong type"),
    "tally_list": ({"detector_ids": ["D2a", "D2b", "D2c"], "trials": 10, "tally": [["000", 10]]}, "wrong type"),
    "unknown_detector": ({"detector_ids": ["D2a", "D2b", "D3"], "trials": 10, "tally": {"000": 10}}, "are not D2a, D2b, D2c"),
    "string_seed": ({"detector_ids": ["D2a", "D2b", "D2c"], "trials": 10, "tally": {"000": 10}, "seed": "x"}, "seed 'x' is not a non-negative integer"),
    "negative_seed": ({"detector_ids": ["D2a", "D2b", "D2c"], "trials": 10, "tally": {"000": 10}, "seed": -1}, "seed -1 is not a non-negative integer"),
    "bool_seed": ({"detector_ids": ["D2a", "D2b", "D2c"], "trials": 10, "tally": {"000": 10}, "seed": True}, "seed True is not a non-negative integer"),
}


@pytest.mark.parametrize("case", list(_MALFORMED_RECORDS))
def test_analyze_malformed_record_exits_integrity_code(runner, tmp_path, case):
    record, message = _MALFORMED_RECORDS[case]
    records = tmp_path / "counts.json"
    records.write_text(json.dumps([record]))
    result = runner.invoke(
        main,
        ["analyze", "--preset", "paper", "--diag", str(records), "--fringe", str(records), "--out", str(tmp_path / "o")],
    )
    assert result.exit_code == EXIT_INTEGRITY, result.output
    assert message in result.output


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
# bounds whose bench cannot be inverted: analyze's exit code and the setting its message names
_DEGENERATE_BENCHES = {("detectors", name): name for name in ("split", "bs2_T")}
# a dark source leaves p10 (L) or p01 (R) within noise of zero: the coherence or the witness is undefined
_DARK_SOURCES = {("ensembles", side, "chi") for side in "LR"}


@pytest.mark.parametrize("path, value", _SCHEMA_BOUNDS, ids=[f"{'/'.join(path)}={value:g}" for path, value in _SCHEMA_BOUNDS])
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
    if path[0] == "ensembles" and value == 0.0:
        assert json.loads((sim / "g12.json").read_text())[path[1]]["g12"] is None
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
_MALFORMED_BACKPROP = {  # case -> (result file text or None, options, exit code, expected message)
    "invalid_json": ("{not json", [], EXIT_INTEGRITY, "invalid JSON"),
    "no_populations": (json.dumps({"which": "D1a", "probability": 0.17}), [], EXIT_INTEGRITY, "no field populations"),
    "mistyped_population": (
        json.dumps({"populations": {"p00": 0.98, "p01": "7.5e-3", "p10": 7.4e-3, "p11": 1.7e-5}}),
        [], EXIT_INTEGRITY, "field populations.p01 is not a number",
    ),
    "non_finite_coherence": (
        json.dumps({"populations": {"p00": 0.98510, "p01": 7.51e-3, "p10": 7.38e-3, "p11": 1.7e-5}, "coherence": {"d_abs": math.nan, "sigma": 1e-4}}),
        [], EXIT_INTEGRITY, "field coherence.d_abs is not a finite number",
    ),
    "population_beyond_float": (
        '{"populations": {"p00": 0.98510, "p01": 1%s, "p10": 7.38e-3, "p11": 1.7e-5}, "coherence": {"d_abs": 1e-3, "sigma": 1e-4}}' % ("0" * 400),
        [], EXIT_INTEGRITY, "field populations.p01 is not a finite number",
    ),
    "unknown_herald": (json.dumps({**_PUBLISHED_RESULT, "herald": {"x": [1, 2]}}), [], EXIT_INTEGRITY, "field herald is not D1a or D1b"),
    "null_herald": (json.dumps({**_PUBLISHED_RESULT, "herald": None}), [], EXIT_INTEGRITY, "field herald is not D1a or D1b"),
    "flags_not_a_list": (json.dumps({**_PUBLISHED_RESULT, "flags": "clamped_p00"}), [], EXIT_INTEGRITY, "field flags is not a list of strings"),
    "flag_not_a_string": (json.dumps({**_PUBLISHED_RESULT, "flags": [1]}), [], EXIT_INTEGRITY, "field flags is not a list of strings"),
    "negative_sigma": (json.dumps({**_PUBLISHED_RESULT, "sigmas": {"p00": -1.0}}), [], EXIT_INTEGRITY, "field sigmas.p00 is negative"),
    "negative_coherence_sigma": (
        json.dumps({**_PUBLISHED_RESULT, "coherence": {"d_abs": 5e-3, "sigma": -1e-4}}),
        [], EXIT_INTEGRITY, "field coherence.sigma is negative",
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
        result_file = tmp_path / "result.json"
        result_file.write_text(text)
        options = ["--result", str(result_file)]
    result = runner.invoke(main, ["backprop", *options, "--out", str(tmp_path / "bp")])
    assert result.exit_code == code, result.output
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert "error:" in result.output and message in result.output


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
    # fringe-scan --trials 0 --preset ideal: D1a, phase 0, n2b_plus_n2c
    value = -8.128869315681114e-20
    for write in (_csv_cell, lambda x: json.dumps(_round_floats([x]))):
        assert write(np.float64(value)) == write(value)
    assert _csv_cell(np.float64(value)) == "-8.12886931568e-20"
