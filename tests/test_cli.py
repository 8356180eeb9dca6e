import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import dlczsim
from dlczsim.cli import EXIT_CONFIG, EXIT_FIT, EXIT_INTEGRITY, EXIT_PHYSICS, main
from dlczsim.config import (
    ConfigError,
    config_from_dict,
    config_hash,
    config_to_dict,
    load_preset,
    preset_dict,
)

from helpers import ideal_config_dict


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


def test_config_round_trip_idempotent():
    config = config_from_dict(ideal_config_dict())
    once = config_to_dict(config)
    twice = config_to_dict(config_from_dict(once))
    assert once == twice
    assert config_hash(once) == config_hash(twice)


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
    # the lossless heralded state has p00 ~ 0, so the numeric partials of the
    # full coherence inversion must not step the model's implicit p00 below 0
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


_MALFORMED_RECORDS = {  # case -> (record, expected message)
    "negative_count": ({"detector_ids": ["D2a", "D2b", "D2c"], "trials": 10, "tally": {"000": 15, "100": -5}}, "negative count"),
    "zero_trials": ({"detector_ids": ["D2a", "D2b", "D2c"], "trials": 0, "tally": {"000": 0}}, "trials must be >= 1"),
    "non_binary_bits": ({"detector_ids": ["D2a", "D2b", "D2c"], "trials": 10, "tally": {"020": 10}}, "bits other than 0/1"),
    "missing_tally": ({"detector_ids": ["D2a", "D2b", "D2c"], "trials": 10}, "has no field 'tally'"),
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


def _fresh_interpreter_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(dlczsim.__file__).parents[1]), env.get("PYTHONPATH")]))
    return env


def test_cli_import_loads_no_scipy():
    code = "import sys, dlczsim.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=_fresh_interpreter_env(), check=True, capture_output=True, text=True
    )
    assert proc.stdout.strip() == "[]"


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


def test_window_flag_selects_variant(runner, tmp_path):
    out = tmp_path / "w120"
    result = _run(runner, ["simulate", "--window", "w120", "--out", str(out), "--trials", "0"])
    assert result.exit_code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config_sha256"] == config_hash(preset_dict("paper_w120"))
