"""``tools/compare_outputs.py`` names every difference between two trees'
data files: numbers by their largest relative difference, and changed text,
added and removed leaves, and files of one tree only, by path; and the
new tree reruns the inverse's commands on the reference tree's records."""

import importlib.util
import json
import sys
from pathlib import Path

COMPARE = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"


def _compare_module():
    spec = importlib.util.spec_from_file_location("compare_outputs", COMPARE)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no cache files beside the tool
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def _verdict(tmp_path, old, new):
    (tmp_path / "old.json").write_text(json.dumps(old))
    (tmp_path / "new.json").write_text(json.dumps(new))
    return _compare_module().compare(tmp_path / "old.json", tmp_path / "new.json")


def test_dropped_list_element_is_named_by_path(tmp_path):
    verdict = _verdict(
        tmp_path,
        {"p00": 0.5, "flags": ["clamped_p00", "coherence_clamped"]},
        {"p00": 0.5, "flags": ["coherence_clamped"]},
    )
    assert verdict == "rest max rel diff 0.00e+00, changed /flags/0, removed /flags/1"


def test_added_flag_is_named_by_path(tmp_path):
    verdict = _verdict(tmp_path, {"z2": {"state": {"p00": 0.5}}}, {"z2": {"state": {"p00": 0.5, "flags": ["clamped_p00"]}}})
    assert verdict == "rest max rel diff 0.00e+00, added /z2/state/flags/0"


def test_numbers_keep_their_relative_difference_by_block(tmp_path):
    verdict = _verdict(tmp_path, {"p00": 1.0, "mle": {"c": 2.0}}, {"p00": 1.1, "mle": {"c": 2.0}})
    assert verdict == "mle max rel diff 0.00e+00, rest max rel diff 9.09e-02 at /p00"


def test_file_only_in_the_new_tree_differs(tmp_path, capsys):
    old, new = tmp_path / "old", tmp_path / "new"
    for side in (old, new):
        (side / "sim").mkdir(parents=True)
        (side / "sim" / "herald.json").write_text("{}\n")
    (new / "sim" / "extra.json").write_text("{}\n")
    assert _compare_module().report("tag", ({"sim": 0}, {"sim": 0}), old, new)
    assert capsys.readouterr().out.splitlines() == ["tag sim/extra.json: only in the new tree", "tag sim/herald.json: identical"]


def test_uncertainties_move_in_their_own_block(tmp_path):
    old = {"p00": 0.5, "sigmas": {"p00": 0.1}, "concurrence": {"c": 0.2, "mc_sigma": 0.3}, "mle": {"sigma_c": 1.0}}
    new = {"p00": 0.5, "sigmas": {"p00": 0.1}, "concurrence": {"c": 0.2, "mc_sigma": 0.33}, "mle": {"sigma_c": 1.0}}
    assert _verdict(tmp_path, old, new) == "rest max rel diff 0.00e+00, sigma max rel diff 9.09e-02 at /concurrence/mc_sigma"


def test_csv_uncertainty_columns_move_in_the_sigma_block(tmp_path):
    (tmp_path / "old.csv").write_text("plane,concurrence,sigma_concurrence\nz2,0.5,0.1\n")
    (tmp_path / "new.csv").write_text("plane,concurrence,sigma_concurrence\nz2,0.5,0.11\n")
    verdict = _compare_module().compare(tmp_path / "old.csv", tmp_path / "new.csv")
    assert verdict == "rest max rel diff 0.00e+00, sigma max rel diff 9.09e-02 at /1/2"


def test_the_inverse_reruns_on_the_reference_trees_records(tmp_path):
    commands = _compare_module().reference_commands(3, tmp_path / "old")
    assert list(commands) == ["ana", "csv", "simple", "bp"]
    for args in commands.values():
        inputs = [Path(arg) for arg in args if "/" in arg]
        assert inputs and all(path.is_relative_to(tmp_path / "old") for path in inputs)
