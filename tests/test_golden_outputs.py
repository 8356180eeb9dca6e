"""Golden hashes of the CLI's outputs: for each command run by
``tools/compare_outputs.py`` (``COMMANDS`` at seeds 3, 11 and 29, and the
README's direct-values ``backprop`` once per preset) on ``paper``,
``paper_w120``, ``ideal`` and the tool's ``knobs`` config, and at seed 3 alone
on its ``cutoff5`` and ``phases`` configs, the ``outputs`` hashes and
``config_sha256`` of its ``manifest.json``; and the SHA-256 of each ``--help``
text.

The hashes hold for the environment they were made in: numpy 2.4.6 on
OpenBLAS 0.3.31, and click 8.4.0.  A change that moves bytes on purpose
regenerates them with

    PYTHONPATH=src python tests/test_golden_outputs.py

and the diff of ``tests/golden_outputs.json`` is reviewed with it.
``test_library_numbers_independent_of_blas_threading`` covers BLAS threading.
"""

import hashlib
import json
import tempfile
from pathlib import Path

from click.testing import CliRunner

from dlczsim.cli import main

from helpers import load_script

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("golden_outputs.json")
TOOL = load_script(ROOT / "tools" / "compare_outputs.py", "compare_outputs")
PRESETS = ("paper", "paper_w120", "ideal")
SEEDS = (3, 11, 29)


def _invoke(runner: CliRunner, args: list[str]):
    # a fixed width keeps the help texts independent of the terminal
    return runner.invoke(main, args, prog_name="dlczsim", terminal_width=80, catch_exceptions=False)


def _manifest_hashes(runner: CliRunner, tag: str, commands: dict, source: list[str], out: Path) -> dict[str, str]:
    """Runs each named command into ``out/<name>``; its manifest's config hash and output hashes."""
    hashes = {}
    for name, args in commands.items():
        result = _invoke(runner, [*args, *source, "--out", str(out / name)])
        assert result.exit_code == 0, f"{tag} {name}: {result.output}"
        manifest = json.loads((out / name / "manifest.json").read_text())
        hashes[f"{tag} {name} config_sha256"] = manifest["config_sha256"]
        hashes.update({f"{tag} {name}/{entry['path']}": entry["sha256"] for entry in manifest["outputs"]})
    return hashes


def golden_hashes(work: Path) -> dict[str, str]:
    """Every hash of the golden file, computed by running the commands under ``work``."""
    runner = CliRunner()
    hashes = {
        f"help {command or 'dlczsim'}": hashlib.sha256(_invoke(runner, [*command.split(), "--help"]).stdout_bytes).hexdigest()
        for command in TOOL.HELP
    }
    for case, source, seeds in TOOL.cases(ROOT / "src", PRESETS, SEEDS, work):
        for seed in seeds:
            tag = f"{case} seed {seed}"
            hashes.update(_manifest_hashes(runner, tag, TOOL.seeded_commands(seed, work / tag), source, work / tag))
        hashes.update(_manifest_hashes(runner, f"{case} direct", TOOL.DIRECT, source, work / case))
    return hashes


def test_cli_outputs_match_the_golden_hashes(tmp_path):
    want = json.loads(GOLDEN.read_text())
    got = golden_hashes(tmp_path)
    changed = sorted(key for key in want.keys() | got.keys() if want.get(key) != got.get(key))
    assert not changed, f"{len(changed)} golden hashes changed: {changed}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        GOLDEN.write_text(json.dumps(golden_hashes(Path(work)), indent=1, sort_keys=True) + "\n")
