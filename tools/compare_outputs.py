#!/usr/bin/env python3
"""Compare the CLI data files that two dlczsim source trees write.

Runs `simulate --layout both`, the same heralded by D1b (`--herald d1b`),
`fringe-scan` on sampled records and on the exact probabilities
(`--trials 0`), `analyze --mle --plane z2` on the simulated JSON records,
`analyze` on the same records read from CSV, `analyze --coherence-mode
simplified` on the JSON records, and `backprop --plane z2` on the analysis
result with each tree on PYTHONPATH per preset and seed, and `backprop
--plane z2` on the README's direct values once per preset.  Three more cases
run the same on configs built from the reference tree's `paper` preset:
`knobs`, for every seed, with each knob that the presets leave at its default
turned on (KNOBS), and, for the first seed, `cutoff5` at the schema's largest
cutoff (CUTOFF5) and `phases` with the fringe phases given as a list
(PHASES).  In every case the new tree also runs the inverse's commands
(INVERSE: the three analyses and `backprop`) on
the reference tree's records and analysis result, tagged "reference
records", so that the inverse is compared on the same input even where the
forward model's bytes move on purpose.  Prints per data file
"identical" or what differs: the largest relative difference of its numbers
per block (`mle`, the uncertainties in `sigma`, and the `rest`), with the
key path where it is when it is not 0, and, by key path, each changed text
leaf and each leaf that only one file has; and a file that only one tree
wrote.  Then one `mle` line: the MLE concurrence
old -> new, |dC| in units of the two-stage sigma_C, the change in log L,
the iterations old -> new and convergence.
It also compares the `--help` text of `dlczsim` and of each command:

    python3 tools/compare_outputs.py OLD/src src --presets paper,ideal --seeds 3,11

Exits 1 when a data file or a help text differs, a data file is written by
one tree only, an exit code changes, or an `mle` line shows a nonzero |dC|
or change in log L; 0 when every output is the same.
"""

import argparse
import csv
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

COMMANDS = {
    "sim": ["simulate", "--layout", "both"],
    "d1b": ["simulate", "--layout", "both", "--herald", "d1b"],  # the command-line herald override
    "scan": ["fringe-scan"],
    "scan0": ["fringe-scan", "--trials", "0"],  # the probability branch of the fringe table
    "ana": ["analyze", "--mle", "--plane", "z2"],
    "csv": ["analyze"],  # the CSV record reader
    "simple": ["analyze", "--coherence-mode", "simplified"],  # the textbook coherence relation
    "bp": ["backprop", "--plane", "z2"],  # samples nothing, so it takes no --seed
}
# the README's direct-values example: it reads no records, so it runs once per preset
DIRECT = {"bpv": ["backprop", "--plane", "z2", "--p00", "0.98510", "--p10", "7.38e-3", "--p01", "7.51e-3", "--p11", "1.7e-5", "-v", "0.70"]}
INVERSE = ("ana", "csv", "simple", "bp")  # the commands that read records or an analysis result
HELP = ["", "simulate", "fringe-scan", "analyze", "backprop"]  # "" is the group itself
# every preset keeps these at their defaults, so without this case no bytes are compared with them on
KNOBS = {
    "herald": {"d1a_efficiency": 0.6, "d1b_efficiency": 0.8, "exclusive": False},
    "interferometer": {"eta1": 0.4, "eta2": 0.3, "phase_jitter_sigma": 0.15},
    "detectors": {"dark_prob": 1e-4, "eta_d2b": 0.35},
}
# the schema maximum: the largest registers, the herald's 6**6 = 46,656 dimensions among them
CUTOFF5 = {"cutoff": 5}
# the list form of the fringe phases: nine phases over one turn, its ends included
PHASES = {"fringe_phases": [2 * math.pi * k / 8 for k in range(9)]}


def tree_env(src):
    return {**os.environ, "PYTHONPATH": str(Path(src).resolve())}


def help_texts(src):
    """The `--help` output of the group and of each command, in HELP order."""
    cmd = [sys.executable, "-m", "dlczsim.cli"]
    return [subprocess.run([*cmd, *command.split(), "--help"], env=tree_env(src), capture_output=True).stdout for command in HELP]


def seeded_commands(seed, out):
    """The arguments of each command in COMMANDS for one seed, reading the
    records and the analysis result written under ``out``."""
    inputs = {
        "sim": ["--seed", str(seed)],
        "d1b": ["--seed", str(seed)],
        "scan": ["--seed", str(seed)],
        "scan0": [],
        "ana": ["--seed", str(seed), "--records", str(out / "sim")],
        "csv": ["--seed", str(seed), "--diag", str(out / "sim" / "counts_diagonal.csv"), "--fringe", str(out / "sim" / "counts_fringe.csv")],
        "simple": ["--seed", str(seed), "--records", str(out / "sim")],
        "bp": ["--result", str(out / "ana" / "tomography_result.json")],
    }
    return {name: [*args, *inputs[name]] for name, args in COMMANDS.items()}


def reference_commands(seed, old):
    """The INVERSE commands of ``seeded_commands``, reading the records and
    the analysis result that the reference tree wrote under ``old``."""
    commands = seeded_commands(seed, old)
    return {name: commands[name] for name in INVERSE}


def paper_config(src, path, changes):
    """Writes the `paper` preset of the tree ``src`` with ``changes`` set to
    ``path``; a block of ``changes`` is merged into the preset's block."""
    data = json.loads(Path(src, "dlczsim", "presets", "paper.json").read_text())
    for key, value in changes.items():
        data[key] = {**data[key], **value} if isinstance(value, dict) else value
    path.write_text(json.dumps(data))


def cases(src, presets, seeds, work):
    """(tag, config arguments, seeds) of each case: every preset and `knobs`
    at every seed, `cutoff5` and `phases` at the first; the configs are
    written from the tree ``src`` under ``work``."""
    configs = {"knobs": (KNOBS, seeds), "cutoff5": (CUTOFF5, seeds[:1]), "phases": (PHASES, seeds[:1])}
    out = [(preset, ["--preset", preset], seeds) for preset in presets]
    for name, (changes, case_seeds) in configs.items():
        path = Path(work, f"{name}.json")
        paper_config(src, path, changes)
        out.append((name, ["--config", str(path)], case_seeds))
    return out


def run(src, source, commands, out):
    """Runs each named command with ``src`` on PYTHONPATH and the config
    arguments ``source``, writing to ``out/<name>``; returns the exit codes."""
    env = tree_env(src)
    codes = {}
    for name, args in commands.items():
        cmd = [sys.executable, "-m", "dlczsim.cli", *args, *source, "--out", str(out / name)]
        codes[name] = subprocess.run(cmd, env=env, capture_output=True).returncode
    return codes


def report(tag, codes, old, new):
    """Prints the exit codes of each command that failed in either tree, else
    the verdict per data file; returns whether anything differs."""
    differs = False
    for name in codes[0]:
        if codes[0][name] or codes[1][name]:
            print(f"{tag} {name}: exit {codes[0][name]} -> {codes[1][name]}")
            differs |= codes[0][name] != codes[1][name]
        else:
            files = {p.name for side in (old, new) for p in (side / name).iterdir()} - {"manifest.json"}
            for file in sorted(files):
                verdict = compare(old / name / file, new / name / file)
                print(f"{tag} {name}/{file}: {verdict}")
                differs |= verdict != "identical"
    return differs


def values(obj, key=""):
    """Every leaf of a parsed JSON or CSV file (numbers as floats), keyed by position."""
    if isinstance(obj, (dict, list)):
        pairs = obj.items() if isinstance(obj, dict) else enumerate(obj)
        return {k2: v2 for k, v in pairs for k2, v2 in values(v, f"{key}/{k}").items()}
    try:
        return {key: float(obj)}
    except (TypeError, ValueError):
        return {key: str(obj)}


def number_block(key, header=None):
    """The block a number at ``key`` is reported in: ``sigma`` where a name
    on its key path holds "sigma" (``sigmas/p00``, ``sigma_concurrence``, the
    Monte Carlo ``mc_sigma``; a CSV cell by its column's name in ``header``),
    else ``mle`` under /mle/, else ``rest``."""
    names = key.split("/")
    if header is not None:  # a CSV cell's key is /row/column
        column = int(names[-1])
        names = [header[column] if column < len(header) else ""]
    if any("sigma" in name for name in names):
        return "sigma"
    return "mle" if key.startswith("/mle/") else "rest"


def compare(old, new):
    """"identical", or the largest relative difference of the numbers that
    both files hold at a key (per ``number_block``) and, where it is not 0,
    the first key path that has it, then by key path each leaf whose text
    changed and each leaf that only one file has."""
    if not new.exists():
        return "missing in the new tree"
    if not old.exists():
        return "only in the new tree"
    if old.read_bytes() == new.read_bytes():
        return "identical"
    with old.open(newline="") as fo, new.open(newline="") as fn:
        a, b = (list(csv.reader(fh)) if old.suffix == ".csv" else json.load(fh) for fh in (fo, fn))
    header = a[0] if old.suffix == ".csv" and a else None
    a, b = values(a), values(b)
    worst, changes = {}, []
    for key in [*a, *(key for key in b if key not in a)]:
        x, y = a.get(key), b.get(key)
        if y is None or x is None:
            changes.append(f"{'removed' if y is None else 'added'} {key}")
        elif type(x) is type(y) is float:
            block, diff = number_block(key, header), 0.0 if x == y else abs(x - y) / max(abs(x), abs(y))
            if block not in worst or diff > worst[block][0]:
                worst[block] = diff, key
        elif x != y:
            changes.append(f"changed {key}")
    blocks = (f"{block} max rel diff {d:.2e}{f' at {key}' if d else ''}" for block, (d, key) in sorted(worst.items()))
    return ", ".join([*blocks, *changes])


def mle_line(old, new):
    a, b = (json.loads((side / "ana" / "tomography_result.json").read_text()) for side in (old, new))
    c_old, c_new = a["mle"]["concurrence"]["concurrence"], b["mle"]["concurrence"]["concurrence"]
    sigma = a["concurrence"]["sigma_concurrence"]
    shift = abs(c_new - c_old) / sigma if sigma > 0 else float("inf") if c_new != c_old else 0.0
    dlogl = b["mle"]["log_likelihood"] - a["mle"]["log_likelihood"]
    text = (
        f"C {c_old:.6e} -> {c_new:.6e}, |dC| = {shift:.2e} sigma_C, dlogL = {dlogl:+.2e}, "
        f"iterations {a['mle']['iterations']} -> {b['mle']['iterations']}, "
        f"converged {a['mle']['converged']} -> {b['mle']['converged']}"
    )
    return text, shift != 0.0 or dlogl != 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src", help="the src directory of the reference tree")
    parser.add_argument("new_src", help="the src directory of the tree to compare")
    parser.add_argument("--presets", default="paper,paper_w120,ideal")
    parser.add_argument("--seeds", default="3,11,29")
    args = parser.parse_args()
    differs = False
    for command, old_text, new_text in zip(HELP, help_texts(args.old_src), help_texts(args.new_src)):
        print(f"help {command or 'dlczsim'}: {'identical' if old_text == new_text else 'differs'}")
        differs |= old_text != new_text
    with tempfile.TemporaryDirectory() as work:
        for preset, source, seeds in cases(args.old_src, args.presets.split(","), args.seeds.split(","), work):
            for seed in seeds:
                tag = f"{preset} seed {seed}"
                old, new = Path(work, "old", tag), Path(work, "new", tag)
                codes = (
                    run(args.old_src, source, seeded_commands(seed, old), old),
                    run(args.new_src, source, seeded_commands(seed, new), new),
                )
                differs |= report(tag, codes, old, new)
                reread = Path(work, "reference", tag)
                reread_codes = run(args.new_src, source, reference_commands(seed, old), reread)
                differs |= report(f"{tag} reference records", ({name: codes[0][name] for name in INVERSE}, reread_codes), old, reread)
                if not (codes[0]["ana"] or codes[1]["ana"]):
                    text, moved = mle_line(old, new)
                    print(f"{tag} mle: {text}")
                    differs |= moved
            old, new = Path(work, "old", preset), Path(work, "new", preset)
            codes = run(args.old_src, source, DIRECT, old), run(args.new_src, source, DIRECT, new)
            differs |= report(f"{preset} direct", codes, old, new)
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
