#!/usr/bin/env python3
"""Compare the CLI data files that two dlczsim source trees write.

Runs `simulate --layout both`, `fringe-scan` on sampled records and on the
exact probabilities (`--trials 0`), `analyze --mle --plane z2` on the
simulated JSON records, `analyze` on the same records read from CSV, and
`backprop --plane z2` on the analysis result with each tree on PYTHONPATH
per preset and seed; prints per data file
"identical" or its largest relative difference (`mle` block apart), and one
`mle` line: the MLE concurrence old -> new, |dC| in units of the two-stage
sigma_C, the change in log L, the iterations old -> new and convergence:

    python3 tools/compare_outputs.py OLD/src src --presets paper,ideal --seeds 3,11

Exits 1 when a data file differs, an exit code changes, or an `mle` line
shows a nonzero |dC| or change in log L; 0 when every output is the same.
"""

import argparse
import csv
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

COMMANDS = {
    "sim": ["simulate", "--layout", "both"],
    "scan": ["fringe-scan"],
    "scan0": ["fringe-scan", "--trials", "0"],  # the probability branch of the fringe table
    "ana": ["analyze", "--mle", "--plane", "z2"],
    "csv": ["analyze"],  # the CSV record reader
    "bp": ["backprop", "--plane", "z2"],  # samples nothing, so it takes no --seed
}


def run(src, preset, seed, out):
    env = {**os.environ, "PYTHONPATH": str(Path(src).resolve())}
    inputs = {
        "sim": ["--seed", str(seed)],
        "scan": ["--seed", str(seed)],
        "scan0": [],
        "ana": ["--seed", str(seed), "--records", str(out / "sim")],
        "csv": ["--seed", str(seed), "--diag", str(out / "sim" / "counts_diagonal.csv"), "--fringe", str(out / "sim" / "counts_fringe.csv")],
        "bp": ["--result", str(out / "ana" / "tomography_result.json")],
    }
    codes = {}
    for name, args in COMMANDS.items():
        cmd = [sys.executable, "-m", "dlczsim.cli", *args, *inputs[name], "--preset", preset, "--out", str(out / name)]
        codes[name] = subprocess.run(cmd, env=env, capture_output=True).returncode
    return codes


def values(obj, key=""):
    """Every leaf of a parsed JSON or CSV file (numbers as floats), keyed by position."""
    if isinstance(obj, (dict, list)):
        pairs = obj.items() if isinstance(obj, dict) else enumerate(obj)
        return {k2: v2 for k, v in pairs for k2, v2 in values(v, f"{key}/{k}").items()}
    try:
        return {key: float(obj)}
    except (TypeError, ValueError):
        return {key: str(obj)}


def compare(old, new):
    if not new.exists():
        return "missing in the new tree"
    if old.read_bytes() == new.read_bytes():
        return "identical"
    with old.open(newline="") as fo, new.open(newline="") as fn:
        a, b = (values(list(csv.reader(fh)) if old.suffix == ".csv" else json.load(fh)) for fh in (fo, fn))
    worst = {}
    for key, x in a.items():
        y, block = b.get(key), "mle" if key.startswith("/mle/") else "rest"  # a missing value counts as inf
        diff = 0.0 if x == y else abs(x - y) / max(abs(x), abs(y)) if type(x) is type(y) is float else float("inf")
        worst[block] = max(worst.get(block, 0.0), diff)
    return ", ".join(f"{block} max rel diff {d:.2e}" for block, d in sorted(worst.items()))


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
    with tempfile.TemporaryDirectory() as work:
        for preset in args.presets.split(","):
            for seed in args.seeds.split(","):
                tag = f"{preset} seed {seed}"
                old, new = Path(work, "old", tag), Path(work, "new", tag)
                codes = run(args.old_src, preset, seed, old), run(args.new_src, preset, seed, new)
                for name in COMMANDS:
                    if codes[0][name] or codes[1][name]:
                        print(f"{tag} {name}: exit {codes[0][name]} -> {codes[1][name]}")
                        differs |= codes[0][name] != codes[1][name]
                    else:
                        for path in sorted(p for p in (old / name).iterdir() if p.name != "manifest.json"):
                            verdict = compare(path, new / name / path.name)
                            print(f"{tag} {name}/{path.name}: {verdict}")
                            differs |= verdict != "identical"
                if not (codes[0]["ana"] or codes[1]["ana"]):
                    text, moved = mle_line(old, new)
                    print(f"{tag} mle: {text}")
                    differs |= moved
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
