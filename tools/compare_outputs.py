#!/usr/bin/env python3
"""Compare the CLI data files that two dlczsim source trees write.

Runs `simulate --layout both`, `fringe-scan` and `analyze --mle --plane z2`
with each tree on PYTHONPATH per preset and seed; prints per data file
"identical" or its largest relative difference (`mle` block apart):

    python3 tools/compare_outputs.py OLD/src src --presets paper,ideal --seeds 3,11
"""

import argparse
import csv
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

COMMANDS = {"sim": ["simulate", "--layout", "both"], "scan": ["fringe-scan"], "ana": ["analyze", "--mle", "--plane", "z2"]}


def run(src, preset, seed, out):
    env = {**os.environ, "PYTHONPATH": str(Path(src).resolve())}
    codes = {}
    for name, args in COMMANDS.items():
        cmd = [sys.executable, "-m", "dlczsim.cli", *args, "--preset", preset, "--seed", str(seed), "--out", str(out / name)]
        cmd += ["--records", str(out / "sim")] if name == "ana" else []
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


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src", help="the src directory of the reference tree")
    parser.add_argument("new_src", help="the src directory of the tree to compare")
    parser.add_argument("--presets", default="paper,paper_w120,ideal")
    parser.add_argument("--seeds", default="3,11,29")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as work:
        for preset in args.presets.split(","):
            for seed in args.seeds.split(","):
                tag = f"{preset} seed {seed}"
                old, new = Path(work, "old", tag), Path(work, "new", tag)
                codes = run(args.old_src, preset, seed, old), run(args.new_src, preset, seed, new)
                for name in COMMANDS:
                    if codes[0][name] or codes[1][name]:
                        print(f"{tag} {name}: exit {codes[0][name]} -> {codes[1][name]}")
                    else:
                        for path in sorted(p for p in (old / name).iterdir() if p.name != "manifest.json"):
                            print(f"{tag} {name}/{path.name}: {compare(path, new / name / path.name)}")


if __name__ == "__main__":
    main()
