"""Calibrate the unpublished source parameters of the bundled `paper` preset.

The preset's channel efficiencies, detector efficiencies and heralding-splitter
asymmetry are measured quantities; this script reads them, with the cutoff and
the fringe phases, from the preset itself.  The write excitation probabilities
(chi_L, chi_R), the retrieval efficiencies (xi_L, xi_R) and the effective mode
overlap are not published; this script fits them so that the forward model,
analyzed at unit detection efficiency exactly like the experiment's records,
reproduces the published conditional populations (p10, p01, p11 for the D1a
herald) and fringe visibility.

Rewrites those five values of src/dlczsim/presets/paper.json and nothing else.
Needs scipy (``least_squares``), which the package itself does not; install the
``test`` extra or scipy alone.  Run from the repository root:

    python3 tools/calibrate_preset.py
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import numpy as np
from scipy.optimize import least_squares

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from dlczsim.config import EnsembleParams, config_from_dict, load_config_dict
from dlczsim.detection import aggregate_split_detector
from dlczsim.layouts import PATTERNS, SPLIT_PAIR
from dlczsim.pipeline import full_experiment
from dlczsim.tomography import AggregatedCounts, EfficiencyModel, arm_clicks, invert_diagonal

TARGET_P10 = 7.38e-3
TARGET_P01 = 7.51e-3
TARGET_P11 = 1.7e-5
TARGET_V = 0.70

EXPECTED_TRIALS = 10**9  # the diagonal is inverted from the expected counts of this many trials

PRESET = Path(__file__).resolve().parents[1] / "src" / "dlczsim" / "presets" / "paper.json"


@lru_cache(maxsize=1)
def preset_config():
    return config_from_dict(load_config_dict(PRESET))


def build_config(chi_l, chi_r, xi_l, xi_r, overlap):
    """The preset with its source parameters replaced."""
    base = preset_config()
    return replace(
        base,
        left=EnsembleParams(chi=float(chi_l), xi=float(xi_l)),
        right=EnsembleParams(chi=float(chi_r), xi=float(xi_r)),
        interferometer=replace(base.interferometer, overlap=float(overlap)),
    )


def observables(params):
    config = build_config(*params)
    result = full_experiment(config)
    classes = aggregate_split_detector(result.diagonal_probs, SPLIT_PAIR)
    expected = AggregatedCounts(counts={k: p * EXPECTED_TRIALS for k, p in classes.items()}, trials=EXPECTED_TRIALS)
    inverted = invert_diagonal(expected, EfficiencyModel())
    phis = np.array([p for p, _ in result.fringe_probs])
    arms = arm_clicks(np.array([[probs[pattern] for pattern in PATTERNS] for _, probs in result.fringe_probs]))
    design = np.column_stack([np.ones_like(phis), np.cos(phis), np.sin(phis)])
    beta, *_ = np.linalg.lstsq(design, arms, rcond=None)  # one column per arm
    vis = np.hypot(beta[1], beta[2]) / beta[0]
    return inverted["p10"], inverted["p01"], inverted["p11"], 0.5 * (vis[0] + vis[1])


def residuals(params):
    p10, p01, p11, v = observables(params)
    return [
        p10 / TARGET_P10 - 1.0,
        p01 / TARGET_P01 - 1.0,
        p11 / TARGET_P11 - 1.0,
        v / TARGET_V - 1.0,
        0.05 * (params[2] - params[3]) / 0.1,  # weak tie-breaker on xi_L ~ xi_R
    ]


def main():
    x0 = np.array([0.12, 0.145, 0.119, 0.102, 0.72])
    fit = least_squares(
        residuals,
        x0,
        bounds=([1e-4, 1e-4, 0.01, 0.01, 0.1], [0.5, 0.5, 1.0, 1.0, 1.0]),
        xtol=1e-12,
        ftol=1e-12,
        verbose=1,
    )
    chi_l, chi_r, xi_l, xi_r, overlap = fit.x
    p10, p01, p11, v = observables(fit.x)
    print(f"chi_L={chi_l:.6f} chi_R={chi_r:.6f} xi_L={xi_l:.6f} xi_R={xi_r:.6f} overlap={overlap:.6f}")
    print(f"p10={p10:.5e} (target {TARGET_P10:.5e})")
    print(f"p01={p01:.5e} (target {TARGET_P01:.5e})")
    print(f"p11={p11:.5e} (target {TARGET_P11:.5e})")
    print(f"V={v:.5f} (target {TARGET_V})")

    data = load_config_dict(PRESET)
    for side, chi, xi in (("L", chi_l, xi_l), ("R", chi_r, xi_r)):
        data["ensembles"][side] |= {"chi": round(float(chi), 6), "xi": round(float(xi), 6)}
    data["interferometer"]["overlap"] = round(float(overlap), 6)
    PRESET.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(f"wrote {PRESET}")


if __name__ == "__main__":
    main()
