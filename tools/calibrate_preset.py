#!/usr/bin/env python3
"""Calibrate the unpublished source parameters of the bundled `paper` preset.

The channel efficiencies, detector efficiencies and the heralding-splitter
asymmetry are measured quantities and enter the preset as-is.  The write
excitation probabilities (chi_L, chi_R), the retrieval efficiencies
(xi_L, xi_R) and the effective mode overlap are not published; this script
fits them so that the forward model, analyzed at unit detection efficiency
exactly like the experiment's records, reproduces the published conditional
populations (p10, p01, p11 for the D1a herald) and fringe visibility.

Writes src/dlczsim/presets/paper.json.  Needs scipy (``least_squares``),
which the package itself does not; install the ``test`` extra or scipy
alone.  Run from the repository root:

    python3 tools/calibrate_preset.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
from scipy.optimize import least_squares

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from dlczsim.config import config_from_dict
from dlczsim.detection import aggregate_split_detector
from dlczsim.layouts import PATTERNS, SPLIT_PAIR
from dlczsim.pipeline import full_experiment
from dlczsim.tomography import AggregatedCounts, EfficiencyModel, arm_clicks, invert_diagonal

TARGET_P10 = 7.38e-3
TARGET_P01 = 7.51e-3
TARGET_P11 = 1.7e-5
TARGET_V = 0.70

BS1_T = 0.85 / 1.85  # measured transmission/reflection ratio 0.85

EXPECTED_TRIALS = 10**9  # the diagonal is inverted from the expected counts of this many trials

CHANNEL = {
    "L": {"fc": [0.80, 0.02], "c": [0.70, 0.02], "f": [0.70, 0.02], "apd": [0.32, 0.02]},
    "R": {"fc": [0.80, 0.02], "c": [0.65, 0.02], "f": [0.70, 0.02], "apd": [0.40, 0.02]},
}

DETECTORS = {"eta_d2a": 0.32, "eta_d2b": 0.40, "eta_d2c": 0.40, "split": 0.5, "bs2_T": 0.5}


def build_config(chi_l, chi_r, xi_l, xi_r, overlap):
    return config_from_dict(
        {
            "schema_version": 1,
            "cutoff": 3,
            "ensembles": {
                "L": {"chi": float(chi_l), "xi": float(xi_l)},
                "R": {"chi": float(chi_r), "xi": float(xi_r)},
            },
            "interferometer": {"bs1_T": BS1_T, "overlap": float(overlap)},
            "detectors": DETECTORS,
            "channel": CHANNEL,
            "fringe_phases": {"num": 13},
        }
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

    preset = {
        "schema_version": 1,
        "description": (
            "Parameters of the modeled cesium-ensemble experiment: measured channel "
            "and detector efficiencies and heralding-splitter asymmetry; source "
            "parameters (chi, xi, overlap) calibrated to reproduce the published "
            "conditional populations and fringe visibility (D1a herald, 190 ns window)."
        ),
        "cutoff": 3,
        "trials": 2000000,
        "seed": 7130441,
        "layout": "diagonal",
        "fringe_phases": {"num": 13},
        "ensembles": {
            "L": {"chi": round(chi_l, 6), "xi": round(xi_l, 6)},
            "R": {"chi": round(chi_r, 6), "xi": round(xi_r, 6)},
        },
        "interferometer": {
            "bs1_T": BS1_T,
            "eta1": 0.0,
            "eta2": 0.0,
            "phi": 0.0,
            "overlap": round(overlap, 6),
            "phase_jitter_sigma": 0.0,
        },
        "herald": {"which": "D1a", "exclusive": True, "d1a_efficiency": 1.0, "d1b_efficiency": 1.0},
        "detectors": {**DETECTORS, "dark_prob": 0.0},
        "channel": CHANNEL,
        "provenance": {
            "channel": "measured",
            "detectors": "measured",
            "interferometer.bs1_T": "measured (T/R = 0.85)",
            "ensembles.chi": "fitted to conditional populations",
            "ensembles.xi": "fitted to conditional populations (published inference 0.10 +- 0.05)",
            "interferometer.overlap": "fitted to fringe visibility",
            "herald.d1_efficiencies": "not published; set to 1 (scales rates only)",
        },
    }
    out = Path(__file__).resolve().parents[1] / "src" / "dlczsim" / "presets" / "paper.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(preset, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
