"""Physics checks of the end-to-end pipeline under off-nominal settings."""

import math

import numpy as np
import pytest

from dlczsim.config import config_from_dict
from dlczsim.entanglement import concurrence_restricted, witnesses
from dlczsim.fock import apply_loss
from dlczsim.pipeline import full_experiment
from dlczsim.protocol import EnsembleParams, HeraldChoice, InterferometerParams, herald, write_stage
from dlczsim.tomography import restrict

from helpers import DEFAULT_MLE_START, fidelity, ideal_config_dict, load_preset, restricted_matrix_for_model, truncation_warning, unconditioned_field_state


def test_unconditioned_suppression_ratio_near_one():
    # without heralding the two fields are uncorrelated weak beams: the
    # two-photon suppression ratio sits at 1/(p00-ish), compatible with the
    # published unconditioned control 0.99 +- 0.04
    cfg = load_preset("paper")
    rho = unconditioned_field_state(cfg)
    # reference to the detectors: fold in the detector quantum efficiencies
    rho = apply_loss(apply_loss(rho, cfg.detectors.eta_d2a, 0), cfg.detectors.eta_d2b, 1)
    rd = restrict(rho)
    report = witnesses(rd)
    assert 0.95 <= report.h_c2 <= 1.03  # the ratio applied to unconditioned inputs
    assert concurrence_restricted(rd).concurrence == 0.0


def test_unconditioned_versus_heralded_suppression():
    cfg = load_preset("paper")
    heralded = full_experiment(cfg)
    rd_heralded = restrict(heralded.z0)
    rd_unconditioned = restrict(unconditioned_field_state(cfg))
    h_c = witnesses(rd_heralded).h_c2
    h_nc = witnesses(rd_unconditioned).h_c2
    # heralding suppresses two-photon coincidences well below the
    # uncorrelated level
    assert h_c < 0.5
    assert h_nc > 0.9


def test_full_transmission_splitter_gives_separable_herald():
    # with T = 1 the heralding detector watches only the right field: the
    # click carries full which-path information and the conditional state is
    # the bare single-excitation product state
    state = write_stage(EnsembleParams(1e-3), EnsembleParams(1e-3), cutoff=3)
    rho, prob = herald(state, InterferometerParams(bs1_T=1.0), HeraldChoice("D1a"))
    from dlczsim.protocol import read_stage

    rd = restrict(read_stage(rho, 1.0, 1.0))
    assert rd.d_abs < 1e-12
    assert rd.p01 > 0.99  # excitation certainly in the right ensemble
    assert concurrence_restricted(rd).concurrence == 0.0
    assert prob > 0


def test_zero_retrieval_gives_vacuum_fields():
    cfg = config_from_dict(ideal_config_dict(ensembles={"L": {"chi": 1e-3, "xi": 0.0}, "R": {"chi": 1e-3, "xi": 0.0}}))
    result = full_experiment(cfg)
    rd = restrict(result.z0)
    assert abs(rd.p00 - 1.0) < 1e-12
    assert rd.p01 < 1e-15 and rd.p10 < 1e-15
    with pytest.raises(ValueError):
        witnesses(rd)


def test_dark_counts_preserve_normalization_and_raise_floor():
    cfg = config_from_dict(ideal_config_dict(detectors={"dark_prob": 5e-3}))
    result = full_experiment(cfg)
    total = sum(p for _, p in result.diagonal_probs.items())
    assert abs(total - 1.0) < 1e-10
    # the all-dark floor: even the vacuum-dominated state now clicks
    p_some_click = 1.0 - result.diagonal_probs[(0, 0, 0)]
    assert p_some_click > 3 * 5e-3 * 0.9  # three detectors' worth of dark events


def test_herald_detector_inefficiency_leaves_leading_order_state():
    chi = 1e-4
    state = write_stage(EnsembleParams(chi), EnsembleParams(chi), cutoff=3)
    interf = InterferometerParams(bs1_T=0.5)
    rho_full, p_full = herald(state, interf, HeraldChoice("D1a"))
    rho_half, p_half = herald(state, interf, HeraldChoice("D1a", d1a_efficiency=0.5))
    assert abs(p_half / p_full - 0.5) < 5e-4  # rate scales with the efficiency
    assert fidelity(rho_full, rho_half) > 1.0 - 5 * chi  # state unchanged at leading order


def test_high_excitation_truncation_flagged_but_valid():
    state = write_stage(EnsembleParams(0.45), EnsembleParams(0.45), cutoff=3)
    assert truncation_warning(state)
    rho, prob = herald(state, InterferometerParams(bs1_T=0.5), HeraldChoice("D1a"))
    rho.assert_positive()
    assert 0.0 < prob <= 1.0


def test_mle_fringe_only_records():
    # the joint fit degrades gracefully when only one configuration is given
    from dlczsim.detection import sample_counts
    from dlczsim.layouts import fringe_layout_probabilities
    from dlczsim.tomography import EfficiencyModel, RestrictedDensity, mle_fit

    eff = EfficiencyModel()
    diagonals = {"p00": 0.94, "p01": 0.03, "p10": 0.028, "p11": 1e-3, "p02": 0.0}
    rho = restricted_matrix_for_model(diagonals, 0.02)
    records = []
    for k, phi in enumerate(np.linspace(0.0, 2.0 * math.pi, 13)):
        probs = fringe_layout_probabilities(rho, float(phi), 1.0, 1.0, 1.0)
        records.append(sample_counts(probs, 10**5, seed=3, stream=k, phase=float(phi)))
    result = mle_fit([], records, eff, initial=DEFAULT_MLE_START)
    assert abs(result.restricted.d_abs - 0.02) < 5e-3
