import math

import numpy as np
import pytest

from dlczsim.config import config_from_dict
from dlczsim.fock import ModeRegister, apply_loss
from dlczsim.pipeline import full_experiment, g12_report, sample_fringe_records, stream_id
from dlczsim.protocol import (
    EnsembleParams,
    HeraldChoice,
    HeraldError,
    InterferometerParams,
    field_pair_statistics,
    herald,
    herald_probabilities,
    read_stage,
    write_stage,
)
from dlczsim.tomography import FringeScan, RestrictedDensity, fit_fringe, restrict
from dlczsim.entanglement import invert_attenuation

from helpers import (
    fidelity,
    field_pair_statistics_oracle,
    first_order_heralded_state,
    heralded_fields_oracle,
    ideal_config_dict,
    overlap_from_extinction_db,
)


BS1_ASYM = 0.85 / 1.85  # transmission for T/R = 0.85


def _fit_probability_fringe(result):
    phis = np.array([p for p, _ in result.fringe_probs])
    ya = np.array([sum(v for pat, v in jp.items() if pat[0] == 1) for _, jp in result.fringe_probs])
    design = np.column_stack([np.ones_like(phis), np.cos(phis), np.sin(phis)])
    beta, *_ = np.linalg.lstsq(design, ya, rcond=None)
    visibility = math.hypot(beta[1], beta[2]) / beta[0]
    return visibility, math.atan2(beta[2], beta[1])


# ---------------------------------------------------------------------------
# write stage


def test_write_stage_vacuum():
    st = write_stage(EnsembleParams(0.0), EnsembleParams(0.0), cutoff=2)
    assert st.register.n_modes == 4
    assert abs(st.amplitudes[0] - 1.0) < 1e-12


def test_write_stage_single_excitation_probability():
    chi = 1e-3
    st = write_stage(EnsembleParams(chi), EnsembleParams(chi), cutoff=3)
    totals = st.register.occupations().sum(axis=1)
    p_one = float(np.sum(st.probabilities()[totals == 2]))  # one excitation = field+spin pair
    expected = 2.0 * chi * (1.0 - chi) ** 2 / (1.0 - chi**4) ** 2  # series value
    assert abs(p_one - expected) < 1e-12
    assert abs(p_one - 2e-3) < 0.02 * 2e-3


def test_write_stage_overlap_modes():
    st = write_stage(EnsembleParams(1e-2), EnsembleParams(1e-2), cutoff=2, overlap=1.0)
    assert st.register.n_modes == 4
    lam = 0.8
    st = write_stage(EnsembleParams(0.0), EnsembleParams(1e-2), cutoff=2, overlap=lam)
    assert st.register.n_modes == 6
    reg = st.register
    matched = abs(st.amplitudes[reg.index((0, 0, 1, 1, 0, 0))]) ** 2
    orth = abs(st.amplitudes[reg.index((0, 0, 0, 1, 1, 0))]) ** 2
    assert abs(matched / (matched + orth) - lam**2) < 1e-10


def test_overlap_from_extinction():
    lam = overlap_from_extinction_db(28.0)
    assert abs(lam - 2.0 * 10 ** (-1.4)) < 1e-12
    assert overlap_from_extinction_db(0.0) == 1.0
    with pytest.raises(ValueError):
        overlap_from_extinction_db(-3.0)


# ---------------------------------------------------------------------------
# heralding


@pytest.mark.parametrize("which", ["D1a", "D1b"])
def test_herald_fidelity_against_first_order_oracle(which):
    chi = 1e-4
    st = write_stage(EnsembleParams(chi), EnsembleParams(chi), cutoff=3)
    rho, prob = herald(st, InterferometerParams(bs1_T=0.5), HeraldChoice(which))
    oracle = first_order_heralded_state(chi, chi, 0.5, 0.0, which)
    assert fidelity(oracle, rho) > 0.999
    assert abs(prob - chi) < 0.05 * chi


def test_heralded_state_fidelity_at_millichi():
    chi = 1e-3
    st = write_stage(EnsembleParams(chi), EnsembleParams(chi), cutoff=3)
    rho, _ = herald(st, InterferometerParams(bs1_T=0.5), HeraldChoice("D1a"))
    oracle = first_order_heralded_state(chi, chi, 0.5, 0.0, "D1a")
    assert fidelity(oracle, rho) >= 0.99


def test_herald_with_phase_matches_oracle():
    chi = 1e-4
    eta1 = 0.9
    st = write_stage(EnsembleParams(chi), EnsembleParams(chi), cutoff=3)
    rho, _ = herald(st, InterferometerParams(bs1_T=0.5, eta1=eta1), HeraldChoice("D1a"))
    oracle = first_order_heralded_state(chi, chi, 0.5, eta1, "D1a")
    assert fidelity(oracle, rho) > 0.999


def test_orthogonal_overlap_kills_coherence():
    st = write_stage(EnsembleParams(1e-3), EnsembleParams(1e-3), cutoff=3, overlap=0.0)
    rho, prob = herald(st, InterferometerParams(bs1_T=0.5), HeraldChoice("D1a"))
    reg = ModeRegister(2, 3)
    coh = abs(rho.matrix[reg.index((0, 1)), reg.index((1, 0))])
    assert coh < 1e-12
    assert prob > 0  # the orthogonal photon still heralds


def test_splitter_asymmetry_population_ratio():
    # conditional populations obey the squared transmission/reflection ratio
    # between the two herald choices, independent of source asymmetry
    st = write_stage(EnsembleParams(1e-3), EnsembleParams(1.2e-3), cutoff=3)
    interf = InterferometerParams(bs1_T=BS1_ASYM)
    rho_a, _ = herald(st, interf, HeraldChoice("D1a"))
    rho_b, _ = herald(st, interf, HeraldChoice("D1b"))
    fa = restrict(read_stage(rho_a, 1.0, 1.0))
    fb = restrict(read_stage(rho_b, 1.0, 1.0))
    ratio = (fa.p01 / fa.p10) / (fb.p01 / fb.p10)
    assert abs(ratio / 0.85**2 - 1.0) < 0.01


def test_herald_impossible_pattern():
    st = write_stage(EnsembleParams(0.0), EnsembleParams(0.0), cutoff=2)
    with pytest.raises(HeraldError):
        herald(st, InterferometerParams(), HeraldChoice("D1a"))


def test_inclusive_vs_exclusive_herald():
    chi = 0.05
    st = write_stage(EnsembleParams(chi), EnsembleParams(chi), cutoff=3)
    interf = InterferometerParams(bs1_T=0.5)
    _, p_exc = herald(st, interf, HeraldChoice("D1a", exclusive=True))
    _, p_inc = herald(st, interf, HeraldChoice("D1a", exclusive=False))
    patterns = herald_probabilities(st, interf)
    assert abs(p_exc - patterns[(1, 0)]) < 1e-12
    assert abs(p_inc - (patterns[(1, 0)] + patterns[(1, 1)])) < 1e-12
    assert p_inc >= p_exc


def test_herald_pattern_probabilities_sum_to_one():
    st = write_stage(EnsembleParams(0.02), EnsembleParams(0.03), cutoff=3, overlap=0.8)
    patterns = herald_probabilities(st, InterferometerParams(bs1_T=0.4), 0.7, 0.9)
    total = sum(p for _, p in patterns.items())
    assert abs(total - 1.0) < 1e-10


@pytest.mark.parametrize("jitter", [0.0, 0.3])
@pytest.mark.parametrize("dark_prob", [0.0, 1e-3])
@pytest.mark.parametrize("cutoff", [2, 3])
@pytest.mark.parametrize("overlap", [1.0, 0.7])
def test_forward_model_matches_generic_detector_oracle(overlap, cutoff, dark_prob, jitter):
    # the heralding and g12 detectors read fock.click_weights; the generic
    # per-detector model of tests/helpers.py must give the same bytes for an
    # exclusive herald (same arithmetic), and agree to rounding for an
    # inclusive one (one weighted trace instead of a trace and a partial trace)
    base = ideal_config_dict(
        cutoff=cutoff,
        fringe_phases={"num": 5},
        ensembles={"L": {"chi": 0.04, "xi": 0.6}, "R": {"chi": 0.07, "xi": 0.45}},
        interferometer={"bs1_T": 0.45, "eta1": 0.4, "overlap": overlap, "phase_jitter_sigma": jitter},
        detectors={"eta_d2a": 0.5, "eta_d2b": 0.7, "eta_d2c": 0.6, "dark_prob": dark_prob},
    )
    for which in ("D1a", "D1b"):
        for exclusive in (True, False):
            herald_block = {"which": which, "exclusive": exclusive, "d1a_efficiency": 0.6, "d1b_efficiency": 0.8}
            cfg = config_from_dict({**base, "herald": herald_block})
            result = full_experiment(cfg)
            patterns, probability, atomic, z0 = heralded_fields_oracle(cfg)
            assert dict(result.herald_patterns.items()) == dict(patterns.items())
            if exclusive:
                assert result.herald_probability == probability
                assert result.atomic.matrix.tobytes() == atomic.matrix.tobytes()
                assert result.z0.matrix.tobytes() == z0.matrix.tobytes()
            else:
                assert abs(result.herald_probability / probability - 1.0) < 1e-12
                for new, old in ((result.atomic.matrix, atomic.matrix), (result.z0.matrix, z0.matrix)):
                    assert np.max(np.abs(new - old)) < 1e-12 * np.max(np.abs(old))
    cfg = config_from_dict(base)
    for side, stats in g12_report(cfg).items():
        ensemble = cfg.left if side == "L" else cfg.right
        assert stats == field_pair_statistics_oracle(ensemble, cfg.d1a_efficiency, cfg.budget.total(side), cutoff)


# ---------------------------------------------------------------------------
# read stage


def test_read_stage_unit_efficiency_copies_matrix():
    chi = 1e-3
    st = write_stage(EnsembleParams(chi), EnsembleParams(chi), cutoff=3)
    rho, _ = herald(st, InterferometerParams(bs1_T=0.5), HeraldChoice("D1a"))
    out = read_stage(rho, 1.0, 1.0)
    assert np.max(np.abs(out.matrix - rho.matrix)) < 1e-12


def test_read_stage_tenth_efficiency_arithmetic():
    reg = ModeRegister(2, 3)
    amp = np.zeros(reg.dim, dtype=complex)
    amp[reg.index((1, 0))] = 1.0 / math.sqrt(2)
    amp[reg.index((0, 1))] = 1.0 / math.sqrt(2)
    from dlczsim.fock import PureState

    atomic = PureState(reg, amp).to_density()
    out = restrict(read_stage(atomic, 0.1, 0.1))
    assert abs(out.p00 - 0.9) < 1e-12
    assert abs(out.p10 + out.p01 - 0.1) < 1e-12


def test_read_stage_retrieval_arithmetic_recovers_source_coherence():
    # a fully contrasted single-excitation source read out at ~10% efficiency
    # leaves ~11% excitation downstream; undoing the retrieval loss returns
    # the source values p00 ~ 0 and C ~ V
    source = RestrictedDensity(p00=0.0, p01=0.5, p10=0.5, p11=0.0, d=0.35)
    xi = 0.110
    reg = ModeRegister(2, 3)
    mat = np.zeros((reg.dim, reg.dim), dtype=complex)
    mat[reg.index((0, 0)), reg.index((0, 0))] = source.p00
    mat[reg.index((0, 1)), reg.index((0, 1))] = source.p01
    mat[reg.index((1, 0)), reg.index((1, 0))] = source.p10
    mat[reg.index((0, 1)), reg.index((1, 0))] = source.d
    mat[reg.index((1, 0)), reg.index((0, 1))] = source.d
    from dlczsim.fock import DensityOperator

    atomic = DensityOperator(reg, mat)
    fields = restrict(read_stage(atomic, xi, xi))
    assert abs(fields.p10 + fields.p01 - 0.110) < 1e-9
    recovered = invert_attenuation(fields, xi, xi)
    assert recovered.p00 < 1e-9
    c_source = 2.0 * source.d_abs  # 0.70 for this state
    c_back = 2.0 * recovered.d_abs
    assert abs(c_back - c_source) < 0.02


def test_read_then_loss_equals_single_attenuation():
    chi = 0.02
    st = write_stage(EnsembleParams(chi), EnsembleParams(chi), cutoff=3)
    rho, _ = herald(st, InterferometerParams(bs1_T=0.5), HeraldChoice("D1a"))
    xi, alpha = 0.4, 0.3
    seq = read_stage(rho, xi, xi)
    seq = apply_loss(apply_loss(seq, alpha, 0), alpha, 1)
    combined = read_stage(rho, xi * alpha, xi * alpha)
    assert np.max(np.abs(seq.matrix - combined.matrix)) < 1e-12


# ---------------------------------------------------------------------------
# full experiment


def test_ideal_fringe_visibility_near_unity():
    cfg = config_from_dict(ideal_config_dict(ensembles={"L": {"chi": 1e-4, "xi": 1.0}, "R": {"chi": 1e-4, "xi": 1.0}}))
    result = full_experiment(cfg)
    visibility, _ = _fit_probability_fringe(result)
    assert visibility > 0.999


def test_fringe_pi_offset_between_heralds():
    cfg = config_from_dict(ideal_config_dict())
    res_a = full_experiment(cfg, "D1a")
    res_b = full_experiment(cfg, "D1b")
    _, phase_a = _fit_probability_fringe(res_a)
    _, phase_b = _fit_probability_fringe(res_b)
    delta = abs((phase_a - phase_b + math.pi) % (2 * math.pi) - math.pi)
    assert abs(delta - math.pi) < 1e-6


def test_eta1_substitutes_for_phi():
    # the probability curve with a write-path phase offset equals the curve
    # with the analysis phase shifted by the same amount, point by point
    shift = 0.7
    grid = [k * 2.0 * math.pi / 12.0 for k in range(13)]
    cfg_shifted_phi = config_from_dict(ideal_config_dict(fringe_phases=[p + shift for p in grid]))
    cfg_eta1 = config_from_dict(
        ideal_config_dict(interferometer={"bs1_T": 0.5, "eta1": shift}, fringe_phases=grid)
    )
    base = full_experiment(cfg_shifted_phi)
    moved = full_experiment(cfg_eta1)
    for (phi_a, probs_a), (phi_b, probs_b) in zip(base.fringe_probs, moved.fringe_probs):
        assert abs((phi_a - shift) - phi_b) < 1e-12
        for pattern, value in probs_a.items():
            assert abs(value - probs_b[pattern]) < 1e-10


def test_eta1_pointwise_substitution():
    shift = 2.0 * math.pi * 3.0 / 12.0  # lands exactly on the 13-point grid
    cfg0 = config_from_dict(ideal_config_dict())
    cfg1 = config_from_dict(ideal_config_dict(interferometer={"bs1_T": 0.5, "eta1": shift}))
    base = {round(phi, 9): probs for phi, probs in full_experiment(cfg0).fringe_probs}
    moved = full_experiment(cfg1)
    checked = 0
    for phi, probs in moved.fringe_probs:
        partner = round(phi + shift, 9)
        if partner in base:
            for pattern, value in probs.items():
                assert abs(value - base[partner][pattern]) < 1e-10
            checked += 1
    assert checked >= 9


def test_residual_visibility_from_finite_extinction():
    lam = overlap_from_extinction_db(28.0)
    cfg = config_from_dict(ideal_config_dict(interferometer={"bs1_T": 0.5, "overlap": lam}))
    visibility, _ = _fit_probability_fringe(full_experiment(cfg))
    assert 0.06 <= visibility <= 0.10
    assert abs(visibility - lam) < 5e-3


def test_zero_overlap_kills_fringe():
    cfg = config_from_dict(ideal_config_dict(interferometer={"bs1_T": 0.5, "overlap": 0.0}))
    visibility, _ = _fit_probability_fringe(full_experiment(cfg))
    assert visibility < 0.01


def test_phase_jitter_scales_visibility():
    sigma = 0.8
    base_cfg = config_from_dict(ideal_config_dict(trials=0))
    jitter_cfg = config_from_dict(
        ideal_config_dict(interferometer={"bs1_T": 0.5, "phase_jitter_sigma": sigma}, trials=0)
    )
    v0, _ = _fit_probability_fringe(full_experiment(base_cfg))
    vj, _ = _fit_probability_fringe(full_experiment(jitter_cfg))
    # 1e-4 headroom: the fitted fundamental carries a tiny second-harmonic
    # alias from two-photon coherences
    assert abs(vj - v0 * math.exp(-(sigma**2) / 2.0)) < 1e-4
    # sampled counts inherit the dephasing within Monte Carlo error
    result = full_experiment(jitter_cfg)
    records = sample_fringe_records(result, 200000, seed=31)
    fit = fit_fringe(FringeScan(records))
    assert abs(fit.visibility - v0 * math.exp(-(sigma**2) / 2.0)) < 4 * fit.sigma_visibility


def test_static_analysis_phase_shifts_fitted_fringe():
    # a calibration offset on the analysis phase moves the fitted phase
    # origin but not the visibility; the fit estimates it freely
    offset = 1.1
    base = full_experiment(config_from_dict(ideal_config_dict()))
    moved = full_experiment(config_from_dict(ideal_config_dict(interferometer={"bs1_T": 0.5, "phi": offset})))
    v0, phase0 = _fit_probability_fringe(base)
    v1, phase1 = _fit_probability_fringe(moved)
    assert abs(v0 - v1) < 1e-4  # two-photon second harmonic aliases the fit
    delta = (phase0 - phase1) % (2.0 * math.pi)
    assert abs(delta - offset) < 1e-4


def test_pipeline_runs_at_cutoff_four_with_overlap():
    cfg = config_from_dict(
        ideal_config_dict(
            cutoff=4,
            ensembles={"L": {"chi": 0.02, "xi": 0.5}, "R": {"chi": 0.02, "xi": 0.5}},
            interferometer={"bs1_T": 0.45, "overlap": 0.8},
        )
    )
    result = full_experiment(cfg)
    assert result.z0.register.cutoff == 4
    total = sum(p for _, p in result.diagonal_probs.items())
    assert abs(total - 1.0) < 1e-10


def test_g12_scales_inversely_with_chi():
    stats = field_pair_statistics(EnsembleParams(chi=1e-2, xi=1.0), cutoff=3)
    assert abs(stats.g12 - 1.0 / 1e-2) / (1.0 / 1e-2) < 0.05
    stats_lossy = field_pair_statistics(EnsembleParams(chi=1e-2, xi=0.1), field2_efficiency=0.13, cutoff=3)
    assert stats_lossy.g12 > 50.0  # nonclassical regardless of efficiency


def test_stream_ids_stable():
    assert stream_id("diag:D1a") == stream_id("diag:D1a")
    assert stream_id("diag:D1a") != stream_id("diag:D1b")
