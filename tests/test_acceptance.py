"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
verdicts.  Tolerances are fixed here and nowhere else; every expected value
is either published experimental arithmetic or computed by an independent
oracle in helpers.py.
"""

import math

import numpy as np

from dlczsim.config import ChannelBudget, ChannelSide, config_from_dict
from dlczsim.detection import sample_counts
from dlczsim.entanglement import (
    backpropagate,
    concurrence_restricted,
    invert_attenuation,
    witnesses,
)
from dlczsim.fock import ModeRegister, click_weights
from dlczsim.layouts import diagonal_layout_probabilities, fringe_layout_probabilities
from dlczsim.pipeline import full_experiment, sample_fringe_records
from dlczsim.protocol import EnsembleParams, HeraldChoice, InterferometerParams, herald, read_stage, write_stage
from dlczsim.tomography import (
    AggregatedCounts,
    EfficiencyModel,
    FringeScan,
    RestrictedDensity,
    assemble_restricted,
    estimate_coherence,
    fit_fringe,
    invert_diagonal,
    log_likelihood,
    mle_fit,
    restrict,
    two_stage_block,
)

from helpers import (
    Detector,
    brute_force_pattern_probs,
    diagonal_estimate,
    ideal_config_dict,
    local_attenuation,
    local_phase,
    locc_bound_check,
    normalized_matrix,
    overlap_from_extinction_db,
    random_density_operator,
    random_restricted,
    restricted_matrix_for_model,
    wootters_concurrence,
)

PUBLISHED_D1A = dict(p00=0.98510, p10=7.38e-3, p01=7.51e-3, p11=1.7e-5)
PUBLISHED_D1B = dict(p00=0.98501, p10=6.19e-3, p01=8.78e-3, p11=1.9e-5)
SIGMAS_D1A = {"p00": 7e-5, "p10": 5e-5, "p01": 5e-5, "p11": 2e-6}
SIGMAS_D1B = {"p00": 7e-5, "p10": 4e-5, "p01": 5e-5, "p11": 2e-6}

BUDGET = ChannelBudget(
    ChannelSide(fc=(0.80, 0.02), c=(0.70, 0.02), f=(0.70, 0.02), apd=(0.32, 0.02)),
    ChannelSide(fc=(0.80, 0.02), c=(0.65, 0.02), f=(0.70, 0.02), apd=(0.40, 0.02)),
)

UNIT_EFF = EfficiencyModel()


def _passline(number: int, message: str) -> None:
    print(f"\nACCEPTANCE {number}: PASS - {message}")


def _coherence_simplified(table, visibility, sigmas):
    est = estimate_coherence(
        visibility,
        diagonal_estimate({"p01": table["p01"], "p10": table["p10"], "p11": table["p11"], "p02": 0.0}, sigmas),
        UNIT_EFF,
        "simplified",
        sigma_visibility=0.02,
    )
    return RestrictedDensity(
        d=min(est.d_abs, math.sqrt(table["p01"] * table["p10"])),
        sigmas={**sigmas, "d": est.sigma},
        **table,
    )


def test_criterion_1_concurrence_at_detectors():
    rd_a = _coherence_simplified(PUBLISHED_D1A, 0.70, SIGMAS_D1A)
    c_a = concurrence_restricted(rd_a, herald="D1a")
    assert 2.4e-3 - 0.6e-3 <= c_a.concurrence <= 2.4e-3 + 0.6e-3
    rd_b = _coherence_simplified(PUBLISHED_D1B, 0.71, SIGMAS_D1B)
    c_b = concurrence_restricted(rd_b, herald="D1b")
    assert 1.9e-3 - 0.6e-3 <= c_b.concurrence <= 1.9e-3 + 0.6e-3
    _passline(
        1,
        f"C(D1a) = {c_a.concurrence:.2e} in (2.4+-0.6)e-3; "
        f"C(D1b) = {c_b.concurrence:.2e} in (1.9+-0.6)e-3",
    )


def test_criterion_2_two_photon_suppression():
    w_a = witnesses(_coherence_simplified(PUBLISHED_D1A, 0.70, SIGMAS_D1A))
    w_b = witnesses(_coherence_simplified(PUBLISHED_D1B, 0.71, SIGMAS_D1B))
    assert abs(w_a.h_c2 - 0.307) < 5e-4
    assert abs(w_b.h_c2 - 0.350) < 5e-4
    assert 0.30 - 0.04 <= w_a.h_c2 <= 0.30 + 0.04
    assert 0.35 - 0.04 <= w_b.h_c2 <= 0.35 + 0.04
    _passline(2, f"h(D1a) = {w_a.h_c2:.3f} in 0.30+-0.04; h(D1b) = {w_b.h_c2:.3f} in 0.35+-0.04")


def test_criterion_3_backpropagation():
    rd_a = _coherence_simplified(PUBLISHED_D1A, 0.70, SIGMAS_D1A)
    z2_a = backpropagate(rd_a, BUDGET, "z2")
    total_a = z2_a.p10 + z2_a.p01
    assert abs(total_a - 0.110) <= 0.005
    c_a = concurrence_restricted(z2_a, herald="D1a")
    assert 0.021 - 0.006 <= c_a.concurrence <= 0.021 + 0.006

    rd_b = _coherence_simplified(PUBLISHED_D1B, 0.71, SIGMAS_D1B)
    z2_b = backpropagate(rd_b, BUDGET, "z2")
    total_b = z2_b.p10 + z2_b.p01
    assert abs(total_b - 0.110) <= 0.005
    c_b = concurrence_restricted(z2_b, herald="D1b")
    assert 0.016 - 0.006 <= c_b.concurrence <= 0.016 + 0.006
    _passline(
        3,
        f"p10+p01 at z2 = {total_a:.4f}/{total_b:.4f} (0.110+-0.005); "
        f"C_z2 = {c_a.concurrence:.3f} in 0.021+-0.006, {c_b.concurrence:.3f} in 0.016+-0.006",
    )


def test_criterion_4_splitter_asymmetry():
    bs1_T = 0.85 / 1.85
    state = write_stage(EnsembleParams(1e-3), EnsembleParams(1.2e-3), cutoff=3)
    interf = InterferometerParams(bs1_T=bs1_T)
    rho_a, _ = herald(state, interf, HeraldChoice("D1a"))
    rho_b, _ = herald(state, interf, HeraldChoice("D1b"))
    fields_a = restrict(read_stage(rho_a, 1.0, 1.0))
    fields_b = restrict(read_stage(rho_b, 1.0, 1.0))
    simulated = (fields_a.p01 / fields_a.p10) / (fields_b.p01 / fields_b.p10)
    assert abs(simulated / 0.7225 - 1.0) < 0.01

    measured = (PUBLISHED_D1A["p01"] / PUBLISHED_D1A["p10"]) / (PUBLISHED_D1B["p01"] / PUBLISHED_D1B["p10"])
    assert abs(round(measured, 3) - 0.717) < 1e-12
    assert abs(measured / 0.7225 - 1.0) < 0.01
    _passline(
        4,
        f"simulated ratio {simulated:.4f} vs (T/R)^2 = 0.7225 (within 1%); "
        f"published populations give {measured:.3f}",
    )


def test_criterion_5_distinguishability():
    seeds = 97
    visibilities = {}
    for label, overlap in (("matched", 1.0), ("orthogonal", 0.0), ("28dB", overlap_from_extinction_db(28.0))):
        cfg = config_from_dict(
            ideal_config_dict(
                ensembles={"L": {"chi": 2e-3, "xi": 1.0}, "R": {"chi": 2e-3, "xi": 1.0}},
                interferometer={"bs1_T": 0.5, "overlap": overlap},
            )
        )
        result = full_experiment(cfg)
        records = sample_fringe_records(result, 10**6, seed=seeds)
        fit = fit_fringe(FringeScan(records))
        visibilities[label] = (fit.visibility, fit.sigma_visibility, overlap)

    v, s, lam = visibilities["matched"]
    assert abs(v - lam) < max(4.0 * s, 5e-3)  # config-predicted: V tracks the overlap
    v0, s0, _ = visibilities["orthogonal"]
    assert v0 < 0.01
    v8, s8, lam8 = visibilities["28dB"]
    assert 0.06 <= v8 <= 0.10
    assert abs(v8 - lam8) < 4.0 * s8
    _passline(
        5,
        f"V(matched) = {v:.4f} ~ overlap; V(orthogonal) = {v0:.4f} < 0.01; "
        f"V(28 dB leakage) = {v8:.3f} in 0.08+-0.02",
    )


def test_criterion_6_round_trip_tomography():
    rng = np.random.default_rng(1905)
    eff = EfficiencyModel(eta_l=0.392, eta_r=0.364, eta_1=0.32, eta_2=0.40, eta_3=0.40)
    n_states = 20
    diag_trials = 10**7
    fringe_trials = 10**7 // 13
    phases = np.linspace(0.0, 2.0 * math.pi, 13)
    worst = 0.0
    # MLE-vs-two-stage agreement is a consistency statement: the difference of
    # two near-efficient estimators on the same data has spread of order the
    # quoted sigma, so it is enforced as RMS pull <= 1 over the ensemble with
    # a hard 4-sigma outlier guard per comparison.
    mle_pulls: list[float] = []
    for index in range(n_states):
        rd = random_restricted(rng)
        diagonals = {"p00": rd.p00, "p01": rd.p01, "p10": rd.p10, "p11": rd.p11, "p02": 0.0}
        rho = restricted_matrix_for_model(diagonals, rd.d_abs)
        dprobs = diagonal_layout_probabilities(rho, eff.d2a, eff.d2b, eff.d2c, eff.split)
        diag_rec = sample_counts(dprobs, diag_trials, seed=5000 + index, stream=0)
        fringe_recs = []
        for k, phi in enumerate(phases):
            fprobs = fringe_layout_probabilities(rho, float(phi), eff.d2a, eff.d2b, eff.d2c, eff.split, eff.bs2_T)
            fringe_recs.append(sample_counts(fprobs, fringe_trials, seed=5000 + index, stream=1 + k, phase=float(phi)))

        est = invert_diagonal(AggregatedCounts.from_record(diag_rec), eff)
        fit = fit_fringe(FringeScan(fringe_recs))
        coh = estimate_coherence(fit.visibility, est, eff, "full", fit.sigma_visibility)
        for key in ("p00", "p01", "p10", "p11"):
            pull = abs(est[key] - getattr(rd, key)) / max(est.sigmas[key], 1e-12)
            worst = max(worst, pull)
            assert pull < 5.0, f"state {index}: {key} off by {pull:.1f} sigma"
        pull_d = abs(coh.d_abs - rd.d_abs) / max(coh.sigma, 1e-12)
        worst = max(worst, pull_d)
        assert pull_d < 5.0, f"state {index}: |d| off by {pull_d:.1f} sigma"

        two_stage = assemble_restricted(est, coh, fit.phase0)
        mle = mle_fit([diag_rec], fringe_recs, eff, initial=two_stage)
        ll_two = log_likelihood(two_stage_block(two_stage), [diag_rec], fringe_recs, eff)
        assert mle.log_likelihood >= ll_two - 1e-9
        for key in ("p00", "p01", "p10", "p11"):
            pull = abs(getattr(mle.restricted, key) - est[key]) / max(est.sigmas[key], 1e-12)
            mle_pulls.append(pull)
            assert pull < 4.0, f"state {index}: MLE {key} disagrees by {pull:.1f} sigma"
        pull = abs(mle.restricted.d_abs - coh.d_abs) / max(coh.sigma, 1e-12)
        mle_pulls.append(pull)
        assert pull < 4.0, f"state {index}: MLE |d| disagrees by {pull:.1f} sigma"
    rms_pull = float(np.sqrt(np.mean(np.square(mle_pulls))))
    assert rms_pull <= 1.0, f"MLE/two-stage RMS pull {rms_pull:.2f} exceeds 1 sigma"
    _passline(
        6,
        f"{n_states} random states at 1e7 trials/layout recovered (worst pull "
        f"{worst:.2f} sigma < 5); MLE consistent with two-stage (RMS pull "
        f"{rms_pull:.2f} <= 1), never lower likelihood",
    )


def test_criterion_7_oracle_equivalence():
    rng = np.random.default_rng(23)
    worst_c = 0.0
    for _ in range(500):
        rd = random_restricted(rng)
        direct = concurrence_restricted(rd).concurrence
        oracle = wootters_concurrence(normalized_matrix(rd))
        worst_c = max(worst_c, abs(direct - oracle))
    assert worst_c < 1e-10

    worst_p = 0.0
    reg = ModeRegister(2, 3)
    for _ in range(10):
        rho = random_density_operator(reg, rng)
        etas = [float(rng.uniform(0.2, 1.0)), float(rng.uniform(0.2, 1.0))]
        probs = click_weights(reg, [[0], [1]], etas) @ rho.probabilities()
        oracle = brute_force_pattern_probs(rho.matrix, reg, [Detector("A", etas[0], (0,)), Detector("B", etas[1], (1,))])
        for p, value in zip(probs, oracle.values()):  # both in click-bit order
            worst_p = max(worst_p, abs(p - value))
    assert worst_p < 1e-8
    _passline(
        7,
        f"restricted vs spin-flip concurrence: max |diff| = {worst_c:.1e} (500 states); "
        f"click patterns vs operator-series oracle: max |diff| = {worst_p:.1e}",
    )


def test_criterion_8_locc_monotonicity():
    rng = np.random.default_rng(31)
    for index in range(200):
        rd = random_restricted(rng)
        before = normalized_matrix(rd)
        side = "L" if rng.integers(0, 2) == 0 else "R"
        kind = rng.integers(0, 3)
        if kind == 0:
            after = local_attenuation(before, float(rng.uniform()), side)
        elif kind == 1:
            after = local_phase(before, float(rng.uniform(0.0, 2.0 * math.pi)), side)
        else:
            after = local_attenuation(
                local_phase(before, float(rng.uniform(0.0, 2.0 * math.pi)), side),
                float(rng.uniform()),
                "L" if side == "R" else "R",
            )
        check = locc_bound_check(before, after, tol=1e-9)
        assert check.holds, f"pair {index}: bound {check.bound_after} > {check.c_before}"
    _passline(8, "200 random (state, local channel) pairs: P~C never increased beyond 1e-9")


def test_criterion_9_fringe_phase_structure():
    cfg = config_from_dict(ideal_config_dict(ensembles={"L": {"chi": 2e-3, "xi": 1.0}, "R": {"chi": 2e-3, "xi": 1.0}}))
    fits = {}
    for which in ("D1a", "D1b"):
        result = full_experiment(cfg, which=which)
        records = sample_fringe_records(result, 300000, seed=71)
        fits[which] = fit_fringe(FringeScan(records))
    delta = abs(fits["D1a"].phase0 - fits["D1b"].phase0)
    delta = abs((delta + math.pi) % (2.0 * math.pi) - math.pi)
    sigma = math.hypot(fits["D1a"].arms["2a"].sigma_phase0, fits["D1b"].arms["2a"].sigma_phase0)
    assert abs(delta - math.pi) < 5.0 * max(sigma, 1e-4)

    shift = 2.0 * math.pi / 6.0
    grid = [k * 2.0 * math.pi / 12.0 for k in range(13)]
    base = full_experiment(config_from_dict(ideal_config_dict(fringe_phases=[p + shift for p in grid])))
    moved = full_experiment(
        config_from_dict(ideal_config_dict(interferometer={"bs1_T": 0.5, "eta1": shift}, fringe_phases=grid))
    )
    worst = 0.0
    for (phi_a, probs_a), (_, probs_b) in zip(base.fringe_probs, moved.fringe_probs):
        for pattern, value in probs_a.items():
            worst = max(worst, abs(value - probs_b[pattern]))
    assert worst < 1e-10
    _passline(
        9,
        f"herald fringes offset by pi (|delta - pi| = {abs(delta - math.pi):.2e}, fit error); "
        f"eta1 reproduces the phi fringe exactly (max diff {worst:.1e})",
    )


def test_criterion_10_documented_exclusions():
    # Absolute count rates, the short-window parameter set and the atomic
    # state inference are excluded from quantitative acceptance; covered here
    # only by the retrieval-efficiency arithmetic: undoing xi ~ 0.11 readout
    # on an 11% excitation signal empties the vacuum population and returns
    # the source coherence C ~ V.
    source = RestrictedDensity(p00=0.0, p01=0.5, p10=0.5, p11=0.0, d=0.35)
    xi = 0.110
    attenuated = RestrictedDensity(
        p00=1.0 - 0.110,
        p01=source.p01 * xi,
        p10=source.p10 * xi,
        p11=0.0,
        d=source.d_abs * xi,
    )
    assert abs(attenuated.p10 + attenuated.p01 - 0.110) < 1e-12
    recovered = invert_attenuation(attenuated, xi, xi)
    assert recovered.p00 < 1e-9
    c_back = concurrence_restricted(recovered).concurrence
    assert abs(c_back - 0.70) < 0.02
    _passline(
        10,
        "excluded at desk scale (absolute rates, 120 ns parameter set, atomic-state "
        f"inference); retrieval arithmetic check: C_source = {c_back:.3f} ~ V = 0.70",
    )
