import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binomtest

import dlczsim.tomography as tom
from dlczsim.config import config_from_dict
from dlczsim.detection import CountRecord, RecordIntegrityError, aggregate_split_detector, sample_counts, substream_rng
from dlczsim.fock import DensityOperator, ModeRegister
from dlczsim.layouts import PATTERNS, SPLIT_PAIR, bench_povm, diagonal_layout_probabilities, fringe_layout_probabilities
from dlczsim.pipeline import full_experiment
from dlczsim.tomography import (
    AggregatedCounts,
    DIAG_KEYS,
    DataQualityError,
    EfficiencyModel,
    FringeScan,
    InconsistentCountsError,
    MLEConvergenceError,
    MLEOptions,
    Q_CLASSES,
    RestrictedDensity,
    assemble_restricted,
    arm_clicks,
    estimate_coherence,
    fit_fringe,
    forward_class_matrix,
    invert_diagonal,
    log_likelihood,
    mle_fit,
    restrict,
    two_stage_block,
)

from helpers import (
    fidelity,
    fringe_arms_loop,
    ideal_config_dict,
    lbfgs_mle_log_likelihood,
    normalized_matrix,
    random_density_operator,
    random_restricted,
    restricted_matrix_for_model,
    setting_povm_oracle,
    visibility_slope_oracle,
)

PUBLISHED_D1A = {"p00": 0.98510, "p10": 7.38e-3, "p01": 7.51e-3, "p11": 1.7e-5, "p02": 2.2e-5}

EFF_BENCH = EfficiencyModel(eta_l=0.392, eta_r=0.364, eta_1=0.32, eta_2=0.40, eta_3=0.40)


def _records_from_restricted(rd, eff, diag_trials, fringe_trials, seed, phases=None, exact=False):
    """Forward-simulate both layouts for a restricted-form state."""
    diagonals = {"p00": rd.p00, "p01": rd.p01, "p10": rd.p10, "p11": rd.p11, "p02": rd.p02 or 0.0}
    rho = restricted_matrix_for_model(diagonals, rd.d_abs)
    dprobs = diagonal_layout_probabilities(rho, eff.d2a, eff.d2b, eff.d2c, eff.split)
    if exact:
        diag_rec = _exact_record(dprobs, diag_trials)
    else:
        diag_rec = sample_counts(dprobs, diag_trials, seed=seed, stream=1)
    phases = np.linspace(0.0, 2.0 * math.pi, 13) if phases is None else phases
    fringe_recs = []
    for k, phi in enumerate(phases):
        fprobs = fringe_layout_probabilities(rho, phi, eff.d2a, eff.d2b, eff.d2c, eff.split, eff.bs2_T)
        if exact:
            fringe_recs.append(_exact_record(fprobs, fringe_trials, phase=float(phi)))
        else:
            fringe_recs.append(sample_counts(fprobs, fringe_trials, seed=seed, stream=100 + k, phase=float(phi)))
    return diag_rec, fringe_recs


def _exact_record(probs, trials, phase=None):
    """Deterministic record with counts proportional to exact probabilities."""
    patterns = sorted(probs.probabilities)
    counts = {p: int(round(probs.probabilities[p] * trials)) for p in patterns}
    counts[patterns[0]] += trials - sum(counts.values())
    return CountRecord(tuple(probs.detector_ids), trials, counts, phase=phase)


# ---------------------------------------------------------------------------
# bench model


EFF_UNBALANCED = dataclasses.replace(EFF_BENCH, split=0.3, bs2_T=0.6)


@pytest.mark.parametrize("eff", [EFF_BENCH, EFF_UNBALANCED], ids=["balanced", "unbalanced"])
def test_mle_elements_match_setting_povm_oracle(eff):
    phases = [float(p) for p in np.linspace(0.0, 2.0 * math.pi, 13)]
    diag_rec = CountRecord(("D2a", "D2b", "D2c"), 1, {(0, 0, 0): 1})
    fringe_recs = [dataclasses.replace(diag_rec, phase=phi) for phi in phases]
    elements, _, counts = tom._collect_mle_data([diag_rec], fringe_recs, eff)
    oracle = [setting_povm_oracle(eff, phi)[pattern] for phi in [None, *phases] for pattern in PATTERNS]
    assert elements.shape == (14 * len(PATTERNS), 6, 6)
    assert np.max(np.abs(elements - np.array(oracle))) < 1e-14
    assert list(counts) == [1, 0, 0, 0, 0, 0, 0, 0] * 14


@pytest.mark.parametrize(
    "eff", [EFF_BENCH, EFF_UNBALANCED, EfficiencyModel()], ids=["balanced", "unbalanced", "unit"]
)
def test_visibility_slope_matches_nine_phase_oracle(eff):
    for diagonals in (
        {"p00": 0.925, "p01": 0.045, "p10": 0.028, "p11": 1.1e-3, "p02": 0.4e-3},
        {"p01": 7.51e-3, "p10": 7.38e-3, "p11": 1.7e-5, "p02": 2.2e-5},
        {"p00": 0.0, "p01": 0.5, "p10": 0.5},
    ):
        oracle = visibility_slope_oracle(diagonals, eff)
        assert abs(tom._model_visibility_slope(diagonals, eff) - oracle) < 1e-12 * oracle
    with pytest.raises(DataQualityError):
        tom._model_visibility_slope({"p01": 0.1, "p10": 0.0}, eff)


def test_bench_quantities_share_the_bench_povm_cache():
    # an efficiency model no other test uses: the simulator builds its two
    # bench settings (population and fringe layout at cutoff 2) while making
    # the records; the inversion, the coherence slope and the MLE only read them
    eff = dataclasses.replace(EFF_BENCH, eta_1=0.3125)
    before = bench_povm.cache_info()
    diag_rec, fringe_recs = _records_from_restricted(random_restricted(np.random.default_rng(3)), eff, 10**5, 10**4, seed=4)
    simulated = bench_povm.cache_info()
    assert simulated.misses == before.misses + 2
    for read in (
        lambda: forward_class_matrix(eff),
        lambda: estimate_coherence(0.5, invert_diagonal(AggregatedCounts.from_record(diag_rec), eff), eff, "full", 0.01),
        lambda: mle_fit([diag_rec], fringe_recs, eff),
    ):
        hits = bench_povm.cache_info().hits
        read()
        assert bench_povm.cache_info().hits > hits
    assert bench_povm.cache_info().misses == simulated.misses


BENCH_CACHES = (bench_povm, tom._class_matrix, tom._fringe_arms, tom._mle_elements)


def test_cached_bench_quantities_are_read_only_and_bounded():
    diag_rec, fringe_recs = _records_from_restricted(random_restricted(np.random.default_rng(5)), EFF_BENCH, 10**5, 10**4, seed=6)
    elements, forms, _ = tom._collect_mle_data([diag_rec], fringe_recs, EFF_BENCH)
    bench = (EFF_BENCH.d2a, EFF_BENCH.d2b, EFF_BENCH.d2c, EFF_BENCH.split)
    for cached in (forward_class_matrix(EFF_BENCH), *tom._fringe_arms(*bench, EFF_BENCH.bs2_T), elements, forms):
        with pytest.raises(ValueError, match="read-only"):
            cached[(0,) * cached.ndim] = 1.0
    for cache in BENCH_CACHES:
        assert 0 < cache.cache_info().maxsize <= 64, cache


def test_cold_bench_caches_give_the_warm_bits():
    diag_rec, fringe_recs = _records_from_restricted(random_restricted(np.random.default_rng(8)), EFF_UNBALANCED, 10**6, 10**5, seed=9)

    def chain():
        est = invert_diagonal(AggregatedCounts.from_record(diag_rec), EFF_UNBALANCED, bootstrap=20, seed=1)
        fit = fit_fringe(FringeScan(fringe_recs))
        coherence = estimate_coherence(fit.visibility, est, EFF_UNBALANCED, "full", fit.sigma_visibility)
        rd = assemble_restricted(est, coherence, fit.phase0)
        mle = mle_fit([diag_rec], fringe_recs, EFF_UNBALANCED, initial=rd)
        ll = log_likelihood(two_stage_block(rd), [diag_rec], fringe_recs, EFF_UNBALANCED)
        return [est.values, est.sigmas, est.bootstrap_sigmas, coherence, mle.history, mle.rho.matrix.tobytes(), ll]

    chain()  # fills the caches
    warm = chain()
    for cache in BENCH_CACHES:
        cache.cache_clear()
    assert chain() == warm


# ---------------------------------------------------------------------------
# stage one: diagonal inversion


def test_forward_map_is_identity_at_unit_efficiency():
    m = forward_class_matrix(EfficiencyModel())
    # on the one-photon block the class probabilities are the populations
    expected = np.zeros((6, 5))
    expected[0, 0] = 1.0  # p00 -> (0,0)
    expected[1, 1] = 1.0  # p01 -> (0,1)
    expected[3, 2] = 1.0  # p10 -> (1,0)
    expected[4, 3] = 1.0  # p11 -> (1,1)
    expected[1, 4] = 0.5  # p02 splits between one and two clicks
    expected[2, 4] = 0.5
    assert np.max(np.abs(m - expected)) < 1e-12


def test_published_values_representable_exactly():
    # the expected counts of the published populations invert back to them
    p = np.array([PUBLISHED_D1A[k] for k in DIAG_KEYS])
    p = p / p.sum()
    trials = 10**9
    q = forward_class_matrix(EfficiencyModel()) @ p
    recovered = invert_diagonal(AggregatedCounts(counts=dict(zip(Q_CLASSES, q * trials)), trials=trials), EfficiencyModel())
    assert not recovered.flags
    for i, key in enumerate(DIAG_KEYS):
        assert abs(recovered[key] - p[i]) < 1e-12


def test_all_no_click_data_gives_vacuum():
    agg = AggregatedCounts(counts={(0, 0): 1000}, trials=1000)
    est = invert_diagonal(agg, EfficiencyModel())
    assert abs(est["p00"] - 1.0) < 1e-9
    for key in ("p01", "p10", "p11", "p02"):
        assert est[key] == 0.0


def test_inversion_round_trip_with_counts():
    rng = np.random.default_rng(2)
    truth = {"p00": 0.93, "p01": 0.04, "p10": 0.028, "p11": 1.5e-3, "p02": 0.5e-3}
    m = forward_class_matrix(EFF_BENCH)
    q = m @ np.array([truth[k] for k in DIAG_KEYS])
    trials = 10**7
    counts = rng.multinomial(trials, q / q.sum())
    agg = AggregatedCounts(counts=dict(zip(Q_CLASSES, (int(c) for c in counts))), trials=trials)
    est = invert_diagonal(agg, EFF_BENCH, bootstrap=100, seed=3)
    for key in DIAG_KEYS:
        assert abs(est[key] - truth[key]) < 3.0 * est.sigmas[key]
        # bootstrap cross-check agrees with the analytic covariance
        assert 0.6 < est.bootstrap_sigmas[key] / est.sigmas[key] < 1.6


def test_inversion_negative_clamp_and_flag():
    # a lone two-click event with no single-click partner drives p01 slightly
    # negative (p01 = q01 - p02/2); within noise it clamps to zero with a flag
    counts = {(0, 0): 999999, (0, 2): 1}
    est = invert_diagonal(AggregatedCounts(counts=counts, trials=10**6), EfficiencyModel())
    assert all(est[k] >= 0.0 for k in DIAG_KEYS)
    assert "clamped_p01" in est.flags


def test_inversion_inconsistent_counts_raise():
    # heavy two-click traffic with zero single clicks puts p01 far below
    # -3 sigma: the data cannot come from the model
    counts = {(0, 0): 900000, (0, 2): 100000}
    with pytest.raises(InconsistentCountsError):
        invert_diagonal(AggregatedCounts(counts=counts, trials=10**6), EfficiencyModel())


@pytest.mark.parametrize(
    "counts",
    [
        {(0, 0): 0, (0, 1): 49724, (0, 2): 15, (1, 0): 50210, (1, 1): 51, (1, 2): 0},
        {(0, 0): 0, (0, 1): 50101, (0, 2): 12, (1, 0): 49831, (1, 1): 55, (1, 2): 1},
    ],
    ids=["no_vacuum", "no_vacuum_one_triple"],
)
def test_inversion_without_vacuum_events(counts):
    # lossless records (the ideal preset) never show the (0,0) class; the
    # inversion must still weight the other classes consistently
    n = sum(counts.values())
    est = invert_diagonal(AggregatedCounts(counts=counts, trials=n), EfficiencyModel())
    assert 0.0 < est.sigmas["p00"] < 1e-4
    assert est["p00"] < 3.0 * est.sigmas["p00"]
    assert abs(est["p10"] - counts[(1, 0)] / n) < 3.0 * est.sigmas["p10"]


def _bootstrap_sigmas_one_at_a_time(agg, eff, bootstrap, seed):
    """The diagonal bootstrap as a loop: one draw and one GLS solve per replicate."""
    q, n, m = agg.frequencies(), agg.trials, forward_class_matrix(eff)
    kept = np.arange(len(Q_CLASSES)) != np.argmax(q)
    a = (m[:, 1:] - m[:, [0]])[kept]
    q_floor = np.clip(q[kept], 0.5 / n, None)
    w = np.linalg.inv((np.diag(q_floor) - np.outer(q_floor, q_floor)) / n)
    cov_x = np.linalg.inv(a.T @ w @ a)
    rng = substream_rng(seed, stream=0x626F6F74)
    pvals = np.clip(q, 0.0, None)
    pvals = pvals / pvals.sum()
    rows = []
    for _ in range(bootstrap):
        x = cov_x @ (a.T @ w @ (rng.multinomial(n, pvals) / n - m[:, 0])[kept])
        rows.append([1.0 - x.sum(), *x])
    return dict(zip(DIAG_KEYS, np.std(rows, axis=0, ddof=1)))


@pytest.mark.parametrize(
    "counts, eff",
    [
        ({(0, 0): 9851815, (0, 1): 74610, (0, 2): 100, (1, 0): 73300, (1, 1): 175, (1, 2): 0}, EFF_BENCH),
        ({(0, 0): 0, (0, 1): 49724, (0, 2): 15, (1, 0): 50210, (1, 1): 51, (1, 2): 0}, EfficiencyModel()),
    ],
    ids=["paper_like", "no_vacuum"],
)
def test_bootstrap_matches_one_replicate_at_a_time(counts, eff):
    agg = AggregatedCounts(counts=counts, trials=sum(counts.values()))
    boot = invert_diagonal(agg, eff, bootstrap=200, seed=5).bootstrap_sigmas
    oracle = _bootstrap_sigmas_one_at_a_time(agg, eff, 200, 5)
    for key in DIAG_KEYS:
        assert boot[key] == oracle[key], key


@settings(max_examples=60, deadline=None)
@given(
    weights=st.lists(st.one_of(st.just(0.0), st.floats(1e-9, 1.0)), min_size=2, max_size=8).filter(any),
    n=st.integers(1, 10**7),
    k=st.integers(1, 30),
    seed=st.integers(0, 2**32 - 1),
)
def test_bootstrap_size_draw_is_the_stream_of_single_draws(weights, n, k, seed):
    # invert_diagonal draws its replicates as one size= multinomial draw;
    # it must equal one draw per replicate, also where classes are empty
    pvals = np.array(weights) / sum(weights)
    rng = substream_rng(seed, stream=0x626F6F74)
    singles = [rng.multinomial(n, pvals) for _ in range(k)]
    assert np.array_equal(substream_rng(seed, stream=0x626F6F74).multinomial(n, pvals, size=k), singles)


def test_uncertainty_calibration_68_percent():
    # over repeated synthetic experiments the 1-sigma interval for p01 covers
    # the truth at the nominal rate
    rng = np.random.default_rng(5)
    truth = {"p00": 0.95, "p01": 0.03, "p10": 0.018, "p11": 1.2e-3, "p02": 0.8e-3}
    m = forward_class_matrix(EFF_BENCH)
    q = m @ np.array([truth[k] for k in DIAG_KEYS])
    q = q / q.sum()
    trials = 10**5
    hits = 0
    reps = 200
    for _ in range(reps):
        counts = rng.multinomial(trials, q)
        agg = AggregatedCounts(counts=dict(zip(Q_CLASSES, (int(c) for c in counts))), trials=trials)
        est = invert_diagonal(agg, EFF_BENCH)
        if abs(est["p01"] - truth["p01"]) <= est.sigmas["p01"]:
            hits += 1
    assert binomtest(hits, reps, 0.6827).pvalue > 1e-3


# ---------------------------------------------------------------------------
# stage two: fringes and coherence


def test_noiseless_unit_visibility():
    rd = RestrictedDensity(p00=0.9, p01=0.05, p10=0.05, p11=0.0, d=0.05)
    _, fringe = _records_from_restricted(rd, EfficiencyModel(), 10**9, 10**9, seed=0, exact=True)
    fit = fit_fringe(FringeScan(fringe))
    assert abs(fit.visibility - 1.0) < 1e-6


def test_flat_fringe_fits_zero_visibility():
    rd = RestrictedDensity(p00=0.9, p01=0.05, p10=0.05, p11=0.0, d=0.0)
    _, fringe = _records_from_restricted(rd, EfficiencyModel(), 10**6, 10**6, seed=7)
    fit = fit_fringe(FringeScan(fringe))
    assert abs(fit.visibility) < 4.0 * fit.sigma_visibility


def test_fringe_scan_validation():
    rd = RestrictedDensity(p00=0.9, p01=0.05, p10=0.05, p11=0.0, d=0.04)
    _, fringe = _records_from_restricted(rd, EfficiencyModel(), 10**4, 10**4, seed=8)
    with pytest.raises(DataQualityError, match="5 distinct"):
        FringeScan(fringe[:4])
    short = np.linspace(0.0, math.pi, 9)
    _, half_span = _records_from_restricted(rd, EfficiencyModel(), 10**4, 10**4, seed=9, phases=short)
    with pytest.raises(DataQualityError, match="2 pi"):
        FringeScan(half_span)


def test_overmodulated_fringe_rejected():
    # a trough-clipped cosine fits to V slightly above 1 with negligible
    # statistical error and must be rejected
    phases = np.linspace(0.0, 2.0 * math.pi, 25)
    records = []
    n = 10**9
    for phi in phases:
        p_a = max(0.05 * (1.0 + 1.02 * math.cos(phi)), 5e-4)
        p_b = max(0.05 * (1.0 - 1.02 * math.cos(phi)), 5e-4)
        k_a, k_b = int(p_a * n), int(p_b * n)
        tally = {(1, 0, 0): k_a, (0, 1, 0): k_b, (0, 0, 0): n - k_a - k_b}
        records.append(CountRecord(("D2a", "D2b", "D2c"), n, tally, phase=float(phi)))
    with pytest.raises(DataQualityError, match="exceeds 1"):
        fit_fringe(FringeScan(records))


def test_simplified_coherence_arithmetic():
    est = estimate_coherence(
        0.70, {"p01": 7.51e-3, "p10": 7.38e-3, "p11": 0.0, "p02": 0.0},
        EfficiencyModel(), "simplified",
    )
    assert abs(est.d_abs - 5.2115e-3) < 1e-7
    zero = estimate_coherence(0.0, {"p01": 7.51e-3, "p10": 7.38e-3}, EfficiencyModel(), "simplified")
    assert zero.d_abs == 0.0


def test_full_inversion_recovers_exact_coherence():
    diagonals = {"p00": 0.925, "p01": 0.045, "p10": 0.028, "p11": 1.1e-3, "p02": 0.4e-3}
    d_true = 0.6 * math.sqrt(diagonals["p01"] * diagonals["p10"])
    rho = restricted_matrix_for_model(diagonals, d_true)
    phases = np.linspace(0.0, 2.0 * math.pi, 13)
    records = []
    for phi in phases:
        probs = fringe_layout_probabilities(rho, phi, EFF_BENCH.d2a, EFF_BENCH.d2b, EFF_BENCH.d2c)
        records.append(_exact_record(probs, 10**9, phase=float(phi)))
    fit = fit_fringe(FringeScan(records))
    full = estimate_coherence(fit.visibility, diagonals, EFF_BENCH, "full")
    assert abs(full.d_abs - d_true) < 1e-6
    simple = estimate_coherence(fit.visibility, diagonals, EFF_BENCH, "simplified")
    # the textbook relation is biased at relative order p11/p10
    bound = 3.0 * (diagonals["p11"] / diagonals["p10"] + diagonals["p02"] / diagonals["p01"])
    assert abs(simple.d_abs - d_true) / d_true < bound
    assert abs(simple.d_abs - full.d_abs) / d_true < bound


def test_full_inversion_handles_unbalanced_splitters():
    # same exact round trip with a lopsided analysis splitter and split pair
    eff = EfficiencyModel(eta_l=0.5, eta_r=0.45, eta_1=0.3, eta_2=0.42, eta_3=0.38, split=0.61, bs2_T=0.44)
    diagonals = {"p00": 0.94, "p01": 0.032, "p10": 0.026, "p11": 0.9e-3, "p02": 0.3e-3}
    d_true = 0.55 * math.sqrt(diagonals["p01"] * diagonals["p10"])
    rho = restricted_matrix_for_model(diagonals, d_true)
    phases = np.linspace(0.0, 2.0 * math.pi, 13)
    records = []
    for phi in phases:
        probs = fringe_layout_probabilities(rho, phi, eff.d2a, eff.d2b, eff.d2c, eff.split, eff.bs2_T)
        records.append(_exact_record(probs, 10**9, phase=float(phi)))
    fit = fit_fringe(FringeScan(records))
    full = estimate_coherence(fit.visibility, diagonals, eff, "full")
    assert abs(full.d_abs - d_true) < 1e-6
    # the 50/50 shortcut is visibly biased here; the exact inversion is not
    simple = estimate_coherence(fit.visibility, diagonals, eff, "simplified")
    assert abs(simple.d_abs - d_true) > 10.0 * abs(full.d_abs - d_true)


def test_positivity_violation_flagged():
    # asymmetric populations make V (p01+p10)/2 exceed sqrt(p01 p10)
    est = estimate_coherence(
        0.9, {"p01": 4e-3, "p10": 0.25e-3, "p11": 0.0, "p02": 0.0}, EfficiencyModel(), "simplified"
    )
    assert est.d_abs > math.sqrt(4e-3 * 0.25e-3)
    assert "positivity_violation" in est.flags


# ---------------------------------------------------------------------------
# restriction


def test_restrict_identity_on_block_state():
    rd = random_restricted(np.random.default_rng(11))
    reg = ModeRegister(2, 2)
    mat = np.zeros((9, 9), dtype=complex)
    mat[np.ix_([0, 1, 3, 4], [0, 1, 3, 4])] = normalized_matrix(rd)
    back = restrict(DensityOperator(reg, mat))
    assert abs(back.p_tilde - 1.0) < 1e-12
    assert abs(back.p01 - rd.p01 / rd.p_tilde) < 1e-12
    assert abs(back.d_abs - rd.d_abs / rd.p_tilde) < 1e-12


def test_restrict_accounts_for_two_photon_weight():
    reg = ModeRegister(2, 2)
    mat = np.zeros((9, 9), dtype=complex)
    mat[0, 0] = 0.72
    mat[1, 1] = 0.09
    mat[3, 3] = 0.09
    mat[reg.index((0, 2)), reg.index((0, 2))] = 0.05
    mat[reg.index((2, 0)), reg.index((2, 0))] = 0.05
    rd = restrict(DensityOperator(reg, mat))
    assert abs(rd.p_tilde - 0.90) < 1e-12
    assert abs(rd.p02 - 0.05) < 1e-12
    assert abs(normalized_matrix(rd)[0, 0].real - 0.8) < 1e-12


def test_restrict_preserves_block_positivity():
    rng = np.random.default_rng(12)
    reg = ModeRegister(2, 2)
    for _ in range(20):
        rho = random_density_operator(reg, rng)
        rd = restrict(rho)
        evals = np.linalg.eigvalsh(normalized_matrix(rd))
        assert evals[0] > -1e-12


def test_restricted_density_invariants():
    with pytest.raises(ValueError, match="negative"):
        RestrictedDensity(p00=-0.1, p01=0.5, p10=0.4, p11=0.2)
    with pytest.raises(ValueError, match="positivity"):
        RestrictedDensity(p00=0.9, p01=0.04, p10=0.05, p11=0.01, d=0.9)


# ---------------------------------------------------------------------------
# maximum likelihood


def test_mle_on_vacuum_data():
    probs = diagonal_layout_probabilities(
        restricted_matrix_for_model({"p00": 1.0}, 0.0), 1.0, 1.0, 1.0
    )
    rec = _exact_record(probs, 10**6)
    result = mle_fit([rec], [], EfficiencyModel())
    assert result.restricted.p00 > 1.0 - 1e-4
    assert result.restricted.d_abs < 1e-6


def test_mle_round_trip_and_likelihood_dominance():
    rng = np.random.default_rng(13)
    rd = random_restricted(rng)
    eff = EFF_BENCH
    diag_rec, fringe_recs = _records_from_restricted(rd, eff, 10**7, 10**6, seed=21)
    est = invert_diagonal(AggregatedCounts.from_record(diag_rec), eff)
    fit = fit_fringe(FringeScan(fringe_recs))
    coh = estimate_coherence(fit.visibility, est, eff, "full", fit.sigma_visibility)
    two_stage = assemble_restricted(est, coh, fit.phase0)

    result = mle_fit([diag_rec], fringe_recs, eff, initial=two_stage)
    truth = restricted_matrix_for_model(
        {"p00": rd.p00, "p01": rd.p01, "p10": rd.p10, "p11": rd.p11}, rd.d_abs
    )
    assert fidelity(result.rho, DensityOperator(truth.register, truth.matrix)) >= 0.999

    history = np.array(result.history)
    assert np.all(np.diff(history) >= -1e-6)
    ll_two_stage = log_likelihood(two_stage_block(two_stage), [diag_rec], fringe_recs, eff)
    assert result.log_likelihood >= ll_two_stage - 1e-9


def _mle_forms_and_points(eff):
    rng = np.random.default_rng(31)
    diag_rec, fringe_recs = _records_from_restricted(random_restricted(rng), eff, 10**5, 10**4, seed=23)
    _, forms, counts = tom._collect_mle_data([diag_rec], fringe_recs, eff)
    mask = counts > 0
    args = (forms[mask], counts[mask].astype(float))
    centre = tom._factor_to_params(np.linalg.cholesky(np.diag([0.9, 0.04, 0.04, 0.01, 0.005, 0.005])))
    return args, [centre + 0.1 * rng.normal(size=centre.size) for _ in range(3)]


@pytest.mark.parametrize("eff", [EFF_BENCH, EFF_UNBALANCED], ids=["balanced", "unbalanced"])
def test_mle_gradient_matches_central_differences(eff):
    args, points = _mle_forms_and_points(eff)
    step = 1e-6
    for x in points:
        _, grad, _ = tom._ll_derivatives(x, *args)
        central = np.array(
            [
                tom._ll_derivatives(x + step * e, *args)[0] - tom._ll_derivatives(x - step * e, *args)[0]
                for e in np.eye(x.size)
            ]
        ) / (2.0 * step)
        np.testing.assert_allclose(grad, central, rtol=1e-5, atol=1e-5 * np.max(np.abs(central)))


@pytest.mark.parametrize("eff", [EFF_BENCH, EFF_UNBALANCED], ids=["balanced", "unbalanced"])
def test_mle_hessian_matches_central_differences(eff):
    args, points = _mle_forms_and_points(eff)
    step = 1e-6
    for x in points:
        _, _, hess = tom._ll_derivatives(x, *args)
        central = np.array(
            [
                tom._ll_derivatives(x + step * e, *args)[1] - tom._ll_derivatives(x - step * e, *args)[1]
                for e in np.eye(x.size)
            ]
        ) / (2.0 * step)
        np.testing.assert_allclose(hess, central, rtol=1e-5, atol=1e-5 * np.max(np.abs(central)))


def test_mle_quadratic_forms_reproduce_the_factor_probabilities():
    # Tr(E_k G G+) = x^T A_k x for every bench element, both layouts
    diag_rec = CountRecord(("D2a", "D2b", "D2c"), 1, {(0, 0, 0): 1})
    fringe_recs = [dataclasses.replace(diag_rec, phase=float(phi)) for phi in np.linspace(0.0, 2.0 * math.pi, 13)]
    elements, forms, _ = tom._collect_mle_data([diag_rec], fringe_recs, EFF_UNBALANCED)
    _, points = _mle_forms_and_points(EFF_UNBALANCED)
    for x in points:
        g = tom._params_to_factor(x)
        direct = np.einsum("kij,ji->k", elements, g @ g.conj().T).real
        np.testing.assert_allclose(np.einsum("i,kij,j->k", x, forms, x), direct, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("seed", [77, 78])
def test_mle_endpoint_stable_under_tiny_start_shift(seed):
    # moving the two-stage start by 1e-12 relative in d must leave the
    # maximum where it is, far inside the two-stage uncertainty
    from dlczsim.entanglement import concurrence_restricted

    eff = EFF_BENCH
    rd = RestrictedDensity(
        p00=PUBLISHED_D1A["p00"] / 1.000007,
        p01=PUBLISHED_D1A["p01"],
        p10=PUBLISHED_D1A["p10"],
        p11=PUBLISHED_D1A["p11"],
        d=0.70 * (PUBLISHED_D1A["p10"] + PUBLISHED_D1A["p01"]) / 2.0,
        p02=PUBLISHED_D1A["p02"],
    )
    diag_rec, fringe_recs = _records_from_restricted(rd, eff, 10**7, 10**6, seed=seed)
    est = invert_diagonal(AggregatedCounts.from_record(diag_rec), eff)
    fit = fit_fringe(FringeScan(fringe_recs))
    coh = estimate_coherence(fit.visibility, est, eff, "full", fit.sigma_visibility)
    two_stage = assemble_restricted(est, coh, fit.phase0)
    sigma_c = concurrence_restricted(two_stage).sigma_concurrence
    assert sigma_c > 0.0

    mles = [
        mle_fit([diag_rec], fringe_recs, eff, initial=start)
        for start in (two_stage, dataclasses.replace(two_stage, d=two_stage.d * (1.0 + 1e-12)))
    ]
    assert all(mle.converged for mle in mles)
    c_a, c_b = (concurrence_restricted(mle.restricted).concurrence for mle in mles)
    assert abs(c_a - c_b) < 1e-3 * sigma_c


def _two_stage(diag_rec, fringe_recs, eff):
    est = invert_diagonal(AggregatedCounts.from_record(diag_rec), eff)
    fit = fit_fringe(FringeScan(fringe_recs))
    coh = estimate_coherence(fit.visibility, est, eff, "full", fit.sigma_visibility)
    return assemble_restricted(est, coh, fit.phase0)


def _published_regime_records(seed):
    rd = RestrictedDensity(
        p00=PUBLISHED_D1A["p00"] / 1.000007,
        p01=PUBLISHED_D1A["p01"],
        p10=PUBLISHED_D1A["p10"],
        p11=PUBLISHED_D1A["p11"],
        d=0.70 * (PUBLISHED_D1A["p10"] + PUBLISHED_D1A["p01"]) / 2.0,
        p02=PUBLISHED_D1A["p02"],
    )
    eff = EfficiencyModel()
    return (*_records_from_restricted(rd, eff, 4 * 10**6, 3 * 10**5, seed=seed), eff)


def _permuted(record, order):
    """The same record with its detectors listed in ``order``."""
    ids = tuple(record.detector_ids[k] for k in order)
    tally = {tuple(pattern[k] for k in order): n for pattern, n in record.tally.items()}
    return CountRecord(ids, record.trials, tally, phase=record.phase, seed=record.seed)


@pytest.mark.parametrize("order", [(2, 0, 1), (1, 0, 2), (0, 2, 1)])
def test_records_in_another_detector_order_read_the_same(order):
    # a record file may list the detectors in any order; the bits follow it
    diag_rec, fringe_recs, eff = _published_regime_records(77)
    diag_perm, fringe_perm = _permuted(diag_rec, order), [_permuted(r, order) for r in fringe_recs]
    assert diag_perm.detector_ids != diag_rec.detector_ids
    agg, agg_perm = AggregatedCounts.from_record(diag_rec), AggregatedCounts.from_record(diag_perm)
    assert agg == agg_perm
    est, est_perm = (invert_diagonal(a, eff, bootstrap=20, seed=5) for a in (agg, agg_perm))
    assert (est.values, est.sigmas, est.bootstrap_sigmas) == (est_perm.values, est_perm.sigmas, est_perm.bootstrap_sigmas)
    assert fit_fringe(FringeScan(fringe_recs)).as_dict() == fit_fringe(FringeScan(fringe_perm)).as_dict()
    start = _two_stage(diag_rec, fringe_recs, eff)
    mle, mle_perm = mle_fit([diag_rec], fringe_recs, eff, initial=start), mle_fit([diag_perm], fringe_perm, eff, initial=start)
    assert (mle.restricted.as_dict(), mle.log_likelihood) == (mle_perm.restricted.as_dict(), mle_perm.log_likelihood)


def test_readout_matches_record_by_record_sums():
    # the pattern-count matrix reads the same classes and arms as summing
    # each tally, and the arm sums of probabilities run in pattern order
    diag_rec, fringe_recs, _ = _published_regime_records(77)
    scan = FringeScan(fringe_recs).arm_data()
    assert all(np.array_equal(a, b) for a, b in zip(scan, fringe_arms_loop(fringe_recs)))
    classes = aggregate_split_detector(diag_rec, SPLIT_PAIR)
    assert AggregatedCounts.from_record(diag_rec).counts == {cls: classes.get(cls, 0) for cls in Q_CLASSES}
    for _, probs in full_experiment(config_from_dict(ideal_config_dict())).fringe_probs:
        arms = arm_clicks(np.array([probs[pattern] for pattern in PATTERNS])).tolist()
        assert arms == [sum(p * w for p, w in zip(probs.probabilities.values(), weights)) for weights in tom._ARM_WEIGHTS.tolist()]


def test_records_of_other_detectors_rejected():
    for ids in (("D2a", "D2b", "D3"), ("D2a", "D2b", "D2b")):
        record = CountRecord(ids, 1, {(0, 0, 0): 1})
        with pytest.raises(RecordIntegrityError, match="not D2a, D2b, D2c"):
            AggregatedCounts.from_record(record)


def _chain_like_records(seed):
    # a random restricted state behind the criterion-6 bench, 1e7 trials per layout
    rd = random_restricted(np.random.default_rng(seed))
    return (*_records_from_restricted(rd, EFF_BENCH, 10**7, 10**7 // 13, seed=seed), EFF_BENCH)


@pytest.mark.parametrize(
    "records", [(_published_regime_records, 77), (_chain_like_records, 41), (_chain_like_records, 42), (_chain_like_records, 43)],
    ids=["published", "chain41", "chain42", "chain43"],
)
def test_mle_reaches_lbfgs_oracle(records):
    make, seed = records
    diag_rec, fringe_recs, eff = make(seed)
    two_stage = _two_stage(diag_rec, fringe_recs, eff)
    mle = mle_fit([diag_rec], fringe_recs, eff, initial=two_stage)
    assert mle.converged
    assert mle.log_likelihood >= lbfgs_mle_log_likelihood([diag_rec], fringe_recs, eff, two_stage) - 1e-9
    # the default stop leaves only the rounding of log L to gain (1e-14 relative is ~50 ulp)
    tight = mle_fit([diag_rec], fringe_recs, eff, MLEOptions(tol=1e-15), initial=two_stage)
    assert mle.log_likelihood >= tight.log_likelihood - 1e-14 * abs(tight.log_likelihood)


@pytest.mark.parametrize(
    "start",
    [
        RestrictedDensity(p00=0.5, p01=0.2, p10=0.2, p11=0.1, d=0.15),
        RestrictedDensity(p00=0.97, p01=0.01, p10=0.01, p11=0.01, d=-0.01j),
        RestrictedDensity(p00=0.25, p01=0.25, p10=0.25, p11=0.25, d=0.0),
        RestrictedDensity(p00=0.9, p01=0.0, p10=0.1, p11=0.0, d=0.0),
    ],
    ids=["strong", "wrong_phase", "uniform", "one_sided"],
)
def test_mle_reaches_the_maximum_from_distant_starts(start):
    # far from the maximum the tangent Hessian is indefinite; the damped
    # step must still climb to the maximum the two-stage start finds
    diag_rec, fringe_recs, eff = _chain_like_records(41)
    best = mle_fit([diag_rec], fringe_recs, eff, initial=_two_stage(diag_rec, fringe_recs, eff))
    mle = mle_fit([diag_rec], fringe_recs, eff, initial=start)
    assert mle.converged
    assert mle.log_likelihood >= best.log_likelihood - 1e-14 * abs(best.log_likelihood)


def test_mle_nonconvergence_carries_best_iterate():
    rng = np.random.default_rng(14)
    rd = random_restricted(rng)
    diag_rec, fringe_recs = _records_from_restricted(rd, EFF_BENCH, 10**5, 10**4, seed=22)
    with pytest.raises(MLEConvergenceError) as err:
        mle_fit([diag_rec], fringe_recs, EFF_BENCH, MLEOptions(max_iterations=1, tol=1e-16))
    assert err.value.best.rho is not None


# ---------------------------------------------------------------------------
# full two-stage round trip (smaller sibling of the acceptance criterion)


def test_published_regime_mle_concurrence_cross_validation():
    # synthetic data in the published regime: the maximum-likelihood
    # concurrence and the two-stage concurrence agree within one combined
    # standard deviation, and h from the inverted diagonals lands on the
    # published ratios
    from dlczsim.entanglement import concurrence_restricted, witnesses

    eff = EfficiencyModel()
    d_true = 0.70 * (PUBLISHED_D1A["p10"] + PUBLISHED_D1A["p01"]) / 2.0
    rd_true = RestrictedDensity(
        p00=PUBLISHED_D1A["p00"] / 1.000007,
        p01=PUBLISHED_D1A["p01"],
        p10=PUBLISHED_D1A["p10"],
        p11=PUBLISHED_D1A["p11"],
        d=d_true,
        p02=PUBLISHED_D1A["p02"],
    )
    diag_rec, fringe_recs = _records_from_restricted(rd_true, eff, 4 * 10**6, 3 * 10**5, seed=77)
    est = invert_diagonal(AggregatedCounts.from_record(diag_rec), eff)
    fit = fit_fringe(FringeScan(fringe_recs))
    coh = estimate_coherence(fit.visibility, est, eff, "full", fit.sigma_visibility)
    two_stage = assemble_restricted(est, coh, fit.phase0)

    h = witnesses(two_stage)
    assert abs(h.h_c2 - 0.307) < 3.0 * h.sigma_h_c2

    c_two = concurrence_restricted(two_stage)
    mle = mle_fit([diag_rec], fringe_recs, eff, initial=two_stage)
    c_mle = concurrence_restricted(mle.restricted)
    assert abs(c_mle.concurrence - c_two.concurrence) <= c_two.sigma_concurrence


def test_two_stage_round_trip_recovers_parameters():
    rng = np.random.default_rng(15)
    eff = EFF_BENCH
    for trial in range(3):
        rd = random_restricted(rng)
        diag_rec, fringe_recs = _records_from_restricted(rd, eff, 10**6, 10**5, seed=30 + trial)
        est = invert_diagonal(AggregatedCounts.from_record(diag_rec), eff)
        fit = fit_fringe(FringeScan(fringe_recs))
        coh = estimate_coherence(fit.visibility, est, eff, "full", fit.sigma_visibility)
        for key in ("p00", "p01", "p10", "p11"):
            truth = getattr(rd, key)
            assert abs(est[key] - truth) < 5.0 * max(est.sigmas[key], 1e-12)
        assert abs(coh.d_abs - rd.d_abs) < 5.0 * max(coh.sigma, 1e-12)
