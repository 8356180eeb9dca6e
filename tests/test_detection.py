import itertools
import math

import numpy as np
import pytest
from scipy.stats import chi2 as chi2_dist

from dlczsim.detection import (
    CountRecord,
    DetectorSpec,
    RecordIntegrityError,
    ZeroProbabilityError,
    aggregate_split_detector,
    click_probabilities,
    condition_on_pattern,
    merge_counts,
    read_count_records_csv,
    read_count_records_json,
    sample_counts,
    write_count_records_csv,
    write_count_records_json,
)
from dlczsim.fock import (
    ModeRegister,
    apply_beamsplitter,
    fock_state,
    partial_trace,
    two_mode_squeezed,
    vacuum,
)

from helpers import brute_force_pattern_probs, random_density_operator


def test_vacuum_never_clicks():
    st = vacuum(ModeRegister(2, 2))
    dets = [DetectorSpec("A", 0.8, 0), DetectorSpec("B", 0.5, 1)]
    probs = click_probabilities(st, dets)
    assert abs(probs[(0, 0)] - 1.0) < 1e-15


def test_single_photon_click_probability_is_efficiency():
    st = fock_state(ModeRegister(1, 2), (1,))
    eta = 0.37
    probs = click_probabilities(st, [DetectorSpec("A", eta, 0)])
    assert abs(probs[(1,)] - eta) < 1e-12
    assert abs(probs[(0,)] - (1.0 - eta)) < 1e-12


def test_pair_source_joint_click_vs_series_oracle():
    # perfectly correlated photon numbers: both sides click together
    chi = 0.1
    st = two_mode_squeezed(chi, 6)
    dets = [DetectorSpec("A", 1.0, 0), DetectorSpec("B", 1.0, 1)]
    probs = click_probabilities(st, dets)
    oracle = brute_force_pattern_probs(st.to_density().matrix, st.register, dets)
    for pattern in oracle:
        assert abs(probs[pattern] - oracle[pattern]) < 1e-8
    # the series value itself: renormalized geometric tail
    weights = np.array([(1.0 - chi) * chi**n for n in range(7)])
    expected_both = weights[1:].sum() / weights.sum()
    assert abs(probs[(1, 1)] - expected_both) < 1e-8
    assert abs(probs[(1, 0)]) < 1e-12
    assert abs(probs[(0, 1)]) < 1e-12


def test_pattern_probabilities_match_operator_oracle_on_random_states():
    rng = np.random.default_rng(17)
    reg = ModeRegister(2, 3)
    for _ in range(10):
        rho = random_density_operator(reg, rng)
        dets = [
            DetectorSpec("A", rng.uniform(0.2, 1.0), 0),
            DetectorSpec("B", rng.uniform(0.2, 1.0), 1),
        ]
        probs = click_probabilities(rho, dets)
        oracle = brute_force_pattern_probs(rho.matrix, reg, dets)
        for pattern, value in oracle.items():
            assert abs(probs[pattern] - value) < 1e-8


def test_completeness_on_random_states():
    rng = np.random.default_rng(18)
    reg = ModeRegister(3, 2)
    for _ in range(10):
        rho = random_density_operator(reg, rng)
        dets = [
            DetectorSpec("A", rng.uniform(), 0),
            DetectorSpec("B", rng.uniform(), 1),
            DetectorSpec("C", rng.uniform(), 2),
        ]
        probs = click_probabilities(rho, dets)
        assert abs(sum(p for _, p in probs.items()) - 1.0) < 1e-10


def test_click_probability_monotone_in_efficiency():
    rng = np.random.default_rng(19)
    reg = ModeRegister(1, 3)
    for _ in range(5):
        rho = random_density_operator(reg, rng)
        last = -1.0
        for eta in np.linspace(0.0, 1.0, 11):
            p = click_probabilities(rho, [DetectorSpec("A", float(eta), 0)])[(1,)]
            assert p >= last - 1e-12
            last = p


def test_duplicate_mode_rejected():
    st = vacuum(ModeRegister(2, 2))
    dets = [DetectorSpec("A", 1.0, 0), DetectorSpec("B", 1.0, (0, 1))]
    with pytest.raises(ValueError, match="more than one detector"):
        click_probabilities(st, dets)


def test_joint_probabilities_validation():
    from dlczsim.detection import JointProbabilities

    with pytest.raises(ValueError, match="sum"):
        JointProbabilities(("A",), {(0,): 0.6, (1,): 0.6})
    with pytest.raises(ValueError, match="outside"):
        JointProbabilities(("A",), {(0,): 1.2, (1,): -0.2})
    with pytest.raises(ValueError, match="length"):
        JointProbabilities(("A", "B"), {(0,): 1.0})


def test_dark_counts_still_complete():
    st = vacuum(ModeRegister(1, 2))
    probs = click_probabilities(st, [DetectorSpec("A", 1.0, 0, dark_prob=0.01)])
    assert abs(probs[(1,)] - 0.01) < 1e-12
    assert abs(sum(p for _, p in probs.items()) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# conditioning


def test_condition_on_vacuum_pattern_gives_marginal():
    a = two_mode_squeezed(0.2, 3)
    b = vacuum(ModeRegister(1, 3))
    joint = a.tensor(b)  # modes (0,1) correlated; mode 2 vacuum
    det = DetectorSpec("A", 0.6, 0)
    conditioned, prob = condition_on_pattern(joint, [det], (0,))
    expected_prob = click_probabilities(joint, [det])[(0,)]
    assert abs(prob - expected_prob) < 1e-12
    # on a no-click outcome of mode 0 the (1,2) marginal reweights toward
    # low photon number; mode 2 remains vacuum
    assert abs(conditioned.matrix[0, 0].real - conditioned.probabilities()[0]) < 1e-12
    marg2 = partial_trace(conditioned, [1])
    assert abs(marg2.matrix[0, 0].real - 1.0) < 1e-12


def test_condition_click_after_balanced_splitter():
    # one photon split 50/50: a click on one output collapses the other to
    # vacuum, with herald probability 1/2
    st = fock_state(ModeRegister(2, 2), (1, 0))
    split = apply_beamsplitter(st, 0.5, 0, 1)
    conditioned, prob = condition_on_pattern(split, [DetectorSpec("A", 1.0, 0)], (1,))
    assert abs(prob - 0.5) < 1e-12
    assert abs(conditioned.matrix[0, 0].real - 1.0) < 1e-12


def test_condition_probability_consistent_with_click_probabilities():
    rng = np.random.default_rng(20)
    reg = ModeRegister(3, 2)
    for _ in range(6):
        rho = random_density_operator(reg, rng)
        dets = [DetectorSpec("A", rng.uniform(0.3, 1.0), 0), DetectorSpec("B", rng.uniform(0.3, 1.0), 2)]
        probs = click_probabilities(rho, dets)
        for pattern in itertools.product((0, 1), repeat=2):
            _, prob = condition_on_pattern(rho, dets, pattern)
            assert abs(prob - probs[pattern]) < 1e-12


def test_condition_zero_probability_raises():
    st = vacuum(ModeRegister(2, 2))
    with pytest.raises(ZeroProbabilityError):
        condition_on_pattern(st, [DetectorSpec("A", 1.0, 0)], (1,))


# ---------------------------------------------------------------------------
# split-pair aggregation


def test_aggregate_definition():
    probs_map = {
        (0, 0, 0): 0.6,
        (0, 1, 0): 0.1,
        (0, 0, 1): 0.15,
        (0, 1, 1): 0.05,
        (1, 0, 0): 0.1,
    }
    from dlczsim.detection import JointProbabilities

    probs = JointProbabilities(("D2a", "D2b", "D2c"), probs_map)
    agg = aggregate_split_detector(probs, ("D2b", "D2c"))
    assert abs(agg[(0, 1)] - 0.25) < 1e-15
    assert abs(agg[(0, 2)] - 0.05) < 1e-15
    assert abs(agg[(1, 0)] - 0.1) < 1e-15
    # marginal over the pair is preserved
    assert abs(sum(agg.values()) - 1.0) < 1e-15


def test_aggregate_vacuum_and_indivisible_photon():
    reg = ModeRegister(2, 2)
    dets = [DetectorSpec("D2b", 1.0, 0), DetectorSpec("D2c", 1.0, 1)]
    vac = click_probabilities(vacuum(reg), dets)

    from dlczsim.detection import JointProbabilities

    agg = aggregate_split_detector(JointProbabilities(("D2b", "D2c"), dict(vac.items())), ("D2b", "D2c"))
    assert abs(agg[(0,)] - 1.0) < 1e-15

    split = apply_beamsplitter(fock_state(reg, (1, 0)), 0.5, 0, 1)
    probs = click_probabilities(split, dets)
    agg1 = aggregate_split_detector(probs, ("D2b", "D2c"))
    assert abs(agg1[(1,)] - 1.0) < 1e-12
    assert agg1.get((2,), 0.0) < 1e-12


# ---------------------------------------------------------------------------
# sampling


def _bernoulli_probs(p):
    from dlczsim.detection import JointProbabilities

    return JointProbabilities(("A",), {(0,): 1.0 - p, (1,): p})


def test_sampling_validation_and_determinism():
    probs = _bernoulli_probs(0.5)
    with pytest.raises(ValueError):
        sample_counts(probs, 0, seed=1)
    one = sample_counts(probs, 1, seed=1)
    assert sum(one.tally.values()) == 1
    sure = sample_counts(_bernoulli_probs(1.0), 100, seed=2)
    assert sure.tally[(1,)] == 100
    a = sample_counts(probs, 1000, seed=3, stream=7)
    b = sample_counts(probs, 1000, seed=3, stream=7)
    assert a.tally == b.tally
    c = sample_counts(probs, 1000, seed=3, stream=8)
    assert c.tally != a.tally or c.seed == a.seed  # different stream, same seed


def test_sampling_five_sigma_band():
    trials = 10**6
    rec = sample_counts(_bernoulli_probs(0.5), trials, seed=11)
    k = rec.tally[(1,)]
    sigma = math.sqrt(trials * 0.25)
    assert abs(k - trials / 2) < 5 * sigma


def test_sampling_goodness_of_fit():
    # G statistic ~ chi^2 with k-1 dof; threshold at the 5-sigma-equivalent
    # quantile
    rng = np.random.default_rng(4)
    pvals = rng.dirichlet(np.ones(8))
    from dlczsim.detection import JointProbabilities

    patterns = list(itertools.product((0, 1), repeat=3))
    probs = JointProbabilities(("A", "B", "C"), dict(zip(patterns, pvals)))
    trials = 10**6
    rec = sample_counts(probs, trials, seed=12)
    g = 0.0
    for pattern, p in probs.items():
        n = rec.tally.get(pattern, 0)
        if n > 0:
            g += 2.0 * n * math.log(n / (trials * p))
    threshold = chi2_dist.ppf(1.0 - 2.9e-7, df=7)
    assert g < threshold


def test_merge_counts_associative():
    probs = _bernoulli_probs(0.3)
    a = sample_counts(probs, 500, seed=1, stream=0)
    b = sample_counts(probs, 700, seed=1, stream=1)
    merged = merge_counts(a, b)
    assert merged.trials == 1200
    assert merged.tally[(1,)] == a.tally[(1,)] + b.tally[(1,)]


# ---------------------------------------------------------------------------
# serialization


def test_count_record_integrity():
    with pytest.raises(RecordIntegrityError):
        CountRecord(("A",), 10, {(0,): 4, (1,): 5})
    with pytest.raises(RecordIntegrityError, match="negative count"):
        CountRecord(("A",), 10, {(0,): 15, (1,): -5})
    with pytest.raises(RecordIntegrityError, match="trials"):
        CountRecord(("A",), 0, {(0,): 0})
    with pytest.raises(RecordIntegrityError, match="0/1"):
        CountRecord(("A",), 10, {(2,): 10})


def test_csv_json_round_trip(tmp_path):
    probs = _bernoulli_probs(0.4)
    records = [
        sample_counts(probs, 1000, seed=5, stream=k, phase=phi)
        for k, phi in enumerate(np.linspace(0, 2 * math.pi, 6))
    ]
    csv_path = tmp_path / "records.csv"
    json_path = tmp_path / "records.json"
    write_count_records_csv(records, csv_path)
    write_count_records_json(records, json_path)

    back_csv = read_count_records_csv(csv_path, detector_ids=("A",))
    back_json = read_count_records_json(json_path)
    assert len(back_csv) == len(records)
    for orig, rc, rj in zip(records, back_csv, back_json):
        assert rc.tally == orig.tally
        assert rj.tally == orig.tally
        assert abs(rc.phase - orig.phase) < 1e-15
        assert rj.detector_ids == orig.detector_ids


def test_csv_parse_errors(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(RecordIntegrityError, match="empty"):
        read_count_records_csv(empty)

    bad = tmp_path / "bad.csv"
    bad.write_text("phase_phi_radians,pattern_bits,count,trials,seed\n0.0,01,xx,10,1\n")
    with pytest.raises(RecordIntegrityError, match="bad.csv:2"):
        read_count_records_csv(bad)

    header_only = tmp_path / "header.csv"
    header_only.write_text("phase_phi_radians,pattern_bits,count,trials,seed\n")
    with pytest.raises(RecordIntegrityError, match="no data"):
        read_count_records_csv(header_only)
