import itertools
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2 as chi2_dist

from dlczsim.detection import (
    CountRecord,
    JointProbabilities,
    RecordIntegrityError,
    aggregate_split_detector,
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
    click_weights,
    two_mode_squeezed,
    vacuum,
)
from dlczsim.protocol import (
    EnsembleParams,
    HeraldChoice,
    HeraldError,
    InterferometerParams,
    herald,
    herald_probabilities,
    write_stage,
)

from helpers import (
    Detector,
    brute_force_pattern_probs,
    click_probabilities,
    condition_on_pattern,
    fock_state,
    partial_trace,
    random_density_operator,
)


def _pattern_probs(state, groups, efficiencies, dark_prob=0.0) -> dict:
    """Click-pattern probabilities of threshold detectors on mode ``groups``."""
    weights = click_weights(state.register, groups, efficiencies, dark_prob)
    return {pattern: float(w @ state.probabilities()) for pattern, w in zip(np.ndindex((2,) * len(groups)), weights)}


# ---------------------------------------------------------------------------
# threshold-detector click weights (fock.click_weights)


def test_vacuum_never_clicks():
    st = vacuum(ModeRegister(2, 2))
    probs = _pattern_probs(st, [[0], [1]], [0.8, 0.5])
    assert abs(probs[(0, 0)] - 1.0) < 1e-15


def test_single_photon_click_probability_is_efficiency():
    st = fock_state(ModeRegister(1, 2), (1,))
    eta = 0.37
    probs = _pattern_probs(st, [[0]], [eta])
    assert abs(probs[(1,)] - eta) < 1e-12
    assert abs(probs[(0,)] - (1.0 - eta)) < 1e-12


def test_pair_source_joint_click_vs_series_oracle():
    # perfectly correlated photon numbers: both sides click together
    chi = 0.1
    st = two_mode_squeezed(chi, 6)
    probs = _pattern_probs(st, [[0], [1]], [1.0, 1.0])
    oracle = brute_force_pattern_probs(st.to_density().matrix, st.register, [Detector("A", 1.0, (0,)), Detector("B", 1.0, (1,))])
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
    # single-mode detectors, and detectors on mode groups like the heralding pair
    for reg, groups in ((ModeRegister(2, 3), [(0,), (1,)]), (ModeRegister(3, 2), [(2, 0), (1,)])):
        for _ in range(10):
            rho = random_density_operator(reg, rng)
            etas = rng.uniform(0.2, 1.0, size=len(groups))
            probs = _pattern_probs(rho, groups, etas)
            oracle = brute_force_pattern_probs(rho.matrix, reg, [Detector(str(k), eta, g) for k, (g, eta) in enumerate(zip(groups, etas))])
            for pattern, value in oracle.items():
                assert abs(probs[pattern] - value) < 1e-8


def test_completeness_on_random_states():
    rng = np.random.default_rng(18)
    reg = ModeRegister(3, 2)
    for _ in range(10):
        rho = random_density_operator(reg, rng)
        etas = rng.uniform(size=3)
        weights = click_weights(reg, [[0], [1], [2]], etas)
        assert np.max(np.abs(weights.sum(axis=0) - 1.0)) < 1e-12  # the elements resolve the identity
        probs = _pattern_probs(rho, [[0], [1], [2]], etas)
        assert abs(sum(probs.values()) - 1.0) < 1e-10


def test_click_probability_monotone_in_efficiency():
    rng = np.random.default_rng(19)
    reg = ModeRegister(1, 3)
    for _ in range(5):
        rho = random_density_operator(reg, rng)
        last = -1.0
        for eta in np.linspace(0.0, 1.0, 11):
            p = _pattern_probs(rho, [[0]], [float(eta)])[(1,)]
            assert p >= last - 1e-12
            last = p


def test_duplicate_mode_rejected():
    with pytest.raises(ValueError, match="more than one detector"):
        click_weights(ModeRegister(2, 2), [[0], [0, 1]], [1.0, 1.0])


def test_joint_probabilities_validation():
    with pytest.raises(ValueError, match="sum"):
        JointProbabilities(("A",), {(0,): 0.6, (1,): 0.6})
    with pytest.raises(ValueError, match="outside"):
        JointProbabilities(("A",), {(0,): 1.2, (1,): -0.2})
    with pytest.raises(ValueError, match="length"):
        JointProbabilities(("A", "B"), {(0,): 1.0})
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="outside"):
            JointProbabilities(("A",), {(0,): bad, (1,): 0.0})


def test_dark_counts_still_complete():
    st = vacuum(ModeRegister(1, 2))
    probs = _pattern_probs(st, [[0]], [1.0], dark_prob=0.01)
    assert abs(probs[(1,)] - 0.01) < 1e-12
    assert abs(sum(probs.values()) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# conditioning on a click pattern: the heralding detectors (protocol.herald),
# and the generic weighted-partial-trace oracle of tests/helpers.py


def test_condition_on_vacuum_pattern_gives_marginal():
    a = two_mode_squeezed(0.2, 3)
    b = vacuum(ModeRegister(1, 3))
    joint = a.tensor(b)  # modes (0,1) correlated; mode 2 vacuum
    det = Detector("A", 0.6, (0,))
    conditioned, prob = condition_on_pattern(joint, [det], (0,))
    expected_prob = click_probabilities(joint, [det])[(0,)]
    assert abs(prob - expected_prob) < 1e-12
    # on a no-click outcome of mode 0 the (1,2) marginal reweights toward
    # low photon number; mode 2 remains vacuum
    assert abs(conditioned.matrix[0, 0].real - conditioned.probabilities()[0]) < 1e-12
    marg2 = partial_trace(conditioned, [1])
    assert abs(marg2.matrix[0, 0].real - 1.0) < 1e-12


def test_condition_click_after_balanced_splitter():
    # one field-1 photon paired with a left spin excitation, split 50/50 at the
    # heralding splitter: either detector clicks with probability 1/2 and the
    # spin excitation stays where it was
    st = fock_state(ModeRegister(4, 2), (1, 1, 0, 0))
    for which in ("D1a", "D1b"):
        rho, prob = herald(st, InterferometerParams(bs1_T=0.5), HeraldChoice(which))
        assert abs(prob - 0.5) < 1e-12
        one_left = rho.register.index((1, 0))
        assert abs(rho.matrix[one_left, one_left].real - 1.0) < 1e-12


def test_condition_probability_consistent_with_click_probabilities():
    rng = np.random.default_rng(20)
    for _ in range(6):
        overlap = float(rng.choice([1.0, rng.uniform(0.3, 0.95)]))
        state = write_stage(EnsembleParams(rng.uniform(0.01, 0.2)), EnsembleParams(rng.uniform(0.01, 0.2)), 2, overlap)
        interf = InterferometerParams(bs1_T=rng.uniform(0.2, 0.8), eta1=rng.uniform(0.0, 6.0))
        effs = rng.uniform(0.3, 1.0, size=2)
        patterns = herald_probabilities(state, interf, *effs)
        for which, pattern in (("D1a", (1, 0)), ("D1b", (0, 1))):
            _, prob = herald(state, interf, HeraldChoice(which), *effs)
            assert abs(prob - patterns[pattern]) < 1e-12
            _, prob = herald(state, interf, HeraldChoice(which, exclusive=False), *effs)
            assert abs(prob - patterns[pattern] - patterns[(1, 1)]) < 1e-12


def test_condition_zero_probability_raises():
    # a blind heralding detector never clicks
    state = write_stage(EnsembleParams(0.1), EnsembleParams(0.1), cutoff=2)
    with pytest.raises(HeraldError):
        herald(state, InterferometerParams(), HeraldChoice("D1a"), d1a_efficiency=0.0)


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
    probs = JointProbabilities(("D2a", "D2b", "D2c"), probs_map)
    agg = aggregate_split_detector(probs, ("D2b", "D2c"))
    assert abs(agg[(0, 1)] - 0.25) < 1e-15
    assert abs(agg[(0, 2)] - 0.05) < 1e-15
    assert abs(agg[(1, 0)] - 0.1) < 1e-15
    # marginal over the pair is preserved
    assert abs(sum(agg.values()) - 1.0) < 1e-15


def test_aggregate_vacuum_and_indivisible_photon():
    reg = ModeRegister(2, 2)
    pair = ("D2b", "D2c")
    vac = JointProbabilities(pair, _pattern_probs(vacuum(reg), [[0], [1]], [1.0, 1.0]))
    agg = aggregate_split_detector(vac, pair)
    assert abs(agg[(0,)] - 1.0) < 1e-15

    split = apply_beamsplitter(fock_state(reg, (1, 0)), 0.5, 0, 1)
    agg1 = aggregate_split_detector(JointProbabilities(pair, _pattern_probs(split, [[0], [1]], [1.0, 1.0])), pair)
    assert abs(agg1[(1,)] - 1.0) < 1e-12
    assert agg1.get((2,), 0.0) < 1e-12


# ---------------------------------------------------------------------------
# sampling


def _bernoulli_probs(p):
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
        read_count_records_csv(empty, ("D0", "D1"))

    bad = tmp_path / "bad.csv"
    bad.write_text("phase_phi_radians,pattern_bits,count,trials,seed\n0.0,01,xx,10,1\n")
    with pytest.raises(RecordIntegrityError, match="bad.csv:2"):
        read_count_records_csv(bad, ("D0", "D1"))

    header_only = tmp_path / "header.csv"
    header_only.write_text("phase_phi_radians,pattern_bits,count,trials,seed\n")
    with pytest.raises(RecordIntegrityError, match="no data"):
        read_count_records_csv(header_only, ("D0", "D1"))


# ---------------------------------------------------------------------------
# properties of count records


_PHASES = st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False))
_SEEDS = st.one_of(st.none(), st.integers(0, 2**63))


@st.composite
def _records(draw, n_detectors, phase=_PHASES, seed=_SEEDS):
    """A valid count record on detectors D0..D(n-1); zero counts included."""
    patterns = st.tuples(*[st.integers(0, 1)] * n_detectors)
    tally = draw(st.dictionaries(patterns, st.integers(0, 10**12), min_size=1).filter(lambda t: sum(t.values()) >= 1))
    ids = tuple(f"D{k}" for k in range(n_detectors))
    return CountRecord(ids, sum(tally.values()), tally, phase=draw(phase), seed=draw(seed))


@st.composite
def _record_files(draw):
    """Records of one detector count whose (phase, trials, seed) keys differ:
    a CSV file groups its rows by that key."""
    n_detectors = draw(st.integers(1, 3))
    return draw(
        st.lists(_records(n_detectors), min_size=1, max_size=4, unique_by=lambda r: (r.phase, r.trials, r.seed))
    )


@settings(max_examples=25, deadline=None)
@given(_record_files())
def test_csv_round_trip_gives_back_the_records(records):
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "counts.csv"
        write_count_records_csv(records, path)
        assert read_count_records_csv(path, records[0].detector_ids) == records


@settings(max_examples=25, deadline=None)
@given(_record_files())
def test_json_round_trip_gives_back_the_records(records):
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "counts.json"
        write_count_records_json(records, path)
        assert read_count_records_json(path) == records


@st.composite
def _same_setting(draw, size):
    n_detectors, phase = draw(st.integers(1, 3)), draw(_PHASES)
    return [draw(_records(n_detectors, phase=st.just(phase))) for _ in range(size)]


@settings(max_examples=25, deadline=None)
@given(_same_setting(3))
def test_merge_counts_is_associative_and_commutative(records):
    a, b, c = records
    assert merge_counts(a, merge_counts(b, c)) == merge_counts(merge_counts(a, b), c)
    assert merge_counts(a, b) == merge_counts(b, a)
    merged = merge_counts(a, b)
    assert merged.trials == a.trials + b.trials
    assert all(merged.tally[k] == a.tally.get(k, 0) + b.tally.get(k, 0) for k in {*a.tally, *b.tally})

