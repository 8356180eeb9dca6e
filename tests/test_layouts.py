"""The cached bench POVM against density-matrix propagation through the
three-mode bench, of which the population layout is the transmitting case."""

from dataclasses import astuple

import numpy as np
import pytest

from dlczsim.fock import ModeRegister
from dlczsim.layouts import PATTERNS, bench_povm, diagonal_layout_probabilities, fringe_layout_probabilities

from helpers import diagonal_layout_oracle, fringe_layout_oracle, load_preset, random_density_operator

# D2a, D2b, D2c efficiencies of acceptance criterion 6
ETAS = (0.392 * 0.32, 0.364 * 0.40, 0.364 * 0.40)
SCAN = np.array(load_preset("paper").fringe_phases)
PHI_OFFSET = 0.37  # a static interferometer.phi on top of the scanned grid
# (eta_d2a, eta_d2b, eta_d2c, split, bs2_T, dark_prob)
BENCHES = {
    "paper": astuple(load_preset("paper").detectors),
    "lossless": (1.0, 1.0, 1.0, 0.5, 0.5, 0.0),
    "lossless_transmitting": (1.0, 1.0, 1.0, 0.5, 1.0, 0.0),
    "unequal": (0.9, 0.7, 0.55, 0.3, 0.4, 0.0),
    "unequal_dark": (0.9, 0.7, 0.55, 0.3, 0.4, 1e-3),
}


@pytest.mark.parametrize("cutoff", [2, 3, 4, 5])
@pytest.mark.parametrize("dark_prob", [0.0, 1e-3])
@pytest.mark.parametrize("split, bs2_T", [(0.5, 0.5), (0.3, 0.6)], ids=["balanced", "unbalanced"])
def test_bench_povm_matches_density_propagation(cutoff, dark_prob, split, bs2_T):
    assert len(SCAN) == 13
    rho = random_density_operator(ModeRegister(2, cutoff), np.random.default_rng(cutoff))
    pairs = [
        (
            diagonal_layout_probabilities(rho, *ETAS, split, dark_prob),
            diagonal_layout_oracle(rho, *ETAS, split, dark_prob),
        )
    ]
    for phi in [*SCAN, *(SCAN + PHI_OFFSET)]:
        pairs.append(
            (
                fringe_layout_probabilities(rho, phi, *ETAS, split, bs2_T, dark_prob),
                fringe_layout_oracle(rho, phi, *ETAS, split, bs2_T, dark_prob),
            )
        )
    for got, want in pairs:
        assert got.detector_ids == want.detector_ids
        assert list(got.probabilities) == list(want.probabilities) == list(PATTERNS)
        for pattern in PATTERNS:
            assert abs(got[pattern] - want[pattern]) < 1e-14
    # the population layout is the fringe bench at phase 0 with its recombiner
    # transmitting, whose elements are Fock diagonal
    assert pairs[0][0] == fringe_layout_probabilities(rho, 0.0, *ETAS, split, 1.0, dark_prob)
    population = bench_povm(cutoff, *ETAS, split, 1.0, dark_prob)
    assert not population[:, ~np.eye(population.shape[1], dtype=bool)].any()


def test_bench_povm_is_shared_and_read_only():
    rho = random_density_operator(ModeRegister(2, 3), np.random.default_rng(0))
    povm = bench_povm(3, *ETAS, 0.5, 0.5, 0.0)
    assert povm.shape == (8, 16, 16)
    assert bench_povm(3, *ETAS, 0.5, 0.5, 0.0) is povm
    with pytest.raises(ValueError):
        povm[0, 0, 0] = 1.0
    hits = bench_povm.cache_info().hits
    for phi in SCAN:
        fringe_layout_probabilities(rho, phi, *ETAS, 0.5, 0.5, 0.0)
    assert bench_povm.cache_info().hits == hits + len(SCAN)


@pytest.mark.parametrize("cutoff", [2, 3, 4, 5])
@pytest.mark.parametrize("bench", BENCHES.values(), ids=BENCHES.keys())
def test_bench_povm_is_nonnegative_and_keeps_its_structural_zeros(cutoff, bench):
    povm = bench_povm(cutoff, *bench)
    photons = ModeRegister(2, cutoff).occupations().sum(axis=1)
    for pattern, element in zip(PATTERNS, povm):
        assert np.diagonal(element).real.min() >= 0.0
        assert np.linalg.eigvalsh(element)[0] >= -1e-15
        if bench[-1] == 0.0:
            # without dark counts, k clicks need at least k photons
            fewer = photons < sum(pattern)
            assert not element[fewer].any() and not element[:, fewer].any()
