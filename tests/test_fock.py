import math
import warnings

import numpy as np
import pytest

from dlczsim.fock import (
    DEFAULT_MAX_DIM,
    DensityOperator,
    ModeRegister,
    PureState,
    _apply,
    apply_beamsplitter,
    apply_loss,
    apply_phase,
    apply_phase_jitter,
    beamsplitter_sectors,
    beamsplitter_unitary,
    click_weights,
    two_mode_squeezed,
    vacuum,
)
from dlczsim.layouts import bench_povm

from helpers import (
    expm_beamsplitter,
    fidelity,
    fock_state,
    moveaxis_apply,
    partial_trace,
    pi0_series_matrix,
    random_density_operator,
    tmss_probabilities_series,
    to_density,
    truncation_warning,
)


# ---------------------------------------------------------------------------
# state carriers


def test_density_operator_rejects_invalid():
    reg = ModeRegister(1, 2)
    bad_herm = np.eye(3, dtype=complex)
    bad_herm[0, 1] = 0.5
    bad_herm /= np.trace(bad_herm)
    with pytest.raises(ValueError, match="Hermitian"):
        DensityOperator(reg, bad_herm)
    with pytest.raises(ValueError, match="trace"):
        DensityOperator(reg, np.eye(3, dtype=complex))
    neg = np.diag([1.2, -0.2, 0.0]).astype(complex)
    with pytest.raises(ValueError, match="positive"):
        DensityOperator(reg, neg)
    # every comparison with NaN is False, so each check must be written to fail
    # on it; and a caller running with warnings as errors gets the ValueError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in ([[math.nan, 0], [0, math.nan]], [[math.inf, 0], [0, 0]], [[0.5, math.nan], [math.nan, 0.5]]):
            with pytest.raises(ValueError, match="Hermitian"):
                DensityOperator(ModeRegister(1, 1), bad)
            with pytest.raises(ValueError, match="Hermitian"):
                DensityOperator(ModeRegister(1, 1), bad, _skip_positivity=True)
        with pytest.raises(ValueError, match="trace"):
            DensityOperator(ModeRegister(1, 1), np.diag([1e308, 1e308]))
        # Hermitian with unit trace, but its symmetrisation overflows
        for skip in (False, True):
            with pytest.raises(ValueError, match="overflow"):
                DensityOperator(ModeRegister(1, 1), [[1, 1e308], [1e308, 0]], _skip_positivity=skip)


def test_density_operator_checks_positivity_at_any_dimension():
    reg = ModeRegister(1, 1100)  # 1101 levels: an eigenvalue check is O(dim^3), and still runs
    diag = np.zeros(reg.dim)
    diag[:2] = 1.2, -0.2
    with pytest.raises(ValueError, match="positive"):
        DensityOperator(reg, np.diag(diag))


def test_pure_state_norm_enforced():
    reg = ModeRegister(1, 1)
    with pytest.raises(ValueError, match="norm"):
        PureState(reg, np.array([1.0, 1.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in ([math.nan, 0.0], [math.inf, 0.0], [1.0, complex(0.0, math.nan)], [1e308, 1e308]):
            with pytest.raises(ValueError, match="norm"):
                PureState(reg, np.array(bad))


def test_register_bounds():
    with pytest.raises(ValueError):
        ModeRegister(0, 2)
    with pytest.raises(ValueError):
        ModeRegister(2, 0)
    largest = DEFAULT_MAX_DIM.bit_length() - 1  # 2**largest == DEFAULT_MAX_DIM
    assert ModeRegister(largest, 1).dim == DEFAULT_MAX_DIM
    with pytest.raises(MemoryError):
        ModeRegister(largest + 1, 1)


# ---------------------------------------------------------------------------
# two-mode squeezed source


def test_tmss_zero_excitation_is_vacuum():
    st = two_mode_squeezed(0.0, 3)
    assert abs(st.amplitudes[0] - 1.0) < 1e-15
    assert np.count_nonzero(st.amplitudes) == 1


def test_tmss_amplitude_ratio():
    st = two_mode_squeezed(0.01, 2)
    reg = st.register
    r = abs(st.amplitudes[reg.index((1, 1))] / st.amplitudes[reg.index((0, 0))]) ** 2
    assert abs(r - 0.01) < 1e-12


def test_tmss_truncation_deficit_closed_form():
    # tail of the geometric photon-number series, checked against explicit
    # series summation
    chi, cutoff = 0.2, 4
    st = two_mode_squeezed(chi, cutoff)
    assert abs(st.truncation_deficit - chi**5) < 1e-12
    series = [(1.0 - chi) * chi**n for n in range(20)]
    assert abs(st.truncation_deficit - sum(series[cutoff + 1 :]) / sum(series)) < 1e-6
    assert truncation_warning(st)
    assert not truncation_warning(two_mode_squeezed(1e-2, 4))


def test_tmss_domain_errors():
    with pytest.raises(ValueError):
        two_mode_squeezed(1.0, 3)
    with pytest.raises(ValueError):
        two_mode_squeezed(-0.1, 3)


# ---------------------------------------------------------------------------
# generic tensor application


def _random_pure_state(register: ModeRegister, rng: np.random.Generator) -> PureState:
    amps = rng.normal(size=register.dim) + 1j * rng.normal(size=register.dim)
    return PureState(register, amps / np.linalg.norm(amps))


def test_apply_matches_the_moveaxis_contraction_bit_for_bit():
    """``_apply`` permutes axes with ``transpose``; the ``np.moveaxis`` form
    gives the same array to the bit, for every single mode and every ordered
    pair of distinct modes, descending pairs included."""
    rng = np.random.default_rng(29)
    for n_modes in range(1, 5):
        for cutoff in range(1, 4):
            register = ModeRegister(n_modes, cutoff)
            states = (_random_pure_state(register, rng), random_density_operator(register, rng))
            singles = [(m,) for m in range(n_modes)]
            pairs = [(i, j) for i in range(n_modes) for j in range(n_modes) if i != j]
            for modes in singles + pairs:
                side = register.levels ** len(modes)
                mat = rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side))
                for state in states:
                    assert np.array_equal(_apply(state, mat, modes), moveaxis_apply(state, mat, modes)), (n_modes, cutoff, modes)


# ---------------------------------------------------------------------------
# beam splitter


def test_beamsplitter_identity_at_full_transmission():
    rng = np.random.default_rng(3)
    rho = random_density_operator(ModeRegister(2, 3), rng)
    out = apply_beamsplitter(rho, 1.0, 0, 1)
    assert np.max(np.abs(out.matrix - rho.matrix)) < 1e-12


def test_beamsplitter_single_photon_split():
    rho = to_density(fock_state(ModeRegister(2, 2), (1, 0)))
    out = apply_beamsplitter(rho, 0.5, 0, 1)
    reg = out.register
    i10, i01 = reg.index((1, 0)), reg.index((0, 1))
    assert abs(out.matrix[i10, i10] - 0.5) < 1e-12
    assert abs(out.matrix[i01, i01] - 0.5) < 1e-12
    assert abs(abs(out.matrix[i10, i01]) - 0.5) < 1e-12


def test_beamsplitter_hong_ou_mandel():
    # expected value frozen from the generator-exponential oracle: the
    # balanced splitter sends photon pairs out together
    st = fock_state(ModeRegister(2, 2), (1, 1))
    out = apply_beamsplitter(st, 0.5, 0, 1)
    reg = out.register
    oracle = expm_beamsplitter(2, 0.5)
    vec = np.zeros(reg.dim, dtype=complex)
    vec[reg.index((1, 1))] = 1.0
    expected = abs((oracle @ vec)[reg.index((1, 1))]) ** 2
    assert expected < 1e-24
    assert abs(out.amplitudes[reg.index((1, 1))]) ** 2 < 1e-24


@pytest.mark.parametrize("cutoff", [2, 3, 4, 5])
@pytest.mark.parametrize("transmittance", [0.0, 0.17, 0.5, 0.85, 1.0])
def test_beamsplitter_matches_expm_oracle(cutoff, transmittance):
    # the largest clipped sector (total photon number cutoff + 1) has size
    # cutoff, so cutoff 5 exponentiates 5x5 generator blocks
    mat = beamsplitter_unitary(cutoff, transmittance)
    oracle = expm_beamsplitter(cutoff, transmittance)
    assert np.max(np.abs(mat - oracle)) < 1e-10
    assert np.max(np.abs(mat.conj().T @ mat - np.eye((cutoff + 1) ** 2))) < 1e-13


@pytest.mark.parametrize("cutoff", [2, 3, 4, 5])
@pytest.mark.parametrize("transmittance", [0.0, 0.3, 0.5, 0.9134, 1.0])
def test_beamsplitter_sectors_are_the_unitarys_exact_sectors(cutoff, transmittance):
    sectors = beamsplitter_sectors(cutoff, transmittance)
    totals = ModeRegister(2, cutoff).occupations().sum(axis=1)
    exact = (totals[:, None] <= cutoff) & (totals[None, :] <= cutoff)
    assert np.array_equal(sectors[exact], beamsplitter_unitary(cutoff, transmittance)[exact])
    assert not sectors[~exact].any()


def test_bench_reads_no_clipped_splitter_sector():
    bench_povm.cache_clear()
    beamsplitter_unitary.cache_clear()
    bench_povm(3, 0.9, 0.7, 0.55, 0.3, 0.4, 0.0)
    assert beamsplitter_unitary.cache_info().misses == 0


def test_beamsplitter_composition_unitary_and_number_conserving():
    mat = beamsplitter_unitary(3, 0.37)
    twice = mat @ mat
    assert np.max(np.abs(twice.conj().T @ twice - np.eye(16))) < 1e-10
    reg = ModeRegister(2, 3)
    totals = reg.occupations().sum(axis=1)
    off_block = totals[:, None] != totals[None, :]
    assert np.max(np.abs(twice[off_block])) < 1e-12


def test_beamsplitter_usage_errors():
    st = vacuum(ModeRegister(2, 2))
    with pytest.raises(ValueError, match="distinct"):
        apply_beamsplitter(st, 0.5, 1, 1)
    with pytest.raises(ValueError, match="transmittance"):
        apply_beamsplitter(st, 1.2, 0, 1)
    for transmittance in (-0.1, 1.1, math.nan):
        with pytest.raises(ValueError, match="transmittance"):
            beamsplitter_sectors(3, transmittance)


# ---------------------------------------------------------------------------
# phase shifter


def test_phase_identity_and_populations():
    rng = np.random.default_rng(5)
    rho = random_density_operator(ModeRegister(2, 2), rng)
    out = apply_phase(rho, 0.0, 0)
    assert np.max(np.abs(out.matrix - rho.matrix)) < 1e-15
    rotated = apply_phase(rho, 1.234, 1)
    assert np.max(np.abs(rotated.probabilities() - rho.probabilities())) < 1e-14


def test_phase_pi_flips_single_mode_coherence():
    reg = ModeRegister(1, 1)
    plus = PureState(reg, np.array([1.0, 1.0]) / math.sqrt(2))
    out = apply_phase(to_density(plus), math.pi, 0)
    assert abs(out.matrix[0, 1] + 0.5) < 1e-12
    assert abs(out.matrix[0, 0] - 0.5) < 1e-12


def test_phase_group_property():
    rng = np.random.default_rng(6)
    rho = random_density_operator(ModeRegister(1, 3), rng)
    twice = apply_phase(apply_phase(rho, math.pi / 2, 0), math.pi / 2, 0)
    once = apply_phase(rho, math.pi, 0)
    assert np.max(np.abs(twice.matrix - once.matrix)) < 1e-12


# ---------------------------------------------------------------------------
# attenuation channel


def test_loss_identity_and_single_photon():
    one = fock_state(ModeRegister(1, 2), (1,))
    full = apply_loss(one, 1.0, 0)
    assert abs(full.matrix[1, 1] - 1.0) < 1e-12
    eta = 0.3
    out = apply_loss(one, eta, 0)
    assert abs(out.matrix[1, 1] - eta) < 1e-12
    assert abs(out.matrix[0, 0] - (1.0 - eta)) < 1e-12


def test_loss_semigroup_on_random_states():
    rng = np.random.default_rng(7)
    reg = ModeRegister(2, 2)
    for _ in range(100):
        rho = random_density_operator(reg, rng)
        e1, e2 = rng.uniform(0.1, 1.0, size=2)
        seq = apply_loss(apply_loss(rho, e1, 0), e2, 0)
        combined = apply_loss(rho, e1 * e2, 0)
        assert np.max(np.abs(seq.matrix - combined.matrix)) < 1e-12


def test_loss_trace_preserving_and_domain():
    rng = np.random.default_rng(8)
    rho = random_density_operator(ModeRegister(1, 3), rng)
    out = apply_loss(rho, 0.42, 0)
    assert abs(np.trace(out.matrix).real - 1.0) < 1e-12
    with pytest.raises(ValueError):
        apply_loss(rho, 1.5, 0)
    with pytest.raises(ValueError):
        apply_loss(rho, -0.1, 0)


def test_phase_jitter_dephasing_factors():
    rng = np.random.default_rng(9)
    rho = random_density_operator(ModeRegister(1, 3), rng)
    sigma = 0.6
    out = apply_phase_jitter(rho, sigma, 0)
    for n in range(4):
        for m in range(4):
            factor = math.exp(-0.5 * sigma**2 * (n - m) ** 2)
            assert abs(out.matrix[n, m] - rho.matrix[n, m] * factor) < 1e-14


def test_phase_jitter_rejects_invalid_sigma():
    rho = random_density_operator(ModeRegister(1, 2), np.random.default_rng(3))
    for sigma in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="sigma"):
            apply_phase_jitter(rho, sigma, 0)


# ---------------------------------------------------------------------------
# partial trace (the oracle in tests/helpers.py that the reduced-state checks use)


def test_partial_trace_product_state():
    a = two_mode_squeezed(0.1, 2)
    b = vacuum(ModeRegister(1, 2))
    joint = a.tensor(b)
    reduced = partial_trace(joint, [0, 1])
    assert np.max(np.abs(reduced.matrix - to_density(a).matrix)) < 1e-12


def test_partial_trace_thermal_marginal():
    chi = 0.2
    st = two_mode_squeezed(chi, 4)
    reduced = partial_trace(st, [0])
    p = reduced.probabilities()
    expected = tmss_probabilities_series(chi, 4)
    assert np.max(np.abs(p - expected)) < 1e-12
    ratios = p[1:] / p[:-1]
    assert np.max(np.abs(ratios - chi)) < 1e-10


def test_partial_trace_keep_all_and_errors():
    rng = np.random.default_rng(10)
    rho = random_density_operator(ModeRegister(2, 2), rng)
    out = partial_trace(rho, [0, 1])
    assert np.max(np.abs(out.matrix - rho.matrix)) < 1e-14
    with pytest.raises(ValueError):
        partial_trace(rho, [])
    with pytest.raises(ValueError):
        partial_trace(rho, [0, 0])


# ---------------------------------------------------------------------------
# no-click detector element


def _no_click(state, modes, eta: float) -> float:
    """Tr(rho :exp(-eta n):) from the Fock diagonal the detectors use: the
    no-click row of one detector on ``modes``."""
    return float(click_weights(state.register, [modes], [eta])[0] @ state.probabilities())


def test_no_click_on_vacuum_and_single_photon():
    reg = ModeRegister(1, 3)
    assert abs(_no_click(vacuum(reg), [0], 1.0) - 1.0) < 1e-12
    eta = 0.35
    one = fock_state(reg, (1,))
    assert abs(_no_click(one, [0], eta) - (1.0 - eta)) < 1e-12


def test_no_click_vanishes_on_fock_states():
    # checked against the literal operator series
    for n in range(1, 4):
        reg = ModeRegister(1, 3)
        st = fock_state(reg, (n,))
        val = _no_click(st, [0], 1.0)
        series = pi0_series_matrix(3, 1.0)
        oracle = float(np.real(series[n, n]))
        assert abs(val - oracle) < 1e-12
        assert abs(val) < 1e-12


def test_exp_matches_series_with_efficiency():
    rng = np.random.default_rng(11)
    reg = ModeRegister(1, 3)
    rho = random_density_operator(reg, rng)
    for eta in (0.2, 0.7, 1.0):
        val = _no_click(rho, [0], eta)
        oracle = float(np.real(np.trace(rho.matrix @ pi0_series_matrix(3, eta))))
        assert abs(val - oracle) < 1e-10


def test_no_click_expectation_within_unit_interval():
    rng = np.random.default_rng(12)
    reg = ModeRegister(2, 3)
    for _ in range(25):
        rho = random_density_operator(reg, rng)
        val = _no_click(rho, [0, 1], 1.0)
        assert -1e-10 <= val <= 1.0 + 1e-10


def test_click_weights_validation():
    reg = ModeRegister(1, 2)
    with pytest.raises(ValueError, match="efficiency"):
        click_weights(reg, [[0]], [1.2])
    with pytest.raises(ValueError, match="dark-count"):
        click_weights(reg, [[0]], [0.5], dark_prob=1.0)


# ---------------------------------------------------------------------------
# channel validity and block structure


@pytest.mark.parametrize("cutoff", [2, 3, 4])
def test_channels_preserve_state_validity(cutoff):
    rng = np.random.default_rng(cutoff)
    reg = ModeRegister(2, cutoff)
    for _ in range(8):
        rho = random_density_operator(reg, rng)
        for out in (
            apply_beamsplitter(rho, rng.uniform(), 0, 1),
            apply_phase(rho, rng.uniform(0, 2 * math.pi), 0),
            apply_loss(rho, rng.uniform(), 1),
            apply_phase_jitter(rho, rng.uniform(0, 1.0), 0),
        ):
            # constructor enforces Hermiticity and trace; check positivity too
            out.assert_positive()
            assert abs(np.trace(out.matrix).real - 1.0) < 1e-10


def test_number_conservation_block_structure():
    rng = np.random.default_rng(21)
    reg = ModeRegister(2, 3)
    totals = reg.occupations().sum(axis=1)
    off_block = totals[:, None] != totals[None, :]
    for transmittance in (0.3, 0.5, 0.9):
        mat = beamsplitter_unitary(3, transmittance)
        assert np.max(np.abs(mat[off_block])) == 0.0
    rho = random_density_operator(reg, rng)
    # phase shifter leaves every photon-number population untouched
    out = apply_phase(rho, 0.77, 0)
    assert np.max(np.abs(out.probabilities() - rho.probabilities())) < 1e-14


def test_fidelity_flavors():
    reg = ModeRegister(1, 2)
    zero = vacuum(reg)
    one = fock_state(reg, (1,))
    assert abs(fidelity(zero, zero) - 1.0) < 1e-12
    assert fidelity(zero, one) < 1e-12
    mixed = apply_loss(one, 0.4, 0)
    assert abs(fidelity(one, mixed) - 0.4) < 1e-12
    assert abs(fidelity(mixed, mixed) - 1.0) < 1e-10
