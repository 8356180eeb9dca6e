"""Independent oracles and generators shared across the test modules.

Everything here recomputes expected values through a different route than the
library (explicit operator series, matrix exponentials, first-order
perturbation theory) so the tests stay meaningful.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.linalg import expm

from dlczsim.detection import DetectorSpec, JointProbabilities, click_probabilities, substream_rng
from dlczsim.fock import (
    DensityOperator,
    ModeRegister,
    PureState,
    apply_beamsplitter,
    apply_phase,
    beamsplitter_unitary,
)
from dlczsim.tomography import _BLOCK_IDX, EfficiencyModel, RestrictedDensity


def ladder(cutoff: int) -> np.ndarray:
    """Annihilation operator on one truncated mode."""
    a = np.zeros((cutoff + 1, cutoff + 1))
    for n in range(1, cutoff + 1):
        a[n - 1, n] = math.sqrt(n)
    return a


def embed(single: np.ndarray, n_modes: int, mode: int, cutoff: int) -> np.ndarray:
    out = np.array([[1.0]], dtype=complex)
    eye = np.eye(cutoff + 1)
    for m in range(n_modes):
        out = np.kron(out, single if m == mode else eye)
    return out


def pi0_series_matrix(cutoff: int, eta: float = 1.0) -> np.ndarray:
    """No-click POVM element by literal term-by-term series summation:
    sum_n (-eta)^n adag^n a^n / n!  on one truncated mode."""
    a = ladder(cutoff)
    out = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
    for n in range(cutoff + 1):
        term = np.linalg.matrix_power(a.conj().T, n) @ np.linalg.matrix_power(a, n)
        out += (-eta) ** n * term / math.factorial(n)
    return out


def expm_beamsplitter(cutoff: int, transmittance: float) -> np.ndarray:
    """Brute-force matrix exponential of the beam-splitter generator."""
    a = embed(ladder(cutoff), 2, 0, cutoff)
    b = embed(ladder(cutoff), 2, 1, cutoff)
    theta = math.atan2(math.sqrt(1.0 - transmittance), math.sqrt(transmittance))
    gen = a.conj().T @ b - a @ b.conj().T
    return expm(theta * gen)


def random_density_operator(register: ModeRegister, rng: np.random.Generator, rank: int | None = None) -> DensityOperator:
    """Random full-support state from the Ginibre ensemble."""
    dim = register.dim
    rank = dim if rank is None else rank
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    return DensityOperator(register, rho)


def _bench_detectors(eta_d2a: float, eta_d2b: float, eta_d2c: float, dark_prob: float) -> list[DetectorSpec]:
    return [
        DetectorSpec("D2a", eta_d2a, 0, dark_prob),
        DetectorSpec("D2b", eta_d2b, 1, dark_prob),
        DetectorSpec("D2c", eta_d2c, 2, dark_prob),
    ]


def _with_vacuum_port(rho: DensityOperator) -> DensityOperator:
    """rho on (2_L, 2_R) times the vacuum of the auxiliary splitter port."""
    register = ModeRegister(3, rho.register.cutoff)
    aux = np.zeros((register.levels, register.levels))
    aux[0, 0] = 1.0
    return DensityOperator(register, np.kron(rho.matrix, aux), _skip_positivity=True)


def diagonal_layout_oracle(
    rho: DensityOperator, eta_d2a: float, eta_d2b: float, eta_d2c: float, split: float = 0.5, dark_prob: float = 0.0
) -> JointProbabilities:
    """Population layout by propagating the density matrix through the bench
    on the three-mode register (auxiliary splitter port in vacuum)."""
    work = apply_beamsplitter(_with_vacuum_port(rho), split, 1, 2)
    return click_probabilities(work, _bench_detectors(eta_d2a, eta_d2b, eta_d2c, dark_prob))


def fringe_layout_oracle(
    rho: DensityOperator,
    phi: float,
    eta_d2a: float,
    eta_d2b: float,
    eta_d2c: float,
    split: float = 0.5,
    bs2_T: float = 0.5,
    dark_prob: float = 0.0,
) -> JointProbabilities:
    """Fringe layout by density-matrix propagation: phase on 2_L, recombiner,
    then the population bench on the three-mode register."""
    work = apply_beamsplitter(apply_phase(rho, phi, 0), bs2_T, 0, 1)
    work = apply_beamsplitter(_with_vacuum_port(work), split, 1, 2)
    return click_probabilities(work, _bench_detectors(eta_d2a, eta_d2b, eta_d2c, dark_prob))


def bench_unitary_embed_pair(eff: EfficiencyModel, phi: float | None) -> np.ndarray:
    """Analysis-bench unitary with each two-mode splitter embedded in the
    three-mode space column by column (axis moves, no Kronecker products)."""
    dim = 27
    occ3 = ModeRegister(3, 2).occupations()

    def embed_pair(mat: np.ndarray, i: int, j: int) -> np.ndarray:
        out = np.zeros((dim, dim), dtype=complex)
        for col in range(dim):
            vec = np.zeros(dim, dtype=complex)
            vec[col] = 1.0
            t = vec.reshape(3, 3, 3)
            t = np.moveaxis(t, (i, j), (0, 1)).reshape(9, -1)
            t = mat @ t
            t = np.moveaxis(t.reshape(3, 3, 3), (0, 1), (i, j))
            out[:, col] = t.reshape(dim)
        return out

    u = np.eye(dim, dtype=complex)
    if phi is not None:
        u = np.diag(np.exp(1j * phi * occ3[:, 0])) @ u
        u = embed_pair(beamsplitter_unitary(2, eff.bs2_T), 0, 1) @ u
    u = embed_pair(beamsplitter_unitary(2, eff.split), 1, 2) @ u
    return u


def restricted_matrix_for_model(diagonals: dict, d: float) -> DensityOperator:
    """Two-photon-cutoff state with the given diagonals (p00 takes the rest of
    the unit trace) and a real coherence ``d`` between |0,1> and |1,0>."""
    register = ModeRegister(2, 2)
    mat = np.zeros((9, 9), dtype=complex)
    total = 0.0
    for occ, key in (((0, 0), "p00"), ((0, 1), "p01"), ((1, 0), "p10"), ((1, 1), "p11"), ((0, 2), "p02")):
        v = max(float(diagonals.get(key, 0.0)), 0.0)
        mat[register.index(occ), register.index(occ)] = v
        total += v
    mat[register.index((0, 0)), register.index((0, 0))] += 1.0 - total
    i01, i10 = register.index((0, 1)), register.index((1, 0))
    mat[i01, i10] = d
    mat[i10, i01] = d
    return DensityOperator(register, mat, _skip_positivity=True)


def visibility_slope_oracle(diagonals: dict, eff: EfficiencyModel) -> float:
    """d(V_avg)/d(|d|) by propagating a reference state through the fringe
    bench at 9 phases and least-squares fitting A + B cos(phi) + C sin(phi)
    to each arm."""
    d_ref = 0.5 * math.sqrt(diagonals["p01"] * diagonals["p10"])
    rho = restricted_matrix_for_model(diagonals, d_ref)
    phis = np.linspace(0.0, 2.0 * math.pi, 9)
    rows = []
    for phi in phis:
        probs = fringe_layout_oracle(rho, phi, eff.d2a, eff.d2b, eff.d2c, eff.split, eff.bs2_T)
        rows.append([sum(p * pat[0] for pat, p in probs.items()), sum(p * (pat[1] + pat[2]) for pat, p in probs.items())])
    design = np.column_stack([np.ones_like(phis), np.cos(phis), np.sin(phis)])
    (a, b, c), *_ = np.linalg.lstsq(design, np.array(rows), rcond=None)
    return float(np.sum(0.5 * np.hypot(b, c) / a / d_ref))


def setting_povm_oracle(eff: EfficiencyModel, phi: float | None) -> dict:
    """Block-basis POVM of one bench setting from ``bench_unitary_embed_pair``
    and an explicit diagonal click-weight matrix."""
    reg3 = ModeRegister(3, 2)
    u = bench_unitary_embed_pair(eff, phi)
    effs = (eff.d2a, eff.d2b, eff.d2c)
    no_click = [(1.0 - e) ** reg3.mode_numbers(mode).astype(float) for mode, e in enumerate(effs)]
    pullback_rows = np.arange(9) * 3  # aux mode in vacuum
    out = {}
    for pattern in itertools.product((0, 1), repeat=3):
        w = np.ones(reg3.dim)
        for bit, wk in zip(pattern, no_click):
            w = w * (wk if bit == 0 else 1.0 - wk)
        e_full = u.conj().T @ np.diag(w.astype(complex)) @ u
        e2 = e_full[np.ix_(pullback_rows, pullback_rows)]
        out[pattern] = e2[np.ix_(_BLOCK_IDX, _BLOCK_IDX)]
    return out


def concurrence_mc_sigma_loop(rd: RestrictedDensity, mc_samples: int, seed: int) -> float:
    """Gaussian-resampling spread of the restricted-state concurrence, one
    scalar normal deviate at a time in (p00, p01, p10, p11, d) order."""
    sig = {k.removeprefix("sigma_"): v for k, v in rd.sigmas.items()}
    base = {"p00": rd.p00, "p01": rd.p01, "p10": rd.p10, "p11": rd.p11, "d": rd.d_abs}
    rng = substream_rng(seed, stream=0xC0)
    draws = []
    for _ in range(mc_samples):
        sample = {key: max(v + rng.normal() * sig.get(key, 0.0), 0.0) for key, v in base.items()}
        pt = sample["p00"] + sample["p01"] + sample["p10"] + sample["p11"]
        c = max(2.0 * sample["d"] - 2.0 * math.sqrt(max(sample["p00"] * sample["p11"], 0.0)), 0.0)
        draws.append(c / pt)
    return float(np.std(draws, ddof=1))


def brute_force_pattern_probs(rho: np.ndarray, register: ModeRegister, detectors) -> dict:
    """Joint click probabilities via explicit POVM operator products."""
    elements = {}
    for det in detectors:
        pi0 = np.eye(register.dim, dtype=complex)
        for mode in det.modes:
            pi0 = pi0 @ embed(pi0_series_matrix(register.cutoff, det.efficiency), register.n_modes, mode, register.cutoff)
        pi0 = pi0 * (1.0 - det.dark_prob)
        elements[det.id] = (pi0, np.eye(register.dim) - pi0)
    out = {}
    for pattern in itertools.product((0, 1), repeat=len(detectors)):
        op = np.eye(register.dim, dtype=complex)
        for bit, det in zip(pattern, detectors):
            op = op @ elements[det.id][bit]
        out[pattern] = float(np.real(np.trace(rho @ op)))
    return out


def tmss_probabilities_series(chi: float, cutoff: int) -> np.ndarray:
    """Photon-number distribution of the truncated pair source by explicit
    series summation and renormalization."""
    weights = np.array([(1.0 - chi) * chi**n for n in range(cutoff + 1)])
    return weights / weights.sum()


def first_order_heralded_state(chi_l: float, chi_r: float, bs1_T: float, eta1: float, which: str) -> PureState:
    """Leading-order conditional spin state for the chosen herald.

    The detector on the transmitting port of the right field collects
    amplitude sqrt(T) from the right ensemble and sqrt(1-T) from the left;
    the other port carries the relative minus sign.
    """
    register = ModeRegister(2, 3)
    amp = np.zeros(register.dim, dtype=complex)
    if which == "D1a":
        c_l = math.sqrt(chi_l * (1.0 - bs1_T)) * np.exp(1j * eta1)
        c_r = math.sqrt(chi_r * bs1_T)
    else:
        c_l = -math.sqrt(chi_l * bs1_T) * np.exp(1j * eta1)
        c_r = math.sqrt(chi_r * (1.0 - bs1_T))
    amp[register.index((1, 0))] = c_l
    amp[register.index((0, 1))] = c_r
    amp /= np.linalg.norm(amp)
    return PureState(register, amp)


def random_restricted(rng: np.random.Generator, d_fraction: float | None = None) -> RestrictedDensity:
    """Random physical restricted-form state with p00 dominant."""
    p00 = rng.uniform(0.6, 0.97)
    rest = rng.dirichlet([2.0, 2.0, 1.0]) * (1.0 - p00)
    p01, p10, p11 = rest
    frac = rng.uniform(0.2, 0.95) if d_fraction is None else d_fraction
    d = frac * math.sqrt(p01 * p10) * np.exp(1j * rng.uniform(0, 2 * math.pi))
    return RestrictedDensity(p00=p00, p01=p01, p10=p10, p11=p11, d=d)


def ideal_config_dict(**overrides) -> dict:
    """Lossless symmetric configuration dictionary for pipeline tests."""
    data = {
        "schema_version": 1,
        "cutoff": 3,
        "trials": 0,
        "seed": 11,
        "layout": "fringe",
        "fringe_phases": {"num": 13},
        "ensembles": {"L": {"chi": 1e-3, "xi": 1.0}, "R": {"chi": 1e-3, "xi": 1.0}},
        "interferometer": {"bs1_T": 0.5},
        "herald": {"which": "D1a", "exclusive": True},
        "detectors": {},
        "channel": {
            "L": {"fc": [1.0, 0.0], "c": [1.0, 0.0], "f": [1.0, 0.0], "apd": [1.0, 0.0]},
            "R": {"fc": [1.0, 0.0], "c": [1.0, 0.0], "f": [1.0, 0.0], "apd": [1.0, 0.0]},
        },
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(data.get(key), dict):
            data[key] = {**data[key], **value}
        else:
            data[key] = value
    return data
