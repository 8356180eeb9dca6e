"""Independent oracles and generators shared across the test modules.

Everything here recomputes expected values through a different route than the
library (explicit operator series, matrix exponentials, first-order
perturbation theory) so the tests stay meaningful.  The last section holds
the states, comparisons and local channels that only the tests use.
"""

from __future__ import annotations

import functools
import importlib.util
import itertools
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np
from scipy.linalg import expm

from dlczsim.config import ChannelBudget, ExperimentConfig, config_from_dict, preset_dict
from dlczsim.detection import JointProbabilities, substream_rng
from dlczsim.fock import (
    DensityOperator,
    ModeRegister,
    PureState,
    apply_beamsplitter,
    apply_loss,
    apply_phase,
    beamsplitter_unitary,
    two_mode_squeezed,
)
from dlczsim.pipeline import _propagate
from dlczsim.protocol import MODE_AL, MODE_AR, FieldPairStats, read_stage, write_stage
import dlczsim.tomography as tom
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


def moveaxis_contract(t: np.ndarray, mat: np.ndarray, axes: Sequence[int]) -> np.ndarray:
    """``fock._contract`` through ``np.moveaxis``: ``mat`` applied to the level
    axes ``axes`` of ``t``, moved to the front in the order given and back."""
    k = len(axes)
    t = np.moveaxis(t, axes, range(k))
    shape = t.shape
    t = (mat @ t.reshape(mat.shape[1], -1)).reshape(shape)
    return np.moveaxis(t, range(k), axes)


def moveaxis_apply(state, mat: np.ndarray, modes: Sequence[int]) -> np.ndarray:
    """``fock._apply`` with ``moveaxis_contract``: the ket side, and for a
    density matrix the bra side with ``mat.conj()``."""
    register = state.register
    data = state.amplitudes if isinstance(state, PureState) else state.matrix
    t = moveaxis_contract(data.reshape((register.levels,) * (register.n_modes * data.ndim)), mat, modes)
    if data.ndim == 2:
        t = moveaxis_contract(t, mat.conj(), [register.n_modes + m for m in modes])
    return t.reshape(data.shape)


def random_density_operator(register: ModeRegister, rng: np.random.Generator, rank: int | None = None) -> DensityOperator:
    """Random full-support state from the Ginibre ensemble."""
    dim = register.dim
    rank = dim if rank is None else rank
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    return DensityOperator(register, rho)


# ---------------------------------------------------------------------------
# the generic detector model: detectors on arbitrary mode groups, pattern
# probabilities one pattern at a time, and conditioning by a weighted partial
# trace of the state (the library's construction before ``fock.click_weights``)


class Detector(NamedTuple):
    id: str
    efficiency: float
    modes: tuple[int, ...]
    dark_prob: float = 0.0


def _pattern_weights(register: ModeRegister, detectors, pattern) -> np.ndarray:
    weights = np.ones(register.dim)
    for det, bit in zip(detectors, pattern):
        w = np.ones(register.dim)  # the no-click diagonal: (1 - eta)^n per mode, times (1 - dark_prob)
        for mode in det.modes:
            w = w * (1.0 - det.efficiency) ** register.mode_numbers(mode)
        w = w * (1.0 - det.dark_prob)
        weights = weights * (w if bit == 0 else 1.0 - w)
    return weights


def click_probabilities(state, detectors) -> JointProbabilities:
    return _pattern_probabilities(state.register, state.probabilities(), detectors)


def _pattern_probabilities(register: ModeRegister, populations: np.ndarray, detectors) -> JointProbabilities:
    patterns = itertools.product((0, 1), repeat=len(detectors))
    probs = {pattern: float(_pattern_weights(register, detectors, pattern) @ populations) for pattern in patterns}
    return JointProbabilities(tuple(det.id for det in detectors), probs)


def weighted_partial_trace(state, keep: list[int], weights: np.ndarray | None = None) -> np.ndarray:
    """Tr_t[(diag(w) x I) rho] over the modes not in ``keep`` (ascending)."""
    register = state.register
    n, levels = register.n_modes, register.levels
    traced = [m for m in range(n) if m not in keep]
    d_keep, d_traced = levels ** len(keep), levels ** len(traced)
    weights = np.ones(d_traced) if weights is None else weights
    if isinstance(state, PureState):
        t = np.transpose(state.amplitudes.reshape((levels,) * n), keep + traced).reshape(d_keep, d_traced)
        return np.einsum("bt,t,ct->bc", t, weights, t.conj())
    order = keep + traced + [n + m for m in keep] + [n + m for m in traced]
    t = np.transpose(state.matrix.reshape((levels,) * (2 * n)), order).reshape(d_keep, d_traced, d_keep, d_traced)
    return np.einsum("atbt,t->ab", t, weights)


def partial_trace(state, keep: list[int]) -> DensityOperator:
    """Reduced state on ``keep`` (output mode k is input mode keep[k])."""
    return DensityOperator(ModeRegister(len(keep), state.register.cutoff), weighted_partial_trace(state, keep), _skip_positivity=True)


def condition_on_pattern(state, detectors, pattern) -> tuple[DensityOperator, float]:
    """Normalized state on the undetected modes after ``pattern``, and its probability."""
    register = state.register
    traced = sorted(m for det in detectors for m in det.modes)
    keep = [m for m in range(register.n_modes) if m not in traced]
    local = [det._replace(modes=[traced.index(m) for m in det.modes]) for det in detectors]
    weights = _pattern_weights(ModeRegister(len(traced), register.cutoff), local, pattern)
    reduced = weighted_partial_trace(state, keep, weights)
    probability = float(np.trace(reduced).real)
    return DensityOperator(ModeRegister(len(keep), register.cutoff), reduced / probability, _skip_positivity=True), probability


def heralding_optics(state: PureState, interferometer) -> tuple[PureState, tuple[int, ...], tuple[int, ...]]:
    """The heralding optics on the write-stage state (1_L, a_L, 1_R, a_R),
    stated apart from ``protocol``: the eta1 phase on 1_L and the bs1_T
    splitter from 1_R onto 1_L and, for overlap < 1, a vacuum pair
    (orth_R, orth_L) as modes 4 and 5 whose orth_R takes sqrt(1 - overlap^2)
    of 1_R and meets orth_L on a second bs1_T splitter.  Returns the state and
    the modes of D1a and D1b."""
    one_l, one_r, orth_r, orth_l = 0, 2, 4, 5
    overlap, bs1_T = interferometer.overlap, interferometer.bs1_T
    if overlap < 1.0:
        pair = np.zeros((state.register.cutoff + 1) ** 2)
        pair[0] = 1.0
        state = PureState(ModeRegister(6, state.register.cutoff), np.kron(state.amplitudes, pair))
        state = apply_beamsplitter(state, overlap**2, one_r, orth_r)
    out = apply_beamsplitter(apply_phase(state, interferometer.eta1, one_l), bs1_T, one_r, one_l)
    if overlap < 1.0:
        return apply_beamsplitter(out, bs1_T, orth_r, orth_l), (one_r, orth_r), (one_l, orth_l)
    return out, (one_r,), (one_l,)


def herald_probabilities_oracle(state: PureState, interferometer, choice) -> JointProbabilities:
    """``protocol.herald_probabilities`` one pattern at a time over the whole register."""
    mixed, d1a_modes, d1b_modes = heralding_optics(state, interferometer)
    return click_probabilities(mixed, [Detector("D1a", choice.d1a_efficiency, d1a_modes), Detector("D1b", choice.d1b_efficiency, d1b_modes)])


def herald_oracle(state: PureState, interferometer, choice):
    """``protocol.herald`` by conditioning on the chosen detectors' pattern and
    tracing out whatever field modes are left."""
    mixed, d1a_modes, d1b_modes = heralding_optics(state, interferometer)
    d1a, d1b = Detector("D1a", choice.d1a_efficiency, d1a_modes), Detector("D1b", choice.d1b_efficiency, d1b_modes)
    if choice.exclusive:
        detectors, pattern = [d1a, d1b], ((1, 0) if choice.which == "D1a" else (0, 1))
    else:
        detectors, pattern = [d1a if choice.which == "D1a" else d1b], (1,)
    conditioned, probability = condition_on_pattern(mixed, detectors, pattern)
    kept = [m for m in range(mixed.register.n_modes) if all(m not in det.modes for det in detectors)]
    atoms = [kept.index(MODE_AL), kept.index(MODE_AR)]
    if atoms != list(range(len(kept))):
        conditioned = partial_trace(conditioned, atoms)
    return conditioned, probability


def padded(state: PureState, cutoff: int) -> PureState:
    """``state`` on a register of the same modes at the higher ``cutoff``."""
    n, levels = state.register.n_modes, state.register.levels
    amplitudes = np.zeros((cutoff + 1,) * n, dtype=complex)
    amplitudes[(slice(levels),) * n] = state.amplitudes.reshape((levels,) * n)
    return PureState(ModeRegister(n, cutoff), amplitudes.ravel(), state.truncation_deficit)


def padded_herald_oracle(state: PureState, interferometer, choice) -> tuple[DensityOperator, float]:
    """``herald_oracle`` with the write-stage state of cutoff c on a register
    of cutoff 2c, where no splitter sector the two field-1 modes reach is
    clipped.  The spin modes hold at most c excitations, so the spin state is
    returned on cutoff c."""
    cutoff = state.register.cutoff
    rho, probability = herald_oracle(padded(state, 2 * cutoff), interferometer, choice)
    n, m = cutoff + 1, rho.register.levels
    spins = rho.matrix.reshape((m,) * 4)[:n, :n, :n, :n].reshape(n * n, n * n)
    return DensityOperator(ModeRegister(2, cutoff), spins, _skip_positivity=True), probability


def field_pair_statistics_oracle(ensemble, field1_efficiency: float, field2_efficiency: float, cutoff: int) -> FieldPairStats:
    rho = apply_loss(two_mode_squeezed(ensemble.chi, cutoff), ensemble.xi, 1)
    probs = click_probabilities(rho, [Detector("F1", field1_efficiency, (0,)), Detector("F2", field2_efficiency, (1,))])
    p12 = probs[(1, 1)]
    return FieldPairStats(p1=p12 + probs[(1, 0)], p2=p12 + probs[(0, 1)], p12=p12)


def heralded_fields_oracle(config):
    """Herald patterns, herald probability, spin state and bench-plane state
    of ``full_experiment`` through the generic detector model."""
    interf = config.interferometer
    state = write_stage(config.left, config.right, config.cutoff)
    patterns = herald_probabilities_oracle(state, interf, config.herald)
    atomic, probability = herald_oracle(state, interf, config.herald)
    z2 = read_stage(atomic, config.left.xi, config.right.xi, interf.eta2, interf.phase_jitter_sigma)
    z0 = _propagate(_propagate(z2, config.budget, "z2", "z1"), config.budget, "z1", "z0")
    return patterns, probability, atomic, z0


def unconditioned_field_state(config) -> DensityOperator:
    """Field state at the measurement bench without heralding: the write-stage
    field-1 modes are discarded, the spins read out and attenuate as in the
    heralded run."""
    state = write_stage(config.left, config.right, config.cutoff)
    spins = partial_trace(state, [MODE_AL, MODE_AR])
    fields = read_stage(spins, config.left.xi, config.right.xi, eta2=config.interferometer.eta2)
    return _propagate(fields, config.budget, "z2", "z0")


def _bench_detectors(eta_d2a: float, eta_d2b: float, eta_d2c: float, dark_prob: float) -> list[Detector]:
    return [
        Detector("D2a", eta_d2a, (0,), dark_prob),
        Detector("D2b", eta_d2b, (1,), dark_prob),
        Detector("D2c", eta_d2c, (2,), dark_prob),
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
    """Fringe layout by carrying the phase-shifted rho onto the recombined and
    split input Fock states (``_padded_bench_states``)."""
    cutoff = rho.register.cutoff
    v = _padded_bench_states(cutoff, split, bs2_T)
    populations = np.einsum("ki,ij,kj->k", v, apply_phase(rho, phi, 0).matrix, v.conj()).real
    return _pattern_probabilities(ModeRegister(3, 2 * cutoff), populations, _bench_detectors(eta_d2a, eta_d2b, eta_d2c, dark_prob))


@functools.lru_cache(maxsize=16)
def _padded_bench_states(cutoff: int, split: float, bs2_T: float) -> np.ndarray:
    """Columns: each input Fock state |n_L, n_R, 0> with n <= ``cutoff``
    propagated through the recombiner and the split pair on a three-mode
    register of cutoff 2 * ``cutoff``, which holds every photon the inputs can
    send to one output."""
    register = ModeRegister(3, 2 * cutoff)
    columns = [
        apply_beamsplitter(apply_beamsplitter(fock_state(register, (n_l, n_r, 0)), bs2_T, 0, 1), split, 1, 2).amplitudes
        for n_l, n_r in np.ndindex(cutoff + 1, cutoff + 1)
    ]
    states = np.array(columns).T
    states.setflags(write=False)
    return states


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


def concurrence_sigma_loop(rd: RestrictedDensity) -> float:
    """First-order sigma of the restricted-state concurrence, one central
    secant at a time in the order of the sigmas, in scalar arithmetic."""
    base = {"p00": rd.p00, "p01": rd.p01, "p10": rd.p10, "p11": rd.p11, "d": rd.d_abs}

    def concurrence(x):
        c = max(2.0 * x["d"] - 2.0 * math.sqrt(max(x["p00"] * x["p11"], 0.0)), 0.0)
        return c / (x["p00"] + x["p01"] + x["p10"] + x["p11"])

    var = 0.0
    for key, s in rd.sigmas.items():
        if key in base and s != 0.0:
            step = max(1e-9, 1e-4 * abs(base[key]), 0.1 * s)
            hi, lo = {**base, key: base[key] + step}, {**base, key: max(base[key] - step, 0.0)}
            var += ((concurrence(hi) - concurrence(lo)) / (hi[key] - lo[key]) * s) ** 2
    return math.sqrt(var)


def concurrence_mc_sigma_loop(rd: RestrictedDensity, mc_samples: int, seed: int) -> float:
    """Gaussian-resampling spread of the restricted-state concurrence, one
    scalar normal deviate at a time in (p00, p01, p10, p11, d) order."""
    sig = rd.sigmas
    base = {"p00": rd.p00, "p01": rd.p01, "p10": rd.p10, "p11": rd.p11, "d": rd.d_abs}
    rng = substream_rng(seed, stream=0xC0)
    draws = []
    for _ in range(mc_samples):
        sample = {key: max(v + rng.normal() * sig.get(key, 0.0), 0.0) for key, v in base.items()}
        pt = sample["p00"] + sample["p01"] + sample["p10"] + sample["p11"]
        c = max(2.0 * sample["d"] - 2.0 * math.sqrt(max(sample["p00"] * sample["p11"], 0.0)), 0.0)
        draws.append(c / pt)
    return float(np.std(draws, ddof=1))


def fringe_arms_loop(records) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(phases, values, sigmas) of the D2a and split-pair fringe arms, summed
    record by record over each tally (records in D2a, D2b, D2c order)."""
    phis, ys, sigmas = [], [[], []], [[], []]
    for rec in records:
        n = rec.trials
        y = sum(cnt for pat, cnt in rec.tally.items() if pat[0] == 1) / n
        ys[0].append(y)
        sigmas[0].append(math.sqrt(max(y * (1.0 - y), 1.0 / n) / n))
        y = sum(cnt * (pat[1] + pat[2]) for pat, cnt in rec.tally.items()) / n
        sq = sum(cnt * (pat[1] + pat[2]) ** 2 for pat, cnt in rec.tally.items())
        ys[1].append(y)
        sigmas[1].append(math.sqrt(max(sq / n - y * y, 1.0 / n) / n))
        phis.append(float(rec.phase))
    return np.array(phis), np.array(ys), np.array(sigmas)


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


def central_difference(f, x: float, step: float):
    """df/dx by a central difference."""
    return (np.asarray(f(x + step)) - np.asarray(f(x - step))) / (2.0 * step)


def _visibility_slope(diagonals: dict, eff: EfficiencyModel) -> float:
    """V_avg / |d| of the fringe model, written as the coherence inversion
    wrote it: populations clamped at 0, p00 the rest of the unit trace."""
    pops = [max(float(diagonals.get(key, 0.0)), 0.0) for key in tom.DIAG_KEYS[1:]]
    pops = np.array([1.0 - sum(pops), *pops])
    populations, coupling = tom._fringe_arms(eff)
    return float(np.sum(coupling / (populations @ pops)))


def coherence_partials_oracle(visibility: float, diagonals: dict, eff: EfficiencyModel) -> tuple[float, dict[str, float]]:
    """|d| = V / slope of ``estimate_coherence(mode="full")`` and, by central
    differences, its partial in each population of ``diagonals`` but p00."""
    partials = {}
    for key in tom.DIAG_KEYS[1:]:
        if key in diagonals:
            at = float(diagonals[key])
            partials[key] = float(central_difference(lambda v: visibility / _visibility_slope({**diagonals, key: v}, eff), at, 1e-7))
    return visibility / _visibility_slope(diagonals, eff), partials


def attenuation_partials_oracle(rd: RestrictedDensity, alpha_l: float, alpha_r: float) -> tuple[tuple[float, ...], np.ndarray]:
    """The map of ``invert_attenuation`` before its clamp, (p01, p10, p11, |d|,
    alpha_l, alpha_r) -> (p00, p01, p10, p11, |d|) with the input's total weight
    held fixed, at ``rd``, and by central differences its 5 x 6 Jacobian."""
    total = rd.p_tilde

    def transform(p01, p10, p11, d_abs, al, ar):
        out01 = p01 / ar
        out10 = p10 / al
        out11 = p11 / (al * ar)
        out00 = total - out01 - out10 - out11
        vis = 2.0 * d_abs / (p10 + p01) if (p10 + p01) > 0 else 0.0
        return out00, out01, out10, out11, tom.coherence_from_visibility(vis, out10, out01)

    x = [rd.p01, rd.p10, rd.p11, rd.d_abs, alpha_l, alpha_r]
    columns = [central_difference(lambda v: transform(*x[:j], v, *x[j + 1 :]), at, 1e-4 * at) for j, at in enumerate(x)]
    return transform(*x), np.column_stack(columns)


def lbfgs_mle_log_likelihood(diag_records, fringe_records, eff: EfficiencyModel, initial: RestrictedDensity) -> float:
    """Maximum log likelihood found by scipy's L-BFGS-B from the two-stage
    start, with the gradient 2 (M G) of -L in the factor entries, where
    M = (sum (n_k / p_k) E_k - N I) / Tr(G G+) (the fit before Newton's method)."""
    from scipy.optimize import minimize

    elements, _, counts = tom._collect_mle_data(diag_records, fringe_records, eff)
    mask = counts > 0
    flat, n = elements[mask].reshape(-1, 36), counts[mask].astype(float)

    def negative_ll_and_grad(x):
        g = tom._params_to_factor(x)
        gg = g @ g.conj().T
        t = np.trace(gg).real
        probs = np.clip((flat @ gg.T.reshape(-1)).real / t, 1e-300, None)
        m = ((n / probs) @ flat).reshape(6, 6) - n.sum() * np.eye(6)
        return -float(n @ np.log(probs)), -2.0 / t * tom._factor_to_params(m @ g)

    seed_block = tom.two_stage_block(initial) + 1e-6 * np.eye(6)
    x0 = tom._factor_to_params(np.linalg.cholesky(seed_block / np.trace(seed_block).real))
    result = minimize(
        negative_ll_and_grad, x0, jac=True, method="L-BFGS-B", options={"maxiter": 500, "ftol": 1e-10, "gtol": 1e-12}
    )
    return -float(result.fun)


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


# ---------------------------------------------------------------------------
# states, comparisons and local channels that only the tests use

QUBIT_REGISTER = ModeRegister(2, 1)
TRUNCATION_WARN_LEVEL = 1e-6  # a truncation deficit above this calls for a higher cutoff


def truncation_warning(state: PureState) -> bool:
    return state.truncation_deficit > TRUNCATION_WARN_LEVEL


def budget_as_dict(budget: ChannelBudget) -> dict[str, object]:
    """The ``channel`` config block of ``budget``."""
    return {side: {k: list(v) for k, v in vars(comps).items()} for side, comps in (("L", budget.left), ("R", budget.right))}


# an MLE start for records without a two-stage estimate: mostly vacuum, no coherence
DEFAULT_MLE_START = RestrictedDensity(p00=0.9, p01=0.04, p10=0.04, p11=0.01, p02=0.005, p20=0.005)


def block_to_full(block: np.ndarray) -> DensityOperator:
    """The cutoff-2 two-mode state whose block on ``tom._BLOCK_OCCS`` is
    ``block`` (as ``MLEResult.block``), zero elsewhere."""
    mat = np.zeros((9, 9), dtype=complex)
    mat[np.ix_(_BLOCK_IDX, _BLOCK_IDX)] = block
    return DensityOperator(ModeRegister(2, 2), mat, _skip_positivity=True)


def diagonal_estimate(values: dict, sigmas: dict | None = None) -> tom.DiagonalEstimate:
    """The ``DiagonalEstimate`` that ``estimate_coherence`` reads: ``values``
    and ``sigmas`` on ``DIAG_KEYS``, 0 for a key not given."""
    return tom.DiagonalEstimate(
        values={key: values.get(key, 0.0) for key in tom.DIAG_KEYS},
        sigmas={key: (sigmas or {}).get(key, 0.0) for key in tom.DIAG_KEYS},
        covariance=np.zeros((5, 5)),
        flags=(),
        trials=0,
        chi2=0.0,
    )


def load_preset(name: str) -> ExperimentConfig:
    return config_from_dict(preset_dict(name))


def fock_state(register: ModeRegister, occupation: Sequence[int]) -> PureState:
    amps = np.zeros(register.dim, dtype=complex)
    amps[register.index(occupation)] = 1.0
    return PureState(register, amps)


def to_density(state: PureState) -> DensityOperator:
    """|psi><psi| of a state vector."""
    return DensityOperator(state.register, np.outer(state.amplitudes, state.amplitudes.conj()), _skip_positivity=True)


def fidelity(a: PureState | DensityOperator, b: PureState | DensityOperator) -> float:
    """Uhlmann fidelity; reduces to |<psi|phi>|^2 or <psi|rho|psi> for pure inputs."""
    if isinstance(a, PureState) and isinstance(b, PureState):
        return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)
    if isinstance(a, PureState):
        return float(np.real(a.amplitudes.conj() @ b.matrix @ a.amplitudes))
    if isinstance(b, PureState):
        return fidelity(b, a)
    evals, evecs = np.linalg.eigh(a.matrix)
    sqrt_a = (evecs * np.sqrt(np.clip(evals, 0.0, None))) @ evecs.conj().T
    inner = sqrt_a @ b.matrix @ sqrt_a
    vals = np.linalg.eigvalsh(inner)
    return float(np.sum(np.sqrt(np.clip(vals, 0.0, None))) ** 2)


def overlap_from_extinction_db(extinction_db: float) -> float:
    """Residual mode overlap when the fields are combined with orthogonal
    polarizations through fibers of finite polarization extinction.

    Both fibers leak amplitude 10^(-dB/20) into the nominally empty
    polarization, and both leaked components interfere with the opposite
    field, so the residual overlap (hence fringe visibility) is twice the
    single-fiber amplitude leakage.
    """
    if extinction_db < 0:
        raise ValueError("extinction must be nonnegative dB")
    return min(1.0, 2.0 * 10.0 ** (-extinction_db / 20.0))


def normalized_matrix(rd: RestrictedDensity) -> np.ndarray:
    """The restricted block as a unit-trace 4x4 matrix on |00>, |01>, |10>, |11>."""
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = rd.p00
    m[1, 1] = rd.p01
    m[2, 2] = rd.p10
    m[3, 3] = rd.p11
    m[1, 2] = rd.d
    m[2, 1] = np.conj(rd.d)
    return m / rd.p_tilde


def wootters_concurrence(rho: np.ndarray | DensityOperator) -> float:
    """Spin-flip concurrence of an arbitrary two-qubit density matrix."""
    mat = rho.matrix if isinstance(rho, DensityOperator) else np.asarray(rho, dtype=complex)
    if mat.shape != (4, 4):
        raise ValueError("expected a 4x4 two-qubit density matrix")
    if np.max(np.abs(mat - mat.conj().T)) > 1e-8:
        raise ValueError("matrix is not Hermitian")
    if abs(np.trace(mat).real - 1.0) > 1e-8:
        raise ValueError("matrix does not have unit trace")
    if np.linalg.eigvalsh(mat)[0] < -1e-8:
        raise ValueError("matrix is not positive semidefinite")
    sy = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    flip = np.kron(sy, sy)
    r = mat @ flip @ mat.conj() @ flip
    evals = np.linalg.eigvals(r)
    lam = np.sqrt(np.clip(np.sort(evals.real)[::-1], 0.0, None))
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


@dataclass(frozen=True)
class LoccCheck:
    holds: bool
    c_before: float
    bound_after: float


def _as_qubit_density(state: RestrictedDensity | np.ndarray | DensityOperator) -> tuple[np.ndarray, float]:
    """(normalized 4x4 matrix, retained weight) for either input flavor."""
    if isinstance(state, RestrictedDensity):
        return normalized_matrix(state), state.p_tilde
    mat = state.matrix if isinstance(state, DensityOperator) else np.asarray(state, dtype=complex)
    return mat, 1.0


def locc_bound_check(
    before: RestrictedDensity | np.ndarray | DensityOperator,
    after: RestrictedDensity | np.ndarray | DensityOperator,
    tol: float = 1e-9,
) -> LoccCheck:
    """Verify P~(after) C(after) <= C(before) + tol for states relatable by
    declared local channels (attenuation, local phase, mode filtering)."""
    mat_before, _ = _as_qubit_density(before)
    mat_after, weight_after = _as_qubit_density(after)
    c_before = wootters_concurrence(mat_before)
    bound_after = weight_after * wootters_concurrence(mat_after)
    return LoccCheck(holds=bool(bound_after <= c_before + tol), c_before=c_before, bound_after=bound_after)


def local_attenuation(rho4: np.ndarray, eta: float, side: str) -> np.ndarray:
    """Attenuation channel on one side of a two-qubit photon-number state."""
    mode = 0 if side == "L" else 1
    return apply_loss(DensityOperator(QUBIT_REGISTER, rho4), eta, mode).matrix


def local_phase(rho4: np.ndarray, theta: float, side: str) -> np.ndarray:
    """Local phase rotation on one side (a local unitary)."""
    mode = 0 if side == "L" else 1
    return apply_phase(DensityOperator(QUBIT_REGISTER, rho4), theta, mode).matrix


def load_script(path: Path, name: str):
    """Import the script at ``path`` as module ``name``, writing no bytecode beside it."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module
