"""Truncated multimode Fock-space linear algebra.

States live on a tensor product of bosonic modes, each truncated at a
configurable photon-number cutoff.  The module provides the state carriers
(:class:`PureState`, :class:`DensityOperator`), the linear-optics primitives
(beam splitter, phase shifter, attenuation channel, phase-jitter dephasing),
and the threshold-detector model: the Fock diagonal of the no-click element,
the normally ordered :exp(-eta n):, and of every joint click-pattern element.

All values are immutable after construction and every operation is a pure
function, so the API is safe to use from concurrent callers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
POSITIVITY_TOL = 1e-9
NORM_TOL = 1e-12
TRUNCATION_WARN_LEVEL = 1e-6

# Eigenvalue checks are O(dim^3); above this dimension construction skips the
# spectral positivity test (Hermiticity/trace are always enforced) and
# callers run DensityOperator.assert_positive() explicitly where needed.
EIGEN_CHECK_MAX_DIM = 1024

# Guard against accidentally requesting an enormous tensor product.
DEFAULT_MAX_DIM = 1 << 16


@dataclass(frozen=True)
class ModeRegister:
    """A set of bosonic modes, each truncated at ``cutoff`` photons."""

    n_modes: int
    cutoff: int

    def __post_init__(self):
        if self.n_modes < 1:
            raise ValueError("n_modes must be >= 1")
        if self.cutoff < 1:
            raise ValueError("cutoff must be >= 1")
        if self.dim > DEFAULT_MAX_DIM:
            raise MemoryError(f"register dimension {self.dim} exceeds the bound {DEFAULT_MAX_DIM}")

    @property
    def levels(self) -> int:
        return self.cutoff + 1

    @property
    def dim(self) -> int:
        return (self.cutoff + 1) ** self.n_modes

    def occupations(self) -> np.ndarray:
        """(dim, n_modes) integer array; row i is the occupation of basis state i."""
        return _occupation_table(self.n_modes, self.cutoff)

    def index(self, occupation: Sequence[int]) -> int:
        if len(occupation) != self.n_modes:
            raise ValueError("occupation length must equal n_modes")
        idx = 0
        for n in occupation:
            if not 0 <= n <= self.cutoff:
                raise ValueError(f"occupation {n} outside [0, {self.cutoff}]")
            idx = idx * self.levels + n
        return idx

    def mode_numbers(self, mode: int) -> np.ndarray:
        """Occupation of ``mode`` for every basis index."""
        return self.occupations()[:, mode]


@lru_cache(maxsize=None)
def _occupation_table(n_modes: int, cutoff: int) -> np.ndarray:
    grids = np.indices((cutoff + 1,) * n_modes)
    table = grids.reshape(n_modes, -1).T.astype(np.int64)
    table.setflags(write=False)
    return table


def _check_mode(register: ModeRegister, mode: int) -> None:
    if not 0 <= mode < register.n_modes:
        raise ValueError(f"mode {mode} outside register with {register.n_modes} modes")


@dataclass(frozen=True)
class PureState:
    """Normalized state vector over a mode register."""

    register: ModeRegister
    amplitudes: np.ndarray
    truncation_deficit: float = 0.0

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (self.register.dim,):
            raise ValueError("amplitude vector has wrong dimension")
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state norm {norm} deviates from 1 beyond {NORM_TOL}")
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def truncation_warning(self) -> bool:
        return self.truncation_deficit > TRUNCATION_WARN_LEVEL

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def to_density(self) -> "DensityOperator":
        rho = np.outer(self.amplitudes, self.amplitudes.conj())
        return DensityOperator(self.register, rho, _skip_positivity=True)

    def tensor(self, other: "PureState") -> "PureState":
        if other.register.cutoff != self.register.cutoff:
            raise ValueError("tensor product requires equal cutoffs")
        reg = ModeRegister(self.register.n_modes + other.register.n_modes, self.register.cutoff)
        return PureState(reg, np.kron(self.amplitudes, other.amplitudes))


class DensityOperator:
    """Hermitian, unit-trace, positive matrix over a mode register.

    Invalid matrices are rejected at construction rather than silently
    repaired; ``POSITIVITY_TOL`` sets how negative the smallest eigenvalue
    may be before rejection.
    """

    __slots__ = ("register", "matrix")

    def __init__(self, register: ModeRegister, matrix: np.ndarray, *, _skip_positivity: bool = False):
        mat = np.asarray(matrix, dtype=complex)
        if mat.shape != (register.dim, register.dim):
            raise ValueError("matrix has wrong dimension for register")
        herm = np.max(np.abs(mat - mat.conj().T))
        if herm > HERMITICITY_TOL:
            raise ValueError(f"matrix not Hermitian within {HERMITICITY_TOL} (deviation {herm:.2e})")
        tr = np.trace(mat).real
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"trace {tr} deviates from 1 beyond {TRACE_TOL}")
        mat = 0.5 * (mat + mat.conj().T)
        mat.setflags(write=False)
        self.register = register
        self.matrix = mat
        if not _skip_positivity and register.dim <= EIGEN_CHECK_MAX_DIM:
            self.assert_positive()

    def assert_positive(self, tol: float = POSITIVITY_TOL) -> None:
        lowest = np.linalg.eigvalsh(self.matrix)[0]
        if lowest < -tol:
            raise ValueError(f"matrix not positive: min eigenvalue {lowest:.3e} < -{tol}")

    def probabilities(self) -> np.ndarray:
        return np.real(np.diagonal(self.matrix))

    def __repr__(self):
        return f"DensityOperator(n_modes={self.register.n_modes}, cutoff={self.register.cutoff})"


State = PureState | DensityOperator


# ---------------------------------------------------------------------------
# state constructors


def vacuum(register: ModeRegister) -> PureState:
    amps = np.zeros(register.dim, dtype=complex)
    amps[0] = 1.0
    return PureState(register, amps)


def two_mode_squeezed(chi: float, cutoff: int) -> PureState:
    """Pair-correlated state ~ sum_n chi^(n/2) |n,n>, truncated and renormalized.

    ``chi`` is the probability of at least one excitation; the untruncated
    photon-number distribution is (1-chi) chi^n, so the norm lost to
    truncation is exactly chi^(cutoff+1).  The deficit is recorded on the
    returned state and flags a warning above ``TRUNCATION_WARN_LEVEL``.
    """
    if not 0.0 <= chi < 1.0:
        raise ValueError(f"chi must lie in [0, 1), got {chi}")
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    register = ModeRegister(2, cutoff)
    amps = np.zeros(register.dim, dtype=complex)
    for n in range(cutoff + 1):
        amps[register.index((n, n))] = math.sqrt(1.0 - chi) * chi ** (n / 2.0)
    deficit = chi ** (cutoff + 1)
    amps /= np.linalg.norm(amps)
    return PureState(register, amps, truncation_deficit=deficit)


# ---------------------------------------------------------------------------
# generic tensor application


def _apply_on_vector(vec: np.ndarray, register: ModeRegister, mat: np.ndarray, modes: Sequence[int]) -> np.ndarray:
    levels = register.levels
    k = len(modes)
    t = vec.reshape((levels,) * register.n_modes)
    t = np.moveaxis(t, modes, range(k))
    shape = t.shape
    t = mat @ t.reshape(levels**k, -1)
    t = np.moveaxis(t.reshape(shape), range(k), modes)
    return t.reshape(register.dim)


def _apply_on_density(rho: np.ndarray, register: ModeRegister, mat: np.ndarray, modes: Sequence[int]) -> np.ndarray:
    """(M x I) rho (M x I)^dag with M acting on ``modes``."""
    n = register.n_modes
    levels = register.levels
    k = len(modes)
    t = rho.reshape((levels,) * (2 * n))
    # ket side
    t = np.moveaxis(t, modes, range(k))
    shape = t.shape
    t = (mat @ t.reshape(levels**k, -1)).reshape(shape)
    t = np.moveaxis(t, range(k), modes)
    # bra side (conjugate action)
    bra = [n + m for m in modes]
    t = np.moveaxis(t, bra, range(k))
    shape = t.shape
    t = (mat.conj() @ t.reshape(levels**k, -1)).reshape(shape)
    t = np.moveaxis(t, range(k), bra)
    return t.reshape(register.dim, register.dim)


# ---------------------------------------------------------------------------
# two-mode beam splitter


@lru_cache(maxsize=64)
def beamsplitter_unitary(cutoff: int, transmittance: float) -> np.ndarray:
    """Two-mode beam-splitter unitary on the truncated pair space.

    Convention (rotation on the mode operators):

        a -> sqrt(T) a + sqrt(1-T) b
        b -> -sqrt(1-T) a + sqrt(T) b

    so a single photon entering mode ``a`` is transmitted into the ``a``
    output slot with probability T, and T=1 is the identity.  The matrix is
    block diagonal in total photon number.  Sectors with total <= cutoff are
    built exactly from the binomial expansion of the transformed creation
    operators; truncation-clipped sectors are completed by exponentiating the
    clipped generator (in the eigenbasis of 1j * gen) so U stays unitary.
    """
    if not 0.0 <= transmittance <= 1.0:
        raise ValueError(f"transmittance must lie in [0, 1], got {transmittance}")
    c = math.sqrt(transmittance)
    s = math.sqrt(1.0 - transmittance)
    levels = cutoff + 1
    dim = levels * levels
    out = np.zeros((dim, dim), dtype=complex)
    fact = [math.factorial(k) for k in range(2 * cutoff + 1)]

    def idx(na: int, nb: int) -> int:
        return na * levels + nb

    for total in range(0, 2 * cutoff + 1):
        ks = list(range(max(0, total - cutoff), min(total, cutoff) + 1))
        if total <= cutoff:
            # exact sector: U|m,n> = (c a+ - s b+)^m (s a+ + c b+)^n |0,0> / sqrt(m! n!)
            for m in ks:
                n = total - m
                pa = np.array([math.comb(m, j) * c**j * (-s) ** (m - j) for j in range(m + 1)])
                pb = np.array([math.comb(n, l) * s**l * c ** (n - l) for l in range(n + 1)])
                amp = np.convolve(pa, pb)
                for p in range(total + 1):
                    norm = math.sqrt(fact[p] * fact[total - p] / (fact[m] * fact[n]))
                    out[idx(p, total - p), idx(m, n)] = amp[p] * norm
        else:
            # clipped sector: rotation generator restricted to available states
            size = len(ks)
            gen = np.zeros((size, size))
            for pos in range(size - 1):
                kk = ks[pos]
                elem = math.sqrt((kk + 1) * (total - kk))
                gen[pos + 1, pos] = elem   # a+ b
                gen[pos, pos + 1] = -elem  # -a b+
            theta = math.atan2(s, c)
            lam, vec = np.linalg.eigh(1j * gen)
            block = ((vec * np.exp(-1j * theta * lam)) @ vec.conj().T).real
            for col, m in enumerate(ks):
                for row, p in enumerate(ks):
                    out[idx(p, total - p), idx(m, total - m)] = block[row, col]
    out.setflags(write=False)
    return out


def apply_beamsplitter(state: State, transmittance: float, i: int, j: int) -> State:
    """Conjugate by the two-mode beam splitter acting on modes (i, j)."""
    register = state.register
    _check_mode(register, i)
    _check_mode(register, j)
    if i == j:
        raise ValueError("beam splitter needs two distinct modes")
    mat = beamsplitter_unitary(register.cutoff, transmittance)
    if isinstance(state, PureState):
        return PureState(register, _apply_on_vector(state.amplitudes, register, mat, [i, j]))
    return DensityOperator(register, _apply_on_density(state.matrix, register, mat, [i, j]), _skip_positivity=True)


# ---------------------------------------------------------------------------
# single-mode channels


def apply_phase(state: State, phi: float, mode: int) -> State:
    """Phase shifter exp(i phi n) on one mode; Fock-diagonal entries unchanged."""
    register = state.register
    _check_mode(register, mode)
    w = np.exp(1j * phi * register.mode_numbers(mode))
    if isinstance(state, PureState):
        return PureState(register, w * state.amplitudes)
    return DensityOperator(register, (w[:, None] * state.matrix) * w.conj()[None, :], _skip_positivity=True)


def loss_kraus_operators(cutoff: int, eta: float) -> list[np.ndarray]:
    """Kraus decomposition of the attenuation channel on one truncated mode.

    K_k removes k photons; since every operator only lowers photon number
    the decomposition is exactly trace preserving at finite cutoff.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"transmission must lie in [0, 1], got {eta}")
    levels = cutoff + 1
    ops = []
    for k in range(levels):
        mat = np.zeros((levels, levels))
        for n in range(k, levels):
            mat[n - k, n] = math.sqrt(math.comb(n, k) * eta ** (n - k) * (1.0 - eta) ** k)
        ops.append(mat)
    return ops


def apply_loss(state: State, eta: float, mode: int) -> DensityOperator:
    """CPTP attenuation (beam splitter to a traced-out vacuum ancilla)."""
    register = state.register
    _check_mode(register, mode)
    kraus = loss_kraus_operators(register.cutoff, eta)
    if isinstance(state, PureState):
        branches = [_apply_on_vector(state.amplitudes, register, k, [mode]) for k in kraus]
        rho = sum(np.outer(b, b.conj()) for b in branches)
    else:
        rho = np.zeros_like(state.matrix)
        for k in kraus:
            rho += _apply_on_density(state.matrix, register, k, [mode])
    return DensityOperator(register, rho, _skip_positivity=True)


def apply_phase_jitter(state: State, sigma: float, mode: int) -> DensityOperator:
    """Gaussian phase-diffusion channel: rho_nm *= exp(-sigma^2 (n-m)^2 / 2).

    Exact ensemble average of a per-trial Gaussian phase of std ``sigma``
    applied to the mode.
    """
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    register = state.register
    _check_mode(register, mode)
    rho = state.to_density() if isinstance(state, PureState) else state
    if sigma == 0.0:
        return rho
    n = register.mode_numbers(mode)
    delta = (n[:, None] - n[None, :]).astype(float)
    factors = np.exp(-0.5 * sigma**2 * delta**2)
    return DensityOperator(register, rho.matrix * factors, _skip_positivity=True)


# ---------------------------------------------------------------------------
# detector elements


def no_click_weights(register: ModeRegister, modes: Iterable[int], efficiency: float, dark_prob: float = 0.0) -> np.ndarray:
    """Diagonal of the no-click POVM element for a detector covering ``modes``.

    With a -> sqrt(eta) a the normally ordered no-click operator
    :exp(-eta n): has Fock diagonal (1-eta)^n; an optional per-window dark
    count multiplies by (1 - dark_prob).
    """
    if not 0.0 <= efficiency <= 1.0:
        raise ValueError(f"efficiency must lie in [0, 1], got {efficiency}")
    if not 0.0 <= dark_prob < 1.0:
        raise ValueError(f"dark-count probability must lie in [0, 1), got {dark_prob}")
    w = np.ones(register.dim)
    for mode in modes:
        _check_mode(register, mode)
        w = w * (1.0 - efficiency) ** register.mode_numbers(mode)
    return w * (1.0 - dark_prob)


def click_weights(
    register: ModeRegister, groups: Sequence[Sequence[int]], efficiencies: Sequence[float], dark_prob: float = 0.0
) -> np.ndarray:
    """Fock diagonals of the joint click-pattern elements of threshold
    detectors, one detector per mode group: a ``(2**k, dim)`` array whose rows
    follow ``np.ndindex((2,) * k)`` (bit 1 = click).  Every element is Fock
    diagonal, so a pattern's probability is its row dotted with the state's
    populations, and conditioning on it is a trace weighted by that row."""
    modes = [mode for group in groups for mode in group]
    if len(set(modes)) != len(modes):
        raise ValueError("a mode is assigned to more than one detector")
    no_click = np.array([no_click_weights(register, group, eta, dark_prob) for group, eta in zip(groups, efficiencies, strict=True)])
    patterns = np.array(list(np.ndindex((2,) * len(groups))))
    return np.where(patterns[:, :, None] == 0, no_click, 1.0 - no_click).prod(axis=1)
