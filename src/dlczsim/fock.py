"""Truncated multimode Fock-space linear algebra.

States live on a tensor product of bosonic modes, each truncated at a
configurable photon-number cutoff.  The module provides the state carriers
(:class:`PureState`, :class:`DensityOperator`), the linear-optics primitives
(beam splitter, phase shifter, attenuation channel, phase-jitter dephasing),
and the threshold-detector model in one function, ``click_weights``: the Fock
diagonal of every joint click-pattern element, from the no-click :exp(-eta n):.
The detection bench reads only a beam splitter's exact photon-number sectors,
``beamsplitter_sectors``; ``beamsplitter_unitary`` completes the sectors the
cutoff clips, which only the herald's (1_R, 1_L) splitter reaches.

All values are immutable after construction and every operation is a pure
function, so the API is safe to use from concurrent callers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
POSITIVITY_TOL = 1e-9
NORM_TOL = 1e-12

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
    """Normalized state vector over a mode register; the tensor product and
    the unitaries carry on the norm its sources lost to truncation."""

    register: ModeRegister
    amplitudes: np.ndarray
    truncation_deficit: float = 0.0

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (self.register.dim,):
            raise ValueError("amplitude vector has wrong dimension")
        with np.errstate(invalid="ignore", over="ignore"):  # an infinite or overflowing norm fails the check without a warning
            norm = np.linalg.norm(amps)
        if not abs(norm - 1.0) <= NORM_TOL:  # NaN fails this too
            raise ValueError(f"state norm {norm} deviates from 1 beyond {NORM_TOL}")
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def tensor(self, other: "PureState") -> "PureState":
        if other.register.cutoff != self.register.cutoff:
            raise ValueError("tensor product requires equal cutoffs")
        reg = ModeRegister(self.register.n_modes + other.register.n_modes, self.register.cutoff)
        return PureState(reg, np.kron(self.amplitudes, other.amplitudes), self.truncation_deficit + other.truncation_deficit)


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
        # each check is written so that NaN fails it too, and an infinite or
        # overflowing entry, the symmetrisation's included, fails it without a warning
        with np.errstate(invalid="ignore", over="ignore"):
            herm, tr = np.max(np.abs(mat - mat.conj().T)), np.trace(mat).real
            mat = 0.5 * (mat + mat.conj().T)
        if not herm <= HERMITICITY_TOL:
            raise ValueError(f"matrix not Hermitian within {HERMITICITY_TOL} (deviation {herm:.2e})")
        if not abs(tr - 1.0) <= TRACE_TOL:
            raise ValueError(f"trace {tr} deviates from 1 beyond {TRACE_TOL}")
        if not np.isfinite(mat).all():
            raise ValueError("matrix entries overflow when symmetrised")
        mat.setflags(write=False)
        self.register = register
        self.matrix = mat
        if not _skip_positivity:
            self.assert_positive()

    def assert_positive(self) -> None:
        lowest = np.linalg.eigvalsh(self.matrix)[0]
        if not lowest >= -POSITIVITY_TOL:
            raise ValueError(f"matrix not positive: min eigenvalue {lowest:.3e} < -{POSITIVITY_TOL}")

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
    returned state.
    """
    if not 0.0 <= chi < 1.0:
        raise ValueError(f"chi must lie in [0, 1), got {chi}")
    register = ModeRegister(2, cutoff)
    amps = np.zeros(register.dim, dtype=complex)
    for n in range(cutoff + 1):
        amps[register.index((n, n))] = math.sqrt(1.0 - chi) * chi ** (n / 2.0)
    deficit = chi ** (cutoff + 1)
    amps /= np.linalg.norm(amps)
    return PureState(register, amps, truncation_deficit=deficit)


# ---------------------------------------------------------------------------
# generic tensor application


def _contract(t: np.ndarray, mat: np.ndarray, axes: Sequence[int]) -> np.ndarray:
    """Apply ``mat`` to the level axes ``axes`` of the tensor ``t``; the
    matrix's row and column index runs over ``axes`` in the order given."""
    perm = [*axes, *(axis for axis in range(t.ndim) if axis not in axes)]
    t = t.transpose(perm)
    shape = t.shape
    t = (mat @ t.reshape(mat.shape[1], -1)).reshape(shape)
    return t.transpose(np.argsort(perm))


def _apply(state: State, mat: np.ndarray, modes: Sequence[int]) -> np.ndarray:
    """(M x I) psi for a pure state, (M x I) rho (M x I)^dag for a density
    operator, with M acting on ``modes``."""
    register = state.register
    data = state.amplitudes if isinstance(state, PureState) else state.matrix
    t = _contract(data.reshape((register.levels,) * (register.n_modes * data.ndim)), mat, modes)  # ket side
    if data.ndim == 2:
        t = _contract(t, mat.conj(), [register.n_modes + m for m in modes])  # bra side, conjugated
    return t.reshape(data.shape)


# ---------------------------------------------------------------------------
# two-mode beam splitter


def beamsplitter_sectors(cutoff: int, transmittance: float) -> np.ndarray:
    """Two-mode beam-splitter unitary on its exact sectors, those of total photon
    number <= cutoff; the sectors above, which truncation clips, are left at 0.

    Convention (rotation on the mode operators):

        a -> sqrt(T) a + sqrt(1-T) b
        b -> -sqrt(1-T) a + sqrt(T) b

    so a single photon entering mode ``a`` is transmitted into the ``a``
    output slot with probability T, and T=1 is the identity.  Each sector is the
    binomial expansion of U|m,n> = (c a+ - s b+)^m (s a+ + c b+)^n |0,0> / sqrt(m! n!).
    """
    if not 0.0 <= transmittance <= 1.0:
        raise ValueError(f"transmittance must lie in [0, 1], got {transmittance}")
    c = math.sqrt(transmittance)
    s = math.sqrt(1.0 - transmittance)
    levels = cutoff + 1
    out = np.zeros((levels,) * 4, dtype=complex)  # out[p, q, m, n] = <p,q|U|m,n>
    fact = [math.factorial(k) for k in range(levels)]
    pa = [np.array([math.comb(m, j) * c**j * (-s) ** (m - j) for j in range(m + 1)]) for m in range(levels)]
    pb = [np.array([math.comb(n, l) * s**l * c ** (n - l) for l in range(n + 1)]) for n in range(levels)]
    for m in range(levels):
        for n in range(levels - m):
            amp = np.convolve(pa[m], pb[n])
            for p in range(m + n + 1):
                out[p, m + n - p, m, n] = amp[p] * math.sqrt(fact[p] * fact[m + n - p] / (fact[m] * fact[n]))
    return out.reshape(levels * levels, -1)


@lru_cache(maxsize=64)
def beamsplitter_unitary(cutoff: int, transmittance: float) -> np.ndarray:
    """Two-mode beam-splitter unitary on the truncated pair space: the exact
    sectors of :func:`beamsplitter_sectors`, with the truncation-clipped
    sectors (total photon number above ``cutoff``) completed by exponentiating
    the clipped generator (in the eigenbasis of 1j * gen) so U stays unitary.
    """
    out = beamsplitter_sectors(cutoff, transmittance)
    levels = cutoff + 1
    theta = math.atan2(math.sqrt(1.0 - transmittance), math.sqrt(transmittance))
    for total in range(levels, 2 * levels - 1):
        # the rotation generator on the sector's states |k, total - k>, k = total - cutoff ... cutoff
        # (a+ b below the diagonal, -a b+ above); |k, total - k> is row cutoff * k + total
        elem = [math.sqrt((k + 1) * (total - k)) for k in range(total - cutoff, cutoff)]
        lam, vec = np.linalg.eigh(1j * (np.diag(elem, -1) - np.diag(elem, 1)))
        sector = slice(cutoff * (total - cutoff) + total, cutoff * cutoff + total + 1, cutoff)
        out[sector, sector] = ((vec * np.exp(-1j * theta * lam)) @ vec.conj().T).real
    out.setflags(write=False)
    return out


def apply_beamsplitter(state: State, transmittance: float, i: int, j: int) -> State:
    """Conjugate by the two-mode beam splitter acting on modes (i, j)."""
    register = state.register
    _check_mode(register, i)
    _check_mode(register, j)
    if i == j:
        raise ValueError("beam splitter needs two distinct modes")
    out = _apply(state, beamsplitter_unitary(register.cutoff, transmittance), [i, j])
    if isinstance(state, PureState):
        return PureState(register, out, state.truncation_deficit)
    return DensityOperator(register, out, _skip_positivity=True)


# ---------------------------------------------------------------------------
# single-mode channels


def apply_phase(state: State, phi: float, mode: int) -> State:
    """Phase shifter exp(i phi n) on one mode; Fock-diagonal entries unchanged."""
    register = state.register
    _check_mode(register, mode)
    w = np.exp(1j * phi * register.mode_numbers(mode))
    if isinstance(state, PureState):
        return PureState(register, w * state.amplitudes, state.truncation_deficit)
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
    branches = (_apply(state, k, [mode]) for k in loss_kraus_operators(register.cutoff, eta))
    if isinstance(state, PureState):
        branches = (np.outer(b, b.conj()) for b in branches)
    return DensityOperator(register, sum(branches), _skip_positivity=True)


def apply_phase_jitter(rho: DensityOperator, sigma: float, mode: int) -> DensityOperator:
    """Gaussian phase-diffusion channel: rho_nm *= exp(-sigma^2 (n-m)^2 / 2).

    Exact ensemble average of a per-trial Gaussian phase of std ``sigma``
    applied to the mode.
    """
    if not 0.0 <= sigma < math.inf:
        raise ValueError(f"sigma must be finite and nonnegative, got {sigma}")
    register = rho.register
    _check_mode(register, mode)
    if sigma == 0.0:
        return rho
    n = register.mode_numbers(mode)
    delta = (n[:, None] - n[None, :]).astype(float)
    factors = np.exp(-0.5 * sigma**2 * delta**2)
    return DensityOperator(register, rho.matrix * factors, _skip_positivity=True)


# ---------------------------------------------------------------------------
# detector elements


def click_weights(
    register: ModeRegister, groups: Sequence[Sequence[int]], efficiencies: Sequence[float], dark_prob: float = 0.0
) -> np.ndarray:
    """Fock diagonals of the joint click-pattern elements of threshold
    detectors, one detector per mode group: a ``(2**k, dim)`` array whose rows
    follow ``np.ndindex((2,) * k)`` (bit 1 = click).  With a -> sqrt(eta) a a
    detector's no-click element is the normally ordered :exp(-eta n): over its
    modes, of Fock diagonal (1-eta)^n per mode; an optional per-window dark
    count multiplies it by (1 - dark_prob).  Every element is Fock diagonal,
    so a pattern's probability is its row dotted with the state's populations,
    and conditioning on it is a trace weighted by that row."""
    if not 0.0 <= dark_prob < 1.0:
        raise ValueError(f"dark-count probability must lie in [0, 1), got {dark_prob}")
    modes = [mode for group in groups for mode in group]
    if len(set(modes)) != len(modes):
        raise ValueError("a mode is assigned to more than one detector")
    no_click = np.ones((len(groups), register.dim))
    for w, group, eta in zip(no_click, groups, efficiencies, strict=True):
        if not 0.0 <= eta <= 1.0:
            raise ValueError(f"efficiency must lie in [0, 1], got {eta}")
        for mode in group:
            _check_mode(register, mode)
            w *= (1.0 - eta) ** register.mode_numbers(mode)
    no_click *= 1.0 - dark_prob
    patterns = np.array(list(np.ndindex((2,) * len(groups))))
    return np.where(patterns[:, :, None] == 0, no_click, 1.0 - no_click).prod(axis=1)
