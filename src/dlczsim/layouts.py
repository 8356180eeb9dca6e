"""Detection-bench layouts for the two-mode field state.

Two arrangements are used: the population (diagonal) layout with one detector
on 2_L and a split detector pair on 2_R, and the interference (fringe) layout
where a relative phase and a recombining beam splitter are inserted first.
Both read exact joint click-pattern probabilities off one cached POVM; each is
Tr(E rho) of positive operators, so one that rounds below 0 is clipped to 0.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .detection import JointProbabilities
from .fock import DensityOperator, ModeRegister, apply_phase, beamsplitter_unitary, click_weights

D2_IDS = ("D2a", "D2b", "D2c")
SPLIT_PAIR = ("D2b", "D2c")
PATTERNS = tuple(np.ndindex(2, 2, 2))  # click bits in D2_IDS order


@lru_cache(maxsize=64)
def bench_povm(
    cutoff: int, eta_d2a: float, eta_d2b: float, eta_d2c: float, split: float, bs2_T: float | None, dark_prob: float
) -> np.ndarray:
    """Read-only POVM on the two-mode input (2_L, 2_R), one element per pattern
    of ``PATTERNS``, with the auxiliary splitter port in vacuum.  ``bs2_T=None``
    is the population layout; otherwise the recombiner is included at phase 0.
    The recombiner can send every input photon to one output, so its outputs
    and the split pair live on modes of cutoff 2 * ``cutoff``, where no
    splitter sector the inputs reach is clipped."""
    levels = cutoff + 1
    if bs2_T is None:  # no mode holds more than cutoff photons
        reach, u = cutoff, np.kron(np.eye(levels), beamsplitter_unitary(cutoff, split))[:, ::levels]  # columns |n_L, n_R, 0>
    else:
        reach = 2 * cutoff
        inputs = ((reach + 1) * np.arange(levels)[:, None] + np.arange(levels)).ravel()  # |n_L, n_R> with n <= cutoff
        recombined = beamsplitter_unitary(reach, bs2_T)[:, inputs].reshape(reach + 1, reach + 1, -1)
        # the split pair takes the second output and the auxiliary port in vacuum
        u = (beamsplitter_unitary(reach, split)[:, :: reach + 1] @ recombined).reshape((reach + 1) ** 3, -1)
    weights = click_weights(ModeRegister(3, reach), ((0,), (1,), (2,)), (eta_d2a, eta_d2b, eta_d2c), dark_prob)
    povm = np.einsum("pk,ki,kj->pij", weights, u.conj(), u)
    povm.setflags(write=False)
    return povm


def diagonal_layout_probabilities(
    rho: DensityOperator,
    eta_d2a: float,
    eta_d2b: float,
    eta_d2c: float,
    split: float = 0.5,
    dark_prob: float = 0.0,
) -> JointProbabilities:
    """Population measurement: D2a on 2_L; 2_R divided on a splitter of
    transmittance ``split`` toward D2b, remainder toward D2c."""
    povm = bench_povm(rho.register.cutoff, eta_d2a, eta_d2b, eta_d2c, split, None, dark_prob)
    probs = np.diagonal(povm, axis1=1, axis2=2).real @ rho.probabilities()  # elements are Fock diagonal
    return JointProbabilities(D2_IDS, dict(zip(PATTERNS, map(float, np.maximum(probs, 0.0)))))


def fringe_layout_probabilities(
    rho: DensityOperator,
    phi: float,
    eta_d2a: float,
    eta_d2b: float,
    eta_d2c: float,
    split: float = 0.5,
    bs2_T: float = 0.5,
    dark_prob: float = 0.0,
) -> JointProbabilities:
    """Coherence measurement: phase ``phi`` on 2_L, recombination on the
    analysis beam splitter, D2a on one output, split pair on the other."""
    povm = bench_povm(rho.register.cutoff, eta_d2a, eta_d2b, eta_d2c, split, bs2_T, dark_prob)
    probs = np.einsum("pij,ji->p", povm, apply_phase(rho, phi, 0).matrix).real
    return JointProbabilities(D2_IDS, dict(zip(PATTERNS, map(float, np.maximum(probs, 0.0)))))
