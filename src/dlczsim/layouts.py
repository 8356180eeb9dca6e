"""Detection-bench layouts for the two-mode field state.

One bench serves both arrangements: a recombining beam splitter on (2_L, 2_R),
then D2a on one output and a split detector pair on the other.  The
interference (fringe) layout puts a relative phase on 2_L first; the population
(diagonal) layout is the same bench with its recombiner transmitting, so D2a
sees 2_L and the pair 2_R.  Both read exact joint click-pattern probabilities
off one cached POVM; each is Tr(E rho) of positive operators, so one that
rounds below 0 is clipped to 0.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .detection import JointProbabilities
from .fock import DensityOperator, ModeRegister, apply_phase, beamsplitter_sectors, click_weights

D2_IDS = ("D2a", "D2b", "D2c")
SPLIT_PAIR = ("D2b", "D2c")
PATTERNS = tuple(np.ndindex(2, 2, 2))  # click bits in D2_IDS order


@lru_cache(maxsize=64)
def bench_povm(
    cutoff: int, eta_d2a: float, eta_d2b: float, eta_d2c: float, split: float, bs2_T: float, dark_prob: float
) -> np.ndarray:
    """Read-only POVM on the two-mode input (2_L, 2_R), one element per pattern of
    ``PATTERNS``: the recombiner of transmittance ``bs2_T`` at phase 0 (1.0 for the
    population layout), then the split pair on its second output, auxiliary port in
    vacuum.  The outputs are modes of cutoff 2 * ``cutoff``, which hold every photon
    the inputs can send to one output, so the splitters' exact sectors are all it reads
    (the clipped completion is the herald's); the sum runs over the output states
    reached, those of at most 2 * ``cutoff`` photons."""
    levels, reach = cutoff + 1, 2 * cutoff
    inputs = ((reach + 1) * np.arange(levels)[:, None] + np.arange(levels)).ravel()  # |n_L, n_R> with n <= cutoff
    recombined = beamsplitter_sectors(reach, bs2_T)[:, inputs].reshape(reach + 1, reach + 1, -1)
    u = (beamsplitter_sectors(reach, split)[:, :: reach + 1] @ recombined).reshape((reach + 1) ** 3, -1)
    register = ModeRegister(3, reach)
    reached = register.occupations().sum(axis=1) <= reach  # every other row of u is 0
    weights = click_weights(register, ((0,), (1,), (2,)), (eta_d2a, eta_d2b, eta_d2c), dark_prob)
    povm = np.einsum("pk,ki,kj->pij", weights[:, reached], u[reached].conj(), u[reached])
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
    """Population measurement, the fringe layout at phase 0 with its recombiner
    transmitting: D2a on 2_L; 2_R split toward D2b (transmittance ``split``) and D2c."""
    return fringe_layout_probabilities(rho, 0.0, eta_d2a, eta_d2b, eta_d2c, split, 1.0, dark_prob)


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
