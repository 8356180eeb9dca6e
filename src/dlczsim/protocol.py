"""Forward model of the two-ensemble heralded-entanglement experiment.

Write stage: each ensemble emits a pair-correlated (field-1, collective spin)
state with excitation probability chi.  The two field-1 modes interfere on an
asymmetric beam splitter and a click at one of the two heralding detectors
projects the joint spin state.  Read stage: the stored excitation is mapped
to field 2 with retrieval efficiency xi, propagates through the lossy
channel, and is analyzed either directly (diagonal layout) or behind a
relative phase shifter and a 50/50 beam splitter (fringe layout).

The herald owns the heralding optics: it reads the phase, the splitter and
the mode overlap from ``InterferometerParams``.  Overlap below one is modeled
by splitting the right-hand field-1 mode into a matched and an orthogonal
component; the orthogonal component still reaches the heralding detectors
(through its own beam-splitter port pair) but carries which-path
information, so it heralds without creating coherence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import HERALDS, EnsembleParams, HeraldChoice, InterferometerParams
from .detection import JointProbabilities
from .fock import (
    DensityOperator,
    ModeRegister,
    PureState,
    apply_beamsplitter,
    apply_loss,
    apply_phase,
    apply_phase_jitter,
    click_weights,
    two_mode_squeezed,
    vacuum,
)


class HeraldError(RuntimeError):
    """Heralding on the requested pattern is (numerically) impossible."""


# mode layout of the write-stage register, and of the herald's orthogonal pair
MODE_1L, MODE_AL, MODE_1R, MODE_AR, MODE_ORTH_R, MODE_ORTH_L = range(6)


def write_stage(left: EnsembleParams, right: EnsembleParams, cutoff: int = 3) -> PureState:
    """Joint state of the two sources after the write pulses, mode order
    (1_L, a_L, 1_R, a_R); it carries the truncation deficit of both sources."""
    if cutoff < 2:
        raise ValueError("cutoff must be >= 2 for the write stage")
    return two_mode_squeezed(left.chi, cutoff).tensor(two_mode_squeezed(right.chi, cutoff))


def _field1_view(state: PureState, interferometer: InterferometerParams, choice: HeraldChoice) -> tuple[np.ndarray, np.ndarray]:
    """Apply the heralding optics to the write-stage state and return its
    (spin, field-1) amplitude matrix with the (D1a, D1b) click weights on the
    field-1 index, rows in ``np.ndindex(2, 2)`` order.

    For overlap < 1 a vacuum pair (orth_R, orth_L) joins the register, orth_R
    takes sqrt(1 - overlap^2) of the right field and meets orth_L on its own
    copy of the heralding splitter.  D1a sits on the ports that transmit the
    right-hand fields with amplitude sqrt(bs1_T).
    """
    cutoff = state.register.cutoff
    d1a, d1b = (MODE_1R,), (MODE_1L,)
    orthogonal = interferometer.overlap < 1.0
    if orthogonal:
        state = state.tensor(vacuum(ModeRegister(2, cutoff)))
        state = apply_beamsplitter(state, interferometer.overlap**2, MODE_1R, MODE_ORTH_R)
        d1a, d1b = (MODE_1R, MODE_ORTH_R), (MODE_1L, MODE_ORTH_L)
    state = apply_phase(state, interferometer.eta1, MODE_1L)
    state = apply_beamsplitter(state, interferometer.bs1_T, MODE_1R, MODE_1L)
    if orthogonal:
        state = apply_beamsplitter(state, interferometer.bs1_T, MODE_ORTH_R, MODE_ORTH_L)
    fields = sorted(d1a + d1b)
    groups = [[fields.index(mode) for mode in modes] for modes in (d1a, d1b)]
    weights = click_weights(ModeRegister(len(fields), cutoff), groups, (choice.d1a_efficiency, choice.d1b_efficiency))
    amplitudes = state.amplitudes.reshape((cutoff + 1,) * state.register.n_modes)
    return np.transpose(amplitudes, [MODE_AL, MODE_AR, *fields]).reshape((cutoff + 1) ** 2, -1), weights


def herald_probabilities(
    state: PureState, interferometer: InterferometerParams, choice: HeraldChoice = HeraldChoice()
) -> JointProbabilities:
    """Joint (D1a, D1b) click probabilities for the write-stage state; of
    ``choice`` only the detector efficiencies enter."""
    t, weights = _field1_view(state, interferometer, choice)
    populations = np.sum(np.abs(t) ** 2, axis=0)
    return JointProbabilities(HERALDS, {pattern: float(w @ populations) for pattern, w in zip(np.ndindex(2, 2), weights)})


def herald(
    state: PureState, interferometer: InterferometerParams, choice: HeraldChoice = HeraldChoice()
) -> tuple[DensityOperator, float]:
    """Condition on the chosen heralding event and return the joint spin state
    on (a_L, a_R) together with the herald probability per trial.

    The two heralding detectors cover every field-1 mode, so the spin state is
    the trace over those modes weighted by the event's click weights."""
    t, weights = _field1_view(state, interferometer, choice)
    # rows where the chosen detector clicks, indexed by the other detector's bit
    clicked = np.take(weights.reshape(2, 2, -1), 1, axis=HERALDS.index(choice.which))
    w = clicked[0] if choice.exclusive else clicked[0] + clicked[1]
    reduced = np.einsum("bt,t,ct->bc", t, w, t.conj())
    probability = float(np.trace(reduced).real)
    if probability < 1e-15:
        raise HeraldError(f"herald probability {probability:.3e} below 1e-15")
    return DensityOperator(ModeRegister(2, state.register.cutoff), reduced / probability, _skip_positivity=True), probability


def read_stage(
    atomic: DensityOperator,
    xi_left: float,
    xi_right: float,
    eta2: float = 0.0,
    phase_jitter_sigma: float = 0.0,
) -> DensityOperator:
    """Map the spin modes to field-2 modes (2_L, 2_R) at the ensemble output
    plane through the retrieval channel.

    Retrieval with efficiency xi is an attenuation channel into the field
    mode; eta2 enters as a deterministic phase on mode 2_L and the combined
    eta1+eta2 phase jitter as Gaussian dephasing of the same mode (equivalent
    placements, since each Kraus branch preserves photon-number difference).
    """
    rho = apply_loss(atomic, xi_left, 0)
    rho = apply_loss(rho, xi_right, 1)
    rho = apply_phase(rho, eta2, 0)
    return apply_phase_jitter(rho, phase_jitter_sigma, 0)


# ---------------------------------------------------------------------------
# single-ensemble nonclassical correlation check


@dataclass(frozen=True)
class FieldPairStats:
    """Joint field-1 / field-2 click statistics for one ensemble."""

    p1: float
    p2: float
    p12: float

    @property
    def g12(self) -> float | None:
        """p12 / (p1 p2); None where a field never clicks (p1 p2 = 0)."""
        return self.p12 / (self.p1 * self.p2) if self.p1 * self.p2 > 0.0 else None


def field_pair_statistics(
    ensemble: EnsembleParams,
    field1_efficiency: float = 1.0,
    field2_efficiency: float = 1.0,
    cutoff: int = 3,
) -> FieldPairStats:
    """Click statistics between the write field and the retrieved read field
    of a single ensemble; their normalized coincidence rate scales like
    1/chi, the standard signature of the pair-correlated source."""
    state = two_mode_squeezed(ensemble.chi, cutoff)
    rho = apply_loss(state, ensemble.xi, 1)
    weights = click_weights(rho.register, ((0,), (1,)), (field1_efficiency, field2_efficiency))
    diag = rho.probabilities()
    _, p01, p10, p11 = (float(w @ diag) for w in weights)  # np.ndindex order of (F1, F2) bits
    return FieldPairStats(p1=p11 + p10, p2=p11 + p01, p12=p11)
