"""Forward model of the two-ensemble heralded-entanglement experiment.

Write stage: each ensemble emits a pair-correlated (field-1, collective spin)
state with excitation probability chi.  The two field-1 modes interfere on an
asymmetric beam splitter and a click at one of the two heralding detectors
projects the joint spin state.  Read stage: the stored excitation is mapped
to field 2 with retrieval efficiency xi, propagates through the lossy
channel, and is analyzed either directly (diagonal layout) or behind a
relative phase shifter and a 50/50 beam splitter (fringe layout).

Mode overlap below one at the heralding beam splitter is modeled by splitting
the right-hand field-1 mode into a matched and an orthogonal component; the
orthogonal component still reaches the heralding detectors (through its own
beam-splitter port pair) but carries which-path information, so it heralds
without creating coherence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


@dataclass(frozen=True)
class EnsembleParams:
    """Per-ensemble knobs: write excitation probability and read-out efficiency."""

    chi: float
    xi: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.chi < 1.0:
            raise ValueError(f"chi must lie in [0, 1), got {self.chi}")
        if not 0.0 <= self.xi <= 1.0:
            raise ValueError(f"xi must lie in [0, 1], got {self.xi}")


@dataclass(frozen=True)
class InterferometerParams:
    """Phases, splitting ratio and mode overlap of the two interferometers.

    ``bs1_T`` is the transmittance of the heralding beam splitter for the
    right-hand field; ``overlap`` is the amplitude overlap between the two
    field-1 modes at that splitter; ``phase_jitter_sigma`` is the per-trial
    Gaussian spread of eta1 + eta2.
    """

    bs1_T: float = 0.5
    eta1: float = 0.0
    eta2: float = 0.0
    phi: float = 0.0
    overlap: float = 1.0
    phase_jitter_sigma: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.bs1_T <= 1.0:
            raise ValueError(f"bs1_T must lie in [0, 1], got {self.bs1_T}")
        if not 0.0 <= self.overlap <= 1.0:
            raise ValueError(f"overlap must lie in [0, 1], got {self.overlap}")
        if self.phase_jitter_sigma < 0.0:
            raise ValueError("phase_jitter_sigma must be nonnegative")


@dataclass(frozen=True)
class HeraldChoice:
    which: str = "D1a"
    exclusive: bool = True

    def __post_init__(self):
        if self.which not in ("D1a", "D1b"):
            raise ValueError(f"herald detector must be D1a or D1b, got {self.which}")


# mode layout of the write-stage register
MODE_1L, MODE_AL, MODE_1R, MODE_AR, MODE_ORTH_R, MODE_ORTH_L = range(6)


def write_stage(left: EnsembleParams, right: EnsembleParams, cutoff: int = 3, overlap: float = 1.0) -> PureState:
    """Joint state after the write pulses.

    Mode order is (1_L, a_L, 1_R, a_R) and, when overlap < 1, two extra
    orthogonal-polarization modes (orth_R carrying sqrt(1-overlap^2) of the
    right field, plus the vacuum port orth_L feeding the other side of the
    heralding splitter).
    """
    if cutoff < 2:
        raise ValueError("cutoff must be >= 2 for the write stage")
    if not 0.0 <= overlap <= 1.0:
        raise ValueError(f"overlap must lie in [0, 1], got {overlap}")
    state = two_mode_squeezed(left.chi, cutoff).tensor(two_mode_squeezed(right.chi, cutoff))
    if overlap < 1.0:
        anc = vacuum(ModeRegister(2, cutoff))
        state = state.tensor(anc)
        # field 1_R keeps amplitude `overlap`, the rest leaks into orth_R
        state = apply_beamsplitter(state, overlap**2, MODE_1R, MODE_ORTH_R)
    deficit = left.chi ** (cutoff + 1) + right.chi ** (cutoff + 1)
    return PureState(state.register, state.amplitudes, truncation_deficit=deficit)


def _interfere_field1(state: PureState, interferometer: InterferometerParams) -> tuple[PureState, tuple[int, ...], tuple[int, ...]]:
    """Apply eta1 and the heralding beam splitter; return the transformed
    state plus the mode groups monitored by D1a and D1b.

    D1a sits on the output port that transmits the right-hand field with
    amplitude sqrt(bs1_T).
    """
    has_ancilla = state.register.n_modes == 6
    out = apply_phase(state, interferometer.eta1, MODE_1L)
    out = apply_beamsplitter(out, interferometer.bs1_T, MODE_1R, MODE_1L)
    if has_ancilla:
        out = apply_beamsplitter(out, interferometer.bs1_T, MODE_ORTH_R, MODE_ORTH_L)
        return out, (MODE_1R, MODE_ORTH_R), (MODE_1L, MODE_ORTH_L)
    return out, (MODE_1R,), (MODE_1L,)


def herald_probabilities(
    state: PureState,
    interferometer: InterferometerParams,
    d1a_efficiency: float = 1.0,
    d1b_efficiency: float = 1.0,
) -> JointProbabilities:
    """Joint (D1a, D1b) click probabilities for the write-stage state."""
    mixed, d1a_modes, d1b_modes = _interfere_field1(state, interferometer)
    weights = click_weights(mixed.register, (d1a_modes, d1b_modes), (d1a_efficiency, d1b_efficiency))
    diag = mixed.probabilities()
    return JointProbabilities(("D1a", "D1b"), {pattern: float(w @ diag) for pattern, w in zip(np.ndindex(2, 2), weights)})


def herald(
    state: PureState,
    interferometer: InterferometerParams,
    choice: HeraldChoice = HeraldChoice(),
    d1a_efficiency: float = 1.0,
    d1b_efficiency: float = 1.0,
) -> tuple[DensityOperator, float]:
    """Condition on the chosen heralding event and return the joint spin state
    on (a_L, a_R) together with the herald probability per trial.

    The two heralding detectors cover every field-1 mode, so the spin state is
    the trace over those modes weighted by the event's click weights."""
    mixed, d1a_modes, d1b_modes = _interfere_field1(state, interferometer)
    register = mixed.register
    fields = sorted(d1a_modes + d1b_modes)
    groups = [[fields.index(mode) for mode in modes] for modes in (d1a_modes, d1b_modes)]
    weights = click_weights(ModeRegister(len(fields), register.cutoff), groups, (d1a_efficiency, d1b_efficiency))
    # rows where the chosen detector clicks, indexed by the other detector's bit
    clicked = np.moveaxis(weights.reshape(2, 2, -1), 0 if choice.which == "D1a" else 1, 0)[1]
    w = clicked[0] if choice.exclusive else clicked[0] + clicked[1]
    amplitudes = mixed.amplitudes.reshape((register.levels,) * register.n_modes)
    t = np.transpose(amplitudes, [MODE_AL, MODE_AR, *fields]).reshape(register.levels**2, -1)
    reduced = np.einsum("bt,t,ct->bc", t, w, t.conj())
    probability = float(np.trace(reduced).real)
    if probability < 1e-15:
        raise HeraldError(f"herald probability {probability:.3e} below 1e-15")
    return DensityOperator(ModeRegister(2, register.cutoff), reduced / probability, _skip_positivity=True), probability


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
    if phase_jitter_sigma > 0.0:
        rho = apply_phase_jitter(rho, phase_jitter_sigma, 0)
    return rho


# ---------------------------------------------------------------------------
# single-ensemble nonclassical correlation check


@dataclass(frozen=True)
class FieldPairStats:
    """Joint field-1 / field-2 click statistics for one ensemble."""

    p1: float
    p2: float
    p12: float

    @property
    def g12(self) -> float:
        return self.p12 / (self.p1 * self.p2)


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
