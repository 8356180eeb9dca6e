"""End-to-end experiment runs: write/herald/read, channel propagation to the
measurement bench, detector statistics for both analysis layouts, and
reproducible synthetic count generation.

All randomness derives from the single configured seed through named
substreams (one per layout, herald choice and phase point), so partial
re-runs reproduce the same records.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace

from .config import ChannelBudget, ExperimentConfig
from .detection import CountRecord, JointProbabilities, sample_counts
from .fock import DensityOperator, apply_loss
from .layouts import diagonal_layout_probabilities, fringe_layout_probabilities
from .protocol import (
    FieldPairStats,
    field_pair_statistics,
    herald,
    herald_probabilities,
    read_stage,
    write_stage,
)


def stream_id(label: str) -> int:
    """Stable 32-bit substream id for a purpose label."""
    return zlib.crc32(label.encode())


@dataclass(frozen=True)
class ExperimentResult:
    """States and probabilities of one heralded run of the experiment."""

    herald_which: str
    herald_probability: float
    herald_patterns: JointProbabilities
    atomic: DensityOperator
    z2: DensityOperator
    z1: DensityOperator
    z0: DensityOperator
    diagonal_probs: JointProbabilities
    fringe_probs: tuple[tuple[float, JointProbabilities], ...]


def full_experiment(config: ExperimentConfig, which: str | None = None) -> ExperimentResult:
    """Chain write -> herald -> read, propagate the conditional field state to
    the measurement bench, and evaluate both detector layouts.

    ``which`` overrides the configured herald detector (used for two-herald
    fringe scans).
    """
    choice = config.herald if which is None else replace(config.herald, which=which)
    state = write_stage(config.left, config.right, config.cutoff)
    patterns = herald_probabilities(state, config.interferometer, choice)
    atomic, p_herald = herald(state, config.interferometer, choice)
    z2 = read_stage(
        atomic,
        config.left.xi,
        config.right.xi,
        eta2=config.interferometer.eta2,
        phase_jitter_sigma=config.interferometer.phase_jitter_sigma,
    )
    rho_z1 = _propagate(z2, config.budget, "z2", "z1")
    rho_z0 = _propagate(rho_z1, config.budget, "z1", "z0")

    bench = config.detectors
    diag = diagonal_layout_probabilities(
        rho_z0, bench.eta_d2a, bench.eta_d2b, bench.eta_d2c, bench.split, bench.dark_prob
    )
    # the configured static analysis phase acts as a physical offset on top of
    # the scanned grid; records stay labeled by the set value, so a nonzero
    # offset shows up as the fitted fringe phase
    fringe = tuple(
        (
            phi,
            fringe_layout_probabilities(
                rho_z0,
                config.interferometer.phi + phi,
                bench.eta_d2a,
                bench.eta_d2b,
                bench.eta_d2c,
                bench.split,
                bench.bs2_T,
                bench.dark_prob,
            ),
        )
        for phi in config.fringe_phases
    )
    return ExperimentResult(
        herald_which=choice.which,
        herald_probability=p_herald,
        herald_patterns=patterns,
        atomic=atomic,
        z2=z2,
        z1=rho_z1,
        z0=rho_z0,
        diagonal_probs=diag,
        fringe_probs=fringe,
    )


def _propagate(rho: DensityOperator, budget: ChannelBudget, source: str, target: str) -> DensityOperator:
    """Attenuate both modes by the budget's transmission from plane ``source``
    down to plane ``target``."""
    for mode, side in enumerate("LR"):
        rho = apply_loss(rho, budget.segment(side, target, source)[0], mode)
    return rho


def sample_diagonal_records(result: ExperimentResult, trials: int, seed: int) -> CountRecord:
    return sample_counts(
        result.diagonal_probs,
        trials,
        seed,
        stream=stream_id(f"diag:{result.herald_which}"),
    )


def sample_fringe_records(result: ExperimentResult, trials: int, seed: int) -> list[CountRecord]:
    """One record per phase point, ``trials`` heralded events each."""
    records = []
    for k, (phi, probs) in enumerate(result.fringe_probs):
        records.append(
            sample_counts(
                probs,
                trials,
                seed,
                stream=stream_id(f"fringe:{result.herald_which}:{k}"),
                phase=phi,
            )
        )
    return records


def g12_report(config: ExperimentConfig) -> dict[str, FieldPairStats]:
    """Per-ensemble write/read field pair statistics at the detectors."""
    out = {}
    for label, ens in (("L", config.left), ("R", config.right)):
        out[label] = field_pair_statistics(
            ens,
            field1_efficiency=config.herald.d1a_efficiency,
            field2_efficiency=config.budget.total(label),
            cutoff=config.cutoff,
        )
    return out
