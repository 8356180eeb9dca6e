"""Reverse pipeline: from count records to the restricted density matrix.

Every count record is read through ``pattern_counts``.  Stage one inverts the
population layout's counts, summed into click classes, for the photon-number
diagonals; stage two fits the interference fringes for a visibility and
converts it into the single-excitation coherence, either with
the textbook relation |d| = V (p10 + p01) / 2 or by inverting the exact
fringe-layout forward model.  A joint maximum-likelihood fit over both
measurement configurations (Newton's method, numpy only) cross-checks it.

Every bench quantity here (class matrix, coherence slope, MLE elements) is read
off the simulator's own cached POVM through ``_bench_block``; the analysis phase
enters analytically.  Each is built once per bench (and, for the MLE, per record
count and phase grid) and kept in a bounded cache of read-only arrays.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from .config import UNIT_INTERVAL, config_block, param
from .detection import CountRecord, RecordIntegrityError, substream_rng
from .fock import DensityOperator, ModeRegister
from .layouts import D2_IDS, PATTERNS, bench_povm
from .layouts import diagonal_layout_probabilities, fringe_layout_probabilities  # noqa: F401 - bound here for the benchmark's layer tracer

TWO_PI = 2.0 * math.pi
P_TILDE_TOL = 1e-3
PSD_REL_TOL = 1e-9
ROUNDING_TOL = 1e-12  # a population this close to 0 is rounding residue: states read it as 0 when negative; the inversion and _read_block read it as 0 whatever its sign
CLAMP_SIGMA = 3.0  # negative diagonal estimates within this many sigma are clamped to zero

Q_CLASSES: tuple[tuple[int, int], ...] = ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2))
DIAG_KEYS = ("p00", "p01", "p10", "p11", "p02")

_REGISTER2 = ModeRegister(2, 2)  # the inversion works at the two-photon cutoff
# the two-photon block basis: the restricted block, then p02 and p20; its
# first five are the DIAG_KEYS, and each state's field is p<occupation>
_BLOCK_OCCS = ((0, 0), (0, 1), (1, 0), (1, 1), (0, 2), (2, 0))
_BLOCK_IDX = [_REGISTER2.index(occ) for occ in _BLOCK_OCCS]
_PATTERN_CLASS = [Q_CLASSES.index((a, b + c)) for a, b, c in PATTERNS]
_WITH_P00 = np.vstack([-np.ones(4), np.eye(4)])  # (p01, p10, p11, p02) -> all five, p00 = 1 - the others
# fringe arms per pattern: clicks at D2a, and clicks summed over the split pair
_ARM_WEIGHTS = np.array([[a for a, _, _ in PATTERNS], [b + c for _, b, c in PATTERNS]])


class DataQualityError(ValueError):
    """The data cannot support the requested fit (ill-posed or unphysical)."""


class InconsistentCountsError(ValueError):
    """Inverted populations are negative beyond statistical tolerance."""


class UnphysicalStateError(ValueError):
    """Restricted-state values outside the physical range."""


class MLEConvergenceError(RuntimeError):
    """The likelihood maximization did not converge; best iterate attached."""

    def __init__(self, message: str, best: "MLEResult"):
        super().__init__(message)
        self.best = best


def in_bench_order(record: CountRecord) -> CountRecord:
    """``record`` with its pattern bits in ``D2_IDS`` order, the order that
    ``pattern_counts`` reads them in by position."""
    ids = tuple(record.detector_ids)
    if ids == D2_IDS:
        return record
    if sorted(ids) != sorted(D2_IDS):
        raise RecordIntegrityError(f"record detectors {ids} are not {', '.join(D2_IDS)} in some order")
    order = [ids.index(detector) for detector in D2_IDS]
    tally = {tuple(pattern[k] for k in order): n for pattern, n in record.tally.items()}
    return CountRecord(D2_IDS, record.trials, tally, phase=record.phase, seed=record.seed)


def pattern_counts(records: Sequence[CountRecord]) -> np.ndarray:
    """The one readout of count records: one row per record, its counts per
    click pattern in ``PATTERNS`` order, read in bench order."""
    rows = [[record.tally.get(pattern, 0) for pattern in PATTERNS] for record in map(in_bench_order, records)]
    return np.array(rows, dtype=np.int64).reshape(-1, len(PATTERNS))


def _ordered_sum(terms: np.ndarray) -> np.ndarray:
    """The sum over the last axis, term by term in index order: an accumulation
    that no BLAS kernel reorders, so a sum of probabilities has one value."""
    return np.cumsum(terms, axis=-1)[..., -1]


def arm_clicks(per_pattern: np.ndarray) -> np.ndarray:
    """The two fringe arms of counts or probabilities given per pattern on the
    last axis: clicks at D2a, and clicks summed over the split pair, each an
    ``_ordered_sum`` in ``PATTERNS`` order."""
    return _ordered_sum(per_pattern[..., None, :] * _ARM_WEIGHTS)


# ---------------------------------------------------------------------------
# core result types


@config_block()
class EfficiencyModel:
    """Path efficiencies to the detectors, detector efficiencies, and the
    splitting ratios of the analysis optics."""

    eta_l: float = param(1.0, **UNIT_INTERVAL)
    eta_r: float = param(1.0, **UNIT_INTERVAL)
    eta_1: float = param(1.0, **UNIT_INTERVAL)
    eta_2: float = param(1.0, **UNIT_INTERVAL)
    eta_3: float = param(1.0, **UNIT_INTERVAL)
    split: float = param(0.5, **UNIT_INTERVAL)
    bs2_T: float = param(0.5, **UNIT_INTERVAL)

    @property
    def d2a(self) -> float:
        return self.eta_l * self.eta_1

    @property
    def d2b(self) -> float:
        return self.eta_r * self.eta_2

    @property
    def d2c(self) -> float:
        return self.eta_r * self.eta_3

    def as_dict(self) -> dict[str, float]:
        return asdict(self)


@dataclass(frozen=True)
class RestrictedDensity:
    """The at-most-one-photon-per-mode block of the two-mode field state.

    Populations are stored unnormalized; their sum is the retained
    probability P~.  ``d`` is the coherence between |0,1> and |1,0>;
    reports use |d| (its global phase is unobservable in the two layouts),
    the complex value is kept internally.  ``sigmas`` are keyed by field
    name (``p00`` ... ``p11``, ``p02``, ``d``).
    """

    p00: float
    p01: float
    p10: float
    p11: float
    d: complex = 0.0
    p02: float | None = None
    p20: float | None = None
    sigmas: Mapping[str, float] = field(default_factory=dict)
    flags: tuple[str, ...] = ()

    def __post_init__(self):
        if not set(self.sigmas) <= {*DIAG_KEYS, "p20", "d"}:
            raise ValueError(f"sigmas are keyed by field name, got {sorted(self.sigmas)}")
        for name in DIAG_KEYS[:4]:
            v = getattr(self, name)
            if v < -ROUNDING_TOL:
                raise UnphysicalStateError(f"{name} = {v} is negative")
            if v < 0.0:
                object.__setattr__(self, name, 0.0)
        if not 0.0 < self.p_tilde <= 1.0 + P_TILDE_TOL:
            raise UnphysicalStateError(f"retained probability {self.p_tilde} outside (0, 1]")
        bound = math.sqrt(self.p01 * self.p10)
        if not abs(self.d) <= bound + PSD_REL_TOL + 1e-12:  # NaN included
            raise UnphysicalStateError(
                f"|d| = {abs(self.d):.3e} exceeds positivity bound sqrt(p01 p10) = {bound:.3e}"
            )

    @classmethod
    def clamped(
        cls, p00: float, p01: float, p10: float, p11: float, d_abs: float, phase: float = 0.0, flags: Sequence[str] = (), **extras
    ) -> "RestrictedDensity":
        """The state with coherence ``d_abs`` e^(i phase), |d| clamped to the
        positivity bound sqrt(p01 p10) and flagged ``coherence_clamped``
        (once) where it exceeds it."""
        if not 0.0 <= d_abs < math.inf:
            raise UnphysicalStateError(f"|d| = {d_abs} is negative or not finite")
        bound = math.sqrt(max(p01 * p10, 0.0))
        if d_abs > bound:
            d_abs, flags = bound, (*flags, "coherence_clamped")
        return cls(p00, p01, p10, p11, d=d_abs * np.exp(1j * phase), flags=tuple(dict.fromkeys(flags)), **extras)

    @property
    def p_tilde(self) -> float:
        return self.p00 + self.p01 + self.p10 + self.p11

    @property
    def d_abs(self) -> float:
        return abs(self.d)

    def as_dict(self) -> dict[str, object]:
        out: dict[str, object] = {
            "p00": self.p00,
            "p01": self.p01,
            "p10": self.p10,
            "p11": self.p11,
            "d_abs": self.d_abs,
            "p_tilde": self.p_tilde,
        }
        if self.p02 is not None:
            out["p02"] = self.p02
        if self.p20 is not None:
            out["p20"] = self.p20
        if self.sigmas:
            out["sigmas"] = {f"sigma_{name}": v for name, v in self.sigmas.items()}
        if self.flags:
            out["flags"] = list(self.flags)
        return out


def restrict(rho: DensityOperator) -> RestrictedDensity:
    """Project a two-mode state onto the one-photon-per-mode block.

    The block populations keep their raw weight, so p_tilde is the retained
    probability; p02/p20 are reported alongside when the cutoff resolves
    them.
    """
    register = rho.register
    if register.n_modes != 2:
        raise ValueError("restrict expects a two-mode state")
    idx = [register.index(occ) for occ in _BLOCK_OCCS[: 6 if register.cutoff >= 2 else 4]]
    return _read_block(rho.matrix[np.ix_(idx, idx)])


def _read_block(block: np.ndarray) -> RestrictedDensity:
    """The restricted state of a matrix on the first 4 or all 6 ``_BLOCK_OCCS`` states;
    a population within ``ROUNDING_TOL`` of 0 reads 0."""
    p00, p01, p10, p11, *two_photon = (0.0 if abs(p) < ROUNDING_TOL else p for p in np.diagonal(block).real.tolist())
    d = complex(block[1, 2])
    if p00 + p01 + p10 + p11 <= 0.0:
        raise ValueError("state has no weight on the restricted block")
    # numerical safety: the block of a positive matrix is positive, but
    # rounding can push |d| over the bound by ~1e-16
    bound = math.sqrt(max(p01 * p10, 0.0))
    if abs(d) > bound:
        d = d * (bound / abs(d))
    return RestrictedDensity(p00=p00, p01=p01, p10=p10, p11=p11, d=d, **dict(zip(("p02", "p20"), two_photon)))


# ---------------------------------------------------------------------------
# stage one: diagonal inversion


@dataclass(frozen=True)
class AggregatedCounts:
    """Counts in the aggregated classes (m, n): m clicks at D2a (0/1) and n
    detectors fired in the split pair (0/1/2)."""

    counts: Mapping[tuple[int, int], int]
    trials: int

    @classmethod
    def from_record(cls, record: CountRecord) -> "AggregatedCounts":
        counts = np.zeros(len(Q_CLASSES), dtype=np.int64)
        np.add.at(counts, _PATTERN_CLASS, pattern_counts([record])[0])  # integer sums: exact up to MAX_TRIALS
        return cls(counts=dict(zip(Q_CLASSES, counts.tolist())), trials=record.trials)

    def frequencies(self) -> np.ndarray:
        return np.array([self.counts.get(cls_, 0) / self.trials for cls_ in Q_CLASSES])


@dataclass(frozen=True)
class DiagonalEstimate:
    values: Mapping[str, float]
    sigmas: Mapping[str, float]
    covariance: np.ndarray  # over DIAG_KEYS order
    flags: tuple[str, ...]
    trials: int
    chi2: float
    bootstrap_sigmas: Mapping[str, float] | None = None

    def __getitem__(self, key: str) -> float:
        return self.values[key]


def _bench_block(eff: EfficiencyModel, bs2_T: float) -> np.ndarray:
    """The bench's POVM on the two-photon block basis, one element per pattern, its recombiner
    transmitting ``bs2_T`` at phase 0 (1.0: the population layout); the inverse reads it at cutoff 2, no dark counts."""
    povm = bench_povm(2, eff.d2a, eff.d2b, eff.d2c, eff.split, bs2_T, 0.0)
    return povm[np.ix_(range(len(PATTERNS)), _BLOCK_IDX, _BLOCK_IDX)]


def _wls(design: np.ndarray, y: np.ndarray, sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray, float, np.ndarray]:
    """Least squares of y = design @ x with independent errors ``sigma``, whitened by them: the
    estimate, its covariance, chi^2 and the solve operator (the covariance times the whitened
    design^T), which maps whitened data y / sigma to the estimate.  The whitened normal matrix
    is inverted, not factored by QR, so that an exactly singular design raises ``LinAlgError``;
    one refinement step on the residual makes the estimate exact to rounding where the weights
    span ten decades (an empty class, floored at 0.5/n)."""
    whitened, data = design / sigma[:, None], y / sigma
    cov = np.linalg.inv(whitened.T @ whitened)
    solve = cov @ whitened.T
    x = solve @ data
    x += solve @ (data - whitened @ x)
    return x, cov, float(np.sum((data - whitened @ x) ** 2)), solve


@lru_cache(maxsize=64)
def forward_class_matrix(eff: EfficiencyModel) -> np.ndarray:
    """Read-only map from the diagonal populations (p00, p01, p10, p11, p02)
    to the aggregated class probabilities: the population POVM's diagonal on
    those basis states, summed over the patterns of each class."""
    out = np.zeros((len(Q_CLASSES), len(DIAG_KEYS)))  # shape (6 classes, 5 populations)
    np.add.at(out, _PATTERN_CLASS, np.diagonal(_bench_block(eff, 1.0), axis1=1, axis2=2).real[:, : len(DIAG_KEYS)])
    out.setflags(write=False)
    return out


def invert_diagonal(
    aggregated: AggregatedCounts,
    eff: EfficiencyModel,
    bootstrap: int = 0,
    seed: int = 0,
) -> DiagonalEstimate:
    """Solve the detection forward map for the diagonal elements.

    Generalized least squares on the class frequencies with the multinomial
    covariance, as one ``_wls`` fit over all six classes, with the
    normalization constraint enforced through p00 = 1 - (p01 + p10 + p11 + p02).
    Uncertainties come from the GLS covariance; ``bootstrap`` > 0 adds a
    resampling cross-check.  Estimates below -``CLAMP_SIGMA`` standard
    deviations raise; small negatives within noise, and rounding residue
    below ``ROUNDING_TOL``, are clamped to zero and flagged.
    """
    q = aggregated.frequencies()
    n = aggregated.trials
    if np.any(q < 0) or q.sum() > 1 + 1e-9:
        raise InconsistentCountsError("class frequencies outside the simplex")
    m = forward_class_matrix(eff)

    # substitute p00 = 1 - sum(others).  Each class has variance q/n, floored at 0.5/n, and the
    # most populated class 1 - the others': the residuals sum to zero, so this is the GLS with
    # that class dropped and the multinomial covariance of the others
    top, q_floor = np.argmax(q), np.clip(q, 0.5 / n, None)
    q_floor[top] = 1.0 - np.delete(q_floor, top).sum()
    if not q_floor[top] > 0.0:
        raise DataQualityError(f"{n} trials are too few: the floored class frequencies leave no variance")
    sigma = np.sqrt(q_floor / n)
    try:
        x, cov_x, chi2, solve = _wls(m[:, 1:] - m[:, [0]], q - m[:, 0], sigma)
    except np.linalg.LinAlgError as exc:
        raise DataQualityError(f"degenerate population design at split = {eff.split:g}: the classes do not fix every diagonal") from exc

    cov_full = _WITH_P00 @ cov_x @ _WITH_P00.T

    values = dict(zip(DIAG_KEYS, [float(1.0 - x.sum()), *x.tolist()]))
    sigmas = {key: float(math.sqrt(max(cov_full[i, i], 0.0))) for i, key in enumerate(DIAG_KEYS)}

    flags: list[str] = []
    for key in DIAG_KEYS:
        if values[key] < ROUNDING_TOL:  # a boundary estimate reads 0 whatever the sign of its rounding residue
            if values[key] < -CLAMP_SIGMA * max(sigmas[key], 1e-300):
                raise InconsistentCountsError(
                    f"{key} = {values[key]:.3e} below -{CLAMP_SIGMA} sigma ({sigmas[key]:.3e})"
                )
            values[key] = 0.0
            flags.append(f"clamped_{key}")

    boot_sigmas = None
    if bootstrap > 0:
        rng = substream_rng(seed, stream=0x626F6F74)
        pvals = np.clip(q, 0.0, None)
        pvals = pvals / pvals.sum()
        # one size= draw is the stream of one draw per replicate, empty classes included
        qb = rng.multinomial(n, pvals, size=bootstrap) / n
        # one matrix-vector product through the solve operator per replicate
        xb = (solve @ ((qb - m[:, 0]) / sigma)[..., None])[..., 0]
        samples = np.column_stack([1.0 - xb.sum(axis=1), xb])
        boot_sigmas = dict(zip(DIAG_KEYS, np.std(samples, axis=0, ddof=1).tolist()))

    return DiagonalEstimate(values=values, sigmas=sigmas, covariance=cov_full, flags=tuple(flags), trials=n, chi2=chi2, bootstrap_sigmas=boot_sigmas)


# ---------------------------------------------------------------------------
# stage two: fringe fit and coherence


@dataclass(frozen=True)
class FringeScan:
    """Per-phase count records of the fringe layout (detectors D2a, D2b, D2c)."""

    records: Sequence[CountRecord]

    def __post_init__(self):
        object.__setattr__(self, "records", tuple(self.records))
        phases = [r.phase for r in self.records]
        if any(p is None for p in phases):
            raise DataQualityError("every fringe record needs a phase")
        distinct = sorted(set(float(p) for p in phases))
        if len(distinct) < 5:
            raise DataQualityError(f"need >= 5 distinct phases, got {len(distinct)}")
        if distinct[-1] - distinct[0] < TWO_PI - 1e-9:
            raise DataQualityError("phase scan must span at least 2 pi")

    def arm_data(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(phases, values, sigmas), values and sigmas with one row per arm of
        ``arm_clicks``: the click fraction y at D2a, whose variance per trial
        is y (1 - y), and the mean clicks per trial summed over the split
        pair, whose variance is the second moment less y^2; each floored at 1/n."""
        counts = pattern_counts(self.records)
        n = counts.sum(axis=1)
        y_a, y_bc = arm_clicks(counts).T / n
        second_bc = counts @ _ARM_WEIGHTS[1] ** 2 / n
        var = np.array([y_a * (1.0 - y_a), second_bc - y_bc * y_bc])
        phis = np.array([float(record.phase) for record in self.records])
        return phis, np.array([y_a, y_bc]), np.sqrt(np.maximum(var, 1.0 / n) / n)


@dataclass(frozen=True)
class ArmFit:
    amplitude: float
    visibility: float
    phase0: float
    sigma_visibility: float
    sigma_phase0: float
    chi2: float
    dof: int


@dataclass(frozen=True)
class FringeFit:
    arms: Mapping[str, ArmFit]
    visibility: float
    sigma_visibility: float
    phase0: float

    def as_dict(self) -> dict[str, object]:
        return {
            "visibility": self.visibility,
            "sigma_visibility": self.sigma_visibility,
            "phase0": self.phase0,
            "arms": {
                k: {
                    "amplitude": a.amplitude,
                    "visibility": a.visibility,
                    "phase0": a.phase0,
                    "sigma_visibility": a.sigma_visibility,
                }
                for k, a in self.arms.items()
            },
        }


def _fit_single_arm(phis: np.ndarray, ys: np.ndarray, sigmas: np.ndarray) -> ArmFit:
    """Weighted linear least squares of y = A + B cos(phi) + C sin(phi).

    The fringe model A (1 + V cos(phi - phi0)) is linear in (A, B, C) with
    B = A V cos(phi0), C = A V sin(phi0), so the fit needs no iteration and
    uncertainty propagation is the delta method on the linear covariance.
    """
    design = np.column_stack([np.ones_like(phis), np.cos(phis), np.sin(phis)])
    try:
        (a0, b0, c0), cov, chi2, _ = _wls(design, ys, sigmas)
    except np.linalg.LinAlgError as exc:
        raise DataQualityError("degenerate fringe design matrix") from exc
    if a0 <= 0.0:
        raise DataQualityError("fitted fringe baseline is not positive")
    amp = math.hypot(b0, c0)
    visibility = amp / a0
    phase0 = math.atan2(c0, b0)
    # delta method
    if amp > 0.0:
        grad_v = np.array([-visibility / a0, b0 / (amp * a0), c0 / (amp * a0)])
        grad_p = np.array([0.0, -c0 / amp**2, b0 / amp**2])
    else:
        grad_v = np.array([0.0, 1.0 / a0, 1.0 / a0])
        grad_p = np.zeros(3)
    sigma_v = math.sqrt(max(grad_v @ cov @ grad_v, 0.0))
    sigma_p = math.sqrt(max(grad_p @ cov @ grad_p, 0.0))
    return ArmFit(
        amplitude=float(a0),
        visibility=float(visibility),
        phase0=float(phase0),
        sigma_visibility=float(sigma_v),
        sigma_phase0={True: float(sigma_p), False: float("inf")}[amp > 0.0],
        chi2=chi2,
        dof=len(phis) - 3,
    )


def fit_fringe(scan: FringeScan) -> FringeFit:
    """Fit both arms and report the arm-averaged visibility.

    The two arms oscillate in antiphase; the quoted phase offset is the D2a
    arm's.  A visibility exceeding 1 by more than 3 sigma is rejected as a
    data-quality failure.
    """
    phis, ys, sigmas = scan.arm_data()
    arm_a, arm_bc = (_fit_single_arm(phis, y, sigma) for y, sigma in zip(ys, sigmas))
    visibility = 0.5 * (arm_a.visibility + arm_bc.visibility)
    sigma = 0.5 * math.hypot(arm_a.sigma_visibility, arm_bc.sigma_visibility)
    if visibility > 1.0 + 3.0 * sigma:
        raise DataQualityError(f"visibility {visibility:.3f} exceeds 1 beyond 3 sigma")
    return FringeFit(
        arms={"2a": arm_a, "2bc": arm_bc},
        visibility=float(visibility),
        sigma_visibility=float(sigma),
        phase0=arm_a.phase0,
    )


def coherence_from_visibility(visibility: float, p10: float, p01: float) -> float:
    """The textbook |d| = V (p10 + p01) / 2: 50/50 splitters, no two-photon terms."""
    return visibility * (p10 + p01) / 2.0


@dataclass(frozen=True)
class CoherenceEstimate:
    d_abs: float
    sigma: float
    mode: str
    flags: tuple[str, ...] = ()


@lru_cache(maxsize=64)
def _fringe_arms(eff: EfficiencyModel) -> tuple[np.ndarray, np.ndarray]:
    """Per fringe arm at phase 0: the POVM diagonal on the DIAG_KEYS states and |<0,1|E|1,0>|."""
    arms = np.einsum("ap,pij->aij", _ARM_WEIGHTS, _bench_block(eff, eff.bs2_T))
    populations, coupling = np.diagonal(arms, axis1=1, axis2=2).real[:, : len(DIAG_KEYS)], np.abs(arms[:, 1, 2])
    populations.setflags(write=False)
    coupling.setflags(write=False)
    return populations, coupling


def _model_visibility_slope(diagonals: Mapping[str, float], eff: EfficiencyModel) -> tuple[float, list[float]]:
    """s = d(V_avg)/d(|d|) of the exact fringe forward model at fixed
    diagonals, and its partials in the populations ``DIAG_KEYS[1:]``.

    For a real coherence d between |0,1> and |1,0> each arm reads
    base + 2 d |e| cos(phi + arg e), where base contracts the arm's POVM
    diagonal P with the populations (p00 = 1 - the others) and e is the arm's
    <0,1|E|1,0> at phase 0; so V_arm = 2 d |e| / base, and V_avg / d is the
    sum over arms of |e| / base.  Hence ds/dp_k = -sum over arms of
    |e| (P_k - P_00) / base^2, and 0 for a population clamped at 0.
    """
    if not diagonals.get("p01", 0.0) * diagonals.get("p10", 0.0) > 0.0:
        raise DataQualityError("model slope undefined: p01 p10 = 0")
    raw = [float(diagonals.get(key, 0.0)) for key in DIAG_KEYS[1:]]
    pops = [max(v, 0.0) for v in raw]
    pops = np.array([1.0 - sum(pops), *pops])
    populations, coupling = _fringe_arms(eff)
    base = _ordered_sum(populations * pops)
    slope = float(np.sum(coupling / base))
    if not slope > 0.0:
        raise DataQualityError(f"model slope undefined: the fringe arms do not interfere at bs2_T = {eff.bs2_T:g}")
    arms = [(c / (b * b), row) for c, b, row in zip(coupling.tolist(), base.tolist(), populations.tolist())]
    partials = [0.0 if v < 0.0 else -sum(w * (row[k] - row[0]) for w, row in arms) for k, v in enumerate(raw, start=1)]
    return slope, partials


def estimate_coherence(
    visibility: float,
    diagonals: DiagonalEstimate,
    eff: EfficiencyModel,
    mode: str,
    sigma_visibility: float = 0.0,
) -> CoherenceEstimate:
    """Convert a fringe visibility into the coherence magnitude |d|.

    ``simplified`` uses |d| = V (p10 + p01) / 2, valid for 50/50 splitters and
    negligible two-photon terms; ``full`` inverts the exact fringe-layout
    forward model (including p11/p02 and unbalanced splitters).  A result
    exceeding the positivity bound sqrt(p01 p10) by more than 3 sigma is
    flagged.
    """
    p01, p10, sigmas = diagonals["p01"], diagonals["p10"], diagonals.sigmas

    if mode == "simplified":
        d_abs = coherence_from_visibility(visibility, p10, p01)
        var = ((p10 + p01) / 2.0 * sigma_visibility) ** 2 + (visibility / 2.0) ** 2 * (sigmas["p01"] ** 2 + sigmas["p10"] ** 2)
        sigma = math.sqrt(var)
    elif mode == "full":
        slope, slope_partials = _model_visibility_slope(diagonals.values, eff)
        d_abs = visibility / slope
        var = (sigma_visibility / slope) ** 2
        # |d| = V / s, so d|d|/dp_k = -(|d| / s) ds/dp_k
        for key, partial in zip(DIAG_KEYS[1:], slope_partials):
            var += (d_abs / slope * partial * sigmas[key]) ** 2
        sigma = math.sqrt(var)
    else:
        raise ValueError(f"unknown coherence mode {mode!r}")

    flags: tuple[str, ...] = ()
    bound = math.sqrt(p01 * p10)
    if d_abs > bound + 3.0 * max(sigma, 0.0):
        flags = ("positivity_violation",)
    return CoherenceEstimate(d_abs=float(d_abs), sigma=float(sigma), mode=mode, flags=flags)


# ---------------------------------------------------------------------------
# assembling the two-stage result


def assemble_restricted(
    diag: DiagonalEstimate,
    coherence: CoherenceEstimate,
    phase: float = 0.0,
) -> RestrictedDensity:
    """Combine stage-one and stage-two output into a RestrictedDensity,
    the coherence clamped into the positivity cone (``RestrictedDensity.clamped``)."""
    return RestrictedDensity.clamped(
        *(diag[key] for key in DIAG_KEYS[:4]),
        coherence.d_abs,
        phase,
        diag.flags + coherence.flags,
        p02=diag["p02"],
        sigmas={**diag.sigmas, "d": coherence.sigma},
    )


# ---------------------------------------------------------------------------
# maximum-likelihood fit


@dataclass(frozen=True)
class MLEOptions:
    max_iterations: int = 500
    # stop once the Newton step's predicted gain in log L (half the squared
    # Newton decrement) is at most tol * max(|log L|, 1)
    tol: float = 1e-10
    # positivity is enforced by fitting a lower-triangular factor G of the
    # block-diagonal two-photon form and taking rho = G G+ / Tr(G G+)


@dataclass(frozen=True)
class MLEResult:
    block: np.ndarray
    restricted: RestrictedDensity
    log_likelihood: float
    n_iterations: int
    converged: bool
    history: tuple[float, ...]


_BLOCK_NL = np.array([n_l for n_l, _ in _BLOCK_OCCS])
# the 14 free parameters of the factor G: (row, column, imaginary part?) each;
# the diagonal is real, and the lower triangle couples only states of equal
# total photon number
_FACTOR_ENTRIES = (
    (0, 0, False), (1, 1, False), (2, 2, False), (2, 1, False), (2, 1, True), (3, 3, False), (4, 4, False),
    (5, 5, False), (4, 3, False), (4, 3, True), (5, 3, False), (5, 3, True), (5, 4, False), (5, 4, True),
)
_FACTOR_ROWS, _FACTOR_COLS, _FACTOR_IMAG = (np.array(column) for column in zip(*_FACTOR_ENTRIES))
# G = sum_i x_i phase_i |row_i><col_i|, so Tr(E G G+) = x^T A x with
# A_ij = Re(phase_i conj(phase_j) E[row_j, row_i]) for col_i == col_j, else 0
_FACTOR_PHASE = np.where(_FACTOR_IMAG, 1j, 1.0)
_FORM_KERNEL = np.outer(_FACTOR_PHASE, _FACTOR_PHASE.conj()) * (_FACTOR_COLS[:, None] == _FACTOR_COLS[None, :])
_STEP_SCALES = [0.5**k for k in range(40)]  # backtracking line search
_EYE = np.eye(len(_FACTOR_ENTRIES))


def _params_to_factor(x: np.ndarray) -> np.ndarray:
    g = np.zeros((6, 6), dtype=complex)
    np.add.at(g, (_FACTOR_ROWS, _FACTOR_COLS), np.where(_FACTOR_IMAG, 1j * x, x))
    return g


def _factor_to_params(g: np.ndarray) -> np.ndarray:
    entries = g[_FACTOR_ROWS, _FACTOR_COLS]
    return np.where(_FACTOR_IMAG, entries.imag, entries.real)


def _factor_to_rho(x: np.ndarray) -> np.ndarray:
    # rho = G G+ / Tr(G G+) with lower-triangular G: exactly the Cholesky
    # parameterization of the positive cone
    g = _params_to_factor(x)
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _ll_derivatives(x: np.ndarray, forms: np.ndarray, counts: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """L, its gradient and its Hessian in the factor parameters.

    With q_k = x^T A_k x, t = x^T x and N = sum n_k, L = sum n_k log(q_k / t)
    has gradient 2 sum n_k u_k - 2 N x / t, where u_k = A_k x / q_k, and
    Hessian 2 sum n_k (A_k / q_k - 2 u_k u_k^T) - 2 N (I / t - 2 x x^T / t^2).
    An element with q_k = 0 is identically zero on the block and adds only
    the constant n_k log(1e-300) to L, as in ``log_likelihood``.
    """
    ax, t, n_total = forms @ x, x @ x, counts.sum()
    q = ax @ x
    inv_q = np.divide(1.0, q, out=np.zeros_like(q), where=q > 0)
    u = ax * inv_q[:, None]
    ll = float(counts @ np.log(np.clip(q / t, 1e-300, None)))
    grad = 2.0 * (counts @ u) - 2.0 * n_total / t * x
    hess = (
        2.0 * np.einsum("k,kij->ij", counts * inv_q, forms)
        - 4.0 * (u.T * counts) @ u
        - 2.0 * n_total / t * (_EYE - 2.0 * np.outer(x, x) / t)
    )
    return ll, grad, hess


def _tangent_basis(x: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the plane normal to the unit vector x (a Householder reflection)."""
    v = x.copy()
    v[0] += math.copysign(1.0, x[0])
    return (_EYE - 2.0 * np.outer(v, v) / (v @ v))[:, 1:]


@lru_cache(maxsize=4)  # about 0.25 MB an entry at 1 + 13 records
def _mle_elements(eff: EfficiencyModel, n_diag: int, phis: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray]:
    """POVM elements E_k on the block basis, one per record and pattern in
    ``PATTERNS`` order (``n_diag`` population records, then one fringe record
    per phase), and the real symmetric A_k with Tr(E_k G G+) = x^T A_k x in
    the factor parameters x."""
    diag = np.broadcast_to(_bench_block(eff, 1.0), (n_diag, len(PATTERNS), 6, 6))
    rotation = np.exp(-1j * np.array(phis)[:, None, None] * (_BLOCK_NL[:, None] - _BLOCK_NL[None, :]))
    fringe = _bench_block(eff, eff.bs2_T)[None, :, :, :] * rotation[:, None, :, :]
    elements = np.concatenate([diag, fringe]).reshape(-1, 6, 6)
    forms = np.ascontiguousarray((elements[:, _FACTOR_ROWS[None, :], _FACTOR_ROWS[:, None]] * _FORM_KERNEL).real)
    elements.setflags(write=False)
    forms.setflags(write=False)
    return elements, forms


def _collect_mle_data(
    diag_records: Sequence[CountRecord],
    fringe_records: Sequence[CountRecord],
    eff: EfficiencyModel,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_mle_elements`` of the records' bench and phases, and the counts
    stacked in the same order across both configurations."""
    if not diag_records and not fringe_records:
        raise ValueError("maximum-likelihood fit needs at least one record")
    phis = tuple(float(record.phase) for record in fringe_records)
    elements, forms = _mle_elements(eff, len(diag_records), phis)
    return elements, forms, pattern_counts([*diag_records, *fringe_records]).reshape(-1)


def log_likelihood(
    rho_block: np.ndarray,
    diag_records: Sequence[CountRecord],
    fringe_records: Sequence[CountRecord],
    eff: EfficiencyModel,
) -> float:
    """Multinomial log likelihood of a block-form state given the records."""
    elements, _, counts = _collect_mle_data(diag_records, fringe_records, eff)
    probs = np.real(np.einsum("kij,ji->k", elements, rho_block))
    mask = counts > 0
    return float(np.sum(counts[mask] * np.log(np.clip(probs[mask], 1e-300, None))))


def two_stage_block(restricted: RestrictedDensity) -> np.ndarray:
    """Embed a two-stage estimate in the 6-dim block basis (e, f, g = 0)."""
    populations = (getattr(restricted, f"p{n_l}{n_r}") for n_l, n_r in _BLOCK_OCCS)
    rho = np.diag([0.0 if p is None else p for p in populations]).astype(complex)
    rho[1, 2] = restricted.d
    rho[2, 1] = np.conj(restricted.d)
    total = np.trace(rho).real
    if total <= 0:
        raise ValueError("two-stage estimate has no probability weight")
    return rho / total


def mle_fit(
    diag_records: Sequence[CountRecord],
    fringe_records: Sequence[CountRecord],
    eff: EfficiencyModel,
    options: MLEOptions = MLEOptions(),
    *,
    initial: RestrictedDensity,
) -> MLEResult:
    """Joint maximum-likelihood fit of the two-photon block form.

    Positivity and unit trace are enforced through the factorization
    rho = G G+ / Tr(G G+).  Log L, a ratio of quadratic forms in the entries
    x of G, is maximised from the two-stage estimate ``initial`` by Newton
    ascent on the sphere |x| = 1 with its closed-form gradient and Hessian; a
    tangent Hessian that is not negative definite is shifted until it is, and
    each step is halved until log L does not fall.  ``history`` holds log L at
    the start and at each accepted iterate; ``block`` is the fitted state on
    the ``_BLOCK_OCCS`` basis.
    """
    _, forms, counts = _collect_mle_data(diag_records, fringe_records, eff)
    mask = counts > 0
    if not mask.any():
        raise ValueError("records contain no events")
    forms, counts = forms[mask], counts[mask].astype(float)

    # Cholesky of a strictly positive seed gives a well-conditioned start
    seed_block = two_stage_block(initial) + 1e-6 * np.eye(6)
    seed_block /= np.trace(seed_block).real
    x = _factor_to_params(np.linalg.cholesky(seed_block))
    x /= np.linalg.norm(x)

    ll, grad, hess = _ll_derivatives(x, forms, counts)
    history = [ll]
    converged = False
    for _ in range(options.max_iterations):
        basis = _tangent_basis(x)
        curvature, axes = np.linalg.eigh(-basis.T @ hess @ basis)
        if curvature[0] <= 0.0:
            curvature = curvature - 2.0 * curvature[0] + 1e-12 * abs(curvature[-1])
        along = (axes.T @ (basis.T @ grad)) / curvature
        step = basis @ (axes @ along)
        converged = 0.5 * float(along @ (curvature * along)) <= options.tol * max(abs(ll), 1.0)
        # once converged, the full step is still taken unless it lowers L
        for scale in _STEP_SCALES[:1] if converged else _STEP_SCALES:
            trial = x + scale * step
            trial /= np.linalg.norm(trial)
            derivatives = _ll_derivatives(trial, forms, counts)
            if derivatives[0] >= ll:
                x, (ll, grad, hess) = trial, derivatives
                history.append(ll)
                break
        else:
            break  # converged, or no ascent left at the precision of L
        if converged:
            break

    block = _factor_to_rho(x)
    mle = MLEResult(
        block=block,
        restricted=_read_block(block),
        log_likelihood=ll,
        n_iterations=len(history) - 1,
        converged=converged,
        history=tuple(history),
    )
    if not converged and mle.n_iterations >= options.max_iterations:
        raise MLEConvergenceError(f"no convergence after {mle.n_iterations} iterations", mle)
    return mle
