"""Reverse pipeline: from count records to the restricted density matrix.

Stage one inverts the aggregated click classes of the population layout for
the photon-number diagonals; stage two fits the interference fringes for a
visibility and converts it into the single-excitation coherence, either with
the textbook relation |d| = V (p10 + p01) / 2 or by inverting the exact
fringe-layout forward model.  A joint maximum-likelihood fit over both
measurement configurations provides an independent cross-check.

Every bench quantity here (class matrix, coherence slope, MLE elements) is
read off the simulator's own cached POVM, ``layouts.bench_povm``, at the
two-photon cutoff; the analysis phase enters analytically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .detection import CountRecord, aggregate_split_detector, substream_rng
from .fock import DensityOperator, ModeRegister
from .layouts import PATTERNS, SPLIT_PAIR, bench_povm
from .layouts import diagonal_layout_probabilities, fringe_layout_probabilities  # noqa: F401 - bound here for the benchmark's layer tracer

TWO_PI = 2.0 * math.pi
P_TILDE_TOL = 1e-3
PSD_REL_TOL = 1e-9

Q_CLASSES: tuple[tuple[int, int], ...] = ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2))
DIAG_KEYS = ("p00", "p01", "p10", "p11", "p02")

_REGISTER2 = ModeRegister(2, 2)  # the inversion works at the two-photon cutoff
_DIAG_IDX = [_REGISTER2.index(occ) for occ in ((0, 0), (0, 1), (1, 0), (1, 1), (0, 2))]  # DIAG_KEYS order
_I01, _I10 = _REGISTER2.index((0, 1)), _REGISTER2.index((1, 0))
_PATTERN_CLASS = [Q_CLASSES.index((a, b + c)) for a, b, c in PATTERNS]
# fringe arms per pattern: clicks at D2a, and clicks summed over the split pair
_ARM_WEIGHTS = np.array([[a for a, _, _ in PATTERNS], [b + c for _, b, c in PATTERNS]], dtype=float)


class DataQualityError(ValueError):
    """The data cannot support the requested fit (ill-posed or unphysical)."""


class InconsistentCountsError(ValueError):
    """Inverted populations are negative beyond statistical tolerance."""


class MLEConvergenceError(RuntimeError):
    """The likelihood maximization did not converge; best iterate attached."""

    def __init__(self, message: str, best: "MLEResult"):
        super().__init__(message)
        self.best = best


# ---------------------------------------------------------------------------
# core result types


@dataclass(frozen=True)
class EfficiencyModel:
    """Path efficiencies to the detectors, detector efficiencies, and the
    splitting ratios of the analysis optics."""

    eta_l: float = 1.0
    eta_r: float = 1.0
    eta_1: float = 1.0
    eta_2: float = 1.0
    eta_3: float = 1.0
    split: float = 0.5
    bs2_T: float = 0.5

    def __post_init__(self):
        for name in ("eta_l", "eta_r", "eta_1", "eta_2", "eta_3", "split", "bs2_T"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")

    @classmethod
    def unit(cls) -> "EfficiencyModel":
        return cls()

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
        return {
            "eta_l": self.eta_l,
            "eta_r": self.eta_r,
            "eta_1": self.eta_1,
            "eta_2": self.eta_2,
            "eta_3": self.eta_3,
            "split": self.split,
            "bs2_T": self.bs2_T,
        }


@dataclass(frozen=True)
class RestrictedDensity:
    """The at-most-one-photon-per-mode block of the two-mode field state.

    Populations are stored unnormalized; their sum is the retained
    probability P~ and the properly normalized 4x4 matrix is
    ``normalized_matrix()``.  ``d`` is the coherence between |0,1> and |1,0>;
    reports use |d| (its global phase is unobservable in the two layouts),
    the complex value is kept internally.
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
        for name in ("p00", "p01", "p10", "p11"):
            v = getattr(self, name)
            if v < -1e-12:
                raise ValueError(f"{name} = {v} is negative")
            if v < 0.0:
                object.__setattr__(self, name, 0.0)
        if not 0.0 < self.p_tilde <= 1.0 + P_TILDE_TOL:
            raise ValueError(f"retained probability {self.p_tilde} outside (0, 1]")
        bound = math.sqrt(self.p01 * self.p10)
        if abs(self.d) > bound + PSD_REL_TOL + 1e-12:
            raise ValueError(
                f"|d| = {abs(self.d):.3e} exceeds positivity bound sqrt(p01 p10) = {bound:.3e}"
            )

    @property
    def p_tilde(self) -> float:
        return self.p00 + self.p01 + self.p10 + self.p11

    @property
    def d_abs(self) -> float:
        return abs(self.d)

    def normalized_matrix(self) -> np.ndarray:
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0] = self.p00
        m[1, 1] = self.p01
        m[2, 2] = self.p10
        m[3, 3] = self.p11
        m[1, 2] = self.d
        m[2, 1] = np.conj(self.d)
        return m / self.p_tilde

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
            out["sigmas"] = dict(self.sigmas)
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
    idx = {occ: register.index(occ) for occ in ((0, 0), (0, 1), (1, 0), (1, 1))}
    mat = rho.matrix
    p00 = float(mat[idx[(0, 0)], idx[(0, 0)]].real)
    p01 = float(mat[idx[(0, 1)], idx[(0, 1)]].real)
    p10 = float(mat[idx[(1, 0)], idx[(1, 0)]].real)
    p11 = float(mat[idx[(1, 1)], idx[(1, 1)]].real)
    d = complex(mat[idx[(0, 1)], idx[(1, 0)]])
    if p00 + p01 + p10 + p11 <= 0.0:
        raise ValueError("state has no weight on the restricted block")
    extras = {}
    if register.cutoff >= 2:
        extras["p02"] = float(mat[register.index((0, 2)), register.index((0, 2))].real)
        extras["p20"] = float(mat[register.index((2, 0)), register.index((2, 0))].real)
    # numerical safety: the block of a positive matrix is positive, but
    # rounding can push |d| over the bound by ~1e-16
    bound = math.sqrt(max(p01 * p10, 0.0))
    if abs(d) > bound:
        d = d * (bound / abs(d))
    return RestrictedDensity(p00=p00, p01=p01, p10=p10, p11=p11, d=d, **extras)


# ---------------------------------------------------------------------------
# stage one: diagonal inversion


@dataclass(frozen=True)
class AggregatedCounts:
    """Counts in the aggregated classes (m, n): m clicks at D2a (0/1) and n
    detectors fired in the split pair (0/1/2)."""

    counts: Mapping[tuple[int, int], int]
    trials: int

    @classmethod
    def from_record(cls, record: CountRecord, pair: tuple[str, str] = SPLIT_PAIR) -> "AggregatedCounts":
        agg = aggregate_split_detector(record, pair)
        return cls(counts={k: int(v) for k, v in agg.items()}, trials=record.trials)

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


def _population_povm(eff: EfficiencyModel) -> np.ndarray:
    return bench_povm(2, eff.d2a, eff.d2b, eff.d2c, eff.split, None, 0.0)


def _fringe_povm(eff: EfficiencyModel) -> np.ndarray:
    """Fringe-layout elements at phase 0; phase phi multiplies entry (i, j)
    by exp(-i phi (n_L[i] - n_L[j]))."""
    return bench_povm(2, eff.d2a, eff.d2b, eff.d2c, eff.split, eff.bs2_T, 0.0)


def forward_class_matrix(eff: EfficiencyModel) -> np.ndarray:
    """Map from the diagonal populations (p00, p01, p10, p11, p02) to the
    aggregated class probabilities: the population POVM's diagonal on those
    basis states, summed over the patterns of each class."""
    diag = np.diagonal(_population_povm(eff), axis1=1, axis2=2).real[:, _DIAG_IDX]
    out = np.zeros((len(Q_CLASSES), len(DIAG_KEYS)))  # shape (6 classes, 5 populations)
    np.add.at(out, _PATTERN_CLASS, diag)
    return out


def invert_diagonal(
    aggregated: AggregatedCounts,
    eff: EfficiencyModel,
    clamp_sigma: float = 3.0,
    bootstrap: int = 0,
    seed: int = 0,
) -> DiagonalEstimate:
    """Solve the detection forward map for the diagonal elements.

    Generalized least squares on the class frequencies with the multinomial
    covariance (one redundant class dropped), with the normalization
    constraint enforced through p00 = 1 - (p01 + p10 + p11 + p02).
    Uncertainties come from the GLS covariance; ``bootstrap`` > 0 adds a
    resampling cross-check.  Estimates below -``clamp_sigma`` standard
    deviations raise; small negatives within noise are clamped to zero and
    flagged.
    """
    q = aggregated.frequencies()
    n = aggregated.trials
    if np.any(q < 0) or q.sum() > 1 + 1e-9:
        raise InconsistentCountsError("class frequencies outside the simplex")
    m = forward_class_matrix(eff)

    # substitute p00 = 1 - sum(others); drop the most populated class as
    # redundant (with an empty one dropped, the kept frequencies sum to 1 and
    # their floored multinomial covariance is indefinite)
    kept = np.arange(len(Q_CLASSES)) != np.argmax(q)
    a_full = m[:, 1:] - m[:, [0]]
    b_full = q - m[:, 0]
    a = a_full[kept, :]
    b = b_full[kept]
    q_floor = np.clip(q[kept], 0.5 / n, None)
    cov_q = (np.diag(q_floor) - np.outer(q_floor, q_floor)) / n
    w = np.linalg.inv(cov_q)
    normal = a.T @ w @ a
    cov_x = np.linalg.inv(normal)
    x = cov_x @ (a.T @ w @ b)
    resid = b - a @ x
    chi2 = float(resid @ w @ resid)

    # covariance including the dependent p00 row
    t = np.zeros((5, 4))
    t[0, :] = -1.0
    t[1:, :] = np.eye(4)
    cov_full = t @ cov_x @ t.T

    values = {"p00": float(1.0 - x.sum())}
    for key, v in zip(DIAG_KEYS[1:], x):
        values[key] = float(v)
    sigmas = {key: float(math.sqrt(max(cov_full[i, i], 0.0))) for i, key in enumerate(DIAG_KEYS)}

    flags: list[str] = []
    for key in DIAG_KEYS:
        if values[key] < 0.0:
            if values[key] < -clamp_sigma * max(sigmas[key], 1e-300):
                raise InconsistentCountsError(
                    f"{key} = {values[key]:.3e} below -{clamp_sigma} sigma ({sigmas[key]:.3e})"
                )
            values[key] = 0.0
            flags.append(f"clamped_{key}")

    boot_sigmas = None
    if bootstrap > 0:
        rng = substream_rng(seed, stream=0x626F6F74)
        pvals = np.clip(q, 0.0, None)
        pvals = pvals / pvals.sum()
        samples = {key: [] for key in DIAG_KEYS}
        for _ in range(bootstrap):
            counts = rng.multinomial(n, pvals)
            qb = counts / n
            bb = (qb - m[:, 0])[kept]
            xb = cov_x @ (a.T @ w @ bb)
            samples["p00"].append(1.0 - xb.sum())
            for key, v in zip(DIAG_KEYS[1:], xb):
                samples[key].append(v)
        boot_sigmas = {key: float(np.std(vals, ddof=1)) for key, vals in samples.items()}

    return DiagonalEstimate(
        values=values,
        sigmas=sigmas,
        covariance=cov_full,
        flags=tuple(flags),
        trials=n,
        chi2=chi2,
        bootstrap_sigmas=boot_sigmas,
    )


def invert_diagonal_probabilities(q: Mapping[tuple[int, int], float], eff: EfficiencyModel) -> dict[str, float]:
    """Exact (noise-free) inversion of class probabilities; no uncertainties."""
    qv = np.array([q.get(cls_, 0.0) for cls_ in Q_CLASSES])
    m = forward_class_matrix(eff)
    a = (m[:, 1:] - m[:, [0]])[1:, :]
    b = (qv - m[:, 0])[1:]
    x, *_ = np.linalg.lstsq(a, b, rcond=None)
    out = {"p00": float(1.0 - x.sum())}
    out.update({key: float(v) for key, v in zip(DIAG_KEYS[1:], x)})
    return out


# ---------------------------------------------------------------------------
# stage two: fringe fit and coherence


@dataclass(frozen=True)
class FringeScan:
    """Per-phase count records of the fringe layout (detectors D2a, D2b, D2c)."""

    records: Sequence[CountRecord]

    def __post_init__(self):
        phases = [r.phase for r in self.records]
        if any(p is None for p in phases):
            raise DataQualityError("every fringe record needs a phase")
        distinct = sorted(set(float(p) for p in phases))
        if len(distinct) < 5:
            raise DataQualityError(f"need >= 5 distinct phases, got {len(distinct)}")
        if distinct[-1] - distinct[0] < TWO_PI - 1e-9:
            raise DataQualityError("phase scan must span at least 2 pi")

    def arm_data(self, arm: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(phases, values, sigmas) for arm '2a' (click fraction at D2a) or
        '2bc' (mean clicks per trial summed over the split pair)."""
        phis, ys, sigmas = [], [], []
        for rec in self.records:
            n = rec.trials
            if arm == "2a":
                y = rec.clicked_count("D2a") / n
                var = max(y * (1.0 - y), 1.0 / n) / n
            elif arm == "2bc":
                pos_b = rec.detector_ids.index("D2b")
                pos_c = rec.detector_ids.index("D2c")
                total = sum(cnt * (pat[pos_b] + pat[pos_c]) for pat, cnt in rec.tally.items())
                sq = sum(cnt * (pat[pos_b] + pat[pos_c]) ** 2 for pat, cnt in rec.tally.items())
                y = total / n
                var = max(sq / n - y * y, 1.0 / n) / n
            else:
                raise ValueError(f"unknown arm {arm!r}")
            phis.append(float(rec.phase))
            ys.append(y)
            sigmas.append(math.sqrt(var))
        return np.array(phis), np.array(ys), np.array(sigmas)


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
    w = 1.0 / sigmas**2
    normal = design.T @ (design * w[:, None])
    try:
        cov = np.linalg.inv(normal)
    except np.linalg.LinAlgError as exc:
        raise DataQualityError("degenerate fringe design matrix") from exc
    beta = cov @ (design.T @ (ys * w))
    a0, b0, c0 = beta
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
    resid = ys - design @ beta
    chi2 = float(np.sum((resid / sigmas) ** 2))
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
    arm_a = _fit_single_arm(*scan.arm_data("2a"))
    arm_bc = _fit_single_arm(*scan.arm_data("2bc"))
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


@dataclass(frozen=True)
class CoherenceEstimate:
    d_abs: float
    sigma: float
    mode: str
    flags: tuple[str, ...] = ()


def _model_visibility_slope(diagonals: Mapping[str, float], eff: EfficiencyModel) -> float:
    """d(V_avg)/d(|d|) of the exact fringe forward model at fixed diagonals.

    For a real coherence d between |0,1> and |1,0> each arm reads
    base + 2 d |e| cos(phi + arg e), where base contracts the arm's POVM
    diagonal with the populations (p00 = 1 - the others) and e is the arm's
    <0,1|E|1,0> at phase 0; so V_arm = 2 d |e| / base, and V_avg / d is the
    sum over arms of |e| / base.
    """
    if not diagonals.get("p01", 0.0) * diagonals.get("p10", 0.0) > 0.0:
        raise DataQualityError("model slope undefined: p01 p10 = 0")
    pops = [max(float(diagonals.get(key, 0.0)), 0.0) for key in DIAG_KEYS[1:]]
    pops = np.array([1.0 - sum(pops), *pops])
    arms = np.einsum("ap,pij->aij", _ARM_WEIGHTS, _fringe_povm(eff))
    base = np.diagonal(arms, axis1=1, axis2=2).real[:, _DIAG_IDX] @ pops
    return float(np.sum(np.abs(arms[:, _I01, _I10]) / base))


def estimate_coherence(
    visibility: float,
    diagonals: Mapping[str, float] | DiagonalEstimate,
    eff: EfficiencyModel,
    mode: str = "simplified",
    sigma_visibility: float = 0.0,
    diagonal_sigmas: Mapping[str, float] | None = None,
) -> CoherenceEstimate:
    """Convert a fringe visibility into the coherence magnitude |d|.

    ``simplified`` uses |d| = V (p10 + p01) / 2, valid for 50/50 splitters and
    negligible two-photon terms; ``full`` inverts the exact fringe-layout
    forward model (including p11/p02 and unbalanced splitters).  A result
    exceeding the positivity bound sqrt(p01 p10) by more than 3 sigma is
    flagged.
    """
    if isinstance(diagonals, DiagonalEstimate):
        diagonal_sigmas = diagonal_sigmas or diagonals.sigmas
        diagonals = diagonals.values
    p01 = float(diagonals["p01"])
    p10 = float(diagonals["p10"])

    if mode == "simplified":
        d_abs = visibility * (p10 + p01) / 2.0
        var = ((p10 + p01) / 2.0 * sigma_visibility) ** 2
        if diagonal_sigmas:
            var += (visibility / 2.0) ** 2 * (
                diagonal_sigmas.get("p01", 0.0) ** 2 + diagonal_sigmas.get("p10", 0.0) ** 2
            )
        sigma = math.sqrt(var)
    elif mode == "full":
        slope = _model_visibility_slope(diagonals, eff)
        d_abs = visibility / slope
        var = (sigma_visibility / slope) ** 2
        if diagonal_sigmas:
            # numeric partials of 1/slope, stepping down where the model's p00 would go negative
            others = sum(max(float(diagonals.get(k, 0.0)), 0.0) for k in ("p01", "p10", "p11", "p02"))
            for key in ("p01", "p10", "p11", "p02"):
                s_key = diagonal_sigmas.get(key, 0.0)
                if s_key == 0.0 or key not in diagonals:
                    continue
                step = max(1e-6, 0.01 * abs(float(diagonals[key])))
                if others + step > 1.0:
                    step = -step
                bumped = dict(diagonals)
                bumped[key] = float(diagonals[key]) + step
                slope_b = _model_visibility_slope(bumped, eff)
                deriv = (visibility / slope_b - d_abs) / step
                var += (deriv * s_key) ** 2
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
    """Combine stage-one and stage-two output into a RestrictedDensity.

    The coherence is clamped into the positivity cone if the raw estimate
    exceeds it (the violation itself is carried in the flags).
    """
    flags = list(diag.flags) + list(coherence.flags)
    bound = math.sqrt(diag["p01"] * diag["p10"])
    d_abs = coherence.d_abs
    if d_abs > bound:
        d_abs = bound
        if "coherence_clamped" not in flags:
            flags.append("coherence_clamped")
    sigmas = {f"sigma_{k}": v for k, v in diag.sigmas.items()}
    sigmas["sigma_d"] = coherence.sigma
    return RestrictedDensity(
        p00=diag["p00"],
        p01=diag["p01"],
        p10=diag["p10"],
        p11=diag["p11"],
        d=d_abs * np.exp(1j * phase),
        p02=diag["p02"],
        sigmas=sigmas,
        flags=tuple(flags),
    )


# ---------------------------------------------------------------------------
# maximum-likelihood fit


@dataclass(frozen=True)
class MLEOptions:
    max_iterations: int = 500
    tol: float = 1e-10
    # positivity is enforced by fitting a Cholesky-like factor G of the
    # block-diagonal two-photon form and taking rho = G+ G / Tr(G+ G)


@dataclass(frozen=True)
class MLEResult:
    rho: DensityOperator
    restricted: RestrictedDensity
    log_likelihood: float
    n_iterations: int
    converged: bool
    history: tuple[float, ...]


_BLOCK_OCCS = ((0, 0), (0, 1), (1, 0), (1, 1), (0, 2), (2, 0))
_BLOCK_IDX = [_REGISTER2.index(occ) for occ in _BLOCK_OCCS]
_BLOCK_NL = np.array([n_l for n_l, _ in _BLOCK_OCCS])


def _params_to_factor(x: np.ndarray) -> np.ndarray:
    g = np.zeros((6, 6), dtype=complex)
    g[0, 0] = x[0]
    g[1, 1] = x[1]
    g[2, 2] = x[2]
    g[2, 1] = x[3] + 1j * x[4]
    g[3, 3] = x[5]
    g[4, 4] = x[6]
    g[5, 5] = x[7]
    g[4, 3] = x[8] + 1j * x[9]
    g[5, 3] = x[10] + 1j * x[11]
    g[5, 4] = x[12] + 1j * x[13]
    return g


def _factor_to_rho(x: np.ndarray) -> np.ndarray:
    # rho = G G+ / Tr(G G+) with lower-triangular G: exactly the Cholesky
    # parameterization of the positive cone
    g = _params_to_factor(x)
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _block_to_full(rho_block: np.ndarray) -> DensityOperator:
    mat = np.zeros((9, 9), dtype=complex)
    mat[np.ix_(_BLOCK_IDX, _BLOCK_IDX)] = rho_block
    return DensityOperator(_REGISTER2, mat, _skip_positivity=True)


def _collect_mle_data(
    diag_records: Sequence[CountRecord],
    fringe_records: Sequence[CountRecord],
    eff: EfficiencyModel,
) -> tuple[np.ndarray, np.ndarray]:
    """Stack POVM elements on the block basis and counts across both
    configurations: one element per record and pattern, in ``PATTERNS`` order."""
    if not diag_records and not fringe_records:
        raise ValueError("maximum-likelihood fit needs at least one record")
    block = np.ix_(range(len(PATTERNS)), _BLOCK_IDX, _BLOCK_IDX)
    diag = np.broadcast_to(_population_povm(eff)[block], (len(diag_records), len(PATTERNS), 6, 6))
    phis = np.array([float(record.phase) for record in fringe_records])
    rotation = np.exp(-1j * phis[:, None, None] * (_BLOCK_NL[:, None] - _BLOCK_NL[None, :]))
    fringe = _fringe_povm(eff)[block][None, :, :, :] * rotation[:, None, :, :]
    elements = np.concatenate([diag, fringe]).reshape(-1, 6, 6)
    records = [*diag_records, *fringe_records]
    counts = np.array([[record.tally.get(pattern, 0) for pattern in PATTERNS] for record in records])
    return elements, counts.reshape(-1)


def log_likelihood(
    rho_block: np.ndarray,
    diag_records: Sequence[CountRecord],
    fringe_records: Sequence[CountRecord],
    eff: EfficiencyModel,
) -> float:
    """Multinomial log likelihood of a block-form state given the records."""
    elements, counts = _collect_mle_data(diag_records, fringe_records, eff)
    probs = np.real(np.einsum("kij,ji->k", elements, rho_block))
    mask = counts > 0
    return float(np.sum(counts[mask] * np.log(np.clip(probs[mask], 1e-300, None))))


def two_stage_block(restricted: RestrictedDensity) -> np.ndarray:
    """Embed a two-stage estimate in the 6-dim block basis (e, f, g = 0)."""
    rho = np.zeros((6, 6), dtype=complex)
    rho[0, 0] = restricted.p00
    rho[1, 1] = restricted.p01
    rho[2, 2] = restricted.p10
    rho[3, 3] = restricted.p11
    rho[1, 2] = restricted.d
    rho[2, 1] = np.conj(restricted.d)
    rho[4, 4] = restricted.p02 or 0.0
    rho[5, 5] = restricted.p20 or 0.0
    total = np.trace(rho).real
    if total <= 0:
        raise ValueError("two-stage estimate has no probability weight")
    return rho / total


def mle_fit(
    diag_records: Sequence[CountRecord],
    fringe_records: Sequence[CountRecord],
    eff: EfficiencyModel,
    options: MLEOptions = MLEOptions(),
    initial: RestrictedDensity | None = None,
) -> MLEResult:
    """Joint maximum-likelihood fit of the two-photon block form.

    Positivity and unit trace are enforced through the factorization
    rho = G+ G / Tr(G+ G); the optimizer's accepted iterates are recorded and
    the log likelihood is non-decreasing along them.
    """
    from scipy.optimize import minimize  # here, so that importing dlczsim loads no scipy

    elements, counts = _collect_mle_data(diag_records, fringe_records, eff)
    total_counts = counts.sum()
    if total_counts <= 0:
        raise ValueError("records contain no events")

    def negative_ll(x: np.ndarray) -> float:
        rho = _factor_to_rho(x)
        probs = np.real(np.einsum("kij,ji->k", elements, rho))
        probs = np.clip(probs, 1e-300, None)
        mask = counts > 0
        return -float(np.sum(counts[mask] * np.log(probs[mask])))

    if initial is not None:
        seed_block = two_stage_block(initial)
    else:
        seed_block = np.diag([0.9, 0.04, 0.04, 0.01, 0.005, 0.005]).astype(complex)
    # Cholesky of a strictly positive seed gives a well-conditioned start
    seed_block = seed_block + 1e-6 * np.eye(6)
    seed_block /= np.trace(seed_block).real
    g0 = np.linalg.cholesky(seed_block)
    x0 = np.array(
        [
            g0[0, 0].real,
            g0[1, 1].real,
            g0[2, 2].real,
            g0[2, 1].real,
            g0[2, 1].imag,
            g0[3, 3].real,
            g0[4, 4].real,
            g0[5, 5].real,
            g0[4, 3].real,
            g0[4, 3].imag,
            g0[5, 3].real,
            g0[5, 3].imag,
            g0[5, 4].real,
            g0[5, 4].imag,
        ]
    )

    history = [-negative_ll(x0)]

    def callback(xk):
        history.append(-negative_ll(xk))

    result = minimize(
        negative_ll,
        x0,
        method="L-BFGS-B",
        callback=callback,
        options={"maxiter": options.max_iterations, "ftol": options.tol, "gtol": 1e-12},
    )
    rho_block = _factor_to_rho(result.x)
    rho = _block_to_full(rho_block)
    mle = MLEResult(
        rho=rho,
        restricted=restrict(rho),
        log_likelihood=float(-result.fun),
        n_iterations=int(result.nit),
        converged=bool(result.success),
        history=tuple(history),
    )
    if result.nit >= options.max_iterations and not result.success:
        raise MLEConvergenceError(f"no convergence after {result.nit} iterations", mle)
    return mle
