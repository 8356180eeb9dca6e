"""Entanglement quantification and loss back-propagation.

For the restricted two-mode form the concurrence has the closed form
P~ C = max(2|d| - 2 sqrt(p00 p11), 0).  Known channel attenuations can be
inverted to quote the restricted state (and its concurrence) at planes
upstream of the detectors.  ``analyze_records`` runs the whole analysis
chain, from count records to the concurrence at each plane.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from . import detection, tomography
from .config import ChannelBudget, DetectorBench
from .detection import substream_rng
from .tomography import CLAMP_SIGMA, DIAG_KEYS, DataQualityError, RestrictedDensity, coherence_from_visibility


class UnphysicalBudgetError(ValueError):
    """Back-propagation produced populations outside [0, 1]."""


def binary_entropy(x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def entanglement_of_formation(concurrence: float) -> float:
    """E(C) = h((1 + sqrt(1 - C^2)) / 2); strictly increasing, E(0)=0, E(1)=1."""
    if not 0.0 <= concurrence <= 1.0:
        raise ValueError(f"concurrence must lie in [0, 1], got {concurrence}")
    return binary_entropy(0.5 * (1.0 + math.sqrt(1.0 - concurrence**2)))


# ---------------------------------------------------------------------------
# concurrence


@dataclass(frozen=True)
class ConcurrenceResult:
    concurrence: float
    lower_bound: float  # P~ . C, the quantity bounding the pre-restriction state
    eof: float
    sigma_concurrence: float = 0.0
    sigma_lower_bound: float = 0.0
    herald: str | None = None
    mc_sigma: float | None = None

    def as_dict(self) -> dict[str, object]:
        out = {
            "concurrence": self.concurrence,
            "lower_bound": self.lower_bound,
            "entanglement_of_formation": self.eof,
            "sigma_concurrence": self.sigma_concurrence,
            "sigma_lower_bound": self.sigma_lower_bound,
        }
        if self.herald:
            out["herald"] = self.herald
        if self.mc_sigma is not None:
            out["mc_sigma"] = self.mc_sigma
        return out


def _concurrence(p00, p01, p10, p11, d):
    """C = max(2|d| - 2 sqrt(p00 p11), 0) / P~ of the restricted state with
    coherence magnitude ``d``, on floats or element-wise on arrays of draws."""
    return np.maximum(2.0 * d - 2.0 * np.sqrt(np.maximum(p00 * p11, 0.0)), 0.0) / (p00 + p01 + p10 + p11)


def concurrence_restricted(
    rd: RestrictedDensity,
    herald: str | None = None,
    mc_samples: int = 0,
    seed: int = 0,
) -> ConcurrenceResult:
    """Closed-form concurrence of the restricted state.

    Uncertainties combine the stored sigmas in quadrature by first-order
    propagation with the analysis's only numeric partials: central secants
    of max(1e-9, 1e-4 |x|, 0.1 sigma), the lower point clipped at 0.  The
    closed-form partials would diverge where p00 p11 = 0 (lossless records
    clamp p00 to 0) and jump at the C = 0 clamp; a secant across a tenth of
    a sigma stays finite at both.  ``mc_samples`` > 0 adds a
    Gaussian-resampling cross-check (inputs clipped to their physical
    ranges before each evaluation).  Its normal deviates are one row-major
    ``(mc_samples, 5)`` block from substream ``0xC0`` of ``seed``, columns
    (p00, p01, p10, p11, d), drawn whether or not an input has a sigma; a
    seeded ``mc_sigma`` is therefore stable.
    """
    base = {**{key: getattr(rd, key) for key in DIAG_KEYS[:4]}, "d": rd.d_abs}
    points = [base]  # the base point, then each secant's upper and lower point
    secants = []  # (sigma, upper, lower value of the stepped input), in the order of the sigmas
    for key, s in rd.sigmas.items():
        if key in base and s != 0.0:
            step = max(1e-9, 1e-4 * abs(base[key]), 0.1 * s)
            hi, lo = base[key] + step, max(base[key] - step, 0.0)
            secants.append((s, hi, lo))
            points += [{**base, key: hi}, {**base, key: lo}]
    values = _concurrence(*np.array([list(point.values()) for point in points]).T).tolist()  # one element-wise call
    c = values[0]
    lower = c * rd.p_tilde

    sigma_c = 0.0
    mc_sigma = None
    if rd.sigmas:
        var = 0.0
        for (s, hi, lo), c_hi, c_lo in zip(secants, values[1::2], values[2::2]):
            var += ((c_hi - c_lo) / (hi - lo) * s) ** 2
        sigma_c = math.sqrt(var)

        if mc_samples > 0:
            # the draws clipped in place, so the draw block is the only full-size array
            x = substream_rng(seed, stream=0xC0).standard_normal((mc_samples, len(base)))
            x *= [rd.sigmas.get(key, 0.0) for key in base]
            x += list(base.values())
            mc_sigma = float(np.std(_concurrence(*np.maximum(x, 0.0, out=x).T), ddof=1))

    return ConcurrenceResult(
        concurrence=float(c),
        lower_bound=float(lower),
        eof=entanglement_of_formation(min(c, 1.0)),
        sigma_concurrence=float(sigma_c),
        sigma_lower_bound=float(sigma_c * rd.p_tilde),
        herald=herald,
        mc_sigma=mc_sigma,
    )


# ---------------------------------------------------------------------------
# loss back-propagation


def invert_attenuation(
    rd: RestrictedDensity,
    alpha_l: float,
    alpha_r: float,
    sigma_alpha_l: float = 0.0,
    sigma_alpha_r: float = 0.0,
) -> RestrictedDensity:
    """Undo independent attenuations alpha_l/alpha_r on the two modes.

    Populations scale with the inverse single- and two-photon survival
    probabilities and the vacuum absorbs the complement.  The coherence is
    recomputed from a constant visibility (the measured fringe contrast is
    carried along the channel) and clamped as ``RestrictedDensity.clamped``
    does.
    """

    p01, p10, p11 = rd.p01 / alpha_r, rd.p10 / alpha_l, rd.p11 / (alpha_l * alpha_r)
    # vacuum absorbs the rescaling; keeping the input's total weight makes
    # the all-ones budget an exact identity
    p00 = rd.p_tilde - p01 - p10 - p11
    spread = rd.p10 + rd.p01
    vis = 2.0 * rd.d_abs / spread if spread > 0 else 0.0
    d_abs = coherence_from_visibility(vis, p10, p01)
    if p00 < 0.0 or max(p01, p10, p11) > 1.0:
        raise UnphysicalBudgetError(
            f"back-propagated populations unphysical: p00={p00:.4g}, p01={p01:.4g}, "
            f"p10={p10:.4g}, p11={p11:.4g}"
        )

    sigmas = {}
    if rd.sigmas or sigma_alpha_l or sigma_alpha_r:
        # the map's Jacobian in (p01, p10, p11, |d|, alpha_l, alpha_r), one row
        # per output: p01, p10, p11, then |d| = V (p10 + p01) / 2 at constant V;
        # p00, the held total less the populations, takes minus their rows
        half_vis, ratio = vis / 2.0, (p10 + p01) / spread if spread > 0 else 0.0
        rows = [
            [1.0 / alpha_r, 0.0, 0.0, 0.0, 0.0, -p01 / alpha_r],
            [0.0, 1.0 / alpha_l, 0.0, 0.0, -p10 / alpha_l, 0.0],
            [0.0, 0.0, 1.0 / (alpha_l * alpha_r), 0.0, -p11 / alpha_l, -p11 / alpha_r],
            [half_vis * (1.0 / alpha_r - ratio), half_vis * (1.0 / alpha_l - ratio), 0.0, ratio, -half_vis * p10 / alpha_l, -half_vis * p01 / alpha_r],
        ]
        rows.insert(0, [-(a + b + c) for a, b, c in zip(*rows[:3])])
        inputs = [rd.sigmas.get(key, 0.0) for key in (*DIAG_KEYS[1:4], "d")] + [sigma_alpha_l, sigma_alpha_r]
        for name, row in zip((*DIAG_KEYS[:4], "d"), rows):
            sigmas[name] = math.sqrt(sum((partial * s) ** 2 for partial, s in zip(row, inputs) if s != 0.0))

    extras = {}
    if rd.p02 is not None:
        extras["p02"] = rd.p02 / alpha_r**2
    if rd.p20 is not None:
        extras["p20"] = rd.p20 / alpha_l**2
    return RestrictedDensity.clamped(p00, p01, p10, p11, d_abs, np.angle(rd.d), rd.flags, sigmas=sigmas, **extras)


def backpropagate(rd: RestrictedDensity, budget: ChannelBudget, to_plane: str) -> RestrictedDensity:
    """Quote the restricted state measured at the detectors at an upstream
    plane of the channel, at constant visibility."""
    alpha_l, sigma_l = budget.segment("L", "detectors", to_plane)
    alpha_r, sigma_r = budget.segment("R", "detectors", to_plane)
    return invert_attenuation(rd, alpha_l, alpha_r, sigma_alpha_l=sigma_l, sigma_alpha_r=sigma_r)


# ---------------------------------------------------------------------------
# witnesses


@dataclass(frozen=True)
class WitnessReport:
    h_c2: float
    sigma_h_c2: float
    h_below_one: bool

    def as_dict(self) -> dict[str, object]:
        return asdict(self)


def witnesses(rd: RestrictedDensity) -> WitnessReport:
    """Two-photon suppression ratio h = p11 / (p10 p01).

    h < 1 is the necessary precondition for a strictly positive concurrence
    bound (factorizable statistics give exactly 1).  It is undefined where p10
    or p01 lies within ``CLAMP_SIGMA`` sigma of zero, the band the inversion clamps.
    """
    for key, value in (("p10", rd.p10), ("p01", rd.p01)):
        if not value > CLAMP_SIGMA * rd.sigmas.get(key, 0.0):
            raise DataQualityError(f"h ratio undefined: {key} = {value:.3e} is not above {CLAMP_SIGMA:g} sigma ({rd.sigmas.get(key, 0.0):.3e})")
    h = rd.p11 / (rd.p10 * rd.p01)
    partials = {"p11": 1.0 / (rd.p10 * rd.p01), "p10": -h / rd.p10, "p01": -h / rd.p01}
    var = sum((partial * rd.sigmas.get(key, 0.0)) ** 2 for key, partial in partials.items())
    return WitnessReport(h_c2=float(h), sigma_h_c2=float(math.sqrt(var)), h_below_one=bool(h < 1.0))


# ---------------------------------------------------------------------------
# the analysis chain

PLANE_HEADER = ["plane", "herald", "concurrence", "sigma_concurrence", *DIAG_KEYS[:4], "d_abs"]


def plane_table(rd: RestrictedDensity, budget: ChannelBudget, planes, herald: str) -> tuple[dict, list[list]]:
    """The state and concurrence at each plane, as JSON by plane and as ``PLANE_HEADER`` rows."""
    payload, rows = {}, []
    for target in planes:
        rd_t = rd if target == "detectors" else backpropagate(rd, budget, target)
        conc = concurrence_restricted(rd_t, herald=herald)
        payload[target] = {"state": rd_t.as_dict(), "concurrence": conc.as_dict()}
        rows.append([target, herald, conc.concurrence, conc.sigma_concurrence, *(getattr(rd_t, key) for key in DIAG_KEYS[:4]), rd_t.d_abs])
    return payload, rows


def analyze_records(
    diag_records: Sequence[detection.CountRecord], fringe_records: Sequence[detection.CountRecord], bench: DetectorBench,
    budget: ChannelBudget, *, herald: str, seed: int, plane: str = "detectors", mle: bool = False, coherence_mode: str = "full",
) -> tuple[dict, list[list]]:
    """The ``tomography_result.json`` payload and the ``concurrence_planes.csv``
    rows of ``analyze``: populations inverted from the merged diagonal
    records (200 bootstrap draws), |d| from the fringe fit, the concurrence
    (10,000 Monte Carlo draws) and witnesses, with ``mle`` the joint fit, and
    the state at ``plane``.  Populations keep the raw records' unit detection
    efficiency, with ``bench``'s splitting ratios.  Every stage is looked up
    on its module at call time, where the benchmark's layer tracer wraps it.
    """
    unit_eff = tomography.EfficiencyModel(split=bench.split, bs2_T=bench.bs2_T)
    # in bench order first, so that records listing their detectors in different orders merge
    diag_rec, *extras = map(tomography.in_bench_order, diag_records)
    for extra in extras:
        diag_rec = detection.merge_counts(diag_rec, extra)
    estimate = tomography.invert_diagonal(tomography.AggregatedCounts.from_record(diag_rec), unit_eff, bootstrap=200, seed=seed)
    fit = tomography.fit_fringe(tomography.FringeScan(fringe_records))
    coherence = tomography.estimate_coherence(fit.visibility, estimate, unit_eff, coherence_mode, fit.sigma_visibility)
    rd = tomography.assemble_restricted(estimate, coherence, fit.phase0)
    conc = concurrence_restricted(rd, herald=herald, mc_samples=10000, seed=seed)
    report = witnesses(rd)

    payload = {
        "herald": herald,
        "reference": "detectors (unit detection efficiency)",
        "populations": {k: estimate[k] for k in DIAG_KEYS},
        "sigmas": dict(estimate.sigmas),
        "bootstrap_sigmas": dict(estimate.bootstrap_sigmas or {}),
        "visibility": fit.as_dict(),
        "coherence": {"d_abs": coherence.d_abs, "sigma": coherence.sigma, "mode": coherence.mode},
        "p_tilde": rd.p_tilde,
        "flags": list(rd.flags),
        "efficiency_model": unit_eff.as_dict(),
        "concurrence": conc.as_dict(),
        "witnesses": report.as_dict(),
    }
    if mle:
        mle_result = tomography.mle_fit(diag_records, fringe_records, unit_eff, tomography.MLEOptions(), initial=rd)
        payload["mle"] = {
            "restricted": mle_result.restricted.as_dict(),
            "log_likelihood": mle_result.log_likelihood,
            "log_likelihood_two_stage": tomography.log_likelihood(tomography.two_stage_block(rd), diag_records, fringe_records, unit_eff),
            "iterations": mle_result.n_iterations,
            "converged": mle_result.converged,
            "concurrence": concurrence_restricted(mle_result.restricted).as_dict(),
        }

    planes = ["detectors"] if plane == "detectors" else ["detectors", plane]
    plane_payload, rows = plane_table(rd, budget, planes, herald)
    for entry in plane_payload.values():
        entry["state"]["herald"] = herald
    payload["planes"] = plane_payload
    return payload, rows
