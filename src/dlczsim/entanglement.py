"""Entanglement quantification and loss back-propagation.

For the restricted two-mode form the concurrence has the closed form
P~ C = max(2|d| - 2 sqrt(p00 p11), 0).  Known channel attenuations can be
inverted to quote the restricted state (and its concurrence) at planes
upstream of the detectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .detection import substream_rng
from .tomography import RestrictedDensity


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


def _concurrence_value(p00: float, p11: float, d_abs: float, p_tilde: float) -> float:
    return max(2.0 * d_abs - 2.0 * math.sqrt(max(p00 * p11, 0.0)), 0.0) / p_tilde


def concurrence_restricted(
    rd: RestrictedDensity,
    herald: str | None = None,
    mc_samples: int = 0,
    seed: int = 0,
) -> ConcurrenceResult:
    """Closed-form concurrence of the restricted state.

    Uncertainties combine the stored sigmas in quadrature by first-order
    propagation; ``mc_samples`` > 0 adds a Gaussian-resampling cross-check
    (inputs clipped to their physical ranges before each evaluation).  Its
    normal deviates are one row-major ``(mc_samples, 5)`` block from
    substream ``0xC0`` of ``seed``, columns (p00, p01, p10, p11, d), drawn
    whether or not an input has a sigma; a seeded ``mc_sigma`` is therefore
    stable.
    """
    c = _concurrence_value(rd.p00, rd.p11, rd.d_abs, rd.p_tilde)
    lower = c * rd.p_tilde

    sigma_c = 0.0
    mc_sigma = None
    sig = {k.removeprefix("sigma_"): v for k, v in rd.sigmas.items()}
    if sig:
        # first-order propagation with numeric partials
        var = 0.0
        base = {"p00": rd.p00, "p01": rd.p01, "p10": rd.p10, "p11": rd.p11, "d": rd.d_abs}

        def value(params: Mapping[str, float]) -> float:
            pt = params["p00"] + params["p01"] + params["p10"] + params["p11"]
            return _concurrence_value(params["p00"], params["p11"], params["d"], pt)

        for key, s in sig.items():
            if key not in base or s == 0.0:
                continue
            step = max(1e-9, 1e-4 * abs(base[key]), 0.1 * s)
            hi = dict(base)
            hi[key] = base[key] + step
            lo = dict(base)
            lo[key] = max(base[key] - step, 0.0)
            deriv = (value(hi) - value(lo)) / (hi[key] - lo[key])
            var += (deriv * s) ** 2
        sigma_c = math.sqrt(var)

        if mc_samples > 0:
            # element-wise mirror of value() on every row, same operation
            # order; in place, so the draw block is the only full-size array
            x = substream_rng(seed, stream=0xC0).standard_normal((mc_samples, len(base)))
            x *= [sig.get(key, 0.0) for key in base]
            x += list(base.values())
            p00, p01, p10, p11, d = np.maximum(x, 0.0, out=x).T
            pt = p00 + p01 + p10 + p11
            draws = np.maximum(2.0 * d - 2.0 * np.sqrt(np.maximum(p00 * p11, 0.0)), 0.0) / pt
            mc_sigma = float(np.std(draws, ddof=1))

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
# channel budget and loss back-propagation

PLANES: dict[str, tuple[str, ...]] = {
    "detectors": (),
    "z0": ("apd",),
    "z1": ("apd", "f", "c"),
    "z2": ("apd", "f", "c", "fc"),
}

COMPONENT_KEYS = ("fc", "c", "f", "apd")


@dataclass(frozen=True)
class ChannelBudget:
    """Per-path transmissions with uncertainties, keyed by component.

    Components, ordered from the ensembles toward the detectors: ``fc``
    (filter cell), ``c`` (fiber coupling), ``f`` (auxiliary-light filter),
    ``apd`` (detector quantum efficiency).  Planes are cumulative component
    sets counted backward from the raw detector record: z0 undoes only apd,
    z1 additionally f and c, z2 additionally fc (ensemble output edge).
    """

    left: Mapping[str, tuple[float, float]]
    right: Mapping[str, tuple[float, float]]

    def __post_init__(self):
        for side in (self.left, self.right):
            for key in COMPONENT_KEYS:
                if key not in side:
                    raise ValueError(f"budget is missing component {key!r}")
                value, err = side[key]
                if not 0.0 < value <= 1.0:
                    raise ValueError(f"component {key} transmission {value} outside (0, 1]")
                if err < 0.0:
                    raise ValueError("component uncertainty must be nonnegative")

    def segment(self, side: str, from_plane: str, to_plane: str) -> tuple[float, float]:
        """Product transmission (and uncertainty) between two planes."""
        for plane in (from_plane, to_plane):
            if plane not in PLANES:
                raise ValueError(f"unknown plane {plane!r}")
        if set(PLANES[from_plane]) - set(PLANES[to_plane]):
            raise ValueError(f"target plane {to_plane} is downstream of {from_plane}")
        # a fixed multiplication order keeps the product independent of
        # string hashing (PYTHONHASHSEED)
        keys = [key for key in COMPONENT_KEYS if key in PLANES[to_plane] and key not in PLANES[from_plane]]
        comps = self.left if side == "L" else self.right
        alpha = 1.0
        rel_var = 0.0
        for key in keys:
            value, err = comps[key]
            alpha *= value
            rel_var += (err / value) ** 2
        return alpha, alpha * math.sqrt(rel_var)

    def total(self, side: str) -> float:
        return self.segment(side, "detectors", "z2")[0]

    def as_dict(self) -> dict[str, object]:
        return {
            "L": {k: list(v) for k, v in self.left.items()},
            "R": {k: list(v) for k, v in self.right.items()},
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Mapping[str, object]]) -> "ChannelBudget":
        def side(entries):
            return {k: (float(v[0]), float(v[1])) for k, v in entries.items()}

        return cls(left=side(data["L"]), right=side(data["R"]))


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
    carried along the channel).
    """

    total = rd.p_tilde

    def transform(p01, p10, p11, d_abs, al, ar):
        out01 = p01 / ar
        out10 = p10 / al
        out11 = p11 / (al * ar)
        # vacuum absorbs the rescaling; keeping the input's total weight makes
        # the all-ones budget an exact identity
        out00 = total - out01 - out10 - out11
        vis = 2.0 * d_abs / (p10 + p01) if (p10 + p01) > 0 else 0.0
        out_d = vis * (out10 + out01) / 2.0
        return out00, out01, out10, out11, out_d

    base = transform(rd.p01, rd.p10, rd.p11, rd.d_abs, alpha_l, alpha_r)
    p00, p01, p10, p11, d_abs = base
    if p00 < 0.0 or max(p01, p10, p11) > 1.0:
        raise UnphysicalBudgetError(
            f"back-propagated populations unphysical: p00={p00:.4f}, p01={p01:.4f}, "
            f"p10={p10:.4f}, p11={p11:.4f}"
        )

    sig = {k.removeprefix("sigma_"): v for k, v in rd.sigmas.items()}
    sigmas = {}
    if sig or sigma_alpha_l or sigma_alpha_r:
        inputs = {
            "p01": (rd.p01, sig.get("p01", 0.0)),
            "p10": (rd.p10, sig.get("p10", 0.0)),
            "p11": (rd.p11, sig.get("p11", 0.0)),
            "d": (rd.d_abs, sig.get("d", 0.0)),
            "al": (alpha_l, sigma_alpha_l),
            "ar": (alpha_r, sigma_alpha_r),
        }
        variances = np.zeros(5)
        for key, (v, s) in inputs.items():
            if s == 0.0:
                continue
            step = max(1e-9, 1e-5 * abs(v))
            args_hi = {k: val for k, (val, _) in inputs.items()}
            args_hi[key] = v + step
            hi = transform(args_hi["p01"], args_hi["p10"], args_hi["p11"], args_hi["d"], args_hi["al"], args_hi["ar"])
            derivs = (np.array(hi) - np.array(base)) / step
            variances += (derivs * s) ** 2
        for name, var in zip(("p00", "p01", "p10", "p11", "d"), variances):
            sigmas[f"sigma_{name}"] = float(math.sqrt(var))

    phase = np.angle(rd.d) if rd.d_abs > 0 else 0.0
    bound = math.sqrt(p01 * p10)
    flags = rd.flags
    if d_abs > bound:
        d_abs = bound
        flags = flags + ("coherence_clamped",)
    extras = {}
    if rd.p02 is not None:
        extras["p02"] = rd.p02 / alpha_r**2
    if rd.p20 is not None:
        extras["p20"] = rd.p20 / alpha_l**2
    return RestrictedDensity(
        p00=p00,
        p01=p01,
        p10=p10,
        p11=p11,
        d=d_abs * np.exp(1j * phase),
        sigmas=sigmas,
        flags=flags,
        **extras,
    )


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
        return {"h_c2": self.h_c2, "sigma_h_c2": self.sigma_h_c2, "h_below_one": self.h_below_one}


def _h_ratio(p11: float, p10: float, p01: float, sigmas: Mapping[str, float]) -> tuple[float, float]:
    if p10 <= 0.0 or p01 <= 0.0:
        raise ValueError("h ratio needs p10, p01 > 0")
    h = p11 / (p10 * p01)
    rel = 0.0
    for key, v in (("p11", p11), ("p10", p10), ("p01", p01)):
        s = sigmas.get(key, sigmas.get(f"sigma_{key}", 0.0))
        if v > 0:
            rel += (s / v) ** 2
    return h, h * math.sqrt(rel)


def witnesses(rd: RestrictedDensity) -> WitnessReport:
    """Two-photon suppression ratio h = p11 / (p10 p01).

    h < 1 is the necessary precondition for a strictly positive concurrence
    bound (factorizable statistics give exactly 1).
    """
    h, sigma = _h_ratio(rd.p11, rd.p10, rd.p01, dict(rd.sigmas))
    return WitnessReport(h_c2=float(h), sigma_h_c2=float(sigma), h_below_one=bool(h < 1.0))
