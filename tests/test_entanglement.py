import math

import numpy as np
import pytest

from dlczsim.config import config_from_dict
from dlczsim.entanglement import (
    ChannelBudget,
    UnphysicalBudgetError,
    backpropagate,
    binary_entropy,
    concurrence_restricted,
    entanglement_of_formation,
    invert_attenuation,
    witnesses,
)
from dlczsim.pipeline import full_experiment
from dlczsim.tomography import RestrictedDensity, restrict

from helpers import (
    concurrence_mc_sigma_loop,
    ideal_config_dict,
    local_attenuation,
    local_phase,
    locc_bound_check,
    normalized_matrix,
    random_restricted,
    wootters_concurrence,
)

PUBLISHED_D1A = dict(p00=0.98510, p10=7.38e-3, p01=7.51e-3, p11=1.7e-5)
PUBLISHED_D1B = dict(p00=0.98501, p10=6.19e-3, p01=8.78e-3, p11=1.9e-5)
PUBLISHED_SIGMAS = {
    "sigma_p00": 0.00007,
    "sigma_p10": 0.05e-3,
    "sigma_p01": 0.05e-3,
    "sigma_p11": 0.2e-5,
}

BUDGET = ChannelBudget(
    left={"fc": (0.80, 0.02), "c": (0.70, 0.02), "f": (0.70, 0.02), "apd": (0.32, 0.02)},
    right={"fc": (0.80, 0.02), "c": (0.65, 0.02), "f": (0.70, 0.02), "apd": (0.40, 0.02)},
)


def _published_rd(table, visibility, with_sigmas=True):
    d = visibility * (table["p10"] + table["p01"]) / 2.0
    sigmas = dict(PUBLISHED_SIGMAS) if with_sigmas else {}
    if with_sigmas:
        sigmas["sigma_d"] = 0.02 * (table["p10"] + table["p01"]) / 2.0
    return RestrictedDensity(d=d, sigmas=sigmas, **table)


# ---------------------------------------------------------------------------
# closed-form concurrence


def test_concurrence_published_detector_values():
    res_a = concurrence_restricted(_published_rd(PUBLISHED_D1A, 0.70), herald="D1a", mc_samples=4000, seed=1)
    assert 1.8e-3 <= res_a.concurrence <= 3.0e-3
    assert res_a.concurrence > 0.0
    # quoted uncertainty reproduces at the published scale
    assert 0.4e-3 < res_a.sigma_concurrence < 0.8e-3
    assert 0.5 < res_a.mc_sigma / res_a.sigma_concurrence < 2.0

    res_b = concurrence_restricted(_published_rd(PUBLISHED_D1B, 0.71), herald="D1b")
    assert 1.3e-3 <= res_b.concurrence <= 2.5e-3


@pytest.mark.parametrize(
    "rd",
    [
        _published_rd(PUBLISHED_D1A, 0.70),
        # C clamps at 0 while the resampled coherence straddles the boundary
        RestrictedDensity(
            p00=0.98, p01=7e-3, p10=7e-3, p11=1e-5, d=3e-3, sigmas={**PUBLISHED_SIGMAS, "sigma_d": 3e-4}
        ),
        RestrictedDensity(d=0.7 * 7.4e-3, sigmas=PUBLISHED_SIGMAS, **PUBLISHED_D1A),
    ],
    ids=["paper", "clamped", "no_sigma_d"],
)
def test_concurrence_mc_sigma_matches_scalar_loop(rd):
    res = concurrence_restricted(rd, mc_samples=3000, seed=7)
    assert res.mc_sigma > 0.0
    assert res.mc_sigma == concurrence_mc_sigma_loop(rd, 3000, seed=7)


def test_concurrence_zero_coherence():
    rd = RestrictedDensity(p00=0.9, p01=0.05, p10=0.04, p11=0.01, d=0.0)
    assert concurrence_restricted(rd).concurrence == 0.0


def test_concurrence_maximally_entangled_single_excitation():
    rd = RestrictedDensity(p00=0.0, p01=0.5, p10=0.5, p11=0.0, d=0.5)
    res = concurrence_restricted(rd)
    assert abs(res.concurrence - 1.0) < 1e-12
    assert abs(res.eof - 1.0) < 1e-12


def test_separability_boundary():
    for d_over_bound in (0.2, 0.8, 0.999, 1.001, 1.5):
        p00, p11 = 0.9, 1e-4
        p01 = p10 = (1.0 - p00 - p11) / 2.0
        bound = math.sqrt(p00 * p11)
        d = min(d_over_bound * bound, math.sqrt(p01 * p10))
        rd = RestrictedDensity(p00=p00, p01=p01, p10=p10, p11=p11, d=d)
        c = concurrence_restricted(rd).concurrence
        assert (c > 0) == (d > bound)


def test_local_phase_invariance_of_concurrence():
    rd = random_restricted(np.random.default_rng(3))
    rotated = RestrictedDensity(
        p00=rd.p00, p01=rd.p01, p10=rd.p10, p11=rd.p11, d=rd.d * np.exp(1j * 0.83)
    )
    c0 = concurrence_restricted(rd).concurrence
    c1 = concurrence_restricted(rotated).concurrence
    assert abs(c0 - c1) < 1e-14


# ---------------------------------------------------------------------------
# spin-flip oracle


def test_wootters_bell_and_mixed():
    bell = np.zeros((4, 4), dtype=complex)
    bell[1, 1] = bell[2, 2] = 0.5
    bell[1, 2] = bell[2, 1] = 0.5
    assert abs(wootters_concurrence(bell) - 1.0) < 1e-12
    assert wootters_concurrence(np.eye(4) / 4.0) < 1e-12


def test_wootters_equals_restricted_on_x_form():
    rng = np.random.default_rng(4)
    for _ in range(500):
        rd = random_restricted(rng)
        direct = concurrence_restricted(rd).concurrence
        oracle = wootters_concurrence(normalized_matrix(rd))
        assert abs(direct - oracle) < 1e-10


def test_wootters_validates_input():
    with pytest.raises(ValueError):
        wootters_concurrence(np.eye(3) / 3.0)
    bad = np.diag([0.8, 0.4, -0.1, -0.1]).astype(complex)
    with pytest.raises(ValueError, match="positive"):
        wootters_concurrence(bad)


def test_eof_monotone():
    assert entanglement_of_formation(0.0) == 0.0
    assert abs(entanglement_of_formation(1.0) - 1.0) < 1e-12
    grid = np.linspace(1e-6, 1.0, 200)
    values = [entanglement_of_formation(float(c)) for c in grid]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert abs(binary_entropy(0.5) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# channel budget and back-propagation


def test_budget_totals_and_planes():
    assert abs(BUDGET.total("L") - 0.12544) < 1e-12
    assert abs(BUDGET.total("R") - 0.1456) < 1e-12
    alpha_z0, _ = BUDGET.segment("L", "detectors", "z0")
    assert abs(alpha_z0 - 0.32) < 1e-12
    alpha_z1, _ = BUDGET.segment("L", "detectors", "z1")
    assert abs(alpha_z1 - 0.32 * 0.70 * 0.70) < 1e-12
    with pytest.raises(ValueError, match="downstream"):
        BUDGET.segment("L", "z2", "z0")
    round_trip = ChannelBudget.from_dict(BUDGET.as_dict())
    assert round_trip.total("R") == BUDGET.total("R")


def test_budget_validation():
    with pytest.raises(ValueError, match="missing"):
        ChannelBudget(left={"fc": (0.8, 0.02)}, right=BUDGET.right)
    bad = dict(BUDGET.left)
    bad["apd"] = (0.0, 0.02)
    with pytest.raises(ValueError, match="transmission"):
        ChannelBudget(left=bad, right=BUDGET.right)


def test_backpropagate_identity_with_unit_budget():
    unit = ChannelBudget(
        left={k: (1.0, 0.0) for k in ("fc", "c", "f", "apd")},
        right={k: (1.0, 0.0) for k in ("fc", "c", "f", "apd")},
    )
    rd = _published_rd(PUBLISHED_D1A, 0.70, with_sigmas=False)
    out = backpropagate(rd, unit, "z2")
    for key in ("p00", "p01", "p10", "p11"):
        assert abs(getattr(out, key) - getattr(rd, key)) < 1e-12
    assert abs(out.d_abs - rd.d_abs) < 1e-12


def test_backpropagation_to_ensemble_plane_matches_published():
    rd_a = _published_rd(PUBLISHED_D1A, 0.70)
    out_a = backpropagate(rd_a, BUDGET, "z2")
    assert abs(out_a.p10 + out_a.p01 - 0.110) <= 0.005
    res_a = concurrence_restricted(out_a, herald="D1a")
    assert 0.015 <= res_a.concurrence <= 0.027
    assert 0.002 < res_a.sigma_concurrence < 0.012

    rd_b = _published_rd(PUBLISHED_D1B, 0.71)
    out_b = backpropagate(rd_b, BUDGET, "z2")
    assert abs(out_b.p10 + out_b.p01 - 0.110) <= 0.005
    res_b = concurrence_restricted(out_b, herald="D1b")
    assert 0.010 <= res_b.concurrence <= 0.022


def test_backpropagation_monotone_toward_source():
    rd = _published_rd(PUBLISHED_D1A, 0.70, with_sigmas=False)
    c_prev = concurrence_restricted(rd).concurrence
    for plane in ("z0", "z1", "z2"):
        c_here = concurrence_restricted(backpropagate(rd, BUDGET, plane)).concurrence
        assert c_here > c_prev
        c_prev = c_here


def test_backprop_inverts_forward_loss():
    # d-sector exactness is specific to the constant-visibility relation,
    # which stays inside the positivity cone for balanced attenuation; the
    # p-sector inverse is exact for any attenuation pair
    rng = np.random.default_rng(9)
    for _ in range(20):
        rd = random_restricted(rng, d_fraction=0.7)
        alpha = float(rng.uniform(0.15, 0.9))
        p10 = rd.p10 * alpha
        p01 = rd.p01 * alpha
        p11 = rd.p11 * alpha * alpha
        p00 = rd.p_tilde - p10 - p01 - p11
        vis = 2.0 * rd.d_abs / (rd.p10 + rd.p01)
        d_fwd = vis * (p10 + p01) / 2.0
        attenuated = RestrictedDensity(p00=p00, p01=p01, p10=p10, p11=p11, d=d_fwd)
        back = invert_attenuation(attenuated, alpha, alpha)
        for key in ("p00", "p01", "p10", "p11"):
            assert abs(getattr(back, key) - getattr(rd, key)) < 1e-10
        assert abs(back.d_abs - rd.d_abs) < 1e-10


def test_backprop_inverts_forward_loss_populations_asymmetric():
    rng = np.random.default_rng(10)
    for _ in range(20):
        rd = random_restricted(rng, d_fraction=0.0)
        alpha_l, alpha_r = rng.uniform(0.15, 0.9, size=2)
        p10 = rd.p10 * alpha_l
        p01 = rd.p01 * alpha_r
        p11 = rd.p11 * alpha_l * alpha_r
        p00 = rd.p_tilde - p10 - p01 - p11
        attenuated = RestrictedDensity(p00=p00, p01=p01, p10=p10, p11=p11, d=0.0)
        back = invert_attenuation(attenuated, alpha_l, alpha_r)
        for key in ("p00", "p01", "p10", "p11"):
            assert abs(getattr(back, key) - getattr(rd, key)) < 1e-10


def test_backprop_rejects_unphysical_budget():
    rd = RestrictedDensity(p00=0.5, p01=0.25, p10=0.25, p11=0.0, d=0.0)
    with pytest.raises(UnphysicalBudgetError):
        invert_attenuation(rd, 0.2, 0.2)


# ---------------------------------------------------------------------------
# witnesses


def test_witness_published_values():
    w_a = witnesses(_published_rd(PUBLISHED_D1A, 0.70))
    assert 0.26 <= w_a.h_c2 <= 0.34
    assert abs(w_a.h_c2 - 0.307) < 5e-4
    assert w_a.h_below_one
    w_b = witnesses(_published_rd(PUBLISHED_D1B, 0.71))
    assert 0.31 <= w_b.h_c2 <= 0.39
    assert abs(w_b.h_c2 - 0.350) < 5e-4


def test_witness_factorizable_statistics():
    # independent weak sources: p11 = p10 p01 exactly gives h = 1
    p10, p01 = 0.02, 0.03
    rd = RestrictedDensity(
        p00=1.0 - p10 - p01 - p10 * p01, p01=p01, p10=p10, p11=p10 * p01, d=0.0
    )
    w = witnesses(rd)
    assert abs(w.h_c2 - 1.0) < 1e-12


def test_witness_zero_denominator():
    rd = RestrictedDensity(p00=1.0, p01=0.0, p10=0.0, p11=0.0, d=0.0)
    with pytest.raises(ValueError):
        witnesses(rd)


# ---------------------------------------------------------------------------
# monotonicity under local operations


def test_locc_loss_on_bell_state():
    bell = np.zeros((4, 4), dtype=complex)
    bell[1, 1] = bell[2, 2] = 0.5
    bell[1, 2] = bell[2, 1] = 0.5
    after = local_attenuation(bell, 0.5, "L")
    check = locc_bound_check(bell, after)
    assert check.holds
    assert check.bound_after < check.c_before


def test_locc_local_phase_preserves_concurrence():
    rd = random_restricted(np.random.default_rng(6))
    before = normalized_matrix(rd)
    after = local_phase(before, 1.23, "R")
    check = locc_bound_check(before, after, tol=1e-12)
    assert check.holds
    assert abs(check.bound_after - check.c_before) < 1e-12


def test_locc_random_states_and_channels():
    rng = np.random.default_rng(7)
    for _ in range(50):
        rd = random_restricted(rng)
        before = normalized_matrix(rd)
        kind = rng.integers(0, 3)
        side = "L" if rng.integers(0, 2) == 0 else "R"
        if kind == 0:
            after = local_attenuation(before, float(rng.uniform()), side)
        elif kind == 1:
            after = local_phase(before, float(rng.uniform(0, 2 * math.pi)), side)
        else:
            after = local_attenuation(
                local_phase(before, float(rng.uniform(0, 2 * math.pi)), side),
                float(rng.uniform()),
                "L" if side == "R" else "R",
            )
        assert locc_bound_check(before, after).holds


def test_forward_pipeline_is_entanglement_monotone():
    cfg = config_from_dict(
        ideal_config_dict(
            ensembles={"L": {"chi": 5e-3, "xi": 0.4}, "R": {"chi": 5e-3, "xi": 0.4}},
            channel={
                "L": {"fc": [0.8, 0.02], "c": [0.7, 0.02], "f": [0.7, 0.02], "apd": [0.32, 0.02]},
                "R": {"fc": [0.8, 0.02], "c": [0.65, 0.02], "f": [0.7, 0.02], "apd": [0.4, 0.02]},
            },
        )
    )
    result = full_experiment(cfg)
    lb_atomic = concurrence_restricted(restrict(result.atomic)).lower_bound
    lb_z2 = concurrence_restricted(restrict(result.z2)).lower_bound
    lb_z0 = concurrence_restricted(restrict(result.z0)).lower_bound
    assert lb_z2 <= lb_atomic + 1e-9
    assert lb_z0 <= lb_z2 + 1e-9
