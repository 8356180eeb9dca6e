"""In-process workloads: one client calling the public dlczsim API in a
closed loop (the next call starts when the previous one returns).

    python3 perfbench/worker.py --workload sweep_c3 --seed 1 --seconds 10 [--trace] [--setup-only]

Protocol with ``run.py``: after import, preset load, input generation and
one warm-up call the worker prints ``ready <input generation seconds>``; the
parent times the set-up from the spawn to that line, minus input generation.
Unless ``--setup-only``, it then runs the timed loop and prints one JSON
object as its last line.

Workloads:

* ``sweep_c3`` -- calibration traffic: ``full_experiment`` at cutoff 3 on
  paper-preset variants (chi, xi, overlap random; herald alternating), so
  every call builds a new heralding beam splitter.
* ``sweep_c5`` -- the same call at the schema maximum cutoff 5 with the
  splitter geometry fixed (chi, xi, phi random), so the beam-splitter cache
  hits and the Fock-space kernels dominate.
* ``analysis_chain`` -- coverage traffic: the body of ``analyze --mle
  --plane z2`` on count records sampled from random restricted states.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import resource
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from dlczsim import config as cfg
from dlczsim import detection, entanglement, fock, layouts, pipeline, tomography

from tracing import SAME_RTOL, Tracer, summarize

# criterion-6 detector efficiencies
CHAIN_EFF = dict(eta_l=0.392, eta_r=0.364, eta_1=0.32, eta_2=0.40, eta_3=0.40)
CHAIN_DIAG_TRIALS = 10**7
CHAIN_PHASES = np.linspace(0.0, 2.0 * math.pi, 13)
CHAIN_POOL = 48
PULL_LIMIT = 5.0


def _paper(cutoff: int):
    data = cfg.preset_dict("paper")
    data["cutoff"] = cutoff
    return cfg.config_from_dict(data)


class Sweep:
    """``full_experiment`` on seeded paper-preset variants."""

    def __init__(self, cutoff: int, vary_overlap: bool):
        self.cutoff = cutoff
        self.vary_overlap = vary_overlap

    def setup(self, seed: int, pool: int):
        self.base = _paper(self.cutoff)
        return 0

    def inputs(self, seed: int):
        rng = np.random.default_rng(seed)
        base = self.base
        for i in itertools.count():
            chi = rng.uniform(0.05, 0.3, 2)
            xi = rng.uniform(0.05, 0.5, 2)
            config = replace(
                base,
                left=replace(base.left, chi=float(chi[0]), xi=float(xi[0])),
                right=replace(base.right, chi=float(chi[1]), xi=float(xi[1])),
            )
            if self.vary_overlap:
                inter = replace(base.interferometer, overlap=float(rng.uniform(0.3, 1.0)))
                which = "D1a" if i % 2 == 0 else "D1b"
            else:
                inter = replace(base.interferometer, phi=float(rng.uniform(0.0, 2.0 * math.pi)))
                which = None
            yield replace(config, interferometer=inter), which

    def warmup(self):
        pipeline.full_experiment(self.base)

    def run(self, item):
        config, which = item
        return pipeline.full_experiment(config, which=which)

    @staticmethod
    def check(item, result) -> list[str]:
        problems = []
        if not 0.0 < result.herald_probability <= 1.0:
            problems.append(f"herald probability {result.herald_probability}")
        dists = [result.herald_patterns, result.diagonal_probs] + [p for _, p in result.fringe_probs]
        for dist in dists:
            values = list(dist.probabilities.values())
            if abs(math.fsum(values) - 1.0) > 1e-12:
                problems.append(f"pattern distribution sums to {math.fsum(values)!r}")
            if min(values) < -1e-15:
                problems.append(f"negative pattern probability {min(values)!r}")
        return problems

    @staticmethod
    def fingerprint(result) -> np.ndarray:
        values = [result.herald_probability]
        for dist in [result.herald_patterns, result.diagonal_probs] + [p for _, p in result.fringe_probs]:
            values.extend(v for _, v in sorted(dist.probabilities.items()))
        return np.concatenate([np.array(values), result.z0.matrix.ravel().view(float)])


@dataclass(frozen=True)
class ChainInput:
    truth: tomography.RestrictedDensity
    sigmas: dict  # estimator sigmas at the generating state
    diag: detection.CountRecord
    fringe: list
    seed: int


class AnalysisChain:
    """Two-stage tomography, concurrence, back-propagation and MLE on count
    records sampled from random restricted states (criterion 6 of the
    acceptance suite, efficiencies included)."""

    quoted_sigma_pulls = 0  # calls with a pull >= PULL_LIMIT quoted sigmas

    def setup(self, seed: int, pool: int):
        self.eff = tomography.EfficiencyModel(**CHAIN_EFF)
        self.budget = _paper(3).budget
        start = perf_counter()
        rng = np.random.default_rng(seed)
        self.pool = [self._make_input(rng) for _ in range(pool)]
        return perf_counter() - start

    def _make_input(self, rng):
        # a random restricted state at the ensemble edge (z2) attenuated
        # through the paper channel budget, so that back-propagation to z2
        # stays physical; then exact layout probabilities and sampling
        p00 = rng.uniform(0.6, 0.97)
        p01, p10, p11 = rng.dirichlet([2.0, 2.0, 1.0]) * (1.0 - p00)
        d = rng.uniform(0.2, 0.95) * math.sqrt(p01 * p10) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        register = fock.ModeRegister(2, 2)
        mat = np.zeros((register.dim, register.dim), dtype=complex)
        for occ, p in (((0, 0), p00), ((0, 1), p01), ((1, 0), p10), ((1, 1), p11)):
            mat[register.index(occ), register.index(occ)] = p
        i01, i10 = register.index((0, 1)), register.index((1, 0))
        mat[i01, i10] = d
        mat[i10, i01] = np.conj(d)
        rho = fock.DensityOperator(register, mat)
        rho = fock.apply_loss(rho, self.budget.total("L"), 0)
        rho = fock.apply_loss(rho, self.budget.total("R"), 1)
        eff = self.eff
        sample_seed = int(rng.integers(2**31))
        per_phase = CHAIN_DIAG_TRIALS // len(CHAIN_PHASES)
        diag_probs = layouts.diagonal_layout_probabilities(rho, eff.d2a, eff.d2b, eff.d2c, eff.split)
        fringe_probs = [
            (float(phi), layouts.fringe_layout_probabilities(rho, float(phi), eff.d2a, eff.d2b, eff.d2c, eff.split, eff.bs2_T))
            for phi in CHAIN_PHASES
        ]
        diag = detection.sample_counts(diag_probs, CHAIN_DIAG_TRIALS, sample_seed, stream=0)
        fringe = [
            detection.sample_counts(probs, per_phase, sample_seed, stream=1 + k, phase=phi)
            for k, (phi, probs) in enumerate(fringe_probs)
        ]
        return ChainInput(tomography.restrict(rho), self._sigmas_at_truth(diag_probs, fringe_probs), diag, fringe, sample_seed)

    def _sigmas_at_truth(self, diag_probs, fringe_probs) -> dict[str, float]:
        """Uncertainties the estimators assign to noise-free (expected)
        counts of the generating state.

        The sigmas the program quotes come from the observed counts; when a
        sparse class fluctuates low they shrink with it, so a 3-sigma Poisson
        fluctuation of the p11 class can read as a 5-sigma pull.  Pulls are
        therefore taken against these sigmas, and the quoted ones are tallied
        separately.
        """
        eff = self.eff
        classes = detection.aggregate_split_detector(diag_probs, layouts.SPLIT_PAIR)
        expected = tomography.AggregatedCounts(
            counts={k: p * CHAIN_DIAG_TRIALS for k, p in classes.items()}, trials=CHAIN_DIAG_TRIALS
        )
        est = tomography.invert_diagonal(expected, eff)
        per_phase = CHAIN_DIAG_TRIALS // len(CHAIN_PHASES)
        records = [_expected_record(probs, per_phase, phi) for phi, probs in fringe_probs]
        fit = tomography.fit_fringe(tomography.FringeScan(records))
        coherence = tomography.estimate_coherence(fit.visibility, est, eff, "full", fit.sigma_visibility)
        return {**{k: est.sigmas[k] for k in ("p00", "p01", "p10", "p11")}, "d": coherence.sigma}

    def inputs(self, seed: int):
        return itertools.cycle(self.pool)

    def warmup(self):
        self.run(self.pool[0])

    def run(self, item):
        diag, fringe, seed = item.diag, item.fringe, item.seed
        tom, ent, eff = tomography, entanglement, self.eff
        est = tom.invert_diagonal(tom.AggregatedCounts.from_record(diag), eff, bootstrap=200, seed=seed)
        fit = tom.fit_fringe(tom.FringeScan(fringe))
        coherence = tom.estimate_coherence(fit.visibility, est, eff, "full", fit.sigma_visibility)
        rd = tom.assemble_restricted(est, coherence, fit.phase0)
        conc = ent.concurrence_restricted(rd, herald="D1a", mc_samples=10000, seed=seed)
        report = ent.witnesses(rd)
        mle = tom.mle_fit([diag], fringe, eff, tom.MLEOptions(), initial=rd)
        ll_two_stage = tom.log_likelihood(tom.two_stage_block(rd), [diag], fringe, eff)
        conc_mle = ent.concurrence_restricted(mle.restricted)
        conc_det = ent.concurrence_restricted(rd, herald="D1a")
        rd_z2 = ent.backpropagate(rd, self.budget, "z2")
        conc_z2 = ent.concurrence_restricted(rd_z2, herald="D1a")
        return {
            "estimate": est,
            "coherence": coherence,
            "mle": mle,
            "ll_two_stage": ll_two_stage,
            "values": [
                *(est[k] for k in tomography.DIAG_KEYS),
                fit.visibility,
                coherence.d_abs,
                conc.concurrence,
                conc.mc_sigma,
                report.h_c2,
                mle.log_likelihood,
                ll_two_stage,
                conc_mle.concurrence,
                conc_det.concurrence,
                rd_z2.p11,
                conc_z2.concurrence,
            ],
        }

    def check(self, item, out) -> list[str]:
        truth, sigmas = item.truth, item.sigmas
        est, coherence = out["estimate"], out["coherence"]
        problems = []
        pulls = {key: (est[key] - getattr(truth, key), est.sigmas[key]) for key in ("p00", "p01", "p10", "p11")}
        pulls["d"] = (coherence.d_abs - truth.d_abs, coherence.sigma)
        # not a failure: see _sigmas_at_truth
        self.quoted_sigma_pulls += any(abs(diff) >= PULL_LIMIT * quoted for diff, quoted in pulls.values())
        for key, (diff, _) in pulls.items():
            if not abs(diff) < PULL_LIMIT * sigmas[key]:
                problems.append(f"{key} pull {diff / sigmas[key]:.2f}")
        if not out["mle"].log_likelihood >= out["ll_two_stage"] - 1e-9:
            problems.append("MLE log-likelihood below the two-stage value")
        return problems

    @staticmethod
    def fingerprint(out) -> np.ndarray:
        return np.array(out["values"], dtype=float)


def _expected_record(probs, trials: int, phase: float) -> detection.CountRecord:
    """Count record closest to the expected counts (largest remainders)."""
    patterns = sorted(probs.probabilities)
    exact = np.array([max(probs.probabilities[p], 0.0) for p in patterns]) * trials
    counts = np.floor(exact).astype(int)
    for i in np.argsort(counts - exact)[: trials - counts.sum()]:
        counts[i] += 1
    tally = {p: int(n) for p, n in zip(patterns, counts)}
    return detection.CountRecord(tuple(probs.detector_ids), trials, tally, phase=phase)


WORKLOADS = {
    "sweep_c3": lambda: Sweep(cutoff=3, vary_overlap=True),
    "sweep_c5": lambda: Sweep(cutoff=5, vary_overlap=False),
    "analysis_chain": AnalysisChain,
}


def _timed(workload, item):
    start = perf_counter()
    try:
        out = workload.run(item)
    except Exception as exc:  # noqa: BLE001 - a raise is a failed operation
        return perf_counter() - start, None, [f"{type(exc).__name__}: {exc!r}"]
    elapsed = perf_counter() - start
    try:
        return elapsed, out, workload.check(item, out)
    except Exception as exc:  # noqa: BLE001 - an output the check cannot read fails it
        return elapsed, None, [f"check: {type(exc).__name__}: {exc!r}"]


def _loop(workload, items, seconds: float, tracer: Tracer | None = None):
    """Closed loop for ``seconds`` (at least one call)."""
    latencies, failures, outputs = [], [], []
    deadline = perf_counter() + seconds
    for item in items:
        if tracer is not None:
            tracer.op = len(latencies) + 1
        elapsed, out, problems = _timed(workload, item)
        latencies.append(elapsed)
        outputs.append(None if out is None else workload.fingerprint(out))
        if problems:
            failures.append(problems)
        if perf_counter() >= deadline:
            break
    return latencies, failures, outputs


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]()
    gen_s = workload.setup(args.seed, 1 if args.setup_only else CHAIN_POOL)
    workload.warmup()
    print(f"ready {gen_s!r}", flush=True)
    if args.setup_only:
        return 0

    result = {}
    if not args.trace:
        misses = fock.beamsplitter_unitary.cache_info().misses
        latencies, failures, _ = _loop(workload, workload.inputs(args.seed), args.seconds)
        result["bs_unitary_misses"] = fock.beamsplitter_unitary.cache_info().misses - misses
    else:
        # untraced reference calls, then the same inputs again under tracing
        # (both start from the same beam-splitter cache state)
        ref_seconds = min(2.0, args.seconds / 5.0)
        fock.beamsplitter_unitary.cache_clear()
        workload.warmup()
        ref_lat, _, ref_out = _loop(workload, workload.inputs(args.seed), ref_seconds)
        tracer = Tracer()
        tracer.install()
        for _ in range(3):  # traced preset loads, op 0
            cfg.config_from_dict(cfg.preset_dict("paper"))
        fock.beamsplitter_unitary.cache_clear()
        workload.warmup()
        misses = fock.beamsplitter_unitary.cache_info().misses
        latencies, failures, outputs = _loop(workload, workload.inputs(args.seed), args.seconds, tracer)
        n_ref = min(len(ref_lat), len(latencies))
        pairs = [(a, b) for a, b in zip(ref_out[:n_ref], outputs[:n_ref]) if a is not None and b is not None]
        same = len(pairs) == n_ref and all(
            a.shape == b.shape and np.allclose(a, b, rtol=SAME_RTOL, atol=0.0) for a, b in pairs
        )
        result["identical"] = sum(a.shape == b.shape and np.array_equal(a, b) for a, b in pairs)
        walls = {(0, op + 1): lat for op, lat in enumerate(latencies)}
        layers = summarize([{"spans": tracer.spans, "counts": tracer.counts}], walls)
        layers["fock.bs_unitary_misses"] = (fock.beamsplitter_unitary.cache_info().misses - misses) / len(latencies)
        layers["trace.overhead_ratio"] = sum(latencies[:n_ref]) / sum(ref_lat[:n_ref])
        result.update(layers=layers, same_outputs=same, compared=n_ref)
        if args.spans is not None:
            tracer.dump(args.spans, workload=args.workload, seed=args.seed)
    result.update(
        latencies=latencies,
        failures=failures[:5],
        failed=len(failures),
        maxrss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        quoted_sigma_pulls=getattr(workload, "quoted_sigma_pulls", None),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
