"""Command-line front end.

Commands
--------
simulate     forward-run the experiment, write state snapshots, exact
             detector probabilities and (optionally) synthetic count records
fringe-scan  two-herald phase scan of the interference layout, fitted
             visibilities included
analyze      two-stage tomography (+ optional maximum-likelihood cross-check)
             of count records, concurrence and witnesses, optional loss
             back-propagation
backprop     invert the channel budget for a quoted restricted state

Exit codes: 0 success; 2 configuration/schema errors; 3 record-integrity
errors; 4 fit/convergence failures; 5 unphysical physics inputs (budget,
heralding or restricted state).  All randomness derives from the configured
seed via named substreams, so identical config+seed reproduce byte-identical
outputs.
"""

from __future__ import annotations

import os

# One BLAS thread per command unless the user chose a count (OpenBLAS reads all
# three variables).  Set before numpy loads; child processes inherit it.
if not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import hashlib
import json
import math
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import click
import numpy as np

from . import __version__
from .config import (
    HERALDS,
    LAYOUTS,
    MAX_TRIALS,
    PLANES,
    PRESETS,
    ConfigError,
    ExperimentConfig,
    config_from_dict,
    config_hash,
    load_config_dict,
    preset_dict,
    read_json,
)
from .detection import (
    CountRecord,
    RecordIntegrityError,
    read_count_records_csv,
    read_count_records_json,
    write_count_records_csv,
    write_count_records_json,
)
from .detection import merge_counts  # noqa: F401 - bound here for the benchmark's layer tracer
from .entanglement import PLANE_HEADER, UnphysicalBudgetError, analyze_records, plane_table
from .entanglement import backpropagate, concurrence_restricted, witnesses  # noqa: F401 - bound here for the benchmark's layer tracer
from .layouts import D2_IDS, PATTERNS
from .pipeline import (
    full_experiment,
    g12_report,
    sample_diagonal_records,
    sample_fringe_records,
)
from .protocol import HeraldError
from .tomography import (
    DIAG_KEYS,
    DataQualityError,
    FringeScan,
    InconsistentCountsError,
    MLEConvergenceError,
    RestrictedDensity,
    UnphysicalStateError,
    arm_clicks,
    coherence_from_visibility,
    fit_fringe,
    pattern_counts,
)
from .tomography import assemble_restricted, estimate_coherence, invert_diagonal, log_likelihood, mle_fit, two_stage_block  # noqa: F401 - bound here for the benchmark's layer tracer

EXIT_CONFIG = 2
EXIT_INTEGRITY = 3
EXIT_FIT = 4
EXIT_PHYSICS = 5

_ERROR_CODES: tuple[tuple[type, int], ...] = (
    (ConfigError, EXIT_CONFIG),
    (RecordIntegrityError, EXIT_INTEGRITY),
    (InconsistentCountsError, EXIT_INTEGRITY),
    (DataQualityError, EXIT_FIT),
    (MLEConvergenceError, EXIT_FIT),
    (UnphysicalBudgetError, EXIT_PHYSICS),
    (UnphysicalStateError, EXIT_PHYSICS),
    (HeraldError, EXIT_PHYSICS),
)


def _fail(exc: Exception) -> "SystemExit":
    for klass, code in _ERROR_CODES:
        if isinstance(exc, klass):
            click.echo(f"error: {exc}", err=True)
            return SystemExit(code)
    raise exc


class _Main(click.Group):
    """Maps the errors of every command to their exit codes."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except Exception as exc:  # noqa: BLE001 - mapped to exit codes
            raise _fail(exc)


def _load_config(
    config_path: str | None, preset: str, seed: int | None = None, trials: int | None = None, herald: str | None = None
) -> tuple[ExperimentConfig, dict]:
    """The typed config of ``--config`` (else ``--preset``) with the given
    overrides, and the config data the manifest hashes."""
    data = load_config_dict(config_path) if config_path is not None else preset_dict(preset)
    config = config_from_dict(data)
    overrides = {key: value for key, value in (("seed", seed), ("trials", trials)) if value is not None}
    if herald is not None:
        overrides["herald"] = replace(config.herald, which=herald)
    return replace(config, **overrides), data


def _per_phase(config: ExperimentConfig) -> int:
    """Heralded trials per phase point of a sampled fringe scan."""
    return max(config.trials // len(config.fringe_phases), 1)


class _Outputs:
    """Collects written files for the run manifest."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.files: list[Path] = []
        out_dir.mkdir(parents=True, exist_ok=True)

    def path(self, name: str) -> Path:
        p = self.out_dir / name
        self.files.append(p)
        return p

    def write_json(self, name: str, payload) -> Path:
        p = self.path(name)
        p.write_text(json.dumps(_round_floats(payload), indent=2, sort_keys=True) + "\n")
        return p

    def write_csv(self, name: str, header: list[str], rows: list[list]) -> Path:
        p = self.path(name)
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(_csv_cell(c) for c in row))
        p.write_text("\n".join(lines) + "\n")
        return p

    def manifest(self, command: str, config_data: dict | None) -> None:
        entries = []
        for p in self.files:
            digest = hashlib.sha256(p.read_bytes()).hexdigest()
            entries.append({"path": p.name, "sha256": digest})
        payload = {
            "tool": "dlczsim",
            "version": __version__,
            "command": command,
            "config_sha256": config_hash(config_data) if config_data is not None else None,
            "created_utc": datetime.now(timezone.utc).isoformat(),
            "outputs": entries,
        }
        (self.out_dir / "manifest.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _round_sig(x: float, sig: int = 12) -> float:
    x = float(x)  # numpy scalars round by scale-and-rint, Python floats correctly
    if x == 0.0 or not math.isfinite(x):
        return x
    return round(x, sig - 1 - math.floor(math.log10(abs(x))))


def _round_floats(obj, sig: int = 12):
    """Round every float in a JSON-ready payload to ``sig`` significant
    digits, the data files' format: a change that only reorders a sum keeps
    their bytes."""
    if isinstance(obj, float):
        return _round_sig(obj, sig)
    if isinstance(obj, dict):
        return {k: _round_floats(v, sig) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v, sig) for v in obj]
    return obj


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return repr(_round_sig(value))
    return str(value)


def _density_payload(rho) -> dict:
    return {
        "register": {"n_modes": rho.register.n_modes, "cutoff": rho.register.cutoff},
        "matrix_re": np.real(rho.matrix).tolist(),
        "matrix_im": np.imag(rho.matrix).tolist(),
    }


@click.group(cls=_Main)
@click.version_option(version=__version__, prog_name="dlczsim")
def main() -> None:
    """Simulation and verification pipeline for heralded entanglement of two
    remote atomic ensembles."""


_CONFIG = click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False), default=None, help="Experiment config JSON (overrides --preset).")
_PRESET = click.option("--preset", type=click.Choice(PRESETS), default="paper", show_default=True, help="Bundled configuration preset (paper_w120: the 120 ns detection window).")
_OUT = click.option("--out", "out_dir", type=click.Path(file_okay=False), default="out", show_default=True, help="Output directory.")
_SEED = click.option("--seed", type=click.IntRange(min=0), default=None, help="Override config seed.")
_TRIALS = click.option("--trials", type=click.IntRange(0, MAX_TRIALS), default=None, help="Override config trials.")
# case-insensitive, and click hands over the canonical spelling
_HERALD = click.option("--herald", type=click.Choice(HERALDS, case_sensitive=False), default=None, help="Override heralding detector.")


def _with_options(*options):
    """Apply --config, --preset and --out, then ``options``, in help order."""

    def decorate(fn):
        for opt in reversed((_CONFIG, _PRESET, _OUT, *options)):
            fn = opt(fn)
        return fn

    return decorate


@main.command()
@_with_options(_SEED, _TRIALS, _HERALD)
@click.option("--layout", type=click.Choice([*LAYOUTS, "both"]), default=None, help="Override configured detector layout (or emit both).")
def simulate(config_path, preset, out_dir, seed, trials, herald, layout):
    """Forward simulation: states, probabilities, optional synthetic counts."""
    config, data = _load_config(config_path, preset, seed=seed, trials=trials, herald=herald)
    layouts = set(LAYOUTS) if layout == "both" else {layout or config.layout}
    out = _Outputs(Path(out_dir))
    result = full_experiment(config)

    out.write_json("state_atomic.json", _density_payload(result.atomic))
    out.write_json("state_z2.json", _density_payload(result.z2))
    out.write_json("state_z1.json", _density_payload(result.z1))
    out.write_json("state_z0.json", _density_payload(result.z0))
    out.write_json(
        "herald.json",
        {
            "which": result.herald_which,
            "probability": result.herald_probability,
            "patterns": {"".join(map(str, k)): v for k, v in result.herald_patterns.items()},
        },
    )

    rows = [["".join(map(str, pattern)), p] for pattern, p in sorted(result.diagonal_probs.items())]
    out.write_csv("probs_diagonal.csv", ["pattern_bits", "probability"], rows)
    rows = []
    for phi, probs in result.fringe_probs:
        for pattern, p in sorted(probs.items()):
            rows.append([phi, "".join(map(str, pattern)), p])
    out.write_csv("probs_fringe.csv", ["phase_phi_radians", "pattern_bits", "probability"], rows)

    if config.trials > 0:
        if "diagonal" in layouts:
            rec = sample_diagonal_records(result, config.trials, config.seed)
            write_count_records_csv([rec], out.path("counts_diagonal.csv"))
            write_count_records_json([rec], out.path("counts_diagonal.json"))
        if "fringe" in layouts:
            recs = sample_fringe_records(result, _per_phase(config), config.seed)
            write_count_records_csv(recs, out.path("counts_fringe.csv"))
            write_count_records_json(recs, out.path("counts_fringe.json"))

    g12 = g12_report(config)
    out.write_json(
        "g12.json",
        {side: {"p1": s.p1, "p2": s.p2, "p12": s.p12, "g12": s.g12} for side, s in g12.items()},
    )
    out.manifest("simulate", data)
    click.echo(f"herald {result.herald_which}: probability {result.herald_probability:.4e}")
    click.echo(f"outputs in {out.out_dir}")


@main.command("fringe-scan")
@_with_options(_SEED, _TRIALS)
def fringe_scan(config_path, preset, out_dir, seed, trials):
    """Two-herald phase scan of the interference layout."""
    config, data = _load_config(config_path, preset, seed=seed, trials=trials)
    out = _Outputs(Path(out_dir))
    rows = []
    fits = {}
    for which in HERALDS:
        result = full_experiment(config, which=which)
        phis = [phi for phi, _ in result.fringe_probs]
        if config.trials:  # counts of sampled records, else the exact probabilities
            records = sample_fringe_records(result, _per_phase(config), config.seed)
            arms, trials = arm_clicks(pattern_counts(records)), [rec.trials for rec in records]
            fits[which] = fit_fringe(FringeScan(records)).as_dict()
        else:
            arms = arm_clicks(np.array([[probs[pattern] for pattern in PATTERNS] for _, probs in result.fringe_probs]))
            trials = [0] * len(phis)
        rows += [[which, phi, n2a, n2bc, n] for phi, (n2a, n2bc), n in zip(phis, arms.tolist(), trials)]
    out.write_csv("fringe_scan.csv", ["herald", "phase_phi_radians", "n2a", "n2b_plus_n2c", "trials"], rows)
    if fits:
        delta = abs(fits["D1a"]["phase0"] - fits["D1b"]["phase0"])
        fits["phase_offset_minus_pi"] = abs(delta - np.pi)
        out.write_json("fringe_fits.json", fits)
        for which in HERALDS:
            click.echo(
                f"{which}: V = {fits[which]['visibility']:.4f} "
                f"+- {fits[which]['sigma_visibility']:.4f}"
            )
    out.manifest("fringe-scan", data)
    click.echo(f"outputs in {out.out_dir}")


def _read_records(path: Path) -> list[CountRecord]:
    if not path.is_file():  # a name under --records; click checks --diag and --fringe
        raise ConfigError(f"no count record file {path}")
    if path.suffix == ".json":
        return read_count_records_json(path)
    return read_count_records_csv(path, detector_ids=D2_IDS)


@main.command()
@_with_options(_SEED, _HERALD)
@click.option("--records", "records_dir", type=click.Path(file_okay=False, exists=True), default=None, help="Directory with counts_diagonal.json and counts_fringe.json (as written by simulate).")
@click.option("--diag", "diag_path", type=click.Path(dir_okay=False, exists=True), default=None, help="Diagonal-layout count records (CSV or JSON).")
@click.option("--fringe", "fringe_path", type=click.Path(dir_okay=False, exists=True), default=None, help="Fringe-layout count records (CSV or JSON).")
@click.option("--plane", type=click.Choice(list(PLANES)), default="detectors", show_default=True, help="Reference plane for the reported state (losses inverted through the budget).")
@click.option("--mle", is_flag=True, help="Run the joint maximum-likelihood cross-check.")
@click.option("--coherence-mode", type=click.Choice(["simplified", "full"]), default="full", show_default=True)
def analyze(config_path, preset, out_dir, seed, herald, records_dir, diag_path, fringe_path, plane, mle, coherence_mode):
    """Two-stage tomography and concurrence from count records.

    Populations are quoted in the unit-detection-efficiency convention of the
    raw records (the conservative choice); --plane re-references them through
    the channel budget.
    """
    config, data = _load_config(config_path, preset, seed=seed, herald=herald)
    if records_dir is None and (diag_path is None or fringe_path is None):
        raise ConfigError("analyze needs --records DIR or both --diag and --fringe")
    if records_dir is not None:
        diag_path = diag_path or str(Path(records_dir) / "counts_diagonal.json")
        fringe_path = fringe_path or str(Path(records_dir) / "counts_fringe.json")
    diag_records = _read_records(Path(diag_path))
    fringe_records = _read_records(Path(fringe_path))
    out = _Outputs(Path(out_dir))
    payload, rows = analyze_records(
        diag_records, fringe_records, config.detectors, config.budget,
        herald=config.herald.which, seed=config.seed, plane=plane, mle=mle, coherence_mode=coherence_mode,
    )
    out.write_json("tomography_result.json", payload)
    out.write_csv("concurrence_planes.csv", PLANE_HEADER, rows)
    out.manifest("analyze", data)

    fit, coherence, report, conc = (payload[key] for key in ("visibility", "coherence", "witnesses", "concurrence"))
    click.echo(f"herald {payload['herald']} | reference: detectors, unit detection efficiency")
    for key in DIAG_KEYS:
        click.echo(f"  {key} = {payload['populations'][key]:.5e} +- {payload['sigmas'][key]:.1e}")
    click.echo(f"  V = {fit['visibility']:.4f} +- {fit['sigma_visibility']:.4f}")
    click.echo(f"  |d| = {coherence['d_abs']:.4e} +- {coherence['sigma']:.1e} ({coherence['mode']})")
    click.echo(f"  h_c2 = {report['h_c2']:.4f} +- {report['sigma_h_c2']:.4f}")
    click.echo(f"  C = {conc['concurrence']:.4e} +- {conc['sigma_concurrence']:.1e}  (P~C = {conc['lower_bound']:.4e})")
    if plane != "detectors":
        conc_t = payload["planes"][plane]["concurrence"]
        click.echo(f"  C at {plane} = {conc_t['concurrence']:.4e} +- {conc_t['sigma_concurrence']:.1e}")
    if mle:
        click.echo(f"  MLE: logL = {payload['mle']['log_likelihood']:.2f} (two-stage {payload['mle']['log_likelihood_two_stage']:.2f})")
    click.echo(f"outputs in {out.out_dir}")


_NUMBER = {"type": "number"}
_SIGMA = {"type": "number", "minimum": 0}
_RESULT_SCHEMA = {  # what backprop reads of an analyze result
    "type": "object",
    "properties": {
        "populations": {"type": "object", "properties": dict.fromkeys(DIAG_KEYS[:4], _NUMBER), "required": list(DIAG_KEYS[:4])},
        "sigmas": {"type": "object", "properties": dict.fromkeys(DIAG_KEYS[:4], _SIGMA)},
        "coherence": {"type": "object", "properties": {"d_abs": _NUMBER, "sigma": _SIGMA}, "required": ["d_abs", "sigma"]},
        "flags": {"type": "array", "items": {"type": "string"}},
        "herald": {"enum": list(HERALDS)},
    },
    "required": ["populations", "coherence"],
}


def _read_result(path: Path) -> tuple[dict, str | None]:
    """The restricted state (populations, |d|, sigmas and flags, as
    ``RestrictedDensity.clamped`` takes them) and the herald label of an
    ``analyze`` result file."""
    payload = read_json(path, _RESULT_SCHEMA, RecordIntegrityError)
    keys, given, coherence = DIAG_KEYS[:4], payload.get("sigmas", {}), payload["coherence"]
    sigmas = {key: given[key] for key in keys if key in given} | {"d": coherence["sigma"]}
    pops = {key: payload["populations"][key] for key in keys}
    return {**pops, "d_abs": coherence["d_abs"], "sigmas": sigmas, "flags": payload.get("flags", [])}, payload.get("herald")


@main.command()
@_with_options(_HERALD)
@click.option("--result", "result_path", type=click.Path(dir_okay=False, exists=True), default=None, help="tomography_result.json from analyze.")
@click.option("--plane", type=click.Choice(list(PLANES)[1:]), default="z2", show_default=True)  # upstream of the detectors
@click.option("--p00", type=float, default=None)
@click.option("--p01", type=float, default=None)
@click.option("--p10", type=float, default=None)
@click.option("--p11", type=float, default=None)
@click.option("--visibility", "-v", "vis", type=float, default=None, help="Fringe visibility fixing the coherence via |d| = V (p10+p01)/2.")
def backprop(config_path, preset, out_dir, herald, result_path, plane, p00, p01, p10, p11, vis):
    """Back-propagate a restricted state through the channel budget."""
    config, data = _load_config(config_path, preset, herald=herald)
    direct = [p00, p01, p10, p11, vis]
    if result_path is not None:
        quoted, herald_label = _read_result(Path(result_path))
    elif all(v is not None for v in direct):
        quoted, herald_label = {"p00": p00, "p01": p01, "p10": p10, "p11": p11, "d_abs": coherence_from_visibility(vis, p10, p01)}, None
    else:
        raise ConfigError("backprop needs --result or all of --p00/--p01/--p10/--p11/--visibility")
    rd = RestrictedDensity.clamped(**quoted)
    herald_label = herald_label or config.herald.which

    out = _Outputs(Path(out_dir))
    payload, rows = plane_table(rd, config.budget, PLANES, herald_label)
    state, conc = payload[plane]["state"], payload[plane]["concurrence"]
    click.echo(
        f"{plane}: C = {conc['concurrence']:.4e} +- {conc['sigma_concurrence']:.1e}, "
        f"p10+p01 = {state['p10'] + state['p01']:.4f}"
    )
    out.write_json("backprop.json", payload)
    out.write_csv("concurrence_planes.csv", PLANE_HEADER, rows)
    out.manifest("backprop", data)
    click.echo(f"outputs in {out.out_dir}")


if __name__ == "__main__":
    main()
