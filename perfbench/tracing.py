"""Layer tracing for the benchmark's traced runs.

A traced run replaces public dlczsim functions with timing wrappers at the
module attributes their callers look up (``dlczsim.pipeline.herald``,
``dlczsim.cli.mle_fit``, ...).  Each call records a span
``[name, start, end, parent, op]``: ``parent`` is the index of the enclosing
span (-1 for none) and ``op`` the operation id (0 for set-up).  Spans stay in
memory and are written out when the run ends.  A span's self time is its
duration minus the time its child spans cover.

This module imports nothing from dlczsim at import time, so the traced CLI
runner can time the dlczsim import itself.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# Traced outputs must match untraced ones on the same inputs to this relative
# tolerance.  The program's outputs are not byte-identical from run to run
# (analyze differs in the 11th-12th digit), so exact equality would test its
# determinism rather than the wrappers; bitwise agreement is reported apart.
SAME_RTOL = 1e-9

# (module, attribute, span name).  The same function is wrapped at every
# module that binds it, so the CLI, the pipeline and the benchmark's own
# in-process calls are all traced.
_PIPELINE_SITES = [
    ("dlczsim.pipeline", "write_stage", "protocol.write_stage"),
    ("dlczsim.pipeline", "herald_probabilities", "protocol.herald"),
    ("dlczsim.pipeline", "herald", "protocol.herald"),
    ("dlczsim.pipeline", "read_stage", "protocol.read_stage"),
    ("dlczsim.pipeline", "field_pair_statistics", "protocol.field_pair_statistics"),
    ("dlczsim.pipeline", "apply_loss", "fock.apply_loss"),
    ("dlczsim.pipeline", "diagonal_layout_probabilities", "layouts.diagonal"),
    ("dlczsim.pipeline", "fringe_layout_probabilities", "layouts.fringe"),
    ("dlczsim.pipeline", "sample_counts", "detection.sample"),
    ("dlczsim.tomography", "diagonal_layout_probabilities", "layouts.diagonal"),
    ("dlczsim.tomography", "fringe_layout_probabilities", "layouts.fringe"),
]

# Entry points called by the CLI (``dlczsim.cli``) and by the in-process
# workloads (through the defining module).
_ENTRY_POINTS = [
    ("dlczsim.pipeline", "full_experiment", "pipeline.full_experiment"),
    ("dlczsim.pipeline", "sample_diagonal_records", "pipeline.sample_records"),
    ("dlczsim.pipeline", "sample_fringe_records", "pipeline.sample_records"),
    ("dlczsim.pipeline", "g12_report", "pipeline.g12_report"),
    ("dlczsim.tomography", "invert_diagonal", "tomography.invert_diagonal"),
    ("dlczsim.tomography", "fit_fringe", "tomography.fit_fringe"),
    ("dlczsim.tomography", "estimate_coherence", "tomography.estimate_coherence"),
    ("dlczsim.tomography", "assemble_restricted", "tomography.assemble_restricted"),
    ("dlczsim.tomography", "mle_fit", "tomography.mle_fit"),
    ("dlczsim.tomography", "log_likelihood", "tomography.log_likelihood"),
    ("dlczsim.tomography", "two_stage_block", "tomography.two_stage_block"),
    ("dlczsim.entanglement", "concurrence_restricted", "entanglement.concurrence"),
    ("dlczsim.entanglement", "witnesses", "entanglement.witnesses"),
    ("dlczsim.entanglement", "backpropagate", "entanglement.backprop"),
    ("dlczsim.config", "config_from_dict", "config.load"),
    ("dlczsim.config", "preset_dict", "config.preset"),
    ("dlczsim.config", "load_config_dict", "config.preset"),
    ("dlczsim.detection", "read_count_records_json", "detection.records_io"),
    ("dlczsim.detection", "read_count_records_csv", "detection.records_io"),
    ("dlczsim.detection", "write_count_records_json", "detection.records_io"),
    ("dlczsim.detection", "write_count_records_csv", "detection.records_io"),
    ("dlczsim.detection", "merge_counts", "detection.merge"),
]

SITES = (
    _PIPELINE_SITES
    + _ENTRY_POINTS
    + [("dlczsim.cli", attr, name) for _, attr, name in _ENTRY_POINTS]
)

# per-layer metric -> span names whose self time it sums
SELF_TIME_METRICS = {
    "layouts.fringe_ms": ("layouts.fringe",),
    "layouts.diagonal_ms": ("layouts.diagonal",),
    "protocol.write_stage_ms": ("protocol.write_stage",),
    "protocol.herald_ms": ("protocol.herald",),
    "protocol.read_stage_ms": ("protocol.read_stage",),
    "fock.apply_loss_ms": ("fock.apply_loss",),
    "pipeline.self_ms": ("pipeline.full_experiment", "pipeline.sample_records", "pipeline.g12_report"),
    "tomography.invert_diagonal_ms": ("tomography.invert_diagonal",),
    "tomography.fit_fringe_ms": ("tomography.fit_fringe",),
    "tomography.estimate_coherence_ms": ("tomography.estimate_coherence",),
    "tomography.log_likelihood_ms": ("tomography.log_likelihood",),
    "tomography.mle_fit_ms": ("tomography.mle_fit",),
    "entanglement.concurrence_ms": ("entanglement.concurrence",),
    "entanglement.backprop_ms": ("entanglement.backprop",),
    "detection.records_io_ms": ("detection.records_io",),
    "detection.sample_ms": ("detection.sample",),
}


def _register_dim(state) -> dict:
    return {"register_dim": state.register.dim}


# span name -> fn(args, result) giving counts recorded with the span
_OBSERVERS = {
    "protocol.write_stage": lambda args, result: _register_dim(result),
    "layouts.diagonal": lambda args, result: _register_dim(args[0]),
    "layouts.fringe": lambda args, result: _register_dim(args[0]),
    "tomography.mle_fit": lambda args, result: {
        "mle_iterations": result.n_iterations,
        "mle_converged": float(result.converged),
    },
}


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: list[tuple[int, str, float]] = []  # (op, key, value)
        self.op = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.op]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if observe is not None:
                for key, value in observe(args, result).items():
                    self.counts.append((self.op, key, value))
            return result

        return traced

    def install(self, sites=SITES) -> None:
        for module_name, attr, name in sites:
            module = importlib.import_module(module_name)
            setattr(module, attr, self.wrap(name, getattr(module, attr)))

    def record(self, name: str, start: float, end: float) -> None:
        """Add a span timed by the caller (for example the CLI import)."""
        self.spans.append([name, start, end, -1, self.op])

    def dump(self, path: Path, **extra) -> None:
        path.write_text(json.dumps({"spans": self.spans, "counts": self.counts, **extra}))


def self_times(spans: list[list]) -> list[float]:
    """Self time of each span: its duration minus its direct children's."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(spans)]


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def summarize(traces: list[dict], op_walls: dict[tuple[int, int], float], n_ops: int | None = None) -> dict[str, float]:
    """Per-layer metrics from traced processes.

    ``traces`` holds one dumped tracer per process; ``op_walls`` maps
    (process index, op id) to the wall time in seconds of each traced
    operation, or of each command process when ``n_ops`` operations span
    several processes.  Times are reported in milliseconds per operation,
    except ``config.load_ms``, which is per ``config_from_dict`` call (set-up
    included).
    """
    n_ops = n_ops or len(op_walls)
    totals: dict[str, float] = defaultdict(float)
    covered = 0.0
    layout_calls = 0
    config_calls = 0
    config_time = 0.0
    cli_self = 0.0
    counts: dict[str, list[float]] = defaultdict(list)
    for proc, trace in enumerate(traces):
        spans = trace["spans"]
        selfs = self_times(spans)
        for (name, start, end, parent, op), own in zip(spans, selfs):
            if name == "config.load":
                config_calls += 1
                config_time += end - start
            if (proc, op) not in op_walls:
                continue
            totals[name] += own
            if parent < 0:
                covered += end - start
            if name.startswith("layouts."):
                layout_calls += 1
            if name == "cli.main":
                # the command's wall time minus the import and the traced
                # child spans: interpreter start, click, serialization
                cli_self += own + op_walls[(proc, op)] - (end - start)
            if name == "import":
                cli_self -= end - start
        for op, key, value in trace["counts"]:
            if (proc, op) in op_walls:
                counts[key].append(value)

    def per_op_ms(seconds: float) -> float:
        return 1000.0 * seconds / n_ops

    metrics = {
        metric: per_op_ms(sum(totals[name] for name in names))
        for metric, names in SELF_TIME_METRICS.items()
    }
    mle_iterations = counts["mle_iterations"]
    metrics.update(
        {
            "layouts.calls": layout_calls / n_ops,
            "fock.register_dim": max(counts["register_dim"], default=0),
            "tomography.mle_iterations": sum(mle_iterations) / len(mle_iterations) if mle_iterations else 0.0,
            "tomography.mle_converged_ratio": (
                sum(counts["mle_converged"]) / len(mle_iterations) if mle_iterations else 0.0
            ),
            "config.load_ms": 1000.0 * config_time / config_calls if config_calls else 0.0,
            "cli.self_ms": per_op_ms(cli_self),
            "trace.coverage_ratio": covered / sum(op_walls.values()),
        }
    )
    return metrics


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative import times (ms) from ``python -X importtime`` output."""
    wanted = {"scipy.linalg": "import.scipy_linalg_ms", "scipy.optimize": "import.scipy_optimize_ms", "jsonschema": "import.jsonschema_ms"}
    out = {metric: 0.0 for metric in wanted.values()}
    out["import.dlczsim_cli_ms"] = 0.0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        cumulative_ms = int(parts[1]) / 1000.0
        label = parts[2].rstrip()
        name = label.strip()
        top_level = label.startswith(" ") and not label.startswith("  ")
        if name in wanted and out[wanted[name]] == 0.0:
            out[wanted[name]] = cumulative_ms
        # `dlczsim.cli` is the top-level entry, with the package nested in it
        if top_level and (name == "dlczsim" or name.startswith("dlczsim.")):
            out["import.dlczsim_cli_ms"] += cumulative_ms
    return out
