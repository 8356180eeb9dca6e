#!/usr/bin/env python3
"""Layered benchmark of dlczsim: CLI latency, forward-sweep and
analysis-chain throughput, with a separate traced run per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each workload is one closed-loop client that
times calls from outside the program, checks every output and counts a
failed check as a failed operation:

* ``cli_paper`` -- what analysts run: ``simulate``, ``analyze --mle --plane
  z2`` on its records and ``fringe-scan``, each in a fresh process (one
  operation is the three commands in sequence).
* ``sweep_c3``, ``sweep_c5``, ``analysis_chain`` -- calibration and coverage
  traffic in one worker process (see ``worker.py``).

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the workload again with timing wrappers installed and
prints the per-layer metrics.  The last line of standard output is the
result; the line before it holds diagnostics (environment, workload-specific
throughput names, failures).  BLAS threads are deliberately not pinned.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from tracing import SAME_RTOL, parse_importtime, percentile, summarize

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "_out"
SETUP_REPEATS = 5
IMPORT_PROBE = "import dlczsim.cli"
CLI_ENTRY = "import sys; from dlczsim.cli import main; sys.exit(main(prog_name='dlczsim'))"
IN_PROCESS = ("sweep_c3", "sweep_c5", "analysis_chain")
WORKLOADS = ("cli_paper",) + IN_PROCESS
V_TARGET = 0.70  # band of the fringe-scan tier-1 test: |V - 0.70| < 0.02 + 4 sigma
CHILD_TIMEOUT = 150


class BenchError(RuntimeError):
    pass


def child_env(**extra) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update(extra)
    return env


def run_child(cmd: list[str], work: Path, timeout: float = CHILD_TIMEOUT) -> tuple[float, int, str]:
    """Run to completion; return (wall seconds, exit code, stderr)."""
    err = work / "child.err"
    with open(err, "w") as err_file:
        start = perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=err_file, env=child_env(), cwd=ROOT, timeout=timeout)
        wall = perf_counter() - start
    return wall, proc.returncode, err.read_text()


def python_probe(work: Path, importtime: bool = False) -> tuple[float, str]:
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + ["-c", IMPORT_PROBE]
    wall, code, stderr = run_child(cmd, work)
    if code != 0:
        raise BenchError(f"`{IMPORT_PROBE}` failed:\n{stderr[-2000:]}")
    return wall, stderr


def import_metrics(work: Path) -> dict[str, float]:
    probes = [parse_importtime(python_probe(work, importtime=True)[1]) for _ in range(SETUP_REPEATS)]
    return {key: statistics.median(p[key] for p in probes) for key in probes[0]}


# ---------------------------------------------------------------------------
# in-process workloads


def spawn_worker(args, work: Path, *, seconds: float, trace=False, setup_only=False, extra_env=None):
    """Start worker.py; return (set-up seconds, final JSON or None)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(seconds)]
    if trace:
        cmd += ["--trace", "--spans", str(OUT / f"spans-{args.workload}-{args.seed}.json")]
    if setup_only:
        cmd.append("--setup-only")
    err = work / "worker.err"
    with open(err, "w") as err_file:
        start = perf_counter()
        proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=err_file, text=True, env=child_env(**(extra_env or {})), cwd=ROOT
        )
        try:
            line = proc.stdout.readline()
            ready = perf_counter()
            rest, _ = proc.communicate(timeout=seconds + CHILD_TIMEOUT)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0 or not line.startswith("ready "):
        raise BenchError(f"worker failed (exit {proc.returncode}):\n{err.read_text()[-3000:]}")
    setup = ready - start - float(line.split()[1])
    return setup, (None if setup_only else json.loads(rest.strip().splitlines()[-1]))


def run_in_process(args, work: Path) -> tuple[dict, dict, int, int, bool]:
    if args.trace:
        metrics = import_metrics(work)
        _, res = spawn_worker(args, work, seconds=args.seconds, trace=True)
        metrics.update(res["layers"], **{"cli.output_bytes": 0})
        diag = {
            "trace.same_outputs": res["same_outputs"],
            "trace.compared_ops": res["compared"],
            "trace.bitwise_identical_ops": res["identical"],
        }
        if args.workload.startswith("sweep_"):
            _, ref = spawn_worker(args, work, seconds=max(2.0, args.seconds / 3.0), extra_env={"OPENBLAS_NUM_THREADS": "1"})
            diag["blas1.experiments_per_s"] = _throughput(ref["latencies"], ref["failed"])
        correct = res["same_outputs"]
    else:
        setups = [spawn_worker(args, work, seconds=0, setup_only=True)[0] for _ in range(SETUP_REPEATS - 1)]
        setup, res = spawn_worker(args, work, seconds=args.seconds)
        setups.append(setup)
        metrics = {"setup_s": statistics.median(setups), "peak_rss_mb": res["maxrss_mb"]}
        diag = {"fock.bs_unitary_misses_per_call": res["bs_unitary_misses"] / len(res["latencies"])}
        correct = True
    latencies = res["latencies"]
    metrics.update(_latency_metrics(latencies, res["failed"], args.trace))
    name = "chains_per_s" if args.workload == "analysis_chain" else "experiments_per_s"
    diag[name] = _throughput(latencies, res["failed"])
    if args.workload == "analysis_chain":
        diag["chain.quoted_sigma_pulls_over_5"] = res["quoted_sigma_pulls"]
    diag["failures"] = res["failures"]
    return metrics, diag, len(latencies), res["failed"], correct


# ---------------------------------------------------------------------------
# cli_paper


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_outputs(out_dir: Path) -> tuple[list[str], dict[str, str]]:
    """Every file listed in manifest.json must match its SHA-256."""
    manifest = json.loads((out_dir / "manifest.json").read_text())
    listed = {entry["path"]: entry["sha256"] for entry in manifest["outputs"]}
    problems = [f"{out_dir.name}/{name}: SHA-256 mismatch" for name, digest in listed.items() if _sha256(out_dir / name) != digest]
    if not listed:
        problems.append(f"{out_dir.name}: manifest lists no outputs")
    return problems, listed


def check_fringe_fits(out_dir: Path) -> list[str]:
    fits = json.loads((out_dir / "fringe_fits.json").read_text())
    problems = []
    for which in ("D1a", "D1b"):
        v, sigma = fits[which]["visibility"], fits[which]["sigma_visibility"]
        if not abs(v - V_TARGET) < 0.02 + 4.0 * sigma:
            problems.append(f"fringe-scan {which}: V = {v:.4f} +- {sigma:.4f}")
    return problems


def cli_iteration(seed: int, work: Path, traced: bool, keep: bool = False) -> dict:
    """simulate -> analyze -> fringe-scan in fresh processes, then checks.

    ``keep`` returns the text of every data file for comparison.
    """
    sim, ana, scan = work / f"sim-{seed}", work / f"ana-{seed}", work / f"scan-{seed}"
    common = ["--preset", "paper", "--seed", str(seed)]
    commands = [
        ("simulate", sim, ["simulate", *common, "--layout", "both", "--out", str(sim)]),
        ("analyze", ana, ["analyze", *common, "--records", str(sim), "--mle", "--plane", "z2", "--out", str(ana)]),
        ("fringe_scan", scan, ["fringe-scan", *common, "--trials", "1000000", "--out", str(scan)]),
    ]
    it = {"walls": {}, "problems": [], "files": {}, "traces": [], "bytes": 0}
    for name, out_dir, cli_args in commands:
        spans = work / f"{name}-{seed}.spans.json"
        spawned = perf_counter()
        if traced:
            cmd = [sys.executable, str(BENCH / "cli_runner.py"), str(spans), repr(spawned), *cli_args]
        else:
            cmd = [sys.executable, "-c", CLI_ENTRY, *cli_args]
        wall, code, stderr = run_child(cmd, work)
        it["walls"][name] = wall
        if code != 0:
            it["problems"].append(f"{name} exit {code}: {stderr[-500:]}")
            continue
        try:
            problems, listed = check_outputs(out_dir)
            if name == "fringe_scan":
                problems += check_fringe_fits(out_dir)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            it["problems"].append(f"{name} outputs unreadable: {exc!r}")
            continue
        it["problems"] += problems
        it["bytes"] += sum(p.stat().st_size for p in out_dir.iterdir())
        if keep:
            it["files"].update({f"{name}/{f}": (out_dir / f).read_text() for f in listed})
        if traced:
            trace = json.loads(spans.read_text())
            trace["spans"].append(["python.exit", trace["exit_start"], spawned + wall, -1, 1])
            it["traces"].append((trace, wall))
    it["wall"] = sum(it["walls"].values())
    for out_dir in (sim, ana, scan):
        shutil.rmtree(out_dir, ignore_errors=True)
    return it


_NUMBER = re.compile(r"-?\d+\.\d*(?:[eE][-+]?\d+)?|-?\d+[eE][-+]?\d+")


def same_text(a: str, b: str, rtol: float) -> bool:
    """Equal up to a relative tolerance on every decimal number."""
    if a == b:
        return True
    if _NUMBER.split(a) != _NUMBER.split(b):
        return False
    na, nb = (float(x) for x in _NUMBER.findall(a)), (float(x) for x in _NUMBER.findall(b))
    return all(abs(x - y) <= rtol * max(abs(x), abs(y)) for x, y in zip(na, nb))


def cli_loop(seed: int, seconds: float, work: Path, traced: bool) -> list[dict]:
    """Closed loop of iterations (at least one) that stops before one would
    end after ``seconds``; the traced loop keeps the first iteration's files
    for comparison."""
    iterations = []
    deadline = perf_counter() + seconds
    while not iterations or perf_counter() + iterations[-1]["wall"] <= deadline:
        iterations.append(cli_iteration(seed + len(iterations), work, traced, keep=traced and not iterations))
    return iterations


def run_cli_paper(args, work: Path) -> tuple[dict, dict, int, int, bool]:
    diag = {}
    correct = True
    if args.trace:
        metrics = import_metrics(work)
        reference = cli_iteration(args.seed, work, traced=False, keep=True)
        iterations = cli_loop(args.seed, args.seconds, work, traced=True)
        ref_files, traced_files = reference["files"], iterations[0]["files"]
        same = bool(ref_files) and ref_files.keys() == traced_files.keys() and all(
            same_text(ref_files[k], traced_files[k], SAME_RTOL) for k in ref_files
        )
        diag["trace.byte_identical_files"] = sorted(k for k in ref_files if ref_files[k] == traced_files.get(k))
        diag["trace.differing_files"] = sorted(k for k in ref_files if ref_files[k] != traced_files.get(k))
        traces, walls = [], {}
        for it in iterations:
            for trace, wall in it["traces"]:
                walls[(len(traces), 1)] = wall
                traces.append(trace)
        (OUT / f"spans-{args.workload}-{args.seed}.json").write_text(json.dumps(traces))
        n = len(iterations)
        metrics.update(summarize(traces, walls, n_ops=n))
        metrics["fock.bs_unitary_misses"] = sum(t["bs_unitary_misses"] for t in traces) / n
        metrics["cli.output_bytes"] = sum(it["bytes"] for it in iterations) / n
        metrics["trace.overhead_ratio"] = iterations[0]["wall"] / reference["wall"]
        diag.update({"trace.same_outputs": same, "trace.compared_ops": 1})
        correct = same
    else:
        setups = [python_probe(work)[0] for _ in range(SETUP_REPEATS)]
        iterations = cli_loop(args.seed, args.seconds, work, traced=False)
        metrics = {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        }
        for name in ("simulate", "analyze", "fringe_scan"):
            diag[f"{name}_s"] = statistics.median(it["walls"][name] for it in iterations if name in it["walls"])
    failed = sum(1 for it in iterations if it["problems"])
    metrics.update(_latency_metrics([it["wall"] for it in iterations], failed, args.trace))
    diag["failures"] = [it["problems"] for it in iterations if it["problems"]][:5]
    return metrics, diag, len(iterations), failed, correct


# ---------------------------------------------------------------------------
# common


def _throughput(latencies: list[float], failed: int) -> float:
    return (len(latencies) - failed) / sum(latencies)


def _latency_metrics(latencies: list[float], failed: int, trace: bool) -> dict[str, float]:
    metrics = {"op_ms.p50": 1000.0 * percentile(latencies, 50), "op.samples": len(latencies)}
    if trace:
        metrics["op_ms.p90"] = 1000.0 * percentile(latencies, 90)
    else:
        metrics["ops_per_s"] = _throughput(latencies, failed)
    return metrics


def src_files() -> list[Path]:
    return sorted((SRC / "dlczsim").glob("*.py"))


def environment() -> dict:
    import numpy
    import scipy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # noqa: BLE001 - numpy builds differ in what they report
        openblas = None
    digest = hashlib.sha256()
    for path in src_files() + sorted((SRC / "dlczsim" / "presets").glob("*.json")):
        digest.update(path.name.encode() + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "dlczsim" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: run from a dlczsim checkout ({SRC / 'dlczsim'} or {spec_path} missing)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    try:
        python_probe(work)  # compile bytecode once; users do not pay it per run
        runner = run_cli_paper if args.workload == "cli_paper" else run_in_process
        metrics, diag, attempted, failed, correct = runner(args, work)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment()
    metrics["src.lines"] = sum(len(p.read_text().splitlines()) for p in src_files())
    diag["error_rate"] = failed / attempted
    names = {m["name"] for m in wanted}
    diag.update({k: v for k, v in metrics.items() if k not in names})
    missing = names - metrics.keys()
    if missing:
        print(f"error: benchmark produced no value for {sorted(missing)}", file=sys.stderr)
        return 1
    print(json.dumps({"diagnostics": {"workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env, **diag}}))
    print(
        json.dumps(
            {
                "correct": bool(correct and failed == 0),
                "attempted": attempted,
                "failed": failed,
                "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
