#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the cebound CLI.

    python3 bench/run.py --workload verify-small --seed 1 --seconds 55 --trace 0

runs one workload for about ``--seconds`` seconds against the package in
``src/`` of this checkout and prints one JSON line with every metric, run
metadata and output diagnostics, then, as the last line, the result object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` reports the per-layer metrics from traced
passes, each paired with an untraced pass to measure the tracing overhead.
``--workload all`` runs every workload in both modes, each in its own
process, and prints everything.  See bench/README.md.
"""

from __future__ import annotations

import os

ENV_FOUND = {
    name: os.environ.get(name)
    for name in ("CEBOUND_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
}
if __name__ == "__main__":
    # Before numpy loads: one caller, one thread.  Unpinned BLAS threads spin
    # on the second core and double the exposure to other load on the host.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    os.environ.setdefault("OMP_NUM_THREADS", "1")

import argparse
import gc
import importlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_ROUNDS_PER_PASS = 3
MIN_PASSES = 3
LAYERS = ("cli", "linalg", "bkm", "twolevel", "variational", "bounds", "dephasing", "lapack")
UNITS = {"calls": "count", "lapack_calls": "count", "self_ms": "ms",
         "work_n3": "count", "overhead_s": "s"}
# Per-layer metrics every traced run prints, whether or not the function exists.
NAMED_LAYER_METRICS = (
    "linalg.validate_hermitian.calls", "linalg.validate_hermitian.self_ms",
    "linalg.validate_density.calls",
    "lapack.eigh.calls", "lapack.eigvalsh.calls", "lapack.svd.calls",
    "lapack.self_ms", "lapack.work_n3",
    "linalg.random_block_state.calls", "linalg.random_block_state.self_ms",
    "linalg.random_block_state.lapack_calls",
    "bkm.log_mean_kernel.calls", "bkm.log_mean_kernel.self_ms",
    "bkm.bkm_form.self_ms", "bkm.bkm_hessian.self_ms", "bkm.petz_form.self_ms",
    "bkm.midpoint_margin.self_ms", "bkm.midpoint_margin.lapack_calls",
    "bkm.petz_midpoint_margin.self_ms", "bkm.petz_midpoint_margin.lapack_calls",
    "variational.pipeline_values.self_ms", "variational.svd_pinch.self_ms",
    "variational.merge_channel.self_ms", "variational.polygon_phases.self_ms",
    "twolevel.phi.calls", "twolevel.phi.self_ms",
    "bounds.bound_report.self_ms", "bounds.operator_bound.self_ms",
    "bounds.fidelity.self_ms", "linalg.read_state_json.self_ms",
    "linalg.coherence_entropy.self_ms",
    "dephasing.entropy_production.calls", "dephasing.entropy_production.self_ms",
    "dephasing.orbit_trace.calls", "dephasing.orbit_trace.self_ms",
    "dephasing.write_orbit_csv.calls", "dephasing.write_orbit_csv.self_ms",
    "cli.main.self_ms",
    *(f"{layer}.self_ms" for layer in LAYERS),
    "trace.overhead_s",
)


def _benchmark_spec() -> dict:
    spec_path = ROOT / "BENCHMARK.json"
    return json.loads(spec_path.read_text()) if spec_path.exists() else {}


# ---------------------------------------------------------------- set-up

def _loaded() -> list:
    return [name for name in sys.modules if name.split(".")[0] == "cebound"]


def unload_package() -> None:
    """Drop cebound from sys.modules and free the old modules at once, so
    their garbage neither grows the heap nor lands in a later timing."""
    for name in _loaded():
        del sys.modules[name]
    gc.collect()


def load_package():
    """Import cebound (and its CLI) afresh from this checkout's src/."""
    if _loaded():
        unload_package()
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    pkg = importlib.import_module("cebound")
    cli = importlib.import_module("cebound.cli")
    if src.resolve() not in Path(pkg.__file__).resolve().parents:
        raise ImportError(f"cebound was imported from {pkg.__file__}, not from {src}")
    return pkg, cli


def setup(workload, seed: int, workdir: Path) -> dict:
    """One set-up round: a fresh import plus input generation, timed."""
    unload_package()
    start = time.perf_counter()
    pkg, cli = load_package()
    inputs = workload.make_inputs(pkg, seed, workdir)
    return {"pkg": pkg, "cli": cli, "inputs": inputs, "seconds": time.perf_counter() - start}


# ------------------------------------------------------------- measuring

def run_passes(run_one, seconds: float, min_passes: int) -> None:
    """Run passes for about ``seconds``: no new pass starts once the typical
    pass would end past the deadline, but at least ``min_passes`` run."""
    durations = []
    start = time.perf_counter()
    while len(durations) < min_passes or (
        time.perf_counter() - start + statistics.median(durations) <= seconds
    ):
        t0 = time.perf_counter()
        run_one()
        durations.append(time.perf_counter() - t0)


def percentile(values: list, q: int) -> float:
    """The q-th percentile by statistics.quantiles (exclusive method)."""
    return statistics.quantiles(values, n=100)[q - 1] if len(values) > 1 else values[0]


def end_to_end_metrics(workload, passes: list, setup_s: float) -> tuple[dict, dict]:
    walls = [sum(c.seconds for c in calls) for calls in passes]
    all_calls = [c for calls in passes for c in calls]
    wall_s = statistics.median(walls)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall_s, "s"),
        "items_per_s": (statistics.median(workload.items_per_s(p) for p in passes), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
    }
    extra = {"passes": (len(passes), "count"), "calls": (len(all_calls), "count")}
    if hasattr(workload, "trials_per_pass"):
        extra["trials_per_s"] = (workload.trials_per_pass / wall_s, "1/s")
    reports = [c.seconds * 1e3 for c in all_calls if c.kind == "report"]
    if reports:
        extra["report_ms_p50"] = (statistics.median(reports), "ms")
        extra["report_ms_p90"] = (percentile(reports, 90), "ms")
        extra["report_calls"] = (len(reports), "count")
        extra["orbit_rows_per_s"] = metrics["items_per_s"]
    return metrics, extra


def layer_metrics(summaries: list, overheads: list) -> dict:
    """Per-layer metrics from the traced passes: counts from the first pass,
    self times as medians over passes."""
    def one(summary):
        out = {}
        for name, rec in summary.items():
            out[f"{name}.calls"] = rec["calls"]
            out[f"{name}.self_ms"] = rec["self_ms"]
            if not name.startswith("lapack."):
                out[f"{name}.lapack_calls"] = rec["lapack_calls"]
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = sum(
                rec["self_ms"] for name, rec in summary.items() if name.startswith(layer + ".")
            )
        out["lapack.work_n3"] = sum(
            rec["work"] for name, rec in summary.items() if name.startswith("lapack.")
        )
        return out

    per_pass = [one(s) for s in summaries]
    metrics = {}
    for key in per_pass[0]:
        unit = UNITS[key.rsplit(".", 1)[-1]]
        value = (
            statistics.median(p[key] for p in per_pass) if unit == "ms" else per_pass[0][key]
        )
        metrics[key] = (value, unit)
    metrics["trace.overhead_s"] = (statistics.median(overheads), "s")
    return metrics


# -------------------------------------------------------------- checking

def check_calls(workload, passes: list, pkg, inputs):
    """Check each distinct argument list once; later calls must match it."""
    references, problems, diagnostics = {}, [], {}
    attempted = failed = mismatched = 0
    for call in (c for calls in passes for c in calls):
        attempted += 1
        key = tuple(call.argv)
        if key not in references:
            try:
                found, diag = workload.check(call, pkg, inputs)
            except (ValueError, KeyError, TypeError) as exc:  # unreadable output
                found, diag = [f"{call.kind} output unreadable: {exc!r}"], {}
            problems.extend(found)
            diagnostics.update(diag)
            references[key] = (call.output(), not found)
        reference, ok = references[key]
        same = call.output() == reference
        mismatched += not same
        failed += not (ok and same)
    if mismatched:
        problems.append(f"{mismatched} calls did not reproduce their first output byte for byte")
    return attempted, failed, problems, diagnostics


# -------------------------------------------------------------- metadata

def _git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def metadata() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "env_found": ENV_FOUND,
        "env_used": {name: os.environ.get(name) for name in ENV_FOUND},
    }


# ------------------------------------------------------------------ main

def run_workload(args) -> int:
    os.environ.pop("CEBOUND_THREADS", None)  # never measure the thread-pool path
    workload = WORKLOADS[args.workload]()
    with tempfile.TemporaryDirectory(prefix=".bench-work-", dir=ROOT) as tmp:
        env = setup(workload, args.seed, Path(tmp))

        def one_pass():
            cli = env["cli"]  # looked up per call, so the tracer's wrapper is used
            return workload.run_pass(lambda argv: cli.main(argv), env["inputs"])

        if args.trace:
            tracer = Tracer(env["pkg"])
            summaries, overheads, passes = [], [], []

            def traced_pair():
                plain = one_pass()
                with tracer:
                    traced = one_pass()
                summaries.append(tracer.summary())
                tracer.reset()
                overheads.append(sum(c.seconds for c in traced) - sum(c.seconds for c in plain))
                passes.extend([plain, traced])

            run_passes(traced_pair, args.seconds, 1)
            metrics = layer_metrics(summaries, overheads)
            counts = [{k: v["calls"] for k, v in s.items()} for s in summaries]
            extra = {"counts_repeat": all(c == counts[0] for c in counts)}
            traced_names = set(tracer.names)
            extra["absent"] = sorted(
                m for m in NAMED_LAYER_METRICS
                if m.rsplit(".", 1)[0] not in traced_names
                and m.rsplit(".", 1)[0] not in LAYERS + ("trace",)
            )
            wanted = [m["name"] for m in _benchmark_spec().get("per_layer", [])]
        else:
            # Set-up rounds are spread over the run, like the passes, so
            # that host noise averages out of setup_s as it does of wall_s.
            setup_times, passes = [env["seconds"]], []

            def setup_then_pass():
                for _ in range(SETUP_ROUNDS_PER_PASS):
                    env.update(setup(workload, args.seed, Path(tmp)))
                    setup_times.append(env["seconds"])
                passes.append(one_pass())

            run_passes(setup_then_pass, args.seconds, MIN_PASSES)
            metrics, extra = end_to_end_metrics(workload, passes, statistics.median(setup_times))
            extra["setup_rounds"] = (len(setup_times), "count")
            wanted = [m["name"] for m in _benchmark_spec().get("end_to_end", [])]
        attempted, failed, problems, diagnostics = check_calls(workload, passes, env["pkg"], env["inputs"])

    if args.trace:
        for name in (*NAMED_LAYER_METRICS, *wanted):
            metrics.setdefault(name, (0, UNITS[name.rsplit(".", 1)[-1]]))
    else:
        extra["error_rate"] = (failed / attempted, "ratio")
    shown = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    full = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "metrics": shown,
        "extra": {k: ({"value": v[0], "unit": v[1]} if isinstance(v, tuple) else v)
                  for k, v in extra.items()},
        "problems": problems,
        "diagnostics": diagnostics,
        "meta": metadata(),
    }
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(full, sort_keys=True))
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: shown[name] for name in wanted},
    }))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True, timeout=900,
            )
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{name} --trace {trace} exited {proc.returncode}", file=sys.stderr)
                return 1
            print(lines[-2])
            result = json.loads(lines[-1])
            full = json.loads(lines[-2])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for metric, value in full["metrics"].items():
                combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


if __name__ == "__main__":
    arguments = parse_args()
    try:
        code = run_all(arguments) if arguments.workload == "all" else run_workload(arguments)
    except ImportError as exc:
        print(f"error: cannot import cebound from {ROOT / 'src'}: {exc}", file=sys.stderr)
        code = 1
    sys.exit(code)
