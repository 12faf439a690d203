"""Seeded benchmark of the cacxray pipeline.

    python3 perfbench/run.py --workload train_desk --seed 1 --seconds 20 --trace 0

Run from the repository root. The run has two phases, each in its own child
process so the timed phase's peak RSS excludes set-up's allocations:

1. set-up: generate the workload's inputs from the seed and write them into
   a work directory under ``.perfbench_work/`` (repeated, median reported);
2. timed: a closed loop with one caller for ``--seconds``, checking every
   output. With ``--trace 1`` the loop runs once untraced and once traced,
   and the per-layer table comes from the traced half.

Every metric is printed with its unit; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".perfbench_work"
SETUP_REPEATS = 3
TIME_LIMIT_S = 175.0

# Gated metrics, reported on every workload (--trace 0). The adj_* ones are
# the workload's headline throughput and latency scaled to the reference
# host speed the speed probe measures (see workloads.SpeedProbe).
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "adj_throughput_per_s": "items/s",
    "adj_latency_ms_p50": "ms",
    "adj_latency_ms_tail": "ms",
}

# Per-layer metrics reported on every workload (--trace 1). Only times every
# workload exercises are listed, so no time reads a constant zero; counts and
# sizes may be 0. The traced run prints the full per-layer table above its
# last line.
PER_LAYER_CLASSES_BWD = ("ReLU", "GlobalAvgPool", "Linear")
PER_LAYER_ENTRIES = ("stem", "block0", "block1", "block2", "trans0", "trans1")
PER_LAYER_OTHER = (
    "dicom.parse_calls", "dicom.mb_parsed", "preprocess.calls", "training.steps",
    "survival.cox_iterations", "network.block_self_ms", "network.cache_mb_per_step",
    "layers.Conv2d.gflop", "layers.Conv2d.im2col_mb", "layers.Conv2d.gflop_per_s",
    "trace.overhead_ratio", "trace.self_coverage",
)


def per_layer_names() -> list[str]:
    from tracing import DESK_CONVS, LAYER_CLASSES

    return (
        [f"layers.{c}.fwd_ms" for c in LAYER_CLASSES]
        + [f"layers.{c}.bwd_ms" for c in PER_LAYER_CLASSES_BWD]
        + [f"layer.{c}.fwd_ms" for c in DESK_CONVS]
        + [f"entry.{e}.fwd_ms" for e in PER_LAYER_ENTRIES]
        + list(PER_LAYER_OTHER)
    )


# --- provenance -----------------------------------------------------------------


def _git_rev() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return f"unknown ({ref})"


def _blas() -> tuple[str, int | None]:
    """BLAS vendor string and the thread count the loaded library reports."""
    import ctypes

    import numpy as np

    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        vendor = f"{blas['name']} {blas.get('version', '')}".strip()
    except (AttributeError, KeyError, TypeError):
        vendor = "unknown"
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return vendor, int(fn())
    return vendor, None


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    vendor, threads = _blas()
    return {
        "git_rev": _git_rev(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": vendor,
        "blas_threads": threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "seed": seed,
        "load": "closed loop, one caller",
    }


# --- phases (child processes) ----------------------------------------------------


def _workload(args):
    from workloads import WORKLOADS

    return WORKLOADS[args.workload](work=Path(args.work), seed=args.seed, toy=args.toy)


def phase_setup(args) -> dict:
    from tracing import Tracer, layer_table

    wl = _workload(args)
    Path(args.work).mkdir(parents=True, exist_ok=True)
    tracer = Tracer(f"{args.workload}-{args.seed}-setup") if args.trace else None
    if tracer:
        tracer.install()
    runs = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.setup()
        runs.append(time.perf_counter() - t0)
    result = {"setup_s": statistics.median(runs), "setup_runs_s": runs}
    if tracer:
        tracer.uninstall()
        table = layer_table(tracer.spans, SETUP_REPEATS, int(sum(runs) * 1e9))
        result["setup_layers"] = {k: v for k, v in table.items() if v[0] and not k.startswith("trace.")}
    return result


def _loop(wl, seconds: float, out, probes, tracer=None) -> list[float]:
    """Closed loop: iterate until ``seconds`` have passed. Returns each
    iteration's wall time without the probe's. A call that raises is a
    failed operation; it is printed and ends the loop."""
    quiet = tracer.suspended if tracer else contextlib.nullcontext
    walls: list[float] = []
    start = time.perf_counter()
    while True:
        t0, probed = time.perf_counter(), probes.spent_s
        try:
            with tracer.span("bench.iteration") if tracer else contextlib.nullcontext():
                wl.iterate(out, quiet, probes)
        except Exception as exc:  # every failure is counted and shown, never swallowed
            traceback.print_exc(file=sys.stderr)
            out.add(1, [f"{wl.name}: {type(exc).__name__}: {exc}"])
            break
        walls.append(time.perf_counter() - t0 - (probes.spent_s - probed))
        if time.perf_counter() - start >= seconds:
            break
    return walls


def phase_timed(args) -> dict:
    from checks import Outcome
    from tracing import Tracer, layer_table
    from workloads import Probes

    wl = _workload(args)
    wl.load()
    wl.warmup()
    out = Outcome()
    probes = Probes(wl.probe_profiles)
    for probe in probes.by_profile.values():
        probe.run()
    walls = _loop(wl, args.seconds, out, probes)
    if walls:
        wl.finish(out)
    result = {
        "probe_s": {prof: probe.samples for prof, probe in probes.by_profile.items()},
        "speed": {role: probes[role].speed() for role in wl.probe_profiles},
        "iterations": len(walls),
        "iteration_s": walls,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "report": wl.report() if walls else {},
        "headline": wl.headline,
        "provenance": provenance(args.seed),
    }
    if args.trace and walls:
        wl.reset()
        idle_probes = Probes(wl.probe_profiles, sampling=False)
        tracer = Tracer(f"{args.workload}-{args.seed}-{os.getpid()}")
        tracer.install()
        t0 = time.perf_counter_ns()
        with tracer.span("bench.phase"):
            traced = _loop(wl, args.seconds, out, idle_probes, tracer)
        phase_ns = time.perf_counter_ns() - t0
        tracer.uninstall()
        if traced:
            wl.finish(out)
            table = layer_table(tracer.spans, len(traced), phase_ns)
            table["trace.overhead_ratio"] = (statistics.median(traced) / statistics.median(walls), "ratio")
            result["layers"] = table
            result["traced_iterations"] = len(traced)
            spans_path = WORK_ROOT / "results" / f"{args.workload}-seed{args.seed}.spans.jsonl.gz"
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            with gzip.open(spans_path, "wt", encoding="utf-8") as fh:
                tracer.write(fh)
            result["spans_file"] = str(spans_path.relative_to(ROOT))
    result.update(attempted=out.attempted, failed=out.failed, failures=out.failures[:20])
    return result


# --- orchestration -----------------------------------------------------------------


def _child(args, phase: str, deadline: float) -> dict:
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--phase", phase,
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--work", str(args.work),
    ] + (["--toy"] if args.toy else [])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{phase} phase exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run(args) -> dict:
    """Both phases for one workload; returns the combined result."""
    deadline = time.monotonic() + TIME_LIMIT_S
    args.work = str(WORK_ROOT / f"{args.workload}-seed{args.seed}-{os.getpid()}")
    try:
        setup = _child(args, "setup", deadline)
        timed = _child(args, "timed", deadline)
    finally:
        shutil.rmtree(args.work, ignore_errors=True)
    return {**setup, **timed, "workload": args.workload, "trace": args.trace}


def final_metrics(result: dict, trace: int) -> dict:
    if trace:
        table = result.get("layers", {})
        return {name: {"value": table[name][0], "unit": table[name][1]}
                for name in per_layer_names() if name in table}
    values = {"setup_s": result["setup_s"], "peak_rss_mb": result["peak_rss_mb"]}
    if result["report"]:
        throughput, p50, tail = (result["report"][name][0] for name in result["headline"])
        speed = result["speed"]
        values.update(adj_throughput_per_s=throughput / speed["throughput"],
                      adj_latency_ms_p50=p50 * speed["latency"],
                      adj_latency_ms_tail=tail * speed["latency"])
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items() if name in values}


def print_report(result: dict) -> None:
    def rows(title, table):
        print(f"== {title}")
        for name, (value, unit) in table.items():
            print(f"  {name:<40} {value:>14.6g} {unit}")

    print(f"workload {result['workload']}: {result['iterations']} iterations, "
          f"{result['attempted']} operations checked, {result['failed']} failed")
    rows("end to end", {
        "setup_s": (result["setup_s"], "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "failed_ops_ratio": (result["failed"] / max(result["attempted"], 1), "failed/attempted"),
        **result["report"],
        **{f"probe.{prof}.ms_p50": (statistics.median(samples) * 1e3, "ms")
           for prof, samples in result["probe_s"].items()},
        **{f"probe.speed.{role}": (speed, "x reference") for role, speed in result["speed"].items()},
        **{name: (m["value"], m["unit"]) for name, m in final_metrics(result, 0).items()
           if name.startswith("adj_")},
    })
    if "layers" in result:
        layers = {k: v for k, v in result["layers"].items() if v[0]}
        rows(f"per layer, per iteration ({result['traced_iterations']} traced)", layers)
        rows("set-up, per repetition", result.get("setup_layers", {}))
    for failure in result["failures"]:
        print(f"FAILED: {failure}")
    print("provenance " + json.dumps(result["provenance"], sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("train_desk", "score_large", "dense_full"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--phase", choices=("setup", "timed"), help=argparse.SUPPRESS)
    parser.add_argument("--work", help=argparse.SUPPRESS)
    parser.add_argument("--toy", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cacxray" / "__init__.py").is_file():
        print(f"perfbench: no cacxray sources under {ROOT / 'src'}; run from a repository checkout",
              file=sys.stderr)
        return 2
    if args.phase:
        sys.path.insert(0, str(ROOT / "src"))
        fn = phase_setup if args.phase == "setup" else phase_timed
        print(json.dumps(fn(args)))
        return 0

    result = run(args)
    print_report(result)
    results = WORK_ROOT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True) + "\n"
    )
    metrics = final_metrics(result, args.trace)
    correct = result["failed"] == 0 and result["iterations"] > 0
    print(json.dumps({"correct": correct, "attempted": max(result["attempted"], 1),
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
