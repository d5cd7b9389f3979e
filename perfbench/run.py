"""marscore benchmark: Monte Carlo throughput and `marscore test` latency.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload mc_ex2_het_n1000 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Each workload runs in fresh worker processes (``worker.py``) with BLAS and
OpenMP pinned to one thread. With ``--trace 0`` the run times several fresh
launches (``setup_s``), then measures the workload for ``--seconds`` with
tracing off; with ``--trace 1`` it runs a fixed set of calls untraced and
traced and reports per-layer metrics. Outputs are checked in both. Every
metric is printed with its unit and sample count; the last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
See METRICS.md for what each metric means and which layer moves which.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = HERE / ".work"
SETUP_LAUNCHES = 5
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import workloads as wl  # noqa: E402


def declared_metrics() -> tuple[list[str], dict]:
    """Per-layer metric names, and the unit of every metric, from BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return [m["name"] for m in spec["per_layer"]], units


def environment(seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            models = [line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")]
        cpu = models[0] if models else cpu
    except OSError:
        pass
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
        "seed": seed, "held_out_seed": wl.HELD_OUT_SEED, "loadavg_start": list(os.getloadavg()),
        **BLAS_ENV,
    }


def worker(mode: str, args, timeout: float) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(HERE / "worker.py"), mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--work-dir", str(WORK_DIR)]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {mode} for {args.workload} exited with {proc.returncode}")
    return proc


def setup_times(args) -> list[float]:
    """Wall time of fresh launches that import marscore and make one call.

    Not scaled by the reference work: a launch is mostly numpy and scipy
    imports, whose time does not follow the reference's (measured ratios of
    0.8-1.5 from one launch to the next).
    """
    times = []
    for _ in range(1 if args.tiny else SETUP_LAUNCHES):
        t0 = perf_counter()
        worker("setup", args, timeout=60)
        times.append(perf_counter() - t0)
    return times


def line(name, value, unit, samples, note="") -> str:
    shown = "absent (no calls)" if value is None else repr(value)
    return f"metric {name} = {shown} {unit} n={samples}{' ' + note if note else ''}"


def run_one(args) -> dict:
    workload = wl.get(args.workload, args.tiny)
    WORK_DIR.mkdir(exist_ok=True)
    print("env " + json.dumps(environment(args.seed)))
    if workload.kind == "cli":
        wl.write_cli_csv(wl.csv_path(WORK_DIR, workload), args.seed, workload.rows)

    per_layer, units = declared_metrics()
    metrics = {}
    if args.trace:
        result = json.loads(worker("trace", args, timeout=args.seconds * 4 + 120).stdout.splitlines()[-1])
        layers = result["layers"]
        for name, entry in layers.items():
            # classes outside FAILURE_CLASSES are printed only, as counts
            print(line(name, entry["value"], units.get(name, "count"), entry["samples"]))
        print(f"spans written to {result['spans_file']}")
        for name in per_layer:
            value = layers[name]["value"]
            metrics[name] = {"value": 0 if value is None else value, "unit": units[name]}
    else:
        setup = setup_times(args)
        result = json.loads(worker("measure", args, timeout=args.seconds + 150).stdout.splitlines()[-1])
        # Times at reference speed (see reference.py), as medians over calls.
        ops = result["attempted"]
        ms = [1e3 * t for t in result["scaled"]]
        rate = statistics.median(result["ops_per_call"] / t for t in result["scaled"])
        values = {
            "reps_per_s": (rate, ops),
            "rows_per_s": (rate * result["rows_per_op"], ops),
            "call_ms_p50": (statistics.median(ms), len(ms)),
            "setup_s": (statistics.median(setup), len(setup)),
            "peak_rss_mb": (result["peak_rss_mb"], 1),
        }
        for name, (value, samples) in values.items():
            print(line(name, value, units[name], samples))
            metrics[name] = {"value": value, "unit": units[name]}
        wall = result["times"]
        print(line("wall.reps_per_s", ops / sum(wall), "1/s", ops, "(mean over the run, wall clock)"))
        print(line("wall.call_ms_p50", 1e3 * statistics.median(wall), "ms", len(wall)))
        refs = result["reference_times"]
        print(line("wall.reference_ms_p50", 1e3 * statistics.median(refs), "ms", len(refs)))
        if len(ms) >= 100:
            p90 = statistics.quantiles(ms, n=10)[-1]
            print(line("call_ms_p90", p90, "ms", len(ms), f"({sum(t > p90 for t in ms)} beyond)"))
        else:
            print(f"metric call_ms_p90 not reported: {len(ms)} calls, fewer than ten beyond p90")
    ops = result["attempted"]
    print(line("failed_share", (result["failed"] + result["fit_failed"]) / ops, "share", ops,
               f"({result['fit_failed']} failed to fit, {result['failed']} failed the output check)"))
    return {"correct": result["failed"] == 0, "attempted": ops, "failed": result["failed"],
            "metrics": metrics}


def run_all(args) -> dict:
    """Every workload in its own process; metrics keyed workload.metric."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in wl.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=args.seconds * 4 + 300)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise SystemExit(f"workload {name} exited with {proc.returncode}")
        lines = proc.stdout.splitlines()
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="marscore benchmark")
    parser.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="reduced sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < wl.MAX_SEED:
        parser.error(f"--seed must be in [0, {wl.MAX_SEED})")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "marscore" / "__init__.py").is_file():
        print(f"error: no marscore source tree at {ROOT / 'src' / 'marscore'}", file=sys.stderr)
        return 2
    result = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
