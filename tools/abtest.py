"""Paired A/B timing of ``run_rejection_study`` between a git revision and the working tree.

The ``marscore`` package under ``src/`` at revision ``--base`` (default ``HEAD``)
is exported into a temporary directory as package ``marscore_base``, and the
working tree's as ``marscore_change`` beside it; their imports are relative,
so both renamed copies load in one process. Neither side is the importable
``marscore``: on a 2-core x86-64 host, the working tree timed as ``marscore``
against an exported copy of itself read 1-2% slower. Each round then runs one
block of replications of a Monte Carlo workload from ``perfbench/workloads.py``
(its config, block size and block seeds) through both packages, switching
which side goes first from round to round, so that drift in the machine's
speed falls on both sides of a pair alike. Run it from any directory::

    python3 tools/abtest.py --base HEAD --workload mc_ex2_het_n1000 --rounds 30

It prints each side's milliseconds per replication (median and quartiles),
the median and quartiles of the paired ratio ``base / change`` (above 1 when
the working tree is faster), the share of pairs the working tree won, and
whether both sides' ``StudyDetails`` were bitwise equal in every round (a
block in which every replication fails compares the raised class). It exits 1
if they were not, so that no timing is read off two programs that compute
different numbers. BLAS is pinned to one thread, as ``perfbench/run.py`` does.
"""

import argparse
import importlib
import io
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from time import perf_counter

# before numpy loads: its BLAS reads the thread count once
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})
ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

import numpy as np  # noqa: E402

from perfbench import workloads as wl  # noqa: E402


def export_sides(revision: str, into: Path) -> dict:
    """Import ``src/marscore`` at ``revision`` as package ``marscore_base`` and the working
    tree's as ``marscore_change``, both from ``into``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", revision, "src/marscore"],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    (into / "src" / "marscore").rename(into / "marscore_base")
    shutil.copytree(ROOT / "src" / "marscore", into / "marscore_change",
                    ignore=shutil.ignore_patterns("__pycache__"))
    sys.path.insert(0, str(into))
    return {name: importlib.import_module(f"marscore_{name}") for name in ("base", "change")}


def run_block(package, workload, cfg, base_seed: int):
    """Seconds per replication of one block, and its ``StudyDetails`` fields as bytes (or the
    class that the study raised)."""
    start = perf_counter()
    try:
        report = package.sim.run_rejection_study(cfg, workload.block, alpha=wl.ALPHA,
                                                 base_seed=base_seed, keep_details=True)
    except package.MarscoreError as exc:
        output = type(exc).__name__
    else:
        details = report.details
        output = tuple(np.asarray(getattr(details, f)).tobytes() for f in details.__dataclass_fields__)
    return (perf_counter() - start) / workload.block, output


def spread(values) -> str:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{q2:.4f} (quartiles {q1:.4f}-{q3:.4f})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD", help="git revision of the base side (default HEAD)")
    parser.add_argument("--workload", required=True,
                        choices=[name for name, w in wl.WORKLOADS.items() if w.kind == "mc"])
    parser.add_argument("--rounds", type=int, default=10, help="timed pairs of blocks (at least 2)")
    parser.add_argument("--seed", type=int, default=1, help="the workload seed of perfbench/run.py")
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be at least 2")
    workload = wl.WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory() as work:
        sides = export_sides(args.base, Path(work))
        configs = {name: workload.config(package.sim) for name, package in sides.items()}
        times = {name: [] for name in sides}
        equal = True
        for index in range(args.rounds + 1):  # round 0 warms both sides up and is not timed
            order = ("base", "change") if index % 2 else ("change", "base")
            seed = wl.block_seed(args.seed, index)
            results = {name: run_block(sides[name], workload, configs[name], seed) for name in order}
            equal &= results["base"][1] == results["change"][1]
            if index:
                for name, (seconds, _) in results.items():
                    times[name].append(seconds)
    ratios = [b / c for b, c in zip(times["base"], times["change"])]
    print(f"{args.workload}: seed {args.seed}, {args.rounds} rounds of {workload.block} replications, "
          f"base {args.base}")
    for name in sides:
        print(f"{name:6} ms per replication {spread([1e3 * t for t in times[name]])}")
    won = sum(r > 1.0 for r in ratios)
    print(f"paired ratio base/change {spread(ratios)}; change faster in {won} of {len(ratios)} pairs "
          f"({won / len(ratios):.2f})")
    print(f"StudyDetails bitwise equal: {'yes' if equal else 'no'}")
    return 0 if equal else 1


if __name__ == "__main__":
    sys.exit(main())
