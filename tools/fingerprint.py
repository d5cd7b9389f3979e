"""Print SHA-256 fingerprints of marscore's outputs, to show that a change leaves them bitwise equal.

One line per (Monte Carlo design, seed) hashes every replication of
``run_single_replication(cfg, RngStream(seed, r))``: its six numbers (each
test's statistic, σ² and z, as ``float.hex``), or ``"<Class>: <message>"`` for
a replication that fails to fit. One line per ``marscore test`` report hashes
the report's bytes, JSON and CSV, for the benchmark's ``cli_test_csv`` input
and for a fully quoted copy of it (``cli_test_csv_quoted``), which ``read_csv``
reads by its exact ``csv`` route: the tool exits with an error unless the two
inputs' reports are byte-identical.
The benchmark's designs and the CLI input come from ``perfbench/workloads.py``.
Two more designs fit an intercept-only log variance at sizes where some
replications fail: Example 1 at n = 12, and Example 2 under the homoskedastic
working model at n = 15.

Run it from any directory, at two commits, and compare the outputs::

    python3 tools/fingerprint.py

It pins one BLAS thread, as ``perfbench/run.py`` does. ``z`` bits depend on
the BLAS build, so two machines may print different lines for one commit.
"""

import contextlib
import csv
import dataclasses
import hashlib
import os
import sys
import tempfile
from pathlib import Path

# before numpy loads: its BLAS reads the thread count once
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})
ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from marscore import cli, sim  # noqa: E402
from marscore.basis import intercept  # noqa: E402
from marscore.exceptions import MarscoreError  # noqa: E402
from marscore.numerics import RngStream  # noqa: E402
from perfbench import workloads as wl  # noqa: E402

REPLICATIONS = {"mc_ex2_hom_n15": 3000, "mc_ex2_het_n1000": 300, "mc_ex1_n10000": 60}
MC_SEEDS = (1, 2, wl.HELD_OUT_SEED)
CLI_SEEDS = (1, wl.HELD_OUT_SEED)


def study_digest(cfg, seed: int, replications: int) -> str:
    digest = hashlib.sha256()
    for r in range(replications):
        try:
            r1, r2 = sim.run_single_replication(cfg, RngStream(seed, r))
        except MarscoreError as exc:
            line = f"{type(exc).__name__}: {exc}"
        else:
            values = (r1.statistic, r1.sigma_sq_hat, r1.z, r2.statistic, r2.sigma_sq_hat, r2.z)
            line = " ".join(float.hex(float(v)) for v in values)
        digest.update(f"{r} {line}\n".encode())
    return digest.hexdigest()


def report_digests(data: Path) -> dict:
    digests = {}
    for fmt in ("json", "csv"):
        out = data.with_suffix(f".report.{fmt}")
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            code = cli.main(["test", "--data", str(data), *wl.CLI_ARGS, "--format", fmt, "--output", str(out)])
        if code != 0:
            raise SystemExit(f"marscore test exited {code} on {data.name}, format {fmt}")
        digests[fmt] = hashlib.sha256(out.read_bytes()).hexdigest()
    return digests


def write_quoted(source: Path, path: Path) -> None:
    """A copy of a CSV file with every field quoted."""
    with open(source, newline="", encoding="utf-8") as src, open(path, "w", newline="", encoding="utf-8") as dst:
        csv.writer(dst, quoting=csv.QUOTE_ALL).writerows(csv.reader(src))


class HomWorkingModel(sim.Example2Config):
    """Example 2 under a homoskedastic working outcome model."""

    family = dataclasses.replace(sim.Example2Config.family, logvar_basis=(intercept(),))


def designs() -> list:
    """``(name, config, replications)`` of each Monte Carlo design."""
    benchmark = [(name, wl.WORKLOADS[name].config(sim), reps) for name, reps in REPLICATIONS.items()]
    return benchmark + [("ex1_n12", sim.Example1Config(n=12), 3000), ("hom_n15", HomWorkingModel(n=15), 3000)]


def main() -> None:
    for name, cfg, replications in designs():
        for seed in MC_SEEDS:
            print(f"{name} seed={seed} reps={replications} {study_digest(cfg, seed, replications)}", flush=True)
    with tempfile.TemporaryDirectory() as work:
        for seed in CLI_SEEDS:
            data, quoted = Path(work, f"plain_{seed}.csv"), Path(work, f"quoted_{seed}.csv")
            wl.write_cli_csv(data, seed, wl.WORKLOADS["cli_test_csv"].rows)
            write_quoted(data, quoted)
            digests = {"cli_test_csv": report_digests(data), "cli_test_csv_quoted": report_digests(quoted)}
            for name, by_format in digests.items():
                for fmt, digest in by_format.items():
                    print(f"{name} seed={seed} {fmt} {digest}", flush=True)
            if len(set(map(str, digests.values()))) > 1:
                raise SystemExit(f"the quoted copy of seed {seed}'s input gives other reports")


if __name__ == "__main__":
    main()
