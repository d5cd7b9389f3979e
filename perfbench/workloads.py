"""Workload definitions, input generation and the reference computations
that the output checks compare against.

Everything here derives from the workload's seed alone. Only the worker
process imports marscore; ``run.py`` uses this module for the CSV input.
"""

from __future__ import annotations

import csv
import dataclasses
from dataclasses import dataclass

import numpy as np

ALPHA = 0.05
HELD_OUT_SEED = 424242
MAX_SEED = 2**40
_BLOCK_BITS = 20


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "mc": run_rejection_study blocks; "cli": `marscore test` calls
    example: int = 0  # mc: which ExampleNConfig
    params: tuple = ()  # mc: config keyword arguments
    block: int = 0  # mc: replications per run_rejection_study call
    rows: int = 0  # cli: rows of the generated CSV
    trace_calls_per_s: float = 1.0  # calls per second of --seconds in a traced run
    reference_loops: int = 2  # loops of the reference work before and after each call

    def config(self, sim):
        return getattr(sim, f"Example{self.example}Config")(**dict(self.params))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("mc_ex2_het_n1000", "mc", example=2, block=10, trace_calls_per_s=7.0,
                 params=(("n", 1000), ("xi_true", (1.0, 1.0, 0.5, 1.0)), ("beta0", 0.5),
                         ("beta1", 0.5), ("gamma", 0.25))),
        Workload("mc_ex1_n10000", "mc", example=1, block=5, trace_calls_per_s=7.0,
                 params=(("n", 10000), ("c1", 0.0))),
        Workload("mc_ex2_hom_n15", "mc", example=2, block=10, trace_calls_per_s=5.0,
                 params=(("n", 15), ("xi_true", (-1.0, 1.0, 0.5, 0.0)), ("beta0", 0.85),
                         ("beta1", 0.0), ("gamma", 0.0))),
        Workload("cli_test_csv", "cli", rows=50_000, trace_calls_per_s=0.8, reference_loops=10),
    )
}

# Reduced sizes for the benchmark's own tests; same code paths.
TINY = {
    "mc_ex2_het_n1000": {"params": {"n": 200}, "block": 3},
    "mc_ex1_n10000": {"params": {"n": 1000}, "block": 3},
    "mc_ex2_hom_n15": {"block": 4},
    "cli_test_csv": {"rows": 2_000},
}


def get(name: str, tiny: bool = False) -> Workload:
    w = WORKLOADS[name]
    if not tiny:
        return w
    change = dict(TINY[name])
    params = dict(w.params)
    params.update(change.pop("params", {}))
    return dataclasses.replace(w, **change, params=tuple(params.items()))


def block_seed(seed: int, block: int) -> int:
    """Base seed of the ``block``-th run_rejection_study call of a run."""
    return (seed << _BLOCK_BITS) | block


# --------------------------------------------------------------------------
# cli_test_csv: a grouped dataset with three covariates and a MAR outcome

GROUPS = 8
CLI_ARGS = (
    "--outcome", "y", "--covariates", "a,b,c", "--propensity", "a",
    "--mean-basis", "1,b,c,a^2,b*c", "--logvar-basis", "1,a",
    "--variants", "s1,s2", "--group-by", "g", "--format", "json",
)


def cli_arrays(seed: int, rows: int):
    """Covariates (a, b, c), observation flags, full outcomes and group labels."""
    rng = np.random.default_rng(seed)
    a, b, c = rng.standard_normal((3, rows))
    mean = 0.5 + b - 0.5 * c + 0.3 * a**2 + 0.2 * b * c
    y = mean + np.exp(0.5 * (0.2 + 0.3 * a)) * rng.standard_normal(rows)
    d = (rng.random(rows) < 1.0 / (1.0 + np.exp(-(0.8 + 0.6 * a)))).astype(np.int8)
    groups = rng.integers(0, GROUPS, rows)
    return np.column_stack([a, b, c]), d, y, [f"g{k}" for k in groups]


def csv_path(work_dir, workload):
    """Where run.py writes the workload's CSV input before starting workers."""
    return work_dir / f"{workload.name}.csv"


def write_cli_csv(path, seed: int, rows: int) -> None:
    covariates, d, y, labels = cli_arrays(seed, rows)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["a", "b", "c", "y", "g"])
        for i in range(rows):
            cells = [repr(float(v)) for v in covariates[i]]
            cells.append(repr(float(y[i])) if d[i] else "NA")
            cells.append(labels[i])
            writer.writerow(cells)


def cli_reference(marscore, seed: int, rows: int) -> dict:
    """z per (group, variant), from the library fits on the generated arrays."""
    covariates, d, y, labels = cli_arrays(seed, rows)
    labels = np.array(labels)
    intercept, raw, square, product = marscore.intercept, marscore.raw, marscore.square, marscore.product
    mean_basis = (intercept(), raw(2), raw(3), square(1), product(2, 3))
    family = marscore.GaussianOutcomeFamily(mean_basis=mean_basis, logvar_basis=(intercept(), raw(1)))
    out = {}
    for label in dict.fromkeys(labels):
        rows_g = labels == label
        data = marscore.Dataset(
            x=np.column_stack([np.ones(int(rows_g.sum())), covariates[rows_g]]),
            d=d[rows_g],
            y_complete=y[rows_g & (d == 1)],
        )
        pf = marscore.fit_propensity_null(data, columns=(0, 1))
        of = marscore.fit_outcome_parametric(data, family)
        lf = marscore.fit_location(data, mean_basis)
        out[(str(label), "S1")] = marscore.test_report(
            marscore.score_statistic_s1(data, pf, of), marscore.variance_s1(data, pf, of), data.n).z
        out[(str(label), "S2")] = marscore.test_report(
            marscore.score_statistic_s2(data, pf, lf), marscore.variance_s2(data, pf, lf), data.n).z
    return out


# --------------------------------------------------------------------------
# mc_*: one replication through the public scalar functions


def _models(marscore, example: int):
    """Outcome family, location basis and propensity columns of each design."""
    intercept, raw, square = marscore.intercept, marscore.raw, marscore.square
    if example == 1:
        basis = (intercept(), raw(1), raw(2))
        return marscore.GaussianOutcomeFamily(mean_basis=basis, logvar_basis=(intercept(),)), basis, (0, 1)
    basis = (raw(1), square(1))
    return marscore.GaussianOutcomeFamily(mean_basis=basis, logvar_basis=(intercept(), raw(1))), basis, None


def reference_replication(marscore, cfg, example: int, base_seed: int, r: int):
    """(z_s1, z_s2, failed) of replication ``r``, recomputed from RngStream(base_seed, r)."""
    family, basis, columns = _models(marscore, example)
    generate = marscore.generate_example1 if example == 1 else marscore.generate_example2
    try:
        data = generate(cfg, marscore.RngStream(base_seed, r))
        pf = marscore.fit_propensity_null(data, columns=columns)
        of = marscore.fit_outcome_parametric(data, family)
        lf = marscore.fit_location(data, basis)
        r1 = marscore.test_report(
            marscore.score_statistic_s1(data, pf, of), marscore.variance_s1(data, pf, of), data.n)
        r2 = marscore.test_report(
            marscore.score_statistic_s2(data, pf, lf), marscore.variance_s2(data, pf, lf), data.n)
    except marscore.MarscoreError:
        return float("nan"), float("nan"), True
    return r1.z, r2.z, False


def close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)
