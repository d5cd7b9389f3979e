"""The measured process of one benchmark run.

``run.py`` starts this script in a fresh interpreter with BLAS pinned to one
thread, in one of three modes:

* ``setup``: import marscore and marscore.cli, make one warm-up call, exit.
  ``run.py`` times the whole launch from outside.
* ``measure``: one untimed warm-up call, then calls until ``--seconds`` have
  passed with tracing off, then the output checks.
* ``trace``: a fixed number of calls, each run once untraced and once under
  the tracer, then the output checks; per-layer metrics and the spans file.

The last line of standard output is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402
from reference import Reference  # noqa: E402
from tracing import Tracer  # noqa: E402

CHECK_SAMPLE = 16  # replications re-run through the scalar functions per run
Z_RTOL_MC = 1e-8
Z_RTOL_CLI = 1e-10

# Boundaries and the exception classes counted at each in the per-layer
# metrics. Others that occur are reported by run.py but not in its JSON line.
FAILURE_CLASSES = {
    "model.fit_propensity": ("Separation", "NoConvergence", "RankDeficientDesign"),
    "model.fit_outcome": ("DegenerateVariance", "NoConvergence", "RankDeficientDesign"),
    "model.fit_location": ("RankDeficientDesign",),
    "score.s1": ("NegativeVariance",),
    "score.s2": ("NegativeVariance",),
    "numerics.solve_spd": ("SingularMatrix",),
}
TIMED_LAYERS = ("sim.generate", "model.fit_propensity", "model.fit_outcome", "model.fit_location",
                "score.s1", "score.s2", "numerics.solve_spd", "io.read_csv", "io.group_by",
                "io.write_report")


def import_marscore():
    import marscore
    import marscore.cli

    if not Path(marscore.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"marscore was imported from {marscore.__file__}, not from {ROOT / 'src'}")
    return marscore


class McRunner:
    """Calls are run_rejection_study blocks; operations are replications."""

    top_span = "sim.study"

    def __init__(self, marscore, workload, seed, work_dir):
        self.m = marscore
        self.w = workload
        self.seed = seed
        self.cfg = workload.config(marscore.sim)
        self.entry = marscore.sim.run_rejection_study
        self.ops_per_call = workload.block
        self.rows_per_op = self.cfg.n

    def call(self, index, entry=None):
        """The block's report, or None when every replication failed to fit
        (run_rejection_study then raises: it has nothing to aggregate)."""
        try:
            return (entry or self.entry)(self.cfg, self.w.block, alpha=wl.ALPHA,
                                         base_seed=wl.block_seed(self.seed, index), keep_details=True)
        except self.m.MarscoreError:
            return None

    def collect(self, output):
        return output

    def same(self, a, b) -> bool:
        if a is None or b is None:
            return a is b
        da, db = a.details, b.details
        return (a.to_dict() == b.to_dict()
                and all(np.array_equal(getattr(da, f), getattr(db, f), equal_nan=True)
                        for f in ("z_s1", "z_s2", "stat_s1", "stat_s2", "failed")))

    def check(self, outputs) -> tuple[set, int]:
        """Failed operations as (call, replication) pairs, and the count of
        replications that failed to fit (classified MarscoreError)."""
        block = self.w.block
        z_crit = self.m.normal_quantile(1.0 - wl.ALPHA / 2.0)
        bad, fit_failed, failed_reps = set(), 0, []
        for index, report in outputs:
            if report is None:
                fit_failed += block
                failed_reps += [(index, r) for r in range(block)]
                continue
            flags = report.details.failed
            fit_failed += int(flags.sum())
            failed_reps += [(index, int(r)) for r in np.flatnonzero(flags)]
            ok = ~flags
            n_ok = int(ok.sum())
            rates = [int(np.count_nonzero(np.abs(z[ok]) > z_crit)) / n_ok
                     for z in (report.details.z_s1, report.details.z_s2)]
            if (report.replications != block or report.fit_failure_count != int(flags.sum())
                    or rates != [report.rate_s1, report.rate_s2]):
                bad.update((index, r) for r in range(block))
        step = max(1, len(outputs) // CHECK_SAMPLE)
        sample = [(index, index % block) for index, _ in outputs[::step][:CHECK_SAMPLE]]
        sample += failed_reps[:CHECK_SAMPLE]
        by_index = dict(outputs)
        for index, r in dict.fromkeys(sample):
            z1, z2, failed = wl.reference_replication(
                self.m, self.cfg, self.w.example, wl.block_seed(self.seed, index), r)
            report = by_index[index]
            if report is None:
                match = failed
            else:
                det = report.details
                match = bool(det.failed[r]) == failed and (
                    failed or (wl.close(det.z_s1[r], z1, Z_RTOL_MC) and wl.close(det.z_s2[r], z2, Z_RTOL_MC)))
            if not match:
                bad.add((index, r))
        return bad, fit_failed


class CliRunner:
    """Calls are `marscore test` invocations through marscore.cli.main."""

    top_span = "cli.main"
    ops_per_call = 1

    def __init__(self, marscore, workload, seed, work_dir):
        self.m = marscore
        self.w = workload
        self.seed = seed
        self.rows_per_op = workload.rows
        self.entry = marscore.cli.main
        self.report = work_dir / f"{workload.name}-report.json"
        self.argv = ["test", "--data", str(wl.csv_path(work_dir, workload)),
                     *wl.CLI_ARGS, "--output", str(self.report)]

    def call(self, index, entry=None):
        stderr = io.StringIO()
        with open(os.devnull, "w") as sink, \
                contextlib.redirect_stdout(sink), contextlib.redirect_stderr(stderr):
            try:
                code = (entry or self.entry)(self.argv)
            except SystemExit as exc:
                code = exc.code
        return code, stderr.getvalue()

    def collect(self, output):
        code, stderr = output
        return code, stderr, self.report.read_bytes() if code == 0 else b""

    def same(self, a, b) -> bool:
        return a == b

    def check(self, outputs) -> tuple[set, int]:
        reference = wl.cli_reference(self.m, self.seed, self.w.rows)
        verdicts = {}
        bad = set()
        for index, (code, stderr, report) in outputs:
            if report not in verdicts:
                verdicts[report] = self._report_ok(report, reference)
            if code != 0 or not verdicts[report]:
                bad.add(index)
        return bad, 0

    @staticmethod
    def _report_ok(report: bytes, reference: dict) -> bool:
        try:
            payload = json.loads(report)
        except ValueError:
            return False
        records = payload.get("results", [])
        seen = {(rec.get("group"), rec.get("variant")): rec.get("z") for rec in records}
        return (payload.get("schema_version") == 1 and len(records) == 2 * wl.GROUPS
                and seen.keys() == reference.keys()
                and all(isinstance(z, float) and wl.close(z, reference[key], Z_RTOL_CLI)
                        for key, z in seen.items()))


def measure(runner, seconds: float, reference: Reference) -> dict:
    """Calls until ``seconds`` have passed, each between two runs of the
    reference work; ``scaled`` holds each call's time at reference speed."""
    runner.call(0)
    reference.seconds()
    times, refs, outputs = [], [reference.seconds()], []
    deadline = perf_counter() + seconds
    index = 1
    while True:
        t0 = perf_counter()
        out = runner.call(index)
        t1 = perf_counter()
        times.append(t1 - t0)
        refs.append(reference.seconds())
        outputs.append((index, runner.collect(out)))
        index += 1
        if t1 >= deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    bad, fit_failed = runner.check(outputs)
    nominal = reference.nominal_seconds()
    scaled = [t * 2.0 * nominal / (before + after) for t, before, after in zip(times, refs, refs[1:])]
    return {"times": times, "scaled": scaled, "reference_times": refs,
            "attempted": len(times) * runner.ops_per_call, "failed": len(bad),
            "fit_failed": fit_failed, "peak_rss_mb": peak_rss_mb}


def trace(runner, calls: int, spans_path) -> dict:
    """Run calls 1..calls untraced and traced back to back; compare outputs."""
    runner.call(0)
    tracer = Tracer()
    untraced_s = traced_s = 0.0
    outputs, bad = [], set()
    for index in range(1, calls + 1):
        t0 = perf_counter()
        plain = runner.collect(runner.call(index))
        untraced_s += perf_counter() - t0
        with tracer.installed():
            tracer.call_id = index
            entry = tracer.wrap(runner.top_span, runner.entry)
            t0 = perf_counter()
            out = runner.call(index, entry)
            traced_s += perf_counter() - t0
        traced = runner.collect(out)
        if not runner.same(plain, traced):
            bad.update((index, r) for r in range(runner.ops_per_call))
        outputs.append((index, traced))
    checked_bad, fit_failed = runner.check(outputs)
    bad |= checked_bad
    tracer.write(spans_path)
    ops = calls * runner.ops_per_call
    return {"layers": layer_metrics(tracer.summary(), ops, untraced_s, traced_s),
            "attempted": ops, "failed": len(bad), "fit_failed": fit_failed}


def layer_metrics(summary: dict, ops: int, untraced_s: float, traced_s: float) -> dict:
    """Per-layer values per operation, each with its sample count.

    A layer whose wrappers saw no calls gets the value None (absent), not 0.
    """
    out = {}

    def put(name, value, samples):
        out[name] = {"value": value, "samples": samples}

    for layer in TIMED_LAYERS:
        e = summary.get(layer)
        calls = e["calls"] if e else 0
        put(f"{layer}_ms", 1e3 * e["seconds"] / ops if e else None, calls)
        put(f"{layer}_calls", calls / ops if e else None, calls)
    for layer in ("model.fit_propensity", "model.fit_outcome"):
        iters = summary[layer]["iterations"] if layer in summary else []
        put(f"{layer}_iters", sum(iters) / len(iters) if iters else None, len(iters))
    for layer, classes in FAILURE_CLASSES.items():
        e = summary.get(layer)
        errors = e["errors"] if e else {}
        for cls in dict.fromkeys((*classes, *sorted(errors))):
            put(f"{layer}_failed.{cls}", errors.get(cls, 0) if e else None, e["calls"] if e else 0)

    study, rep = summary.get("sim.study"), summary.get("sim.replication")
    self_s = study["self_seconds"] + rep["self_seconds"] if study and rep else None
    put("sim.study_self_ms", self_s and 1e3 * self_s / ops, rep["calls"] if rep else 0)
    put("sim.failed_work_share", rep and rep["error_seconds"] / rep["seconds"], rep["calls"] if rep else 0)
    put("sim.failed_rep_share", rep and sum(rep["errors"].values()) / rep["calls"],
        rep["calls"] if rep else 0)
    main = summary.get("cli.main")
    put("cli.self_ms", main and 1e3 * main["self_seconds"] / main["calls"], main["calls"] if main else 0)
    put("trace.overhead_share", 1.0 - untraced_s / traced_s, ops)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "measure", "trace"))
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    marscore = import_marscore()
    workload = wl.get(args.workload, args.tiny)
    runner_class = McRunner if workload.kind == "mc" else CliRunner
    runner = runner_class(marscore, workload, args.seed, args.work_dir)
    if args.mode == "setup":
        runner.call(0)
        return 0
    if args.mode == "measure":
        result = measure(runner, args.seconds, Reference(workload.reference_loops))
    else:
        calls = max(2, round(args.seconds * workload.trace_calls_per_s))
        spans = args.work_dir / f"spans-{workload.name}.jsonl"
        result = trace(runner, calls, spans)
        result["spans_file"] = str(spans.relative_to(ROOT))
    result.update(ops_per_call=runner.ops_per_call, rows_per_op=runner.rows_per_op)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
