"""Spans recorded from outside the marscore package.

The tracer replaces the names that ``marscore.sim``, ``marscore.io``,
``marscore.cli``, ``marscore.model`` and ``marscore.score`` import with
wrappers that record one span per call, then restores them. Because the
wrappers sit at the import sites, a span for ``model.fit_outcome`` nests under
the real ``run_rejection_study`` or ``cli.main`` call that made it, and code
that stops calling a wrapped name (a batched engine, say) shows up as a layer
with no calls rather than as a layer that got faster.
"""

from __future__ import annotations

import importlib
import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module, imported name, span name). Several names may share a span name:
# S1 is score_statistic_s1 plus variance_s1, and every Cholesky solve, whether
# through solve_spd or quad_form_inv, is one numerics.solve_spd span.
SITES = (
    ("marscore.sim", "run_single_replication", "sim.replication"),
    ("marscore.sim", "generate", "sim.generate"),
    ("marscore.sim", "fit_propensity_null", "model.fit_propensity"),
    ("marscore.sim", "fit_outcome_parametric", "model.fit_outcome"),
    ("marscore.sim", "fit_location", "model.fit_location"),
    ("marscore.sim", "score_statistic_s1", "score.s1"),
    ("marscore.sim", "variance_s1", "score.s1"),
    ("marscore.sim", "score_statistic_s2", "score.s2"),
    ("marscore.sim", "variance_s2", "score.s2"),
    ("marscore.cli", "read_csv", "io.read_csv"),
    ("marscore.cli", "write_report", "io.write_report"),
    ("marscore.io", "group_by", "io.group_by"),
    ("marscore.io", "fit_propensity_null", "model.fit_propensity"),
    ("marscore.io", "fit_outcome_parametric", "model.fit_outcome"),
    ("marscore.io", "fit_location", "model.fit_location"),
    ("marscore.io", "score_statistic_s1", "score.s1"),
    ("marscore.io", "variance_s1", "score.s1"),
    ("marscore.io", "score_statistic_s2", "score.s2"),
    ("marscore.io", "variance_s2", "score.s2"),
    ("marscore.model", "solve_spd", "numerics.solve_spd"),
    ("marscore.score", "solve_spd", "numerics.solve_spd"),
    ("marscore.score", "quad_form_inv", "numerics.solve_spd"),
)

# Boundaries whose results carry an ``iterations`` count.
ITERATED = ("model.fit_propensity", "model.fit_outcome")

FIELDS = ("name", "start", "end", "parent", "call", "rep", "error", "iterations")
NAME, START, END, PARENT, CALL, REP, ERROR, ITERS = range(len(FIELDS))


class Tracer:
    """Spans kept in memory as lists:
    ``[name, start, end, parent index, call id, replication id, error class, iterations]``.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.call_id = None

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        iterated = name in ITERATED
        replication = name == "sim.replication"

        def traced(*args, **kwargs):
            rep = args[1].stream_id if replication else (spans[stack[-1]][REP] if stack else None)
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.call_id, rep, None, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()
            if iterated:
                span[ITERS] = result.iterations
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every site in ``SITES`` for the duration of the block."""
        saved = []
        try:
            for module_name, attr, span_name in SITES:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(span_name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def summary(self) -> dict:
        """Totals per span name: calls, inclusive and self seconds, iterations
        of successful calls, and exceptions by class."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[END] - span[START]
        out = defaultdict(lambda: {"calls": 0, "seconds": 0.0, "self_seconds": 0.0,
                                   "iterations": [], "errors": Counter(), "error_seconds": 0.0})
        for i, span in enumerate(self.spans):
            entry = out[span[NAME]]
            duration = span[END] - span[START]
            entry["calls"] += 1
            entry["seconds"] += duration
            entry["self_seconds"] += duration - child[i]
            if span[ERROR] is not None:
                entry["errors"][span[ERROR]] += 1
                entry["error_seconds"] += duration
            elif span[ITERS] is not None:
                entry["iterations"].append(span[ITERS])
        return dict(out)

    def write(self, path) -> None:
        """One JSON line per span, times relative to the first span."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                row = dict(zip(FIELDS, span))
                row["start"] -= t0
                row["end"] -= t0
                handle.write(json.dumps(row) + "\n")
