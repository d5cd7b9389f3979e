"""CSV ingestion, run configuration, and report serialization.

Input files are UTF-8 (a leading byte-order mark is skipped), comma-delimited,
with a mandatory header row. A blank or ``NA`` outcome cell marks the row's
outcome as missing; covariate cells must always be present. Every present
cell must be a finite number. The constant intercept column is synthesized
here, never read from the file. JSON reports carry a top-level
``schema_version``.

``read_csv`` reads plain blocks of lines with numpy's C parser and every
other block with the ``csv`` module; the two routes give the same dataset,
and only the ``csv`` route raises, so errors are the same too.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
from collections import defaultdict
from contextlib import contextmanager, suppress
from dataclasses import asdict, dataclass
from itertools import chain, islice

import numpy as np

from .basis import BasisTerm, intercept, product, raw
from .data import Dataset
from .exceptions import (
    EmptyDataset,
    IoFailure,
    MarscoreError,
    MissingColumn,
    MissingCovariate,
    NonNumericCell,
)
from .model import GaussianOutcomeFamily, fit_location, fit_outcome_parametric, fit_propensity_null
from .score import (
    ScoreTestResult,
    score_statistic_s1,
    score_statistic_s2,
    test_report,
    variance_s1,
    variance_s2,
    with_report_terms,
)

SCHEMA_VERSION = 1

_NA_STRINGS = {"", "na"}
_BLOCK_ROWS = 4096  # lines, or records after a quote, parsed per step
# one search costs a third of counting "\r" and "\r\n" on a block of "\r\n"-ended lines
_LONE_CR = re.compile("\r(?!\n)")


def parse_term(term: str, covariate_names) -> BasisTerm:
    """Parse a basis term over covariate names: ``1``, ``name``, ``name^2``
    or ``a*b``. Each is the product of two covariate-matrix columns, column 0
    being the synthesized intercept, so ``a*b`` equals ``b*a`` and ``a*a``
    equals ``a^2``."""
    names = list(covariate_names)

    def index_of(name: str) -> int:
        name = name.strip()
        if name not in names:
            raise ValueError(f"basis term references undeclared covariate {name!r}")
        return 1 + names.index(name)

    term = term.strip()
    if term == "1":
        return intercept()
    if "*" in term:
        left, _, right = term.partition("*")
    elif term.endswith("^2"):
        left = right = term[:-2]
    else:
        return raw(index_of(term))
    return product(index_of(left), index_of(right))


@dataclass(frozen=True)
class ColumnSpec:
    """Names the outcome, covariates, and model terms for one analysis run.

    ``propensity_columns`` defaults to every covariate; the basis specs
    default to an intercept plus each raw covariate for the mean and an
    intercept-only log variance.
    """

    outcome_column: str
    covariate_columns: tuple
    propensity_columns: tuple | None = None
    mean_basis_spec: tuple | None = None
    logvar_basis_spec: tuple = ("1",)

    def __post_init__(self):
        covs = tuple(self.covariate_columns)
        object.__setattr__(self, "covariate_columns", covs)
        if self.outcome_column in covs:
            raise ValueError(f"outcome column {self.outcome_column!r} is also a covariate")
        if len(set(covs)) != len(covs):
            raise ValueError("covariate columns must be distinct")
        if self.propensity_columns is not None:
            prop = tuple(self.propensity_columns)
            unknown = [c for c in prop if c not in covs]
            if unknown:
                raise ValueError(f"propensity columns {unknown} are not declared covariates")
            if len(set(prop)) != len(prop):
                raise ValueError("propensity columns must be distinct")
            object.__setattr__(self, "propensity_columns", prop)
        if self.mean_basis_spec is not None:
            object.__setattr__(self, "mean_basis_spec", tuple(self.mean_basis_spec))
        object.__setattr__(self, "logvar_basis_spec", tuple(self.logvar_basis_spec))
        # fail fast on malformed or repeated terms
        for basis in (self.mean_basis(), self.logvar_basis()):
            if len(set(basis)) != len(basis):
                raise ValueError("basis terms must be distinct")

    def effective_mean_spec(self) -> tuple:
        if self.mean_basis_spec is not None:
            return self.mean_basis_spec
        return ("1",) + self.covariate_columns

    def mean_basis(self) -> tuple:
        return tuple(parse_term(t, self.covariate_columns) for t in self.effective_mean_spec())

    def logvar_basis(self) -> tuple:
        return tuple(parse_term(t, self.covariate_columns) for t in self.logvar_basis_spec)

    def family(self) -> GaussianOutcomeFamily:
        return GaussianOutcomeFamily(mean_basis=self.mean_basis(), logvar_basis=self.logvar_basis())

    def propensity_column_indices(self) -> tuple:
        """Covariate-matrix column indices of the propensity design
        (intercept always included)."""
        if self.propensity_columns is None:
            return tuple(range(1 + len(self.covariate_columns)))
        names = list(self.covariate_columns)
        return (0,) + tuple(1 + names.index(c) for c in self.propensity_columns)


@dataclass(frozen=True)
class RunConfig:
    """Everything a data-analysis run needs besides the dataset itself."""

    columns: ColumnSpec
    variants: tuple = ("S1", "S2")
    group_by: str | None = None

    def __post_init__(self):
        variants = tuple(v.upper() for v in self.variants)
        if not variants or any(v not in ("S1", "S2") for v in variants):
            raise ValueError(f"variants must be a nonempty subset of S1/S2, got {self.variants}")
        object.__setattr__(self, "variants", variants)


def read_csv(path, spec: ColumnSpec, keep_columns=()) -> Dataset:
    """Read a dataset; blank/NA outcome cells become missing rows.

    ``keep_columns`` names string columns (e.g. a grouping variable) carried
    through, stripped of surrounding whitespace, in ``Dataset.labels``.
    Blank lines are skipped, cells past the header's width are ignored, and a
    short row reads as blank cells. A selected column that the header names
    twice is an error.

    The file is read one block of lines at a time, so the transient cost is
    one block's cells, by one of two routes with identical results. A plain
    block (no quote, no NUL, no carriage return outside ``\\r\\n``, no
    line longer than the csv field size limit) has one record per non-blank
    line and goes through numpy's C parser in one call. The rest of the file
    from any other block on (a quoted field can run on into the next block)
    goes through ``csv.reader`` and is read cell by cell, row by row.
    Only that exact route raises: a plain block that numpy refuses, or that
    holds a non-finite or unparsable value, is parsed again by it, so every
    error, row number and line number is the exact route's.
    """
    keep_columns = tuple(keep_columns)
    offset = 0  # lines read before `reader` started
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            reader = csv.reader(handle)
            header = next(reader, [])
            at = {}
            for col in (spec.outcome_column, *spec.covariate_columns, *keep_columns):
                if col not in header:
                    raise MissingColumn(f"column {col!r} not found in {path} (header: {header})")
                if header.count(col) > 1:
                    raise IoFailure(
                        f"cannot parse {path}, line 1: column {col!r} appears more than once in the header"
                    )
                at[col] = header.index(col)
            parts, records, consumed = [], 0, reader.line_num
            while True:
                lines, rest = [], None
                try:
                    for line in islice(handle, _BLOCK_ROWS):
                        lines.append(line)
                except UnicodeDecodeError as exc:
                    rest = _raising(exc)  # the exact route reads the lines before the failure first
                else:
                    if not _is_plain(lines):
                        rest = handle
                if rest is not None:
                    break
                part = _parse_plain(lines, 2 + records, at, spec, keep_columns)
                if part is not None:
                    parts.append(part)
                    records += len(part[0])
                consumed += len(lines)
                if len(lines) < _BLOCK_ROWS:
                    break
            if rest is not None:
                offset, reader = consumed, csv.reader(chain(lines, rest))
                rows_left = filter(None, reader)
                while True:
                    rows, first_row = [], 2 + records
                    try:
                        for row in islice(rows_left, _BLOCK_ROWS):
                            rows.append(row)
                    except (csv.Error, UnicodeDecodeError):
                        if rows:  # a bad cell read before the failure is the error reported
                            _parse_block(rows, first_row, at, spec, keep_columns)
                        raise
                    if rows:
                        parts.append(_parse_block(rows, first_row, at, spec, keep_columns))
                        records += len(rows)
                    if len(rows) < _BLOCK_ROWS:
                        break
            if not parts:
                raise EmptyDataset(f"{path} contains no data rows")
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    except csv.Error as exc:
        raise IoFailure(f"cannot parse {path}, line {offset + reader.line_num}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise IoFailure(f"{path} is not UTF-8: byte {_undecodable_offset(path)}: {exc.reason}") from None
    d, y, x, labels = zip(*parts)
    return Dataset(
        x=np.concatenate(x, axis=1).T, d=np.concatenate(d), y_complete=np.concatenate(y),
        labels={c: tuple(chain.from_iterable(block[c] for block in labels)) for c in keep_columns},
    )


def _raising(exc):
    """An iterator that raises ``exc`` when it is first read."""
    raise exc
    yield


def _is_plain(lines) -> bool:
    """Whether csv.reader would read each line as one record, or none if
    blank, with every cell the line's text between commas: a line within
    csv's field limit holds no field past it."""
    text = "".join(lines)
    return ('"' not in text and "\0" not in text and not _LONE_CR.search(text)
            and max(map(len, lines), default=0) <= csv.field_size_limit())


def _parse_plain(lines, first_row: int, at: dict, spec: ColumnSpec, keep_columns: tuple):
    """``_parse_block`` of a plain block of lines through one ``np.loadtxt``
    call, or None if every line is blank. A block that call refuses, or with
    a value that is not finite or an outcome ``float()`` refuses, goes
    through ``_parse_block``, which raises its first bad cell."""
    records = len(lines) - lines.count("\n") - lines.count("\r\n")
    if not records:
        return None  # loadtxt warns on input with no data
    columns = (spec.outcome_column, *spec.covariate_columns, *keep_columns)
    p = len(spec.covariate_columns)
    dtype = np.dtype([(f"f{k}", "f8" if 1 <= k <= p else object) for k in range(len(columns))])
    try:
        table = np.loadtxt(
            lines, dtype=dtype, delimiter=",", comments=None, quotechar=None,
            usecols=[at[c] for c in columns], ndmin=1,
        )
        outcome = table["f0"]
        observed = (outcome != "NA") & (outcome != "")
        # float() refuses every NA spelling, so a padded or lower-case NA goes to the exact route
        y = outcome[observed].astype(float)
    except ValueError:
        table = None
    # numpy skips the blank lines csv.reader skips; a version that also skipped a line
    # of whitespace, which csv.reader reads as a record, sends the block to the exact route
    if table is not None and len(table) == records:
        x = np.ones((1 + p, records))  # term-major: one row per covariate column
        for j in range(1, 1 + p):
            x[j] = table[f"f{j}"]
        if np.isfinite(x).all() and np.isfinite(y).all():
            labels = {c: list(map(str.strip, table[f"f{k}"].tolist())) for k, c in enumerate(keep_columns, 1 + p)}
            return observed.view(np.int8), y, x, labels
    return _parse_block(list(filter(None, csv.reader(lines))), first_row, at, spec, keep_columns)


def _parse_block(rows, first_row: int, at: dict, spec: ColumnSpec, keep_columns: tuple):
    """``(d, y, x, labels)`` of one block of records, the first numbered
    ``first_row``, read cell by cell in row-major order, the outcome first;
    raises the block's first bad cell."""
    width = 1 + max(at.values())
    names = (spec.outcome_column, *spec.covariate_columns)
    cells = [(j, at[name], name) for j, name in enumerate(names)]
    columns, missing = [[] for _ in names], []
    for number, row in enumerate(rows, start=first_row):
        if len(row) < width:  # a short row reads as blank cells
            row += [""] * (width - len(row))
        for j, k, name in cells:
            cell = row[k].strip()
            if cell.lower() in _NA_STRINGS:
                if j:
                    raise MissingCovariate(f"row {number}, column {name!r}: covariates may never be missing")
                missing.append(number - first_row)
                continue
            try:
                value = float(cell)
            except ValueError:
                raise NonNumericCell(
                    f"row {number}, column {name!r}: cannot parse {cell!r} as a number"
                ) from None
            if not math.isfinite(value):
                raise NonNumericCell(f"row {number}, column {name!r}: {value} is not a finite number")
            columns[j].append(value)
    d = np.ones(len(rows), dtype=np.int8)
    d[missing] = 0
    x = np.ones((len(names), len(rows)))  # term-major: row 0 the intercept, then one per covariate
    for j in range(1, len(names)):
        x[j] = columns[j]
    labels = {c: [row[at[c]].strip() for row in rows] for c in keep_columns}
    return d, np.array(columns[0], dtype=float), x, labels


def _undecodable_offset(path) -> int:
    """File offset of the first byte that is not valid UTF-8."""
    with open(path, "rb") as handle:
        try:
            handle.read().decode("utf-8")
        except UnicodeDecodeError as exc:
            return exc.start
    return -1


@contextmanager
def _replacing(path):
    """Write through ``<path>.tmp``, renamed over ``path`` once complete.

    The temporary file never outlives the call; an OSError becomes IoFailure.
    """
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", newline="", encoding="utf-8") as handle:
            yield handle
        os.replace(tmp, path)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc
    finally:
        with suppress(OSError):
            os.unlink(tmp)


def group_by(data: Dataset, group_column: str) -> list[tuple[str, Dataset]]:
    """Partition rows by a label column, preserving row order within groups.

    Groups appear in order of first appearance.
    """
    if group_column not in data.labels:
        raise MissingColumn(
            f"group column {group_column!r} was not kept at ingestion "
            f"(available: {sorted(data.labels)})"
        )
    members: dict[str, list[int]] = defaultdict(list)  # keeps first-appearance order
    for i, v in enumerate(data.labels[group_column]):
        members[v].append(i)
    rank = np.cumsum(data.d) - 1
    # every row of a group carries its label, so only the other label columns are gathered
    return [(label, data._subset(np.array(rows), {group_column: (label,) * len(rows)}, rank))
            for label, rows in members.items()]


@dataclass(frozen=True)
class GroupTestRecord:
    """One test result on one (group, variant) cell, ready to serialize."""

    group: str | None
    result: ScoreTestResult
    missing_fraction: float
    diagnostics: dict

    def to_dict(self) -> dict:
        out = {"group": self.group, "missing_fraction": self.missing_fraction}
        out.update(self.result.to_dict())
        out["diagnostics"] = self.diagnostics
        return out

    def report_rows(self) -> list[dict]:
        return [
            {
                "group": "" if self.group is None else self.group,
                "variant": self.result.variant,
                "n": self.result.n,
                "missing_fraction": self.missing_fraction,
                "statistic": self.result.statistic,
                "sigma_sq_hat": self.result.sigma_sq_hat,
                "z": self.result.z,
                "p_value": self.result.p_value,
            }
        ]


@dataclass(frozen=True)
class GroupTestFailure:
    """A (group, variant) cell whose fits or test raised; ``error`` is
    ``"<Class>: <message>"``."""

    group: str | None
    missing_fraction: float
    variant: str
    error: str

    def to_dict(self) -> dict:
        return asdict(self)

    def report_rows(self) -> list[dict]:
        return [{**self.to_dict(), "group": "" if self.group is None else self.group}]


def run_configured_tests(data: Dataset, config: RunConfig) -> list[GroupTestRecord | GroupTestFailure]:
    """Run the configured score tests, per group when grouping is requested.

    A MarscoreError in one (group, variant) cell becomes that cell's
    :class:`GroupTestFailure`; the other cells still run. If every cell
    fails, the first error is raised.
    """
    spec = config.columns
    if config.group_by is not None:
        groups = group_by(data, config.group_by)
    else:
        groups = [(None, data)]
    records, errors = [], []
    groups.reverse()
    while groups:
        # popped, so a group's subset and the designs it caches are freed once its cells are done
        label, subset = groups.pop()
        try:
            pf = fit_propensity_null(subset, columns=spec.propensity_column_indices())
        except MarscoreError as exc:
            pf = exc
        for variant in ("S1", "S2"):
            if variant not in config.variants:
                continue
            try:
                records.append(_test_cell(label, subset, variant, pf, spec))
            except MarscoreError as exc:
                errors.append(exc)
                error = f"{type(exc).__name__}: {exc}"
                records.append(GroupTestFailure(label, subset.missing_fraction, variant, error))
    if len(errors) == len(records):
        raise errors[0]
    return records


def _test_cell(label, subset: Dataset, variant: str, pf, spec: ColumnSpec) -> GroupTestRecord:
    """One variant's fit and test on one group, given its propensity fit
    (or the error that fit raised)."""
    if isinstance(pf, MarscoreError):
        raise pf
    # a fit that returns has converged; report schema 2 drops these always-true keys
    diagnostics = {
        "propensity_converged": True,
        "propensity_iterations": pf.iterations,
        "beta_hat": pf.beta_hat.tolist(),
    }
    if variant == "S1":
        fit = fit_outcome_parametric(subset, spec.family())
        statistic, variance = score_statistic_s1, variance_s1
        diagnostics.update(
            {"outcome_converged": True, "outcome_iterations": fit.iterations,
             "xi_hat": fit.xi_hat.tolist()}
        )
    else:
        fit = fit_location(subset, spec.mean_basis())
        statistic, variance = score_statistic_s2, variance_s2
        diagnostics["theta_hat"] = fit.theta_hat.tolist()
    result = test_report(statistic(subset, pf, fit),
                         with_report_terms(variance(subset, pf, fit), subset, pf, fit), subset.n)
    return GroupTestRecord(label, result, subset.missing_fraction, diagnostics)


def write_report(results, path, format: str = "json") -> None:
    """Serialize result records to JSON or CSV (write-then-rename)."""
    results = list(results)
    if not results:
        raise ValueError("no results to write")
    if format not in ("json", "csv"):
        raise ValueError(f"format must be 'json' or 'csv', got {format!r}")
    with _replacing(path) as handle:
        if format == "json":
            payload = {"schema_version": SCHEMA_VERSION, "results": [r.to_dict() for r in results]}
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        else:
            # float.__repr__ writes a numpy scalar as a plain number too
            rows = [{k: float.__repr__(v) if isinstance(v, float) else v for k, v in row.items()}
                    for r in results for row in r.report_rows()]
            fields = dict.fromkeys(key for row in rows for key in row)  # union, first-seen order
            writer = csv.DictWriter(handle, fieldnames=list(fields), restval="")
            writer.writeheader()
            writer.writerows(rows)
