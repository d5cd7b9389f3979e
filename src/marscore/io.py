"""CSV ingestion, run configuration, and report serialization.

Input files are UTF-8 (a leading byte-order mark is skipped), comma-delimited,
with a mandatory header row. A blank or ``NA`` outcome cell marks the row's
outcome as missing; covariate cells must always be present. Every present
cell must be a finite number. The constant intercept column is synthesized
here, never read from the file. JSON reports carry a top-level
``schema_version``.
"""

from __future__ import annotations

import csv
import json
import math
import os
from collections import defaultdict
from contextlib import contextmanager, suppress
from dataclasses import asdict, dataclass
from itertools import chain, compress, islice
from operator import itemgetter

import numpy as np

from .basis import BasisTerm, intercept, product, raw, square
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
)

SCHEMA_VERSION = 1

_NA_STRINGS = {"", "na"}
_BLOCK_ROWS = 4096  # records parsed per step


def parse_term(term: str, covariate_names) -> BasisTerm:
    """Parse a basis term over covariate names: ``1``, ``name``, ``name^2``
    or ``a*b`` (indices sorted; ``a*a`` is ``a^2``). Column indices account
    for the synthesized intercept."""
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
        i, j = sorted((index_of(left), index_of(right)))
        return square(i) if i == j else product(i, j)
    if term.endswith("^2"):
        return square(index_of(term[:-2]))
    return raw(index_of(term))


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
    twice is an error. Rows are parsed one block of records at a time, a
    column per step, so the transient cost is one block's cells.
    """
    keep_columns = tuple(keep_columns)
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
            parts, records = [], filter(None, reader)
            while True:
                rows, first_row = [], 2 + _BLOCK_ROWS * len(parts)
                try:
                    for row in islice(records, _BLOCK_ROWS):
                        rows.append(row)
                except (csv.Error, UnicodeDecodeError):
                    if rows:  # a bad cell read before the failure is the error reported
                        _parse_block(rows, first_row, at, spec, keep_columns)
                    raise
                if rows:
                    parts.append(_parse_block(rows, first_row, at, spec, keep_columns))
                if len(rows) < _BLOCK_ROWS:
                    break
            if not parts:
                raise EmptyDataset(f"{path} contains no data rows")
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    except csv.Error as exc:
        raise IoFailure(f"cannot parse {path}, line {reader.line_num}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise IoFailure(f"{path} is not UTF-8: byte {_undecodable_offset(path)}: {exc.reason}") from None
    d, y, x, labels = zip(*parts)
    return Dataset(
        x=np.concatenate(x), d=np.concatenate(d), y_complete=np.concatenate(y),
        labels={c: tuple(chain.from_iterable(block[c] for block in labels)) for c in keep_columns},
    )


def _parse_block(rows, first_row: int, at: dict, spec: ColumnSpec, keep_columns: tuple):
    """``(d, y, x, labels)`` of one block of records, the first numbered
    ``first_row``; raises the block's first bad cell."""
    width = 1 + max(at.values())
    if min(map(len, rows)) < width:
        rows = [row if len(row) >= width else row + [""] * (width - len(row)) for row in rows]
    outcome = list(map(str.strip, map(itemgetter(at[spec.outcome_column]), rows)))
    observed = [cell.lower() not in _NA_STRINGS for cell in outcome]
    try:
        y = list(map(float, compress(outcome, observed)))
        covariates = [list(map(float, map(itemgetter(at[c]), rows))) for c in spec.covariate_columns]
    except ValueError:
        y, covariates = _scan_block(rows, first_row, at, spec)
    x = np.ones((len(rows), 1 + len(covariates)))
    for j, values in enumerate(covariates, start=1):
        x[:, j] = values
    y = np.array(y, dtype=float)
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        _scan_block(rows, first_row, at, spec)  # raises the first non-finite cell
    labels = {c: list(map(str.strip, map(itemgetter(at[c]), rows))) for c in keep_columns}
    return np.array(observed, dtype=np.int8), y, x, labels


def _scan_block(rows, first_row: int, at: dict, spec: ColumnSpec):
    """``(y, covariate columns)`` of one block read cell by cell in row-major
    order, the outcome first; raises the first bad cell.

    float() ignores less surrounding whitespace than str.strip(), so a block
    can fail the column-wise parse and still read cleanly here.
    """
    names = (spec.outcome_column, *spec.covariate_columns)
    columns = [[] for _ in names]
    for number, row in enumerate(rows, start=first_row):
        for j, name in enumerate(names):
            cell = row[at[name]].strip()
            if cell.lower() in _NA_STRINGS:
                if j == 0:
                    continue  # a missing outcome
                raise MissingCovariate(f"row {number}, column {name!r}: covariates may never be missing")
            try:
                value = float(cell)
            except ValueError:
                raise NonNumericCell(
                    f"row {number}, column {name!r}: cannot parse {cell!r} as a number"
                ) from None
            if not math.isfinite(value):
                raise NonNumericCell(f"row {number}, column {name!r}: {value} is not a finite number")
            columns[j].append(value)
    return columns[0], columns[1:]


def _undecodable_offset(path) -> int:
    """File offset of the first byte that is not valid UTF-8."""
    with open(path, "rb") as handle:
        try:
            handle.read().decode("utf-8")
        except UnicodeDecodeError as exc:
            return exc.start
    return -1


def write_dataset_csv(data: Dataset, path, outcome_column: str, covariate_columns) -> None:
    """Write a dataset back to CSV (intercept column omitted, full precision).

    Missing outcomes become empty cells, so a round trip through
    :func:`read_csv` reproduces the dataset exactly.
    """
    covariate_columns = tuple(covariate_columns)
    if len(covariate_columns) != data.p - 1:
        raise ValueError(
            f"need {data.p - 1} covariate names for this dataset, got {len(covariate_columns)}"
        )
    with _replacing(path) as handle:
        writer = csv.writer(handle)
        writer.writerow([*covariate_columns, outcome_column, *data.labels.keys()])
        y_iter = iter(data.y_complete)
        for i in range(data.n):
            cells = [repr(float(v)) for v in data.x[i, 1:]]
            cells.append(repr(float(next(y_iter))) if data.d[i] == 1 else "")
            cells.extend(str(data.labels[c][i]) for c in data.labels)
            writer.writerow(cells)


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
    return [(label, data.subset(np.array(rows))) for label, rows in members.items()]


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
    for label, subset in groups:
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
    diagnostics = {
        "propensity_converged": pf.converged,
        "propensity_iterations": pf.iterations,
        "beta_hat": pf.beta_hat.tolist(),
    }
    if variant == "S1":
        fit = fit_outcome_parametric(subset, spec.family())
        statistic, variance = score_statistic_s1, variance_s1
        diagnostics.update(
            {"outcome_converged": fit.converged, "outcome_iterations": fit.iterations,
             "xi_hat": fit.xi_hat.tolist()}
        )
    else:
        fit = fit_location(subset, spec.mean_basis())
        statistic, variance = score_statistic_s2, variance_s2
        diagnostics["theta_hat"] = fit.theta_hat.tolist()
    result = test_report(statistic(subset, pf, fit), variance(subset, pf, fit), subset.n)
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
