import csv
import io
import json
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import marscore.io
from marscore.basis import intercept, product, raw, square
from marscore.data import Dataset
from marscore.exceptions import (
    EmptyDataset,
    IoFailure,
    MarscoreError,
    MissingColumn,
    MissingCovariate,
    NonNumericCell,
)
from marscore.io import (
    ColumnSpec,
    GroupTestFailure,
    GroupTestRecord,
    RunConfig,
    group_by,
    parse_term,
    read_csv,
    run_configured_tests,
    write_report,
)
from marscore.model import fit_location, fit_outcome_parametric, fit_propensity_null
from marscore.numerics import RngStream
from marscore.score import (
    ScoreTestResult,
    score_statistic_s1,
    score_statistic_s2,
    variance_s1,
    variance_s2,
)
from marscore.score import test_report as score_report
from marscore.sim import (
    Example2Config,
    generate_example2,
    run_rejection_study,
)
from tests.oracles import read_csv_rowwise, write_dataset_csv


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


SPEC = ColumnSpec(
    outcome_column="y",
    covariate_columns=("u", "z"),
    mean_basis_spec=("1", "u", "z"),
)


class TestReadCsv:
    def test_blank_and_na_outcomes_become_missing(self, tmp_path):
        path = tmp_path / "d.csv"
        write_lines(
            path,
            ["y,u,z", "1.5,0.1,0.2", ",0.3,0.4", "na,0.5,0.6", "2.5,0.7,0.8"],
        )
        data = read_csv(path, SPEC)
        assert data.n == 4
        assert list(data.d) == [1, 0, 0, 1]
        assert data.missing_fraction == 0.5
        assert np.all(data.x[:, 0] == 1.0)
        assert data.x[1, 1] == 0.3

    def test_na_covariate_names_cell(self, tmp_path):
        path = tmp_path / "d.csv"
        write_lines(path, ["y,u,z", "1.0,NA,0.2"])
        with pytest.raises(MissingCovariate, match="row 2.*'u'"):
            read_csv(path, SPEC)

    def test_text_covariate_is_non_numeric(self, tmp_path):
        path = tmp_path / "d.csv"
        write_lines(path, ["y,u,z", "1.0,0.1,0.2", "2.0,oops,0.4"])
        with pytest.raises(NonNumericCell, match="row 3.*'u'"):
            read_csv(path, SPEC)

    def test_text_outcome_is_non_numeric(self, tmp_path):
        path = tmp_path / "d.csv"
        write_lines(path, ["y,u,z", "abc,0.1,0.2"])
        with pytest.raises(NonNumericCell, match="'y'"):
            read_csv(path, SPEC)

    @pytest.mark.parametrize(
        "line, where",
        [
            ("nan,0.1,0.2", "row 3, column 'y'"),
            ("1.0,inf,0.2", "row 3, column 'u'"),
            ("1.0,0.1,-inf", "row 3, column 'z'"),
            ("1.0,NaN,-Infinity", "row 3, column 'u'"),
        ],
        ids=["nan-outcome", "inf-covariate", "minus-inf-covariate", "first-of-two"],
    )
    def test_non_finite_cell_is_non_numeric(self, tmp_path, line, where):
        path = tmp_path / "d.csv"
        write_lines(path, ["y,u,z", "1.0,0.1,0.2", line])
        with pytest.raises(NonNumericCell, match=f"{where}: .* is not a finite number"):
            read_csv(path, SPEC)

    def test_missing_column(self, tmp_path):
        path = tmp_path / "d.csv"
        write_lines(path, ["y,u", "1.0,0.1"])
        with pytest.raises(MissingColumn, match="'z'"):
            read_csv(path, SPEC)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "d.csv"
        write_lines(path, ["y,u,z"])
        with pytest.raises(EmptyDataset):
            read_csv(path, SPEC)

    def test_round_trip_preserves_statistics(self, tmp_path):
        cfg = Example2Config(n=500, xi_true=(-1, 1, 0.5, 0), beta0=0.85, beta1=0.25, gamma=0.0)
        data = generate_example2(cfg, RngStream(51, 0))
        path = tmp_path / "gen.csv"
        write_dataset_csv(data, path, outcome_column="y", covariate_columns=("x",))
        spec = ColumnSpec(
            outcome_column="y",
            covariate_columns=("x",),
            mean_basis_spec=("x", "x^2"),
            logvar_basis_spec=("1", "x"),
        )
        back = read_csv(path, spec)

        def statistics(ds):
            pf = fit_propensity_null(ds)
            of = fit_outcome_parametric(ds, Example2Config.family)
            lf = fit_location(ds, Example2Config.location_basis)
            return (
                score_statistic_s1(ds, pf, of),
                variance_s1(ds, pf, of).sigma_sq_hat,
                score_statistic_s2(ds, pf, lf),
                variance_s2(ds, pf, lf).sigma_sq_hat,
            )

        before = statistics(data)
        after = statistics(back)
        for a, b in zip(before, after):
            assert b == pytest.approx(a, abs=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_write_then_read_reproduces_dataset(self, draw):
        n = draw.draw(st.integers(1, 40), label="n")
        p = draw.draw(st.integers(1, 3), label="covariates")
        finite = st.floats(allow_nan=False, allow_infinity=False)
        x = draw.draw(st.lists(st.lists(finite, min_size=p, max_size=p), min_size=n, max_size=n))
        d = draw.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        y = draw.draw(st.lists(finite, min_size=sum(d), max_size=sum(d)))
        # read_csv strips cells, so labels carry no surrounding whitespace
        text = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"), max_size=6)
        labels = draw.draw(st.lists(text.filter(lambda v: v == v.strip()), min_size=n, max_size=n))
        data = Dataset(x=np.column_stack([np.ones(n), np.array(x)]), d=d, y_complete=y, labels={"g": labels})
        names = tuple(f"c{j}" for j in range(p))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "rt.csv"
            write_dataset_csv(data, path, outcome_column="y", covariate_columns=names)
            back = read_csv(path, ColumnSpec(outcome_column="y", covariate_columns=names), keep_columns=("g",))
        assert np.array_equal(back.x, data.x)
        assert np.array_equal(back.d, data.d)
        assert np.array_equal(back.y_complete, data.y_complete)
        assert back.labels == {"g": tuple(labels)}


def read_outcome(reader, path, spec=SPEC, keep_columns=()):
    """A reader's dataset as exact bytes, or the class and message it raised."""
    try:
        data = reader(path, spec, keep_columns=keep_columns)
    except MarscoreError as exc:
        return type(exc).__name__, str(exc)
    return data.x.tobytes(), data.d.tobytes(), data.y_complete.tobytes(), data.labels


# cells a generated CSV draws from besides finite numbers: each fault the
# row-wise reader reports, padded and case-varied NA, whitespace that
# float() keeps but str.strip() drops, cells where numpy's parser and float()
# could disagree, and quoted commas and newlines
FAULT_CELLS = (
    "", "NA", " Na ", "na", "oops", "nan", "inf", "-Infinity", "\x1c1.5", " 2.5\t", "9" * 50,
    "1_5", "0x10", "\u0661.5", " 1.5", "\x0b2.5", "+1.5", ".5", "5.", "1e400", "-0", "#3",
)
QUOTED_CELLS = ("1,5", "3\n", "x\ny")  # csv.writer quotes these
FIELD_LIMIT = 40  # shrunk for the property, so a 50-character cell is oversized
SHORT = 5  # six cells of this length, their commas and "\r\n" fit in FIELD_LIMIT


@st.composite
def faulty_csv(draw):
    """CSV text over columns y, u, z, g and w in any order, with faults.

    Three texts in four hold only cells of at most ``SHORT`` characters, so every
    line is within the field limit and, unless a cell is quoted or a line ends in
    a lone ``\\r``, their blocks take numpy's route. The others draw any float's
    ``repr`` and the oversized cell, and their long lines send the rest of the
    text to the exact route."""
    header = draw(st.permutations(["y", "u", "z", "g", "w"]))
    short = draw(st.sampled_from([True, True, True, False]))
    number = st.one_of(
        st.floats(-99.0, 99.0).map("{:.1f}".format) if short
        else st.floats(allow_nan=False, allow_infinity=False).map(repr),
        st.integers(-999, 999).map(str),
    )
    faults = FAULT_CELLS + QUOTED_CELLS if draw(st.sampled_from([False, False, False, True])) else FAULT_CELLS
    if short:
        faults = tuple(c for c in faults if len(c) <= SHORT)
    cell = st.one_of(number, number, number, st.sampled_from(faults))
    width = st.sampled_from([5, 5, 5, 5, 0, 2, 4, 6])  # 0 is a blank line
    cells = width.flatmap(lambda k: st.lists(cell, min_size=k, max_size=k))
    whitespace = st.sampled_from([[" "], ["\t "]])  # a record, not a blank line
    rows = draw(st.lists(st.one_of(*[cells] * 7, whitespace), max_size=12))
    if draw(st.booleans()):  # five blank lines hold a whole block of every size the property tries but 4096
        at = draw(st.integers(0, len(rows)))
        rows[at:at] = [[]] * 5
    out = io.StringIO()
    writer = csv.writer(out, lineterminator=draw(st.sampled_from(["\n", "\r\n", "\r"])))
    writer.writerow(header)
    writer.writerows(rows)
    return draw(st.sampled_from(["", "\ufeff"])) + out.getvalue()


BENCHMARK_SPEC = ColumnSpec(outcome_column="y", covariate_columns=("a", "b", "c"))


def write_benchmark_shaped_csv(path):
    """Shaped like the benchmark's `marscore test` input: 50 000 rows, three
    covariates, an outcome with NA cells and an 8-level group, written by
    csv.writer."""
    n = 50_000
    rng = np.random.default_rng(7)
    x = rng.standard_normal((n, 3))
    y = rng.standard_normal(n)
    observed = rng.random(n) < 0.7
    groups = rng.integers(0, 8, n)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["a", "b", "c", "y", "g"])
        for i in range(n):
            writer.writerow([*map(repr, x[i].tolist()), repr(float(y[i])) if observed[i] else "NA", f"g{groups[i]}"])


class TestColumnarReader:
    @settings(max_examples=150, deadline=None)
    @given(text=faulty_csv(), block=st.sampled_from([1, 2, 3, 4096]))
    def test_matches_rowwise_reader(self, text, block):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "f.csv"
            path.write_bytes(text.encode("utf-8"))
            limit = csv.field_size_limit(FIELD_LIMIT)
            try:
                want = read_outcome(read_csv_rowwise, path, keep_columns=("g",))
                with mock.patch.object(marscore.io, "_BLOCK_ROWS", block):
                    got = read_outcome(read_csv, path, keep_columns=("g",))
            finally:
                csv.field_size_limit(limit)
        assert got == want

    def test_first_bad_cell_opens_the_second_block(self, tmp_path):
        block = marscore.io._BLOCK_ROWS
        lines = ["y,u,z"] + [f"{i}.5,0.{i},1.{i}" for i in range(2 * block + 10)]
        lines[1 + block] = "1.0,oops,0.2"
        lines[1 + block + 5] = "zz,0.1,NA"
        lines[-1] = "1.0,NA,0.2"
        path = tmp_path / "d.csv"
        write_lines(path, lines)
        want = ("NonNumericCell", f"row {block + 2}, column 'u': cannot parse 'oops' as a number")
        assert read_outcome(read_csv, path) == want
        assert read_outcome(read_csv_rowwise, path) == want
        # a non-finite cell in the first block comes before the second block's bad cells
        lines[11] = "1.0,nan,0.2"
        write_lines(path, lines)
        want = ("NonNumericCell", "row 12, column 'u': nan is not a finite number")
        assert read_outcome(read_csv, path) == want
        assert read_outcome(read_csv_rowwise, path) == want

    def test_bad_cell_before_an_oversized_field_comes_first(self, tmp_path):
        path = tmp_path / "d.csv"
        for cell, message in [("oops", "cannot parse 'oops' as a number"), ("nan", "nan is not a finite number")]:
            write_lines(path, ["y,u,z", "1.0,0.1,0.2", f"2.0,{cell},0.4", "3.0,0.5,0.6", f"4.0,{'9' * 200_000},0.8"])
            with pytest.raises(NonNumericCell, match=f"row 3, column 'u': {message}"):
                read_csv(path, SPEC)

    @pytest.mark.parametrize(
        "before, line", [("", 2), ("0.5,1.0\n0.7,2.0\n\n\n", 6)], ids=["first-record", "after-blank-lines"]
    )
    def test_parse_error_names_the_line_that_failed(self, tmp_path, before, line):
        path = tmp_path / "d.csv"
        path.write_text(f'x,y\n{before}0.5,"{"1" * 200_000}"\n', encoding="utf-8")
        spec = ColumnSpec(outcome_column="y", covariate_columns=("x",))
        with pytest.raises(IoFailure, match=f"d.csv, line {line}: field larger than field limit"):
            read_csv(path, spec)
        assert read_outcome(read_csv_rowwise, path, spec) == read_outcome(read_csv, path, spec)

    def test_short_row_and_na_outcome_in_the_last_block(self, tmp_path):
        block = marscore.io._BLOCK_ROWS
        lines = ["u,z,y,g"] + [f"0.{i},1.{i},{i}.5,a" for i in range(block + 3)]
        lines[-2] = "0.1,0.2, na ,b"
        lines[-1] = "0.3,0.4"  # y and g read as blank
        path = tmp_path / "d.csv"
        write_lines(path, lines)
        data = read_csv(path, SPEC, keep_columns=("g",))
        assert data.n == block + 3
        assert data.d[-3:].tolist() == [1, 0, 0]
        assert data.x[-1].tolist() == [1.0, 0.3, 0.4]
        assert data.labels["g"][-3:] == ("a", "b", "")
        assert read_outcome(read_csv, path, keep_columns=("g",)) == read_outcome(
            read_csv_rowwise, path, keep_columns=("g",)
        )

    def test_peak_memory_stays_near_the_dataset(self, tmp_path):
        path = tmp_path / "big.csv"
        write_benchmark_shaped_csv(path)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            data = read_csv(path, BENCHMARK_SPEC, keep_columns=("g",))
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert data.n == 50_000
        assert peak - base < 2 * (held - base)

    def test_a_line_past_the_field_limit_takes_the_exact_route(self, tmp_path):
        # every field is within the lowered limit, but no line is
        lines = ["y,u,z,g"] + [f"{i}.5,0.{i},1.{i},{'w' * (i % 30)}" for i in range(60)]
        lines[7] = "NA,0.25,1.5,w"
        path = tmp_path / "d.csv"
        write_lines(path, lines)
        limit = csv.field_size_limit(FIELD_LIMIT)
        try:
            want = read_outcome(read_csv_rowwise, path, keep_columns=("g",))
            with mock.patch.object(marscore.io, "_parse_block", wraps=marscore.io._parse_block) as exact:
                got = read_outcome(read_csv, path, keep_columns=("g",))
        finally:
            csv.field_size_limit(limit)
        assert max(map(len, lines)) > FIELD_LIMIT >= max(len(c) for line in lines for c in line.split(","))
        assert exact.call_count == 1
        assert got == want and len(got) == 4

    def test_benchmark_shaped_file_never_takes_the_exact_route(self, tmp_path):
        path = tmp_path / "big.csv"
        write_benchmark_shaped_csv(path)
        with mock.patch.object(marscore.io, "_parse_block", wraps=marscore.io._parse_block) as exact:
            got = read_outcome(read_csv, path, BENCHMARK_SPEC, keep_columns=("g",))
        assert exact.call_count == 0
        assert got == read_outcome(read_csv_rowwise, path, BENCHMARK_SPEC, keep_columns=("g",))

    @pytest.mark.parametrize("tail", ["none", "bad-cell", "oversized-field"])
    def test_quoted_field_runs_on_into_the_next_block(self, tmp_path, tail):
        block = marscore.io._BLOCK_ROWS
        lines = ["y,u,z,g"] + [f"{i}.5,0.{i},1.{i},a" for i in range(4 * block)]
        lines[3 * block] = '7.5,0.1,1.1,"opens in block 3'  # the last line of block 3
        lines[3 * block + 1] = 'closes in block 4"'
        # from here on lines[k] is row k, and line k + 1 of the file
        if tail == "bad-cell":
            lines[3 * block + 5] = "1.0,oops,0.2,a"
            want = f"row {3 * block + 5}, column 'u': cannot parse 'oops' as a number"
        elif tail == "oversized-field":
            lines[3 * block + 9] = f'1.0,0.1,0.2,"{"9" * 200_000}"'
            want = f"line {3 * block + 10}: field larger than field limit"
        path = tmp_path / "d.csv"
        write_lines(path, lines)
        got = read_outcome(read_csv, path, keep_columns=("g",))
        assert got == read_outcome(read_csv_rowwise, path, keep_columns=("g",))
        if tail == "none":
            assert got[3]["g"][3 * block - 1] == "opens in block 3\ncloses in block 4"
        else:
            assert want in got[1]

    def test_blank_lines_do_not_shift_row_numbers(self, tmp_path):
        block = marscore.io._BLOCK_ROWS
        lines = ["y,u,z"] + [f"{i}.5,0.{i},1.{i}" for i in range(2 * block)]
        lines[3] = lines[7] = ""  # in block 1
        lines[block + 10] = "1.0,oops,0.2"  # in block 2, after block + 7 records
        path = tmp_path / "d.csv"
        write_lines(path, lines)
        want = ("NonNumericCell", f"row {block + 9}, column 'u': cannot parse 'oops' as a number")
        assert read_outcome(read_csv, path) == want
        assert read_outcome(read_csv_rowwise, path) == want

    @pytest.mark.parametrize("quote", ["", '"'], ids=["plain", "quoted"])
    def test_bad_cell_before_an_undecodable_byte_comes_first(self, tmp_path, quote):
        # the byte lies past the first 8 KiB that the text layer decodes, in the same block
        lines = ["y,u,z,g", "1.0,oops,0.2,a"] + [f"{i}.5,0.{i},1.{i},{quote}b{quote}" for i in range(1000)]
        path = tmp_path / "d.csv"
        path.write_bytes(("\n".join(lines) + "\n").encode("utf-8") + b"2.0,0.1,0.2,\xff\n")
        want = ("NonNumericCell", "row 2, column 'u': cannot parse 'oops' as a number")
        assert read_outcome(read_csv, path, keep_columns=("g",)) == want
        assert read_outcome(read_csv_rowwise, path, keep_columns=("g",)) == want

    @pytest.mark.parametrize(
        "header, keep, repeated",
        [("y,u,u,z", (), "u"), ("y,u,z,y", (), "y"), ("y,u,z,g,g", ("g",), "g")],
        ids=["covariate", "outcome", "kept-label"],
    )
    def test_repeated_selected_column_is_an_error(self, tmp_path, header, keep, repeated):
        path = tmp_path / "d.csv"
        write_lines(path, [header, ",".join(["1.0"] * len(header.split(",")))])
        with pytest.raises(
            IoFailure,
            match=f"cannot parse .*d.csv, line 1: column '{repeated}' appears more than once in the header",
        ):
            read_csv(path, SPEC, keep_columns=keep)

    def test_repeated_unselected_column_is_harmless(self, tmp_path):
        path = tmp_path / "d.csv"
        write_lines(path, ["w,y,u,w,z", "a,1.0,0.1,b,0.2"])
        assert read_csv(path, SPEC).x.tolist() == [[1.0, 0.1, 0.2]]


class TestGroupBy:
    def grouped_dataset(self):
        cfg = Example2Config(n=400, xi_true=(-1, 1, 0.5, 0), beta0=0.85, beta1=0.0)
        data = generate_example2(cfg, RngStream(52, 0))
        labels = tuple("pos" if v > 0 else "neg" for v in data.x[:, 1])
        return Dataset(x=data.x, d=data.d, y_complete=data.y_complete, labels={"sign": labels})

    def test_partition_sizes_sum(self):
        data = self.grouped_dataset()
        groups = group_by(data, "sign")
        assert sum(g.n for _, g in groups) == data.n
        assert {label for label, _ in groups} == {"pos", "neg"}

    def test_single_label(self):
        data = self.grouped_dataset()
        single = Dataset(
            x=data.x, d=data.d, y_complete=data.y_complete,
            labels={"g": ("all",) * data.n},
        )
        groups = group_by(single, "g")
        assert len(groups) == 1
        assert groups[0][1].n == data.n

    def test_per_group_missing_fractions(self):
        data = self.grouped_dataset()
        for label, sub in group_by(data, "sign"):
            rows = [i for i, v in enumerate(data.labels["sign"]) if v == label]
            want = 1.0 - data.d[rows].mean()
            assert sub.missing_fraction == pytest.approx(want)

    def test_unknown_column(self):
        data = self.grouped_dataset()
        with pytest.raises(MissingColumn):
            group_by(data, "arm")

    def test_no_row_lost_or_duplicated(self):
        data = self.grouped_dataset()
        seen = []
        for _, sub in group_by(data, "sign"):
            seen.extend(sub.x[:, 1].tolist())
        assert sorted(seen) == sorted(data.x[:, 1].tolist())

    def test_cutting_leaves_the_parent_as_it_was(self):
        # row ranks are computed per call, so no cut caches them on the parent
        data = self.grouped_dataset()
        keys = list(data.__dict__)
        groups = group_by(data, "sign")
        assert list(data.__dict__) == keys
        data.subset(np.arange(3))
        assert list(data.__dict__) == keys
        y_full = np.full(data.n, np.nan)
        y_full[data.d == 1] = data.y_complete
        for label, sub in groups:
            rows = np.array([i for i, v in enumerate(data.labels["sign"]) if v == label])
            assert sub.y_complete.tobytes() == y_full[rows[data.d[rows] == 1]].tobytes()

    def test_every_kept_column_follows_its_rows(self):
        # interleaved groups, one of them a single row, and a second kept column
        arm = ("a", "b", "a", "c", "b", "a", "b")
        site = ("s0", "s1", "s2", "s3", "s4", "s5", "s6")
        d = np.array([1, 0, 1, 1, 0, 1, 1])
        y_full = 10.0 * np.arange(7)
        data = Dataset(x=np.column_stack([np.ones(7), np.arange(7.0)]), d=d, y_complete=y_full[d == 1],
                       labels={"arm": arm, "site": site})
        groups = group_by(data, "arm")
        assert [label for label, _ in groups] == ["a", "b", "c"]
        for label, sub in groups:
            rows = [i for i, v in enumerate(arm) if v == label]
            # a tuple per column, never a one-row group's bare string
            assert sub.labels == {"arm": tuple(arm[i] for i in rows), "site": tuple(site[i] for i in rows)}
            assert sub.x[:, 1].tolist() == rows
            assert sub.d.tolist() == d[rows].tolist()
            assert sub.y_complete.tolist() == [y_full[i] for i in rows if d[i]]


def fixture_record(p_value, variant="S2", group="IV"):
    result = ScoreTestResult(
        statistic=12.5, sigma_sq_hat=2.0, z=1.41, p_value=p_value,
        variant=variant, components=None, n=535,
    )
    return GroupTestRecord(group=group, result=result, missing_fraction=0.3966, diagnostics={})


class TestWriteReport:
    def test_csv_row_formatting(self, tmp_path):
        path = tmp_path / "report.csv"
        write_report([fixture_record(0.1584)], path, format="csv")
        text = path.read_text()
        assert "S2" in text
        assert "0.1584" in text

    def test_csv_numeric_cells_read_back_as_floats(self, tmp_path):
        # numpy scalars in a study's config must not be written as e.g. "np.float64(0.85)"
        cfg = Example2Config(n=200, gamma=np.float64(0.25), beta0=np.float64(0.85))
        path = tmp_path / "report.csv"
        write_report([run_rejection_study(cfg, 5, base_seed=1)], path, format="csv")
        rows = list(csv.DictReader(io.StringIO(path.read_text())))
        assert len(rows) == 2
        for row in rows:
            assert float(row["gamma"]) == 0.25
            assert float(row["beta0"]) == 0.85
            for key, cell in row.items():
                if key not in ("variant", "xi_true"):
                    float(cell)

    def test_empty_results_error_and_no_file(self, tmp_path):
        path = tmp_path / "report.json"
        with pytest.raises(ValueError):
            write_report([], path)
        assert not path.exists()

    def test_json_round_trip_full_precision(self, tmp_path):
        cfg = Example2Config(n=400, xi_true=(-1, 1, 0.5, 0), beta0=0.85, beta1=0.0)
        data = generate_example2(cfg, RngStream(53, 0))
        pf = fit_propensity_null(data)
        of = fit_outcome_parametric(data, Example2Config.family)
        result = score_report(score_statistic_s1(data, pf, of), variance_s1(data, pf, of), data.n)
        record = GroupTestRecord(None, result, data.missing_fraction, {"propensity_iterations": pf.iterations})
        path = tmp_path / "report.json"
        write_report([record], path, format="json")
        payload = json.loads(path.read_text())
        assert payload["schema_version"] == 1
        got = payload["results"][0]
        assert got["statistic"] == result.statistic
        assert got["sigma_sq_hat"] == result.sigma_sq_hat
        assert got["z"] == result.z
        assert got["p_value"] == result.p_value
        assert got["components"]["A_hat"] == result.components.A_hat.tolist()

    def test_bad_format(self, tmp_path):
        with pytest.raises(ValueError):
            write_report([fixture_record(0.5)], tmp_path / "x", format="xml")

    def test_failed_rename_leaves_no_temporary_file(self, tmp_path):
        target = tmp_path / "out"
        target.mkdir()  # renaming a file over a directory fails
        with pytest.raises(IoFailure, match="cannot write"):
            write_report([fixture_record(0.5)], target, format="csv")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]


class TestColumnSpec:
    def test_outcome_cannot_be_covariate(self):
        with pytest.raises(ValueError):
            ColumnSpec(outcome_column="y", covariate_columns=("y", "z"))

    def test_propensity_must_be_declared(self):
        with pytest.raises(ValueError):
            ColumnSpec(outcome_column="y", covariate_columns=("u",), propensity_columns=("z",))

    def test_terms_parse(self):
        names = ("u", "z")
        assert parse_term("1", names) == intercept()
        assert parse_term("u", names) == raw(1)
        assert parse_term("z^2", names) == square(2)
        assert parse_term("u*z", names) == product(2, 1)
        assert parse_term("z*u", names) == parse_term("u*z", names)
        assert parse_term("u*u", names) == parse_term("u^2", names)
        with pytest.raises(ValueError):
            parse_term("w", names)

    def test_propensity_indices_default_and_subset(self):
        spec = ColumnSpec(outcome_column="y", covariate_columns=("u", "z"))
        assert spec.propensity_column_indices() == (0, 1, 2)
        sub = ColumnSpec(
            outcome_column="y", covariate_columns=("u", "z"), propensity_columns=("z",)
        )
        assert sub.propensity_column_indices() == (0, 2)

    def test_default_bases(self):
        spec = ColumnSpec(outcome_column="y", covariate_columns=("u", "z"))
        assert spec.effective_mean_spec() == ("1", "u", "z")
        assert len(spec.family().mean_basis) == 3
        assert len(spec.family().logvar_basis) == 1


class TestRunConfiguredTests:
    def build_csv(self, tmp_path):
        cfg = Example2Config(n=1200, xi_true=(-1, 1, 0.5, 0), beta0=0.85, beta1=0.25, gamma=0.0)
        data = generate_example2(cfg, RngStream(54, 0))
        arms = tuple("A" if i % 2 == 0 else "B" for i in range(data.n))
        labeled = Dataset(x=data.x, d=data.d, y_complete=data.y_complete, labels={"arm": arms})
        path = tmp_path / "trial.csv"
        write_dataset_csv(labeled, path, outcome_column="y", covariate_columns=("x",))
        return path

    def test_per_group_records(self, tmp_path):
        path = self.build_csv(tmp_path)
        spec = ColumnSpec(
            outcome_column="y",
            covariate_columns=("x",),
            mean_basis_spec=("x", "x^2"),
            logvar_basis_spec=("1", "x"),
        )
        config = RunConfig(columns=spec, variants=("s1", "s2"), group_by="arm")
        data = read_csv(path, spec, keep_columns=("arm",))
        records = run_configured_tests(data, config)
        assert len(records) == 4  # 2 groups x 2 variants
        assert {r.group for r in records} == {"A", "B"}
        assert {r.result.variant for r in records} == {"S1", "S2"}
        for r in records:
            assert 0.0 <= r.result.p_value <= 1.0
            assert r.result.n == 600
            # each record carries every report term, computed while its group lived
            assert None not in r.result.components.to_dict().values()

    def test_diagnostics_keys_in_order(self, tmp_path):
        path = self.build_csv(tmp_path)
        spec = ColumnSpec(
            outcome_column="y", covariate_columns=("x",), mean_basis_spec=("x", "x^2")
        )
        config = RunConfig(columns=spec, variants=("s2", "s1"))
        records = run_configured_tests(read_csv(path, spec), config)
        propensity = ["propensity_converged", "propensity_iterations", "beta_hat"]
        assert [r.result.variant for r in records] == ["S1", "S2"]
        assert list(records[0].diagnostics) == propensity + [
            "outcome_converged", "outcome_iterations", "xi_hat"
        ]
        assert list(records[1].diagnostics) == propensity + ["theta_hat"]

    def test_report_component_keys_in_order(self, tmp_path):
        # schema 1: the components of each variant serialise in this order
        path = self.build_csv(tmp_path)
        spec = ColumnSpec(
            outcome_column="y", covariate_columns=("x",), mean_basis_spec=("x", "x^2")
        )
        records = run_configured_tests(read_csv(path, spec), RunConfig(columns=spec))
        report = tmp_path / "report.json"
        write_report(records, report, format="json")
        s1, s2 = json.loads(report.read_text())["results"]
        assert list(s1["components"]) == [
            "A_hat", "B_hat", "A1_hat", "B1_hat", "A2_hat", "B2_hat", "sigma_sq_hat"
        ]
        assert list(s2["components"]) == [
            "A_hat", "A1_hat", "A2_hat", "B3_hat", "B4_hat", "C1_hat", "C2_hat", "C3_hat",
            "sigma_sq_hat",
        ]

    def test_variant_subset(self, tmp_path):
        path = self.build_csv(tmp_path)
        spec = ColumnSpec(
            outcome_column="y", covariate_columns=("x",), mean_basis_spec=("x", "x^2")
        )
        config = RunConfig(columns=spec, variants=("s2",))
        data = read_csv(path, spec)
        records = run_configured_tests(data, config)
        assert [r.result.variant for r in records] == ["S2"]

    def test_failed_group_becomes_error_records(self):
        cfg = Example2Config(n=300, xi_true=(-1, 1, 0.5, 0), beta0=0.85, beta1=0.0)
        data = generate_example2(cfg, RngStream(55, 0))
        # group B holds only observed rows, so its propensity MLE does not exist
        labels = tuple("B" if d == 1 and i % 3 == 1 else "A" for i, d in enumerate(data.d))
        data = Dataset(x=data.x, d=data.d, y_complete=data.y_complete, labels={"g": labels})
        spec = ColumnSpec(outcome_column="y", covariate_columns=("x",), mean_basis_spec=("x", "x^2"))
        records = run_configured_tests(data, RunConfig(columns=spec, group_by="g"))
        assert [(r.group, type(r)) for r in records] == [
            ("A", GroupTestRecord), ("A", GroupTestRecord),
            ("B", GroupTestFailure), ("B", GroupTestFailure),
        ]
        assert records[2].to_dict() == {
            "group": "B",
            "missing_fraction": 0.0,
            "variant": "S1",
            "error": "Separation: all outcomes are observed; the null propensity MLE does not exist",
        }
        only_b = data.subset(np.flatnonzero(np.array(labels) == "B"))
        with pytest.raises(MarscoreError, match="all outcomes are observed"):
            run_configured_tests(only_b, RunConfig(columns=spec))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(20, 300),
           weights=st.lists(st.integers(1, 20), min_size=1, max_size=4))
    def test_grouped_run_matches_each_subset_alone(self, seed, n, weights):
        cfg = Example2Config(n=n, xi_true=(-1, 1, 0.5, 0), beta0=0.85, beta1=0.25)
        data = generate_example2(cfg, RngStream(seed, 0))
        rng = np.random.default_rng(seed)
        names = np.array(["a", "b", "c", "d"][: len(weights)])
        labels = rng.choice(names, size=n, p=np.array(weights) / sum(weights))
        data = Dataset(x=data.x, d=data.d, y_complete=data.y_complete, labels={"g": tuple(labels)})
        spec = ColumnSpec(outcome_column="y", covariate_columns=("x",), mean_basis_spec=("x", "x^2"))

        def outcome(ds, group_by=None):
            """to_dict() records, or the error raised when every cell failed."""
            try:
                return [r.to_dict() for r in run_configured_tests(ds, RunConfig(spec, group_by=group_by))]
            except MarscoreError as exc:
                return f"{type(exc).__name__}: {exc}"

        grouped = outcome(data, "g")
        alone = {g: outcome(data.subset(np.flatnonzero(labels == g))) for g in dict.fromkeys(labels)}
        if isinstance(grouped, str):  # every cell of every group failed
            assert grouped == next(iter(alone.values()))
            assert all(isinstance(v, str) for v in alone.values())
            return
        for g, want in alone.items():
            got = [{**r, "group": None} for r in grouped if r["group"] == g]
            if isinstance(want, str):  # every cell of this group failed; the first error was raised
                assert all("error" in r for r in got)
                assert got[0]["error"] == want
            else:
                assert got == want
