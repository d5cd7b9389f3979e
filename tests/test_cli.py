import codecs
import json
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import marscore.io
from marscore.cli import main
from marscore.data import Dataset
from marscore.numerics import RngStream
from marscore.sim import Example2Config, generate_example2
from tests.oracles import write_dataset_csv


def make_trial_csv(tmp_path, n=800, gamma=0.0, with_z=False):
    """An Example-2 trial with covariate ``x`` (and a pure-noise ``z`` if ``with_z``)."""
    cfg = Example2Config(n=n, xi_true=(-1, 1, 0.5, 0), beta0=0.85, beta1=0.25, gamma=gamma)
    data = generate_example2(cfg, RngStream(61, 0))
    arms = tuple("I" if i % 2 == 0 else "II" for i in range(data.n))
    x, names = data.x, ("x",)
    if with_z:
        x, names = np.column_stack([x, RngStream(61, 1).generator().standard_normal(n)]), ("x", "z")
    labeled = Dataset(x=x, d=data.d, y_complete=data.y_complete, labels={"arm": arms})
    path = tmp_path / "trial.csv"
    write_dataset_csv(labeled, path, outcome_column="y", covariate_columns=names)
    return path


class TestUsageErrors:
    def test_no_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_simulate_without_example_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate"])
        assert excinfo.value.code == 2

    def test_bad_numeric_flag_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--example", "2", "--reps", "zero"])
        assert excinfo.value.code == 2

    def test_bad_grid_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["power-curve", "--example", "2", "--grid", "a,b"])
        assert excinfo.value.code == 2

    def test_alpha_out_of_range_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--example", "2", "--alpha", "1.5"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "flags",
        [
            ["power-curve", "--example", "2", "--grid", "0,inf"],
            ["simulate", "--example", "1", "--bz", "inf"],
            ["simulate", "--example", "2", "--gamma", "nan"],
            ["simulate", "--example", "1", "--c1=-inf"],
            ["simulate", "--example", "2", "--xi", "-1,1,nan,0"],
        ],
        ids=["grid", "bz", "gamma", "c1", "xi"],
    )
    def test_non_finite_number_exits_2(self, capsys, flags):
        with pytest.raises(SystemExit) as excinfo:
            main(flags)
        assert excinfo.value.code == 2
        assert "expected a finite number" in capsys.readouterr().err

    def test_wrong_xi_arity_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--example", "2", "--xi", "1,2"])
        assert excinfo.value.code == 2


class TestSimulate:
    def test_small_run_writes_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main([
            "simulate", "--example", "2", "--xi", "-1,1,0.5,0", "--beta", "0.85,0",
            "--gamma", "0", "--n", "200", "--reps", "12", "--seed", "7",
            "--output", str(out), "--format", "json",
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["schema_version"] == 1
        result = payload["results"][0]
        assert result["replications"] == 12
        assert 0.0 <= result["rate_s1"] <= 1.0
        stdout = capsys.readouterr().out
        assert "S1 rejection rate" in stdout

    def test_negative_list_values_accepted(self, tmp_path):
        out = tmp_path / "r.json"
        code = main([
            "simulate", "--example", "2", "--xi", "-1,1,0.5,0", "--beta", "0.85,0",
            "--n", "150", "--reps", "5", "--seed", "1", "--output", str(out),
        ])
        assert code == 0

    def test_byte_identical_across_threads(self, tmp_path):
        args = [
            "simulate", "--example", "1", "--bz", "0.5", "--c1", "0.1", "--c2", "0.25",
            "--n", "250", "--reps", "16", "--seed", "9", "--format", "json",
        ]
        out1, out8 = tmp_path / "t1.json", tmp_path / "t8.json"
        assert main(args + ["--threads", "1", "--output", str(out1)]) == 0
        assert main(args + ["--threads", "8", "--output", str(out8)]) == 0
        assert out1.read_bytes() == out8.read_bytes()

    def test_example1_flags(self, tmp_path):
        out = tmp_path / "e1.csv"
        code = main([
            "simulate", "--example", "1", "--bz", "1", "--c0", "0.5", "--c1", "0",
            "--c2", "0.75", "--w", "quad04", "--n", "200", "--reps", "8",
            "--seed", "3", "--output", str(out), "--format", "csv",
        ])
        assert code == 0
        header = out.read_text().splitlines()[0]
        assert "variant" in header and "rate" in header


class TestOverflowingDesigns:
    """A design that overflows in floating point keeps the CLI contract: exit 0, or exit 1
    with one ``error:`` line, and no traceback or warning."""

    # the error names the failures per class and the first failed replication's own error
    ALL_FAILED = ("error: MarscoreError: every replication failed to fit; nothing to aggregate "
                  "(2 NonFiniteDraw); first, replication 0: NonFiniteDraw: row 8 drew outcome {}\n")

    @pytest.mark.parametrize(
        "flags, code, err",
        [
            # Z·1e308 overflows, so every draw holds an infinite outcome
            (["--example", "1", "--bz", "1e308", "--c1", "1"], 1,
             ALL_FAILED.format("inf with observation probability 1.0")),
            (["--example", "2", "--xi", "1e308,0,0,0", "--gamma", "-1"], 1,
             ALL_FAILED.format("inf with observation probability 0.0")),
            # c1·w(Y) overflows to ±inf, and Φ(±inf) is an observation probability of 1 or 0
            (["--example", "1", "--c1", "1e308"], 0, ""),
            # the standard deviation overflows, and 0·inf makes an observation probability nan
            (["--example", "2", "--xi", "0,0,0,1e3"], 1,
             ALL_FAILED.format("-inf with observation probability nan")),
        ],
        ids=["ex1-bz", "ex2-xi1", "ex1-c1", "ex2-xi4"],
    )
    def test_exit_code_and_stderr(self, capsys, flags, code, err):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["simulate", *flags, "--n", "50", "--reps", "2"]) == code
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == err


class TestTestSubcommand:
    def test_per_arm_report(self, tmp_path, capsys):
        data_path = make_trial_csv(tmp_path)
        out = tmp_path / "hiv_style.json"
        code = main([
            "test", "--data", str(data_path), "--outcome", "y", "--covariates", "x",
            "--mean-basis", "x,x^2", "--logvar-basis", "1,x",
            "--variants", "s1,s2", "--alpha", "0.05", "--group-by", "arm",
            "--output", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["results"]) == 4
        groups = {r["group"] for r in payload["results"]}
        assert groups == {"I", "II"}
        stdout = capsys.readouterr().out
        assert "group=I" in stdout and "p=" in stdout

    def test_plain_and_exact_routes_write_identical_reports(self, tmp_path):
        # blocks of 100 lines: the first half's missing outcomes are NA or blank, which the
        # vectorised test takes; the second half's are " na " or Na, whose blocks the exact route reads
        cfg = Example2Config(n=800, xi_true=(-1, 1, 0.5, 0), beta0=0.85, beta1=0.25)
        data = generate_example2(cfg, RngStream(61, 0))
        xs, outcomes = data.x[:, 1].tolist(), iter(data.y_complete.tolist())
        rows = []
        for i in range(data.n):
            if data.d[i]:
                y = repr(next(outcomes))
                cell = f" {y}  " if i % 3 == 0 else y
            else:
                cell = ("NA", "", " na ", "Na")[i % 2 + 2 * (i >= data.n // 2)]
            rows.append([repr(xs[i]), cell, "I" if i % 2 == 0 else "II"])
        exact_rows = [row.copy() for row in rows]
        exact_rows[0][2] = '"I"'  # a quote sends the first block, and all after it, to csv.reader
        reports = {}
        for route, cells in (("plain", rows), ("exact", exact_rows)):
            (tmp_path / route).mkdir()
            path = tmp_path / route / "trial.csv"
            path.write_text("x,y,arm\n" + "".join(",".join(row) + "\n" for row in cells), encoding="utf-8")
            with mock.patch.object(marscore.io, "_BLOCK_ROWS", 100), \
                    mock.patch.object(marscore.io, "_parse_block", wraps=marscore.io._parse_block) as exact:
                for fmt in ("json", "csv"):
                    out = tmp_path / route / f"report.{fmt}"
                    code = main(["test", "--data", str(path), "--outcome", "y", "--covariates", "x",
                                 "--group-by", "arm", "--output", str(out), "--format", fmt])
                    assert code == 0
                    reports[route, fmt] = out.read_bytes()
            assert exact.call_count > 0
        assert reports["plain", "json"] == reports["exact", "json"]
        assert reports["plain", "csv"] == reports["exact", "csv"]
        assert len(json.loads(reports["plain", "json"])["results"]) == 4

    def test_propensity_subset_flag(self, tmp_path):
        data_path = make_trial_csv(tmp_path)
        code = main([
            "test", "--data", str(data_path), "--outcome", "y", "--covariates", "x",
            "--propensity", "x", "--mean-basis", "x,x^2", "--variants", "s2",
        ])
        assert code == 0

    def test_missing_file_exits_1(self, tmp_path, capsys):
        code = main([
            "test", "--data", str(tmp_path / "nope.csv"), "--outcome", "y",
            "--covariates", "x",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "IoFailure" in err

    def test_non_finite_cell_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n0.5,1.0\ninf,2.0\n-0.5,\n", encoding="utf-8")
        code = main(["test", "--data", str(path), "--outcome", "y", "--covariates", "x"])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: NonNumericCell: row 3, column 'x'")

    @pytest.mark.parametrize(
        "flags",
        [
            ["--covariates", "x", "--mean-basis", "1,zz"],
            ["--covariates", "x", "--variants", "s3"],
            ["--covariates", "x", "--propensity", "q"],
            ["--covariates", "x,x"],
            ["--covariates", "x,y"],
            ["--covariates", "x", "--propensity", "x,x"],
            ["--covariates", "x", "--mean-basis", "1,x,x"],
            ["--covariates", "x,z", "--mean-basis", "1,x*z,z*x"],
            ["--covariates", "x", "--mean-basis", "1,x^2,x*x"],
        ],
        ids=["undeclared-term", "unknown-variant", "undeclared-propensity",
             "repeated-covariate", "outcome-as-covariate", "repeated-propensity", "repeated-term",
             "repeated-product", "square-as-product"],
    )
    def test_bad_spec_exits_2(self, tmp_path, capsys, flags):
        data_path = make_trial_csv(tmp_path, n=50, with_z=True)
        with pytest.raises(SystemExit) as excinfo:
            main(["test", "--data", str(data_path), "--outcome", "y", *flags])
        assert excinfo.value.code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content, name",
        [
            (b"x,y\n0.5,1.0\n0.7,\xff\n", "IoFailure"),
            (b'x,y\n0.5,"' + b"1" * 200_000 + b'"\n', "IoFailure"),
            (None, "IoFailure"),
            (b"x,y\n0.5,1.0\nnan,2.0\n", "NonNumericCell"),
            (b"x,y,x\n0.5,1.0,0.7\n", "IoFailure"),
        ],
        ids=["non-utf8-byte", "oversized-field", "directory", "nan-cell", "repeated-column"],
    )
    def test_malformed_input_is_one_line_error(self, tmp_path, capsys, content, name):
        path = tmp_path / "in.csv"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        code = main(["test", "--data", str(path), "--outcome", "y", "--covariates", "x"])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {name}: ")

    def test_byte_order_mark_is_skipped(self, tmp_path):
        plain = make_trial_csv(tmp_path, n=300)
        marked = tmp_path / "marked.csv"
        marked.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
        reports = []
        for path in (plain, marked):
            out = tmp_path / f"{path.stem}.json"
            code = main(["test", "--data", str(path), "--outcome", "y", "--covariates", "x",
                         "--output", str(out)])
            assert code == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

    def test_failed_group_is_reported_and_others_run(self, tmp_path, capsys):
        # group B has no missing outcome, so its propensity MLE does not exist
        rows = ["x,y,g"]
        for i in range(200):
            x = (i % 17) / 8.0 - 1.0
            missing = i % 2 == 0 and i % 7 < 2
            rows.append(f"{x},{'' if missing else 1.0 + x + (i % 5) / 4.0},{'AB'[i % 2]}")
        path = tmp_path / "groups.csv"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        args = ["test", "--data", str(path), "--outcome", "y", "--covariates", "x"]
        out = tmp_path / "r.json"
        assert main([*args, "--group-by", "g", "--output", str(out)]) == 0
        results = json.loads(out.read_text())["results"]
        assert [(r["group"], r["variant"], "z" in r) for r in results] == [
            ("A", "S1", True), ("A", "S2", True), ("B", "S1", False), ("B", "S2", False),
        ]
        error = "Separation: all outcomes are observed; the null propensity MLE does not exist"
        assert results[2] == {"group": "B", "missing_fraction": 0.0, "variant": "S1", "error": error}
        stdout = capsys.readouterr().out
        assert f"group=B variant=S2 missing=0.0000 -> error: {error}\n" in stdout

        table = tmp_path / "r.csv"
        assert main([*args, "--group-by", "g", "--output", str(table), "--format", "csv"]) == 0
        assert table.read_text().splitlines()[0].endswith(",p_value,error")

        # every cell failed: exit 1 with the first error, as a one-group run
        only_b = tmp_path / "b.csv"
        only_b.write_text("\n".join(rows[:1] + rows[2::2]) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["test", "--data", str(only_b), "--outcome", "y", "--covariates", "x",
                     "--group-by", "g"]) == 1
        assert capsys.readouterr().err == f"error: {error}\n"

    def test_a_nan_gram_matrix_is_one_line_error(self, tmp_path, capsys):
        # the outcome fit's Gram matrix sums inf − inf; no numpy warning may join the error line
        rng = np.random.default_rng(0)
        x = rng.standard_normal(21) * 3e126
        d = np.array([1] * 11 + [0] * 10, dtype=np.int8)
        rng.shuffle(d)
        data = Dataset(x=np.column_stack([np.ones(21), x]), d=d, y_complete=rng.standard_normal(11) * 7e136)
        path = tmp_path / "huge.csv"
        write_dataset_csv(data, path, outcome_column="y", covariate_columns=("x",))

        def show(message, category, filename, lineno, file=None, line=None):
            sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))

        # a leaked warning prints to stderr, as it does outside the suite
        with warnings.catch_warnings(), mock.patch.object(warnings, "showwarning", show):
            warnings.simplefilter("default")
            code = main(["test", "--data", str(path), "--outcome", "y", "--covariates", "x",
                         "--mean-basis", "1,x,x^2"])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: RankDeficientDesign: outcome mean design is rank deficient: "
                       "non-finite entry at column 1"]

    def test_a_nan_outcome_trial_is_one_line_error(self, tmp_path, capsys):
        # a trial of the outcome fit multiplies an inf squared residual by a zero weight; no
        # numpy warning may join the error line
        rng = np.random.default_rng(0)
        x1 = rng.standard_normal(16) * 1e64
        d = np.array([1] * 14 + [0] * 2, dtype=np.int8)
        data = Dataset(x=np.column_stack([np.ones(16), x1]), d=d,
                       y_complete=-1e100 + 1e84 * rng.standard_normal(14))
        path = tmp_path / "huge.csv"
        write_dataset_csv(data, path, outcome_column="y", covariate_columns=("x1",))

        def show(message, category, filename, lineno, file=None, line=None):
            sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))

        # a leaked warning prints to stderr, as it does outside the suite
        with warnings.catch_warnings(), mock.patch.object(warnings, "showwarning", show):
            warnings.simplefilter("default")
            code = main(["test", "--data", str(path), "--outcome", "y", "--covariates", "x1",
                         "--mean-basis", "1,x1,x1^2", "--logvar-basis", "1,x1", "--variants", "s1"])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: NoConvergence: outcome information block is singular: ")

    def test_bad_column_exits_1(self, tmp_path, capsys):
        data_path = make_trial_csv(tmp_path)
        code = main([
            "test", "--data", str(data_path), "--outcome", "wrong",
            "--covariates", "x",
        ])
        assert code == 1
        assert "MissingColumn" in capsys.readouterr().err


class TestPowerCurve:
    def test_runs_and_writes_table(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        code = main([
            "power-curve", "--example", "2", "--grid", "0,0.3", "--n", "200",
            "--reps", "10", "--seed", "5", "--output", str(out), "--format", "csv",
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 5  # header + 2 grid points x 2 variants
        stdout = capsys.readouterr().out
        assert "gamma=0:" in stdout


class TestGoldenReports:
    """Reports at fixed seeds, byte for byte. They hold rates and counts only, so they
    do not depend on BLAS rounding; a change that moves one regenerates its file with
    the command in its name and says why."""

    @pytest.mark.parametrize("argv, name", [
        ("simulate --example 1 --n 300 --reps 100 --seed 3", "simulate_ex1_n300_reps100_seed3.json"),
        # about 2% of these replications fail to fit
        ("simulate --example 2 --n 15 --reps 300 --seed 3", "simulate_ex2_n15_reps300_seed3.json"),
        ("power-curve --example 2 --n 200 --reps 50 --grid 0,0.5 --seed 4",
         "power_curve_ex2_n200_reps50_seed4.json"),
    ], ids=["simulate-ex1", "simulate-ex2-n15", "power-curve"])
    def test_report_is_unchanged(self, tmp_path, argv, name):
        out = tmp_path / name
        assert main([*argv.split(), "--output", str(out)]) == 0
        assert out.read_bytes() == (Path(__file__).parent / "data" / name).read_bytes()
