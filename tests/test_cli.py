"""Command-line driver: output formats, sweeps, exit codes, determinism."""

import csv
import io
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import sdar_glm as sg
from sdar_glm.cli import SCHEMA_LINE, UsageError, main, parse_sweep
from sdar_glm.rng import make_rng

from helpers import count_finite_scans


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(text):
    lines = text.splitlines()
    assert lines[0] == SCHEMA_LINE
    reader = csv.reader(io.StringIO("\n".join(lines[1:])))
    header, *rows = list(reader)
    return header, rows


def fit_lines(text):
    lines = text.splitlines()
    assert lines[0] == SCHEMA_LINE
    pairs = {}
    for line in lines[1:]:
        key, _, value = line.partition(": ")
        pairs[key] = value
    return pairs


def planted_file(tmp_path, name="train.txt", seed=17, n=80, p=6, labels01=True,
                 repeat_column=False):
    rng = make_rng(seed, 0)
    X = rng.standard_normal((n, p))
    if repeat_column:
        X[:, 3] = X[:, 2]  # a copy of a planted column
    beta = np.zeros(p)
    beta[[2, 4]] = [2.5, -2.5]
    y = sg.gen_bernoulli_responses(X, beta, make_rng(seed, 2))
    if not labels01:
        y = 2.0 * y - 1.0
    path = tmp_path / name
    sg.write_libsvm(sg.Dataset(X, y), str(path))
    return str(path)


# --- parse_sweep -------------------------------------------------------------

def test_parse_sweep_singletons_and_ranges():
    assert parse_sweep("5", int) == [5]
    assert parse_sweep("2:2:50", int) == list(range(2, 51, 2))
    assert parse_sweep("0.2:0.2:0.8") == pytest.approx([0.2, 0.4, 0.6, 0.8])
    assert len(parse_sweep("0.1:0.1:0.3")) == 3  # inclusive despite rounding


def test_parse_sweep_counts_its_values_exactly():
    # a STOP just short of a value leaves that value out
    assert parse_sweep("0:1:2.9999999999") == [0.0, 1.0, 2.0]
    assert parse_sweep("0:1:3") == [0.0, 1.0, 2.0, 3.0]
    assert len(parse_sweep("0:0.1:0.9999999999")) == 10
    assert len(parse_sweep("0:0.1:1")) == 11
    assert parse_sweep("7:3:15", int) == [7, 10, 13]


@pytest.mark.parametrize("text", ["1:2", "1:0:5", "5:1:2", "a:b:c", "x", "2.5"])
def test_parse_sweep_rejects_malformed_input(text):
    with pytest.raises(UsageError, match="bad sweep"):
        parse_sweep(text, int)


def test_parse_sweep_rejects_nonpositive_float_steps():
    with pytest.raises(UsageError):
        parse_sweep("0.1:-0.1:0.5")


@pytest.mark.parametrize("text", ["0:1:inf", "-inf:1:0", "0:1e999:1"])
def test_parse_sweep_rejects_infinite_float_bounds(text, capsys):
    # a bound that casts to an infinity has no exact value to count from
    with pytest.raises(UsageError, match="bad sweep"):
        parse_sweep(text)
    argv = ["simulate", "--scheme", "ar1", "--n", "10", "--p", "5", "--K", "1", f"--rho={text}"]
    code, out, err = run_cli(argv, capsys)
    assert code == 1 and out == ""
    assert err.startswith(f"error: bad sweep {text!r}")


def test_parse_sweep_rejects_more_values_than_the_cap(capsys):
    with pytest.raises(UsageError, match="bad sweep '0:1:20000'"):
        parse_sweep("0:1:20000")
    assert len(parse_sweep("1:1:10000", int)) == 10_000  # the cap itself is allowed
    # the length is computed, not built: 1e300 values are rejected at once
    with pytest.raises(UsageError, match="at most 10000 values"):
        parse_sweep("0:1e-300:1")
    argv = ["simulate", "--scheme", "ar1", "--n", "10", "--p", "5", "--K", "1", "--rho", "0:1e-300:1"]
    code, out, err = run_cli(argv, capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: bad sweep '0:1e-300:1'")


# --- fit ---------------------------------------------------------------------

def test_fit_reports_the_planted_support(tmp_path, capsys):
    data_path = planted_file(tmp_path)
    code, out, err = run_cli(
        ["fit", "--family", "logistic", "--data", data_path, "--T", "2"], capsys
    )
    assert code == 0 and err == ""
    pairs = fit_lines(out)

    expected = sg.gsdar_fit(
        sg.LOGISTIC, sg.read_libsvm(data_path), sg.SdarConfig(sparsity_t=2)
    )
    assert pairs["command"] == "fit"
    assert pairs["family"] == "logistic"
    assert (pairs["n"], pairs["p"], pairs["T"]) == ("80", "6", "2")
    assert pairs["termination"] == expected.termination.value
    assert pairs["iterations"] == str(expected.iters)
    assert pairs["nll"] == format(expected.nll, ".10g")
    assert pairs["support_1based"] == " ".join(str(int(i) + 1) for i in expected.support)
    assert 0.0 <= float(pairs["train_accuracy"]) <= 1.0
    for i in expected.support:
        assert pairs[f"coef[{int(i) + 1}]"] == format(float(expected.beta_hat[i]), ".10g")


def test_fit_output_is_byte_deterministic_and_file_matches_stdout(tmp_path, capsys):
    data_path = planted_file(tmp_path)
    argv = ["fit", "--family", "logistic", "--data", data_path, "--T", "2"]
    _, first, _ = run_cli(argv, capsys)
    _, second, _ = run_cli(argv, capsys)
    assert first == second

    out_path = tmp_path / "result.txt"
    code, piped, _ = run_cli(argv + ["--output", str(out_path)], capsys)
    assert code == 0 and piped == ""
    assert out_path.read_text(encoding="ascii") == first


@pytest.mark.parametrize(
    "argv",
    [
        ["path", "--family", "logistic", "--data", "TRAIN", "--Q", "3"],
        ["simulate", "--scheme", "ar1", "--n", "50", "--p", "12", "--K", "1:1:2", "--reps", "2"],
    ],
    ids=lambda argv: argv[0],
)
def test_output_file_matches_stdout(tmp_path, capsys, argv):
    train_path = planted_file(tmp_path)
    argv = [train_path if arg == "TRAIN" else arg for arg in argv]
    code, printed, _ = run_cli(argv, capsys)
    assert code == 0 and printed.startswith(SCHEMA_LINE)

    out_path = tmp_path / "result.csv"
    code, piped, _ = run_cli(argv + ["--output", str(out_path)], capsys)
    assert code == 0 and piped == ""
    assert out_path.read_text(encoding="ascii") == printed


@pytest.mark.parametrize(
    "argv",
    [
        ["fit", "--family", "logistic", "--data", "TRAIN", "--T", "1"],
        ["path", "--family", "logistic", "--data", "TRAIN", "--Q", "3"],
        ["simulate", "--scheme", "ar1", "--n", "50", "--p", "12", "--K", "2", "--reps", "1"],
    ],
    ids=lambda argv: argv[0],
)
def test_an_empty_output_path_is_an_error(tmp_path, capsys, argv):
    # '' names no file: it is not a request for stdout
    train_path = planted_file(tmp_path)
    argv = [train_path if arg == "TRAIN" else arg for arg in argv]
    code, out, err = run_cli(argv + ["--output", ""], capsys)
    assert code == 1 and out == ""
    assert err.splitlines() == ["error: [Errno 2] No such file or directory: ''"]


@pytest.mark.parametrize("standardize", ["none", "mean0var1", "length-sqrt-n"])
def test_fit_checks_the_design_for_finiteness_once(tmp_path, capsys, monkeypatch, standardize):
    data_path = planted_file(tmp_path)  # 80 x 6
    scans = count_finite_scans(monkeypatch, lambda shape: shape == (80, 6))
    argv = ["fit", "--family", "logistic", "--data", data_path, "--T", "2",
            "--standardize", standardize]
    code, _, _ = run_cli(argv, capsys)
    assert code == 0
    # read_libsvm checked each value while parsing; only rescaling can overflow
    assert len(scans) == (0 if standardize == "none" else 1)


def test_read_libsvm_keeps_its_dataset_checks(tmp_path):
    path = tmp_path / "nan-label.txt"
    path.write_text("nan 1:1.0\n1 2:1.0\n", encoding="ascii")
    with pytest.raises(ValueError, match="y contains non-finite"):
        sg.read_libsvm(str(path))
    data = sg.read_libsvm(planted_file(tmp_path))
    X = data.X.copy()  # the reader's design, which is read-only: only the reader may skip the scan
    X[3, 2] = np.inf
    with pytest.raises(ValueError, match="X contains non-finite"):
        sg.Dataset(X, data.y)


def test_gaussian_fit_reports_no_accuracy(tmp_path, capsys):
    rng = make_rng(3)
    data = sg.Dataset(rng.standard_normal((30, 4)), rng.standard_normal(30))
    path = tmp_path / "gauss.txt"
    sg.write_libsvm(data, str(path))
    code, out, _ = run_cli(["fit", "--family", "gaussian", "--data", str(path), "--T", "2"], capsys)
    assert code == 0
    assert "train_accuracy" not in out
    assert "intercept: 0" in out


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["frobnicate"],
        ["fit", "--family", "logistic", "--T", "1"],                 # missing --data
        ["fit", "--family", "poisson", "--data", "x.txt", "--T", "1"],
    ],
)
def test_usage_problems_exit_one(argv, capsys):
    code, _, err = run_cli(argv, capsys)
    assert code == 1
    assert err.startswith("error:")


def test_real_data_is_not_a_command(capsys):
    # fit --data runs the same pipeline, held-out options included
    code, out, err = run_cli(["real-data", "--train", "x.txt", "--train-size", "3"], capsys)
    assert (code, out) == (1, "")
    assert err.count("\n") == 1
    assert err.startswith("error: argument command: invalid choice: 'real-data'")


def test_fit_rejects_a_negative_seed_before_reading(capsys):
    # the parser names the flag; x.txt is never opened
    argv = ["fit", "--family", "logistic", "--data", "x.txt", "--train-size", "3", "--seed", "-1"]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (1, "")
    assert err.splitlines() == ["error: argument --seed: must be >= 0, got -1"]


def test_fit_takes_a_seed_only_for_a_train_size_split(tmp_path, capsys):
    # like a flag of the other solver under simulate: refused, not dropped
    train_path = planted_file(tmp_path)
    argv = ["fit", "--family", "logistic", "--data", train_path, "--T", "2"]
    code, out, err = run_cli(argv + ["--seed", "5"], capsys)
    assert (code, out) == (1, "")
    assert err.splitlines() == ["error: --seed applies only to --train-size"]

    code, out, err = run_cli(argv + ["--train-size", "40", "--seed", "5"], capsys)
    assert (code, err) == (0, "")
    record = fit_lines(out)
    assert record["n"] == "40" and record["n_test"] == "40"
    # without --seed the split draws with seed 0
    _, seed0, _ = run_cli(argv + ["--train-size", "40", "--seed", "0"], capsys)
    _, unseeded, _ = run_cli(argv + ["--train-size", "40"], capsys)
    assert unseeded == seed0 != out


def test_bench_iters_is_not_a_command(capsys):
    # simulate --scheme ar1 computes what it did
    code, out, err = run_cli(["bench-iters", "--n", "20", "--p", "10", "--K", "2"], capsys)
    assert (code, out) == (1, "")
    assert err.count("\n") == 1
    assert err.startswith("error: argument command: invalid choice: 'bench-iters'")


SIM = ["simulate", "--scheme", "ar1", "--n", "20", "--p", "10", "--K", "2", "--reps", "1"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (SIM + ["--tau", "0"], "error: step_size_tau must lie in (0, 1], got 0.0"),
        (SIM + ["--split", "0"], "error: argument --split: must lie in (0, 1], got 0.0"),
        (SIM + ["--solver", "agsdar", "--theta", "0"], "error: increment_theta must be >= 1, got 0"),
        (SIM + ["--reps", "0"], "error: argument --reps: must be >= 1, got 0"),
        (SIM + ["--T", "0"], "error: sparsity_t must be >= 1, got 0"),
        (SIM + ["--seed", "-1"], "error: argument --seed: must be >= 0, got -1"),
    ],
    ids=["tau", "split", "theta", "reps", "T", "seed"],
)
def test_a_bad_flag_shared_by_every_cell_exits_one(argv, message, capsys):
    # checked once before the first cell, not reported as a failed row per cell
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (1, "")
    assert err.splitlines() == [message]


@pytest.mark.parametrize(
    "argv, message",
    [
        (SIM + ["--T", "0", "--solver", "agsdar"], "error: --T applies only to --solver gsdar"),
        (SIM + ["--T", "2", "--solver", "agsdar"], "error: --T applies only to --solver gsdar"),
        (SIM + ["--Q", "5", "--solver", "gsdar"], "error: --Q applies only to --solver agsdar"),
        (SIM + ["--Q", "5"], "error: --Q applies only to --solver agsdar"),
    ],
    ids=["T0-agsdar", "T-agsdar", "Q-gsdar", "Q-default-solver"],
)
def test_a_flag_of_the_other_solver_exits_one(argv, message, capsys):
    # rejected once, before any cell, rather than silently dropped
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (1, "")
    assert err.splitlines() == [message]


@pytest.mark.parametrize("solver", ["gsdar", "agsdar"])
def test_theta_stays_accepted_under_either_solver(solver, capsys):
    code, out, _ = run_cli(SIM + ["--theta", "1", "--solver", solver], capsys)
    assert code == 0 and out.startswith("# sdar-glm v1")


def test_missing_file_exits_one(capsys):
    code, _, err = run_cli(
        ["fit", "--family", "logistic", "--data", "/no/such/file.txt", "--T", "1"], capsys
    )
    assert code == 1 and err.startswith("error:")


def test_a_design_too_large_to_allocate_exits_one(tmp_path, capsys):
    path = tmp_path / "huge.txt"
    path.write_text("1 1:1.0 100000000000000:2.0\n", encoding="ascii")
    code, _, err = run_cli(["fit", "--family", "logistic", "--data", str(path), "--T", "1"], capsys)
    assert code == 1
    assert err.startswith("error: line 0:") and "more than can be allocated" in err


def test_unmappable_labels_exit_one(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("3 1:1.0\n0 1:2.0\n", encoding="ascii")
    code, _, err = run_cli(
        ["fit", "--family", "logistic", "--data", str(path), "--T", "1"], capsys
    )
    assert code == 1
    assert "labels must lie" in err


def test_solver_failure_exits_two(tmp_path, capsys, monkeypatch):
    def boom(family, data, cfg, beta0=None, intercept0=0.0):
        raise sg.SingularSystemError(np.array([0, 1]))

    monkeypatch.setattr("sdar_glm.cli.gsdar_fit", boom)
    data_path = planted_file(tmp_path)
    code, _, err = run_cli(
        ["fit", "--family", "logistic", "--data", data_path, "--T", "2"], capsys
    )
    assert code == 2
    assert err.startswith("solver error:")


def overflowing_gaussian_file(tmp_path):
    # every residual square overflows, so every iterate has NLL +inf
    path = tmp_path / "huge_y.txt"
    path.write_text(
        "1e160 1:1.0 2:0.5\n-1e160 1:-1.0 2:0.25\n1e160 1:0.5 2:-1.0\n"
        "-1e160 1:2.0 2:1.0\n1e160 1:-0.5 2:0.75\n",
        encoding="ascii",
    )
    return str(path)


def huge_design_file(tmp_path):
    # finite entries up to 3e160: every restricted Hessian overflows
    path = tmp_path / "huge_x.txt"
    path.write_text(
        "1 1:3e160 2:1.0\n0 1:-1e160 2:0.5\n1 1:2e160 2:-1.0\n"
        "0 1:1.0 2:3e160\n1 1:-2e160 2:0.25\n",
        encoding="ascii",
    )
    return str(path)


def test_a_fit_whose_every_nll_overflows_exits_two(tmp_path, capsys):
    argv = ["fit", "--family", "gaussian", "--data", overflowing_gaussian_file(tmp_path), "--T", "1"]
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert err == "solver error: negative log-likelihood overflowed at observation 0\n"


def test_a_stationary_fit_whose_nll_overflows_exits_two(tmp_path, capsys):
    # T = p = 2: the one iterate, which the next screen would find stationary, overflows
    argv = ["fit", "--family", "gaussian", "--data", overflowing_gaussian_file(tmp_path), "--T", "2"]
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert err == "solver error: negative log-likelihood overflowed at observation 0\n"


def test_a_path_whose_null_model_nll_overflows_exits_two(tmp_path, capsys):
    # the T = 0 level has NLL +inf, so no level can be compared with it
    argv = ["path", "--family", "gaussian", "--data", overflowing_gaussian_file(tmp_path)]
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert err == "solver error: negative log-likelihood overflowed at observation 0\n"


def small_gaussian_file(tmp_path):
    # the design of overflowing_gaussian_file with moderate responses
    path = tmp_path / "small_y.txt"
    path.write_text(
        "1 1:1.0 2:0.5\n-1 1:-1.0 2:0.25\n1 1:0.5 2:-1.0\n-1 1:2.0 2:1.0\n1 1:-0.5 2:0.75\n",
        encoding="ascii",
    )
    return str(path)


def overflow_iterate_nll(monkeypatch, overflows):
    # the null model's NLL is computed in sdar_glm.path, so only the levels'
    # iterates, whose NLL gsdar_fit computes, overflow where `overflows(beta)`
    nll = sg.negative_log_likelihood

    def checked(family, data, beta, intercept=0.0):
        if overflows(beta):
            raise sg.NumericOverflowError(0, "negative log-likelihood")
        return nll(family, data, beta, intercept)

    monkeypatch.setattr("sdar_glm.solver.negative_log_likelihood", checked)


def test_a_path_level_whose_every_nll_overflows_is_a_failed_row(tmp_path, capsys, monkeypatch):
    overflow_iterate_nll(monkeypatch, lambda beta: True)
    argv = ["path", "--family", "gaussian", "--data", small_gaussian_file(tmp_path), "--full-path"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    _, rows = csv_rows(out)
    assert rows[1:] == [
        ["1", "", "", "", "", "", "0", "negative log-likelihood overflowed at observation 0"],
        ["2", "", "", "", "", "", "0", "negative log-likelihood overflowed at observation 0"],
    ]
    assert rows[0][6] == "1"  # the null model is selected


def test_a_stationary_path_level_whose_nll_overflows_is_a_failed_row(tmp_path, capsys, monkeypatch):
    # T = p = 2: the one iterate, which the next screen would find stationary, overflows
    overflow_iterate_nll(monkeypatch, lambda beta: np.count_nonzero(beta) == beta.size)
    argv = ["path", "--family", "gaussian", "--data", small_gaussian_file(tmp_path), "--full-path"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    _, rows = csv_rows(out)
    assert [row[0] for row in rows] == ["0", "1", "2"]
    assert rows[1][7] == ""
    assert rows[2] == ["2", "", "", "", "", "", "0",
                       "negative log-likelihood overflowed at observation 0"]


def test_a_fit_whose_hessian_overflows_exits_two(tmp_path, capsys):
    argv = ["fit", "--family", "logistic", "--data", huge_design_file(tmp_path), "--T", "1"]
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert err == "solver error: restricted Hessian solve failed on active set [0]\n"


def overflowing_gradient_file(tmp_path):
    # column 2 holds entries near +-6e307: its gradient terms overflow to
    # +inf and -inf, so their sum is NaN at every iterate
    path = tmp_path / "huge_column.txt"
    path.write_text(
        "-30 1:-0.65 2:5.8e+307 3:1.66 4:0.66\n112 1:-1.64 2:5.7e+307 3:-0.62 4:0.15\n"
        "128 1:-1.61 2:-6e+307 3:0.24 4:1.58\n-106 1:0.32 2:-6.1e+307 3:-1.49 4:2.25\n"
        "-91 1:-1.92 2:-6.4e+307 3:-0.33 4:-0.88\n-120 1:-0.66 2:6.1e+307 3:0.38 4:-0.11\n"
        "-88 1:1.48 2:-5.8e+307 4:-0.89\n",
        encoding="ascii",
    )
    return str(path)


def test_a_fit_whose_gradient_overflows_exits_two(tmp_path, capsys):
    # an unchecked NaN coordinate is never screened, and the fit on the
    # other columns would be certified stationary
    argv = ["fit", "--family", "gaussian", "--data", overflowing_gradient_file(tmp_path), "--T", "2"]
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert err == "solver error: gradient at coordinate 1 overflowed at observation 0\n"


def test_path_levels_whose_hessian_overflows_are_failed_rows(tmp_path, capsys):
    argv = ["path", "--family", "logistic", "--data", huge_design_file(tmp_path)]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    _, rows = csv_rows(out)
    assert rows[1:] == [
        ["1", "", "", "", "", "", "0", "restricted Hessian solve failed on active set [0]"],
        ["2", "", "", "", "", "", "0", "restricted Hessian solve failed on active set [0, 1]"],
    ]
    assert rows[0][6] == "1"  # the null model is selected


@pytest.mark.parametrize(
    "argv",
    [
        ["fit", "--family", "gaussian", "--data", "F", "--T", "1"],
        ["fit", "--family", "gaussian", "--data", "F", "--T", "2"],
        ["path", "--family", "gaussian", "--data", "F"],
        ["fit", "--family", "logistic", "--data", "G", "--T", "1"],
        ["path", "--family", "logistic", "--data", "G"],
    ],
    ids=["fit-F-1", "fit-F-2", "path-F", "fit-G", "path-G"],
)
def test_overflows_reach_no_numpy_warning(tmp_path, capsys, argv):
    files = {"F": overflowing_gaussian_file(tmp_path), "G": huge_design_file(tmp_path)}
    argv = [files.get(arg, arg) for arg in argv]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    capsys.readouterr()
    assert code in (0, 2)
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


@pytest.mark.parametrize(
    "argv",
    [["fit", "--T", "4"], ["path", "--cold-start", "--full-path"]],
    ids=["fit", "path"],
)
def test_singular_restricted_systems_reach_no_warning(tmp_path, argv):
    # two identical columns make restricted Hessians singular to rounding;
    # the sdar-glm process runs with Python's default warning filters
    data_path = planted_file(tmp_path, repeat_column=True)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(sg.__file__))
    command = [*argv[:1], "--family", "logistic", "--data", data_path, *argv[1:]]
    done = subprocess.run(
        [sys.executable, "-c", "from sdar_glm.cli import run; run()", *command],
        env=env, capture_output=True, text=True, check=False,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.startswith(SCHEMA_LINE)


def huge_column_file(tmp_path):
    # feature 1 holds values near +-1e160, whose squares overflow
    path = tmp_path / "huge_feature.txt"
    path.write_text(
        "1 1:3e160 2:1.0\n0 1:-1e160 2:0.5\n1 1:2e160 2:-1.0\n"
        "0 1:1e160 2:0.75\n1 1:-2e160 2:0.25\n",
        encoding="ascii",
    )
    return str(path)


@pytest.mark.parametrize("standardize", ["mean0var1", "length-sqrt-n"])
def test_a_column_whose_scale_overflows_cannot_be_standardized(tmp_path, capsys, standardize):
    # dividing by the overflowing scale would zero the column and fit the others
    argv = ["fit", "--family", "logistic", "--data", huge_column_file(tmp_path), "--T", "1",
            "--standardize", standardize]
    code, out, err = run_cli(argv, capsys)
    assert code == 1 and out == ""
    assert err == "error: feature 1 overflows its scale and cannot be standardized\n"


def test_a_constant_feature_cannot_be_standardized(tmp_path, capsys):
    # the file counts features from 1, as support_1based and coef[j] do
    path = tmp_path / "constant_feature.txt"
    path.write_text("1 1:0.5 2:3\n0 1:-1 2:3\n1 1:2 2:3\n0 1:-0.5 2:3\n", encoding="ascii")
    argv = ["fit", "--family", "logistic", "--data", str(path), "--T", "1",
            "--standardize", "mean0var1"]
    code, out, err = run_cli(argv, capsys)
    assert code == 1 and out == ""
    assert err == "error: feature 2 is constant and cannot be standardized\n"


@pytest.mark.parametrize("module", ["sdar_glm", "sdar_glm.cli"])
@pytest.mark.parametrize("t, code", [("1", 0), ("0", 1)], ids=["fit", "bad-flag"])
def test_python_dash_m_runs_the_cli(tmp_path, capsys, module, t, code):
    argv = ["fit", "--family", "logistic", "--data", planted_file(tmp_path), "--T", t]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(sg.__file__)))
    done = subprocess.run([sys.executable, "-m", module, *argv],
                          env=env, capture_output=True, text=True, check=False)
    assert (done.returncode, done.stdout, done.stderr) == run_cli(argv, capsys)
    assert done.returncode == code
    assert (done.stderr == "") == (code == 0)


# --- path --------------------------------------------------------------------

def test_path_emits_one_row_per_level_plus_selection(tmp_path, capsys):
    data_path = planted_file(tmp_path)
    code, out, _ = run_cli(
        ["path", "--family", "logistic", "--data", data_path, "--Q", "3"], capsys
    )
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["T", "support_size", "nll", "hbic", "iters", "termination",
                      "selected", "error"]
    assert [r[0] for r in rows] == ["0", "1", "2", "3"]
    assert [r[6] for r in rows].count("1") == 1
    assert all(r[7] == "" for r in rows)

    expected = sg.agsdar_fit(
        sg.LOGISTIC, sg.read_libsvm(data_path), sg.AgsdarConfig(max_support_q=3)
    )
    chosen = next(r for r in rows if r[6] == "1")
    assert int(chosen[0]) == expected.selected_t


def test_path_reports_levels_skipped_by_the_hbic_bound(tmp_path, capsys):
    data_path = planted_file(tmp_path, p=20)  # default budget floor(80 / log 80) = 18
    argv = ["path", "--family", "logistic", "--data", data_path]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert run_cli(argv, capsys)[1] == out  # same argv, same bytes
    _, rows = csv_rows(out)
    assert [int(r[0]) for r in rows] == list(range(19))
    skipped = [r for r in rows if r[7] == "skipped: hbic bound"]
    assert skipped and skipped[-1][0] == "18"
    assert all(r[1:6] == [""] * 5 and r[6] == "0" for r in skipped)

    code, full_out, _ = run_cli(argv + ["--full-path"], capsys)
    assert code == 0
    _, full_rows = csv_rows(full_out)
    assert [int(r[0]) for r in full_rows] == list(range(19))
    assert all(r[7] == "" for r in full_rows)
    # the fitted levels print identically, and both tables select the same T
    assert rows[: len(rows) - len(skipped)] == full_rows[: len(rows) - len(skipped)]
    assert [r[0] for r in rows if r[6] == "1"] == [r[0] for r in full_rows if r[6] == "1"]


# --- simulate ----------------------------------------------------------------

def test_simulate_sweeps_the_grid_and_reports_metrics(capsys):
    argv = [
        "simulate", "--scheme", "ar1", "--n", "60", "--p", "15", "--K", "1:1:3",
        "--rho", "0.1", "--reps", "2", "--seed", "3",
    ]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    header, rows = csv_rows(out)
    assert header[:6] == ["scheme", "n", "p", "K", "rho", "R"]
    assert [r[3] for r in rows] == ["1", "2", "3"]
    for row in rows:
        record = dict(zip(header, row))
        assert record["error"] == ""
        assert record["rep_failures"] == "0"
        assert 0.0 <= float(record["acrp"]) <= 1.0
        assert float(record["iters_avg"]) >= 1.0


def test_simulate_is_byte_deterministic(capsys):
    argv = [
        "simulate", "--scheme", "ar1", "--n", "50", "--p", "12", "--K", "2",
        "--reps", "2", "--seed", "9",
    ]
    _, first, _ = run_cli(argv, capsys)
    _, second, _ = run_cli(argv, capsys)
    assert first == second


def test_simulate_gives_the_same_bytes_under_one_and_two_blas_threads():
    # a threaded BLAS may split a reduction differently; no product the CLI
    # computes may depend on how many threads it runs on
    argv = ["simulate", "--scheme", "ar1", "--n", "300", "--p", "600", "--K", "4",
            "--rho", "0.5", "--solver", "agsdar", "--Q", "8", "--reps", "2"]
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(sg.__file__)),
                   OPENBLAS_NUM_THREADS=threads)
        done = subprocess.run([sys.executable, "-m", "sdar_glm", *argv],
                              env=env, capture_output=True, check=False)
        assert (done.returncode, done.stderr) == (0, b"")
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]


def test_simulate_records_invalid_cells_without_dying(capsys):
    argv = [
        "simulate", "--scheme", "ar1", "--n", "40", "--p", "10", "--K", "2:18:20",
        "--reps", "2",
    ]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0  # one cell still succeeded
    header, rows = csv_rows(out)
    by_k = {r[3]: dict(zip(header, r)) for r in rows}
    assert by_k["2"]["error"] == ""
    assert "k must lie" in by_k["20"]["error"]
    assert by_k["20"]["reerr"] == ""


@pytest.mark.parametrize(
    "scheme, flag, value, field",
    [("ar1", "--R", "inf", "range_ratio"), ("banded", "--rho", "inf", "rho"),
     ("banded", "--rho", "nan", "rho"), ("banded", "--rho", "1e308", "rho")],
)
def test_a_cell_that_cannot_be_drawn_finite_is_a_failed_row(scheme, flag, value, field, capsys):
    # SimConfig rejects it before any draw: no numpy OverflowError, no rescan
    code, out, err = run_cli(["simulate", "--scheme", scheme, "--n", "20", "--p", "10",
                              "--K", "2", "--reps", "1", flag, value], capsys)
    assert (code, err) == (2, "")
    header, rows = csv_rows(out)
    assert len(rows) == 1
    row = dict(zip(header, rows[0]))
    assert row["error"].startswith(f"{field} must be") and row["reerr"] == ""


def test_simulate_reports_a_finite_reerr_when_the_coefficients_overflow_their_norm(capsys):
    code, out, err = run_cli(SIM + ["--R", "1e200"], capsys)
    assert (code, err) == (0, "")
    header, rows = csv_rows(out)
    row = dict(zip(header, rows[0]))
    assert row["rep_failures"] == "0" and math.isfinite(float(row["reerr"]))


def test_path_rejects_a_nan_stop(tmp_path, capsys):
    data = planted_file(tmp_path)
    for flag, field in (("--stop-nll", "nll_below"), ("--stop-change", "change_below")):
        code, out, err = run_cli(["path", "--family", "logistic", "--data", data,
                                  flag, "nan"], capsys)
        assert (code, out) == (1, "")
        assert err.splitlines() == [f"error: {field} must be nonnegative"]


def test_simulate_exits_two_when_every_cell_is_invalid(capsys):
    code, out, _ = run_cli(
        ["simulate", "--scheme", "ar1", "--n", "5", "--p", "20", "--K", "10",
         "--reps", "2"],
        capsys,
    )
    assert code == 2
    _, rows = csv_rows(out)
    assert len(rows) == 1 and "k must lie" in rows[0][-1]


# (K, rho) -> (iters_avg, rep_failures, error) of each cell, as the removed
# bench-iters command printed them for the same flags before simulate --scheme
# ar1 replaced it; the first argv's rho = 1 cells are error rows
BENCH_ITERS_CELLS = {
    "grid": ("--n 20 --p 10 --K 2:9:11 --rho 0.5:0.5:1.0 --reps 2 --seed 3", {
        ("2", "0.5"): ("1", "0", ""),
        ("11", "0.5"): ("", "", "k must lie in [0, min(n, p)], got 11"),
        ("2", "1"): ("", "", "the ar1 scheme needs rho in [0, 1)"),
        ("11", "1"): ("", "", "k must lie in [0, min(n, p)], got 11"),
    }),
    "every-flag": ("--n 60 --p 40 --K 1:2:7 --rho 0.1:0.4:0.9 --R 5 --tau 0.7 --reps 4 --seed 3", {
        ("1", "0.1"): ("1", "0", ""),
        ("3", "0.1"): ("1", "0", ""),
        ("5", "0.1"): ("1", "0", ""),
        ("7", "0.1"): ("1", "0", ""),
        ("1", "0.5"): ("1", "0", ""),
        ("3", "0.5"): ("1", "0", ""),
        ("5", "0.5"): ("1", "0", ""),
        ("7", "0.5"): ("1", "0", ""),
        ("1", "0.9"): ("1", "0", ""),
        ("3", "0.9"): ("1", "0", ""),
        ("5", "0.9"): ("1.5", "0", ""),
        ("7", "0.9"): ("1.25", "0", ""),
    }),
}


@pytest.mark.parametrize("name", sorted(BENCH_ITERS_CELLS))
def test_simulate_ar1_reports_the_iterations_bench_iters_did(name, capsys):
    flags, recorded = BENCH_ITERS_CELLS[name]
    code, out, _ = run_cli(["simulate", "--scheme", "ar1", *flags.split()], capsys)
    assert code == 0
    header, rows = csv_rows(out)
    cells = {}
    for row in rows:
        record = dict(zip(header, row))
        cells[record["K"], record["rho"]] = (
            record["iters_avg"], record["rep_failures"], record["error"])
    assert cells == recorded


# --- fit on held-out rows: the real-data pipeline -----------------------------

def test_real_data_splits_and_defaults_the_sparsity_level(tmp_path, capsys):
    train_path = planted_file(tmp_path, labels01=False)  # exercise -1/+1 mapping
    argv = ["fit", "--family", "logistic", "--data", train_path, "--train-size", "30"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    record = fit_lines(out)
    assert record["n"] == "30" and record["n_test"] == "50"
    assert "test" not in record  # the held-out rows come from --data
    assert record["T"] == str(max(1, int(0.5 * 30 / math.log(30))))
    assert record["T"] == "4"
    assert 0.0 <= float(record["train_accuracy"]) <= 1.0
    assert 0.0 <= float(record["test_accuracy"]) <= 1.0

    _, again, _ = run_cli(argv, capsys)
    assert again == out


def narrow_test_file(tmp_path, n=20):
    """An n x 4 file with {0, 1} labels, narrower than planted_file's 6 columns."""
    rng = make_rng(23)
    test = sg.Dataset(rng.standard_normal((n, 4)), (rng.random(n) < 0.5).astype(float))
    path = tmp_path / "test.txt"
    sg.write_libsvm(test, str(path))
    return str(path)


def test_real_data_pads_a_narrower_test_file(tmp_path, capsys):
    train_path = planted_file(tmp_path)
    test_path = narrow_test_file(tmp_path)
    code, out, _ = run_cli(
        ["fit", "--family", "logistic", "--data", train_path, "--test", test_path, "--T", "2"],
        capsys,
    )
    assert code == 0
    record = fit_lines(out)
    assert record["p"] == "6"  # test columns padded up to the training width
    assert record["test"] == test_path
    assert record["n_test"] == "20"
    assert record["test_accuracy"] != ""


# the values the removed real-data command printed in its CSV row for the same
# planted file (planted_file's arguments) and flags, keyed by fit's names
# (real-data's n_train is n, its iters is iterations); "" marks a value it
# left blank, which fit does not print
REAL_DATA_ROWS = {
    "train-size": ({"labels01": False}, ["--train-size", "30"], {
        "n": "30", "n_test": "50", "p": "6", "T": "4", "termination": "support_stationary",
        "iterations": "1", "nll": "0.2790978746", "kkt_residual": "1.260040072e-09",
        "train_accuracy": "0.8333333333", "test_accuracy": "0.86"}),
    "test-file": ({}, ["--test", "TEST", "--T", "2"], {
        "n": "80", "n_test": "20", "p": "6", "T": "2", "termination": "support_stationary",
        "iterations": "1", "nll": "0.322472567", "kkt_residual": "1.400533023e-10",
        "train_accuracy": "0.8625", "test_accuracy": "0.35"}),
    "one-row": ({"n": 1}, [], {
        "n": "1", "n_test": "0", "p": "6", "T": "1", "termination": "support_stationary",
        "iterations": "1", "nll": "4.573923462e-09", "kkt_residual": "5.477335918e-09",
        "train_accuracy": "1", "test_accuracy": ""}),
    "gaussian": ({}, ["--family", "gaussian", "--standardize", "length-sqrt-n",
                      "--test", "TEST", "--T", "2"], {
        "n": "80", "n_test": "20", "p": "6", "T": "2", "termination": "support_stationary",
        "iterations": "1", "nll": "0.1935205711", "kkt_residual": "2.775557562e-16",
        "train_accuracy": "", "test_accuracy": ""}),
}


@pytest.mark.parametrize("name", sorted(REAL_DATA_ROWS))
def test_fit_prints_what_real_data_did(tmp_path, capsys, name):
    planted, flags, recorded = REAL_DATA_ROWS[name]
    data_path = planted_file(tmp_path, **planted)
    flags = [narrow_test_file(tmp_path) if arg == "TEST" else arg for arg in flags]
    family = [] if "--family" in flags else ["--family", "logistic"]
    code, out, _ = run_cli(["fit", *family, "--data", data_path, *flags], capsys)
    assert code == 0
    record = fit_lines(out)
    printed = {key: record.get(key, "") for key in recorded}
    if "n_test" not in record:  # no held-out set: real-data printed 0
        printed["n_test"] = "0"
    assert printed == recorded


def held_out_argv(tmp_path, held_out):
    """--test with a 40 x 4 file (padded to 40 x 6), or --train-size 50."""
    if held_out == "test-file":
        return ["--test", narrow_test_file(tmp_path, n=40)]
    return ["--train-size", "50"]


def count_design_scans(monkeypatch):
    # a design has 6 columns; a T x T Newton system does not
    return count_finite_scans(monkeypatch, lambda shape: len(shape) == 2 and shape[1] == 6)


@pytest.mark.parametrize("held_out", ["test-file", "train-size"])
def test_real_data_checks_each_design_for_finiteness_once(tmp_path, capsys, monkeypatch, held_out):
    train_path = planted_file(tmp_path)  # 80 x 6
    split = held_out_argv(tmp_path, held_out)
    scans = count_design_scans(monkeypatch)
    argv = ["fit", "--family", "logistic", "--data", train_path, *split, "--T", "2"]
    code, _, _ = run_cli(argv, capsys)
    assert code == 0
    assert scans == []  # the reader checked each value; padding and splits add none


@pytest.mark.parametrize("held_out", ["test-file", "train-size"])
def test_real_data_scans_each_standardized_design_once(tmp_path, capsys, monkeypatch, held_out):
    train_path = planted_file(tmp_path)  # 80 x 6
    split = held_out_argv(tmp_path, held_out)
    scans = count_design_scans(monkeypatch)
    argv = ["fit", "--family", "logistic", "--data", train_path, *split, "--T", "2",
            "--standardize", "length-sqrt-n"]  # the padded zero columns stay zero
    code, _, _ = run_cli(argv, capsys)
    assert code == 0
    # the split parts come from the standardized, scanned training design
    assert scans == ([(80, 6), (40, 6)] if held_out == "test-file" else [(80, 6)])


@pytest.mark.parametrize("split", [[], ["--train-size", "1"]])
def test_real_data_defaults_the_sparsity_level_to_one_on_one_training_row(
    tmp_path, capsys, split
):
    # floor(0.5 n / log n) has log 1 = 0 in its denominator at n = 1
    train_path = planted_file(tmp_path, n=1 if not split else 80)
    argv = ["fit", "--family", "logistic", "--data", train_path, *split]
    code, out, err = run_cli(argv, capsys)
    assert code == 0, err
    record = fit_lines(out)
    assert record["n"] == "1" and record["T"] == "1"
    assert run_cli(argv + ["--T", "1"], capsys)[1] == out


@pytest.mark.parametrize(
    "split, message",
    [
        (["--train-size", "0"], "error: train size 0 must lie in [1, 6]"),
        (["--test", "TRAIN", "--train-size", "0"],
         "error: give at most one of --test and --train-size"),
    ],
)
def test_real_data_takes_a_zero_train_size_as_given(tmp_path, capsys, split, message):
    train_path = planted_file(tmp_path, n=6)
    split = [train_path if arg == "TRAIN" else arg for arg in split]
    code, out, err = run_cli(["fit", "--family", "logistic", "--data", train_path, *split],
                             capsys)
    assert code == 1 and out == ""
    assert err.splitlines() == [message]


@pytest.mark.parametrize(
    "split, message",
    [
        (["--test", "", "--T", "1"], "error: [Errno 2] No such file or directory: ''"),
        (["--test", "", "--train-size", "3"],
         "error: give at most one of --test and --train-size"),
    ],
    ids=["alone", "with-train-size"],
)
def test_real_data_takes_an_empty_test_path_as_given(tmp_path, capsys, split, message):
    train_path = planted_file(tmp_path, n=6)
    code, out, err = run_cli(["fit", "--family", "logistic", "--data", train_path, *split],
                             capsys)
    assert code == 1 and out == ""
    assert err.splitlines() == [message]


def test_real_data_rejects_both_split_styles(tmp_path, capsys):
    train_path = planted_file(tmp_path)
    code, _, err = run_cli(
        ["fit", "--family", "logistic", "--data", train_path, "--test", train_path,
         "--train-size", "10"],
        capsys,
    )
    assert code == 1
    assert "at most one of --test and --train-size" in err


def test_schema_line_is_frozen():
    assert SCHEMA_LINE == "# sdar-glm v1"


# --- no argv escapes as a traceback ------------------------------------------

# feature values and labels for tiny files: zeros, signs, huge magnitudes
# whose squares overflow, and labels outside {0, 1} and {-1, +1}
TINY_VALUES = ["0", "1", "-1", "0.5", "3", "1e160", "-1e160", "1e300"]
TINY_LABELS = ["0", "1", "-1", "0.5", "2", "1e160", "-1e160"]


def draw_tiny_file(draw, path):
    # feature 2 may repeat feature 1, which makes restricted systems singular
    rows = draw(st.integers(1, 6))
    features = draw(st.integers(1, 4))
    repeat = features > 1 and draw(st.booleans())
    lines = []
    for _ in range(rows):
        tokens = [draw(st.sampled_from(TINY_LABELS))]
        values = [draw(st.sampled_from(TINY_VALUES)) if draw(st.booleans()) else None
                  for _ in range(features)]
        if repeat:
            values[1] = values[0]
        tokens += [f"{j}:{v}" for j, v in enumerate(values, 1) if v is not None]
        lines.append(" ".join(tokens) + "\n")
    path.write_text("".join(lines), encoding="ascii")
    return str(path)


def draw_flags(draw, choices):
    """Each option of `choices` given or left out, with a drawn value
    (None: a flag without a value)."""
    argv = []
    for flag, values in choices.items():
        if draw(st.booleans()):
            value = draw(st.sampled_from(values))
            argv += [flag] if value is None else [flag, value]
    return argv


SOLVER_FLAGS = {"--tau": ["1", "0.5", "0", "2"], "--max-outer-iters": ["1", "3", "0"],
                "--intercept": [None]}
DATA_FLAGS = {"--n-features": ["0", "2", "6"],
              "--standardize": ["none", "mean0var1", "length-sqrt-n"]}


def draw_argv(draw, tmp_path):
    command = draw(st.sampled_from(["fit", "path", "simulate"]))
    family = ["--family", draw(st.sampled_from(["logistic", "gaussian"]))]
    if command == "fit":
        argv = ["fit", *family, "--data", draw_tiny_file(draw, tmp_path / "a.txt")]
        if draw(st.booleans()):
            argv += ["--test", draw_tiny_file(draw, tmp_path / "b.txt")]
        return argv + draw_flags(draw, {**DATA_FLAGS, **SOLVER_FLAGS,
                                        "--T": ["1", "2", "0", "9"],
                                        "--train-size": ["0", "1", "3"],
                                        "--seed": ["0", "5", "-1"]})
    if command == "path":
        return ["path", *family, "--data", draw_tiny_file(draw, tmp_path / "a.txt"),
                *draw_flags(draw, {**DATA_FLAGS, **SOLVER_FLAGS, "--Q": ["0", "1", "3"],
                                   "--theta": ["1", "2", "0"], "--stop-nll": ["0.5", "nan"],
                                   "--stop-change": ["0.01", "nan"], "--cold-start": [None],
                                   "--full-path": [None]})]
    # at most 2 replications (the default is 100) and sweeps of 2 values
    return ["simulate", "--scheme", draw(st.sampled_from(["ar1", "banded"])),
            "--n", draw(st.sampled_from(["8", "6:6:12", "0", "2"])),
            "--p", draw(st.sampled_from(["3", "3:3:6", "0"])),
            "--K", draw(st.sampled_from(["1", "1:1:2", "0", "5"])),
            "--reps", draw(st.sampled_from(["1", "2", "0"])),
            *draw_flags(draw, {"--seed": ["0", "3", "-1"], "--tau": ["1", "0.5", "0"],
                               "--rho": ["0.3", "0:1:1", "-0.5", "1.5", "inf", "nan", "1e308"],
                               "--R": ["3", "0.5", "-1", "inf", "nan", "1e308"],
                               "--solver": ["gsdar", "agsdar"], "--T": ["1", "3", "0"],
                               "--theta": ["1", "0"], "--Q": ["2", "0"],
                               "--split": ["0.5", "0", "1.5"]})]


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_no_argv_escapes_as_a_traceback(tmp_path, capsys, data):
    # tiny files and small sweeps over all three subcommands: every argv ends
    # in exit code 0, 1 or 2 with at most one line of stderr, its error, or
    # in argparse's own exit; nothing else raises
    argv = draw_argv(data.draw, tmp_path)
    if data.draw(st.sampled_from([False] * 19 + [True])):
        argv.append(data.draw(st.sampled_from(["--help", "--bogus", "--output"])))
    try:
        code = main(argv)
    except SystemExit:
        capsys.readouterr()
        return
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    assert err == "" or (err.count("\n") == 1 and err.endswith("\n")
                         and err.startswith(("error: ", "solver error: ")))


CELL_FLOATS = ["inf", "-inf", "nan", "1e308", "-0.0", "0.0", "1.0", "5e-324"]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_no_cell_float_escapes_as_a_traceback(capsys, data):
    # a cell that can be drawn, with only --R and --rho drawn from floats at
    # the edges, reaches the cell rules each time; each ends in exit 0, 1 or
    # 2 with stderr empty or one error line
    scheme = data.draw(st.sampled_from(["ar1", "banded"]))
    argv = ["simulate", "--scheme", scheme, "--n", "8", "--p", "4", "--K", "1", "--reps", "1"]
    for flag in ("--R", "--rho"):
        if data.draw(st.booleans()):
            argv.append(f"{flag}={data.draw(st.sampled_from(CELL_FLOATS))}")
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    assert err == "" or (err.count("\n") == 1 and err.endswith("\n")
                         and err.startswith(("error: ", "solver error: ")))
