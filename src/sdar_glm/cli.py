"""Command-line driver.

Subcommands: fit, path, simulate, bench-iters, real-data.  Every run is a
batch job whose output is fully determined by its arguments: same argv,
same bytes.  CSV outputs start with the schema comment line.  Exit codes:
0 success, 1 usage or input parsing problem, 2 solver failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import math
import sys

from .dataio import (
    InvalidLabelError,
    LibsvmParseError,
    MODE_LENGTH,
    MODE_MEAN_VAR,
    map_labels_to_binary,
    pad_features,
    read_libsvm,
    standardize_columns,
    train_test_split,
)
from .families import Dataset, NumericOverflowError, get_family, linear_predictor
from .path import AgsdarConfig, agsdar_fit
from .simulate import (
    SCHEME_AR1,
    SCHEME_BANDED,
    SimConfig,
    metric_acrp,
    run_replications,
)
from .solver import SdarConfig, SingularSystemError, gsdar_fit

SCHEMA_LINE = "# sdar-glm v1"


class UsageError(Exception):
    """Bad command line; mapped to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def parse_sweep(text: str, cast=float) -> list:
    """A single value, or an inclusive START:STEP:STOP sweep."""
    try:
        if ":" in text:
            a, b, c = text.split(":")
            start, step, stop = cast(a), cast(b), cast(c)
            if step <= 0 or stop < start:
                raise ValueError
            count = int(math.floor((stop - start) / step + 1e-9)) + 1
            return [cast(start + i * step) for i in range(count)]
        return [cast(text)]
    except (ValueError, TypeError):
        raise UsageError(f"bad sweep {text!r}; use VALUE or START:STEP:STOP") from None


def _int_sweep(text: str) -> list[int]:
    return parse_sweep(text, int)


def _float_sweep(text: str) -> list[float]:
    return parse_sweep(text, float)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return format(value, ".10g")
    return str(value)


def _write_output(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    buf.write(SCHEMA_LINE + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    return buf.getvalue()


def _add_data_flags(sub):
    sub.add_argument("--data", required=True, help="LIBSVM text file")
    sub.add_argument("--n-features", type=int, default=None, help="force the feature count")
    sub.add_argument(
        "--standardize",
        choices=["none", MODE_MEAN_VAR, MODE_LENGTH],
        default="none",
        help="column rescaling applied after reading",
    )


def _add_solver_flags(sub):
    sub.add_argument("--tau", type=float, default=1.0, help="dual step size in (0, 1]")
    sub.add_argument("--max-outer-iters", type=int, default=50)
    sub.add_argument("--intercept", action="store_true", help="fit an unpenalized intercept")


def _load_dataset(path, family, standardize, n_features):
    data = read_libsvm(path, n_features=n_features)
    y = map_labels_to_binary(data.y) if family.name == "logistic" else data.y
    X = data.X
    if standardize != "none":
        X = standardize_columns(X, standardize)
    return Dataset(X, y)


def _train_accuracy(fit, data) -> float:
    labels = (linear_predictor(data, fit.beta_hat, fit.intercept) >= 0.0).astype(float)
    return metric_acrp(labels, data.y)


def _cmd_fit(args) -> int:
    family = get_family(args.family)
    data = _load_dataset(args.data, family, args.standardize, args.n_features)
    cfg = SdarConfig(
        sparsity_t=args.T,
        step_size_tau=args.tau,
        max_outer_iters=args.max_outer_iters,
        with_intercept=args.intercept,
    )
    fit = gsdar_fit(family, data, cfg)
    lines = [
        SCHEMA_LINE,
        "command: fit",
        f"family: {family.name}",
        f"data: {args.data}",
        f"n: {data.n}",
        f"p: {data.p}",
        f"T: {args.T}",
        f"termination: {fit.termination.value}",
        f"iterations: {fit.iters}",
        f"nll: {_fmt(fit.nll)}",
        f"kkt_residual: {_fmt(fit.kkt_residual)}",
        f"intercept: {_fmt(fit.intercept)}",
        "support_1based: " + " ".join(str(int(i) + 1) for i in fit.support),
    ]
    if family.name == "logistic":
        lines.append(f"train_accuracy: {_fmt(_train_accuracy(fit, data))}")
    for i in fit.support:
        lines.append(f"coef[{int(i) + 1}]: {_fmt(float(fit.beta_hat[i]))}")
    _write_output("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_path(args) -> int:
    family = get_family(args.family)
    data = _load_dataset(args.data, family, args.standardize, args.n_features)
    cfg = AgsdarConfig(
        increment_theta=args.theta,
        max_support_q=args.Q,
        nll_below=args.stop_nll,
        change_below=args.stop_change,
        warm_start=not args.cold_start,
        full_path=args.full_path,
        inner=SdarConfig(
            sparsity_t=1,
            step_size_tau=args.tau,
            max_outer_iters=args.max_outer_iters,
            with_intercept=args.intercept,
        ),
    )
    result = agsdar_fit(family, data, cfg)
    header = ["T", "support_size", "nll", "hbic", "iters", "termination", "selected", "error"]
    rows = []
    for pt in result.fits:
        rows.append([
            pt.t,
            int(len(pt.fit.support)),
            pt.fit.nll,
            pt.hbic,
            pt.fit.iters,
            pt.fit.termination.value,
            int(pt.t == result.selected_t),
            None,
        ])
    for t, message in result.failures:
        rows.append([t, None, None, None, None, None, 0, message])
    for t in result.skipped:
        rows.append([t, None, None, None, None, None, 0, "skipped: hbic bound"])
    rows.sort(key=lambda r: r[0])
    _write_output(_csv_text(header, rows), args.output)
    return 0


def _cmd_simulate(args) -> int:
    header = [
        "scheme", "n", "p", "K", "rho", "R", "solver", "T", "theta", "Q", "split",
        "reps", "seed", "reerr", "acrp", "apdr", "afdr", "adr", "iters_avg",
        "rep_failures", "error",
    ]
    rows = []
    any_ok = False
    for n, p, k, rho, ratio in itertools.product(
        args.n, args.p, args.K, args.rho, args.R
    ):
        t = args.T if args.T is not None else k
        theta = args.theta if args.solver == "agsdar" else None
        q = args.Q if args.solver == "agsdar" else None
        cell = [args.scheme, n, p, k, rho, ratio, args.solver, t if args.solver == "gsdar" else None,
                theta, q, args.split, args.reps, args.seed]
        try:
            sim = SimConfig(
                n=n, p=p, k=k, rho=rho, range_ratio=ratio, scheme=args.scheme, seed=args.seed
            )
            if args.solver == "agsdar":
                solver = AgsdarConfig(
                    increment_theta=args.theta,
                    max_support_q=args.Q,
                    inner=SdarConfig(sparsity_t=1, step_size_tau=args.tau),
                )
            else:
                solver = SdarConfig(sparsity_t=t, step_size_tau=args.tau)
            report = run_replications(
                sim, solver, args.reps, train_fraction=args.split
            )
        except ValueError as exc:
            rows.append(cell + [None, None, None, None, None, None, None, str(exc)])
            continue
        failed_all = report.failures >= args.reps
        rows.append(cell + [
            report.reerr, report.acrp, report.apdr, report.afdr, report.adr,
            report.iters_avg, report.failures,
            "all replications failed" if failed_all else None,
        ])
        if not failed_all:
            any_ok = True
    _write_output(_csv_text(header, rows), args.output)
    return 0 if any_ok else 2


def _cmd_bench_iters(args) -> int:
    header = ["scheme", "n", "p", "K", "rho", "R", "reps", "seed", "iters_avg",
              "rep_failures", "error"]
    rows = []
    any_ok = False
    for rho, k in itertools.product(args.rho, args.K):
        cell = [SCHEME_AR1, args.n, args.p, k, rho, args.R, args.reps, args.seed]
        try:
            sim = SimConfig(
                n=args.n, p=args.p, k=k, rho=rho, range_ratio=args.R,
                scheme=SCHEME_AR1, seed=args.seed,
            )
            solver = SdarConfig(sparsity_t=k, step_size_tau=args.tau)
            report = run_replications(sim, solver, args.reps)
        except ValueError as exc:
            rows.append(cell + [None, None, str(exc)])
            continue
        failed_all = report.failures >= args.reps
        rows.append(cell + [
            report.iters_avg, report.failures,
            "all replications failed" if failed_all else None,
        ])
        if not failed_all:
            any_ok = True
    _write_output(_csv_text(header, rows), args.output)
    return 0 if any_ok else 2


def _cmd_real_data(args) -> int:
    if args.test and args.train_size:
        raise UsageError("give at most one of --test and --train-size")
    family = get_family(args.family)
    train = read_libsvm(args.train, n_features=args.n_features)
    test = read_libsvm(args.test, n_features=args.n_features) if args.test else None
    p = max(train.p, test.p if test is not None else 0)
    train = pad_features(train, p)
    if test is not None:
        test = pad_features(test, p)

    def prepare(ds):
        y = map_labels_to_binary(ds.y) if family.name == "logistic" else ds.y
        X = standardize_columns(ds.X, args.standardize) if args.standardize != "none" else ds.X
        return Dataset(X, y)

    train = prepare(train)
    if test is not None:
        test = prepare(test)
    if args.train_size:
        train, test = train_test_split(train, train_size=args.train_size, seed=args.seed)

    n_train = train.n
    t = args.T if args.T is not None else max(1, int(0.5 * n_train / math.log(n_train)))
    cfg = SdarConfig(
        sparsity_t=t,
        step_size_tau=args.tau,
        max_outer_iters=args.max_outer_iters,
        with_intercept=args.intercept,
    )
    fit = gsdar_fit(family, train, cfg)
    train_acc = _train_accuracy(fit, train) if family.name == "logistic" else None
    test_acc = (
        _train_accuracy(fit, test)
        if (family.name == "logistic" and test is not None and test.n > 0)
        else None
    )
    header = ["train", "test", "n_train", "n_test", "p", "T", "termination", "iters",
              "nll", "kkt_residual", "train_accuracy", "test_accuracy"]
    rows = [[
        args.train,
        args.test or "",
        n_train,
        test.n if test is not None else 0,
        p,
        t,
        fit.termination.value,
        fit.iters,
        fit.nll,
        fit.kkt_residual,
        train_acc,
        test_acc,
    ]]
    _write_output(_csv_text(header, rows), args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sdar-glm", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    fit = subs.add_parser("fit", help="fit one model at a fixed sparsity level")
    fit.add_argument("--family", choices=["logistic", "gaussian"], required=True)
    _add_data_flags(fit)
    fit.add_argument("--T", type=int, required=True, help="active-set cardinality")
    _add_solver_flags(fit)
    fit.add_argument("--output", default=None)
    fit.set_defaults(func=_cmd_fit)

    path = subs.add_parser("path", help="fit a sparsity path and select by HBIC")
    path.add_argument("--family", choices=["logistic", "gaussian"], required=True)
    _add_data_flags(path)
    path.add_argument("--theta", type=int, default=1, help="sparsity increment")
    path.add_argument("--Q", type=int, default=None, help="largest sparsity level")
    path.add_argument("--stop-nll", type=float, default=None,
                      help="stop once the fitted NLL falls below this")
    path.add_argument("--stop-change", type=float, default=None,
                      help="stop once consecutive coefficient change falls below this")
    path.add_argument("--cold-start", action="store_true",
                      help="refit every level from zero instead of warm starting")
    path.add_argument("--full-path", action="store_true",
                      help="fit every level up to Q, past the HBIC bound that stops the sweep")
    _add_solver_flags(path)
    path.add_argument("--output", default=None)
    path.set_defaults(func=_cmd_path)

    sim = subs.add_parser("simulate", help="replicate synthetic experiments")
    sim.add_argument("--scheme", choices=[SCHEME_BANDED, SCHEME_AR1], required=True)
    sim.add_argument("--n", type=_int_sweep, required=True, help="sample size (sweepable)")
    sim.add_argument("--p", type=_int_sweep, required=True, help="predictors (sweepable)")
    sim.add_argument("--K", type=_int_sweep, required=True, help="true support size (sweepable)")
    sim.add_argument("--rho", type=_float_sweep, default=[0.0], help="correlation (sweepable)")
    sim.add_argument("--R", type=_float_sweep, default=[3.0],
                     help="upper signal bound for the ar1 scheme (sweepable)")
    sim.add_argument("--solver", choices=["gsdar", "agsdar"], default="gsdar")
    sim.add_argument("--T", type=int, default=None, help="sparsity level (default: K)")
    sim.add_argument("--theta", type=int, default=1)
    sim.add_argument("--Q", type=int, default=None)
    sim.add_argument("--tau", type=float, default=1.0)
    sim.add_argument("--split", type=float, default=None,
                     help="train fraction; accuracy scores the held-out rest")
    sim.add_argument("--reps", type=int, default=100)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--output", default=None)
    sim.set_defaults(func=_cmd_simulate)

    bench = subs.add_parser("bench-iters", help="average outer iterations at T = K")
    bench.add_argument("--n", type=int, required=True)
    bench.add_argument("--p", type=int, required=True)
    bench.add_argument("--K", type=_int_sweep, required=True, help="support size (sweepable)")
    bench.add_argument("--rho", type=_float_sweep, default=[0.1], help="AR(1) correlation (sweepable)")
    bench.add_argument("--R", type=float, default=3.0)
    bench.add_argument("--tau", type=float, default=1.0)
    bench.add_argument("--reps", type=int, default=100)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--output", default=None)
    bench.set_defaults(func=_cmd_bench_iters)

    real = subs.add_parser("real-data", help="end-to-end pipeline on LIBSVM files")
    real.add_argument("--family", choices=["logistic", "gaussian"], default="logistic")
    real.add_argument("--train", required=True, help="training LIBSVM file")
    real.add_argument("--test", default=None, help="optional test LIBSVM file")
    real.add_argument("--train-size", type=int, default=None,
                      help="randomly hold out the rest of --train as a test set")
    real.add_argument("--n-features", type=int, default=None)
    real.add_argument("--standardize", choices=["none", MODE_MEAN_VAR, MODE_LENGTH],
                      default="none", help="applied per file after reading")
    real.add_argument("--T", type=int, default=None,
                      help="sparsity level (default: floor(0.5 n / log n))")
    _add_solver_flags(real)
    real.add_argument("--seed", type=int, default=0)
    real.add_argument("--output", default=None)
    real.set_defaults(func=_cmd_real_data)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (LibsvmParseError, InvalidLabelError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SingularSystemError, NumericOverflowError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())
