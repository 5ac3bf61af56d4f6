"""Command-line driver.

Subcommands: fit, path, simulate.  Every run is a batch job
whose output is fully determined by its arguments: same argv, same bytes.
CSV outputs start with the schema comment line.  Exit codes: 0 success,
1 usage or input parsing problem, 2 solver failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import math
import sys
from dataclasses import fields, replace
from fractions import Fraction
from functools import partial

import numpy as np

from .dataio import (
    MODE_LENGTH,
    MODE_MEAN_VAR,
    UnscalableColumnError,
    map_labels_to_binary,
    pad_features,
    read_libsvm,
    standardize_columns,
    train_test_split,
)
from .families import Dataset, get_family
from .path import AgsdarConfig, agsdar_fit
from .simulate import (
    SCHEME_AR1,
    SCHEME_BANDED,
    MetricReport,
    SimConfig,
    fit_accuracy,
    run_replications,
)
from .solver import FIT_FAILURES, SdarConfig, gsdar_fit

SCHEMA_LINE = "# sdar-glm v1"
# the most values a START:STEP:STOP sweep may hold; its length is computed
# before any value is made
MAX_SWEEP_VALUES = 10_000


class UsageError(Exception):
    """Bad command line; mapped to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def parse_sweep(text: str, cast=float) -> list:
    """A single value, or the values cast(START + i * STEP) of an inclusive
    START:STEP:STOP sweep, counted exactly from the str of each cast bound."""
    try:
        if ":" in text:
            start, step, stop = map(cast, text.split(":"))
            lo, width, hi = (Fraction(str(bound)) for bound in (start, step, stop))
            if width <= 0 or hi < lo:
                raise ValueError
            count = (hi - lo) // width + 1
            if count > MAX_SWEEP_VALUES:
                raise ValueError
            return [cast(start + i * step) for i in range(count)]
        return [cast(text)]
    except (ValueError, TypeError):
        raise UsageError(
            f"bad sweep {text!r}; use VALUE or START:STEP:STOP with at most {MAX_SWEEP_VALUES} values"
        ) from None


def _checked(cast, ok, rule: str):
    """An argparse type: cast(text), rejected unless ok(value)."""
    def parse(text):
        value = cast(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must {rule}, got {value}")
        return value
    parse.__name__ = cast.__name__  # argparse's "invalid int value" names it
    return parse


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return format(value, ".10g")
    return str(value)


def _write_output(text: str, output: str | None) -> None:
    if output is not None:  # an empty path is an error, not stdout
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
    sub.add_argument("--family", choices=["logistic", "gaussian"], required=True)
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


def _solver_config(args, t: int) -> SdarConfig:
    """The SdarConfig of the solver flags, at sparsity level t."""
    return SdarConfig(
        sparsity_t=t,
        step_size_tau=args.tau,
        max_outer_iters=args.max_outer_iters,
        with_intercept=args.intercept,
    )


def _prepare(data, family, standardize) -> Dataset:
    """A dataset as read from LIBSVM, made ready to fit: labels mapped to
    {0, 1} for a binary family, columns rescaled when asked.  Only a
    rescaled X is scanned for finite values, since rescaling can overflow;
    data.X comes from a Dataset (read_libsvm's or pad_features')."""
    y = map_labels_to_binary(data.y) if family.binary else data.y
    try:
        X = standardize_columns(data.X, standardize) if standardize != "none" else data.X
    except UnscalableColumnError as exc:
        raise UsageError(f"feature {exc.column + 1} {exc.reason} and cannot be standardized") from None
    return Dataset(X, y, _x_checked=X is data.X)


def _cmd_fit(args) -> int:
    """One fit at sparsity level T on --data; for a binary family, optionally
    scored on held-out rows: a --test file (both padded to the wider p) or
    the rows that --train-size leaves out of --data."""
    if args.test is not None and args.train_size is not None:
        raise UsageError("give at most one of --test and --train-size")
    if args.seed is not None and args.train_size is None:
        raise UsageError("--seed applies only to --train-size")
    family = get_family(args.family)
    for flag, value in (("--test", args.test), ("--train-size", args.train_size)):
        if value is not None and not family.binary:
            raise UsageError(f"{flag} applies only to a binary family, not {family.name}")
    data = read_libsvm(args.data, n_features=args.n_features)
    test = None if args.test is None else read_libsvm(args.test, n_features=args.n_features)
    p = max(data.p, test.p if test is not None else 0)
    data = _prepare(pad_features(data, p), family, args.standardize)
    if test is not None:
        test = _prepare(pad_features(test, p), family, args.standardize)
    if args.train_size is not None:
        data, test = train_test_split(data, args.train_size, seed=args.seed or 0)
    t = args.T
    if t is None:  # floor(0.5 n / log n), at least 1; log 1 = 0
        t = max(1, int(0.5 * data.n / math.log(data.n))) if data.n > 1 else 1
    fit = gsdar_fit(family, data, _solver_config(args, t))
    lines = [
        SCHEMA_LINE,
        "command: fit",
        f"family: {family.name}",
        f"data: {args.data}",
        f"n: {data.n}",
        f"p: {data.p}",
        f"T: {t}",
        f"termination: {fit.termination.value}",
        f"iterations: {fit.iters}",
        f"nll: {_fmt(fit.nll)}",
        f"kkt_residual: {_fmt(fit.kkt_residual)}",
        f"intercept: {_fmt(fit.intercept)}",
        "support_1based: " + " ".join(str(int(i) + 1) for i in fit.support),
    ]
    if args.test is not None:
        lines.append(f"test: {args.test}")
    if test is not None:
        lines.append(f"n_test: {test.n}")
    if family.binary:
        lines.append(f"train_accuracy: {_fmt(fit_accuracy(fit, data))}")
        if test is not None and test.n > 0:
            lines.append(f"test_accuracy: {_fmt(fit_accuracy(fit, test))}")
    for i in fit.support:
        lines.append(f"coef[{int(i) + 1}]: {_fmt(float(fit.beta_hat[i]))}")
    _write_output("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_path(args) -> int:
    family = get_family(args.family)
    data = _prepare(read_libsvm(args.data, n_features=args.n_features), family, args.standardize)
    cfg = AgsdarConfig(
        increment_theta=args.theta,
        max_support_q=args.Q,
        warm_start=not args.cold_start,
        full_path=args.full_path,
        inner=_solver_config(args, 1),
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
    """Replicate every cell of the sweep grid and write one CSV row per cell:
    the cell, its metrics and its failure count.  A ValueError while
    configuring or replicating a cell blanks its metrics and fills its error.
    Exit code 2 when no cell had a replication succeed."""
    agsdar = args.solver == "agsdar"
    # the flags shared by every cell are checked here, once; --T belongs to
    # gsdar and --Q to agsdar (--theta has a default, and is ignored by gsdar)
    for flag, value, owner in (("--T", args.T, "gsdar"), ("--Q", args.Q, "agsdar")):
        if value is not None and args.solver != owner:
            raise UsageError(f"{flag} applies only to --solver {owner}")
    inner = SdarConfig(sparsity_t=1 if args.T is None else args.T, step_size_tau=args.tau)
    path_cfg = (AgsdarConfig(increment_theta=args.theta, max_support_q=args.Q, inner=inner)
                if agsdar else None)

    metrics = [f.name for f in fields(MetricReport) if f.name != "failures"]
    rows = []
    any_ok = False
    for n, p, k, rho, ratio in itertools.product(args.n, args.p, args.K, args.rho, args.R):
        t = k if args.T is None else args.T
        row = [args.scheme, n, p, k, rho, ratio, args.solver, None if agsdar else t,
               args.theta if agsdar else None, args.Q if agsdar else None,
               args.split, args.reps, args.seed]
        try:
            sim = SimConfig(n=n, p=p, k=k, rho=rho, range_ratio=ratio, scheme=args.scheme,
                            seed=args.seed)
            solver = path_cfg if agsdar else replace(inner, sparsity_t=t)
            report = run_replications(sim, solver, args.reps, train_fraction=args.split)
        except ValueError as exc:
            rows.append(row + [None] * (len(metrics) + 1) + [str(exc)])
            continue
        failed_all = report.failures >= args.reps
        rows.append(row + [getattr(report, m) for m in metrics] + [
            report.failures, "all replications failed" if failed_all else None,
        ])
        any_ok = any_ok or not failed_all
    header = ["scheme", "n", "p", "K", "rho", "R", "solver", "T", "theta", "Q", "split", "reps",
              "seed", *metrics, "rep_failures", "error"]
    _write_output(_csv_text(header, rows), args.output)
    return 0 if any_ok else 2


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sdar-glm", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    int_sweep = partial(parse_sweep, cast=int)
    nonnegative_int = _checked(int, lambda s: s >= 0, "be >= 0")

    fit = subs.add_parser("fit", help="fit one model at a fixed sparsity level")
    _add_data_flags(fit)
    fit.add_argument("--T", type=int, default=None,
                     help="active-set cardinality (default: floor(0.5 n / log n))")
    fit.add_argument("--test", default=None, help="held-out LIBSVM file")
    fit.add_argument("--train-size", type=int, default=None,
                     help="fit on this many random rows of --data, score the rest")
    fit.add_argument("--seed", type=nonnegative_int, default=None,
                     help="seed of the --train-size split")
    _add_solver_flags(fit)
    fit.set_defaults(func=_cmd_fit)

    path = subs.add_parser("path", help="fit a sparsity path and select by HBIC")
    _add_data_flags(path)
    path.add_argument("--theta", type=int, default=1, help="sparsity increment")
    path.add_argument("--Q", type=int, default=None,
                      help="largest sparsity level; the sweep stops there or at the HBIC bound")
    path.add_argument("--cold-start", action="store_true",
                      help="refit every level from zero instead of warm starting")
    path.add_argument("--full-path", action="store_true",
                      help="fit every level up to Q, past the HBIC bound that stops the sweep")
    _add_solver_flags(path)
    path.set_defaults(func=_cmd_path)

    sim = subs.add_parser("simulate", help="replicate synthetic experiments")
    sim.add_argument("--scheme", choices=[SCHEME_BANDED, SCHEME_AR1], required=True)
    sim.add_argument("--n", type=int_sweep, required=True, help="sample size (sweepable)")
    sim.add_argument("--p", type=int_sweep, required=True, help="predictors (sweepable)")
    sim.add_argument("--K", type=int_sweep, required=True, help="true support size (sweepable)")
    sim.add_argument("--rho", type=parse_sweep, default=[0.0], help="correlation (sweepable)")
    sim.add_argument("--R", type=parse_sweep, default=[3.0],
                     help="upper signal bound for the ar1 scheme (sweepable)")
    sim.add_argument("--solver", choices=["gsdar", "agsdar"], default="gsdar")
    sim.add_argument("--T", type=int, default=None, help="sparsity level (default: K)")
    sim.add_argument("--theta", type=int, default=1)
    sim.add_argument("--Q", type=int, default=None)
    sim.add_argument("--split", type=_checked(float, lambda f: 0.0 < f <= 1.0, "lie in (0, 1]"),
                     default=None, help="train fraction; accuracy scores the held-out rest")
    sim.add_argument("--tau", type=float, default=1.0)
    sim.add_argument("--reps", type=_checked(int, lambda r: r >= 1, "be >= 1"), default=100)
    sim.add_argument("--seed", type=nonnegative_int, default=0)
    sim.set_defaults(func=_cmd_simulate)

    for sub in subs.choices.values():
        sub.add_argument("--output", default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        with np.errstate(over="ignore", invalid="ignore"):  # each overflow is detected and reported
            return args.func(args)
    except (UsageError, ValueError, OSError) as exc:  # LIBSVM and label errors are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FIT_FAILURES as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
