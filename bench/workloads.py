"""The three benchmark workloads: inputs from a seed, one op, and its checks.

Each workload builds its inputs in `setup`, runs one op per `op(i, family)`
through the public API of sdar_glm (or the in-process CLI), and verifies
that op's output in `check`, which the runner calls outside the timed
interval.  `quality()` gives the discovery rates against the planted support,
measured on the first `quality_ops` ops, which are the same for a given seed.

The package must already be importable (run.py puts the checkout's src/ on
sys.path before importing this module).
"""

from __future__ import annotations

import math
import os
from pathlib import Path

import numpy as np

import sdar_glm as sg
import sdar_glm.cli  # noqa: F401  (the ingest op calls sg.cli.main)


def discovery(support_hat, support_star) -> tuple[float, float]:
    """(apdr, afdr) of an estimated support against the planted one."""
    return sg.metric_discovery(np.asarray(support_hat), np.asarray(support_star))[:2]


def mean_rates(rates) -> tuple[float, float]:
    """Mean (apdr, afdr) over the checked quality ops; NaN when none passed."""
    rates = list(rates)
    if not rates:
        return math.nan, math.nan
    return tuple(float(np.mean(col)) for col in zip(*rates))


class Workload:
    name = ""
    quality_ops = 1  # ops whose discovery rates make up quality()
    traced_ops = 1  # ops in each pass of a traced run

    def cleanup(self) -> None:
        """Remove files that setup wrote."""


class FitWide(Workload):
    """gsdar_fit(LOGISTIC) at T=20 without, then with, intercept; instances cycled."""

    name = "fit-wide"
    T = 20
    INSTANCES = 4
    SIM = dict(n=1000, p=20000, k=20, rho=0.1, range_ratio=3.0, scheme=sg.SCHEME_AR1)
    quality_ops = INSTANCES
    traced_ops = INSTANCES

    def setup(self, seed: int, workdir: Path) -> None:
        cfg = sg.SimConfig(**self.SIM, seed=seed)
        self.instances = [sg.generate_instance(cfg, rep) for rep in range(self.INSTANCES)]
        self.cfgs = (
            sg.SdarConfig(sparsity_t=self.T),
            sg.SdarConfig(sparsity_t=self.T, with_intercept=True),
        )
        self.verified: dict[tuple[int, int], tuple] = {}
        self.rates: dict[tuple[int, int], tuple[float, float]] = {}

    def op(self, i: int, family):
        data = self.instances[i % self.INSTANCES][0]
        return [sg.gsdar_fit(family, data, cfg) for cfg in self.cfgs]

    def check(self, i: int, fits) -> str | None:
        k = i % self.INSTANCES
        data, _beta_star, support_star = self.instances[k]
        for half, fit in enumerate(fits):
            key = _fit_key(fit)
            if self.verified.get((k, half)) != key:
                problem = self._check_fit(data, fit)
                if problem:
                    return f"instance {k} half {half}: {problem}"
                self.verified[(k, half)] = key
            if i < self.quality_ops:
                self.rates[(k, half)] = discovery(fit.support, support_star)
        return None

    def _check_fit(self, data, fit) -> str | None:
        s = np.asarray(fit.support)
        if not _ascending_indices(s, self.T, data.p):
            return f"support is not {self.T} distinct ascending indices in [0, p)"
        off = np.ones(data.p, dtype=bool)
        off[s] = False
        if np.any(fit.beta_hat[off] != 0.0):
            return "beta_hat is nonzero off the support"
        if not isinstance(fit.termination, sg.Termination):
            return f"unknown termination {fit.termination!r}"
        public = sg.kkt_residual(sg.LOGISTIC, data, fit, self.T)
        if not (math.isfinite(fit.kkt_residual) and abs(public - fit.kkt_residual) <= 1e-9):
            return f"kkt_residual {fit.kkt_residual!r} disagrees with the public {public!r}"
        return None

    def quality(self) -> tuple[float, float]:
        return mean_rates(self.rates.values())


def _ascending_indices(s: np.ndarray, t: int, p: int) -> bool:
    return s.shape == (t,) and bool(np.all(np.diff(s) > 0)) and s[0] >= 0 and s[-1] < p


def _fit_key(fit) -> tuple:
    """Everything a check looks at, so an identical refit needs no recheck."""
    return (
        fit.beta_hat.tobytes(),
        np.asarray(fit.support).tobytes(),
        fit.intercept,
        fit.kkt_residual,
        fit.nll,
        fit.iters,
        fit.termination,
    )


class SimPath(Workload):
    """One C6 replication per op: run_replications(reps=1, seed=base+i).

    base is the workload seed times 10**6, so that consecutive workload seeds
    share no replication.
    """

    name = "sim-path"
    SIM = sg.SimConfig(n=400, p=500, k=6, rho=0.3, range_ratio=10.0, scheme=sg.SCHEME_AR1)
    quality_ops = 12
    traced_ops = 4

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed * 10**6
        self.path_cfg = sg.AgsdarConfig()
        self.rates: dict[int, tuple[float, float]] = {}

    def op(self, i: int, family):
        return sg.run_replications(self.SIM, self.path_cfg, reps=1, seed=self.seed + i)

    def check(self, i: int, report) -> str | None:
        if report.failures != 0:
            return f"replication {self.seed + i} failed"
        values = [getattr(report, f) for f in ("reerr", "acrp", "apdr", "afdr", "adr", "iters_avg")]
        if not all(math.isfinite(v) for v in values):
            return f"replication {self.seed + i} has a non-finite metric: {report}"
        if i < self.quality_ops:
            self.rates[i] = (report.apdr, report.afdr)
        return None

    def quality(self) -> tuple[float, float]:
        return mean_rates(self.rates.values())


class IngestCli(Workload):
    """sdar_glm.cli.main(["fit", ...]) on a LIBSVM file written in setup."""

    name = "ingest-cli"
    N, P, DENSITY = 2000, 20000, 0.01
    # The planted features are denser than the rest, as informative features
    # tend to be, so that a T=10 fit can find them at all.
    K, PLANTED_DENSITY = 10, 0.1
    T = 10
    quality_ops = 1
    traced_ops = 2

    def setup(self, seed: int, workdir: Path) -> None:
        self.data_path = str(workdir / "ingest.libsvm")
        self.out_path = str(workdir / "ingest.out")
        self.support_star = write_planted_libsvm(
            self.data_path, seed, self.N, self.P, self.DENSITY, self.K, self.PLANTED_DENSITY
        )
        self.argv = [
            "fit", "--family", "logistic", "--data", self.data_path,
            "--T", str(self.T), "--output", self.out_path,
        ]
        self.reference: bytes | None = None
        self.rates: list[tuple[float, float]] = []

    def op(self, i: int, family):
        return sg.cli.main(list(self.argv))

    def check(self, i: int, code) -> str | None:
        if code != 0:
            return f"exit code {code}"
        with open(self.out_path, "rb") as fh:
            out = fh.read()
        if self.reference is None:
            problem = self._check_output(out.decode("ascii"))
            if problem:
                return problem
            self.reference = out
        elif out != self.reference:
            return "output bytes differ from the first op's"
        return None

    def _check_output(self, text: str) -> str | None:
        fields = dict(line.split(": ", 1) for line in text.splitlines()[1:] if ": " in line)
        try:
            support = np.array([int(v) - 1 for v in fields["support_1based"].split()])
            term = sg.Termination(fields["termination"])
            kkt = float(fields["kkt_residual"])
        except (KeyError, ValueError) as exc:
            return f"unreadable fit output: {exc}"
        if not _ascending_indices(support, self.T, self.P):
            return f"support is not {self.T} distinct ascending indices in [0, p)"
        if not math.isfinite(kkt):
            return f"non-finite kkt_residual with termination {term.value}"
        self.rates = [discovery(support, self.support_star)]
        return None

    def quality(self) -> tuple[float, float]:
        return mean_rates(self.rates)

    def cleanup(self) -> None:
        for path in (self.data_path, self.out_path):
            if os.path.exists(path):
                os.remove(path)


def write_planted_libsvm(path, seed, n, p, density, k, planted_density) -> np.ndarray:
    """Write a sparse logistic design with a planted support; return that support.

    Entries are N(0, 1) rounded to three decimals (never 0) at random
    positions, and labels are +-1 drawn from a logistic model whose k nonzero
    coefficients (magnitude 2..4, random sign) sit on the planted columns.
    """
    rng = np.random.default_rng([seed, 7919])

    def entries(size):
        v = np.round(rng.standard_normal(size), 3)
        v[v == 0.0] = 0.001
        return v

    X = np.zeros((n, p))
    for i in range(n):
        cols = rng.choice(p, size=rng.binomial(p, density), replace=False)
        X[i, cols] = entries(cols.size)
    support = np.sort(rng.choice(p, size=k, replace=False))
    planted = rng.random((n, k)) < planted_density
    X[:, support] = np.where(planted, entries((n, k)), 0.0)
    beta = rng.uniform(2.0, 4.0, size=k) * rng.choice([-1.0, 1.0], size=k)
    prob = 1.0 / (1.0 + np.exp(-(X[:, support] @ beta)))
    y = np.where(rng.random(n) < prob, 1.0, -1.0)
    sg.write_libsvm(sg.Dataset(X, y), path)
    return support


WORKLOADS = {w.name: w for w in (FitWide, SimPath, IngestCli)}
