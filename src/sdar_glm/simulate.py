"""Synthetic logistic designs, sparse coefficient draws, and recovery metrics.

Two design schemes:

* "banded": draw an n x p standard normal matrix, normalize each column to
  length sqrt(n), then mix neighbors, x_j = xb_j + rho * (xb_{j+1} + xb_{j-1})
  for interior columns, which induces a banded correlation (adjacent columns
  correlate at roughly 2*rho / (1 + 2*rho^2)).  Coefficients are uniform on
  (m1, m2) with m1 = 5 * sqrt(2 * log(p) / n), m2 = 100 * m1, and carry
  independent random signs.
* "ar1": rows are N(0, Sigma) with Sigma_ij = rho^|i-j|, realized by the
  recursion z_1 = e_1, z_j = rho * z_{j-1} + sqrt(1 - rho^2) * e_j.
  Coefficients are uniform on (1, R), all positive.

Replications split randomness by key, never by sequence: replication r uses
streams (seed, r, 0..3) for design, coefficients, responses, and splitting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .dataio import train_test_split
from .families import Dataset, LOGISTIC, NumericOverflowError, linear_predictor
from .path import AgsdarConfig, agsdar_fit
from .rng import as_rng, make_rng
from .solver import FitResult, SdarConfig, SingularSystemError, gsdar_fit

__all__ = [
    "SCHEME_BANDED",
    "SCHEME_AR1",
    "SimConfig",
    "MetricReport",
    "gen_design_banded",
    "gen_design_ar1",
    "gen_coefficients",
    "gen_bernoulli_responses",
    "generate_instance",
    "metric_reerr",
    "metric_acrp",
    "metric_discovery",
    "run_replications",
]

SCHEME_BANDED = "banded"
SCHEME_AR1 = "ar1"


@dataclass(frozen=True)
class SimConfig:
    """One simulation cell: design scheme, dimensions, and signal strength.

    range_ratio is the upper coefficient bound R for the "ar1" scheme and is
    ignored by "banded", whose bounds are fixed by (n, p).
    """

    n: int
    p: int
    k: int
    rho: float = 0.0
    range_ratio: float = 3.0
    scheme: str = SCHEME_BANDED
    seed: int = 0

    def __post_init__(self):
        if self.scheme not in (SCHEME_BANDED, SCHEME_AR1):
            raise ValueError(f"scheme must be '{SCHEME_BANDED}' or '{SCHEME_AR1}'")
        if self.n < 1 or self.p < 1:
            raise ValueError("n and p must be positive")
        if not 0 <= self.k <= min(self.n, self.p):
            raise ValueError(f"k must lie in [0, min(n, p)], got {self.k}")
        if self.scheme == SCHEME_BANDED:
            if self.p < 3:
                raise ValueError("the banded scheme needs p >= 3")
            if self.rho < 0.0:
                raise ValueError("rho must be nonnegative")
        else:
            if not 0.0 <= self.rho < 1.0:
                raise ValueError("the ar1 scheme needs rho in [0, 1)")
            if self.range_ratio <= 1.0:
                raise ValueError("range_ratio must exceed 1")

    def coefficient_bounds(self) -> tuple[float, float]:
        if self.scheme == SCHEME_BANDED:
            m1 = 5.0 * math.sqrt(2.0 * math.log(self.p) / self.n)
            return m1, 100.0 * m1
        return 1.0, float(self.range_ratio)

    @property
    def signed_coefficients(self) -> bool:
        return self.scheme == SCHEME_BANDED


@dataclass(frozen=True)
class MetricReport:
    """Replication averages; NaN when every replication failed."""

    reerr: float
    acrp: float
    apdr: float
    afdr: float
    adr: float
    iters_avg: float
    failures: int = 0


def gen_design_banded(
    n: int, p: int, rho: float, seed: int | np.random.Generator
) -> np.ndarray:
    """Column-normalized Gaussian design with neighbor mixing (see module doc)."""
    if p < 3:
        raise ValueError("banded design needs p >= 3")
    rng = as_rng(seed)
    base = rng.standard_normal((n, p))
    norms = np.linalg.norm(base, axis=0)
    if np.any(norms == 0.0):
        raise ValueError("degenerate zero column in the Gaussian draw")
    base *= math.sqrt(n) / norms
    X = base.copy()
    X[:, 1 : p - 1] += rho * (base[:, 2:] + base[:, : p - 2])
    return X


def gen_design_ar1(
    n: int, p: int, rho: float, seed: int | np.random.Generator
) -> np.ndarray:
    """Rows N(0, Sigma), Sigma_ij = rho^|i-j|, by the AR(1) recursion."""
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"rho must lie in [0, 1), got {rho}")
    rng = as_rng(seed)
    eps = rng.standard_normal((n, p))
    X = np.empty((n, p))
    X[:, 0] = eps[:, 0]
    scale = math.sqrt(1.0 - rho * rho)
    for j in range(1, p):
        X[:, j] = rho * X[:, j - 1] + scale * eps[:, j]
    return X


def gen_coefficients(
    p: int,
    k: int,
    m1: float,
    m2: float,
    seed: int | np.random.Generator,
    random_signs: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Sparse coefficient vector: k magnitudes uniform on (m1, m2) at a
    uniformly random size-k support.  Returns (beta, support ascending)."""
    if k == 0:
        return np.zeros(p), np.empty(0, dtype=int)
    if not 0.0 < m1 < m2:
        raise ValueError(f"need 0 < m1 < m2, got ({m1}, {m2})")
    if not 1 <= k <= p:
        raise ValueError(f"k must lie in [0, {p}], got {k}")
    rng = as_rng(seed)
    support = np.sort(rng.choice(p, size=k, replace=False))
    values = rng.uniform(m1, m2, size=k)
    if random_signs:
        values *= rng.choice(np.array([-1.0, 1.0]), size=k)
    beta = np.zeros(p)
    beta[support] = values
    return beta, support


def gen_bernoulli_responses(
    X: np.ndarray, beta_star: np.ndarray, seed: int | np.random.Generator
) -> np.ndarray:
    """y_i ~ Bernoulli(sigmoid(x_i . beta*)), as floats in {0, 1}."""
    rng = as_rng(seed)
    probs = expit(X @ np.asarray(beta_star, dtype=float))
    return (rng.random(X.shape[0]) < probs).astype(float)


def generate_instance(
    cfg: SimConfig, rep: int = 0, seed: int | None = None
) -> tuple[Dataset, np.ndarray, np.ndarray]:
    """Draw (dataset, beta*, support*) for one replication.

    Streams (seed, rep, 0/1/2) feed the design, the coefficients, and the
    responses, so changing any one of them never shifts the others.
    """
    base = cfg.seed if seed is None else seed
    if cfg.scheme == SCHEME_BANDED:
        X = gen_design_banded(cfg.n, cfg.p, cfg.rho, make_rng(base, rep, 0))
    else:
        X = gen_design_ar1(cfg.n, cfg.p, cfg.rho, make_rng(base, rep, 0))
    m1, m2 = cfg.coefficient_bounds()
    beta_star, support_star = gen_coefficients(
        cfg.p, cfg.k, m1, m2, make_rng(base, rep, 1), random_signs=cfg.signed_coefficients
    )
    y = gen_bernoulli_responses(X, beta_star, make_rng(base, rep, 2))
    return Dataset(X, y), beta_star, support_star


def metric_reerr(beta_hat: np.ndarray, beta_star: np.ndarray) -> float:
    """Relative l2 error ||beta_hat - beta*|| / ||beta*||."""
    beta_hat = np.asarray(beta_hat, dtype=float)
    beta_star = np.asarray(beta_star, dtype=float)
    denom = float(np.linalg.norm(beta_star))
    if denom == 0.0:
        raise ValueError("beta_star must be nonzero")
    return float(np.linalg.norm(beta_hat - beta_star)) / denom


def metric_acrp(y_pred: np.ndarray, y_true: np.ndarray) -> float:
    """Fraction of matching labels."""
    y_pred = np.asarray(y_pred).ravel()
    y_true = np.asarray(y_true).ravel()
    if y_pred.shape != y_true.shape or y_pred.size == 0:
        raise ValueError("prediction and truth must be equal-length, nonempty")
    return float(np.mean(y_pred == y_true))


def metric_discovery(
    support_hat: np.ndarray, support_star: np.ndarray
) -> tuple[float, float, float]:
    """(apdr, afdr, adr): true-positive rate, false-discovery rate, and their
    combination apdr + (1 - afdr).  An empty estimated support has afdr 0;
    an empty true support counts as fully recovered."""
    hat = set(int(i) for i in np.asarray(support_hat).ravel())
    star = set(int(i) for i in np.asarray(support_star).ravel())
    apdr = len(hat & star) / len(star) if star else 1.0
    afdr = len(hat - star) / len(hat) if hat else 0.0
    return apdr, afdr, apdr + 1.0 - afdr


def _predict_labels(fit: FitResult, data: Dataset) -> np.ndarray:
    return (linear_predictor(data, fit.beta_hat, fit.intercept) >= 0.0).astype(float)


def run_replications(
    sim: SimConfig,
    solver: SdarConfig | AgsdarConfig,
    reps: int,
    seed: int | None = None,
    train_fraction: float | None = None,
) -> MetricReport:
    """Average the metrics over `reps` independent replications.

    With train_fraction set, each replication fits on the train part and
    scores accuracy on the held-out part; otherwise accuracy is in-sample.
    Solver failures are counted, not fatal; averages are over successes.
    """
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    base = sim.seed if seed is None else seed
    totals = np.zeros(6)
    failures = 0
    for rep in range(reps):
        data, beta_star, support_star = generate_instance(sim, rep, base)
        if train_fraction is not None:
            train, test = train_test_split(
                data, train_fraction=train_fraction, seed=make_rng(base, rep, 3)
            )
        else:
            train, test = data, None
        try:
            if isinstance(solver, AgsdarConfig):
                fit = agsdar_fit(LOGISTIC, train, solver).selected_fit
            else:
                fit = gsdar_fit(LOGISTIC, train, solver)
        except (SingularSystemError, NumericOverflowError):
            failures += 1
            continue
        score_on = test if (test is not None and test.n > 0) else train
        apdr, afdr, adr = metric_discovery(fit.support, support_star)
        totals += (
            metric_reerr(fit.beta_hat, beta_star),
            metric_acrp(_predict_labels(fit, score_on), score_on.y),
            apdr,
            afdr,
            adr,
            float(fit.iters),
        )
    successes = reps - failures
    means = totals / successes if successes else np.full(6, np.nan)
    return MetricReport(
        reerr=float(means[0]),
        acrp=float(means[1]),
        apdr=float(means[2]),
        afdr=float(means[3]),
        adr=float(means[4]),
        iters_avg=float(means[5]),
        failures=failures,
    )
