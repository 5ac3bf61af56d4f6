"""Exponential-family losses: values, gradients, and restricted Hessians.

Everything the solver needs from a GLM is the cumulant c(theta) of the
response family together with its first two derivatives.  The negative
log-likelihood of a coefficient vector beta on data (X, y) is

    L(beta) = -(1/n) * sum_i [ y_i * theta_i - c(theta_i) + d(y_i) ],
    theta_i = x_i . beta,

which is convex in beta because c is convex.  Two families are provided:
logistic (Bernoulli, d = 0) and Gaussian with unit dispersion
(d(y) = -y^2/2, which makes L equal to ||y - X beta||^2 / (2n)).  L is
computed from theta in one place, the mean `GlmFamily.nll` of each family's
per-observation `nll_terms`, in a form that keeps every term >= 0 exact in
floating point; so is its gradient, in `gradient_at_theta`, and its Hessian
on a set of columns, in `weighted_gram`.

Each value is checked by the function that computes it, which raises
NumericOverflowError naming the row where it overflows, under np.errstate so
that no numpy warning comes first: theta in `linear_predictor` (or
`require_finite`), L in `negative_log_likelihood`, grad L in `gradient`.
`GlmFamily.nll` returns +inf, which a line search rejects.  For the same
reason `solver.restricted_mle` runs under np.errstate, where each overflow
raises NumericOverflowError or SingularSystemError or is an NLL of +inf, and
so does `dataio.standardize_columns`, which raises ValueError for a column
scale that overflows.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass

import numpy as np
from scipy.special import expit

__all__ = [
    "NumericOverflowError",
    "GlmFamily",
    "Logistic",
    "Gaussian",
    "LOGISTIC",
    "GAUSSIAN",
    "get_family",
    "Dataset",
    "linear_predictor",
    "negative_log_likelihood",
    "gradient",
]


class NumericOverflowError(ArithmeticError):
    """A linear predictor x_i . beta, or the NLL summed up to observation i,
    evaluated to a non-finite value."""

    def __init__(self, row: int, quantity: str = "linear predictor"):
        self.row = int(row)
        super().__init__(f"{quantity} overflowed at observation {self.row}")


class GlmFamily:
    """Exponential family with log-density y*theta - c(theta) + d(y), whose
    NLL each family states once, per observation, in nll_terms.  binary says
    the responses are {0, 1} class labels, which the CLI maps LIBSVM labels
    to and scores accuracy on; separable labels drive the coefficients to
    infinity, so the restricted solve caps them at SdarConfig.coef_cap."""

    name: str = ""
    binary: bool = False

    def cumulant(self, theta: np.ndarray) -> np.ndarray:
        """c(theta)."""
        raise NotImplementedError

    def mean(self, theta: np.ndarray) -> np.ndarray:
        """c'(theta), the conditional mean of y."""
        raise NotImplementedError

    def variance(self, theta: np.ndarray) -> np.ndarray:
        """c''(theta), the conditional variance of y."""
        raise NotImplementedError

    def nll_terms(self, y: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """-(y_i theta_i - c(theta_i) + d(y_i)) for each observation i, each >= 0."""
        raise NotImplementedError

    def nll(self, y: np.ndarray, theta: np.ndarray) -> float:
        """The mean of nll_terms: L at the linear predictors theta, +inf on overflow."""
        # sum / n: the bits of np.mean, without its wrapper
        return float(self.nll_terms(y, theta).sum() / theta.size)

    def check_response(self, y: np.ndarray) -> None:
        """Raise ValueError when y is not a valid response for this family."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class Logistic(GlmFamily):
    """Bernoulli responses y in {0, 1}; c(theta) = log(1 + exp(theta)).

    The cumulant is evaluated as max(theta, 0) + log1p(exp(-|theta|)) and
    the mean through the numerically stable sigmoid, so both stay finite
    for any finite theta (the naive form overflows near theta = 710).
    """

    name = "logistic"
    binary = True

    def cumulant(self, theta):
        theta = np.asarray(theta, dtype=float)
        return np.maximum(theta, 0.0) + np.log1p(np.exp(-np.abs(theta)))

    def mean(self, theta):
        return expit(np.asarray(theta, dtype=float))

    def variance(self, theta):
        mu = expit(np.asarray(theta, dtype=float))
        return mu * (1.0 - mu)

    def nll_terms(self, y, theta):
        return self.cumulant(theta) - y * theta

    def check_response(self, y):
        y = np.asarray(y)
        bad = ~((y == 0.0) | (y == 1.0))
        if np.any(bad):
            offenders = np.unique(y[bad])
            raise ValueError(
                f"logistic responses must lie in {{0, 1}}; found {offenders[:5].tolist()}"
            )


class Gaussian(GlmFamily):
    """Gaussian responses with unit dispersion; c(theta) = theta^2 / 2."""

    name = "gaussian"

    def cumulant(self, theta):
        theta = np.asarray(theta, dtype=float)
        return 0.5 * theta * theta

    def mean(self, theta):
        return np.asarray(theta, dtype=float)

    def variance(self, theta):
        return np.ones_like(np.asarray(theta, dtype=float))

    def nll_terms(self, y, theta):
        # the residual form: y theta - theta^2/2 - y^2/2 rounds below 0 on exact fits
        r = y - theta
        return 0.5 * r * r


LOGISTIC = Logistic()
GAUSSIAN = Gaussian()

_FAMILIES = {f.name: f for f in (LOGISTIC, GAUSSIAN)}


def get_family(name: str) -> GlmFamily:
    """Look up a family by name ("logistic" or "gaussian")."""
    try:
        return _FAMILIES[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown family {name!r}; choose from {sorted(_FAMILIES)}"
        ) from None


@dataclass(frozen=True, eq=False)
class Dataset:
    """Dense design matrix (n observations by p predictors) plus responses.

    All entries must be finite.  n = 0 is allowed so that an empty test
    split is representable; solvers reject empty data themselves.
    _x_checked is private to callers whose X is known finite: read_libsvm
    checks each entry as it parses; pad_features, train_test_split, the
    CLI's unstandardized design and the solver's intercept block build X
    from a Dataset's X (plus zeros or ones); generate_instance draws only
    the designs that SimConfig admits as finite by construction.  It skips
    the scan of X, nothing else.

    X and y are read-only views, and the arrays they were built from must
    not change afterwards: the finiteness check is made once, at
    construction, and the solver keeps each family's null-model dual
    -grad L(0) in the private dict _null_duals, computed by the first fit
    from zero and reused by every later one.
    """

    X: np.ndarray
    y: np.ndarray
    _x_checked: InitVar[bool] = False

    def __post_init__(self, _x_checked):
        X = np.ascontiguousarray(self.X, dtype=float)
        y = np.asarray(self.y, dtype=float).ravel()
        if X.ndim != 2:
            raise ValueError(f"X must be 2-d, got shape {np.shape(self.X)}")
        if X.shape[1] < 1:
            raise ValueError("X must have at least one column")
        if y.shape[0] != X.shape[0]:
            raise ValueError(f"X has {X.shape[0]} rows but y has {y.shape[0]} entries")
        if not _x_checked and not np.isfinite(X).all():
            raise ValueError("X contains non-finite entries")
        if not np.all(np.isfinite(y)):
            raise ValueError("y contains non-finite entries")
        X, y = X.view(), y.view()  # read-only views; the caller's arrays stay as they were
        X.flags.writeable = y.flags.writeable = False
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "_null_duals", {})  # family -> -grad L(0), see solver

    def __reduce__(self):
        # a copy or an unpickled Dataset is built anew, from finite X: read-only, nothing kept
        return type(self), (self.X, self.y, True)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]


def require_finite(theta: np.ndarray) -> np.ndarray:
    """Return theta, or raise NumericOverflowError naming its first non-finite entry."""
    if not np.isfinite(theta).all():
        raise NumericOverflowError(int(np.flatnonzero(~np.isfinite(theta))[0]))
    return theta


def linear_predictor(data: Dataset, beta: np.ndarray, intercept: float = 0.0) -> np.ndarray:
    """theta = X @ beta + intercept, verified finite entrywise.

    Costs O(n * nnz(beta)): when beta has at most n nonzeros, which every
    sparse iterate of the solver does, only those columns of X are read;
    a denser beta falls back to the full product.  The intercept is added
    to theta, so no ones column is ever appended to X.

    Raises NumericOverflowError naming the first offending observation when
    the product is not finite (huge inputs, or non-finite beta).
    """
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (data.p,):
        raise ValueError(f"beta must have shape ({data.p},), got {beta.shape}")
    nz = np.flatnonzero(beta)
    with np.errstate(over="ignore", invalid="ignore"):
        theta = data.X[:, nz] @ beta[nz] if nz.size <= data.n else data.X @ beta
        theta += intercept
    return require_finite(theta)


def _overflow_row(terms: np.ndarray) -> int:
    """The first row whose running sum of terms is not finite (it stays so
    once it is), or the last row when only numpy's pairwise sum is not."""
    return min(np.count_nonzero(np.isfinite(np.cumsum(terms))), terms.size - 1)


def negative_log_likelihood(
    family: GlmFamily, data: Dataset, beta: np.ndarray, intercept: float = 0.0
) -> float:
    """L(beta) = -(1/n) sum_i [y_i theta_i - c(theta_i) + d(y_i)], checked finite."""
    theta = linear_predictor(data, beta, intercept)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
        nll = family.nll(data.y, theta)
        if not np.isfinite(nll):
            row = _overflow_row(family.nll_terms(data.y, theta))
            raise NumericOverflowError(row, "negative log-likelihood")
    return nll


def gradient(
    family: GlmFamily, data: Dataset, beta: np.ndarray, intercept: float = 0.0
) -> np.ndarray:
    """grad L(beta) = (1/n) X^T (c'(X beta + intercept) - y), with respect to beta.

    The product with X^T is the one pass over all of X.  A coordinate j that
    is not finite raises NumericOverflowError at the row where the running
    sum of x_ij (c'(theta_i) - y_i) overflows, for the first such j.
    """
    theta = linear_predictor(data, beta, intercept)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
        g = gradient_at_theta(family, data.X, data.y, theta)
        if not np.isfinite(g).all():
            j = int(np.flatnonzero(~np.isfinite(g))[0])
            terms = data.X[:, j] * (family.mean(theta) - data.y)
            raise NumericOverflowError(_overflow_row(terms), f"gradient at coordinate {j}")
    return g


def gradient_at_theta(
    family: GlmFamily, X: np.ndarray, y: np.ndarray, theta: np.ndarray
) -> np.ndarray:
    """(1/n) X^T (c'(theta) - y): the gradient of L with respect to the
    coefficients of the columns X, at the linear predictors theta."""
    return X.T @ (family.mean(theta) - y) / X.shape[0]


def weighted_gram(Xa: np.ndarray, w: np.ndarray, n: int) -> np.ndarray:
    """(1/n) Xa^T diag(w) Xa; with w = c''(theta), the Hessian of L on the columns Xa.

    Built as M^T M with M = diag(sqrt(w)) Xa, which numpy's ?syrk call makes
    exactly symmetric (it copies one triangle into the other) and positive
    semidefinite.  The restricted Newton step of the solver uses it.
    """
    M = Xa * np.sqrt(w)[:, None]
    return M.T @ M / n
