"""Shared instance builders for the test suite, the fixed probe set of the
invariant ledger, a counter of np.isfinite scans for the tests that pin how
often a design is checked, and the reference implementations that library
code is compared against: the exhaustive best-subset search and the
finite-difference gradient, the GSDAR map stepped one iterate at a time,
the per-token LIBSVM reader, the per-entry LIBSVM writer, the AR(1) design
recursion over separate draws, and the Newton-system solve through
scipy.linalg.solve.  None of them is fast; each is simple enough to audit
by eye.

All randomness flows through keyed Philox streams, so every instance is a
pure function of its seed: stream 0 feeds the design, 1 the coefficients,
2 the responses.  Probe problem i is drawn whole from the stream (0, i).
"""

import contextlib
import itertools
import math
from dataclasses import dataclass

import numpy as np
import pytest
from scipy import linalg as sla

import sdar_glm as sg
from sdar_glm.dataio import LibsvmParseError
from sdar_glm.families import (
    Dataset,
    GlmFamily,
    gradient,
    linear_predictor,
    negative_log_likelihood,
    weighted_gram,
)
from sdar_glm.rng import as_rng, make_rng
from sdar_glm.solver import SdarConfig, restricted_mle, top_t_support

_ORACLE_BUDGET = 10**6


def count_finite_scans(monkeypatch, counted) -> list:
    """Patch np.isfinite to record np.shape(x) of each call whose shape
    satisfies counted(shape); returns the list it appends to."""
    scans = []
    isfinite = np.isfinite

    def counting(x, *args, **kwargs):
        if counted(np.shape(x)):
            scans.append(np.shape(x))
        return isfinite(x, *args, **kwargs)

    monkeypatch.setattr(np, "isfinite", counting)
    return scans


def detectable_magnitude(n: int, p: int) -> float:
    """Coefficient scale 5 * sqrt(2 log(p) / n) at which supports separate
    cleanly from noise."""
    return 5.0 * math.sqrt(2.0 * math.log(p) / n)


def logistic_instance(seed: int, n: int, p: int, k: int):
    """Bernoulli responses on an i.i.d. Gaussian design with a strong,
    randomly signed, size-k signal.  Returns (data, beta_star, support)."""
    X = make_rng(seed, 0).standard_normal((n, p))
    m1 = detectable_magnitude(n, p)
    beta, support = sg.gen_coefficients(p, k, m1, 2.0 * m1, make_rng(seed, 1))
    y = sg.gen_bernoulli_responses(X, beta, make_rng(seed, 2))
    return sg.Dataset(X, y), beta, support


def gaussian_instance(seed: int, n: int, p: int, k: int, noise: float = 1.0):
    """Unit-noise linear responses on an i.i.d. Gaussian design with a
    strong, randomly signed, size-k signal.  Returns (data, beta_star,
    support)."""
    X = make_rng(seed, 0).standard_normal((n, p))
    m1 = detectable_magnitude(n, p)
    beta, support = sg.gen_coefficients(p, k, m1, 2.0 * m1, make_rng(seed, 1))
    y = X @ beta + noise * make_rng(seed, 2).standard_normal(n)
    return sg.Dataset(X, y), beta, support


PROBE_SIZE = 3000


def probe_problem(i: int):
    """Problem i of the fixed probe set that the invariant ledger fits, drawn
    from the stream (0, i): an i.i.d. Gaussian n x p design with n in [5, 39]
    and p in [2, 29]; the logistic family with probability 0.7, its labels
    then separable (the sign of x . beta) with probability 0.3; one column
    copied onto another with probability 0.3; an intercept with probability
    0.4; K planted coefficients of magnitude in [0.5, 3] with random signs,
    K in [1, p]; and a sparsity level T in [1, min(p, n - intercept)].
    Returns (family, data, cfg)."""
    rng = make_rng(0, i)
    n, p = int(rng.integers(5, 40)), int(rng.integers(2, 30))
    family = sg.LOGISTIC if rng.random() < 0.7 else sg.GAUSSIAN
    X = rng.standard_normal((n, p))
    if rng.random() < 0.3:
        source, copy = rng.choice(p, 2, replace=False)
        X[:, copy] = X[:, source]
    with_intercept = bool(rng.random() < 0.4)
    k = int(rng.integers(1, p + 1))
    beta = np.zeros(p)
    beta[rng.choice(p, k, replace=False)] = rng.choice([-1.0, 1.0], k) * rng.uniform(0.5, 3.0, k)
    if family is sg.GAUSSIAN:
        y = X @ beta + rng.standard_normal(n)
    elif rng.random() < 0.3:
        y = (X @ beta > 0.0).astype(float)
    else:
        y = sg.gen_bernoulli_responses(X, beta, rng)
    t = int(rng.integers(1, min(p, n - with_intercept) + 1))
    return family, Dataset(X, y), SdarConfig(sparsity_t=t, with_intercept=with_intercept)


def orthogonal_design(seed: int, n: int, p: int) -> np.ndarray:
    """n x p design with exactly orthogonal columns of length sqrt(n)."""
    if p > n:
        raise ValueError("orthogonal columns need p <= n")
    raw = make_rng(seed, 0).standard_normal((n, p))
    q, _ = np.linalg.qr(raw)
    return q * math.sqrt(n)


@dataclass(frozen=True)
class OracleResult:
    support: np.ndarray
    beta: np.ndarray
    nll: float


def best_subset_exhaustive(
    family: GlmFamily,
    data: Dataset,
    t: int,
    exact_size: bool = True,
) -> OracleResult:
    """Globally best support by enumeration.

    Tries every support of size t (or of size <= t, including the empty
    model, when exact_size is False), solving each restricted problem to
    gradient tolerance 1e-10, and returns the smallest NLL.  Ties go to the
    lexicographically smallest support (the enumeration order).  Refuses
    instances with more than 10**6 candidate supports.
    """
    p = data.p
    if not 0 <= t <= p:
        raise ValueError(f"t must lie in [0, {p}], got {t}")
    sizes = [t] if exact_size else list(range(t + 1))
    n_candidates = sum(math.comb(p, s) for s in sizes)
    if n_candidates > _ORACLE_BUDGET:
        raise ValueError(
            f"{n_candidates} candidate supports exceed the enumeration budget {_ORACLE_BUDGET}"
        )
    cfg = SdarConfig(sparsity_t=max(t, 1))

    best: OracleResult | None = None
    with oracle_precision():
        for size in sizes:
            for supp in itertools.combinations(range(p), size):
                beta = np.zeros(p)
                if size:
                    idx = np.asarray(supp, dtype=int)
                    beta[idx] = restricted_mle(family, data, idx, np.zeros(size), cfg)
                nll = negative_log_likelihood(family, data, beta)
                if best is None or nll < best.nll:
                    best = OracleResult(np.asarray(supp, dtype=int), beta, nll)
    return best


@contextlib.contextmanager
def oracle_precision():
    """Restricted solves to gradient tolerance 1e-10 within 200 Newton
    steps, the oracle's precision, while the block runs."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SdarConfig, "newton_grad_tol", 1e-10)
        mp.setattr(SdarConfig, "newton_max_iters", 200)
        yield


def finite_difference_gradient(
    family: GlmFamily, data: Dataset, beta: np.ndarray, h: float = 1e-6
) -> np.ndarray:
    """Central-difference gradient of the NLL, one coordinate at a time."""
    beta = np.asarray(beta, dtype=float)
    out = np.zeros_like(beta)
    for j in range(beta.size):
        up = beta.copy()
        down = beta.copy()
        up[j] += h
        down[j] -= h
        out[j] = (
            negative_log_likelihood(family, data, up)
            - negative_log_likelihood(family, data, down)
        ) / (2.0 * h)
    return out


def restricted_hessian(
    family: GlmFamily, data: Dataset, beta: np.ndarray, active: np.ndarray
) -> np.ndarray:
    """The Hessian of L on the columns `active` at beta, built as
    restricted_mle builds it: weighted_gram(X_A, c''(X beta), n)."""
    return weighted_gram(data.X[:, active], family.variance(linear_predictor(data, beta)), data.n)


def sdar_iterates(family: GlmFamily, data: Dataset, cfg: SdarConfig):
    """The GSDAR map step by step from beta = 0, without an intercept or any
    stopping rule: yields (beta, dual, active) after each of the
    cfg.max_outer_iters restricted solves, where dual = -grad L is set to 0
    on active, as the paper writes the iterate."""
    beta = np.zeros(data.p)
    dual = -gradient(family, data, beta)
    for _ in range(cfg.max_outer_iters):
        active = top_t_support(beta + cfg.step_size_tau * dual, cfg.sparsity_t)
        coef = restricted_mle(family, data, active, beta[active], cfg)
        beta = np.zeros(data.p)
        beta[active] = coef
        dual = -gradient(family, data, beta)
        dual[active] = 0.0
        yield beta, dual, active


def ar1_design_with_separate_draws(n: int, p: int, rho: float, seed) -> np.ndarray:
    """The AR(1) design as gen_design_ar1 computed it when it kept the draws
    apart from X: z_1 = e_1, z_j = rho * z_{j-1} + sqrt(1 - rho^2) * e_j."""
    eps = as_rng(seed).standard_normal((n, p))
    X = np.empty((n, p))
    X[:, 0] = eps[:, 0]
    scale = math.sqrt(1.0 - rho * rho)
    for j in range(1, p):
        X[:, j] = rho * X[:, j - 1] + scale * eps[:, j]
    return X


def newton_solve_reference(H: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The restricted Newton system solve as the solver made it before it
    called LAPACK's Cholesky routines directly."""
    return sla.solve(H, rhs, assume_a="pos")


def read_libsvm_per_token(path: str, n_features: int | None = None) -> Dataset:
    """The per-token LIBSVM reader that the bulk read_libsvm replaced, kept
    verbatim as the reference it is compared against.

    Parse a LIBSVM text file into a dense Dataset.

    The number of columns is the largest feature index seen, or n_features
    when given (which must cover every observed index).  Labels are kept
    verbatim; map_labels_to_binary converts them for logistic fits.
    """
    labels: list[float] = []
    rows: list[list[tuple[int, float]]] = []
    max_idx = 0
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            try:
                label = float(parts[0])
            except ValueError:
                raise LibsvmParseError(lineno, f"bad label {parts[0]!r}") from None
            feats: list[tuple[int, float]] = []
            prev = 0
            for tok in parts[1:]:
                idx_s, sep, val_s = tok.partition(":")
                if not sep or not val_s:
                    raise LibsvmParseError(lineno, f"bad feature token {tok!r}")
                try:
                    idx = int(idx_s)
                except ValueError:
                    raise LibsvmParseError(lineno, f"bad feature index {idx_s!r}") from None
                try:
                    val = float(val_s)
                except ValueError:
                    raise LibsvmParseError(lineno, f"bad feature value {val_s!r}") from None
                if idx < 1:
                    raise LibsvmParseError(lineno, f"feature index {idx} is not positive")
                if idx <= prev:
                    raise LibsvmParseError(
                        lineno, f"feature indices must be strictly increasing, got {idx} after {prev}"
                    )
                if not np.isfinite(val):
                    raise LibsvmParseError(lineno, f"non-finite feature value {val_s!r}")
                feats.append((idx, val))
                prev = idx
            labels.append(label)
            rows.append(feats)
            max_idx = max(max_idx, prev)
    if not labels:
        raise LibsvmParseError(0, "file contains no data lines")
    p = max_idx if n_features is None else int(n_features)
    if p < max_idx:
        raise LibsvmParseError(0, f"n_features={p} is below the largest observed index {max_idx}")
    if p < 1:
        raise LibsvmParseError(0, "no features found")
    X = np.zeros((len(labels), p))
    for i, feats in enumerate(rows):
        for idx, val in feats:
            X[i, idx - 1] = val
    return Dataset(X, np.asarray(labels, dtype=float))


def write_libsvm_per_entry(data: Dataset, path: str) -> None:
    """The per-entry LIBSVM writer that the bulk write_libsvm replaced, kept
    verbatim as the byte reference it is compared against: one repr a
    nonzero value.

    Write in LIBSVM text form; zeros are omitted, values round-trip exactly.
    """
    flat = np.flatnonzero(data.X != 0.0)  # several times faster than np.nonzero(data.X)
    rows, cols = np.divmod(flat, data.p)
    tokens = list(map("{}:{!r}".format, (cols + 1).tolist(), data.X.ravel()[flat].tolist()))
    ends = np.cumsum(np.bincount(rows, minlength=data.n)).tolist()
    start = 0
    with open(path, "w", encoding="ascii") as fh:
        for label, end in zip(data.y.tolist(), ends):
            fh.write(" ".join([repr(label), *tokens[start:end]]) + "\n")
            start = end
