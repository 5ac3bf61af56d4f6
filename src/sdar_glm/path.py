"""Sparsity-level path with information-criterion selection.

The solver needs the cardinality T up front.  When T is unknown, fit a path
T = theta, 2*theta, ... up to a budget Q (default floor(n / log n)), each
point warm-started from the previous one, and pick the fit minimizing a
high-dimensional BIC

    HBIC(fit) = 2 n L(beta_hat) + |support| * log(log n) * log p,

where |support| is the length of the fit's support: T at a fitted level T,
even when a coefficient on it is zero.  The T = 0 point (beta = 0) is added
analytically so the null model always competes.  Ties go to the smaller T.

Both families have L >= 0, so the penalty alone bounds the HBIC of level T
from below by T * log(log n) * log p, which grows with T.  The sweep stops
before the first level whose bound reaches the smallest HBIC so far: no
later level can beat that minimum, and a tie goes to the earlier level, so
the selection is the one the full sweep makes.  PathResult.skipped lists
the levels ruled out; AgsdarConfig(full_path=True) fits them anyway.

A warm-started level starts from the previous fit's coefficients and from
its dual, -grad L at those coefficients, which that fit computed at its
last iterate; so each level after the first saves one pass over X.  A level
that starts from zero (the first, or every level when warm_start is False)
starts from -grad L(0), which the Dataset keeps per family once a fit has
computed it; so a path makes one initial pass over X at most, warm or cold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .families import Dataset, GlmFamily, negative_log_likelihood
from .solver import FIT_FAILURES, FitResult, SdarConfig, Termination, gsdar_fit

__all__ = ["AgsdarConfig", "PathPoint", "PathResult", "hbic", "agsdar_fit"]


@dataclass(frozen=True)
class AgsdarConfig:
    """Path controls.

    increment_theta is the step between consecutive sparsity levels.
    max_support_q caps the largest level; None means floor(n / log n),
    and any cap is clamped to min(n - 1, p).  The optional early-stop
    thresholds end the path once the fitted NLL falls below nll_below or
    the sup-norm change between consecutive coefficient vectors falls
    below change_below.  Independently of both, the path stops once the
    HBIC lower bound of the next level reaches the smallest HBIC so far,
    which never changes the selection (see the module docstring);
    full_path = True fits every level up to the cap instead, for the whole
    HBIC curve.  warm_start = False refits every level from zero.
    """

    increment_theta: int = 1
    max_support_q: int | None = None
    nll_below: float | None = None
    change_below: float | None = None
    warm_start: bool = True
    full_path: bool = False
    inner: SdarConfig = SdarConfig(sparsity_t=1)  # sparsity_t is overridden per level

    def __post_init__(self):
        if self.increment_theta < 1:
            raise ValueError(f"increment_theta must be >= 1, got {self.increment_theta}")
        if self.max_support_q is not None and self.max_support_q < 1:
            raise ValueError(f"max_support_q must be >= 1, got {self.max_support_q}")
        if self.nll_below is not None and not self.nll_below >= 0.0:
            raise ValueError("nll_below must be nonnegative")
        if self.change_below is not None and not self.change_below >= 0.0:
            raise ValueError("change_below must be nonnegative")


@dataclass(frozen=True)
class PathPoint:
    t: int
    fit: FitResult
    hbic: float


@dataclass(frozen=True)
class PathResult:
    fits: tuple[PathPoint, ...]
    selected_t: int
    selected_fit: FitResult
    failures: tuple[tuple[int, str], ...] = ()
    skipped: tuple[int, ...] = ()  # levels the HBIC bound ruled out, never fitted


def hbic(fit: FitResult, n: int, p: int) -> float:
    """2 n L + |support| log(log n) log p; needs n >= 3 so the penalty is positive.

    |support| is len(fit.support), not the count of nonzero coefficients.
    """
    if n < 3:
        raise ValueError(f"hbic needs n >= 3, got {n}")
    return 2.0 * n * fit.nll + _penalty(fit.support.size, n, p)


def _penalty(support_size: int, n: int, p: int) -> float:
    return support_size * math.log(math.log(n)) * math.log(p)


def _null_fit(family: GlmFamily, data: Dataset) -> FitResult:
    beta = np.zeros(data.p)
    return FitResult(
        beta_hat=beta,
        support=np.empty(0, dtype=int),
        nll=negative_log_likelihood(family, data, beta),
        kkt_residual=0.0,
        iters=0,
        termination=Termination.SUPPORT_STATIONARY,
    )


def agsdar_fit(family: GlmFamily, data: Dataset, cfg: AgsdarConfig) -> PathResult:
    """Fit the sparsity path and select the HBIC minimizer.

    A level whose solve fails is recorded in `failures` and skipped; the
    next level warm-starts from the last success.  A null model whose NLL
    overflows fails the whole path with NumericOverflowError.  Unless cfg.full_path,
    the sweep ends before the first level T whose penalty alone is at
    least the smallest HBIC so far, and T and the levels after it up to
    the cap are listed in `skipped`.
    """
    n, p = data.n, data.p
    if n < 3:
        raise ValueError(f"path selection needs n >= 3, got {n}")
    q = cfg.max_support_q if cfg.max_support_q is not None else int(n / math.log(n))
    q = min(q, n - 1, p)

    null = _null_fit(family, data)
    points = [PathPoint(0, null, hbic(null, n, p))]
    failures: list[tuple[int, str]] = []
    skipped: tuple[int, ...] = ()
    prev_fit = null
    best_hbic = points[0].hbic

    levels = range(cfg.increment_theta, q + 1, cfg.increment_theta)
    for t in levels:
        if not cfg.full_path and _penalty(t, n, p) >= best_hbic:
            skipped = tuple(levels[levels.index(t):])
            break
        inner = replace(cfg.inner, sparsity_t=t)
        start = prev_fit if cfg.warm_start else null  # from zero, gsdar_fit reuses -grad L(0)
        try:
            fit = gsdar_fit(family, data, inner, beta0=start.beta_hat, intercept0=start.intercept,
                            _dual0=start.dual)
        except FIT_FAILURES as exc:
            failures.append((t, str(exc)))
            continue
        points.append(PathPoint(t, fit, hbic(fit, n, p)))
        best_hbic = min(best_hbic, points[-1].hbic)
        if cfg.nll_below is not None and fit.nll <= cfg.nll_below:
            break
        if cfg.change_below is not None and abs(fit.beta_hat - prev_fit.beta_hat).max() <= cfg.change_below:
            break
        prev_fit = fit

    best = min(points, key=lambda pt: (pt.hbic, pt.t))
    return PathResult(
        fits=tuple(points),
        selected_t=best.t,
        selected_fit=best.fit,
        failures=tuple(failures),
        skipped=skipped,
    )
