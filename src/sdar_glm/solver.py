"""L0-constrained GLM solver: support detection plus restricted root finding.

One outer iteration screens the combined primal-dual vector |beta + tau*d|
for its T largest entries (the dual d = -grad L plays the role of a
correlation score on the inactive coordinates and counts as zero on the
active set, where a stationary point has it vanish), solves the GLM
restricted to the detected coordinates by damped Newton, and recomputes
the dual.  A fixed point of this map is exactly a hard-threshold
stationary point, so iteration stops as soon as the detected support
repeats.  Revisiting any earlier support (a cycle) or exhausting the
iteration budget also terminates, returning the best iterate seen, which
makes termination unconditional.

The map has one home, the loop of gsdar_fit.  It keeps its iterate in
locals: beta, the intercept, the active set and the whole dual -grad L.
Only the screen zeroes the dual on the active set, in the vector it ranks,
so the dual the fit returns and certifies is the unmasked gradient.  A fit
from zero starts from -grad L(0), which depends only on the data and the
family, so each Dataset keeps it per family once a fit has computed it.

The restricted Newton systems are small (|support| plus the intercept
columns) and are solved by calling LAPACK's Cholesky routines directly:
?potrf factors and ?potrs solves.  These are the calls
scipy.linalg.solve(assume_a="pos") makes, with the same triangle, so the
steps are the same bits, without its per-call validation, condition
estimate and batching overhead.  Each line-search candidate's linear
predictor is kept and reused by the Newton step taken from it.

The solver checks no value itself: the families functions raise
NumericOverflowError for a linear predictor, NLL or dual that overflows, and
_solve_newton_system raises SingularSystemError for a system it cannot solve.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np
from scipy import linalg as sla

from .families import (
    Dataset,
    GlmFamily,
    NumericOverflowError,
    gradient,
    gradient_at_theta,
    negative_log_likelihood,
    require_finite,
    weighted_gram,
)

__all__ = [
    "SingularSystemError",
    "Termination",
    "SdarConfig",
    "FitResult",
    "top_t_support",
    "restricted_mle",
    "gsdar_fit",
    "kkt_residual",
]


class SingularSystemError(RuntimeError):
    """The restricted Newton system could not be formed with finite entries,
    or stayed singular after a jitter retry."""

    def __init__(self, active):
        self.active = np.asarray(active, dtype=int)
        super().__init__(
            f"restricted Hessian solve failed on active set {self.active.tolist()}"
        )


# the errors with which a fit fails, which the path, replications and CLI report
FIT_FAILURES = (SingularSystemError, NumericOverflowError)


class Termination(enum.Enum):
    SUPPORT_STATIONARY = "support_stationary"
    MAX_ITERS = "max_iters"
    CYCLE_DETECTED = "cycle_detected"


@dataclass(frozen=True)
class SdarConfig:
    """Solver knobs.

    sparsity_t is the active-set cardinality T.  step_size_tau in (0, 1]
    scales the dual before support detection; 1 is the plain rule, smaller
    values damp the screening on badly conditioned designs.  The class
    constant coef_cap bounds a binary family's coefficients componentwise,
    and the intercept with them, so that separable labels cannot drive the
    restricted solve to infinity; such a fit's intercept can stop at +-coef_cap.
    """

    sparsity_t: int
    step_size_tau: float = 1.0
    max_outer_iters: int = 50
    with_intercept: bool = False
    newton_max_iters: ClassVar[int] = 50
    newton_grad_tol: ClassVar[float] = 1e-8
    ridge_jitter: ClassVar[float] = 1e-8
    coef_cap: ClassVar[float] = 30.0

    def __post_init__(self):
        if self.sparsity_t < 1:
            raise ValueError(f"sparsity_t must be >= 1, got {self.sparsity_t}")
        if not 0.0 < self.step_size_tau <= 1.0:
            raise ValueError(f"step_size_tau must lie in (0, 1], got {self.step_size_tau}")
        if self.max_outer_iters < 1:
            raise ValueError(f"max_outer_iters must be >= 1, got {self.max_outer_iters}")


@dataclass(frozen=True, eq=False)
class FitResult:
    """A fitted model.  dual is -grad L at (beta_hat, intercept), the vector
    the certificate was computed from; a warm-started path level starts
    from it instead of recomputing it."""

    beta_hat: np.ndarray
    support: np.ndarray
    nll: float
    kkt_residual: float
    iters: int
    termination: Termination
    intercept: float = 0.0
    dual: np.ndarray | None = field(default=None, repr=False)


def top_t_support(v: np.ndarray, t: int) -> np.ndarray:
    """Indices of the t largest-magnitude entries, ascending.

    Ties at the t-th magnitude are broken toward smaller index, so the
    result always has exactly t elements; NaN entries rank below every
    number.  A partition finds the t-th magnitude in O(p), which is all a
    full sort would be used for.
    """
    v = np.asarray(v, dtype=float)
    if not 1 <= t <= v.size:
        raise ValueError(f"t must lie in [1, {v.size}], got {t}")
    a = np.abs(v)
    a[np.isnan(a)] = -1.0
    kth = np.partition(a, v.size - t)[v.size - t]
    keep = a > kth
    keep[np.flatnonzero(a == kth)[: t - np.count_nonzero(keep)]] = True
    return np.flatnonzero(keep)


_potrf, _potrs = sla.get_lapack_funcs(("potrf", "potrs"), dtype=np.float64)


def _solve_newton_system(H, g, active):
    """The Newton step x with H x = -g, bit for bit as
    scipy.linalg.solve(H, -g, assume_a="pos") computes it, for H or, when
    ?potrf rejects H, for H + SdarConfig.ridge_jitter * I.  A 1 x 1 system is
    a division, as in scipy.  A non-finite H or g, or a system rejected twice,
    raises SingularSystemError.
    """
    if not (np.isfinite(H).all() and np.isfinite(g).all()):
        raise SingularSystemError(active)
    A = H
    for _ in range(2):
        if A.shape == (1, 1):
            if A[0, 0] != 0.0:
                return -g / A[0, 0]
        else:
            c, info = _potrf(A, clean=0)
            if info == 0:
                return _potrs(c, -g)[0]
        A = H + SdarConfig.ridge_jitter * np.eye(H.shape[0])
    raise SingularSystemError(active)


def restricted_mle(
    family: GlmFamily,
    data: Dataset,
    active: np.ndarray,
    init: np.ndarray,
    cfg: SdarConfig,
) -> np.ndarray:
    """Minimize the NLL over coordinates in `active` (all others fixed at 0).

    Damped Newton with Armijo backtracking (halving, sufficient-decrease
    1e-4), which never raises the NLL.  Returns the last accepted iterate
    once ||g||_inf <= newton_grad_tol, after newton_max_iters steps, or once
    no step descends or a line-search candidate has the bits of the current
    iterate (the step has rounded away, at the cap or in b).  For a binary
    family init and every iterate are clipped to [-coef_cap, coef_cap]
    componentwise, which keeps separable data finite.  A Newton
    system that stays singular after the ridge_jitter retry, or whose
    Hessian or gradient overflowed, raises SingularSystemError, and an
    overflowing linear predictor raises NumericOverflowError; an overflowing
    NLL is +inf, which the line search rejects.  The solve runs under
    np.errstate and warns of none of them.
    """
    active = np.asarray(active, dtype=int)
    if active.size == 0:
        raise ValueError("active set must be nonempty")
    if active.size > data.n:
        raise ValueError(f"active set size {active.size} exceeds the sample size {data.n}")
    Xa = np.ascontiguousarray(data.X[:, active])
    y = data.y
    cap = cfg.coef_cap if family.binary else np.inf  # an infinite cap keeps the bits

    b = np.array(init, dtype=float)
    if b.shape != (active.size,):
        raise ValueError(f"init must have shape ({active.size},), got {b.shape}")
    _clip(b, cap)
    with np.errstate(over="ignore", invalid="ignore"):  # each overflow is handled below
        theta = require_finite(Xa @ b)
        fb = family.nll(y, theta)
        for _ in range(cfg.newton_max_iters):
            g = gradient_at_theta(family, Xa, y, theta)
            if np.abs(g).max() <= cfg.newton_grad_tol:
                break
            H = weighted_gram(Xa, family.variance(theta), data.n)
            step = _solve_newton_system(H, g, active)
            slope = float(g @ step)
            if slope >= 0.0:
                break  # numerically flat: no descent direction left
            t = 1.0
            while t >= 2.0**-40:
                cand = b + t * step
                _clip(cand, cap)
                if cand.tobytes() == b.tobytes():
                    # the step rounded away, and so would every shorter one: a
                    # Newton step from b would only repeat this line search
                    return b
                theta_c = require_finite(Xa @ cand)
                fc = family.nll(y, theta_c)
                if fc <= fb + 1e-4 * t * slope:
                    break
                t *= 0.5
            else:
                break  # the cap or rounding blocked all progress
            b, fb, theta = cand, fc, theta_c
        return b


def _clip(b: np.ndarray, cap: float) -> None:
    """b clipped to [-cap, cap] in place; the same bits as np.clip."""
    np.maximum(b, -cap, out=b)
    np.minimum(b, cap, out=b)


def _solve_on(
    family: GlmFamily,
    data: Dataset,
    support: np.ndarray,
    init: np.ndarray,
    intercept: float,
    cfg: SdarConfig,
) -> tuple[np.ndarray, float, np.ndarray]:
    """Solve on `support` (plus the intercept) from init and return
    (beta, intercept, dual) with dual = -grad L there: one pass over X.

    The intercept's ones column is appended only to the n x |support| block
    that the restricted solve sees.  That block is not scanned for finite
    values: its columns come from the valid `data` and a column of ones.
    """
    if cfg.with_intercept:
        columns = np.column_stack([data.X[:, support], np.ones(data.n)])
        block = Dataset(columns, data.y, _x_checked=True)
        try:
            coef = restricted_mle(
                family, block, np.arange(support.size + 1), np.append(init, intercept), cfg
            )
        except SingularSystemError:
            # name the design's columns, with the intercept as column p
            raise SingularSystemError(np.append(support, data.p)) from None
        coef, intercept = coef[:-1], float(coef[-1])
    else:
        coef = restricted_mle(family, data, support, init, cfg)
    beta = np.zeros(data.p)
    beta[support] = coef
    return beta, intercept, -gradient(family, data, beta, intercept)


def _certificate(beta: np.ndarray, d: np.ndarray, t: int) -> float:
    """||beta - H(beta + d)||_inf with the threshold set at the t-th magnitude.

    d = -grad L(beta); the thresholding keeps exactly the solver's top-t
    selection (same tie-break), so a support-stationary solution scores at
    the Newton tolerance level.
    """
    u = beta + d
    sel = top_t_support(u, t)
    h = np.zeros(beta.size)
    h[sel] = u[sel]
    return float(np.max(np.abs(beta - h)))


def kkt_residual(family: GlmFamily, data: Dataset, fit: FitResult, t: int) -> float:
    """Stationarity certificate for a fit on `data` (0 means exact fixed point).

    Costs one pass over X; the intercept enters the linear predictor as an
    offset, so X is not copied.  The solver does not call it; it stays public
    because the benchmark's fit-wide check (bench/workloads.py,
    FitWide._check_fit) compares every fit's kkt_residual with it.
    """
    beta = np.asarray(fit.beta_hat, dtype=float)
    return _certificate(beta, -gradient(family, data, beta, fit.intercept), t)


def _null_dual(family: GlmFamily, data: Dataset) -> np.ndarray:
    """-grad L(0) of `family` on `data`, which the first call computes and
    keeps read-only on the Dataset; theta = 0 with or without an intercept."""
    dual = data._null_duals.get(family)
    if dual is None:
        dual = -gradient(family, data, np.zeros(data.p))
        dual.flags.writeable = False
        data._null_duals[family] = dual
    return dual


def gsdar_fit(
    family: GlmFamily,
    data: Dataset,
    cfg: SdarConfig,
    beta0: np.ndarray | None = None,
    intercept0: float = 0.0,
    *,
    _dual0: np.ndarray | None = None,
) -> FitResult:
    """Run outer iterations from beta0 (default 0) until the support settles.

    Termination is unconditional: SUPPORT_STATIONARY when the detected
    support repeats consecutively, CYCLE_DETECTED when an earlier support
    recurs non-consecutively (the visited iterate with smallest NLL is
    returned), MAX_ITERS otherwise (best iterate returned).  An iterate whose
    NLL or dual overflows raises NumericOverflowError, so both are finite.

    This loop is the map's only implementation.  Its screen ranks
    beta + tau * dual with the dual zeroed on the active set, in that
    vector only; the iterate's dual stays the unmasked -grad L.

    A fit reads all of X once per outer iteration and never copies it; the
    returned certificate reuses the dual of the chosen iterate, which the
    result carries as `dual`.  The initial dual at (beta0, intercept0) costs
    one more pass, except in two cases.  From zero (beta0 all zero, and the
    intercept zero or not fitted) it is -grad L(0), which the first such fit
    on `data` with `family` computes and keeps on the Dataset, read-only, for
    every later one.  And the sparsity path hands a fit's dual to the next
    level as _dual0, so a warm-started level skips that pass; _dual0 is
    trusted, not checked.
    """
    if data.n < 1:
        raise ValueError("data must contain at least one observation")
    family.check_response(data.y)
    t = cfg.sparsity_t
    solve_size = t + (1 if cfg.with_intercept else 0)
    if t > data.p:
        raise ValueError(f"sparsity_t={t} exceeds the number of predictors {data.p}")
    if solve_size > data.n:
        raise ValueError(
            f"restricted solves need sparsity_t{' + intercept' if cfg.with_intercept else ''}"
            f" <= n, got {solve_size} > {data.n}"
        )

    beta = np.zeros(data.p) if beta0 is None else np.array(beta0, dtype=float)
    if beta.shape != (data.p,):
        raise ValueError(f"beta0 must have shape ({data.p},), got {beta.shape}")
    intercept = float(intercept0) if cfg.with_intercept else 0.0
    if _dual0 is None and intercept == 0.0 and not beta.any():
        _dual0 = _null_dual(family, data)
    dual = -gradient(family, data, beta, intercept) if _dual0 is None else _dual0
    active = np.empty(0, dtype=int)

    visited: set[bytes] = set()  # top_t_support is sorted, so the bytes name the set
    chosen, chosen_nll = None, np.inf
    termination = Termination.MAX_ITERS
    for _ in range(cfg.max_outer_iters):
        u = beta + cfg.step_size_tau * dual
        u[active] = beta[active]  # the dual vanishes on the active set
        support = top_t_support(u, t)
        if np.array_equal(support, active):
            termination = Termination.SUPPORT_STATIONARY
            chosen, chosen_nll = (beta, intercept, active, dual), nll
            break
        key = support.tobytes()
        if key in visited:
            termination = Termination.CYCLE_DETECTED
            break
        beta, intercept, dual = _solve_on(family, data, support, beta[support], intercept, cfg)
        active = support
        nll = negative_log_likelihood(family, data, beta, intercept)
        visited.add(key)
        if nll < chosen_nll:
            chosen, chosen_nll = (beta, intercept, active, dual), nll

    beta, intercept, active, dual = chosen
    return FitResult(
        beta_hat=beta,
        support=active,
        nll=chosen_nll,
        kkt_residual=_certificate(beta, dual, t),
        iters=len(visited),  # one restricted solve per visited support
        termination=termination,
        intercept=intercept,
        dual=dual,
    )
