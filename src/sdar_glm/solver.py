"""L0-constrained GLM solver: support detection plus restricted root finding.

One outer iteration screens the combined primal-dual vector |beta + tau*d|
for its T largest entries (the dual d = -grad L plays the role of a
correlation score on the inactive coordinates), solves the GLM restricted
to the detected coordinates by damped Newton, and recomputes the dual on
the complement.  A fixed point of this map is exactly a hard-threshold
stationary point, so iteration stops as soon as the detected support
repeats.  Revisiting any earlier support (a cycle) or exhausting the
iteration budget also terminates, returning the best iterate seen, which
makes termination unconditional.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from scipy import linalg as sla

from .families import (
    Dataset,
    GlmFamily,
    gradient,
    negative_log_likelihood,
    require_finite,
    weighted_gram,
)

__all__ = [
    "SingularSystemError",
    "Termination",
    "SdarConfig",
    "SdarState",
    "FitResult",
    "top_t_support",
    "restricted_mle",
    "gsdar_step",
    "gsdar_fit",
    "kkt_residual",
]


class SingularSystemError(RuntimeError):
    """The restricted Newton system stayed singular after a jitter retry."""

    def __init__(self, active):
        self.active = np.asarray(active, dtype=int)
        super().__init__(
            f"restricted Hessian solve failed on active set {self.active.tolist()}"
        )


class Termination(enum.Enum):
    SUPPORT_STATIONARY = "support_stationary"
    MAX_ITERS = "max_iters"
    CYCLE_DETECTED = "cycle_detected"


@dataclass(frozen=True)
class SdarConfig:
    """Solver knobs.

    sparsity_t is the active-set cardinality T.  step_size_tau in (0, 1]
    scales the dual before support detection; 1 is the plain rule, smaller
    values damp the screening on badly conditioned designs.  coef_cap bounds
    logistic coefficients componentwise so that separable data cannot drive
    the restricted solve to infinity.
    """

    sparsity_t: int
    step_size_tau: float = 1.0
    max_outer_iters: int = 50
    newton_max_iters: int = 50
    newton_grad_tol: float = 1e-8
    ridge_jitter: float = 1e-8
    coef_cap: float = 30.0
    with_intercept: bool = False

    def __post_init__(self):
        if self.sparsity_t < 1:
            raise ValueError(f"sparsity_t must be >= 1, got {self.sparsity_t}")
        if not 0.0 < self.step_size_tau <= 1.0:
            raise ValueError(f"step_size_tau must lie in (0, 1], got {self.step_size_tau}")
        if self.max_outer_iters < 1 or self.newton_max_iters < 1:
            raise ValueError("iteration limits must be >= 1")
        if self.newton_grad_tol <= 0.0:
            raise ValueError("newton_grad_tol must be positive")
        if self.ridge_jitter < 0.0:
            raise ValueError("ridge_jitter must be nonnegative")
        if self.coef_cap <= 0.0:
            raise ValueError("coef_cap must be positive")


@dataclass(frozen=True)
class SdarState:
    """One outer iterate.

    active is the index set the current beta was solved on (empty at
    iteration 0).  beta and dual have one entry per column of X; X itself
    is never augmented.  With cfg.with_intercept the intercept rides along
    in `intercept`: every restricted solve fits it as an extra coefficient
    and it is never screened.  For every state with iteration >= 1, beta
    vanishes off the active set and dual vanishes on it, so
    beta * dual == 0 holds coordinatewise; dual_active keeps the entries
    of -grad L on the active set that dual zeroes, so the certificate of
    this iterate needs no second pass over X.
    """

    beta: np.ndarray
    dual: np.ndarray
    active: np.ndarray
    iteration: int
    intercept: float = 0.0
    dual_active: np.ndarray | None = None


@dataclass(frozen=True)
class FitResult:
    beta_hat: np.ndarray
    support: np.ndarray
    nll: float
    kkt_residual: float
    iters: int
    termination: Termination
    intercept: float = 0.0


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


def _solve_newton_system(H, g, cfg, active):
    """Solve H step = -g, retrying once with a ridge on failure."""
    try:
        return sla.solve(H, -g, assume_a="pos")
    except np.linalg.LinAlgError:
        pass
    H_jittered = H + cfg.ridge_jitter * np.eye(H.shape[0])
    try:
        return sla.solve(H_jittered, -g, assume_a="pos")
    except np.linalg.LinAlgError:
        raise SingularSystemError(active) from None


def restricted_mle(
    family: GlmFamily,
    data: Dataset,
    active: np.ndarray,
    init: np.ndarray,
    cfg: SdarConfig,
) -> np.ndarray:
    """Minimize the NLL over coordinates in `active` (all others fixed at 0).

    Damped Newton with Armijo backtracking (halving, sufficient-decrease
    1e-4).  Returns as soon as the restricted gradient satisfies
    ||g||_inf <= newton_grad_tol, otherwise the best iterate found within
    newton_max_iters.  For the logistic family every iterate is clipped to
    [-coef_cap, coef_cap] componentwise, which keeps separable data finite.
    A singular Newton system gets one ridge_jitter retry before raising
    SingularSystemError.
    """
    active = np.asarray(active, dtype=int)
    if active.size == 0:
        raise ValueError("active set must be nonempty")
    if active.size > data.n:
        raise ValueError(
            f"active set size {active.size} exceeds the sample size {data.n}"
        )
    Xa = np.ascontiguousarray(data.X[:, active])
    y = data.y
    n = data.n
    d_mean = float(np.mean(family.base_measure(y)))
    cap = cfg.coef_cap if family.name == "logistic" else None

    def theta_of(b):
        return require_finite(Xa @ b)

    def value(theta):
        return float(-np.mean(y * theta - family.cumulant(theta)) - d_mean)

    b = np.asarray(init, dtype=float).copy()
    if b.shape != (active.size,):
        raise ValueError(f"init must have shape ({active.size},), got {b.shape}")
    if cap is not None:
        np.clip(b, -cap, cap, out=b)
    fb = value(theta_of(b))
    best_b, best_f = b.copy(), fb

    for _ in range(cfg.newton_max_iters):
        theta = theta_of(b)
        g = Xa.T @ (family.mean(theta) - y) / n
        if np.max(np.abs(g)) <= cfg.newton_grad_tol:
            return b
        H = weighted_gram(Xa, family.variance(theta), n)
        step = _solve_newton_system(H, g, cfg, active)
        slope = float(g @ step)
        if slope >= 0.0:
            break  # numerically flat: no descent direction left
        t = 1.0
        accepted = False
        while t >= 2.0**-40:
            cand = b + t * step
            if cap is not None:
                np.clip(cand, -cap, cap, out=cand)
            fc = value(theta_of(cand))
            if fc <= fb + 1e-4 * t * slope:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            break  # the cap or rounding blocked all progress
        b, fb = cand, fc
        if fb < best_f:
            best_f, best_b = fb, b.copy()
    return best_b


def _detect_support(state: SdarState, cfg: SdarConfig) -> np.ndarray:
    return top_t_support(state.beta + cfg.step_size_tau * state.dual, cfg.sparsity_t)


def _advance(
    family: GlmFamily,
    data: Dataset,
    state: SdarState,
    support: np.ndarray,
    cfg: SdarConfig,
) -> SdarState:
    """Solve on `support` (plus the intercept) and refresh the dual: one pass over X.

    The intercept's ones column is appended only to the n x |support| block
    that the restricted solve sees.
    """
    init = state.beta[support]
    intercept = 0.0
    if cfg.with_intercept:
        block = Dataset(np.column_stack([data.X[:, support], np.ones(data.n)]), data.y)
        try:
            coef = restricted_mle(
                family, block, np.arange(support.size + 1), np.append(init, state.intercept), cfg
            )
        except SingularSystemError:
            # name the design's columns, with the intercept as column p
            raise SingularSystemError(np.append(support, data.p)) from None
        coef, intercept = coef[:-1], float(coef[-1])
    else:
        coef = restricted_mle(family, data, support, init, cfg)
    beta = np.zeros(data.p)
    beta[support] = coef
    dual = -gradient(family, data, beta, intercept)
    dual_active = dual[support]
    dual[support] = 0.0
    return SdarState(
        beta=beta,
        dual=dual,
        active=support,
        iteration=state.iteration + 1,
        intercept=intercept,
        dual_active=dual_active,
    )


def gsdar_step(family: GlmFamily, data: Dataset, state: SdarState, cfg: SdarConfig) -> SdarState:
    """One outer iteration: detect the support, solve on it, refresh the dual.

    With cfg.with_intercept the intercept is carried in state.intercept,
    not in a column of data.X: it is solved for together with the detected
    support and never screened.
    """
    support = _detect_support(state, cfg)
    return _advance(family, data, state, support, cfg)


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
    offset, so X is not copied.
    """
    beta = np.asarray(fit.beta_hat, dtype=float)
    return _certificate(beta, -gradient(family, data, beta, fit.intercept), t)


def gsdar_fit(
    family: GlmFamily,
    data: Dataset,
    cfg: SdarConfig,
    beta0: np.ndarray | None = None,
    intercept0: float = 0.0,
) -> FitResult:
    """Run outer iterations from beta0 (default 0) until the support settles.

    Termination is unconditional: SUPPORT_STATIONARY when the detected
    support repeats consecutively, CYCLE_DETECTED when an earlier support
    recurs non-consecutively (the visited iterate with smallest NLL is
    returned), MAX_ITERS otherwise (best iterate returned).

    A fit reads all of X once for the initial dual and once per outer
    iteration, and never copies it; the returned certificate reuses the
    dual of the chosen iterate.
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

    state = SdarState(
        beta=beta,
        dual=-gradient(family, data, beta, intercept),
        active=np.empty(0, dtype=int),
        iteration=0,
        intercept=intercept,
    )
    visited: set[frozenset] = set()
    best_state, best_nll = None, np.inf
    termination = Termination.MAX_ITERS
    chosen = None

    for _ in range(cfg.max_outer_iters):
        support = _detect_support(state, cfg)
        if state.iteration > 0 and np.array_equal(support, state.active):
            termination = Termination.SUPPORT_STATIONARY
            chosen, chosen_nll = state, nll
            break
        key = frozenset(support.tolist())
        if key in visited:
            termination = Termination.CYCLE_DETECTED
            break
        state = _advance(family, data, state, support, cfg)
        nll = negative_log_likelihood(family, data, state.beta, state.intercept)
        visited.add(key)
        if nll < best_nll:
            best_nll, best_state = nll, state

    if chosen is None:
        chosen, chosen_nll = best_state, best_nll  # a cycle, or the budget is spent

    d = chosen.dual.copy()
    d[chosen.active] = chosen.dual_active
    return FitResult(
        beta_hat=chosen.beta.copy(),
        support=chosen.active.copy(),
        nll=chosen_nll,
        kkt_residual=_certificate(chosen.beta, d, t),
        iters=state.iteration,
        termination=termination,
        intercept=chosen.intercept,
    )
