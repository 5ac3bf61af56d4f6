"""Solver mechanics: support detection, restricted Newton,
outer iteration, termination, and the stationarity certificate."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import linalg as sla
from scipy.special import expit

import sdar_glm as sg
from sdar_glm.families import gradient, negative_log_likelihood, weighted_gram
from sdar_glm.rng import make_rng
from sdar_glm.solver import _solve_newton_system, restricted_mle

from helpers import (
    count_finite_scans,
    gaussian_instance,
    logistic_instance,
    newton_solve_reference,
    orthogonal_design,
    sdar_iterates,
)

finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)


# --- top_t_support -----------------------------------------------------------

def test_top_t_support_picks_largest_magnitudes():
    assert np.array_equal(sg.top_t_support(np.array([1.0, -3.0, 3.0, 0.0, 2.0]), 2), [1, 2])


def test_top_t_support_breaks_ties_toward_smaller_index():
    assert np.array_equal(sg.top_t_support(np.array([2.0, 2.0, 2.0]), 2), [0, 1])
    assert np.array_equal(sg.top_t_support(np.zeros(4), 1), [0])


@pytest.mark.parametrize("t", [0, 4])
def test_top_t_support_validates_t(t):
    with pytest.raises(ValueError, match="t must lie"):
        sg.top_t_support(np.array([1.0, 2.0, 3.0]), t)


@settings(deadline=None)
@given(
    st.lists(
        st.one_of(st.integers(-3, 3).map(float), finite_floats.filter(lambda x: abs(x) < 1e15)),
        min_size=1,
        max_size=25,
    ),
    st.data(),
)
def test_top_t_support_matches_brute_force(values, data):
    v = np.array(values, dtype=float)
    t = data.draw(st.integers(1, v.size))
    brute = sorted(sorted(range(v.size), key=lambda i: (-abs(v[i]), i))[:t])
    got = sg.top_t_support(v, t)
    assert got.size == t
    assert np.array_equal(got, brute)


@settings(deadline=None, max_examples=300)
@given(
    st.lists(
        st.one_of(
            st.integers(-2, 2).map(float),
            st.sampled_from([np.inf, -np.inf, np.nan, -0.0]),
            finite_floats,
        ),
        min_size=1,
        max_size=40,
    ),
    st.data(),
)
def test_top_t_support_matches_stable_argsort_on_ties(values, data):
    # small integers make many entries tie at the t-th magnitude
    v = np.array(values, dtype=float)
    t = data.draw(st.integers(1, v.size))
    expected = np.sort(np.argsort(-np.abs(v), kind="stable")[:t])
    assert np.array_equal(sg.top_t_support(v, t), expected)


# --- restricted_mle ----------------------------------------------------------

def test_restricted_mle_gaussian_equals_least_squares():
    data, _, _ = gaussian_instance(1, 40, 10, 3)
    for active in ([2], [0, 4, 7], list(range(10))):
        idx = np.array(active, dtype=int)
        got = restricted_mle(sg.GAUSSIAN, data, idx, np.zeros(idx.size), sg.SdarConfig(sparsity_t=1))
        want, *_ = np.linalg.lstsq(data.X[:, idx], data.y, rcond=None)
        assert np.allclose(got, want, atol=1e-8)


def test_restricted_mle_logistic_matches_irls():
    # independent solver: iteratively reweighted least squares to a fixed point
    rng = make_rng(42, 0)
    X = rng.standard_normal((200, 6))
    beta_true = np.array([0.8, -0.6, 0.4, 0.0, 0.0, 0.0])
    y = sg.gen_bernoulli_responses(X, beta_true, make_rng(42, 2))
    data = sg.Dataset(X, y)
    active = np.array([0, 1, 2])
    Xa = X[:, active]
    b = np.zeros(3)
    for _ in range(100):
        theta = Xa @ b
        mu = expit(theta)
        w = mu * (1.0 - mu)
        z = theta + (y - mu) / w
        b_new = np.linalg.solve(Xa.T @ (w[:, None] * Xa), Xa.T @ (w * z))
        if np.max(np.abs(b_new - b)) < 1e-13:
            b = b_new
            break
        b = b_new
    got = restricted_mle(sg.LOGISTIC, data, active, np.zeros(3), sg.SdarConfig(sparsity_t=3))
    assert np.max(np.abs(got - b)) <= 1e-6


def test_restricted_mle_separable_data_stays_finite():
    # one perfectly separating column: the unconstrained optimum is infinite
    data = sg.Dataset(np.array([[-2.0], [-1.0], [1.0], [2.0]]), np.array([0.0, 0.0, 1.0, 1.0]))
    b = restricted_mle(sg.LOGISTIC, data, np.array([0]), np.zeros(1), sg.SdarConfig(sparsity_t=1))
    # the gradient tolerance is met before the default cap engages
    assert 15.0 < b[0] < 25.0


@settings(max_examples=300, deadline=None)
@given(
    family=st.sampled_from([sg.LOGISTIC, sg.GAUSSIAN]),
    seed=st.integers(0, 2**16),
    n=st.integers(3, 30),
    k=st.integers(1, 4),
    separable=st.booleans(),
    duplicated=st.booleans(),
)
def test_restricted_mle_never_raises_the_nll_of_its_clipped_start(family, seed, n, k,
                                                                   separable, duplicated):
    # Armijo accepts no step that raises the NLL, so the iterate returned at
    # any exit is no worse than the start, clipped to the cap for logistic
    k = min(k, n)
    rng = make_rng(seed, 0)
    X = rng.standard_normal((n, k)) * 10.0 ** rng.uniform(-1.0, 1.0, k)
    if duplicated and k > 1:
        X[:, -1] = X[:, 0]
    if family is sg.GAUSSIAN:
        y = X @ rng.standard_normal(k) + rng.standard_normal(n)
    elif separable:
        y = (X[:, 0] > 0.0).astype(float)
    else:
        y = sg.gen_bernoulli_responses(X, rng.standard_normal(k), make_rng(seed, 2))
    init = rng.uniform(-50.0, 50.0, k)
    active = np.arange(k)
    b = restricted_mle(family, sg.Dataset(X, y), active, init, sg.SdarConfig(sparsity_t=k))
    cap = sg.SdarConfig.coef_cap if family is sg.LOGISTIC else np.inf
    start = np.clip(init, -cap, cap)
    Xa = np.ascontiguousarray(X[:, active])  # the products the solver forms
    assert family.nll(y, Xa @ b) <= family.nll(y, Xa @ start)


def test_restricted_mle_separable_data_engages_small_cap(monkeypatch):
    data = sg.Dataset(np.array([[-2.0], [-1.0], [1.0], [2.0]]), np.array([0.0, 0.0, 1.0, 1.0]))
    monkeypatch.setattr(sg.SdarConfig, "coef_cap", 8.0)
    b = restricted_mle(sg.LOGISTIC, data, np.array([0]), np.zeros(1), sg.SdarConfig(sparsity_t=1))
    assert b[0] == 8.0


def test_restricted_mle_gaussian_ignores_the_cap():
    X = np.array([[1.0], [1.0], [1.0], [1.0]])
    y = np.array([99.0, 101.0, 100.0, 100.0])
    # the mean, 100, lies beyond coef_cap = 30
    b = restricted_mle(sg.GAUSSIAN, sg.Dataset(X, y), np.array([0]), np.zeros(1),
                       sg.SdarConfig(sparsity_t=1))
    assert b[0] == pytest.approx(100.0, rel=1e-12)


def test_restricted_mle_singular_system_raises_without_jitter(monkeypatch):
    X = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    data = sg.Dataset(X, np.array([1.0, 2.0, 3.5]))
    monkeypatch.setattr(sg.SdarConfig, "ridge_jitter", 0.0)
    with pytest.raises(sg.SingularSystemError) as err:
        restricted_mle(sg.GAUSSIAN, data, np.array([0, 1]), np.zeros(2), sg.SdarConfig(sparsity_t=2))
    assert err.value.active.tolist() == [0, 1]


def test_restricted_mle_singular_system_survives_with_jitter():
    X = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    data = sg.Dataset(X, np.array([1.0, 2.0, 3.5]))
    b = restricted_mle(sg.GAUSSIAN, data, np.array([0, 1]), np.zeros(2),
                       sg.SdarConfig(sparsity_t=2))
    assert np.all(np.isfinite(b))


def test_singular_intercept_solve_names_the_intercept_as_column_p(monkeypatch):
    # a constant column duplicates the implicit ones column of the intercept
    rng = make_rng(7, 0)
    X = rng.standard_normal((30, 4))
    X[:, 2] = 1.0
    data = sg.Dataset(X, 5.0 + rng.standard_normal(30))
    monkeypatch.setattr(sg.SdarConfig, "ridge_jitter", 0.0)
    cfg = sg.SdarConfig(sparsity_t=1, with_intercept=True)
    with pytest.raises(sg.SingularSystemError) as err:
        sg.gsdar_fit(sg.GAUSSIAN, data, cfg)
    assert err.value.active.tolist() == [2, 4]


# --- the Newton-system solve against scipy.linalg.solve(assume_a="pos") -----

def scipy_outcome(H, rhs):
    """The bytes of scipy.linalg.solve(H, rhs, assume_a="pos"), or None
    where it raises."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", sla.LinAlgWarning)  # its condition estimate
        try:
            return newton_solve_reference(H, rhs).tobytes()
        except ValueError:  # np.linalg.LinAlgError is a ValueError
            return None


def newton_step_outcome(H, rhs, ridge_jitter=0.0):
    """The bytes of the solver's x with H x = rhs, or None where it raises
    SingularSystemError, with the ridge jitter set to ridge_jitter."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sg.SdarConfig, "ridge_jitter", ridge_jitter)
        try:
            return _solve_newton_system(H, -rhs, np.arange(H.shape[0])).tobytes()
        except sg.SingularSystemError:
            return None


def _system(kind, k, seed):
    """A symmetric k x k system of the given kind, and a right-hand side."""
    rng = make_rng(seed, k)
    rhs = rng.standard_normal(k) * 10.0 ** rng.uniform(-3, 3)
    if kind == "gram":  # as the solver builds them, from a logistic weight
        n = k + int(rng.integers(0, 40))
        X = rng.standard_normal((n, k)) * 10.0 ** rng.uniform(-2, 2, k)
        return weighted_gram(X, expit(3.0 * rng.standard_normal(n)) * 0.5, n), rhs
    if kind == "rank-deficient":  # fewer rows than columns, or a repeated column
        n = int(rng.integers(1, k + 1))
        X = rng.standard_normal((n, k))
        if k > 1:
            X[:, -1] = X[:, 0]
        return weighted_gram(X, np.ones(n), n), rhs
    Q, _ = np.linalg.qr(rng.standard_normal((k, k)))
    if kind == "ill":  # condition number 1e15 to 1e19, about 1 / eps
        eig = 10.0 ** -rng.uniform(0.0, 15.0, k)
        eig[0], eig[-1] = 1.0, 10.0 ** -rng.uniform(15.0, 19.0)
    else:  # "indefinite": one negative eigenvalue, of any size
        eig = rng.uniform(0.1, 2.0, k)
        eig[int(rng.integers(k))] = -(10.0 ** rng.uniform(-20, 0))
    H = (Q * eig) @ Q.T
    return 0.5 * (H + H.T), rhs


KINDS = ["gram", "rank-deficient", "ill", "indefinite"]


@settings(deadline=None, max_examples=400)
@given(kind=st.sampled_from(KINDS), k=st.integers(1, 25), seed=st.integers(0, 2**32 - 1))
def test_cholesky_solve_matches_scipy_bit_for_bit(kind, k, seed):
    # without the jitter retry: scipy's bits where it solves, and
    # SingularSystemError where it raises
    H, rhs = _system(kind, k, seed)
    assert newton_step_outcome(H, rhs) == scipy_outcome(H, rhs)


@pytest.mark.parametrize(
    "kind, k, seed, outcome",
    [
        ("gram", 8, 1, "solved"),
        ("ill", 4, 3, "solved"),  # scipy warns of its condition estimate here
        ("ill", 2, 1, "singular"),
        ("rank-deficient", 2, 1, "singular"),
        ("indefinite", 2, 1, "singular"),
        ("indefinite", 3, 2, "solved"),  # the tiny negative eigenvalue rounds away
    ],
)
def test_cholesky_solve_covers_every_outcome(kind, k, seed, outcome):
    # the property above is only as good as the systems it sees: each kind
    # of outcome occurs
    H, rhs = _system(kind, k, seed)
    x = newton_step_outcome(H, rhs)
    assert x == scipy_outcome(H, rhs)
    assert (x is not None) == (outcome == "solved")


@pytest.mark.parametrize(
    "H, rhs",
    [
        _system("rank-deficient", 2, 1),
        _system("rank-deficient", 6, 4),
        (np.array([[0.0]]), np.array([2.0])),
    ],
    ids=["rank-deficient-2", "rank-deficient-6", "zero-1x1"],
)
def test_a_rejected_system_is_solved_with_the_ridge_jitter(H, rhs):
    jitter = sg.SdarConfig.ridge_jitter
    assert newton_step_outcome(H, rhs) is None
    want = scipy_outcome(H + jitter * np.eye(H.shape[0]), rhs)
    assert want is not None
    assert newton_step_outcome(H, rhs, jitter) == want


@pytest.mark.parametrize(
    "H, rhs",
    [
        (np.array([[4.0]]), np.array([2.0])),
        (np.array([[-4.0]]), np.array([2.0])),  # 1 x 1 is a division, as in scipy
        (np.array([[0.0]]), np.array([2.0])),
        (np.array([[2.0, np.nan], [np.nan, 2.0]]), np.ones(2)),
        (np.array([[np.inf]]), np.ones(1)),
        (np.eye(3), np.array([1.0, np.inf, 0.0])),
        (np.eye(3), np.array([1.0, np.nan, 0.0])),
    ],
)
def test_cholesky_solve_edge_cases_match_scipy(H, rhs):
    assert newton_step_outcome(H, rhs) == scipy_outcome(H, rhs)


def test_non_finite_newton_system_raises_singular_system_error():
    with pytest.raises(sg.SingularSystemError, match=r"active set \[0, 1\]"):
        _solve_newton_system(np.array([[1.0, np.nan], [np.nan, 1.0]]), np.ones(2), [0, 1])
    with pytest.raises(sg.SingularSystemError, match=r"active set \[0, 1\]"):
        _solve_newton_system(np.eye(2), np.array([np.inf, 0.0]), [0, 1])


@pytest.mark.parametrize(
    "active, init, message",
    [
        (np.empty(0, dtype=int), np.zeros(0), "nonempty"),
        (np.arange(5), np.zeros(5), "exceeds the sample size"),
        (np.array([0]), np.zeros(2), "init must have shape"),
    ],
)
def test_restricted_mle_validates_inputs(active, init, message):
    data = sg.Dataset(np.ones((3, 5)), np.zeros(3))
    with pytest.raises(ValueError, match=message):
        restricted_mle(sg.GAUSSIAN, data, active, init, sg.SdarConfig(sparsity_t=1))


# --- config validation -------------------------------------------------------

@pytest.mark.parametrize(
    "kwargs",
    [
        {"sparsity_t": 0},
        {"sparsity_t": 2, "step_size_tau": 0.0},
        {"sparsity_t": 2, "step_size_tau": 1.5},
        {"sparsity_t": 2, "max_outer_iters": 0},
    ],
)
def test_sdar_config_rejects_bad_values(kwargs):
    field, value = list(kwargs.items())[-1]  # the bad value is the last one given
    with pytest.raises(ValueError, match=rf"^{field} must .*, got {re.escape(str(value))}$"):
        sg.SdarConfig(**kwargs)


# --- the first outer steps ---------------------------------------------------

def test_first_step_screens_the_plain_dual():
    data, _, _ = logistic_instance(5, 60, 12, 3)
    fit = sg.gsdar_fit(sg.LOGISTIC, data, sg.SdarConfig(sparsity_t=3, max_outer_iters=1))
    dual = -gradient(sg.LOGISTIC, data, np.zeros(12))
    assert np.array_equal(fit.support, sg.top_t_support(dual, 3))
    assert fit.iters == 1


def test_first_step_support_is_tau_invariant():
    # at beta = 0 the screen is top-T of |tau * d|, the same set for any tau
    data, _, _ = logistic_instance(5, 60, 12, 3)
    supports = [
        sg.gsdar_fit(
            sg.LOGISTIC, data, sg.SdarConfig(sparsity_t=3, step_size_tau=tau, max_outer_iters=1)
        ).support
        for tau in (0.25, 0.5, 1.0)
    ]
    assert all(np.array_equal(s, supports[0]) for s in supports)


def test_iterates_satisfy_complementarity_exactly():
    # beta_hat vanishes off the support exactly, and the dual on the support
    # is the restricted gradient at the Newton tolerance: zeroing it there,
    # as the screen does, drops nothing but that tolerance
    data, _, _ = logistic_instance(9, 80, 15, 4)
    for k in range(1, 5):
        cfg = sg.SdarConfig(sparsity_t=4, max_outer_iters=k)
        fit = sg.gsdar_fit(sg.LOGISTIC, data, cfg)
        assert fit.support.size == 4
        assert np.array_equal(np.flatnonzero(fit.beta_hat), fit.support)
        assert np.abs(fit.dual[fit.support]).max() <= cfg.newton_grad_tol


def test_duplicate_columns_still_yield_exactly_t_active():
    # three byte-identical columns force exact ties in the screening vector
    rng = make_rng(21, 0)
    X = rng.standard_normal((40, 6))
    X[:, 1] = X[:, 0]
    X[:, 2] = X[:, 0]
    y = (X[:, 0] + 0.3 * rng.standard_normal(40) > 0).astype(float)
    data = sg.Dataset(X, y)
    dual = -gradient(sg.LOGISTIC, data, np.zeros(6))
    assert dual[0] == dual[1] == dual[2]
    for k in range(1, 4):
        fit = sg.gsdar_fit(sg.LOGISTIC, data, sg.SdarConfig(sparsity_t=2, max_outer_iters=k))
        assert fit.support.size == 2


# --- gsdar_fit ---------------------------------------------------------------

def test_orthogonal_design_converges_in_one_iteration():
    X = orthogonal_design(31, 64, 16)
    rng = make_rng(31, 1)
    beta = np.zeros(16)
    beta[[2, 9, 11]] = [3.0, -2.5, 2.0]
    y = X @ beta + 0.1 * rng.standard_normal(64)
    data = sg.Dataset(X, y)
    fit = sg.gsdar_fit(sg.GAUSSIAN, data, sg.SdarConfig(sparsity_t=3))
    # X'X = n I, so the restricted solution is the correlation X'y / n and
    # the screen ranks exactly those correlations
    corr = X.T @ y / data.n
    assert np.array_equal(fit.support, np.sort(np.argsort(-np.abs(corr))[:3]))
    assert np.allclose(fit.beta_hat[fit.support], corr[fit.support], atol=1e-10)
    assert fit.termination is sg.Termination.SUPPORT_STATIONARY
    assert fit.iters == 1
    assert fit.kkt_residual <= 1e-10


def test_strong_signal_recovers_support_and_certifies():
    for seed in range(8):
        data, _, support = logistic_instance(seed, 200, 25, 3)
        fit = sg.gsdar_fit(sg.LOGISTIC, data, sg.SdarConfig(sparsity_t=3))
        assert fit.termination is sg.Termination.SUPPORT_STATIONARY
        assert np.array_equal(fit.support, support)
        assert fit.kkt_residual <= 1e-6
        # the reported certificate is reproducible from the public function
        again = sg.kkt_residual(sg.LOGISTIC, data, fit, 3)
        assert again == pytest.approx(fit.kkt_residual, abs=1e-12)


def test_nll_decreases_across_outer_iterations_on_easy_instances():
    for seed in (0, 1, 2, 3, 4):
        data, _, _ = gaussian_instance(seed, 80, 20, 3)
        cfg = sg.SdarConfig(sparsity_t=3, max_outer_iters=4)
        prev = negative_log_likelihood(sg.GAUSSIAN, data, np.zeros(data.p))
        for beta, _, _ in sdar_iterates(sg.GAUSSIAN, data, cfg):
            cur = negative_log_likelihood(sg.GAUSSIAN, data, beta)
            assert cur <= prev + 1e-12
            prev = cur


def test_cycle_detection_returns_best_visited_iterate():
    # near-duplicate columns at a small sample size make the support oscillate
    rng = make_rng(188)
    X = rng.standard_normal((12, 8))
    X[:, 4:] = X[:, :4] + 0.05 * rng.standard_normal((12, 4))
    y = rng.standard_normal(12)
    data = sg.Dataset(X, y)
    cfg = sg.SdarConfig(sparsity_t=2)
    fit = sg.gsdar_fit(sg.GAUSSIAN, data, cfg)
    assert fit.termination is sg.Termination.CYCLE_DETECTED

    # replay the trajectory: the fit must match the smallest visited NLL
    seen = set()
    nlls = []
    for beta, _, active in sdar_iterates(sg.GAUSSIAN, data, cfg):
        key = frozenset(active.tolist())
        if key in seen:
            break
        seen.add(key)
        nlls.append(negative_log_likelihood(sg.GAUSSIAN, data, beta))
    assert len(nlls) >= 2
    assert fit.nll == min(nlls)


def reference_selection(family, data, cfg):
    """(termination, iters, (nll, beta, active)): gsdar_fit's stopping rules
    applied to the step-by-step trajectory of sdar_iterates."""
    visited, best = set(), None
    for k, (beta, dual, active) in enumerate(sdar_iterates(family, data, cfg), start=1):
        visited.add(frozenset(active.tolist()))
        nll = negative_log_likelihood(family, data, beta)
        if best is None or nll < best[0]:
            best = (nll, beta, active)
        if k == cfg.max_outer_iters:
            break
        screened = sg.top_t_support(beta + cfg.step_size_tau * dual, cfg.sparsity_t)
        if np.array_equal(screened, active):
            return sg.Termination.SUPPORT_STATIONARY, k, (nll, beta, active)
        if frozenset(screened.tolist()) in visited:
            return sg.Termination.CYCLE_DETECTED, k, best
    return sg.Termination.MAX_ITERS, k, best


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    family=st.sampled_from([sg.LOGISTIC, sg.GAUSSIAN]),
    t=st.integers(1, 6),
    tau=st.sampled_from([0.3, 1.0]),
    max_outer_iters=st.integers(1, 8),
    newton_max_iters=st.sampled_from([1, 2, 50]),
)
def test_fit_follows_the_step_by_step_map(seed, family, t, tau, max_outer_iters,
                                          newton_max_iters):
    # Early-stopped Newton solves leave weight in the dual on the active set,
    # which the screen must ignore exactly as the paper's zeroed dual does.
    # Column scales over two decades make that weight count: d_j grows with
    # the column norm and beta_j shrinks with it.
    instance = logistic_instance if family is sg.LOGISTIC else gaussian_instance
    data, _, _ = instance(seed, 30, 12, 3)
    data = sg.Dataset(data.X * 10.0 ** make_rng(seed, 3).uniform(-1.0, 1.0, 12), data.y)
    cfg = sg.SdarConfig(sparsity_t=t, step_size_tau=tau, max_outer_iters=max_outer_iters)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sg.SdarConfig, "newton_max_iters", newton_max_iters)
        fit = sg.gsdar_fit(family, data, cfg)
        termination, iters, (nll, beta, active) = reference_selection(family, data, cfg)
    assert (fit.termination, fit.iters, fit.nll) == (termination, iters, nll)
    assert fit.beta_hat.tobytes() == beta.tobytes()
    assert np.array_equal(fit.support, active)


def test_iteration_budget_returns_best_iterate():
    rng = make_rng(188)
    X = rng.standard_normal((12, 8))
    X[:, 4:] = X[:, :4] + 0.05 * rng.standard_normal((12, 4))
    y = rng.standard_normal(12)
    data = sg.Dataset(X, y)
    fit = sg.gsdar_fit(sg.GAUSSIAN, data, sg.SdarConfig(sparsity_t=2, max_outer_iters=1))
    assert fit.termination is sg.Termination.MAX_ITERS
    assert fit.iters == 1
    assert np.all(np.isfinite(fit.beta_hat))


def test_fit_whose_every_nll_overflows_names_the_first_overflowing_row():
    # the residual square of row 3 alone overflows, at every iterate
    X = make_rng(71).standard_normal((6, 3))
    y = np.array([0.5, -1.0, 0.25, 1e160, 2.0, -0.5])
    with pytest.raises(sg.NumericOverflowError) as err:
        sg.gsdar_fit(sg.GAUSSIAN, sg.Dataset(X, y), sg.SdarConfig(sparsity_t=1))
    assert err.value.row == 3
    assert str(err.value) == "negative log-likelihood overflowed at observation 3"


def test_stationary_fit_whose_nll_overflows_names_the_first_overflowing_row():
    # T = p = 2: the one iterate, which the next screen would find stationary, overflows
    X = np.array([[1.0, 0.5], [-1.0, 0.25], [0.5, -1.0], [2.0, 1.0], [-0.5, 0.75]])
    y = np.array([1e160, -1e160, 1e160, -1e160, 1e160])
    with pytest.raises(sg.NumericOverflowError) as err:
        sg.gsdar_fit(sg.GAUSSIAN, sg.Dataset(X, y), sg.SdarConfig(sparsity_t=2))
    assert err.value.row == 0
    assert str(err.value) == "negative log-likelihood overflowed at observation 0"


@pytest.mark.parametrize("family", [sg.LOGISTIC, sg.GAUSSIAN], ids=["logistic", "gaussian"])
@pytest.mark.parametrize("with_intercept", [False, True], ids=["plain", "intercept"])
def test_fit_whose_hessian_overflows_raises_singular_system_error(family, with_intercept):
    # every restricted Hessian X_S^T W X_S / n overflows; the gradient stays finite
    rng = make_rng(73, 0)
    X = 1e160 * rng.standard_normal((8, 4))
    y = (rng.standard_normal(8) > 0).astype(float)
    cfg = sg.SdarConfig(sparsity_t=1, with_intercept=with_intercept)
    with pytest.raises(sg.SingularSystemError) as err:
        sg.gsdar_fit(family, sg.Dataset(X, y), cfg)
    active = err.value.active.tolist()
    assert len(active) == 1 + with_intercept
    assert (active[-1] == 4) == with_intercept  # the intercept is named as column p


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    family=st.sampled_from([sg.LOGISTIC, sg.GAUSSIAN]),
    scale_y=st.booleans(),
    exponent=st.integers(0, 200),
    column=st.sampled_from([None, 0, 1, 2, 3, 4]),
    column_exponent=st.floats(300.0, 307.5),
    t=st.integers(1, 3),
    with_intercept=st.booleans(),
)
def test_a_fit_on_scaled_data_fails_or_is_finite(seed, family, scale_y, exponent, column,
                                                 column_exponent, t, with_intercept):
    # X (or a Gaussian y) scaled by 10^exponent, or one column of X by
    # 10^column_exponent with or without y: the fit raises one of the
    # solver's errors, or returns a finite NLL, certificate and dual
    rng = make_rng(seed, 0)
    X = rng.standard_normal((10, 5))
    y = rng.standard_normal(10)
    if family is sg.LOGISTIC:
        y, scale_y = (y > 0).astype(float), False
    if scale_y:
        y *= 10.0**exponent
    elif column is None:
        X *= 10.0**exponent
    if column is not None:
        X[:, column] *= 10.0**column_exponent
    cfg = sg.SdarConfig(sparsity_t=t, with_intercept=with_intercept)
    try:
        fit = sg.gsdar_fit(family, sg.Dataset(X, y), cfg)
    except (sg.SingularSystemError, sg.NumericOverflowError):
        return
    assert np.isfinite(fit.nll) and np.isfinite(fit.kkt_residual)
    assert np.all(np.isfinite(fit.dual))


def test_final_support_is_tau_invariant_on_strong_signals():
    for seed in range(5):
        data, _, _ = logistic_instance(seed, 150, 30, 4)
        fits = [
            sg.gsdar_fit(sg.LOGISTIC, data, sg.SdarConfig(sparsity_t=4, step_size_tau=tau))
            for tau in (0.6, 1.0)
        ]
        assert np.array_equal(fits[0].support, fits[1].support)


def test_warm_start_does_not_regress():
    for seed in range(5):
        data, beta, _ = logistic_instance(seed, 100, 20, 3)
        cfg = sg.SdarConfig(sparsity_t=3)
        cold = sg.gsdar_fit(sg.LOGISTIC, data, cfg)
        warm = sg.gsdar_fit(sg.LOGISTIC, data, cfg, beta0=beta)
        assert warm.nll <= cold.nll + 1e-6


def test_fit_with_intercept_recovers_offset():
    rng = make_rng(55, 0)
    X = rng.standard_normal((1500, 10))
    beta = np.zeros(10)
    beta[[1, 6]] = [1.5, -1.5]
    theta = X @ beta + 1.0
    y = (make_rng(55, 2).random(1500) < expit(theta)).astype(float)
    data = sg.Dataset(X, y)
    fit = sg.gsdar_fit(sg.LOGISTIC, data, sg.SdarConfig(sparsity_t=2, with_intercept=True))
    assert np.array_equal(fit.support, [1, 6])
    assert abs(fit.intercept - 1.0) < 0.3
    assert sg.kkt_residual(sg.LOGISTIC, data, fit, 2) <= 1e-6


def test_intercept_fit_scans_no_restricted_block(monkeypatch):
    # the block [X_S, 1] is built from the checked design and a ones column
    sim = sg.SimConfig(n=200, p=50, k=6, rho=0.7, range_ratio=10.0, scheme=sg.SCHEME_AR1, seed=1)
    data = sg.generate_instance(sim)[0]
    scans = count_finite_scans(monkeypatch, lambda shape: shape == (200, 4))
    fit = sg.gsdar_fit(sg.LOGISTIC, data, sg.SdarConfig(sparsity_t=3, with_intercept=True))
    assert fit.iters == 2
    assert scans == []


def test_fit_without_intercept_reports_zero_intercept():
    data, _, _ = logistic_instance(2, 60, 10, 2)
    fit = sg.gsdar_fit(sg.LOGISTIC, data, sg.SdarConfig(sparsity_t=2))
    assert fit.intercept == 0.0


def test_kkt_residual_of_the_zero_vector_is_the_gradient_norm():
    data, _, _ = logistic_instance(6, 50, 9, 2)
    zero_fit = sg.FitResult(
        beta_hat=np.zeros(9),
        support=np.empty(0, dtype=int),
        nll=0.0,
        kkt_residual=0.0,
        iters=0,
        termination=sg.Termination.SUPPORT_STATIONARY,
    )
    expected = np.max(np.abs(gradient(sg.LOGISTIC, data, np.zeros(9))))
    assert sg.kkt_residual(sg.LOGISTIC, data, zero_fit, 3) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize(
    "n, p, cfg_kwargs, message",
    [
        (10, 3, {"sparsity_t": 4}, "exceeds the number of predictors"),
        (3, 8, {"sparsity_t": 4}, "<= n"),
        (3, 8, {"sparsity_t": 3, "with_intercept": True}, "<= n"),
    ],
)
def test_fit_validates_dimensions(n, p, cfg_kwargs, message):
    rng = make_rng(99)
    data = sg.Dataset(rng.standard_normal((n, p)), np.zeros(n))
    with pytest.raises(ValueError, match=message):
        sg.gsdar_fit(sg.GAUSSIAN, data, sg.SdarConfig(**cfg_kwargs))


def test_fit_rejects_empty_data_and_bad_labels():
    empty = sg.Dataset(np.zeros((0, 3)), np.zeros(0))
    with pytest.raises(ValueError, match="at least one observation"):
        sg.gsdar_fit(sg.GAUSSIAN, empty, sg.SdarConfig(sparsity_t=1))
    bad = sg.Dataset(np.ones((4, 3)), np.array([0.0, 1.0, 2.0, 1.0]))
    with pytest.raises(ValueError, match="must lie in"):
        sg.gsdar_fit(sg.LOGISTIC, bad, sg.SdarConfig(sparsity_t=1))


def test_fit_rejects_wrong_warm_start_shape():
    data, _, _ = gaussian_instance(3, 30, 6, 2)
    with pytest.raises(ValueError, match="beta0 must have shape"):
        sg.gsdar_fit(sg.GAUSSIAN, data, sg.SdarConfig(sparsity_t=2), beta0=np.zeros(5))


def test_termination_labels_are_stable():
    assert sg.Termination.SUPPORT_STATIONARY.value == "support_stationary"
    assert sg.Termination.MAX_ITERS.value == "max_iters"
    assert sg.Termination.CYCLE_DETECTED.value == "cycle_detected"
