"""Work a fit does: full passes over X, the size of every linear predictor,
and the memory an intercept fit allocates.  Counts, never wall-clock time."""

import tracemalloc

import numpy as np
import pytest

import sdar_glm as sg
from sdar_glm import families, solver

from helpers import gaussian_instance, logistic_instance

CASES = [
    (sg.LOGISTIC, lambda: logistic_instance(1, 150, 40, 4)[0], 4),
    (sg.GAUSSIAN, lambda: gaussian_instance(8, 60, 40, 3)[0], 9),  # 8 outer iterations
]


def _counting(monkeypatch, module, name, check=None):
    """Replace module.name by a wrapper that counts (and optionally checks) calls."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        if check is not None:
            check(*args, **kwargs)
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


@pytest.mark.parametrize("with_intercept", [False, True])
@pytest.mark.parametrize("family, build, t", CASES)
def test_fit_makes_one_gradient_pass_per_outer_iteration(monkeypatch, family, build, t, with_intercept):
    data = build()
    calls = _counting(monkeypatch, solver, "gradient")
    fit = sg.gsdar_fit(family, data, sg.SdarConfig(sparsity_t=t, with_intercept=with_intercept))
    assert fit.iters >= 1
    assert len(calls) == 1 + fit.iters  # the initial dual, then one per restricted solve


def test_cycling_fit_still_makes_one_gradient_pass_per_outer_iteration(monkeypatch):
    rng = sg.make_rng(188)
    X = rng.standard_normal((12, 8))
    X[:, 4:] = X[:, :4] + 0.05 * rng.standard_normal((12, 4))
    data = sg.Dataset(X, rng.standard_normal(12))
    calls = _counting(monkeypatch, solver, "gradient")
    fit = sg.gsdar_fit(sg.GAUSSIAN, data, sg.SdarConfig(sparsity_t=2))
    assert fit.termination is sg.Termination.CYCLE_DETECTED
    assert len(calls) == 1 + fit.iters


@pytest.mark.parametrize("with_intercept", [False, True])
@pytest.mark.parametrize("family, build, t", CASES)
def test_every_linear_predictor_of_a_fit_is_sparse(monkeypatch, family, build, t, with_intercept):
    data = build()
    beta0 = np.zeros(data.p)
    beta0[: t - 1] = 0.1  # a warm start is sparse too

    def check(data_arg, beta, intercept=0.0):
        assert np.count_nonzero(beta) <= t

    calls = _counting(monkeypatch, families, "linear_predictor", check)
    cfg = sg.SdarConfig(sparsity_t=t, with_intercept=with_intercept)
    for start in (None, beta0):
        sg.gsdar_fit(family, data, cfg, beta0=start, intercept0=0.3)
    assert calls


def test_dense_beta_falls_back_to_the_full_product():
    data, _, _ = logistic_instance(4, 30, 50, 3)
    beta = np.linspace(-0.1, 0.1, 50)  # 50 nonzeros > n = 30
    assert np.allclose(sg.linear_predictor(data, beta), data.X @ beta, rtol=0, atol=1e-14)
    sparse = np.zeros(50)
    sparse[[3, 17]] = [0.5, -1.0]
    assert np.allclose(sg.linear_predictor(data, sparse, 0.25), data.X @ sparse + 0.25,
                       rtol=0, atol=1e-14)


def test_linear_predictor_rejects_a_wrong_length_beta():
    data, _, _ = logistic_instance(4, 30, 50, 3)
    with pytest.raises(ValueError, match="beta must have shape"):
        sg.linear_predictor(data, np.zeros(49))


def test_intercept_fit_does_not_copy_x():
    X = sg.make_rng(3, 0).standard_normal((200, 5000))
    beta = np.zeros(5000)
    beta[[10, 200, 3000]] = [1.0, -1.0, 0.8]
    y = sg.gen_bernoulli_responses(X, beta, sg.make_rng(3, 2))
    data = sg.Dataset(X, y)
    cfg = sg.SdarConfig(sparsity_t=5, with_intercept=True)
    tracemalloc.start()
    try:
        fit = sg.gsdar_fit(sg.LOGISTIC, data, cfg)
        certificate = sg.kkt_residual(sg.LOGISTIC, data, fit, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < X.nbytes / 4
    assert certificate == fit.kkt_residual
