"""The test suite's exhaustive best-subset reference and finite-difference
gradient (tests/helpers.py), checked on instances with known answers."""

import numpy as np
import pytest

import sdar_glm as sg
from sdar_glm.families import gradient, negative_log_likelihood
from sdar_glm.rng import make_rng

from helpers import (
    best_subset_exhaustive,
    finite_difference_gradient,
    gaussian_instance,
    logistic_instance,
    oracle_precision,
    orthogonal_design,
)


def test_orthogonal_design_oracle_is_top_correlations():
    X = orthogonal_design(7, 32, 8)
    rng = make_rng(7, 1)
    beta = np.zeros(8)
    beta[[1, 5]] = [2.0, -3.0]
    y = X @ beta + 0.05 * rng.standard_normal(32)
    data = sg.Dataset(X, y)
    res = best_subset_exhaustive(sg.GAUSSIAN, data, 2)
    corr = X.T @ y / data.n
    assert np.array_equal(res.support, np.sort(np.argsort(-np.abs(corr))[:2]))
    assert np.allclose(res.beta[res.support], corr[res.support], atol=1e-8)


def test_full_support_oracle_is_least_squares():
    data, _, _ = gaussian_instance(11, 25, 4, 2)
    res = best_subset_exhaustive(sg.GAUSSIAN, data, 4)
    want, *_ = np.linalg.lstsq(data.X, data.y, rcond=None)
    assert np.allclose(res.beta, want, atol=1e-8)
    assert res.nll == pytest.approx(negative_log_likelihood(sg.GAUSSIAN, data, res.beta))


def test_relaxed_size_can_return_the_empty_support():
    rng = make_rng(13)
    data = sg.Dataset(rng.standard_normal((20, 4)), np.zeros(20))
    res = best_subset_exhaustive(sg.GAUSSIAN, data, 2, exact_size=False)
    assert res.support.size == 0
    assert res.nll == 0.0
    assert np.array_equal(res.beta, np.zeros(4))


def test_relaxed_size_never_loses_to_exact_size():
    data, _, _ = gaussian_instance(17, 30, 6, 2)
    relaxed = best_subset_exhaustive(sg.GAUSSIAN, data, 3, exact_size=False)
    exact = best_subset_exhaustive(sg.GAUSSIAN, data, 3, exact_size=True)
    assert relaxed.nll <= exact.nll + 1e-12


def test_oracle_finds_the_planted_support_under_strong_signal():
    hits = 0
    for seed in range(20):
        data, _, support = logistic_instance(seed, 100, 10, 2)
        res = best_subset_exhaustive(sg.LOGISTIC, data, 2)
        hits += np.array_equal(res.support, support)
    assert hits >= 18


def test_oracle_beats_random_supports_of_the_same_size():
    data, _, _ = logistic_instance(23, 60, 12, 3)
    res = best_subset_exhaustive(sg.LOGISTIC, data, 3)
    cfg = sg.SdarConfig(sparsity_t=3)
    rng = make_rng(23, 9)
    for _ in range(15):
        active = np.sort(rng.choice(12, size=3, replace=False))
        with oracle_precision():
            b = sg.restricted_mle(sg.LOGISTIC, data, active, np.zeros(3), cfg)
        full = np.zeros(12)
        full[active] = b
        assert res.nll <= negative_log_likelihood(sg.LOGISTIC, data, full) + 1e-10


def test_oracle_refuses_oversized_enumerations():
    rng = make_rng(3)
    data = sg.Dataset(rng.standard_normal((60, 50)), rng.standard_normal(60))
    with pytest.raises(ValueError, match="enumeration budget"):
        best_subset_exhaustive(sg.GAUSSIAN, data, 25)


def test_oracle_breaks_exact_ties_lexicographically():
    rng = make_rng(29)
    X = rng.standard_normal((40, 3))
    X[:, 2] = X[:, 0]
    y = X[:, 0] * 2.0 + 0.1 * rng.standard_normal(40)
    res = best_subset_exhaustive(sg.GAUSSIAN, sg.Dataset(X, y), 1)
    assert res.support.tolist() == [0]


@pytest.mark.parametrize("t", [-1, 5])
def test_oracle_validates_subset_size(t):
    data, _, _ = gaussian_instance(5, 20, 4, 1)
    with pytest.raises(ValueError, match="t must lie"):
        best_subset_exhaustive(sg.GAUSSIAN, data, t)


def test_oracle_size_zero_is_the_null_model():
    data, _, _ = gaussian_instance(5, 20, 4, 1)
    res = best_subset_exhaustive(sg.GAUSSIAN, data, 0)
    assert res.support.size == 0
    assert res.nll == pytest.approx(
        negative_log_likelihood(sg.GAUSSIAN, data, np.zeros(4))
    )


def test_finite_difference_gradient_matches_analytic():
    for family, maker in ((sg.LOGISTIC, logistic_instance), (sg.GAUSSIAN, gaussian_instance)):
        data, _, _ = maker(19, 50, 7, 2)
        beta = make_rng(19, 5).standard_normal(7) * 0.4
        analytic = gradient(family, data, beta)
        numeric = finite_difference_gradient(family, data, beta)
        assert np.max(np.abs(analytic - numeric)) <= 1e-6
