"""Sparsity-level path: information criterion, sweep mechanics, selection."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

import sdar_glm as sg
from sdar_glm.families import negative_log_likelihood
from sdar_glm.path import hbic
from sdar_glm.rng import make_rng

from helpers import best_subset_exhaustive, gaussian_instance, logistic_instance


def make_fit(beta_hat, nll):
    beta_hat = np.asarray(beta_hat, dtype=float)
    support = np.flatnonzero(beta_hat)
    return sg.FitResult(
        beta_hat=beta_hat,
        support=support,
        nll=float(nll),
        kkt_residual=0.0,
        iters=1,
        termination=sg.Termination.SUPPORT_STATIONARY,
    )


# --- information criterion ---------------------------------------------------

def test_hbic_matches_hand_computed_value():
    beta = np.zeros(1000)
    beta[[3, 41, 500, 999]] = 1.0
    fit = make_fit(beta, 0.40)
    # 2 * 100 * 0.40 + 4 * log(log 100) * log(1000)
    expected = 80.0 + 4.0 * math.log(math.log(100.0)) * math.log(1000.0)
    got = hbic(fit, n=100, p=1000)
    assert got == pytest.approx(expected, rel=1e-15)
    assert got == pytest.approx(122.19753248851397, abs=1e-12)


def test_hbic_counts_the_support_not_the_nonzeros():
    beta = np.zeros(50)
    beta[7] = 2.0
    fit = make_fit(beta, 0.25)
    fit_padded = sg.FitResult(
        beta_hat=beta,
        support=np.array([7, 9]),  # 9 carries a zero coefficient
        nll=0.25,
        kkt_residual=0.0,
        iters=1,
        termination=sg.Termination.SUPPORT_STATIONARY,
    )
    # the padded coordinate costs one full penalty unit
    penalty = math.log(math.log(40)) * math.log(50)
    assert hbic(fit_padded, 40, 50) > hbic(fit, 40, 50)
    assert hbic(fit_padded, 40, 50) - hbic(fit, 40, 50) == pytest.approx(penalty, rel=1e-12)


def test_hbic_penalty_grows_with_support_at_equal_nll():
    n, p = 200, 300
    values = []
    for size in (0, 1, 3, 7):
        beta = np.zeros(p)
        beta[:size] = 1.0
        values.append(hbic(make_fit(beta, 0.5), n, p))
    assert all(a < b for a, b in zip(values, values[1:]))


def test_hbic_of_the_null_logistic_fit_is_two_n_log_two():
    n = 80
    fit = make_fit(np.zeros(10), math.log(2.0))
    assert hbic(fit, n, 10) == pytest.approx(2.0 * n * math.log(2.0), rel=1e-15)


def test_hbic_needs_three_observations():
    with pytest.raises(ValueError, match="needs n >= 3"):
        hbic(make_fit(np.zeros(4), 0.1), 2, 4)


# --- the sweep ---------------------------------------------------------------

def test_path_selection_agrees_with_exhaustive_search():
    data, _, support = logistic_instance(40, 120, 8, 2)
    res = sg.agsdar_fit(sg.LOGISTIC, data, sg.AgsdarConfig(max_support_q=3))
    assert [pt.t for pt in res.fits] == [0, 1, 2, 3]
    assert res.failures == ()
    for pt in res.fits[1:]:
        assert pt.fit.kkt_residual <= 1e-6  # every level ends at a certified point
    # up to the true size the fits are globally optimal; the chosen level
    # reproduces the exhaustive search and the planted support exactly
    for t in (1, 2):
        oracle = best_subset_exhaustive(sg.LOGISTIC, data, t)
        assert res.fits[t].fit.nll <= oracle.nll + 1e-6
    assert res.selected_t == 2
    assert np.array_equal(res.selected_fit.beta_hat, res.fits[2].fit.beta_hat)
    assert np.array_equal(res.selected_fit.support, support)


def test_null_point_is_analytic():
    data, _, _ = logistic_instance(43, 90, 12, 3)
    res = sg.agsdar_fit(sg.LOGISTIC, data, sg.AgsdarConfig(max_support_q=2))
    null = res.fits[0]
    assert null.t == 0
    assert np.array_equal(null.fit.beta_hat, np.zeros(12))
    assert null.fit.support.size == 0
    assert null.fit.iters == 0
    assert null.fit.nll == pytest.approx(math.log(2.0), abs=1e-15)


def test_a_null_model_whose_nll_overflows_fails_the_path():
    # every residual square of the null model overflows
    X = np.array([[1.0, 0.5], [-1.0, 0.25], [0.5, -1.0], [2.0, 1.0], [-0.5, 0.75]])
    y = np.array([1e160, -1e160, 1e160, -1e160, 1e160])
    with pytest.raises(sg.NumericOverflowError) as err:
        sg.agsdar_fit(sg.GAUSSIAN, sg.Dataset(X, y), sg.AgsdarConfig())
    assert err.value.row == 0
    assert str(err.value) == "negative log-likelihood overflowed at observation 0"


def test_zero_response_gaussian_selects_the_null_model():
    rng = make_rng(47)
    data = sg.Dataset(rng.standard_normal((30, 6)), np.zeros(30))
    res = sg.agsdar_fit(sg.GAUSSIAN, data, sg.AgsdarConfig(max_support_q=3))
    # the null model fits y = 0 exactly, so its HBIC of 0 is below the
    # penalty of every other level and the bound stops the sweep at T = 1
    assert all(pt.hbic == 0.0 for pt in res.fits)
    assert res.selected_t == 0


def test_all_ones_logistic_response_selects_the_null_model():
    X = make_rng(0).standard_normal((400, 100))
    data = sg.Dataset(X, np.ones(400))
    res = sg.agsdar_fit(sg.LOGISTIC, data, sg.AgsdarConfig(max_support_q=3))
    assert res.selected_t == 0
    assert np.array_equal(res.selected_fit.beta_hat, np.zeros(100))
    assert res.selected_fit.nll == pytest.approx(math.log(2.0), abs=1e-15)


def test_per_level_failures_are_recorded_and_skipped(monkeypatch):
    # exactly duplicated integer columns make the T = 2 Hessian singular in
    # exact arithmetic; with the jitter retry disabled that level must fail
    X = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    data = sg.Dataset(X, np.array([1.0, 2.0, 3.5]))
    monkeypatch.setattr(sg.SdarConfig, "ridge_jitter", 0.0)
    cfg = sg.AgsdarConfig(max_support_q=2, warm_start=False)
    res = sg.agsdar_fit(sg.GAUSSIAN, data, cfg)
    assert [t for t, _ in res.failures] == [2]
    assert "active set [0, 1]" in res.failures[0][1]
    assert [pt.t for pt in res.fits] == [0, 1]
    assert res.selected_t == 1


@pytest.mark.parametrize(
    "n, p, expected_max_t",
    [
        (30, 100, 8),    # floor(30 / log 30)
        (300, 1000, 52), # floor(300 / log 300)
        (50, 4, 4),      # clamped by p
        (4, 100, 2),     # floor(4 / log 4) = 2 < n - 1
    ],
)
def test_default_budget_tracks_sample_size(n, p, expected_max_t):
    assert min(int(n / math.log(n)), n - 1, p) == expected_max_t
    rng = make_rng(61)
    X = rng.standard_normal((n, p))
    y = (X[:, 0] > 0).astype(float)
    res = sg.agsdar_fit(sg.LOGISTIC, sg.Dataset(X, y), sg.AgsdarConfig())
    reached = [pt.t for pt in res.fits] + [t for t, _ in res.failures] + list(res.skipped)
    assert max(reached) == expected_max_t


def test_coarser_increment_skips_levels():
    data, _, _ = logistic_instance(67, 80, 10, 2)
    res = sg.agsdar_fit(sg.LOGISTIC, data, sg.AgsdarConfig(increment_theta=2, max_support_q=6))
    assert [pt.t for pt in res.fits] == [0, 2, 4, 6]


def test_warm_and_cold_paths_visit_the_same_certified_levels():
    # warm and cold starts may settle on different stationary supports at
    # levels past the true size, so coefficient equality is not an invariant;
    # the level schedule and the per-level certificates are
    for seed in range(20):
        data, _, _ = logistic_instance(seed, 100, 15, 3)
        warm = sg.agsdar_fit(sg.LOGISTIC, data, sg.AgsdarConfig(max_support_q=5))
        cold = sg.agsdar_fit(
            sg.LOGISTIC, data, sg.AgsdarConfig(max_support_q=5, warm_start=False)
        )
        for res in (warm, cold):
            assert [pt.t for pt in res.fits] == [0, 1, 2, 3, 4, 5]
            assert res.failures == ()
            for pt in res.fits[1:]:
                assert pt.fit.support.size == pt.t
                assert pt.fit.kkt_residual <= 1e-6


def test_path_points_are_strictly_increasing_and_selection_is_a_member():
    data, _, _ = logistic_instance(71, 70, 9, 2)
    res = sg.agsdar_fit(sg.LOGISTIC, data, sg.AgsdarConfig())
    ts = [pt.t for pt in res.fits]
    assert ts == sorted(set(ts))
    assert res.selected_t in ts
    chosen = next(pt for pt in res.fits if pt.t == res.selected_t)
    assert res.selected_fit is chosen.fit
    assert chosen.hbic == min(pt.hbic for pt in res.fits)


def test_selected_nll_matches_its_own_coefficients():
    data, _, _ = logistic_instance(73, 90, 11, 3)
    res = sg.agsdar_fit(sg.LOGISTIC, data, sg.AgsdarConfig())
    recomputed = negative_log_likelihood(sg.LOGISTIC, data, res.selected_fit.beta_hat)
    assert res.selected_fit.nll == pytest.approx(recomputed, rel=1e-12)


# --- the HBIC early stop ------------------------------------------------------

def _assert_early_stop_is_exact(family, data, cfg):
    """The default sweep selects what the full sweep selects, from a prefix of it."""
    early = sg.agsdar_fit(family, data, cfg)
    full = sg.agsdar_fit(family, data, replace(cfg, full_path=True))
    assert early.selected_t == full.selected_t
    assert np.array_equal(early.selected_fit.beta_hat, full.selected_fit.beta_hat)
    assert np.array_equal(early.selected_fit.support, full.selected_fit.support)
    assert early.selected_fit.intercept == full.selected_fit.intercept
    assert len(early.fits) <= len(full.fits)
    for got, want in zip(early.fits, full.fits):
        assert got.t == want.t
        assert np.array_equal(got.fit.beta_hat, want.fit.beta_hat)
        assert got.fit.intercept == want.fit.intercept
        assert got.hbic == want.hbic
    assert full.skipped == ()
    assert early.skipped, "the bound never fired, so nothing was checked"
    first = early.skipped[0]
    penalty = math.log(math.log(data.n)) * math.log(data.p)
    assert first * penalty >= min(pt.hbic for pt in early.fits)
    # every fitted or failed level lies before the first skipped one, and the
    # skipped levels run on to the cap on the same schedule
    assert early.failures == tuple(f for f in full.failures if f[0] < first)
    reached = [pt.t for pt in full.fits] + [t for t, _ in full.failures]
    assert early.skipped == tuple(t for t in sorted(reached) if t >= first)
    return early, full


def _exactness_instance(family, seed, intercept):
    if family is sg.LOGISTIC:
        return logistic_instance(seed, 120, 40, 3)[0]
    data = gaussian_instance(seed, 120, 40, 3, noise=0.5)[0]
    return sg.Dataset(data.X, data.y + (2.0 if intercept else 0.0))


@pytest.mark.parametrize(
    "name, intercept, theta, warm",
    list(itertools.product(["logistic", "gaussian"], [False, True], [1, 2], [True, False])),
)
def test_early_stop_selects_what_the_full_path_selects(name, intercept, theta, warm):
    family = sg.get_family(name)
    for seed in (101, 102):
        data = _exactness_instance(family, seed, intercept)
        cfg = sg.AgsdarConfig(
            increment_theta=theta,
            warm_start=warm,
            inner=sg.SdarConfig(sparsity_t=1, with_intercept=intercept),
        )
        _assert_early_stop_is_exact(family, data, cfg)


def test_early_stop_is_exact_past_a_failed_level(monkeypatch):
    # integer columns 2 and 3 are identical, so every cold-started level that
    # ranks both into its support has an exactly singular Hessian
    rng = make_rng(2)
    X = rng.integers(-3, 4, size=(30, 8)).astype(float)
    X[:, 3] = X[:, 2]
    y = 3.0 * X[:, 0] - 2.0 * X[:, 1] + 0.5 * X[:, 2] + 0.5 * rng.standard_normal(30)
    monkeypatch.setattr(sg.SdarConfig, "ridge_jitter", 0.0)
    cfg = sg.AgsdarConfig(warm_start=False)
    early, full = _assert_early_stop_is_exact(sg.GAUSSIAN, sg.Dataset(X, y), cfg)
    assert [t for t, _ in early.failures] == [4, 5, 6]
    assert early.skipped == (7, 8)
    assert [t for t, _ in full.failures] == [4, 5, 6, 7, 8]


def test_early_stop_ends_a_noiseless_sweep_at_the_true_size():
    # the exact fit at T = 2 has an HBIC of about its penalty, which the
    # penalty of T = 3 alone exceeds
    rng = make_rng(53)
    X = rng.standard_normal((60, 10))
    beta = np.zeros(10)
    beta[[2, 7]] = [1.0, -2.0]
    data = sg.Dataset(X, X @ beta)
    early, _ = _assert_early_stop_is_exact(sg.GAUSSIAN, data, sg.AgsdarConfig(max_support_q=8))
    assert [pt.t for pt in early.fits] == [0, 1, 2]
    assert early.skipped == (3, 4, 5, 6, 7, 8)
    assert early.selected_t == 2


def test_path_needs_three_observations():
    data = sg.Dataset(np.ones((2, 3)), np.zeros(2))
    with pytest.raises(ValueError, match="needs n >= 3"):
        sg.agsdar_fit(sg.GAUSSIAN, data, sg.AgsdarConfig())


@pytest.mark.parametrize(
    "kwargs",
    [
        {"increment_theta": 0},
        {"max_support_q": 0},
    ],
)
def test_path_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        sg.AgsdarConfig(**kwargs)

