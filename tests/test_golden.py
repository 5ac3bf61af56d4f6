"""Golden regression: seeded fits keep their supports, terminations and
iteration counts exactly, and their intercepts to rel 1e-10.

The expected values in GOLDEN were recorded from the solver as it stood
before the one-pass refactor (sparse linear predictor, implicit intercept,
reused certificate dual).  A change that alters any of them changes what the
solver computes, not only how fast it computes it.  To re-record after a
deliberate change of results, print `{name: run(name) for name in CASES}`.
"""

import numpy as np
import pytest

import sdar_glm as sg
from sdar_glm.rng import make_rng

from helpers import gaussian_instance, logistic_instance


def _oscillating():
    # near-duplicate columns at a small sample size make the support cycle
    rng = make_rng(188)
    X = rng.standard_normal((12, 8))
    X[:, 4:] = X[:, :4] + 0.05 * rng.standard_normal((12, 4))
    return sg.Dataset(X, rng.standard_normal(12))


def _ar1(seed, n, p, k, rho):
    sim = sg.SimConfig(n=n, p=p, k=k, rho=rho, range_ratio=10.0, scheme=sg.SCHEME_AR1, seed=seed)
    return sg.generate_instance(sim)[0]


def _shifted(data, offset):
    """The same design with a constant added to every response."""
    return sg.Dataset(data.X, data.y + offset)


def _with_offset_labels(seed, n, p, k, offset):
    """Logistic labels drawn with a nonzero true intercept."""
    X = make_rng(seed, 0).standard_normal((n, p))
    beta, _ = sg.gen_coefficients(p, k, 0.6, 1.2, make_rng(seed, 1))
    theta = X @ beta + offset
    y = (make_rng(seed, 2).random(n) < 1.0 / (1.0 + np.exp(-theta))).astype(float)
    return sg.Dataset(X, y)


# name -> (family, data builder, SdarConfig keyword arguments)
CASES = {
    "logistic-iid-a": (sg.LOGISTIC, lambda: logistic_instance(1, 150, 40, 4)[0], {"sparsity_t": 4}),
    "logistic-iid-b": (sg.LOGISTIC, lambda: logistic_instance(2, 120, 60, 3)[0], {"sparsity_t": 5}),
    "logistic-ar1": (sg.LOGISTIC, lambda: _ar1(3, 200, 300, 8, 0.9), {"sparsity_t": 12}),
    "logistic-ar1-tau": (
        sg.LOGISTIC, lambda: _ar1(4, 150, 200, 6, 0.7), {"sparsity_t": 6, "step_size_tau": 0.5}
    ),
    "logistic-intercept": (
        sg.LOGISTIC, lambda: _with_offset_labels(5, 300, 50, 3, 0.8),
        {"sparsity_t": 3, "with_intercept": True},
    ),
    "logistic-ar1-intercept": (
        sg.LOGISTIC, lambda: _ar1(8, 200, 300, 8, 0.9), {"sparsity_t": 12, "with_intercept": True}
    ),
    "gaussian-iid": (sg.GAUSSIAN, lambda: gaussian_instance(7, 80, 30, 3)[0], {"sparsity_t": 3}),
    "gaussian-overfit": (sg.GAUSSIAN, lambda: gaussian_instance(8, 60, 40, 3)[0], {"sparsity_t": 9}),
    "gaussian-intercept": (
        sg.GAUSSIAN, lambda: _shifted(gaussian_instance(9, 80, 30, 4)[0], 2.5),
        {"sparsity_t": 4, "with_intercept": True},
    ),
    "gaussian-cycle": (sg.GAUSSIAN, _oscillating, {"sparsity_t": 2}),
    "gaussian-budget": (sg.GAUSSIAN, _oscillating, {"sparsity_t": 2, "max_outer_iters": 1}),
    "gaussian-cycle-intercept": (
        sg.GAUSSIAN, lambda: _shifted(gaussian_instance(0, 50, 40, 5)[0], 1.0),
        {"sparsity_t": 8, "with_intercept": True},
    ),
}

PATH_CASE = (sg.LOGISTIC, lambda: _with_offset_labels(11, 150, 40, 3, -0.5))

# one replication of the C6 cell (n = 400, p = 500, K = 6, AR(1) rho = 0.3,
# R = 10); the default budget floor(400 / log 400) is 66 levels
C6_SIM = sg.SimConfig(n=400, p=500, k=6, rho=0.3, range_ratio=10.0, scheme=sg.SCHEME_AR1, seed=400)
C6_REP = 1


def _summary(fit):
    return (fit.support.tolist(), fit.termination.value, fit.iters, fit.intercept)


def run(name):
    family, build, kwargs = CASES[name]
    return _summary(sg.gsdar_fit(family, build(), sg.SdarConfig(**kwargs)))


def run_path():
    family, build = PATH_CASE
    cfg = sg.AgsdarConfig(max_support_q=8, inner=sg.SdarConfig(sparsity_t=1, with_intercept=True))
    result = sg.agsdar_fit(family, build(), cfg)
    return result.selected_t, [(pt.t,) + _summary(pt.fit) for pt in result.fits]


GOLDEN = {
    "logistic-iid-a": ([3, 6, 27, 30], "support_stationary", 1, 0.0),
    "logistic-iid-b": ([6, 10, 17, 33, 44], "support_stationary", 1, 0.0),
    "logistic-ar1": ([72, 149, 151, 181, 184, 185, 186, 187, 188, 204, 257, 259], "support_stationary", 4, 0.0),
    "logistic-ar1-tau": ([60, 155, 156, 157, 158, 159], "support_stationary", 1, 0.0),
    "logistic-intercept": ([17, 20, 45], "support_stationary", 1, 0.7414042067730596),
    "logistic-ar1-intercept": ([4, 6, 7, 8, 10, 12, 13, 15, 102, 236, 271, 286], "support_stationary", 4, -4.657876443918266),
    "gaussian-iid": ([6, 14, 24], "support_stationary", 1, 0.0),
    "gaussian-overfit": ([10, 12, 13, 19, 26, 30, 31, 35, 39], "support_stationary", 8, 0.0),
    "gaussian-intercept": ([4, 12, 22, 26], "support_stationary", 2, 2.5288326737526754),
    "gaussian-cycle": ([5, 7], "cycle_detected", 3, 0.0),
    "gaussian-budget": ([3, 7], "max_iters", 1, 0.0),
    "gaussian-cycle-intercept": ([4, 8, 18, 19, 20, 22, 25, 26], "cycle_detected", 4, 0.9865094897507727),
}

GOLDEN_PATH = (3, [
    (0, [], "support_stationary", 0, 0.0),
    (1, [21], "support_stationary", 1, -0.5758268230383786),
    (2, [21, 34], "support_stationary", 1, -0.6782381997981789),
    (3, [8, 21, 34], "support_stationary", 1, -0.7690376519441219),
    (4, [8, 21, 27, 34], "support_stationary", 1, -0.7443152688659644),
    (5, [8, 10, 21, 27, 34], "support_stationary", 1, -0.8163331101751797),
    (6, [8, 10, 21, 27, 32, 34], "support_stationary", 1, -0.8099622868922166),
    (7, [8, 10, 21, 25, 27, 32, 34], "support_stationary", 1, -0.8415648683405521),
    (8, [8, 10, 18, 21, 25, 27, 32, 34], "support_stationary", 1, -0.8753171561630563),
])


# selected level and fit of the C6 replication, recorded from a sweep of all
# 66 levels before the HBIC early stop existed
GOLDEN_C6 = (11, ([86, 103, 113, 134, 159, 302, 355, 395, 422, 469, 474], "support_stationary", 1, 0.0))


def _assert_matches(got, want):
    support, termination, iters, intercept = got
    assert (support, termination, iters) == tuple(want[:3])
    assert intercept == pytest.approx(want[3], rel=1e-10, abs=0.0)


@pytest.mark.parametrize("name", sorted(CASES))
def test_fit_matches_recorded_result(name):
    _assert_matches(run(name), GOLDEN[name])


def test_warm_started_path_matches_recorded_result():
    selected_t, levels = run_path()
    want_t, want_levels = GOLDEN_PATH
    assert selected_t == want_t
    assert [lv[0] for lv in levels] == [lv[0] for lv in want_levels]
    for got, want in zip(levels, want_levels):
        _assert_matches(got[1:], want[1:])


def test_c6_path_selects_the_full_sweep_model_from_few_levels():
    data = sg.generate_instance(C6_SIM, C6_REP)[0]
    result = sg.agsdar_fit(sg.LOGISTIC, data, sg.AgsdarConfig())
    want_t, want_fit = GOLDEN_C6
    assert result.selected_t == want_t
    _assert_matches(_summary(result.selected_fit), want_fit)
    fitted = len(result.fits) - 1 + len(result.failures)  # the null point is not fitted
    assert fitted <= 20  # the full sweep fits 66
