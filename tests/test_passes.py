"""Work a fit does: full passes over X, the size of every linear predictor,
the Newton steps and value evaluations of the restricted solves, and the
memory an intercept fit allocates.  Counts, never wall-clock time."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import sdar_glm as sg
from sdar_glm import families, path, solver

from helpers import best_subset_exhaustive, gaussian_instance, logistic_instance
from test_golden import C6_REP, C6_SIM, CASES as GOLDEN_CASES, PATH_BYTE_CASES, PATH_CASE

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


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_fit_carries_the_dual_at_its_coefficients(name):
    family, build, kwargs = GOLDEN_CASES[name]
    data = build()
    fit = sg.gsdar_fit(family, data, sg.SdarConfig(**kwargs))
    want = -families.gradient(family, data, fit.beta_hat, fit.intercept)
    assert fit.dual.tobytes() == want.tobytes()


@pytest.mark.parametrize("with_intercept", [False, True])
@pytest.mark.parametrize("family, build, t", CASES, ids=["logistic", "gaussian"])
def test_a_refit_from_zero_reuses_the_datasets_null_dual(monkeypatch, family, build, t, with_intercept):
    data = build()
    cfg = sg.SdarConfig(sparsity_t=t, with_intercept=with_intercept)
    # theta = 0 with or without an intercept, so either fit keeps -grad L(0)
    sg.gsdar_fit(family, data, replace(cfg, with_intercept=not with_intercept))
    calls = _counting(monkeypatch, solver, "gradient")
    again = sg.gsdar_fit(family, data, cfg)
    assert len(calls) == again.iters  # one per restricted solve, none for -grad L(0)
    fresh = sg.gsdar_fit(family, build(), cfg)
    for name in ("beta_hat", "dual"):
        assert getattr(again, name).tobytes() == getattr(fresh, name).tobytes()
    for name in ("nll", "kkt_residual", "iters", "termination", "intercept"):
        assert getattr(again, name) == getattr(fresh, name)


@pytest.mark.parametrize("family, build, t", CASES, ids=["logistic", "gaussian"])
@pytest.mark.parametrize("start", ["beta0", "intercept0", "family"])
def test_a_start_off_zero_or_a_new_family_costs_a_pass(monkeypatch, family, build, t, start):
    data = build()
    cfg = sg.SdarConfig(sparsity_t=t, with_intercept=True)
    sg.gsdar_fit(family, data, cfg)  # keeps -grad L(0) of `family`
    kwargs = {}
    if start == "beta0":
        kwargs["beta0"] = np.zeros(data.p)
        kwargs["beta0"][0] = 0.1
    elif start == "intercept0":
        kwargs["intercept0"] = 0.3
    else:
        family = type(family)()  # an equal family, but another object
    calls = _counting(monkeypatch, solver, "gradient")
    fit = sg.gsdar_fit(family, data, cfg, **kwargs)
    assert len(calls) == 1 + fit.iters


def test_a_kept_null_dual_is_read_only():
    family, build, t = CASES[0]
    data = build()
    sg.gsdar_fit(family, data, sg.SdarConfig(sparsity_t=t))
    (dual,) = data._null_duals.values()
    assert dual.tobytes() == (-families.gradient(family, data, np.zeros(data.p))).tobytes()
    with pytest.raises(ValueError, match="read-only"):
        dual[0] = 0.0


@pytest.mark.parametrize("warm_start", [True, False])
@pytest.mark.parametrize("name", ["c6-rep1", "gaussian-intercept-3"])
def test_path_makes_one_gradient_pass_per_outer_iteration_plus_one(monkeypatch, name, warm_start):
    family, build, full = PATH_BYTE_CASES[name]
    data = build()
    calls = _counting(monkeypatch, solver, "gradient")
    res = sg.agsdar_fit(family, data, replace(full, max_support_q=12, warm_start=warm_start))
    levels = len(res.fits) - 1  # the null point is not fitted
    assert levels == 12
    iters = sum(pt.fit.iters for pt in res.fits)
    # a warm-started level starts from the dual its predecessor handed over,
    # and a cold-started one from the -grad L(0) the first level computed
    assert len(calls) == 1 + iters


def test_level_after_a_failure_starts_from_the_last_success(monkeypatch):
    family, build, full = PATH_BYTE_CASES["c6-rep1"]
    data = build()
    fit_level = path.gsdar_fit

    def fail_at_three(family, data, cfg, *args, **kwargs):
        if cfg.sparsity_t == 3:
            raise sg.SingularSystemError([0, 1, 2])
        return fit_level(family, data, cfg, *args, **kwargs)

    monkeypatch.setattr(path, "gsdar_fit", fail_at_three)
    calls = _counting(monkeypatch, solver, "gradient")
    res = sg.agsdar_fit(family, data, replace(full, max_support_q=5))
    assert [t for t, _ in res.failures] == [3]
    fits = {pt.t: pt.fit for pt in res.fits}
    assert sorted(fits) == [0, 1, 2, 4, 5]
    assert len(calls) == 1 + sum(fit.iters for fit in fits.values())
    # level 4 is the fit that starts from level 2's coefficients and
    # computes its own initial dual
    want = fit_level(family, data, sg.SdarConfig(sparsity_t=4), beta0=fits[2].beta_hat,
                     intercept0=fits[2].intercept)
    got = fits[4]
    assert got.beta_hat.tobytes() == want.beta_hat.tobytes()
    assert (got.nll, got.kkt_residual, got.iters, got.termination) == (
        want.nll, want.kkt_residual, want.iters, want.termination
    )


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


def _counting_family(family):
    """A copy of `family` that counts Newton steps (variance calls) and value
    evaluations (nll calls, and the cumulant calls the logistic nll makes)."""
    calls = {"variance": 0, "cumulant": 0, "nll": 0}

    class Counting(type(family)):
        def variance(self, theta):
            calls["variance"] += 1
            return super().variance(theta)

        def cumulant(self, theta):
            calls["cumulant"] += 1
            return super().cumulant(theta)

        def nll(self, y, theta):
            calls["nll"] += 1
            return super().nll(y, theta)

    return Counting(), calls


# (variance, cumulant, nll) calls of the golden fits, the golden path and the
# default C6 path, recorded before the direct Cholesky solve and the reused
# line-search theta; the Gaussian nll is the residual form, without c(theta)
GOLDEN_WORK = {
    "gaussian-budget": (1, 0, 3),
    "gaussian-cycle": (3, 0, 9),
    "gaussian-cycle-intercept": (4, 0, 12),
    "gaussian-iid": (1, 0, 3),
    "gaussian-intercept": (2, 0, 6),
    "gaussian-overfit": (8, 0, 24),
    "logistic-ar1": (20, 28, 28),
    "logistic-ar1-intercept": (31, 107, 107),
    "logistic-ar1-tau": (7, 9, 9),
    "logistic-iid-a": (6, 8, 8),
    "logistic-iid-b": (6, 8, 8),
    "logistic-intercept": (5, 7, 7),
    "path": (29, 46, 46),
    "c6-path": (57, 207, 207),
}


def _run_counted(name):
    if name == "path":
        family, build = PATH_CASE
        inner = sg.SdarConfig(sparsity_t=1, with_intercept=True)
        counted, calls = _counting_family(family)
        sg.agsdar_fit(counted, build(), sg.AgsdarConfig(max_support_q=8, inner=inner))
    elif name == "c6-path":
        counted, calls = _counting_family(sg.LOGISTIC)
        sg.agsdar_fit(counted, sg.generate_instance(C6_SIM, C6_REP)[0], sg.AgsdarConfig())
    else:
        family, build, kwargs = GOLDEN_CASES[name]
        counted, calls = _counting_family(family)
        sg.gsdar_fit(counted, build(), sg.SdarConfig(**kwargs))
    return calls["variance"], calls["cumulant"], calls["nll"]


@pytest.mark.parametrize("name", sorted(GOLDEN_WORK))
def test_golden_fits_take_their_recorded_newton_steps_and_evaluations(name):
    assert _run_counted(name) == GOLDEN_WORK[name]


def test_c2_instance_set_takes_its_recorded_newton_steps_and_evaluations():
    # the fits and oracle solves of C2: a solve stops when its line-search
    # candidate has the bits of its iterate, rather than repeating that
    # rounded-away step until newton_max_iters (14 794 Newton steps and
    # 176 161 evaluations before that stop)
    counted, calls = _counting_family(sg.LOGISTIC)
    for seed in range(50):
        data, _, _ = logistic_instance(seed, 100, 10, 2)
        sg.gsdar_fit(counted, data, sg.SdarConfig(sparsity_t=2))
        best_subset_exhaustive(counted, data, 2)
    assert (calls["variance"], calls["cumulant"]) == (9431, 21411)
