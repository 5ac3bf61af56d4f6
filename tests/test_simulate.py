"""Synthetic designs, coefficient draws, recovery metrics, replication loop."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import expit

import sdar_glm as sg
from sdar_glm.rng import make_rng

from helpers import ar1_design_with_separate_draws, count_finite_scans


# --- configuration -----------------------------------------------------------

def test_banded_bounds_are_set_by_the_dimensions():
    cfg = sg.SimConfig(n=300, p=5000, k=10, rho=0.2, scheme=sg.SCHEME_BANDED)
    m1, m2 = cfg.coefficient_bounds()
    assert m1 == 5.0 * math.sqrt(2.0 * math.log(5000.0) / 300)
    assert m1 == pytest.approx(1.1914412274927257, abs=1e-15)
    assert m2 == 100.0 * m1
    assert cfg.signed_coefficients


def test_ar1_bounds_are_one_to_range_ratio():
    cfg = sg.SimConfig(n=50, p=20, k=3, rho=0.5, range_ratio=7.0, scheme=sg.SCHEME_AR1)
    assert cfg.coefficient_bounds() == (1.0, 7.0)
    assert not cfg.signed_coefficients


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"n": 10, "p": 10, "k": 2, "scheme": "toeplitz"}, "scheme must be"),
        ({"n": 0, "p": 10, "k": 0}, "must be positive"),
        ({"n": 10, "p": 5, "k": 6}, "k must lie"),
        ({"n": 10, "p": 5, "k": -1}, "k must lie"),
        ({"n": 10, "p": 2, "k": 1}, "needs p >= 3"),
        ({"n": 10, "p": 5, "k": 1, "rho": -0.1}, "rho must be nonnegative"),
        ({"n": 10, "p": 5, "k": 1, "rho": 1.0, "scheme": sg.SCHEME_AR1}, "rho in"),
        (
            {"n": 10, "p": 5, "k": 1, "range_ratio": 1.0, "scheme": sg.SCHEME_AR1},
            "range_ratio must exceed 1",
        ),
        ({"n": 10, "p": 5, "k": 1, "rho": math.inf}, "rho must be nonnegative"),
        ({"n": 10, "p": 5, "k": 1, "rho": math.nan}, "rho must be nonnegative"),
        ({"n": 10, "p": 5, "k": 1, "rho": 1e308}, "rho must be nonnegative"),
        ({"n": 20, "p": 5, "k": 1, "rho": 5e307}, "rho must be nonnegative"),
        ({"n": 10, "p": 5, "k": 1, "rho": math.nan, "scheme": sg.SCHEME_AR1}, "rho in"),
        (
            {"n": 10, "p": 5, "k": 1, "range_ratio": math.inf, "scheme": sg.SCHEME_AR1},
            "range_ratio must be finite, got inf",
        ),
        (
            {"n": 10, "p": 5, "k": 1, "range_ratio": math.nan, "scheme": sg.SCHEME_AR1},
            "range_ratio must be finite, got nan",
        ),
        ({"n": 10, "p": 5, "k": 1, "seed": -1}, "^seed must be >= 0, got -1$"),
    ],
)
def test_sim_config_rejects_bad_values(kwargs, message):
    with pytest.raises(ValueError, match=message):
        sg.SimConfig(**kwargs)


def test_the_banded_rho_bound_admits_a_finite_design_at_n_20():
    # (1 + 2 rho) sqrt(20) is about 8.9e307 at rho = 1e307, under half the
    # largest float; at 5e307 it is past it (see the rejection cases above)
    data, _, _ = sg.generate_instance(sg.SimConfig(n=20, p=10, k=2, rho=1e307))
    assert np.isfinite(data.X).all()
    assert np.abs(data.X).max() <= (1.0 + 2.0 * 1e307) * math.sqrt(20)


def cell_floats(admitted):
    """Values the ar1 rule admits, the edges of every float rule, and floats
    of any size."""
    edges = st.sampled_from([0.0, 1.0, -1.0, 1e307, 5e307, 1e308, math.inf, -math.inf, math.nan])
    return admitted | edges | st.floats()


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 6),
    p=st.integers(1, 6),
    k=st.integers(0, 3),
    rho=cell_floats(st.floats(0.0, 1.0, exclude_max=True)),
    range_ratio=cell_floats(st.floats(1.0, 1e308, exclude_min=True)),
    scheme=st.sampled_from([sg.SCHEME_BANDED, sg.SCHEME_AR1]),
    seed=st.integers(0, 2**32),
)
def test_every_cell_a_sim_config_admits_draws_a_finite_instance(
    n, p, k, rho, range_ratio, scheme, seed
):
    # SimConfig is the only check: what it admits is drawn finite, with no
    # RuntimeWarning (an error in this suite), and is not scanned again
    try:
        cfg = sg.SimConfig(n=n, p=p, k=k, rho=rho, range_ratio=range_ratio,
                           scheme=scheme, seed=seed)
    except ValueError:
        return
    data, beta_star, support_star = sg.generate_instance(cfg)
    assert np.isfinite(data.X).all() and np.isfinite(data.y).all()
    assert set(np.unique(data.y)) <= {0.0, 1.0}
    assert np.isfinite(beta_star).all() and support_star.size == k


@pytest.mark.parametrize("scheme", [sg.SCHEME_BANDED, sg.SCHEME_AR1])
def test_generate_instance_does_not_rescan_the_design(scheme, monkeypatch):
    scans = count_finite_scans(monkeypatch, lambda shape: len(shape) == 2)
    sg.generate_instance(sg.SimConfig(n=30, p=8, k=2, rho=0.3, scheme=scheme))
    assert scans == []


# --- designs -----------------------------------------------------------------

def test_banded_columns_are_normalized_before_mixing():
    n = 500
    X = sg.gen_design_banded(n, 6, 0.0, make_rng(1))
    assert np.allclose(np.linalg.norm(X, axis=0), math.sqrt(n), rtol=1e-12)


def test_banded_edge_columns_are_left_unmixed():
    n, p, rho = 2000, 8, 0.5
    X = sg.gen_design_banded(n, p, rho, make_rng(2))
    norms = np.linalg.norm(X, axis=0)
    assert norms[0] == pytest.approx(math.sqrt(n), rel=1e-12)
    assert norms[-1] == pytest.approx(math.sqrt(n), rel=1e-12)
    # interior columns pick up the two neighbors: variance about 1 + 2 rho^2
    inner = norms[1:-1] / math.sqrt(n)
    assert np.allclose(inner, math.sqrt(1.0 + 2.0 * rho * rho), atol=0.1)


def test_banded_neighbor_correlation_matches_the_mixing_formula():
    # edge col 0 is xb_0; col 1 is xb_1 + rho (xb_0 + xb_2), so their
    # correlation is rho / sqrt(1 + 2 rho^2) up to sampling noise
    n, rho = 10_000, 0.5
    X = sg.gen_design_banded(n, 3, rho, make_rng(3))
    r = np.corrcoef(X[:, 0], X[:, 1])[0, 1]
    assert r == pytest.approx(rho / math.sqrt(1.0 + 2.0 * rho * rho), abs=0.02)
    assert r == pytest.approx(0.4082482904638631, abs=0.02)


def test_ar1_is_white_at_rho_zero():
    X = sg.gen_design_ar1(10_000, 4, 0.0, make_rng(4))
    assert np.var(X, axis=0) == pytest.approx(np.ones(4), abs=0.05)
    assert abs(np.corrcoef(X[:, 0], X[:, 1])[0, 1]) < 0.05


def test_ar1_lag_two_correlation_is_rho_squared():
    rho = 0.7
    X = sg.gen_design_ar1(20_000, 3, rho, make_rng(5))
    r = np.corrcoef(X[:, 0], X[:, 2])[0, 1]
    assert r == pytest.approx(rho * rho, abs=0.02)


def test_ar1_empirical_covariance_matches_the_target_matrix():
    rho, p, n = 0.6, 5, 100_000
    X = sg.gen_design_ar1(n, p, rho, make_rng(6))
    emp = X.T @ X / n
    idx = np.arange(p)
    target = rho ** np.abs(idx[:, None] - idx[None, :])
    assert np.max(np.abs(emp - target)) <= 0.02


@pytest.mark.parametrize("maker", [sg.gen_design_banded, sg.gen_design_ar1])
def test_designs_are_deterministic_in_the_seed(maker):
    a = maker(40, 6, 0.3, 123)
    b = maker(40, 6, 0.3, 123)
    c = maker(40, 6, 0.3, 124)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@given(
    n=st.integers(1, 30),
    p=st.integers(1, 30),
    rho=st.sampled_from([0.0, 0.3, 0.9]) | st.floats(0.0, 0.999),
    seed=st.integers(0, 2**32),
)
def test_ar1_in_place_recursion_matches_separate_draws_bit_for_bit(n, p, rho, seed):
    got = sg.gen_design_ar1(n, p, rho, make_rng(seed))
    want = ar1_design_with_separate_draws(n, p, rho, make_rng(seed))
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "maker, bound",
    # the AR(1) draw holds X alone; the banded mix adds one n x (p - 2) sum
    [(sg.gen_design_ar1, 1.25), (sg.gen_design_banded, 2.25)],
)
def test_design_generators_allocate_few_n_by_p_arrays(maker, bound):
    if tracemalloc.is_tracing():
        pytest.skip("tracemalloc is already tracing this process")
    tracemalloc.start()
    try:
        X = maker(200, 5000, 0.3, 7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound * X.nbytes


def test_design_validation():
    with pytest.raises(ValueError, match="p >= 3"):
        sg.gen_design_banded(10, 2, 0.1, 0)
    with pytest.raises(ValueError, match="ar1 scheme needs rho"):
        sg.gen_design_ar1(10, 4, 1.0, 0)


@pytest.mark.parametrize("rho", [math.inf, math.nan, -1.0, -0.1, 1e308])
def test_banded_generator_refuses_the_rho_that_simconfig_refuses(rho):
    # one rule for both: a direct call gets no non-finite design
    with pytest.raises(ValueError, match="^rho must be nonnegative"):
        sg.SimConfig(n=10, p=4, k=1, rho=rho)
    with pytest.raises(ValueError, match="^rho must be nonnegative"):
        sg.gen_design_banded(10, 4, rho, 0)


@pytest.mark.parametrize("rho", [1.0, -0.1, math.nan, math.inf])
def test_ar1_generator_refuses_the_rho_that_simconfig_refuses(rho):
    # one rule and one text for both, the text the CLI prints in a cell's row
    message = r"^the ar1 scheme needs rho in \[0, 1\)$"
    with pytest.raises(ValueError, match=message):
        sg.SimConfig(n=10, p=4, k=1, rho=rho, scheme=sg.SCHEME_AR1)
    with pytest.raises(ValueError, match=message):
        sg.gen_design_ar1(10, 4, rho, 0)


# --- coefficients and responses ----------------------------------------------

def test_gen_coefficients_zero_k_is_the_null_vector():
    beta, support = sg.gen_coefficients(12, 0, 1.0, 2.0, 0)
    assert np.array_equal(beta, np.zeros(12))
    assert support.size == 0


def test_gen_coefficients_magnitudes_and_support():
    beta, support = sg.gen_coefficients(400, 200, 1.0, 3.0, make_rng(8))
    assert support.size == 200
    assert np.array_equal(support, np.sort(support))
    assert np.array_equal(np.flatnonzero(beta), support)
    mags = np.abs(beta[support])
    assert np.all((mags >= 1.0) & (mags <= 3.0))
    assert np.any(beta[support] > 0) and np.any(beta[support] < 0)


def test_gen_coefficients_fixed_signs_are_all_positive():
    beta, support = sg.gen_coefficients(50, 20, 1.0, 3.0, make_rng(9), random_signs=False)
    assert np.all(beta[support] > 0)


def test_gen_coefficients_determinism_and_validation():
    a = sg.gen_coefficients(30, 5, 0.5, 2.0, 77)
    b = sg.gen_coefficients(30, 5, 0.5, 2.0, 77)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    with pytest.raises(ValueError, match="0 < m1 < m2"):
        sg.gen_coefficients(30, 5, 2.0, 1.0, 0)
    for m2 in (math.inf, math.nan):  # no OverflowError from the uniform draw
        with pytest.raises(ValueError, match="0 < m1 < m2 < inf"):
            sg.gen_coefficients(10, 2, 1.0, m2, 0)
    with pytest.raises(ValueError, match="k must lie"):
        sg.gen_coefficients(30, 31, 1.0, 2.0, 0)


def test_bernoulli_responses_follow_the_link():
    n = 100_000
    X = np.ones((n, 1))
    flat = sg.gen_bernoulli_responses(X, np.zeros(1), make_rng(10))
    assert set(np.unique(flat)) <= {0.0, 1.0}
    assert np.mean(flat) == pytest.approx(0.5, abs=0.03)
    sure = sg.gen_bernoulli_responses(X[:200], np.array([40.0]), make_rng(11))
    assert np.all(sure == 1.0)
    tilted = sg.gen_bernoulli_responses(X, np.array([1.0]), make_rng(12))
    assert np.mean(tilted) == pytest.approx(expit(1.0), abs=0.01)
    assert expit(1.0) == pytest.approx(0.7310585786300049, abs=1e-15)


def test_an_overflowing_linear_predictor_is_recomputed_scaled():
    # rows 0 and 1 overflow to +-inf, so y is 1 and 0; row 2 overflows in
    # floating point but cancels to 0, a fair coin; row 3 is computed as before
    X = np.array([[1e300, 0.0], [-1e300, 0.0], [1e300, 1e300], [1e-10, 0.5e-10]])
    beta = np.array([1e10, -1e10])
    theta = np.array([math.inf, -math.inf, 0.0, X[3] @ beta])
    for i in range(20):
        u = make_rng(13, i).random(4)
        y = sg.gen_bernoulli_responses(X, beta, make_rng(13, i))
        assert np.array_equal(y, (u < expit(theta)).astype(float))


# --- instances ---------------------------------------------------------------

def test_generate_instance_uses_documented_streams():
    cfg = sg.SimConfig(n=60, p=20, k=3, rho=0.4, range_ratio=5.0,
                       scheme=sg.SCHEME_AR1, seed=31)
    data, beta_star, support_star = sg.generate_instance(cfg, rep=2)
    X = sg.gen_design_ar1(60, 20, 0.4, make_rng(31, 2, 0))
    beta, support = sg.gen_coefficients(20, 3, 1.0, 5.0, make_rng(31, 2, 1),
                                        random_signs=False)
    y = sg.gen_bernoulli_responses(X, beta, make_rng(31, 2, 2))
    assert np.array_equal(data.X, X)
    assert np.array_equal(beta_star, beta)
    assert np.array_equal(support_star, support)
    assert np.array_equal(data.y, y)


def test_generate_instance_replications_are_independent_draws():
    cfg = sg.SimConfig(n=40, p=12, k=2, rho=0.2, scheme=sg.SCHEME_AR1, seed=5)
    d0, b0, _ = sg.generate_instance(cfg, rep=0)
    d0_again, b0_again, _ = sg.generate_instance(cfg, rep=0)
    d1, _, _ = sg.generate_instance(cfg, rep=1)
    override, _, _ = sg.generate_instance(cfg, rep=0, seed=5)
    assert np.array_equal(d0.X, d0_again.X) and np.array_equal(b0, b0_again)
    assert not np.array_equal(d0.X, d1.X)
    assert np.array_equal(d0.X, override.X)


# --- metrics -----------------------------------------------------------------

def test_reerr_basics():
    b = np.array([1.0, -2.0, 0.0])
    assert sg.metric_reerr(b, b) == 0.0
    assert sg.metric_reerr(np.zeros(3), b) == 1.0
    with pytest.raises(ValueError, match="nonzero"):
        sg.metric_reerr(b, np.zeros(3))


def test_reerr_is_finite_when_the_norm_of_beta_star_overflows():
    star = np.array([1e200, 1e200, 0.0])
    assert sg.metric_reerr(np.zeros(3), star) == 1.0
    assert sg.metric_reerr(star / 2.0, star) == pytest.approx(0.5, rel=1e-15)
    assert sg.metric_reerr(np.array([30.0, -30.0, 1.0]), star) == pytest.approx(1.0, rel=1e-15)


def test_reerr_keeps_the_bits_of_the_plain_ratio_when_the_norms_are_finite():
    rng = make_rng(14)
    for _ in range(50):
        hat, star = rng.standard_normal(8) * 1e150, rng.standard_normal(8) * 1e150
        plain = float(np.linalg.norm(hat - star)) / float(np.linalg.norm(star))
        assert sg.metric_reerr(hat, star) == plain


def test_acrp_counts_matches():
    assert sg.metric_acrp(np.array([1.0, 0.0, 1.0]), np.array([1.0, 0.0, 1.0])) == 1.0
    assert sg.metric_acrp(np.array([1.0, 0.0]), np.array([0.0, 0.0])) == 0.5
    with pytest.raises(ValueError, match="equal-length"):
        sg.metric_acrp(np.array([1.0]), np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="nonempty"):
        sg.metric_acrp(np.array([]), np.array([]))


def test_discovery_rates_on_a_hand_worked_example():
    # two of three true coordinates found, one of three findings spurious
    apdr, afdr, adr = sg.metric_discovery(np.array([1, 2, 3]), np.array([1, 2, 4]))
    assert (apdr, afdr, adr) == (2.0 / 3.0, 1.0 / 3.0, 2.0 / 3.0 + 1.0 - 1.0 / 3.0)


def test_discovery_rate_conventions_for_empty_sets():
    assert sg.metric_discovery(np.array([], dtype=int), np.array([3]))[:2] == (0.0, 0.0)
    assert sg.metric_discovery(np.array([3]), np.array([], dtype=int))[:2] == (1.0, 1.0)
    assert sg.metric_discovery(np.array([], dtype=int), np.array([], dtype=int)) == (1.0, 0.0, 2.0)
    assert sg.metric_discovery(np.array([1, 2]), np.array([1, 2])) == (1.0, 0.0, 2.0)


@given(st.sets(st.integers(0, 30)), st.sets(st.integers(0, 30)))
def test_discovery_rates_satisfy_the_combination_identity(hat, star):
    apdr, afdr, adr = sg.metric_discovery(
        np.array(sorted(hat), dtype=int), np.array(sorted(star), dtype=int)
    )
    assert adr == apdr + 1.0 - afdr
    assert 0.0 <= apdr <= 1.0 and 0.0 <= afdr <= 1.0


# --- replication loop --------------------------------------------------------

def test_run_replications_single_rep_matches_a_manual_replication():
    sim = sg.SimConfig(n=80, p=30, k=3, rho=0.3, scheme=sg.SCHEME_AR1, seed=101)
    cfg = sg.SdarConfig(sparsity_t=3)
    report = sg.run_replications(sim, cfg, reps=1)

    data, beta_star, support_star = sg.generate_instance(sim, 0, 101)
    fit = sg.gsdar_fit(sg.LOGISTIC, data, cfg)
    labels = (data.X @ fit.beta_hat + fit.intercept >= 0.0).astype(float)
    apdr, afdr, adr = sg.metric_discovery(fit.support, support_star)

    assert report.failures == 0
    assert report.reerr == pytest.approx(sg.metric_reerr(fit.beta_hat, beta_star), rel=1e-12)
    assert report.acrp == pytest.approx(sg.metric_acrp(labels, data.y), rel=1e-12)
    assert report.apdr == pytest.approx(apdr, rel=1e-12)
    assert report.afdr == pytest.approx(afdr, rel=1e-12)
    assert report.adr == pytest.approx(adr, rel=1e-12)
    assert report.iters_avg == float(fit.iters)


def test_run_replications_scores_on_the_held_out_part():
    sim = sg.SimConfig(n=120, p=30, k=3, rho=0.3, scheme=sg.SCHEME_AR1, seed=103)
    cfg = sg.SdarConfig(sparsity_t=3)
    report = sg.run_replications(sim, cfg, reps=1, train_fraction=0.75)

    data, _, _ = sg.generate_instance(sim, 0, 103)
    train, test = sg.train_test_split(data, 90, seed=make_rng(103, 0, 3))  # 0.75 * 120 rows
    fit = sg.gsdar_fit(sg.LOGISTIC, train, cfg)
    labels = (test.X @ fit.beta_hat + fit.intercept >= 0.0).astype(float)
    assert report.acrp == pytest.approx(sg.metric_acrp(labels, test.y), rel=1e-12)


def test_run_replications_is_deterministic_and_accepts_a_path_solver():
    sim = sg.SimConfig(n=60, p=15, k=2, rho=0.1, scheme=sg.SCHEME_AR1, seed=7)
    solver = sg.AgsdarConfig(max_support_q=3)
    a = sg.run_replications(sim, solver, reps=3)
    b = sg.run_replications(sim, solver, reps=3)
    assert a == b
    assert a.failures == 0
    assert np.isfinite(a.iters_avg)


def test_run_replications_counts_failures_and_reports_nan_when_all_fail(monkeypatch):
    def boom(family, data, cfg, beta0=None, intercept0=0.0):
        raise sg.SingularSystemError(np.array([0]))

    monkeypatch.setattr("sdar_glm.simulate.gsdar_fit", boom)
    sim = sg.SimConfig(n=30, p=8, k=1, rho=0.0, scheme=sg.SCHEME_AR1, seed=1)
    report = sg.run_replications(sim, sg.SdarConfig(sparsity_t=1), reps=4)
    assert report.failures == 4
    assert math.isnan(report.reerr) and math.isnan(report.acrp)
    assert math.isnan(report.apdr) and math.isnan(report.iters_avg)


def test_run_replications_rejects_nonpositive_reps():
    sim = sg.SimConfig(n=30, p=8, k=1, scheme=sg.SCHEME_AR1)
    with pytest.raises(ValueError, match="reps"):
        sg.run_replications(sim, sg.SdarConfig(sparsity_t=1), reps=0)


@pytest.mark.parametrize("fraction", [0.0, 1.2, 1.5, -0.5, math.nan])
def test_run_replications_checks_the_fraction_before_any_draw(monkeypatch, fraction):
    drawn = []
    real = sg.simulate.generate_instance
    monkeypatch.setattr("sdar_glm.simulate.generate_instance",
                        lambda *args: drawn.append(args) or real(*args))
    sim = sg.SimConfig(n=30, p=8, k=1, scheme=sg.SCHEME_AR1)
    with pytest.raises(ValueError, match=r"^train_fraction must lie in \(0, 1\], got "):
        sg.run_replications(sim, sg.SdarConfig(sparsity_t=1), reps=2, train_fraction=fraction)
    assert drawn == []


def test_run_replications_rounds_the_fraction_to_the_nearest_count(monkeypatch):
    sizes = []
    real = sg.simulate.train_test_split
    monkeypatch.setattr("sdar_glm.simulate.train_test_split",
                        lambda data, size, seed: sizes.append(size) or real(data, size, seed))
    sim = sg.SimConfig(n=5, p=3, k=1, scheme=sg.SCHEME_AR1, seed=2)
    cfg = sg.SdarConfig(sparsity_t=1)
    sg.run_replications(sim, cfg, reps=2, train_fraction=0.5)
    assert sizes == [2, 2]  # round-half-to-even on 2.5
    # the fraction 1.0 trains on every row, in order, and scores in-sample
    full = sg.run_replications(sim, cfg, reps=2, train_fraction=1.0)
    assert sizes[2:] == [5, 5]
    assert full == sg.run_replications(sim, cfg, reps=2)
