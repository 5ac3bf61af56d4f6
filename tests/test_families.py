"""GLM building blocks: losses, derivatives, and input validation."""

import copy
import math
import pickle

import numpy as np
import pytest

import sdar_glm as sg
from sdar_glm.rng import make_rng

from helpers import (
    finite_difference_gradient,
    gaussian_instance,
    logistic_instance,
    restricted_hessian,
)


# --- cumulant / mean / variance -------------------------------------------

def test_logistic_cumulant_at_zero_is_log_two():
    assert sg.LOGISTIC.cumulant(np.array([0.0]))[0] == pytest.approx(math.log(2.0), abs=1e-15)


def test_logistic_cumulant_is_overflow_safe():
    theta = np.array([-800.0, -700.0, 700.0, 800.0])
    c = sg.LOGISTIC.cumulant(theta)
    assert np.all(np.isfinite(c))
    # log(1 + e^t) -> t for large t and -> 0 for very negative t
    assert c[3] == 800.0
    assert c[0] == 0.0


def test_logistic_mean_at_one_is_sigmoid_of_one():
    # e / (1 + e), written out so the expected value is independent arithmetic
    e = math.e
    assert sg.LOGISTIC.mean(np.array([1.0]))[0] == pytest.approx(e / (1.0 + e), abs=1e-15)


@pytest.mark.parametrize("family", [sg.LOGISTIC, sg.GAUSSIAN])
def test_cumulant_derivative_is_mean(family):
    theta = np.linspace(-6.0, 6.0, 41)
    h = 1e-6
    fd = (family.cumulant(theta + h) - family.cumulant(theta - h)) / (2.0 * h)
    assert np.allclose(fd, family.mean(theta), atol=1e-8)


@pytest.mark.parametrize("family", [sg.LOGISTIC, sg.GAUSSIAN])
def test_mean_derivative_is_variance(family):
    theta = np.linspace(-6.0, 6.0, 41)
    h = 1e-6
    fd = (family.mean(theta + h) - family.mean(theta - h)) / (2.0 * h)
    assert np.allclose(fd, family.variance(theta), atol=1e-8)


@pytest.mark.parametrize("family", [sg.LOGISTIC, sg.GAUSSIAN])
def test_cumulant_is_midpoint_convex(family):
    theta = np.linspace(-30.0, 30.0, 201)
    a, b = theta[:-1], theta[1:]
    mid = family.cumulant((a + b) / 2.0)
    assert np.all(mid <= (family.cumulant(a) + family.cumulant(b)) / 2.0 + 1e-12)


@pytest.mark.parametrize("family", [sg.LOGISTIC, sg.GAUSSIAN])
def test_variance_is_nonnegative(family):
    theta = np.linspace(-50.0, 50.0, 101)
    assert np.all(family.variance(theta) >= 0.0)


def test_get_family_is_case_insensitive():
    assert sg.get_family("logistic") is sg.LOGISTIC
    assert sg.get_family("GAUSSIAN") is sg.GAUSSIAN


def test_get_family_rejects_unknown_names():
    with pytest.raises(ValueError, match="unknown family"):
        sg.get_family("poisson")


def test_logistic_check_response_lists_offenders():
    sg.LOGISTIC.check_response(np.array([0.0, 1.0, 1.0]))  # no raise
    with pytest.raises(ValueError, match=r"0, 1"):
        sg.LOGISTIC.check_response(np.array([0.0, 2.0, 0.5]))


def test_gaussian_check_response_accepts_any_finite_values():
    sg.GAUSSIAN.check_response(np.array([-3.5, 0.0, 17.2]))


# --- Dataset ----------------------------------------------------------------

def test_dataset_normalizes_and_exposes_shape():
    data = sg.Dataset([[1, 2], [3, 4], [5, 6]], [1, 0, 1])
    assert (data.n, data.p) == (3, 2)
    assert data.X.dtype == float and data.y.dtype == float


def test_dataset_allows_zero_rows():
    data = sg.Dataset(np.zeros((0, 3)), np.zeros(0))
    assert (data.n, data.p) == (0, 3)


def test_a_datasets_arrays_are_read_only_views_of_the_callers():
    X, y = np.ones((3, 2)), np.zeros(3)
    data = sg.Dataset(X, y)
    with pytest.raises(ValueError, match="read-only"):
        data.X[0, 0] = 2.0
    with pytest.raises(ValueError, match="read-only"):
        data.y[0] = 1.0
    # no copy was made, and the caller's arrays keep their own flags
    assert np.shares_memory(data.X, X) and np.shares_memory(data.y, y)
    assert X.flags.writeable and y.flags.writeable


@pytest.mark.parametrize("rebuild", [copy.copy, copy.deepcopy, lambda d: pickle.loads(pickle.dumps(d))])
def test_a_copied_dataset_is_read_only_and_keeps_no_dual(rebuild):
    data = sg.Dataset(np.arange(6.0).reshape(3, 2), np.array([1.0, 0.0, 1.0]))
    sg.gsdar_fit(sg.LOGISTIC, data, sg.SdarConfig(sparsity_t=1))
    other = rebuild(data)
    assert other.X.tobytes() == data.X.tobytes() and other.y.tobytes() == data.y.tobytes()
    assert not (other.X.flags.writeable or other.y.flags.writeable)
    assert data._null_duals and not other._null_duals


@pytest.mark.parametrize(
    "X, y, message",
    [
        (np.zeros(4), np.zeros(4), "2-d"),
        (np.zeros((3, 0)), np.zeros(3), "at least one column"),
        (np.zeros((3, 2)), np.zeros(4), "rows but y has"),
        (np.array([[np.inf, 0.0]]), np.zeros(1), "X contains non-finite"),
        (np.zeros((2, 2)), np.array([0.0, np.nan]), "y contains non-finite"),
    ],
)
def test_dataset_rejects_malformed_inputs(X, y, message):
    with pytest.raises(ValueError, match=message):
        sg.Dataset(X, y)


# --- linear predictor and loss ----------------------------------------------

def test_linear_predictor_overflow_names_first_bad_row():
    data = sg.Dataset(np.array([[1.0], [1e308]]), np.array([0.0, 1.0]))
    with pytest.raises(sg.NumericOverflowError, match="observation 1") as err:
        sg.linear_predictor(data, np.array([10.0]))
    assert err.value.row == 1


class FixedTerms(sg.GlmFamily):
    """A family whose per-observation NLL terms are fixed."""

    def __init__(self, terms):
        self.terms = np.array(terms)

    def nll_terms(self, y, theta):
        return self.terms


def test_nll_overflow_names_the_first_row_whose_running_sum_overflows():
    data = sg.Dataset(np.zeros((4, 1)), np.zeros(4))
    family = FixedTerms([1.0, 1e308, 1e308, 1.0])
    with pytest.raises(sg.NumericOverflowError) as err:
        sg.negative_log_likelihood(family, data, np.zeros(1))
    assert str(err.value) == "negative log-likelihood overflowed at observation 2"


def test_nll_overflow_of_the_sum_alone_names_the_last_row():
    # every running sum is finite, but numpy's pairwise sum rounds up to +inf
    terms = [np.finfo(float).max] + [9e291] * 8
    with np.errstate(over="ignore"):  # the overflow this test is about
        assert np.all(np.isfinite(np.cumsum(terms))) and np.sum(terms) == np.inf
    data = sg.Dataset(np.zeros((9, 1)), np.zeros(9))
    with pytest.raises(sg.NumericOverflowError) as err:
        sg.negative_log_likelihood(FixedTerms(terms), data, np.zeros(1))
    assert err.value.row == 8


def test_gradient_overflow_names_the_first_coordinate_and_its_row():
    # at beta = 0 the Gaussian residual is -y = -2: coordinate 1 overflows at
    # row 1 (-2e308), coordinate 2 already at row 0
    X = np.array([[1.0, 1.0, 1e308], [2.0, 1e308, 1e308], [0.5, -1e308, 1.0]])
    data = sg.Dataset(X, np.full(3, 2.0))
    with pytest.raises(sg.NumericOverflowError) as err:
        sg.gradient(sg.GAUSSIAN, data, np.zeros(3))
    assert err.value.row == 1
    assert str(err.value) == "gradient at coordinate 1 overflowed at observation 1"


@pytest.mark.parametrize("compute", [sg.negative_log_likelihood, sg.gradient], ids=["nll", "gradient"])
def test_overflow_raises_without_a_numpy_warning(compute):
    # residual squares and X^T r overflow; the only report is the error
    # (the suite turns every RuntimeWarning into a failure)
    data = sg.Dataset(np.eye(7, 4) * 1e160, np.arange(7.0) * 1e200)
    with pytest.raises(sg.NumericOverflowError):
        compute(sg.GAUSSIAN, data, np.ones(4))


def test_logistic_nll_matches_probability_form():
    # independent algebra: -mean(y log p + (1-y) log(1-p)) with p = sigmoid
    data = sg.Dataset(np.array([[1.0], [2.0]]), np.array([1.0, 0.0]))
    value = sg.negative_log_likelihood(sg.LOGISTIC, data, np.array([0.5]))
    assert value == pytest.approx(0.8936693358491647, abs=1e-15)


def test_logistic_nll_at_zero_is_log_two():
    data, _, _ = logistic_instance(3, 50, 6, 2)
    value = sg.negative_log_likelihood(sg.LOGISTIC, data, np.zeros(6))
    assert value == pytest.approx(math.log(2.0), abs=1e-14)


def test_gaussian_nll_is_half_mean_squared_residual():
    data, beta, _ = gaussian_instance(7, 40, 5, 2)
    b = beta * 0.9
    expected = float(np.sum((data.y - data.X @ b) ** 2)) / (2.0 * data.n)
    assert sg.negative_log_likelihood(sg.GAUSSIAN, data, b) == pytest.approx(expected, rel=1e-12)


def test_gaussian_nll_of_exact_fits_is_never_negative():
    # L >= 0 must hold exactly: the HBIC early stop of the path relies on it
    nlls = [
        sg.gsdar_fit(
            sg.GAUSSIAN, gaussian_instance(seed, 50, 20, 3, noise=0.0)[0], sg.SdarConfig(sparsity_t=3)
        ).nll
        for seed in range(200)
    ]
    assert min(nlls) >= 0.0


def test_nll_stays_finite_at_saturating_predictors():
    data = sg.Dataset(np.array([[700.0], [-700.0]]), np.array([1.0, 0.0]))
    value = sg.negative_log_likelihood(sg.LOGISTIC, data, np.array([1.0]))
    assert math.isfinite(value) and value >= 0.0


@pytest.mark.parametrize("family", [sg.LOGISTIC, sg.GAUSSIAN], ids=["logistic", "gaussian"])
@pytest.mark.parametrize("seed", range(5))
def test_nll_is_the_mean_of_nonnegative_terms(family, seed):
    # predictors from 1e-3 to 1e3 in magnitude, saturating ones, and exact Gaussian fits
    rng = make_rng(seed, 0)
    theta = rng.standard_normal(60) * 10.0 ** rng.uniform(-3, 3, 60)
    theta[:4] = [-800.0, -700.0, 700.0, 800.0]
    y = (rng.standard_normal(60) > 0).astype(float) if family is sg.LOGISTIC else theta.copy()
    if family is sg.GAUSSIAN:
        y[::2] += rng.standard_normal(30)
    terms = family.nll_terms(y, theta)
    assert terms.shape == (60,) and np.all(terms >= 0.0)
    assert family.nll(y, theta) == float(terms.sum() / 60)


# --- gradient and Hessian against finite differences ------------------------

@pytest.mark.parametrize("family_name, build", [
    ("logistic", logistic_instance),
    ("gaussian", gaussian_instance),
])
def test_gradient_matches_central_differences(family_name, build):
    family = sg.get_family(family_name)
    data, beta, _ = build(11, 60, 8, 3)
    point = beta * 0.5 + 0.01
    g = sg.gradient(family, data, point)
    fd = finite_difference_gradient(family, data, point)
    rel = np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-12)
    assert rel <= 1e-5


@pytest.mark.parametrize("family_name, build", [
    ("logistic", logistic_instance),
    ("gaussian", gaussian_instance),
])
def test_hessian_matches_differenced_gradient(family_name, build):
    family = sg.get_family(family_name)
    data, beta, _ = build(13, 60, 8, 3)
    point = beta * 0.5 + 0.01
    active = np.array([0, 2, 5])
    H = restricted_hessian(family, data, point, active)
    h = 1e-6
    fd = np.zeros((3, 3))
    for col, j in enumerate(active):
        up, down = point.copy(), point.copy()
        up[j] += h
        down[j] -= h
        diff = sg.gradient(family, data, up) - sg.gradient(family, data, down)
        fd[:, col] = diff[active] / (2.0 * h)
    rel = np.linalg.norm(H - fd) / max(np.linalg.norm(fd), 1e-12)
    assert rel <= 1e-4


def test_hessian_is_exactly_symmetric_and_psd():
    data, beta, _ = logistic_instance(17, 80, 12, 3)
    active = np.array([1, 3, 4, 9])
    H = restricted_hessian(sg.LOGISTIC, data, beta, active)
    assert np.array_equal(H, H.T)
    assert np.min(np.linalg.eigvalsh(H)) >= -1e-12


def test_hessian_equals_dense_weighted_product():
    data, beta, _ = logistic_instance(19, 50, 7, 2)
    active = np.array([0, 3, 6])
    w = sg.LOGISTIC.variance(data.X @ beta)
    Xa = data.X[:, active]
    dense = Xa.T @ (w[:, None] * Xa) / data.n
    H = restricted_hessian(sg.LOGISTIC, data, beta, active)
    assert np.allclose(H, dense, atol=1e-14)


def test_gradient_is_zero_at_gaussian_least_squares_solution():
    data, _, _ = gaussian_instance(29, 50, 5, 2)
    full, *_ = np.linalg.lstsq(data.X, data.y, rcond=None)
    g = sg.gradient(sg.GAUSSIAN, data, full)
    assert np.max(np.abs(g)) <= 1e-10
