"""The public API of sdar_glm: what the solver, the sparsity path, the
simulations and the CLI run, and no export kept only for tests (their
references live in tests/helpers.py)."""

import importlib
import types
from dataclasses import fields

import pytest

import sdar_glm as sg

PUBLIC_NAMES = {
    # families
    "Dataset", "GAUSSIAN", "Gaussian", "GlmFamily", "LOGISTIC", "Logistic",
    "NumericOverflowError", "get_family", "gradient", "linear_predictor",
    "negative_log_likelihood",
    # solver
    "FitResult", "SdarConfig", "SingularSystemError", "Termination",
    "gsdar_fit", "kkt_residual", "restricted_mle", "top_t_support",
    # path
    "AgsdarConfig", "PathPoint", "PathResult", "agsdar_fit", "hbic",
    # simulate
    "MetricReport", "SCHEME_AR1", "SCHEME_BANDED", "SimConfig", "gen_bernoulli_responses",
    "gen_coefficients", "gen_design_ar1", "gen_design_banded", "generate_instance",
    "metric_acrp", "metric_discovery", "metric_reerr", "run_replications",
    # dataio
    "InvalidLabelError", "LibsvmParseError", "MODE_LENGTH", "MODE_MEAN_VAR",
    "map_labels_to_binary", "pad_features", "read_libsvm", "standardize_columns",
    "train_test_split", "write_libsvm",
    # rng
    "make_rng",
}


def test_the_package_exports_exactly_the_public_names():
    exported = {
        name for name, value in vars(sg).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == PUBLIC_NAMES


def test_the_test_references_are_not_shipped():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("sdar_glm.oracle")
    for name in ("best_subset_exhaustive", "finite_difference_gradient", "OracleResult",
                 "hessian_active"):
        assert not hasattr(sg, name)
        assert not hasattr(sg.families, name)


def test_a_dataset_holds_only_its_design_and_responses():
    assert tuple(f.name for f in fields(sg.Dataset)) == ("X", "y")
