"""The public API of sdar_glm: what the solver, the sparsity path, the
simulations and the CLI run, and no export kept only for tests (their
references live in tests/helpers.py)."""

import ast
import importlib
import inspect
import pathlib
import re
import types
from dataclasses import fields

import numpy as np
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


def test_the_package_api_is_the_union_of_the_module_lists():
    modules = ("families", "solver", "path", "simulate", "dataio", "rng")
    lists = [importlib.import_module(f"sdar_glm.{name}").__all__ for name in modules]
    assert {name for names in lists for name in names} == PUBLIC_NAMES
    assert sum(len(names) for names in lists) == len(PUBLIC_NAMES)  # no name in two lists


def test_the_test_references_are_not_shipped():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("sdar_glm.oracle")
    for name in ("best_subset_exhaustive", "finite_difference_gradient", "OracleResult",
                 "hessian_active"):
        assert not hasattr(sg, name)
        assert not hasattr(sg.families, name)


def test_a_dataset_holds_only_its_design_and_responses():
    assert tuple(f.name for f in fields(sg.Dataset)) == ("X", "y")


def test_a_solver_config_holds_only_the_options_a_caller_sets():
    # the restricted Newton numerics are class constants, not fields
    assert tuple(f.name for f in fields(sg.SdarConfig)) == (
        "sparsity_t", "step_size_tau", "max_outer_iters", "with_intercept",
    )
    with pytest.raises(TypeError):
        sg.SdarConfig(sparsity_t=1, coef_cap=8.0)


def test_a_path_config_holds_one_stopping_rule():
    # the sweep ends at the HBIC bound or at the cap; no threshold cuts it short
    assert tuple(f.name for f in fields(sg.AgsdarConfig)) == (
        "increment_theta", "max_support_q", "warm_start", "full_path", "inner",
    )


def test_records_that_hold_arrays_compare_by_identity():
    data = sg.Dataset(np.ones((3, 2)), np.zeros(3))
    fit = sg.gsdar_fit(sg.GAUSSIAN, data, sg.SdarConfig(sparsity_t=1))
    path = sg.agsdar_fit(sg.GAUSSIAN, data, sg.AgsdarConfig())
    twins = [
        (data, sg.Dataset(np.ones((3, 2)), np.zeros(3))),
        (fit, sg.gsdar_fit(sg.GAUSSIAN, data, sg.SdarConfig(sparsity_t=1))),
        (path.fits[0], sg.PathPoint(path.fits[0].t, path.fits[0].fit, path.fits[0].hbic)),
        (path, sg.agsdar_fit(sg.GAUSSIAN, data, sg.AgsdarConfig())),
    ]
    for record, twin in twins:
        assert record == record and not record == twin and record != twin
        assert len({record, twin}) == 2


def test_no_source_line_compares_a_family_name():
    # a family's attributes say what it is, so no rule keys on its name, which
    # is output text only; the one .name a rule may compare is a dataclass
    # field's, bound by `for f in fields(...)`
    for source in sorted(pathlib.Path(sg.__file__).parent.glob("*.py")):
        tree = ast.parse(source.read_text(encoding="utf-8"))
        fields_vars = {
            node.target.id for node in ast.walk(tree)
            if isinstance(node, ast.comprehension) and isinstance(node.iter, ast.Call)
            and getattr(node.iter.func, "id", None) == "fields"
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare):
                named = [
                    op for op in (node.left, *node.comparators)
                    if isinstance(op, ast.Attribute) and op.attr == "name"
                    and getattr(op.value, "id", None) not in fields_vars
                ]
                assert not named, f"{source.name}:{node.lineno} compares a .name"


def test_a_split_takes_its_size_as_a_row_count_only():
    # a fraction is run_replications' to turn into a count
    assert tuple(inspect.signature(sg.train_test_split).parameters) == (
        "data", "train_size", "seed",
    )


def test_a_sim_config_alone_draws_its_instance():
    # its seed keys every stream, and each scheme's rules live in generate_instance
    assert tuple(inspect.signature(sg.generate_instance).parameters) == ("cfg", "rep")
    for name in ("coefficient_bounds", "signed_coefficients"):
        assert not hasattr(sg.SimConfig, name)


def test_the_readme_quick_start_runs(capsys):
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```", readme.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out
