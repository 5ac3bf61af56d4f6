"""Sparse GLM estimation under an explicit cardinality bound.

The solver alternates support detection on the combined primal-dual vector
with exact restricted Newton solves, and a path variant selects the
sparsity level by a high-dimensional BIC.
"""

from .families import (
    Dataset,
    GAUSSIAN,
    Gaussian,
    GlmFamily,
    LOGISTIC,
    Logistic,
    NumericOverflowError,
    get_family,
    gradient,
    linear_predictor,
    negative_log_likelihood,
)
from .solver import (
    FitResult,
    SdarConfig,
    SingularSystemError,
    Termination,
    gsdar_fit,
    kkt_residual,
    restricted_mle,
    top_t_support,
)
from .path import AgsdarConfig, PathPoint, PathResult, agsdar_fit, hbic
from .simulate import (
    MetricReport,
    SCHEME_AR1,
    SCHEME_BANDED,
    SimConfig,
    gen_bernoulli_responses,
    gen_coefficients,
    gen_design_ar1,
    gen_design_banded,
    generate_instance,
    metric_acrp,
    metric_discovery,
    metric_reerr,
    run_replications,
)
from .dataio import (
    InvalidLabelError,
    LibsvmParseError,
    MODE_LENGTH,
    MODE_MEAN_VAR,
    map_labels_to_binary,
    pad_features,
    read_libsvm,
    standardize_columns,
    train_test_split,
    write_libsvm,
)
from .rng import make_rng

__version__ = "0.1.0"
