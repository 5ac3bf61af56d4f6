"""Sparse GLM estimation under an explicit cardinality bound.

The solver alternates support detection on the combined primal-dual vector
with exact restricted Newton solves, and a path variant selects the
sparsity level by a high-dimensional BIC.  Each module's __all__ is its
part of the package API.
"""

from .families import *  # noqa: F401,F403
from .solver import *  # noqa: F401,F403
from .path import *  # noqa: F401,F403
from .simulate import *  # noqa: F401,F403
from .dataio import *  # noqa: F401,F403
from .rng import *  # noqa: F401,F403

__version__ = "0.1.0"
