"""Matrix-free Monte Carlo estimation of determinants and inverse determinants.

The absolute determinant of a full-rank matrix, and its reciprocal, can be
written as expectations over matrix-vector products: averaging
``||A s||^{-n}`` over uniform unit-sphere directions gives ``1/|det A|``,
and averaging ``||A^{-1} s||^{-n}`` gives ``|det A|`` itself.  This package
implements those estimators (plus the general importance-ratio form they
specialize) with log-domain streaming statistics, seeded reproducible
sampling, an exact LU oracle, and a CLI for convergence experiments.
"""

from .ensembles import EnsembleSpec, generate
from .estimators import (
    DistributionPair,
    EstimateResult,
    EstimatorConfig,
    MatrixFreeOperator,
    det_via_inverse_solves,
    inv_det_importance,
    inv_det_sphere,
    operator_from_matrix,
)
from .linalg import (
    DenseMatrix,
    LUFactorization,
    MatrixFormatError,
    SingularMatrixError,
    load_matrix,
    log_abs_det,
    lu_factorize,
)
from .sampling import RngStream
from .stats import StreamingAccumulator

__version__ = "0.1.0"

__all__ = [
    "DenseMatrix",
    "DistributionPair",
    "EnsembleSpec",
    "EstimateResult",
    "EstimatorConfig",
    "LUFactorization",
    "MatrixFormatError",
    "MatrixFreeOperator",
    "RngStream",
    "SingularMatrixError",
    "StreamingAccumulator",
    "det_via_inverse_solves",
    "generate",
    "inv_det_importance",
    "inv_det_sphere",
    "load_matrix",
    "log_abs_det",
    "lu_factorize",
    "operator_from_matrix",
]
