"""Matrix-free Monte Carlo estimation of determinants and inverse determinants.

The absolute determinant of a full-rank matrix, and its reciprocal, can be
written as expectations over matrix-vector products: averaging
``||A s||^{-n}`` over uniform unit-sphere directions gives ``1/|det A|``,
and averaging ``||A^{-1} s||^{-n}`` gives ``|det A|`` itself.  This package
implements those estimators (plus the general importance-ratio form they
specialize) with log-domain streaming statistics, seeded reproducible
sampling, an exact LU oracle, and a CLI for convergence experiments.
"""

from .ensembles import EnsembleSpec, InvalidEnsembleError, generate
from .estimators import (
    DistributionPair,
    EstimateResult,
    EstimatorConfig,
    MatrixFreeOperator,
    SingularDirectionError,
    UnsupportedSampleError,
    det_via_inverse_solves,
    inv_det_gaussian_ratio,
    inv_det_importance,
    inv_det_sphere,
    operator_from_matrix,
    solve_operator,
    streaming_log_mean,
)
from .linalg import (
    DenseMatrix,
    LUFactorization,
    MatrixFormatError,
    SingularMatrixError,
    load_matrix,
    log_abs_det,
    lu_factorize,
    save_matrix,
)
from .sampling import (
    RngStream,
    chi_sample,
    gaussian_vector,
    log_density_std_gaussian,
    unit_sphere,
)
from .stats import StreamingAccumulator

__version__ = "0.1.0"

__all__ = [
    "DenseMatrix",
    "DistributionPair",
    "EnsembleSpec",
    "EstimateResult",
    "EstimatorConfig",
    "InvalidEnsembleError",
    "LUFactorization",
    "MatrixFormatError",
    "MatrixFreeOperator",
    "RngStream",
    "SingularDirectionError",
    "SingularMatrixError",
    "StreamingAccumulator",
    "UnsupportedSampleError",
    "chi_sample",
    "det_via_inverse_solves",
    "gaussian_vector",
    "generate",
    "inv_det_gaussian_ratio",
    "inv_det_importance",
    "inv_det_sphere",
    "load_matrix",
    "log_abs_det",
    "log_density_std_gaussian",
    "lu_factorize",
    "operator_from_matrix",
    "save_matrix",
    "solve_operator",
    "streaming_log_mean",
    "unit_sphere",
]
