"""Finite-scale calculus for operator-valued positive-definite kernels."""

from .errors import (
    GramMismatch,
    InternalInvariantViolation,
    InvalidKernel,
    LabelError,
    NotDominated,
    NotEquivalent,
    NotInvertible,
    NotPositiveDefinite,
    NotStrictContraction,
    OpKernError,
    ShapeError,
    SingularL,
    SingularSystem,
    SpectrumOutOfRange,
)
from .kernels import (
    HERMITIAN_RTOL,
    PD_RTOL,
    RANK_RTOL,
    LabelSet,
    OperatorKernelTable,
    PDReport,
    constant_kernel,
    cp_contraction_kernel,
    identity_kernel,
    is_positive_definite,
    neumann_series_kernel,
    random_pd_kernel,
)
from .dilation import (
    FeatureSystem,
    kolmogorov_factorize,
)
from .transfer import (
    RealizationReport,
    RNDerivative,
    SignedKernelSystem,
    generate_valid_system,
    radon_nikodym,
    transfer_function,
    validate_system,
    verify_realization,
)
from .gaussian import (
    CondCovComparison,
    ConditionalMcReport,
    JointKernel,
    PathBatch,
    assemble_joint,
    condition,
    conditional_cov_equal,
    draw_paths,
    mc_verify_conditional,
    standard_normal_rows,
)
from .regression import (
    RegressionFit,
    TrainingSet,
    design_matrices,
    krr_fit,
    predict,
)

__version__ = "0.1.0"
