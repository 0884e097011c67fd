"""Stochastic Galerkin matrices for parameter-dependent diffusion, block
preconditioners built by modifying the stochastic couplings, and guaranteed
two-sided bounds for the spectra of the preconditioned operators."""

from .basis import MultiIndexSet, assemble_G, assemble_G_tilde
from .bounds import (
    SpectralBounds,
    classical_bounds,
    element_equivalence_oracle,
    mean_based_bounds,
    splitting_bounds_complete,
    splitting_bounds_tp,
    truncated_bounds,
)
from .config import ExperimentConfig, load_config, parse_config, serialize_config
from .eigsolve import EigEstimate, extreme_eigs, extreme_eigs_generalized, pcg
from .errors import (
    ConfigError,
    ConvergenceError,
    CoefficientError,
    DominanceError,
    EnclosureError,
    ExprEvalError,
    ExprSyntaxError,
    FactorizationError,
    ParameterDomainError,
    SgprecondError,
    SizeError,
    UsageError,
)
from .fem import (
    CoefficientField,
    Mesh,
    assemble_F,
    build_mesh,
    compute_mu,
    element_stiffness,
    load_coefficient_table,
    load_vector,
    mu_from_exprs,
    sample_coefficients,
)
from .operator import (
    GAUSS_SEIDEL_2,
    MEAN_BASED,
    SPLITTING_COMPLETE,
    SPLITTING_TP,
    TRUNCATED_TP,
    DiscreteProblem,
    GalerkinOperator,
    Preconditioner,
    build_preconditioner,
)
from .orthopoly import (
    GaussRule,
    RecurrenceFamily,
    chebyshev_u,
    d_last_via_quadrature,
    d_sequence,
    family_from_name,
    gauss_rule,
    gegenbauer,
    hermite,
    jacobi_matrix,
    legendre,
    max_root,
    mu_bar,
)

__version__ = "0.1.0"
