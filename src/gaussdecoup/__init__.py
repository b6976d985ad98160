"""Decoupling coefficients and inequality constants for Gaussian vectors.

The package quantifies near-independence of a centered Gaussian vector
through its decoupling coefficient p(X) (normalized absolute row sums of the
covariance), evaluates the product-of-marginals bound constants that are
valid whenever the exponent satisfies p >= 2 p(X), estimates the Toeplitz
determinants those constants depend on (exactly by Cholesky, asymptotically
by the second-order determinant limit G(f)^n b(f)), computes the
Brascamp-Lieb constant behind the bound, and verifies every inequality by
Monte Carlo sampling plus quadrature.

The imports below declare the public API, and no module repeats it in an
``__all__``.  A public name that a layer module defines but this list leaves
out (``covmodel.load_matrix``, for one) belongs to that module alone.
"""

from .brascamp import (
    EbProblem,
    eb_objective,
    eb_optimize,
    matrix_B,
)
from .covmodel import (
    ConditionReport,
    CovarianceMatrix,
    HilbertSpec,
    ModelSpec,
    MovingAverageSpec,
    SpectralSymbol,
    build_dense,
    constant_symbol,
    from_stationary,
    grid_points,
    hilbert_covariance,
    inverse_power_gamma_sequence,
    inverse_power_symbol,
    ma1_symbol,
    parse_model,
    symbol_from_grid,
)
from .decoupling import (
    DecouplingBound,
    RefinedBound,
    corollary1_bound,
    decoupling_bound,
    decoupling_coefficient,
    refined_constant,
    stationary_decoupling_coefficient,
    theorem1_log_constant,
)
from .errors import (
    ConditionViolated,
    ConfigError,
    GaussDecoupError,
    InvalidSpec,
    NonConvergent,
    NonFiniteInput,
    NonPositiveDiagonal,
    NonPositiveSymbol,
    NotPositiveDefinite,
    NotSymmetric,
)
from .szego import (
    SzegoEstimate,
    Theorem2Constant,
    b_constant,
    geometric_mean,
    szego_asymptote,
    theorem2_constant,
)
from .verify import (
    KhatriSidakReports,
    TestFunctionSpec,
    VerificationReport,
    marginal_p_norm,
    stationary_exponent,
    sweep_moments,
    verify_khatri_sidak,
    verify_kls,
    verify_theorem1,
)

__version__ = "0.1.0"
