"""Toolkit for degenerate hypoelliptic Kolmogorov operators.

Structure analysis (Kalman index and block decomposition), the anisotropic
Hölder calculus it induces, exact and approximate simulation of the
associated diffusion, Monte Carlo semigroup evaluation with Girsanov
reweighting, probabilistic elliptic/parabolic solvers, and a quantitative
verification harness for the scaling laws the theory predicts.
"""

import types as _types

from .errors import (
    ConfigError,
    DegenerateBox,
    KolmotkError,
    NonPositiveValue,
    NotHypoelliptic,
    OutOfDomain,
    SingularGramian,
)
from .gramian import (
    TMIN,
    Gramian,
    gramian,
    gramian_quadrature,
)
from .holder import (
    SCALE_MIN,
    ScalarField,
    SeminormEstimate,
    holder_norm,
    holder_seminorm,
    third_difference,
)
from .kalman import KalmanDecomposition, decompose
from .operators import DriftField, DriftTerm, OperatorSpec, matrix_exp
from .semigroup import (
    MCEstimate,
    QuadratureScheme,
    cosine_propagator,
    default_steps,
    derivative_estimate,
    elliptic_cosine_oracle_field,
    evaluate,
    ou_cosine_expectation,
    solve_elliptic,
    solve_parabolic,
)
from .simulate import (
    deterministic_flow,
    girsanov_endpoints,
    sample_ou_endpoints,
    simulate_bundle,
    simulate_endpoints,
)
from .verify import (
    CheckReport,
    ExponentFit,
    check_exponential_blocks,
    check_flow_moments,
    check_gramian_scaling,
    check_parabolic_schauder_ratio,
    check_schauder_ratio,
    fit_exponent,
)
from .config import RunConfig, field_from_config, load_config, parse_config

__version__ = "0.1.0"

# every name imported above, and nothing else
__all__ = [k for k, v in globals().items()
           if not k.startswith("_") and not isinstance(v, _types.ModuleType)]
