"""Certified corrected-midpoint quadrature.

For integrands whose third derivative has log-convex absolute value, the
corrected midpoint rule

    sum over subintervals of  h f(m) + (h^3 / 24) f''(m)

admits a-priori error bounds built only from |f'''| at the division points.
This package parses an expression for f, evaluates derivatives exactly with
jet arithmetic, computes three competing bounds (the direct one is never
beaten, so it is also the "best" method), and checks its own hypotheses and
identities against a high-accuracy reference integrator.  The ``hh3``
command line tool exposes all of it.
"""

from .analysis import (CatalogEntry, ConvexityReport, HermiteHadamardReport,
                       catalog, check_hermite_hadamard, check_log_convexity,
                       check_log_convexity_pow, grid_samples)
from .bounds import (BoundReport, DerivEndpoints, best_bound, bound_function,
                     chi1, chi2, chi3, direct_bound, holder_bound,
                     holder_factor, mu, mu_q, power_mean_bound)
from .errors import (BadInterval, BelowRoundingFloor, DomainError,
                     ExprSyntaxError, Hh3Error, NonConvergence,
                     NonPositiveThirdDerivative, NotConvex,
                     ToleranceUnreachable, UnknownIdentifier)
from .expr import Node, eval_jet3, evaluate, parse, to_text
from .quadrature import (CertifyOutcome, QuadResult, certify, composite_bound,
                         corrected_midpoint_sum, identity_residual,
                         integrate_adaptive, midpoint_sum, reference_integral,
                         uniform_division)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # expr
    "parse", "to_text", "evaluate", "eval_jet3", "Node",
    # bounds
    "mu", "mu_q", "holder_factor", "chi1", "chi2", "chi3", "bound_function",
    "direct_bound", "holder_bound", "power_mean_bound", "best_bound",
    "DerivEndpoints", "BoundReport",
    # quadrature
    "QuadResult", "CertifyOutcome", "uniform_division", "midpoint_sum",
    "corrected_midpoint_sum", "composite_bound", "reference_integral",
    "integrate_adaptive", "identity_residual", "certify",
    # analysis
    "ConvexityReport", "HermiteHadamardReport", "CatalogEntry",
    "grid_samples", "check_log_convexity", "check_log_convexity_pow",
    "check_hermite_hadamard", "catalog",
    # errors
    "Hh3Error", "ExprSyntaxError", "UnknownIdentifier", "DomainError",
    "NonPositiveThirdDerivative", "BadInterval", "NonConvergence",
    "ToleranceUnreachable", "BelowRoundingFloor", "NotConvex",
]
