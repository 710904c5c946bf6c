"""Certified corrected-midpoint quadrature.

For integrands whose third derivative has log-convex absolute value, the
corrected midpoint rule

    sum over subintervals of  h f(m) + (h^3 / 24) f''(m)

admits a-priori error bounds built only from |f'''| at the division points.
This package parses an expression for f, evaluates derivatives exactly with
jet arithmetic, computes three competing bounds (the direct one is never
beaten, so it alone certifies composite sums), certifies only where it
proves the bounds' hypothesis from the expression (elsewhere it samples the
hypothesis as a diagnostic, which certifies nothing), and checks its
identities against a high-accuracy reference integrator.  The ``hh3``
command line tool exposes all of it.
"""

from .analysis import (check_hermite_hadamard, check_log_convexity,
                       grid_samples, log_convexity_verdict)
from .bounds import (BoundReport, DerivEndpoints, best_bound, chi1, chi2,
                     chi3, direct_bound, holder_bound, power_mean_bound)
from .errors import (BadInterval, BelowRoundingFloor, DomainError,
                     ExprSyntaxError, Hh3Error, HypothesisNotProved,
                     NonConvergence, NonPositiveThirdDerivative,
                     ToleranceUnreachable, UnknownIdentifier)
from .expr import Node, eval_jet3, evaluate, parse, to_text
from .quadrature import (Certificate, QuadResult, certify, composite_bound,
                         identity_residual, integrate_adaptive,
                         reference_integral, require_proof, uniform_division)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # expr
    "parse", "to_text", "evaluate", "eval_jet3", "Node",
    # bounds
    "chi1", "chi2", "chi3", "direct_bound", "holder_bound",
    "power_mean_bound", "best_bound", "DerivEndpoints", "BoundReport",
    # quadrature
    "QuadResult", "Certificate", "uniform_division", "composite_bound",
    "reference_integral", "integrate_adaptive", "identity_residual",
    "certify", "require_proof",
    # analysis
    "grid_samples", "check_log_convexity", "log_convexity_verdict",
    "check_hermite_hadamard",
    # errors
    "Hh3Error", "ExprSyntaxError", "UnknownIdentifier", "DomainError",
    "NonPositiveThirdDerivative", "BadInterval", "NonConvergence",
    "ToleranceUnreachable", "BelowRoundingFloor", "HypothesisNotProved",
]
