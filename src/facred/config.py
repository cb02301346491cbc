"""Global numeric configuration.

Facial reduction decides ranks and face memberships from eigenvalues, so the
rank cutoff is a correctness knob, not a cosmetic one.  It lives here as one
process-wide constant, and no caller overrides it.
"""

import math
import os

# Relative eigenvalue cutoff used when deciding the rank of a PSD matrix.
RANK_TOL = 1e-6

# Default feasibility / certificate acceptance tolerance.  Overridable via
# the FACRED_TOL environment variable; command line flags beat both.
DEFAULT_TOL = 1e-7

# Target accuracy the interior-point subsolver works to.  Certificates are
# accepted at DEFAULT_TOL; outcomes between the two are reported ambiguous.
SOLVE_TOL = 1e-8


def resolve_tol(flag_value=None):
    """Tolerance precedence: explicit flag > FACRED_TOL env var > default.
    ValueError unless the value is positive and finite: below zero every
    reducing value clears the minimality rung, so every face looks minimal."""
    tol = float(flag_value if flag_value is not None
                else os.environ.get("FACRED_TOL", DEFAULT_TOL))
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol:g}")
    return tol
