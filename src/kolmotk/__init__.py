"""Toolkit for degenerate hypoelliptic Kolmogorov operators.

Structure analysis (Kalman index and block decomposition), the anisotropic
Hölder calculus it induces, exact and approximate simulation of the
associated diffusion, Monte Carlo semigroup evaluation with Girsanov
reweighting, probabilistic elliptic/parabolic solvers, and a quantitative
verification harness for the scaling laws the theory predicts.
"""

import types as _types

from .errors import *  # noqa: F401,F403
from .gramian import *  # noqa: F401,F403
from .holder import *  # noqa: F401,F403
from .kalman import *  # noqa: F401,F403
from .operators import *  # noqa: F401,F403
from .semigroup import *  # noqa: F401,F403
from .simulate import *  # noqa: F401,F403
from .verify import *  # noqa: F401,F403
from .config import *  # noqa: F401,F403

__version__ = "0.1.0"

# each module's __all__ is the one list of its exports (errors: its public classes)
# every name imported above, and nothing else
__all__ = [k for k, v in globals().items()
           if not k.startswith("_") and not isinstance(v, _types.ModuleType)]
