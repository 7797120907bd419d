"""Random walks on free products of finite groups.

Solves the traffic polynomial system of a nearest-neighbor walk through
its hitting-probability fixed point, builds the Markovian multiplicative
harmonic measure, and reports drift, entropy, volume, and generator
quality, with closed-form, enumeration, and Monte Carlo cross-checks.

The package namespace holds exactly the names of the README quick start;
everything else is imported from its module (``freewalk.metrics``,
``freewalk.walkspec``, ...).
"""

from .groups import Letter, free_product_of_cyclics
from .harmonic import build_chain, cylinder_prob
from .metrics import metrics_report
from .traffic import StepDistribution, solve_walk

__all__ = [
    "Letter",
    "free_product_of_cyclics",
    "StepDistribution",
    "solve_walk",
    "metrics_report",
    "build_chain",
    "cylinder_prob",
]

__version__ = "0.1.0"
