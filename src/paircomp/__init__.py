"""Pairwise-comparison matrix estimation on fixed comparison topologies.

Implements noisy-sorting and strong-stochastic-transitivity estimation
from pairwise comparisons observed on a fixed graph: the ASP and BAP
estimators, worst-case inestimability diagnostics, the graph families and
degree functional governing the average-case rates, and a reproducible
Monte Carlo harness.
"""

# each module's __all__ is its public API; the package re-exports exactly that
from .diagnostics import *
from .estimators import *
from .graphs import *
from .harness import *
from .models import *
from .observation import *

__version__ = "0.1.0"
