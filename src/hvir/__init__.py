"""Exact computations in the rational Heisenberg-Virasoro algebras.

The package models additive subgroups of the rationals, the graded Lie
algebras indexed by them, the intermediate-series weight modules, and a
finite-window analysis engine that verifies the classification facts
about those modules empirically and exactly.
"""

# each module's __all__ is its export list
from .algebra import *
from .analysis import *
from .errors import *
from .groups import *
from .intermediate import *
from .parsing import *

__version__ = "0.1.0"
