"""Exact computations in the rational Heisenberg-Virasoro algebras.

The package models additive subgroups of the rationals, the graded Lie
algebras indexed by them, the intermediate-series weight modules, and a
finite-window analysis engine that verifies the classification facts
about those modules empirically and exactly.

The engine, ``hvir.analysis``, and its names load on first use, so that
``import hvir`` and the CLI verbs that run no engine function do not
compile it.  ``Window`` is one of those names, but it is defined in
``hvir.groups``, so ``hvir.groups.Window`` builds a window without the
engine.
"""

# each module's __all__ is its export list
from . import algebra, errors, groups, intermediate, parsing
from .algebra import *
from .errors import *
from .groups import *
from .intermediate import *
from .parsing import *

__version__ = "0.1.0"

# the names of analysis, listed here for __all__, __getattr__ and __dir__
# to name before analysis loads; analysis.__all__ is built from this list
_ANALYSIS_NAMES = (
    "Window",
    "Subspace",
    "ActionTable",
    "intermediate_series_table",
    "transported_table",
    "closure",
    "reducibility_scan",
    "scan_details",
    "restriction_report",
    "intertwiner_check",
    "recover_params",
    "align_extension",
)

__all__ = [
    *algebra.__all__, *errors.__all__, *groups.__all__, *intermediate.__all__,
    *parsing.__all__, *_ANALYSIS_NAMES,
    "algebra", "analysis", "errors", "groups", "intermediate", "parsing",
]


def __getattr__(name):
    """Import ``hvir.analysis`` on the first use of it or of one of its
    names, and bind its names here as an eager import would have."""
    if name != "analysis" and name not in _ANALYSIS_NAMES:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    from importlib import import_module

    # "from . import analysis" would look the name up here, and recurse
    analysis = import_module(".analysis", __name__)
    globals().update((key, getattr(analysis, key)) for key in _ANALYSIS_NAMES)
    return globals()[name]


def __dir__():
    return sorted({*globals(), "analysis", *_ANALYSIS_NAMES})
