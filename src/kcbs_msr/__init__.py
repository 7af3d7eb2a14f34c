"""Five-cycle contextuality versus concurrence for Majorana-star qutrits.

Symmetric two-qubit states, parameterized by two Bloch-sphere stars, act
as effective qutrits.  This package computes the expectation S of the
five-cycle (pentagram) contextuality operator and the concurrence of the
underlying pair in several equivalent closed forms, the extremes of S at
fixed concurrence together with the CHSH counterpart, a three-regime
classification by S value, and grid scans of the parameter space.  Every
closed form is paired with an independent numerical check.
"""

from . import checks, classify, extremal, measures, observables, scan, states
from .states import *
from .observables import *
from .measures import *
from .extremal import *
from .classify import *
from .scan import *
from .checks import *

__version__ = "0.1.0"

# Each layer module's ``__all__`` is its public API; the package re-exports them.
__all__ = [
    name
    for module in (states, observables, measures, extremal, classify, scan, checks)
    for name in module.__all__
]
