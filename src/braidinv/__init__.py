"""Knot invariants of braid closures, computed three independent ways.

Braid words close to knots or links; their Gauss diagrams support a signed
two-arrow pattern count giving the degree-2 Conway coefficient (and its
parity, the Arf invariant), reduced Burau matrices give the Alexander and
Conway polynomials and the knot determinant, and the Conway skein relation
in the Hecke algebra gives the Conway polynomial once more.  A verification
CLI checks these against each other and against Lucas-number identities.
"""

from . import braids, counting, gauss, polynomials, sequences
from .braids import *
from .counting import *
from .gauss import *
from .polynomials import *
from .sequences import *

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += braids.__all__
__all__ += counting.__all__
__all__ += gauss.__all__
__all__ += polynomials.__all__
__all__ += sequences.__all__
