"""Doubly stochastic Poisson processes driven by affine diffusion intensity.

Exponential-affine transforms of the integrated intensity give the count
distribution in closed form; exact square-root transitions drive simulation;
an approximate Kalman filter supports quasi-maximum-likelihood estimation.

Each module's ``__all__`` is the one list of its public names; the package
exports their union.
"""

from . import affine_core, cox_dist, data_io, estimate, simulate
from ._backend import BACKEND
from .affine_core import *
from .cox_dist import *
from .data_io import *
from .estimate import *
from .jets import Jet
from .simulate import *

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "__version__",
    "Jet",
    *affine_core.__all__,
    *cox_dist.__all__,
    *simulate.__all__,
    *estimate.__all__,
    *data_io.__all__,
]
