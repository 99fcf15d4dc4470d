"""Numerics for zero sequences of entire functions in a horizontal strip.

The package measures how densely the zeros of a strip-zero model pack into
windows, evaluates the continuous argument branches those zeros induce on
the real line, applies the regularized Hilbert transform, and estimates
mean-oscillation (BMO) lower bounds; a model zoo and a divergence scan tie
these together to exhibit log-moduli escaping every oscillation bound as
window counts blow up.
"""

from .errors import *
from .zeros import *
from .argbranch import *
from .sampled import *
from .oscillation import *
from .hilbert import *
from .zoo import *
from .logmodel import *

__version__ = "0.1.0"
