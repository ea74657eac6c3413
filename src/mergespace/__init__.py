"""Merge trees, their matrix representations, and interleaving geometry.

The package models merge trees (finite rooted height trees with a ray to
infinity above the top vertex), labeled variants, and the pseudometrics
defined on them through induced matrices: labeled and unlabeled
interleaving, geodesics and 1-centers in the labeled space, shift maps
between trees, and bottleneck distance between persistence diagrams.

Each module's `__all__` is its public API, and the package re-exports
those lists: its own `__all__` is their concatenation.
"""

from . import errors, fileio, goodmaps, matrices, metrics, persistence, trees, unlabeled
from .errors import *
from .fileio import *
from .goodmaps import *
from .matrices import *
from .metrics import *
from .persistence import *
from .trees import *
from .unlabeled import *

__version__ = "0.1.0"

__all__ = []
__all__ += errors.__all__
__all__ += fileio.__all__
__all__ += goodmaps.__all__
__all__ += matrices.__all__
__all__ += metrics.__all__
__all__ += persistence.__all__
__all__ += trees.__all__
__all__ += unlabeled.__all__
