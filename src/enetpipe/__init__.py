"""Sparse feature selection and kernel classification toolkit.

Numerical core: coordinate-descent solvers for L1 and L1+L2 penalized
least squares, an SVM-reduction route to the same optimum, PCA, a kernel
extreme learning machine, and a small from-scratch CNN for 2.5D volume
patches. The pipeline layer adds k-fold evaluation and paired selector
comparisons; the `enetpipe` console script exposes the batch workflow.

Each module's ``__all__`` declares its public names; the package exports
their union.
"""

from . import (cnn, data, elm, errors, patches, pca, pipeline, report, rng,
               solvers, sven)
from .cnn import *
from .data import *
from .elm import *
from .errors import *
from .patches import *
from .pca import *
from .pipeline import *
from .report import *
from .rng import *
from .solvers import *
from .sven import *

__version__ = "0.1.0"

__all__ = [name for module in (cnn, data, elm, errors, patches, pca, pipeline,
                               report, rng, solvers, sven)
           for name in module.__all__] + ["__version__"]
