"""Error estimates for eigenvectors of sample covariance matrices.

Per-matrix exact predictors, ensemble predictors needing only the eigenvalue,
the bulk density and the matrix size, and the generative pipeline (k-regular
graph Laplacians, scaled Wishart sampling, bootstrap validation) to verify
them at desk scale. The public names are each module's ``__all__``,
re-exported here.
"""

from .estimators import *
from .graphs import *
from .hdensity import *
from .spectral import *
from .wishart import *

__version__ = "0.1.0"
