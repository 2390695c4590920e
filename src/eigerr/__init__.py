"""Error estimates for eigenvectors of sample covariance matrices.

Per-matrix exact predictors, ensemble predictors needing only the eigenvalue,
the bulk density and the matrix size, and the generative pipeline (k-regular
graph Laplacians, scaled Wishart sampling, bootstrap validation) to verify
them at desk scale.
"""

from .estimators import (
    BootstrapResult,
    aligned_residual,
    bootstrap_error,
    h_exact,
    h_exact_all,
    h_hat,
    regime_violation,
    replicate_residuals,
    sample_size_bound,
)
from .graphs import (
    PopulationMatrix,
    RegularGraph,
    component_count,
    is_connected,
    laplacian,
    population_matrix,
    sample_regular_graph,
)
from .hdensity import (
    F_H,
    HDensityParams,
    TailReport,
    ds_star_dh,
    f_H,
    f_H_mass,
    h_min_scale,
    push_h_samples,
    s0,
    s_star,
    sample_joint_gaps,
    tail_integral,
    tail_report,
)
from .spectral import (
    GapRecords,
    SpectralDensity,
    eig_sym,
    estimate_density,
    extract_gap_records,
    joint_gap_pdf,
    mckay_density,
    wigner_surmise_cdf,
    wigner_surmise_pdf,
)
from .wishart import (
    child_seed,
    eigenvalue_root,
    sample_wishart_scaled,
    sqrt_psd,
)

__version__ = "0.1.0"
