"""Surface reconstruction from measured gradient fields.

A library and CLI that recover a height grid from noisy partial-derivative
measurements by global least squares, with spectral, penalized, boundary-
constrained, and covariance-weighted regularization.  Every method reduces to
a symmetric Sylvester matrix equation solved in cubic time, with a dense
brute-force oracle and a Monte-Carlo harness for validation.
"""

from .basis import BasisSet, cosine_basis, gram_basis, haar_basis, make_basis
from .diffops import DiffMatrix, GradientField, Surface, apply_dx, apply_dy, diff_matrix
from .errors import (
    DimensionError, FormatError, SingularSystemError, SizeGuardError, SurfrecError,
)
from .gridio import GridData, read_grid, write_grid
from .methods import (
    CovarianceSet, Dirichlet, Gls, MethodSpec, Spectral, Tikhonov, Weighted,
    assemble, gradient_misfit, reconstruct,
)
from .regparam import (
    LCurveTikhonov, SpectralCache, build_cache, corner, default_lambda_grid,
    filter_factors, l_curve, lcurve_reconstruct, reconstruct_from_cache,
    tikhonov_coefficients,
)
from .simulate import (
    BumpSurfaceSpec, GaussianBump, MonteCarloResult, NoiseSpec,
    TrialMetrics, add_noise, boundary_frame, bump_surface, default_bump_spec,
    evaluate, monte_carlo, oracle_gls, radial_covariance_set,
)
from .sylvester import (
    Factorization, SylvesterSystem, solve, sym_sqrt, work_estimate,
)

__version__ = "0.1.0"

__all__ = [
    "BasisSet", "BumpSurfaceSpec", "CovarianceSet", "DiffMatrix", "DimensionError",
    "Dirichlet", "Factorization", "FormatError", "GaussianBump", "Gls", "GradientField",
    "GridData", "LCurveTikhonov", "MethodSpec", "MonteCarloResult", "NoiseSpec",
    "SingularSystemError", "SizeGuardError", "Spectral", "SpectralCache", "Surface",
    "SurfrecError", "SylvesterSystem", "Tikhonov", "TrialMetrics", "Weighted",
    "add_noise", "apply_dx", "apply_dy", "assemble", "boundary_frame", "bump_surface",
    "build_cache", "corner", "cosine_basis", "default_bump_spec", "default_lambda_grid",
    "diff_matrix", "evaluate", "filter_factors", "gradient_misfit", "gram_basis",
    "haar_basis", "l_curve", "lcurve_reconstruct", "make_basis", "monte_carlo", "oracle_gls",
    "radial_covariance_set", "read_grid", "reconstruct", "reconstruct_from_cache",
    "solve", "sym_sqrt", "tikhonov_coefficients",
    "work_estimate", "write_grid",
]
