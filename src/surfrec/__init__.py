"""Surface reconstruction from measured gradient fields.

A library and CLI that recover a height grid from noisy partial-derivative
measurements by global least squares, with spectral, penalized, boundary-
constrained, and covariance-weighted regularization.  Every method reduces to
a symmetric Sylvester matrix equation solved in cubic time, with a dense
brute-force oracle and a Monte-Carlo harness for validation.

Importing the package loads no submodule: each exported name is imported
from its submodule on first use (PEP 562), so a process pays only for the
modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# each submodule and the names the package exports from it
_EXPORTS = {
    "basis": ("BasisSet", "cosine_basis", "gram_basis", "haar_basis", "make_basis"),
    "diffops": ("DiffMatrix", "GradientField", "Surface", "apply_dx", "apply_dy",
                "diff_matrix"),
    "errors": ("DimensionError", "FormatError", "SingularSystemError", "SizeGuardError",
               "SurfrecError"),
    "gridio": ("GridData", "read_grid", "write_grid"),
    "methods": ("CovarianceSet", "Dirichlet", "Gls", "MethodSpec", "Spectral", "Tikhonov",
                "Weighted", "assemble", "gradient_misfit", "reconstruct"),
    "regparam": ("LCurveTikhonov", "SpectralCache", "build_cache", "corner",
                 "default_lambda_grid", "l_curve", "lcurve_reconstruct",
                 "reconstruct_from_cache"),
    "simulate": ("BumpSurfaceSpec", "GaussianBump", "MonteCarloResult", "NoiseSpec",
                 "TrialMetrics", "add_noise", "boundary_frame", "bump_surface",
                 "default_bump_spec", "evaluate", "monte_carlo", "oracle_gls",
                 "radial_covariance_set"),
    "sylvester": ("Factorization", "SylvesterSystem", "solve", "sym_sqrt", "work_estimate"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _EXPORTS:  # a submodule, bound here as an eager package would
        return import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
