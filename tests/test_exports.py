import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import surfrec


def test_every_exported_name_resolves():
    missing = [name for name in surfrec.__all__ if not hasattr(surfrec, name)]
    assert missing == []


def test_exports_have_no_duplicates():
    assert len(surfrec.__all__) == len(set(surfrec.__all__))


def test_public_names_are_pinned():
    # a name that leaves or joins the API shows up as an edit here
    assert surfrec.__all__ == [
        "BasisSet", "BumpSurfaceSpec", "CovarianceSet", "DiffMatrix", "DimensionError",
        "Dirichlet", "Factorization", "FormatError", "GaussianBump", "Gls",
        "GradientField", "GridData", "LCurveTikhonov", "MethodSpec", "MonteCarloResult",
        "NoiseSpec", "SingularSystemError", "SizeGuardError", "Spectral", "SpectralCache",
        "Surface", "SurfrecError", "SylvesterSystem", "Tikhonov", "TrialMetrics", "Weighted",
        "add_noise", "apply_dx", "apply_dy", "assemble", "boundary_frame", "build_cache",
        "bump_surface", "corner", "cosine_basis", "default_bump_spec", "default_lambda_grid",
        "diff_matrix", "evaluate", "gradient_misfit", "gram_basis", "haar_basis", "l_curve",
        "lcurve_reconstruct", "make_basis", "monte_carlo", "oracle_gls",
        "radial_covariance_set", "read_grid", "reconstruct", "reconstruct_from_cache",
        "solve", "sym_sqrt", "work_estimate", "write_grid",
    ]


def test_every_benchmark_hook_resolves():
    # the benchmark times the layers the library calls internally by wrapping
    # these module attributes; a refactor that drops one unhooks a layer
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{mod}.{attr}" for mod, attr, _ in spans.HOOKS
               if not callable(getattr(importlib.import_module(mod), attr, None))]
    assert spans.HOOKS and missing == []


# what a fresh import must leave unloaded, by name prefix: the package alone
# loads no submodule, and the CLI none that only other subcommands run
@pytest.mark.parametrize("module,unloaded", [
    ("surfrec", ("scipy", "surfrec.")),
    ("surfrec.cli", ("scipy", "surfrec.simulate", "surfrec.regparam", "csv", "statistics")),
], ids=["surfrec", "surfrec.cli"])
def test_import_loads_no_scipy(module, unloaded):
    code = "\n".join([
        f"import sys, {module}",
        f"print(sorted(m for m in sys.modules if m.startswith({unloaded!r})))",
        # a lazily loaded name is still listed and resolves; an unknown one does not
        "import surfrec",
        "print(sorted(set(surfrec.__all__) - set(dir(surfrec))))",
        "print(hasattr(surfrec, 'no_such_name'), surfrec.reconstruct.__module__)",
    ])
    # the child must import this same package, installed or not
    src = str(Path(surfrec.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.splitlines() == ["[]", "[]", "False surfrec.methods"]
