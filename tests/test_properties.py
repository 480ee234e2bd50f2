"""Structural properties of every method over generated grids.

Each example draws a grid of 5 to 24 nodes per side, an operator order of 2
or 4, node spacings in [0.5, 2] and a seed for the random data, then checks:

* linearity: the surface of a*g1 + b*g2 is a*z(g1) + b*z(g2) for a method
  whose only data is the gradient;
* transposition: swapping the x and y axes of the problem (the gradient
  components, the spacings, and every per-axis input of the method)
  transposes the surface.  Tikhonov swaps lam and mu, which catches a
  penalty that scales the wrong axis;
* the null contract: a method that declares the null pair (u, v) returns
  the solution with u.T Phi v = 0, and so does the L-curve cache;
* scale: multiplying both node spacings by c multiplies the surface by c,
  once every height-valued input is scaled by c and a degree-k Tikhonov
  parameter by c^(k-1), which keeps the penalty's weight.
"""

import atexit
import math
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from surfrec import (
    CovarianceSet, Dirichlet, Gls, GradientField, Spectral, Tikhonov, Weighted, assemble,
    build_cache, make_basis, reconstruct, reconstruct_from_cache, solve,
)

SETTINGS = settings(max_examples=12, derandomize=True, database=None, deadline=None)

# Hypothesis caches the constants it finds in local modules under its home
# directory, database or not, and does so while pytest collects this file.
# Keep that cache out of the working tree, in a directory removed at exit.
_HOME = tempfile.mkdtemp(prefix="surfrec-hypothesis-")
set_hypothesis_home_dir(_HOME)
atexit.register(shutil.rmtree, _HOME, ignore_errors=True)

problems = st.fixed_dictionaries({
    "m": st.integers(5, 24),
    "n": st.integers(5, 24),
    "order": st.sampled_from([2, 4]),
    "hx": st.floats(0.5, 2.0),
    "hy": st.floats(0.5, 2.0),
    "lam": st.floats(0.0, 2.0),
    "mu": st.floats(0.0, 2.0),
    "seed": st.integers(0, 2**32 - 1),
})

# multiples of 0.1 in [-2, 2], so no coefficient is subnormal
coefficients = st.integers(-20, 20).map(lambda k: k / 10)

METHODS = ["gls", "spectral", "spectral-gram", "spectral-band", "dirichlet", "weighted",
           "tikhonov-0", "tikhonov-1", "tikhonov-2"]


def make_spec(name, p, rng):
    """The method's spec for an m-by-n grid, built from rng's draws."""
    m, n = p["m"], p["n"]
    if name == "gls":
        return Gls()
    if name.startswith("spectral"):
        family = "gram" if name == "spectral-gram" else "cosine"
        by = make_basis(family, m, math.ceil(m / 2))
        bx = make_basis(family, n, math.ceil(n / 2))
        if name == "spectral-band":
            # no constant column: no null pair, and widths of either parity
            by, bx = by.drop([0]), bx.drop([0])
        return Spectral(by, bx)
    if name == "dirichlet":
        return Dirichlet(rng.standard_normal((m, n)))
    if name == "weighted":
        diag = {"xx": n, "xy": m, "yx": n, "yy": m}
        return Weighted(CovarianceSet(**{k: np.diag(rng.uniform(0.2, 3.0, size))
                                         for k, size in diag.items()}))
    return Tikhonov(lam=p["lam"], mu=p["mu"], degree=int(name[-1]))


def transposed(spec):
    """The same method on the problem with its x and y axes swapped."""
    if isinstance(spec, Spectral):
        return Spectral(spec.basis_x, spec.basis_y)
    if isinstance(spec, Dirichlet):
        return Dirichlet(spec.boundary.T)
    if isinstance(spec, Weighted):
        c = spec.covariance
        return Weighted(CovarianceSet(xx=c.yy, xy=c.yx, yx=c.xy, yy=c.xx))
    if isinstance(spec, Tikhonov):
        return Tikhonov(lam=spec.mu_value, mu=spec.lam, degree=spec.degree)
    return spec


def surface(zx, zy, p, spec, swap=False):
    hx, hy = (p["hy"], p["hx"]) if swap else (p["hx"], p["hy"])
    g = GradientField(zx, zy, hx, hy)
    dx, dy = g.operators(p["order"])
    return reconstruct(g, dx, dy, spec).heights


@pytest.mark.parametrize("name", METHODS)
@SETTINGS
@given(p=problems, a=coefficients, b=coefficients)
def test_linear_in_the_gradient(name, p, a, b):
    rng = np.random.default_rng(p["seed"])
    spec = make_spec(name, p, rng)
    if isinstance(spec, Dirichlet):
        spec = Dirichlet(np.zeros_like(spec.boundary))  # a nonzero frame is data too
    shape = (p["m"], p["n"])
    g1 = rng.standard_normal((2,) + shape)
    g2 = rng.standard_normal((2,) + shape)
    z1, z2 = surface(*g1, p, spec), surface(*g2, p, spec)
    got = surface(*(a * g1 + b * g2), p, spec)
    scale = abs(a) * np.linalg.norm(z1) + abs(b) * np.linalg.norm(z2)
    assert np.linalg.norm(got - (a * z1 + b * z2)) <= 1e-9 * scale


@pytest.mark.parametrize("name", METHODS)
@SETTINGS
@given(p=problems)
def test_swapping_the_axes_transposes_the_surface(name, p):
    rng = np.random.default_rng(p["seed"])
    spec = make_spec(name, p, rng)
    zx, zy = rng.standard_normal((2, p["m"], p["n"]))
    want = surface(zx, zy, p, spec)
    got = surface(zy.T, zx.T, p, transposed(spec), swap=True)
    assert got.shape == want.shape[::-1]
    assert np.linalg.norm(got - want.T) <= 1e-9 * np.linalg.norm(want)


# the methods that declare a null pair: all but Dirichlet and the spectral
# basis without its constant column
PINNED = [name for name in METHODS if name not in ("dirichlet", "spectral-band")]


@pytest.mark.parametrize("name", PINNED + ["lcurve-cache"])
@SETTINGS
@given(p=problems)
def test_pinned_solutions_meet_the_null_contract(name, p):
    rng = np.random.default_rng(p["seed"])
    g = GradientField(*rng.standard_normal((2, p["m"], p["n"])), p["hx"], p["hy"])
    dx, dy = g.operators(p["order"])
    if name == "lcurve-cache":
        u, v = np.ones(g.m), np.ones(g.n)
        phi = reconstruct_from_cache(build_cache(g, dx, dy), p["lam"]).heights
    else:
        system = assemble(g, dx, dy, make_spec(name, p, rng))
        u, v = system.u, system.v
        assert u is not None
        phi = solve(system)
    bound = 1e-12 * np.linalg.norm(u) * np.linalg.norm(phi) * np.linalg.norm(v)
    assert abs(u @ phi @ v) <= bound


def scaled(spec, c):
    """The method for the problem whose spacings are multiplied by c."""
    if isinstance(spec, Dirichlet):
        return Dirichlet(c * spec.boundary)
    if isinstance(spec, Tikhonov):
        weight = c ** (spec.degree - 1)
        return Tikhonov(lam=weight * spec.lam, mu=weight * spec.mu_value, degree=spec.degree)
    return spec


@pytest.mark.parametrize("name", METHODS)
@SETTINGS
@given(p=problems, c=st.sampled_from([0.25, 3.0, 10.0]))
def test_scaling_the_spacings_scales_the_surface(name, p, c):
    rng = np.random.default_rng(p["seed"])
    spec = make_spec(name, p, rng)
    zx, zy = rng.standard_normal((2, p["m"], p["n"]))
    want = c * surface(zx, zy, p, spec)
    got = surface(zx, zy, dict(p, hx=c * p["hx"], hy=c * p["hy"]), scaled(spec, c))
    assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)
