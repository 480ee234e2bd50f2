"""Eigen diagonalization of the degree-0 Tikhonov problem.

Degree-0 Tikhonov with mu = lam adds 2 lam^2 to every eigenvalue of the
GLS Sylvester operator and changes nothing else, so factoring the two
coefficient matrices D_y.T D_y and D_x.T D_x once
(:func:`~surfrec.sylvester.factor` of the GLS system) turns every subsequent
regularized solve into an elementwise formula over the transformed
right-hand side; a whole sweep of regularization parameters (an L-curve)
costs little more than the two symmetric eigendecompositions.

:func:`lcurve_reconstruct` is the one route from a gradient to the
parameter at the L-curve corner and its surface; the Monte-Carlo harness
(``simulate.run_method``) and ``surfrec tikhonov --lcurve`` both take it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diffops import DiffMatrix, GradientField, Surface
from .methods import Gls, assemble, check_parameter, gradient_misfit
from .sylvester import Factorization, factor


@dataclass(frozen=True)
class SpectralCache:
    """Quantities enabling cheap per-parameter evaluation.

    ``factors`` holds the eigendecompositions of P = D_y.T D_y and
    Q = D_x.T D_x (each with exactly one numerically zero eigenvalue, the
    constant of integration); ``rhs_t`` the GLS right-hand side in that
    basis, R' = up.T (D_y.T Z_y + Z_x D_x) uq; ``misfit0`` the squared
    gradient misfit rho_0^2 of the unregularized (lam = 0) surface.
    """

    factors: Factorization
    rhs_t: np.ndarray
    misfit0: float
    hx: float = 1.0
    hy: float = 1.0

    def operator_eigenvalues(self) -> np.ndarray:
        """d_ij = lambda_i + mu_j, the Sylvester operator spectrum."""
        return self.factors.pencil


def build_cache(g: GradientField, dx: DiffMatrix, dy: DiffMatrix) -> SpectralCache:
    """Factor the operators and transform the measured gradient.

    Cost is dominated by the two symmetric eigendecompositions; everything
    downstream of the cache is O(mn) per regularization parameter.
    """
    system = assemble(g, dx, dy, Gls())
    factors = factor(system)
    rhs_t = factors.to_basis(system.rhs())
    z0 = factors.from_basis(factors.divide(rhs_t))
    return SpectralCache(
        factors=factors,
        rhs_t=rhs_t,
        misfit0=gradient_misfit(z0, g, dx, dy),
        hx=g.hx,
        hy=g.hy,
    )


def tikhonov_coefficients(cache: SpectralCache, lam: float) -> np.ndarray:
    """Transformed solution coefficients for regularization parameter lam.

    Entrywise m_ij = R'_ij / (d_ij + 2 lam^2).  The entry where both
    eigenvalues vanish is the free constant of integration; it is pinned to
    zero, as in :func:`~surfrec.sylvester.solve`, so the two solution paths
    agree.
    """
    check_parameter("lam", lam)
    return cache.factors.divide(cache.rhs_t, 2.0 * lam * lam)


def filter_factors(cache: SpectralCache, lam: float) -> np.ndarray:
    """Spectral attenuation factors f_ij = d_ij / (d_ij + 2 lam^2).

    All factors lie in [0, 1]; they are 1 at lam = 0 (plain least squares)
    and fall toward 0 as lam grows.  The doubly-null entry is reported as 0,
    consistent with its coefficient being pinned.
    """
    check_parameter("lam", lam)
    return cache.factors.divide(cache.factors.pencil, 2.0 * lam * lam)


def reconstruct_from_cache(cache: SpectralCache, lam: float) -> Surface:
    """Surface for the given parameter: a weighted sum of rank-one terms."""
    return Surface(
        heights=cache.factors.from_basis(tikhonov_coefficients(cache, lam)),
        hx=cache.hx,
        hy=cache.hy,
    )


def l_curve(cache: SpectralCache, lam_grid) -> list[tuple[float, float, float]]:
    """Points (lam, rho, eta) of the residual/penalty trade-off curve.

    rho is the root of the gradient misfit and eta the solution norm (the
    Frobenius norm is invariant under the orthonormal change of basis).
    With s = 2 lam^2 and m_ij the coefficients at lam, the misfit exceeds the
    GLS misfit by sum s^2 m_ij^2 / d_ij, a sum of non-negative terms, so
    rho^2 = rho_0^2 + sum s^2 m_ij^2 / d_ij loses nothing to cancellation
    even where rho is tiny.  Each point costs O(mn): the unshifted divisor
    is formed once, and every point writes its divisor, coefficients and
    squared terms into two reused buffers, in the arithmetic of
    :func:`tikhonov_coefficients`.
    """
    lams = [float(v) for v in lam_grid]
    if not lams:
        raise ValueError("the parameter grid must not be empty")
    if not all(math.isfinite(v) and v > 0 for v in lams) or any(
        b <= a for a, b in zip(lams, lams[1:])
    ):
        raise ValueError(
            "the parameter grid lam must be finite, positive and strictly ascending"
        )
    fac = cache.factors
    pencil = fac.divisor()
    coeffs = np.empty_like(pencil)
    terms = np.empty_like(pencil)
    points = []
    for lam in lams:
        shift = 2.0 * lam * lam
        np.divide(cache.rhs_t, fac.divisor(shift, out=coeffs), out=coeffs)
        np.multiply(coeffs, coeffs, out=terms)
        np.divide(terms, pencil, out=terms)
        excess = shift * shift * np.sum(terms)
        rho_sq = cache.misfit0 + excess
        eta_sq = np.linalg.norm(coeffs) ** 2
        points.append((lam, float(np.sqrt(rho_sq)), float(np.sqrt(eta_sq))))
    return points


def default_lambda_grid(cache: SpectralCache, count: int = 20) -> np.ndarray:
    """Logarithmic grid spanning [1e-4, 1e+1] times the median operator scale.

    The span brackets the filter-factor transition region for typical
    operators; it is a practical default, not a tuned constant.
    """
    if count < 2:
        raise ValueError("grid needs at least two points")
    # eigh can return the null eigenvalue pair slightly below zero
    scale = float(np.median(np.sqrt(np.maximum(cache.operator_eigenvalues(), 0.0))))
    return np.geomspace(1e-4 * scale, 1e1 * scale, count)


def corner(points) -> float:
    """Parameter at the corner of an L-curve, by discrete curvature.

    Takes the (lam, rho, eta) triples of :func:`l_curve` and returns the grid
    parameter whose log-log point has the largest positive signed three-point
    Menger curvature, ties broken toward smaller parameters.  Positive means
    the curve turns counter-clockwise as lam grows, from its steep
    under-smoothed arm toward its flat over-smoothed one: the corner of an L
    (Hansen & O'Leary, SIAM J. Sci. Comput. 14, 1993).  A concave bend is no
    corner.  A curve with no positive curvature anywhere (a straight line in
    log-log, or one that only bends the other way) yields the smallest
    parameter.  So does a curve with a zero rho or eta, as a zero gradient
    gives: it has no log-log shape, and it is caught before any logarithm is
    taken.
    """
    pts = list(points)
    if len(pts) < 5:
        raise ValueError(f"corner detection needs at least 5 points, got {len(pts)}")
    lams = np.array([p[0] for p in pts])
    rho = np.array([p[1] for p in pts])
    eta = np.array([p[2] for p in pts])
    if min(rho.min(), eta.min()) <= 0.0:
        return float(lams[0])
    x, y = np.log(rho), np.log(eta)
    curv = np.zeros(len(pts))
    for i in range(1, len(pts) - 1):
        ax, ay = x[i] - x[i - 1], y[i] - y[i - 1]
        bx, by = x[i + 1] - x[i], y[i + 1] - y[i]
        cx, cy = x[i + 1] - x[i - 1], y[i + 1] - y[i - 1]
        area2 = ax * by - ay * bx
        sides = np.hypot(ax, ay) * np.hypot(bx, by) * np.hypot(cx, cy)
        if sides > 0:
            curv[i] = 2.0 * area2 / sides
    # a curve without positive curvature at the scale of its own diameter
    # has no corner, up to rounding; fall back to the least damping
    diameter = np.hypot(x.max() - x.min(), y.max() - y.min())
    if np.max(curv) * max(diameter, 1e-300) <= 1e-8:
        return float(lams[0])
    return float(lams[int(np.argmax(curv))])



@dataclass(frozen=True)
class LCurveTikhonov:
    """Standard-form penalty with the parameter chosen at the corner of an
    L-curve sweep over ``points`` parameters."""

    points: int = 20

    def __post_init__(self):
        # a float count would only fail inside the sweep, after the factorization
        if not isinstance(self.points, (int, np.integer)) or self.points < 5:
            raise ValueError(
                f"an L-curve corner needs a whole number of at least 5 points, got {self.points}"
            )


def lcurve_reconstruct(g: GradientField, dx: DiffMatrix, dy: DiffMatrix,
                       spec: LCurveTikhonov) -> tuple[float, Surface]:
    """(lam, surface) of degree-0 Tikhonov at the L-curve corner.

    The only code that chains :func:`build_cache`, :func:`default_lambda_grid`,
    :func:`l_curve`, :func:`corner` and :func:`reconstruct_from_cache`: one
    factorization serves the sweep, the pick and the surface.
    """
    cache = build_cache(g, dx, dy)
    lam = corner(l_curve(cache, default_lambda_grid(cache, spec.points)))
    return lam, reconstruct_from_cache(cache, lam)
