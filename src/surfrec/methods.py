"""Assembly and solution of the reconstruction methods.

Five variants are supported, all reducing to the same symmetric Sylvester
normal equations and differing only in their coefficient blocks and in the
map from the solved parameter matrix back to a height grid:

  gls        unregularized global least squares; mean-free solution
  spectral   truncated generalized Fourier series in an orthonormal basis
  tikhonov   penalized least squares (degree 0, 1, or 2 smoothing operators)
  dirichlet  prescribed heights on the boundary frame; interior solved
  weighted   Mahalanobis-weighted least squares via symmetric square roots
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .basis import BasisSet
from .diffops import DiffMatrix, GradientField, Surface, apply_dx, apply_dy
from .errors import DimensionError
from .sylvester import SylvesterSystem, solve, sym_sqrt


def check_parameter(name: str, value: float) -> None:
    """Refuse a regularization parameter that is negative or not finite."""
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(
            f"regularization parameter {name} must be finite and non-negative, got {value!r}"
        )


@dataclass(frozen=True)
class Gls:
    """Plain global least squares (no regularization)."""


@dataclass(frozen=True)
class Spectral:
    """Expand the surface in orthonormal bases along y and x.

    Pass complete bases for an exact re-parameterization of the least-squares
    problem, truncated bases for low-pass regularization, or column-sliced
    bases (see ``BasisSet.subset``) for band-pass behaviour.  The
    conventional truncation keeps the lowest half of the functions per axis.
    """

    basis_y: BasisSet
    basis_x: BasisSet


@dataclass(frozen=True)
class Tikhonov:
    """Penalized least squares with parameter lam (and mu for the y-penalty).

    degree 0 penalizes the solution's magnitude (standard form), degree 1 its
    steepness, degree 2 its curvature; the smoothing operators are the
    corresponding powers of the differentiation matrices.  ``mu`` defaults
    to ``lam``.

    ``reference`` is an a-priori surface Z0 (zero when omitted); the penalty
    acts on the deviation Z - Z0, which the solve returns and Z0 is added
    back to.  When the cost fixes Z only up to a constant (degree 1 or 2, or
    lam = mu = 0), the mean-free surface comes back: the reference's own
    mean does not.
    """

    lam: float
    mu: float | None = None
    degree: int = 0
    reference: np.ndarray | None = None

    def __post_init__(self):
        check_parameter("lam", self.lam)
        if self.mu is not None:
            check_parameter("mu", self.mu)
        if self.degree not in (0, 1, 2):
            raise ValueError(f"degree must be 0, 1, or 2, got {self.degree!r}")

    @property
    def mu_value(self) -> float:
        return self.lam if self.mu is None else self.mu


@dataclass(frozen=True)
class Dirichlet:
    """Prescribed boundary heights.

    ``boundary`` is a full m-by-n grid; its frame fixes the surface on the
    boundary, and any nonzero interior entries act as an a-priori offset
    surface from which the solved interior is the deviation.
    """

    boundary: np.ndarray


@dataclass(frozen=True)
class CovarianceSet:
    """Row and column covariances of the gradient noise, all SPD.

    ``xy`` (m-by-m) and ``xx`` (n-by-n) are the covariances of the
    x-derivative down columns and along rows; ``yy`` (m-by-m) and ``yx``
    (n-by-n) the same for the y-derivative.
    """

    xx: np.ndarray
    xy: np.ndarray
    yx: np.ndarray
    yy: np.ndarray
    # (root, inverse root) of each covariance by name, from the one
    # decomposition that also validates it
    roots: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        roots = {}
        for name in ("xx", "xy", "yx", "yy"):
            mat = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, mat)
            if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
                raise DimensionError(f"covariance {name} must be square, got {mat.shape}")
            try:
                roots[name] = sym_sqrt(mat)
            except ValueError as exc:
                raise ValueError(f"covariance {name}: {exc}") from None
        object.__setattr__(self, "roots", roots)

    @classmethod
    def identity(cls, m: int, n: int) -> "CovarianceSet":
        return cls(xx=np.eye(n), xy=np.eye(m), yx=np.eye(n), yy=np.eye(m))


@dataclass(frozen=True)
class Weighted:
    """Covariance-weighted (Mahalanobis) least squares."""

    covariance: CovarianceSet


MethodSpec = Gls | Spectral | Tikhonov | Dirichlet | Weighted


def gradient_misfit(z, g: GradientField, dx: DiffMatrix, dy: DiffMatrix) -> float:
    """Squared Frobenius distance between a surface's gradient and g."""
    zxr = apply_dx(z, dx) - g.zx
    zyr = apply_dy(z, dy) - g.zy
    return float(np.linalg.norm(zxr) ** 2 + np.linalg.norm(zyr) ** 2)


def check_operators(g: GradientField, dx: DiffMatrix, dy: DiffMatrix) -> None:
    """Refuse operators whose node counts do not match the gradient grid."""
    if dx.n != g.n:
        raise DimensionError(f"x operator has {dx.n} nodes but gradient has {g.n} columns")
    if dy.n != g.m:
        raise DimensionError(f"y operator has {dy.n} nodes but gradient has {g.m} rows")


def _build_gls(g, dx, dy):
    system = SylvesterSystem(
        a=dy.entries, b=dx.entries, f=g.zy, g=g.zx,
        u=np.ones(g.m), v=np.ones(g.n),
    )
    return system, lambda phi: phi


def _build_spectral(g, dx, dy, spec: Spectral):
    by, bx = spec.basis_y, spec.basis_x
    if by.n != g.m:
        raise DimensionError(f"y basis sampled on {by.n} nodes but grid has {g.m} rows")
    if bx.n != g.n:
        raise DimensionError(f"x basis sampled on {bx.n} nodes but grid has {g.n} columns")
    u = v = None
    if 0 in by.columns and 0 in bx.columns:
        u = np.zeros(by.p)
        u[by.columns.index(0)] = 1.0
        v = np.zeros(bx.p)
        v[bx.columns.index(0)] = 1.0
    system = SylvesterSystem(
        a=dy.left_product(by.entries),
        b=dx.left_product(bx.entries),
        f=g.zy @ bx.entries,
        g=by.entries.T @ g.zx,
        u=u, v=v,
    )
    return system, lambda coeff: by.entries @ coeff @ bx.entries.T


def _build_tikhonov(g, dx, dy, spec: Tikhonov):
    lam, mu, k = spec.lam, spec.mu_value, spec.degree
    z0 = np.zeros((g.m, g.n)) if spec.reference is None else np.asarray(spec.reference, float)
    if z0.shape != (g.m, g.n):
        raise DimensionError(f"reference surface must be {g.m}x{g.n}, got {z0.shape}")
    # the unknown is the deviation from z0, so the penalty rows carry no
    # data; every row annihilates constants unless it is a degree-0 penalty
    # with a positive parameter
    deficient = k >= 1 or lam == mu == 0.0
    system = SylvesterSystem(
        a=np.vstack([dy.entries, mu * np.linalg.matrix_power(dy.entries, k)]),
        b=np.vstack([dx.entries, lam * np.linalg.matrix_power(dx.entries, k)]),
        f=np.vstack([g.zy - apply_dy(z0, dy), np.zeros_like(z0)]),
        g=np.hstack([g.zx - apply_dx(z0, dx), np.zeros_like(z0)]),
        u=np.ones(g.m) if deficient else None,
        v=np.ones(g.n) if deficient else None,
    )
    # a pinned deviation is mean free; so is the surface
    offset = z0 - z0.mean() if deficient else z0
    return system, lambda phi: phi + offset


def _build_dirichlet(g, dx, dy, spec: Dirichlet):
    zb = np.asarray(spec.boundary, dtype=float)
    if zb.shape != (g.m, g.n):
        raise DimensionError(f"boundary grid must be {g.m}x{g.n}, got {zb.shape}")
    if g.m < 3 or g.n < 3:
        raise DimensionError("Dirichlet reconstruction needs an interior, so m, n >= 3")
    # interior selection realized by index slicing rather than explicit
    # permutation matrices
    system = SylvesterSystem(
        a=dy.entries[:, 1:-1],
        b=dx.entries[:, 1:-1],
        f=(g.zy - apply_dy(zb, dy))[:, 1:-1],
        g=(g.zx - apply_dx(zb, dx))[1:-1, :],
    )

    def embed(interior):
        z = zb.copy()
        z[1:-1, 1:-1] += interior
        return z

    return system, embed


def _build_weighted(g, dx, dy, spec: Weighted):
    cov = spec.covariance
    if cov.xy.shape[0] != g.m or cov.yy.shape[0] != g.m:
        raise DimensionError("row covariances must be m-by-m")
    if cov.xx.shape[0] != g.n or cov.yx.shape[0] != g.n:
        raise DimensionError("column covariances must be n-by-n")
    sqrt_xy, isqrt_xy = cov.roots["xy"]
    sqrt_yx, isqrt_yx = cov.roots["yx"]
    _, isqrt_yy = cov.roots["yy"]
    _, isqrt_xx = cov.roots["xx"]
    system = SylvesterSystem(
        a=isqrt_yy @ dy.entries @ sqrt_xy,
        b=isqrt_xx @ dx.entries @ sqrt_yx,
        f=isqrt_yy @ g.zy @ isqrt_yx,
        g=isqrt_xy @ g.zx @ isqrt_xx,
        u=isqrt_xy @ np.ones(g.m),
        v=isqrt_yx @ np.ones(g.n),
    )
    return system, lambda phi: sqrt_xy @ phi @ sqrt_yx


def _build(g: GradientField, dx: DiffMatrix, dy: DiffMatrix, spec: MethodSpec):
    check_operators(g, dx, dy)
    if isinstance(spec, Gls):
        return _build_gls(g, dx, dy)
    if isinstance(spec, Spectral):
        return _build_spectral(g, dx, dy, spec)
    if isinstance(spec, Tikhonov):
        return _build_tikhonov(g, dx, dy, spec)
    if isinstance(spec, Dirichlet):
        return _build_dirichlet(g, dx, dy, spec)
    if isinstance(spec, Weighted):
        return _build_weighted(g, dx, dy, spec)
    raise TypeError(f"unknown method spec {spec!r}")


def assemble(g: GradientField, dx: DiffMatrix, dy: DiffMatrix, spec: MethodSpec) -> SylvesterSystem:
    """Coefficient blocks and null vectors of the method's normal equations.

    For Dirichlet, and for Tikhonov with a reference surface, the unknown
    is the deviation from the a-priori grid (the boundary grid or the
    reference): the data blocks hold the measured gradient minus the
    gradient of that grid, and the Tikhonov penalty rows carry no data.
    """
    return _build(g, dx, dy, spec)[0]


def reconstruct(g: GradientField, dx: DiffMatrix, dy: DiffMatrix, spec: MethodSpec) -> Surface:
    """Reconstruct a surface from a measured gradient field.

    Solves the method's Sylvester equation and maps the parameter matrix
    back to a height grid.  When the operator has its rank-one null space
    (the constant of integration), the pinned eigen solve of
    :func:`~surfrec.sylvester.solve_deflated` returns the minimizer with
    u.T Phi v = 0; otherwise the full-rank eigen solve is used.
    """
    system, to_surface = _build(g, dx, dy, spec)
    return Surface(heights=to_surface(solve(system)), hx=g.hx, hy=g.hy)
