"""Assembly and solution of the reconstruction methods.

Five variants are supported, all reducing to the same symmetric Sylvester
normal equations and differing only in their coefficient blocks and in the
map from the solved parameter matrix back to a height grid:

  gls        unregularized global least squares; mean-free solution
  spectral   truncated generalized Fourier series in an orthonormal basis
  tikhonov   penalized least squares (degree 0, 1, or 2 smoothing operators)
  dirichlet  prescribed heights on the boundary frame; interior solved
  weighted   Mahalanobis-weighted least squares via symmetric square roots

Degree-0 Tikhonov shares the GLS blocks and only shifts the pencil,
degree-1 Tikhonov only rescales them, and a diagonal covariance whitens by
row and column scaling, so each costs one GLS solve.  Only degree-2
Tikhonov stacks penalty rows under the GLS blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .basis import BasisSet
from .diffops import DiffMatrix, GradientField, Surface, apply_dx, apply_dy
from .errors import DimensionError
from .sylvester import SylvesterSystem, require_positive_definite, solve, sym_sqrt


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

    Degree 1 penalizes the same first differences that the data fit, so with
    lam = mu it is no smoother: it returns C + (Z_gls - C) / (1 + lam^2),
    with C the reference less its mean, a uniform shrink of the GLS surface
    toward the reference.  The L-curve sweep therefore stays at degree 0.

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


def _roots(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(root, inverse root) of an SPD matrix; 1-d vectors when it is diagonal."""
    diag = mat.diagonal()
    if np.count_nonzero(mat) != np.count_nonzero(diag):
        return sym_sqrt(mat)
    # the eigenvalues of a diagonal matrix are its entries
    require_positive_definite(diag.min(), diag.max())
    root = np.sqrt(diag)
    return root, 1.0 / root


def _sandwich(left: np.ndarray, x: np.ndarray, right: np.ndarray | None = None) -> np.ndarray:
    """left @ x @ right (left @ x without right), where a 1-d factor stands
    for the diagonal matrix it holds and scales rows or columns instead."""
    x = left @ x if left.ndim == 2 else left[:, None] * x
    if right is None:
        return x
    return x @ right if right.ndim == 2 else x * right


@dataclass(frozen=True)
class CovarianceSet:
    """Row and column covariances of the gradient noise, all SPD.

    ``xy`` (m-by-m) and ``xx`` (n-by-n) are the covariances of the
    x-derivative down columns and along rows; ``yy`` (m-by-m) and ``yx``
    (n-by-n) the same for the y-derivative.  A covariance whose
    off-diagonal entries are all exactly zero is validated and rooted from
    its diagonal alone.
    """

    xx: np.ndarray
    xy: np.ndarray
    yx: np.ndarray
    yy: np.ndarray
    # (root, inverse root) of each covariance by name, from the one
    # decomposition that also validates it; a diagonal covariance keeps
    # both as 1-d vectors of the diagonal's entries
    roots: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        roots = {}
        for name in ("xx", "xy", "yx", "yy"):
            mat = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, mat)
            if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
                raise DimensionError(f"covariance {name} must be square, got {mat.shape}")
            try:
                roots[name] = _roots(mat)
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
    zxr = apply_dx(z, dx)
    zxr -= g.zx
    zyr = apply_dy(z, dy)
    zyr -= g.zy
    return float(np.linalg.norm(zxr) ** 2 + np.linalg.norm(zyr) ** 2)


def _check_operators(g: GradientField, dx: DiffMatrix, dy: DiffMatrix) -> None:
    """Refuse operators whose node counts do not match the gradient grid."""
    if dx.n != g.n:
        raise DimensionError(f"x operator has {dx.n} nodes but gradient has {g.n} columns")
    if dy.n != g.m:
        raise DimensionError(f"y operator has {dy.n} nodes but gradient has {g.m} rows")


def _build_gls(g, dx, dy):
    # equal operators (a square grid with equal spacing and one stencil
    # order) pass one block for both axes, so factor forms one Gram
    a = dy.entries
    system = SylvesterSystem(a=a, b=a if dx == dy else dx.entries, f=g.zy, g=g.zx,
                             u=np.ones(g.m), v=np.ones(g.n))
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
    a = dy.left_product(by.entries)
    # equal operators and bases give one operator block for both axes
    same = dx == dy and np.array_equal(by.entries, bx.entries)
    system = SylvesterSystem(
        a=a,
        b=a if same else dx.left_product(bx.entries),
        f=g.zy @ bx.entries,
        g=by.entries.T @ g.zx,
        u=u, v=v,
    )
    return system, lambda coeff: by.entries @ coeff @ bx.entries.T


def _a_priori(g, dx, dy, grid, name: str):
    """(z0, Zy - Dy z0, Zx - z0 Dx.T) for an a-priori grid z0 that the unknown
    deviates from, so a penalty carries no data; (None, Zy, Zx) uncopied without one."""
    if grid is None:
        return None, g.zy, g.zx
    z0 = np.asarray(grid, dtype=float)
    if z0.shape != (g.m, g.n):
        raise DimensionError(f"{name} must be {g.m}x{g.n}, got {z0.shape}")
    if not np.isfinite(z0).all():
        raise ValueError(f"{name} contains non-finite values")
    return z0, g.zy - apply_dy(z0, dy), g.zx - apply_dx(z0, dx)


def _build_tikhonov(g, dx, dy, spec: Tikhonov):
    lam, mu, k = spec.lam, spec.mu_value, spec.degree
    z0, f, gx = _a_priori(g, dx, dy, spec.reference, "reference surface")
    # equal operators and a penalty that weighs both axes alike (any degree-0
    # one, or lam = mu) give equal blocks: build one and pass it as both
    same = dx == dy and (k == 0 or lam == mu)
    a, shift = dy.entries, 0.0
    b = a if same else dx.entries
    if k == 0:
        # lam^2 |Phi|^2 + mu^2 |Phi|^2 only shifts the GLS pencil
        shift = lam * lam + mu * mu
    elif k == 1:
        # [D; lam D] has the normal equations of sqrt(1 + lam^2) D with the
        # data divided by the same factor: the GLS blocks, rescaled
        sy, sx = math.sqrt(1.0 + mu * mu), math.sqrt(1.0 + lam * lam)
        a, f, gx = sy * a, f / sy, gx / sx
        b = a if same else sx * b
    else:
        a = np.vstack([a, mu * dy.left_product(a)])
        b = a if same else np.vstack([b, lam * dx.left_product(b)])
        f = np.vstack([f, np.zeros_like(f)])
        gx = np.hstack([gx, np.zeros_like(gx)])
    system = SylvesterSystem(a=a, b=b, f=f, g=gx, u=np.ones(g.m), v=np.ones(g.n), shift=shift)
    if z0 is None:
        return system, lambda phi: phi
    # the shifted solution is mean free like the pinned one; without a shift
    # the cost fixes Z only up to a constant, so the surface comes back mean free
    offset = z0 if shift > 0 else z0 - z0.mean()
    return system, lambda phi: phi + offset


def _build_dirichlet(g, dx, dy, spec: Dirichlet):
    if spec.boundary is None:
        raise DimensionError("Dirichlet reconstruction needs a boundary grid")
    zb, f, gx = _a_priori(g, dx, dy, spec.boundary, "boundary grid")
    # interior selection realized by index slicing rather than explicit
    # permutation matrices
    a = dy.entries[:, 1:-1]
    system = SylvesterSystem(a=a, b=a if dx == dy else dx.entries[:, 1:-1],
                             f=f[:, 1:-1], g=gx[1:-1, :])

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
        a=_sandwich(isqrt_yy, dy.entries, sqrt_xy),
        b=_sandwich(isqrt_xx, dx.entries, sqrt_yx),
        f=_sandwich(isqrt_yy, g.zy, isqrt_yx),
        g=_sandwich(isqrt_xy, g.zx, isqrt_xx),
        u=_sandwich(isqrt_xy, np.ones((g.m, 1))),
        v=_sandwich(isqrt_yx, np.ones((g.n, 1))),
    )
    return system, lambda phi: _sandwich(sqrt_xy, phi, sqrt_yx)


def _build(g: GradientField, dx: DiffMatrix, dy: DiffMatrix, spec: MethodSpec):
    _check_operators(g, dx, dy)
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
    gradient of that grid, and the Tikhonov penalty carries no data.
    Degree-0 Tikhonov returns the GLS operators, unstacked, with
    ``shift = lam^2 + mu^2``.  Degree 1 returns them rescaled,
    ``sqrt(1 + mu^2) Dy`` and ``sqrt(1 + lam^2) Dx`` with the data divided
    by the same factors; its ``cost`` is the stacked cost less the
    Phi-independent constant mu^2/(1+mu^2) |F|^2 + lam^2/(1+lam^2) |G|^2.
    Degree 2 stacks the penalty rows ``mu Dy^2`` and ``lam Dx^2`` under them.
    When both axes would get equal blocks (equal operators, as on a square
    grid with equal spacing, and for Tikhonov degrees 1 and 2 also lam = mu),
    one array is passed as both ``a`` and ``b``.
    """
    return _build(g, dx, dy, spec)[0]


def reconstruct(g: GradientField, dx: DiffMatrix, dy: DiffMatrix, spec: MethodSpec) -> Surface:
    """Reconstruct a surface from a measured gradient field.

    Solves the method's Sylvester equation and maps the parameter matrix
    back to a height grid through :func:`~surfrec.sylvester.solve`, which
    factors the system once.  When the operator has its rank-one null space
    (the constant of integration), the solve pins it and returns the
    minimizer with u.T Phi v = 0.
    """
    system, to_surface = _build(g, dx, dy, spec)
    phi = solve(system)
    del system  # the back-map needs phi alone, so its blocks go first
    return Surface(heights=to_surface(phi), hx=g.hx, hy=g.hy)
