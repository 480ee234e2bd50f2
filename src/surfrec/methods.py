"""Assembly and solution of the reconstruction methods.

Five variants are supported, all reducing to the same symmetric Sylvester
normal equations and differing only in their coefficient blocks and in the
map from the solved parameter matrix back to a height grid:

  gls        unregularized global least squares: degree-0 Tikhonov at lam = mu = 0
  spectral   truncated generalized Fourier series in an orthonormal basis
  tikhonov   penalized least squares (degree 0, 1, or 2 smoothing operators)
  dirichlet  prescribed heights on the boundary frame; interior solved
  weighted   Mahalanobis-weighted least squares via symmetric square roots

A method is an operator part, fixed by the spec and the operators (blocks,
null pair, shift, a-priori grid and back-map), and a data part, the blocks
F and G from the gradient.  The unknown is the deviation from the a-priori
grid (a Tikhonov reference or the Dirichlet boundary), whose gradient is
subtracted from the data in one place.  Degree-0 Tikhonov shares the GLS
blocks and only shifts the pencil, degree-1 only rescales them, and a
diagonal covariance whitens by row and column scaling, so each costs one
GLS solve.  Only degree-2 Tikhonov stacks penalty rows under the GLS blocks.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .basis import BasisSet
from .diffops import DiffMatrix, GradientField, Surface, _check_grid, apply_dx, apply_dy
from .errors import DimensionError, finite_real, whole_number
from .sylvester import SylvesterSystem, require_positive_definite, solve, sym_sqrt


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
        finite_real("regularization parameter lam", self.lam)
        if self.mu is not None:
            finite_real("regularization parameter mu", self.mu)
        if whole_number("degree", self.degree) not in (0, 1, 2):
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


def _check_operators(g: GradientField, dx: DiffMatrix, dy: DiffMatrix) -> None:
    """Refuse operators whose node count or spacing differs from g's axis."""
    if dx.n != g.n:
        raise DimensionError(f"x operator has {dx.n} nodes but gradient has {g.n} columns")
    if dy.n != g.m:
        raise DimensionError(f"y operator has {dy.n} nodes but gradient has {g.m} rows")
    if dx.h != g.hx or dy.h != g.hy:
        raise DimensionError(f"operator spacings (x {dx.h!r}, y {dy.h!r}) differ from "
                             f"the gradient's (hx {g.hx!r}, hy {g.hy!r})")


def gradient_misfit(z, g: GradientField, dx: DiffMatrix, dy: DiffMatrix) -> float:
    """Squared Frobenius distance between a surface's gradient and g."""
    _check_operators(g, dx, dy)
    zxr = apply_dx(z, dx)
    zxr -= g.zx
    zyr = apply_dy(z, dy)
    zyr -= g.zy
    return float(np.linalg.norm(zxr) ** 2 + np.linalg.norm(zyr) ** 2)


@dataclass(frozen=True)
class _OperatorPart:
    """A method's operator part (see the module notes): ``a`` and ``b`` are
    one array when both axes get equal blocks, and ``data`` maps (Zy, Zx)
    less the gradient of the a-priori ``grid`` to (F, G)."""

    a: np.ndarray
    b: np.ndarray
    data: Callable
    to_surface: Callable
    u: np.ndarray | None = None
    v: np.ndarray | None = None
    shift: float = 0.0
    grid: np.ndarray | None = None

    def system(self, g: GradientField, dx: DiffMatrix, dy: DiffMatrix) -> SylvesterSystem:
        """The system for gradient g, on the operators this part was built from."""
        zy, zx = g.zy, g.zx
        if self.grid is not None:
            # the unknown is the deviation from the a-priori grid, so a penalty carries no data
            zy, zx = zy - apply_dy(self.grid, dy), zx - apply_dx(self.grid, dx)
        f, gx = self.data(zy, zx)
        return SylvesterSystem(a=self.a, b=self.b, f=f, g=gx, u=self.u, v=self.v, shift=self.shift)


def _a_priori(grid, name: str, dx: DiffMatrix, dy: DiffMatrix) -> np.ndarray:
    """The a-priori grid z0, checked against the operators' grid."""
    z0 = np.asarray(grid, dtype=float)
    if z0.shape != (dy.n, dx.n):
        raise DimensionError(f"{name} must be {dy.n}x{dx.n}, got {z0.shape}")
    return _check_grid(name, z0)


def _tikhonov(dx, dy, spec: Tikhonov) -> _OperatorPart:
    lam, mu, k = spec.lam, spec.mu_value, spec.degree
    z0 = None if spec.reference is None else _a_priori(spec.reference, "reference surface", dx, dy)
    # equal operators and a penalty that weighs both axes alike (any degree-0
    # one, or lam = mu) give equal blocks: build one and pass it as both
    same = dx == dy and (k == 0 or lam == mu)
    a, shift, data = dy.entries, 0.0, lambda zy, zx: (zy, zx)
    b = a if same else dx.entries
    if k == 0:
        # lam^2 |Phi|^2 + mu^2 |Phi|^2 only shifts the GLS pencil
        shift = lam * lam + mu * mu
    elif k == 1:
        # [D; lam D] has the normal equations of sqrt(1 + lam^2) D with the
        # data divided by the same factor: the GLS blocks, rescaled
        sy, sx = math.sqrt(1.0 + mu * mu), math.sqrt(1.0 + lam * lam)
        a, data = sy * a, lambda zy, zx: (zy / sy, zx / sx)
        b = a if same else sx * b
    else:
        a = np.vstack([a, mu * dy.left_product(a)])
        b = a if same else np.vstack([b, lam * dx.left_product(b)])
        data = lambda zy, zx: (np.vstack([zy, np.zeros_like(zy)]),
                               np.hstack([zx, np.zeros_like(zx)]))
    to_surface = lambda phi: phi
    if z0 is not None:
        # the shifted solution is mean free like the pinned one; without a shift
        # the cost fixes Z only up to a constant, so the surface comes back mean free
        offset = z0 if shift > 0 else z0 - z0.mean()
        to_surface = lambda phi: phi + offset
    return _OperatorPart(a, b, data, to_surface, np.ones(dy.n), np.ones(dx.n), shift, z0)


def _spectral(dx, dy, spec: Spectral) -> _OperatorPart:
    by, bx = spec.basis_y, spec.basis_x
    if by.n != dy.n:
        raise DimensionError(f"y basis sampled on {by.n} nodes but grid has {dy.n} rows")
    if bx.n != dx.n:
        raise DimensionError(f"x basis sampled on {bx.n} nodes but grid has {dx.n} columns")
    u = v = None
    if 0 in by.columns and 0 in bx.columns:
        u, v = ((np.arange(b.p) == b.columns.index(0)).astype(float) for b in (by, bx))
    a = dy.left_product(by.entries)
    # equal operators and bases give one operator block for both axes
    same = dx == dy and np.array_equal(by.entries, bx.entries)
    b = a if same else dx.left_product(bx.entries)
    for blk, basis in ((a, by), (b, bx)):
        if 0 in basis.columns:  # D annihilates the constant: exact zeros, not rounding
            blk[:, basis.columns.index(0)] = 0.0
    return _OperatorPart(a, b,
                         lambda zy, zx: (zy @ bx.entries, by.entries.T @ zx),
                         lambda coeff: by.entries @ coeff @ bx.entries.T, u, v)


def _dirichlet(dx, dy, spec: Dirichlet) -> _OperatorPart:
    if spec.boundary is None:
        raise DimensionError("Dirichlet reconstruction needs a boundary grid")
    zb = _a_priori(spec.boundary, "boundary grid", dx, dy)

    def embed(interior):
        z = zb.copy()
        z[1:-1, 1:-1] += interior
        return z

    # interior selection realized by index slicing rather than explicit
    # permutation matrices
    a = dy.entries[:, 1:-1]
    return _OperatorPart(a, a if dx == dy else dx.entries[:, 1:-1],
                         lambda zy, zx: (zy[:, 1:-1], zx[1:-1, :]), embed, grid=zb)


def _weighted(dx, dy, spec: Weighted) -> _OperatorPart:
    cov = spec.covariance
    if cov.xy.shape[0] != dy.n or cov.yy.shape[0] != dy.n:
        raise DimensionError("row covariances must be m-by-m")
    if cov.xx.shape[0] != dx.n or cov.yx.shape[0] != dx.n:
        raise DimensionError("column covariances must be n-by-n")
    sqrt_xy, isqrt_xy = cov.roots["xy"]
    sqrt_yx, isqrt_yx = cov.roots["yx"]
    _, isqrt_yy = cov.roots["yy"]
    _, isqrt_xx = cov.roots["xx"]
    # equal operators and covariances (yy as xx, xy as yx) give one block
    # for both axes; a diagonal covariance's roots are 1-d
    same = (dx == dy and np.array_equal(isqrt_yy, isqrt_xx)
            and np.array_equal(sqrt_xy, sqrt_yx))
    a = _sandwich(isqrt_yy, dy.entries, sqrt_xy)
    return _OperatorPart(
        a, a if same else _sandwich(isqrt_xx, dx.entries, sqrt_yx),
        lambda zy, zx: (_sandwich(isqrt_yy, zy, isqrt_yx), _sandwich(isqrt_xy, zx, isqrt_xx)),
        lambda phi: _sandwich(sqrt_xy, phi, sqrt_yx),
        u=_sandwich(isqrt_xy, np.ones((dy.n, 1))), v=_sandwich(isqrt_yx, np.ones((dx.n, 1))),
    )


def _operator_part(dx: DiffMatrix, dy: DiffMatrix, spec: MethodSpec) -> _OperatorPart:
    """The spec's operator part; it never sees a gradient."""
    if isinstance(spec, Gls):
        spec = Tikhonov(lam=0.0)  # no penalty and no reference: the GLS blocks, unshifted
    for kind, build in ((Tikhonov, _tikhonov), (Spectral, _spectral),
                        (Dirichlet, _dirichlet), (Weighted, _weighted)):
        if isinstance(spec, kind):
            return build(dx, dy, spec)
    raise TypeError(f"unknown method spec {spec!r}")


def _build(g: GradientField, dx: DiffMatrix, dy: DiffMatrix, spec: MethodSpec):
    """(system, back-map) of the spec for gradient g."""
    _check_operators(g, dx, dy)
    part = _operator_part(dx, dy, spec)
    return part.system(g, dx, dy), part.to_surface


def assemble(g: GradientField, dx: DiffMatrix, dy: DiffMatrix, spec: MethodSpec) -> SylvesterSystem:
    """Coefficient blocks and null vectors of the method's normal equations.

    The data blocks hold the measured gradient less that of the a-priori
    grid (see the module notes).  GLS and degree-0 Tikhonov return the GLS
    operators, unstacked, with ``shift = lam^2 + mu^2``.  Degree 1 returns
    them rescaled, ``sqrt(1 + mu^2) Dy`` and ``sqrt(1 + lam^2) Dx`` with
    the data divided by the same factors; its ``cost`` is the stacked cost
    less the Phi-independent constant
    mu^2/(1+mu^2) |F|^2 + lam^2/(1+lam^2) |G|^2.  Degree 2 stacks the
    penalty rows ``mu Dy^2`` and ``lam Dx^2`` under them.  When both axes
    would get equal blocks (equal operators, as on a square grid with equal
    spacing, for Tikhonov degrees 1 and 2 also lam = mu, and for weighted
    also yy = xx and xy = yx), one array is passed as both ``a`` and ``b``.
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
