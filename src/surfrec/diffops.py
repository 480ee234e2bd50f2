"""Finite-difference differentiation operators and grid containers.

An operator is the value (n, h, order) with a derived, read-only dense
matrix: centered stencils in the interior and one-sided stencils of the
*same* accuracy order at the boundary rows, so the whole matrix is uniformly
second or fourth order accurate.  Every operator annihilates the constant
vector (rows sum to zero) and has a one-dimensional null space, which
downstream solvers rely on.

Grids follow the convention: row index runs along y, column index along x.
For a height grid Z, the x-derivative is Z @ D_x.T and the y-derivative is
D_y @ Z.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, finite_real, whole_number

_ORDERS = (2, 4)


def _stencil_matrix(n: int, order: int) -> np.ndarray:
    """Unit-spacing differentiation matrix (divide by h to scale)."""
    d = np.zeros((n, n))
    if order == 2:
        for i in range(1, n - 1):
            d[i, i - 1:i + 2] = (-0.5, 0.0, 0.5)
        d[0, :3] = (-1.5, 2.0, -0.5)
        d[-1, -3:] = (0.5, -2.0, 1.5)
    else:
        centre = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
        for i in range(2, n - 2):
            d[i, i - 2:i + 3] = centre
        d[0, :5] = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
        d[1, :5] = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / 12.0
        d[-2, -5:] = np.array([-1.0, 6.0, -18.0, 10.0, 3.0]) / 12.0
        d[-1, -5:] = np.array([3.0, -16.0, 36.0, -48.0, 25.0]) / 12.0
    return d


@dataclass(frozen=True)
class DiffMatrix:
    """Differentiation operator on n nodes with uniform spacing h.

    (n, h, order) is the whole state, compared and hashed: an integer n of
    at least order + 1, an order of exactly 2 or 4 and a finite positive h.
    ``entries`` is the dense matrix derived from them once, read-only, with
    the stencils that :meth:`left_product` applies (two boundary rows per
    end for order 4, one-sided and of the same order as the interior).
    """

    n: int
    h: float
    order: int = 2

    def __post_init__(self):
        n, order = whole_number("node count", self.n), whole_number("order", self.order)
        if order not in _ORDERS:
            raise ValueError(f"order must be one of {_ORDERS}, got {order!r}")
        h = finite_real("node spacing", self.h, positive=True)
        if n < order + 1:
            raise DimensionError(f"order-{order} operator needs at least {order + 1} nodes, got {n}")
        entries = _stencil_matrix(n, order) / h
        entries.flags.writeable = False
        for name, value in (("n", n), ("h", h), ("order", order), ("entries", entries)):
            object.__setattr__(self, name, value)

    def __reduce__(self):
        # copies and pickles carry the three fields and rebuild the matrix
        return DiffMatrix, (self.n, self.h, self.order)

    def left_product(self, mat: np.ndarray) -> np.ndarray:
        """entries @ mat, evaluated by the stencils in O(rows) per column.

        The operator touches at most five neighbours per row, so the product
        is formed from shifted row slices instead of a dense matrix multiply.
        """
        mat = np.asarray(mat, dtype=float)
        if mat.shape[0] != self.n:
            raise DimensionError(
                f"operator has {self.n} nodes but the array has {mat.shape[0]} rows"
            )
        out = np.empty_like(mat, dtype=float)
        h = self.h
        if self.order == 2:
            interior = np.subtract(mat[2:], mat[:-2], out=out[1:-1])
            interior *= 0.5 / h
            out[0] = (-1.5 * mat[0] + 2.0 * mat[1] - 0.5 * mat[2]) / h
            out[-1] = (0.5 * mat[-3] - 2.0 * mat[-2] + 1.5 * mat[-1]) / h
        else:
            s = 1.0 / (12.0 * h)
            out[2:-2] = (mat[:-4] - 8.0 * mat[1:-3] + 8.0 * mat[3:-1] - mat[4:]) * s
            out[0] = (-25 * mat[0] + 48 * mat[1] - 36 * mat[2] + 16 * mat[3] - 3 * mat[4]) * s
            out[1] = (-3 * mat[0] - 10 * mat[1] + 18 * mat[2] - 6 * mat[3] + mat[4]) * s
            out[-2] = (-mat[-5] + 6 * mat[-4] - 18 * mat[-3] + 10 * mat[-2] + 3 * mat[-1]) * s
            out[-1] = (3 * mat[-5] - 16 * mat[-4] + 36 * mat[-3] - 48 * mat[-2] + 25 * mat[-1]) * s
        return out


diff_matrix = DiffMatrix  # the constructor's function name


def _grid(z) -> np.ndarray:
    heights = z.heights if isinstance(z, Surface) else z
    arr = np.asarray(heights, dtype=float)
    if arr.ndim != 2:
        raise DimensionError(f"expected a 2-d grid, got shape {arr.shape}")
    return arr


def apply_dx(z, dx: DiffMatrix) -> np.ndarray:
    """x-derivative of a grid: Z @ D_x.T (differentiates along rows)."""
    arr = _grid(z)
    if dx.n != arr.shape[1]:
        raise DimensionError(f"x operator has {dx.n} nodes but grid has {arr.shape[1]} columns")
    return dx.left_product(arr.T).T


def apply_dy(z, dy: DiffMatrix) -> np.ndarray:
    """y-derivative of a grid: D_y @ Z (differentiates along columns)."""
    arr = _grid(z)
    if dy.n != arr.shape[0]:
        raise DimensionError(f"y operator has {dy.n} nodes but grid has {arr.shape[0]} rows")
    return dy.left_product(arr)


def _check_grid(name: str, arr: np.ndarray) -> np.ndarray:
    arr = np.asarray(arr, dtype=float)
    if arr.ndim != 2 or min(arr.shape) < 1:
        raise DimensionError(f"{name} must be a 2-d grid, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr


@dataclass(frozen=True)
class Surface:
    """Height grid with node spacings; rows run along y, columns along x."""

    heights: np.ndarray
    hx: float = 1.0
    hy: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "heights", _check_grid("heights", self.heights))
        object.__setattr__(self, "hx", finite_real("hx", self.hx, positive=True))
        object.__setattr__(self, "hy", finite_real("hy", self.hy, positive=True))

    @property
    def m(self) -> int:
        return self.heights.shape[0]

    @property
    def n(self) -> int:
        return self.heights.shape[1]

    def mean_free(self) -> "Surface":
        """Same surface shifted so its grid mean is zero."""
        return Surface(self.heights - self.heights.mean(), self.hx, self.hy)


@dataclass(frozen=True)
class GradientField:
    """Measured partial-derivative grids (zx, zy) on a common m-by-n grid."""

    zx: np.ndarray
    zy: np.ndarray
    hx: float = 1.0
    hy: float = 1.0

    def __post_init__(self):
        zx = _check_grid("zx", self.zx)
        zy = _check_grid("zy", self.zy)
        if zx.shape != zy.shape:
            raise DimensionError(f"zx shape {zx.shape} does not match zy shape {zy.shape}")
        object.__setattr__(self, "zx", zx)
        object.__setattr__(self, "zy", zy)
        object.__setattr__(self, "hx", finite_real("hx", self.hx, positive=True))
        object.__setattr__(self, "hy", finite_real("hy", self.hy, positive=True))

    @property
    def m(self) -> int:
        return self.zx.shape[0]

    @property
    def n(self) -> int:
        return self.zx.shape[1]

    def operators(self, order: int = 2) -> tuple[DiffMatrix, DiffMatrix]:
        """Differentiation matrices (Dx, Dy) matching this grid."""
        return diff_matrix(self.n, self.hx, order), diff_matrix(self.m, self.hy, order)
