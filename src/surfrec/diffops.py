"""Finite-difference differentiation operators and grid containers.

An operator is the value (n, h, order), applied by stencil: centered
stencils in the interior and one-sided stencils of the *same* accuracy order
at the boundary rows, so it is uniformly second or fourth order accurate.
Its read-only dense matrix is derived on first use, by the solvers whose
blocks it is.  Every operator annihilates the constant vector (rows sum to
zero) and has a one-dimensional null space, which downstream solvers rely on.

Grids follow the convention: row index runs along y, column index along x.
For a height grid Z, the x-derivative is Z @ D_x.T and the y-derivative is
D_y @ Z.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionError, finite_real, whole_number

# Unit-spacing stencil weights per order (Fornberg, Math. Comp. 51, 1988): the
# centred c_1..c_w, interior row i being sum_k c_k (x[i+k] - x[i-k]), and the w
# one-sided start rows.  The end rows are these reversed and negated (JDJ = -D).
_STENCILS = {
    2: ((1 / 2,), ((-3 / 2, 2.0, -1 / 2),)),
    4: ((8 / 12, -1 / 12), ((-25 / 12, 48 / 12, -36 / 12, 16 / 12, -3 / 12),
                            (-3 / 12, -10 / 12, 18 / 12, -6 / 12, 1 / 12))),
}


@dataclass(frozen=True)
class DiffMatrix:
    """Differentiation operator on n nodes with uniform spacing h.

    (n, h, order) is the whole state, compared and hashed: an integer n of
    at least order + 1, an order of exactly 2 or 4 and a finite positive h.
    :meth:`left_product` is the one reader of the stencil table (centred
    rows inside, one-sided rows of the same order at the ends, two per end
    for order 4), and ``entries``, the dense matrix, is derived on first use
    as ``left_product(I)``, read-only.
    """

    n: int
    h: float
    order: int = 2

    def __post_init__(self):
        n, order = whole_number("node count", self.n), whole_number("order", self.order)
        if order not in _STENCILS:
            raise ValueError(f"order must be one of {tuple(_STENCILS)}, got {order!r}")
        h = finite_real("node spacing", self.h, positive=True)
        if n < order + 1:
            raise DimensionError(f"order-{order} operator needs at least {order + 1} nodes, got {n}")
        for name, value in (("n", n), ("h", h), ("order", order)):
            object.__setattr__(self, name, value)

    def __reduce__(self):
        # copies and pickles carry the three fields, never a derived matrix
        return DiffMatrix, (self.n, self.h, self.order)

    @cached_property
    def entries(self) -> np.ndarray:
        """The dense n-by-n matrix, read-only, built on first read."""
        entries = self.left_product(np.eye(self.n))
        entries.flags.writeable = False
        return entries

    def left_product(self, mat: np.ndarray) -> np.ndarray:
        """entries @ mat, for a vector or a 2-d array, evaluated by the
        stencils in O(rows) per column.

        One pass over the stencil table, each weight c / h, so it is
        ``entries @ mat`` up to rounding and ``entries`` itself for the
        identity.  Each end row sums the reversed tail in its start row's
        order, so D maps an exactly even or odd column (under row reversal)
        to an exactly odd or even one.
        """
        mat, n = np.asarray(mat, dtype=float), self.n
        if mat.ndim == 1:
            return self.left_product(mat[:, None])[:, 0]
        if mat.ndim != 2:
            raise DimensionError(f"expected a vector or a 2-d array, got shape {mat.shape}")
        if mat.shape[0] != n:
            raise DimensionError(f"operator has {n} nodes but the array has {mat.shape[0]} rows")
        centre, start = (np.divide(t, self.h) for t in _STENCILS[self.order])
        w, width = start.shape
        out = np.empty_like(mat, dtype=float)
        inner = np.subtract(mat[w + 1:n - w + 1], mat[w - 1:n - w - 1], out=out[w:n - w])
        inner *= centre[0]
        for k in range(2, w + 1):
            diff = mat[w + k:n - w + k] - mat[w - k:n - w - k]
            diff *= centre[k - 1]
            inner += diff
        # both ends in one product, the tail reversed and negated, so that
        # each end row rounds exactly as its mirrored start row does
        ends = start @ np.stack((mat[:width], -mat[::-1][:width]))
        out[:w], out[n - w:] = ends[0], ends[1, ::-1]
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
