"""Discrete orthonormal basis sets for spectral regularization.

Three families are provided: cosine (orthonormal DCT-II), Gram polynomials on
uniform nodes, and the Haar system.  Columns of a basis matrix are the basis
functions sampled on the nodes; column 0 is always the constant 1/sqrt(n), so
the spectrum of a constant vector is supported on index 0 alone.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .diffops import _check_grid
from .errors import whole_number


@dataclass(frozen=True)
class BasisSet:
    """n-by-p matrix of orthonormal basis columns.

    ``columns`` records each column's index within the full family, so a
    band-pass slice taken with :meth:`subset` remembers which original
    functions it kept (in particular whether the constant, index 0, is
    present).  The entries must be a finite, non-empty 2-d matrix and the
    labels distinct, and a column labelled 0 must be constant: its entries
    bitwise equal and non-zero, since a spectral solve takes it as the null
    vector of D.  They are stored C-ordered, so the caller's layout cannot
    change a solve's rounding or speed.
    """

    entries: np.ndarray
    family: str
    columns: tuple[int, ...] = field(default=())

    def __post_init__(self):
        entries = np.ascontiguousarray(_check_grid("entries", self.entries))
        object.__setattr__(self, "entries", entries)
        if not self.columns:
            object.__setattr__(self, "columns", tuple(range(entries.shape[1])))
        if len(self.columns) != entries.shape[1]:
            raise ValueError("column index list does not match entry matrix width")
        repeated = sorted(c for c, k in Counter(self.columns).items() if k > 1)
        if repeated:
            # two equal columns would make the spectral operator rank deficient
            raise ValueError(f"column labels repeated: {repeated}")
        if 0 in self.columns:
            const = entries[:, self.columns.index(0)]
            if const[0] == 0 or np.any(const != const[0]):
                raise ValueError("the column labelled 0 must be constant: equal, non-zero entries")

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @property
    def p(self) -> int:
        return self.entries.shape[1]

    def subset(self, cols) -> "BasisSet":
        """New BasisSet keeping the given column positions (band-pass)."""
        cols = list(cols)
        if not cols:
            raise ValueError("cannot slice a basis down to zero columns")
        if any(whole_number("column position", c) < 0 or c >= self.p for c in cols):
            raise ValueError(f"column index out of range 0..{self.p - 1}")
        return BasisSet(
            entries=self.entries[:, cols],
            family=self.family,
            columns=tuple(self.columns[c] for c in cols),
        )

    def drop(self, cols) -> "BasisSet":
        """New BasisSet with the given column positions removed."""
        drop = set(cols)
        if any(whole_number("column position", c) < 0 or c >= self.p for c in drop):
            raise ValueError(f"column index out of range 0..{self.p - 1}")
        keep = [c for c in range(self.p) if c not in drop]
        return self.subset(keep)


def _check_counts(n: int, p: int) -> tuple[int, int]:
    n, p = whole_number("node count", n, 1), whole_number("basis count", p, 1)
    if p > n:
        raise ValueError(f"basis count must satisfy 1 <= p <= {n}, got {p}")
    return n, p


def _mirror(top: np.ndarray, n: int) -> np.ndarray:
    """The n rows whose first ceil(n/2) are ``top``, with column k of parity
    (-1)^k bitwise (the odd columns zero on the middle row of an odd n)."""
    # into a C-ordered array even when top is a transposed view
    b = np.concatenate([top, top[:n // 2][::-1]], out=np.empty((n, top.shape[1])))
    b[len(top):, 1::2] *= -1.0
    if n % 2:
        b[n // 2, 1::2] = 0.0
    return b


def cosine_basis(n: int, p: int) -> BasisSet:
    """First p orthonormal DCT-II functions on n nodes.

    Column k samples c_k * cos(pi*k*(2i+1)/(2n)) with c_0 = 1/sqrt(n) and
    c_k = sqrt(2/n) otherwise, orthonormal by construction, on the first
    ceil(n/2) nodes and reflected, so column k has parity (-1)^k bitwise.
    """
    n, p = _check_counts(n, p)
    k = np.arange(p)
    top = np.cos(np.pi * np.outer(np.arange(1, n + 1, 2), k) / (2.0 * n))  # 2i+1, i < ceil(n/2)
    top *= np.where(k == 0, np.sqrt(1.0 / n), np.sqrt(2.0 / n))
    return BasisSet(entries=_mirror(top, n), family="cosine")


def gram_basis(n: int, p: int) -> BasisSet:
    """First p orthonormal Gram polynomials on n uniform nodes.

    Built by the three-term recurrence with renormalization at each degree;
    a classical re-orthogonalization pass is applied whenever a candidate
    column's projection onto the previous columns exceeds 1e-11, which keeps
    the set orthonormal at node counts in the thousands.  Column k has
    polynomial degree exactly k.

    The nodes are symmetric about 0, so column k has parity (-1)^k:
    J b_k = (-1)^k b_k with J the reversal.  The recurrence runs on the
    ceil(n/2) nodes of the first half only, each inner product weighting a
    mirrored node by 2 (the middle node of an odd n by 1), and each column
    is projected only against earlier columns of its own parity, since the
    others are orthogonal to it by symmetry.  Reflecting the half columns
    then makes the parity hold bitwise, which lets a spectral Gram of this
    basis split into its two parity blocks (see ``sylvester.factor``).
    """
    n, p = _check_counts(n, p)
    half = (n + 1) // 2
    x = np.linspace(-1.0, 1.0, n)[:half]
    w = np.full(half, 2.0)
    if n % 2:
        x[-1] = 0.0  # the middle node, exactly, so that odd columns vanish there
        w[-1] = 1.0
    cols = np.empty((p, half))  # the half columns, one per row
    cols[0] = 1.0 / np.sqrt(n)
    for k in range(1, p):
        same = cols[k % 2:k:2]  # the earlier columns of k's parity
        t = x * cols[k - 1]
        if k >= 2:
            t -= same[-1] * (same[-1] @ (w * t))
        coeff = same @ (w * t)
        if np.max(np.abs(coeff), initial=0.0) > 1e-11 * max(np.sqrt(t @ (w * t)), 1e-300):
            t -= coeff @ same
        norm = np.sqrt(t @ (w * t))
        if norm <= 1e-300:
            raise ValueError(f"Gram recurrence broke down at degree {k} on {n} nodes")
        cols[k] = t / norm
    return BasisSet(entries=_mirror(cols.T, n), family="gram")


def haar_basis(n: int, p: int) -> BasisSet:
    """First p normalized Haar functions on n nodes (n must be a power of two).

    Column 0 is the constant; wavelet columns follow ordered coarse to fine,
    each taking values +a on the first half of its support and -a on the
    second half with a chosen for unit norm.
    """
    n, p = _check_counts(n, p)
    if n & (n - 1) != 0:
        raise ValueError(f"Haar basis requires a power-of-two node count, got {n}")
    b = np.zeros((n, p))
    b[:, 0] = 1.0 / np.sqrt(n)
    for col in range(1, p):
        level = col.bit_length() - 1  # columns 2**level .. 2**(level+1) - 1 share a width
        width = n >> level
        start = (col - (1 << level)) * width
        amp = np.sqrt(1.0 / width)
        b[start:start + width // 2, col] = amp
        b[start + width // 2:start + width, col] = -amp
    return BasisSet(entries=b, family="haar")


_FAMILIES = {"cosine": cosine_basis, "gram": gram_basis, "haar": haar_basis}


def make_basis(family: str, n: int, p: int) -> BasisSet:
    """Dispatch on family name ('cosine', 'gram', or 'haar')."""
    try:
        builder = _FAMILIES[family]
    except KeyError:
        raise ValueError(f"unknown basis family {family!r}; choose from {sorted(_FAMILIES)}")
    return builder(n, p)
