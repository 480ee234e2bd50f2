"""Discrete orthonormal basis sets for spectral regularization.

Three families are provided: cosine (orthonormal DCT-II), Gram polynomials on
uniform nodes, and the Haar system.  Columns of a basis matrix are the basis
functions sampled on the nodes; column 0 is always the constant 1/sqrt(n), so
the spectrum of a constant vector is supported on index 0 alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class BasisSet:
    """n-by-p matrix of orthonormal basis columns.

    ``columns`` records each column's index within the full family, so a
    band-pass slice taken with :meth:`subset` remembers which original
    functions it kept (in particular whether the constant, index 0, is
    present).
    """

    entries: np.ndarray
    family: str
    columns: tuple[int, ...] = field(default=())

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=float)
        object.__setattr__(self, "entries", entries)
        if not self.columns:
            object.__setattr__(self, "columns", tuple(range(entries.shape[1])))
        if len(self.columns) != entries.shape[1]:
            raise ValueError("column index list does not match entry matrix width")

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
        if any(c < 0 or c >= self.p for c in cols):
            raise ValueError(f"column index out of range 0..{self.p - 1}")
        return BasisSet(
            entries=self.entries[:, cols],
            family=self.family,
            columns=tuple(self.columns[c] for c in cols),
        )

    def drop(self, cols) -> "BasisSet":
        """New BasisSet with the given column positions removed."""
        drop = set(cols)
        if any(c < 0 or c >= self.p for c in drop):
            raise ValueError(f"column index out of range 0..{self.p - 1}")
        keep = [c for c in range(self.p) if c not in drop]
        return self.subset(keep)


def _check_counts(n: int, p: int) -> tuple[int, int]:
    n, p = int(n), int(p)
    if n < 1:
        raise ValueError(f"node count must be positive, got {n}")
    if not 1 <= p <= n:
        raise ValueError(f"basis count must satisfy 1 <= p <= {n}, got {p}")
    return n, p


def cosine_basis(n: int, p: int) -> BasisSet:
    """First p orthonormal DCT-II functions on n nodes.

    Column k samples c_k * cos(pi*k*(2i+1)/(2n)) with c_0 = 1/sqrt(n) and
    c_k = sqrt(2/n) otherwise, which is orthonormal by construction.
    """
    n, p = _check_counts(n, p)
    i = np.arange(n)
    k = np.arange(p)
    b = np.cos(np.pi * np.outer(2 * i + 1, k) / (2.0 * n))
    b *= np.where(k == 0, np.sqrt(1.0 / n), np.sqrt(2.0 / n))
    return BasisSet(entries=b, family="cosine")


def gram_basis(n: int, p: int) -> BasisSet:
    """First p orthonormal Gram polynomials on n uniform nodes.

    Built by the three-term recurrence with renormalization at each degree;
    a classical re-orthogonalization pass is applied whenever a candidate
    column's projection onto the previous columns exceeds 1e-11, which keeps
    the set orthonormal at node counts in the thousands.  Column k has
    polynomial degree exactly k.
    """
    n, p = _check_counts(n, p)
    x = np.linspace(-1.0, 1.0, n) if n > 1 else np.zeros(1)
    b = np.zeros((n, p))
    b[:, 0] = 1.0 / np.sqrt(n)
    for k in range(1, p):
        t = x * b[:, k - 1]
        t -= b[:, k - 1] * (b[:, k - 1] @ t)
        if k >= 2:
            t -= b[:, k - 2] * (b[:, k - 2] @ t)
        coeff = b[:, :k].T @ t
        if np.max(np.abs(coeff)) > 1e-11 * max(np.linalg.norm(t), 1e-300):
            t -= b[:, :k] @ coeff
        norm = np.linalg.norm(t)
        if norm <= 1e-300:
            raise ValueError(f"Gram recurrence broke down at degree {k} on {n} nodes")
        b[:, k] = t / norm
    return BasisSet(entries=b, family="gram")


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
    col = 1
    level = 0
    while col < p:
        width = n >> level
        for shift in range(1 << level):
            if col >= p:
                break
            start = shift * width
            half = width // 2
            amp = np.sqrt(1.0 / width)
            b[start:start + half, col] = amp
            b[start + half:start + width, col] = -amp
            col += 1
        level += 1
    return BasisSet(entries=b, family="haar")


_FAMILIES = {"cosine": cosine_basis, "gram": gram_basis, "haar": haar_basis}


def make_basis(family: str, n: int, p: int) -> BasisSet:
    """Dispatch on family name ('cosine', 'gram', or 'haar')."""
    try:
        builder = _FAMILIES[family]
    except KeyError:
        raise ValueError(f"unknown basis family {family!r}; choose from {sorted(_FAMILIES)}")
    return builder(n, p)
