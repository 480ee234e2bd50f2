"""Symmetric-coefficient Sylvester equation solvers.

Every reconstruction method in this package reduces to normal equations of
the form

    A.T A Phi + Phi B.T B + s Phi - A.T F - G B = 0,

a Sylvester equation with symmetric positive semi-definite coefficients and
a non-negative shift s (the degree-0 Tikhonov penalty; zero otherwise).
Every solve takes one route: :func:`factor` forms the symmetric
eigendecompositions of A.T A and B.T B (a :class:`Factorization`), in
whose basis :func:`solve` divides the equation elementwise.  It calls
``eigh`` once per coefficient block: when B is A itself (the one block a
builder passes for equal blocks on both axes, as on a square grid with
equal spacing) both sides share one eigendecomposition, and a block whose
columns are each exactly even or odd about the grid's middle (cosine or
Gram spectral) takes one ``eigh`` per parity group instead.  When
A and B each annihilate a known vector (u and v), the operator has the
rank-one null space u v.T, the single zero eigenvalue pair in that basis.
The factorization carries u and v: it pins that pair's coefficient at zero
and projects u v.T out of every solution it maps back, so whoever solves
gets u.T Phi v = 0 (mean free in the unweighted case).  The shift always
goes to the divisor, so one factorization serves every shift.

The paper removes the null space by Householder deflation before solving,
because the Bartels-Stewart algorithm cannot take a singular pencil.  The
symmetric eigen-diagonalization used here has no such limit: the singular
pencil only costs one zero divisor, which is pinned instead of divided by.
The minimizer with u.T Phi v = 0 is unique, so both routes return the same
solution up to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, SingularSystemError, finite_real

_SYM_TOL = 1e-10
_PENCIL_TOL = 1e-12
_NULL_TOL = 1e-8


def _require_symmetric(name: str, mat: np.ndarray) -> np.ndarray:
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {mat.shape}")
    scale = max(1.0, np.max(np.abs(mat))) if mat.size else 1.0
    if np.max(np.abs(mat - mat.T), initial=0.0) > _SYM_TOL * scale:
        raise ValueError(f"{name} is not symmetric to within {_SYM_TOL:g} (relative)")
    return 0.5 * (mat + mat.T)


def require_positive_definite(lo: float, hi: float) -> None:
    """Refuse a symmetric matrix whose eigenvalues span [lo, hi] unless the
    smallest exceeds 1e-12 of the largest."""
    if not lo > 1e-12 * max(hi, 0.0):
        raise SingularSystemError(
            f"matrix is not positive definite (eigenvalue range [{lo:.3e}, {hi:.3e}])"
        )


def sym_sqrt(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric square root and inverse square root of an SPD matrix.

    Returns (mat^(1/2), mat^(-1/2)), both symmetric, computed from the
    eigendecomposition.  Raises if the matrix is not symmetric positive
    definite (see :func:`require_positive_definite`).
    """
    mat = _require_symmetric("matrix", mat)
    evals, evecs = np.linalg.eigh(mat)
    require_positive_definite(evals[0], evals[-1])
    root = (evecs * np.sqrt(evals)) @ evecs.T
    inv_root = (evecs / np.sqrt(evals)) @ evecs.T
    return 0.5 * (root + root.T), 0.5 * (inv_root + inv_root.T)


@dataclass(frozen=True)
class Factorization:
    """Symmetric eigendecompositions of the Sylvester coefficients P and Q.

    :func:`factor` builds one from a system, with P = A.T A and Q = B.T B.
    P = up diag(lp) up.T and Q = uq diag(lq) uq.T, eigenvalues ascending.
    In this basis P X + X Q = C is the elementwise division
    X'_ij = C'_ij / (lp_i + lq_j), and a degree-0 Tikhonov penalty on both
    sides only shifts every divisor by the same amount, so one factorization
    serves any number of right-hand sides and penalty parameters.

    ``u`` and ``v`` are the system's null vectors (``None`` when it names
    none).  With them lp_0 + lq_0 is the null pair u v.T, and it is pinned:
    its coefficient is set to zero instead of divided by, and
    :meth:`from_basis` projects u v.T out of every solution it maps back.

    The arrays are read-only views.  When Q equals P, ``lq``/``uq`` share
    memory with ``lp``/``up``, so a write through one side would silently
    change the other; it raises instead.
    """

    lp: np.ndarray
    up: np.ndarray
    lq: np.ndarray
    uq: np.ndarray
    u: np.ndarray | None = None
    v: np.ndarray | None = None

    def __post_init__(self):
        if (self.u is None) != (self.v is None):
            raise DimensionError("null vectors u and v must both be given or both omitted")
        for name in ("lp", "up", "lq", "uq") + (("u", "v") if self.pinned else ()):
            view = np.asarray(getattr(self, name), dtype=float).view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)

    @property
    def pinned(self) -> bool:
        """Whether the system declared a null pair (u, v)."""
        return self.u is not None

    @property
    def pencil(self) -> np.ndarray:
        """The eigenvalues lp_i + lq_j of the Sylvester operator."""
        return self.lp[:, None] + self.lq[None, :]

    def to_basis(self, c: np.ndarray) -> np.ndarray:
        """up.T C uq."""
        return self.up.T @ c @ self.uq

    def from_basis(self, x: np.ndarray) -> np.ndarray:
        """up X uq.T, with u v.T projected out exactly when pinned, so the
        result satisfies u.T Phi v = 0."""
        phi = self.up @ x @ self.uq.T
        if self.pinned:
            u, v = self.u, self.v
            phi -= np.multiply.outer(u, ((u @ phi @ v) / ((u @ u) * (v @ v))) * v)
        return phi

    def divisor(self, shift: float = 0.0) -> np.ndarray:
        """lp_i + lq_j + shift, with the pinned entry set to inf."""
        shift = finite_real("pencil shift", shift)
        denom = self.lp[:, None] + (self.lq + shift)[None, :]
        if self.pinned:
            denom[0, 0] = np.inf  # the pinned constant of integration
        return denom

    def divide(self, c: np.ndarray, shift: float = 0.0) -> np.ndarray:
        """C'_ij / (lp_i + lq_j + shift), with the pinned entry set to zero."""
        denom = self.divisor(shift)
        return np.divide(c, denom, out=denom)


@dataclass(frozen=True)
class SylvesterSystem:
    """Blocks of normal equations A.T A Phi + Phi B.T B + shift Phi = A.T F + G B.

    ``a`` is r-by-m (left operator, possibly stacked), ``b`` is s-by-n,
    ``f`` is r-by-n, ``g`` is m-by-s, and the unknown Phi is m-by-n.
    ``u`` and ``v`` are the null vectors of ``a`` and ``b`` (both present or
    both absent); when present the unshifted operator's null space is
    span{u v.T}.  ``shift`` (finite, non-negative) weights a penalty
    shift |Phi|_F^2 added to the cost; it moves every pencil eigenvalue by
    the same amount and leaves the eigenvectors alone.
    """

    a: np.ndarray
    b: np.ndarray
    f: np.ndarray
    g: np.ndarray
    u: np.ndarray | None = None
    v: np.ndarray | None = None
    shift: float = 0.0

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        f = np.asarray(self.f, dtype=float)
        g = np.asarray(self.g, dtype=float)
        if a.ndim != 2 or b.ndim != 2 or f.ndim != 2 or g.ndim != 2:
            raise DimensionError("all system blocks must be 2-d arrays")
        m, n = a.shape[1], b.shape[1]
        if f.shape != (a.shape[0], n):
            raise DimensionError(f"data block F must be {a.shape[0]}x{n}, got {f.shape}")
        if g.shape != (m, b.shape[0]):
            raise DimensionError(f"data block G must be {m}x{b.shape[0]}, got {g.shape}")
        if (self.u is None) != (self.v is None):
            raise DimensionError("null vectors u and v must both be given or both omitted")
        for blk, name in ((a, "a"), (b, "b"), (f, "f"), (g, "g")):
            object.__setattr__(self, name, blk)
        object.__setattr__(self, "shift", finite_real("pencil shift", self.shift))
        if self.u is not None:
            u = np.asarray(self.u, dtype=float).ravel()
            v = np.asarray(self.v, dtype=float).ravel()
            if u.shape[0] != m or v.shape[0] != n:
                raise DimensionError("null vector lengths must match the unknown's shape")
            for op, vec, name in ((a, u, "u"), (b, v, "v")):
                bound = _NULL_TOL * np.linalg.norm(op) * np.linalg.norm(vec)
                if np.linalg.norm(op @ vec) > bound:
                    raise ValueError(f"{name} is not a null vector of its operator")
            object.__setattr__(self, "u", u)
            object.__setattr__(self, "v", v)

    @property
    def phi_shape(self) -> tuple[int, int]:
        return self.a.shape[1], self.b.shape[1]

    def rhs(self) -> np.ndarray:
        """A.T F + G B."""
        return self.a.T @ self.f + self.g @ self.b

    def residual(self, phi: np.ndarray) -> float:
        """Frobenius norm of the normal-equation residual at phi."""
        return float(np.linalg.norm(
            self.a.T @ (self.a @ phi) + (phi @ self.b.T) @ self.b + self.shift * phi
            - self.rhs()
        ))

    def cost(self, phi: np.ndarray) -> float:
        """|A phi - F|_F^2 + |phi B.T - G|_F^2 + shift |phi|_F^2."""
        return float(
            np.linalg.norm(self.a @ phi - self.f) ** 2
            + np.linalg.norm(phi @ self.b.T - self.g) ** 2
            + self.shift * np.linalg.norm(phi) ** 2
        )


def _parity_groups(blk: np.ndarray):
    """Column positions (even, odd) of ``blk`` under row reversal, or None
    unless each column is bitwise one of them and both occur (zero is odd)."""
    m, k = blk.shape
    if k < 2 or not np.all((blk[0] == blk[-1]) | (blk[0] == -blk[-1])):
        return None  # the end rows reject a stencil block in O(k)
    # the halves meet at the middle row of an odd m, which is zero in an odd column
    top, rev = blk[:(m + 1) // 2], blk[::-1][:(m + 1) // 2]
    odd = np.all(top == -rev, axis=0)
    split = 0 < np.count_nonzero(odd) < k and np.all(odd | np.all(top == rev, axis=0))
    return (np.flatnonzero(~odd), np.flatnonzero(odd)) if split else None


def _eigh(blk: np.ndarray):
    """Ascending eigendecomposition (lam, vec) of blk.T blk.

    When each column of the block is bitwise even or odd under the row
    reversal J, the orthogonal J fixes one group and negates the other, so
    their cross Gram vanishes (Cantoni & Butler, Linear Algebra Appl. 13,
    1976).  Each group's own Gram then gets its own ``eigh``, and each
    eigenvector goes straight to its column in ascending eigenvalue order.
    Any other block takes a plain ``eigh`` of its Gram.
    """
    groups = _parity_groups(blk)
    if groups is None:
        return np.linalg.eigh(blk.T @ blk)
    lams, vecs = zip(*(np.linalg.eigh(x.T @ x)
                       for x in (np.take(blk, g, axis=1) for g in groups)))
    lam = np.concatenate(lams)
    rank = np.argsort(np.argsort(lam, kind="stable"))  # each eigenpair's sorted position
    evecs = np.zeros((len(lam), len(lam)))
    for g, cols, v in zip(groups, np.split(rank, [len(groups[0])]), vecs):
        evecs[np.ix_(g, cols)] = v
    return np.sort(lam), evecs


def factor(system: SylvesterSystem) -> Factorization:
    """Eigendecompositions of the system's coefficients A.T A and B.T B.

    It carries the system's null vectors and depends on the operators
    alone; the shift goes to :meth:`Factorization.divide`.  Without null
    vectors a pencil is refused when lambda_0 + mu_0 + shift lies within a
    relative tolerance of zero.  With null vectors the operator's null space
    must be exactly span{u v.T}: the second-smallest pencil eigenvalue,
    min(lambda_1 + mu_0, lambda_0 + mu_1), must exceed that tolerance.

    ``eigh`` runs once per coefficient block, or once per parity group.
    When B is A itself (the one block ``assemble`` passes for equal blocks
    on both axes of a square grid) B.T B is not formed and both sides get
    the same eigenpairs; equal but distinct blocks are factored twice.  A
    block whose columns are each bitwise even or odd under row reversal
    (cosine or Gram spectral, or any column subset of one) is split by
    parity (see ``_eigh``), which moves its eigenpairs by rounding only;
    any other takes a plain ``eigh``.
    """
    lp, up = _eigh(system.a)
    lq, uq = (lp, up) if system.b is system.a else _eigh(system.b)
    fac = Factorization(lp=lp, up=up, lq=lq, uq=uq, u=system.u, v=system.v)
    scale = np.max(np.abs(lp), initial=0.0) + np.max(np.abs(lq), initial=0.0)
    if system.u is None:
        smallest = lp[0] + lq[0] + system.shift
        if smallest <= _PENCIL_TOL * (scale + system.shift):
            raise SingularSystemError(
                f"singular pencil: smallest eigenvalue pair sums to {smallest:.3e}"
            )
        return fac
    second = np.inf  # a side with a single unknown contributes no candidate
    if lp.size > 1:
        second = lp[1] + lq[0]
    if lq.size > 1:
        second = min(second, lp[0] + lq[1])
    if second <= _PENCIL_TOL * scale:
        raise SingularSystemError(
            f"singular pencil: second-smallest eigenvalue pair sums to {second:.3e}; "
            "the operator's null space is larger than one"
        )
    return fac


def solve(system: SylvesterSystem) -> np.ndarray:
    """Solve the system's normal equations through one :func:`factor`.

    In the eigenbasis every coefficient is divided by its pencil eigenvalue
    lambda_i + mu_j + shift.  With null vectors the pinned pair's
    coefficient stays zero and :meth:`Factorization.from_basis` projects
    u v.T out of the back-transformed solution exactly, so the result is the
    unique minimizer with u.T Phi v = 0.  With a positive shift the
    minimizer is unique anyway, and it satisfies u.T Phi v = 0 because
    u.T (A.T F + G B) v vanishes, so the pin and the projection only remove
    rounding.
    """
    fac = factor(system)
    return fac.from_basis(fac.divide(fac.to_basis(system.rhs()), system.shift))


def work_estimate(m: int, n: int, method: str = "sylvester", truncation_level: int = 0) -> float:
    """Documented flop-count models for the solver families.

    ``sylvester``  : (5/3) m^3 + 10 n^3 + 5 m^2 n + (5/2) m n^2, the classic
                     Hessenberg-Schur operation count (quoted as written; the
                     eigendecomposition route used here has the same cubic
                     order with a different constant).
    ``vectorized`` : 41 m^3 n^3, a dense least-squares solve of the stacked
                     2mn-by-mn system.
    ``spectral``   : the sylvester count for a basis truncated by a factor
                     2^k per axis, i.e. exactly 2^(-3k) of the full count.
    """
    if m < 1 or n < 1:
        raise ValueError("grid dimensions must be at least 1")
    if method == "sylvester":
        return (5.0 * m**3) / 3.0 + 10.0 * n**3 + 5.0 * m**2 * n + (5.0 * m * n**2) / 2.0
    if method == "vectorized":
        return 41.0 * m**3 * n**3
    if method == "spectral":
        if truncation_level < 0:
            raise ValueError("truncation level must be non-negative")
        return work_estimate(m, n, "sylvester") / 8.0**truncation_level
    raise ValueError(f"unknown method tag {method!r}")
