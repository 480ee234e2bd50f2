"""Output checks: each method's stationarity condition and pinning, and a
dense Kronecker least-squares solve for small grids.

The conditions are written out here from the operators' ``entries``; nothing
goes through ``surfrec.assemble`` or the Sylvester solver, so a wrong solve
cannot also corrupt the check that judges it.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from inputs import FAMILY, Inputs, Problem

RESID_TOL = 1e-8  # relative gradient of the cost at the returned surface
PIN_TOL = 1e-9  # pinned constant, relative to the surface's magnitude
ORACLE_TOL = 1e-7  # max deviation from the dense solve, relative to its peak
ORTHO_TOL = 1e-8  # orthonormality of a spectral basis


def _right(a, d):
    """a @ d for a sparse operator d, as a dense array."""
    return (d.T @ a.T).T


def _gls_terms(z, inp: Inputs, dx, dy, wx=1.0, wy=1.0):
    """Half-gradient of the (weighted) gradient misfit, and its scale.

    dx and dy are the operators' entries as sparse matrices, so a check at
    a megapixel costs a few stencil sweeps rather than dense products.
    """
    zdx = _right(z, dx.T)
    dyz = dy @ z
    rx = (zdx - inp.zx) * wx
    ry = (dyz - inp.zy) * wy
    grad = dy.T @ ry + _right(rx, dx)
    scale = (np.linalg.norm(dy.T @ (dyz * wy)) + np.linalg.norm(dy.T @ (inp.zy * wy))
             + np.linalg.norm(_right(zdx * wx, dx)) + np.linalg.norm(_right(inp.zx * wx, dx)))
    return grad, scale


def _weights(inp: Inputs):
    c = inp.cov
    return 1.0 / np.outer(c["xy"], c["xx"]), 1.0 / np.outer(c["yy"], c["yx"])


def fit_lambda(z, inp: Inputs, dxe, dye) -> float:
    """The degree-0 Tikhonov parameter for which z is stationary.

    Solves grad_gls(z) + 2 lam^2 z = 0 for the one scalar in least squares;
    an L-curve result must satisfy the condition at the parameter it chose.
    """
    grad, _ = _gls_terms(z, inp, sp.csr_array(dxe), sp.csr_array(dye))
    two_lam_sq = -float(np.vdot(grad, z) / np.vdot(z, z))
    return float(np.sqrt(max(two_lam_sq, 0.0) / 2.0))


def check_surface(p: Problem, inp: Inputs, z, dxe, dye, lam=None, bases=None) -> tuple[list[str], float]:
    """Failures (empty when z passes) and the relative stationarity residual.

    ``dxe``/``dye`` are the operator entries, ``lam`` the Tikhonov parameter
    (fitted for an L-curve result when not given) and ``bases`` the (y, x)
    basis matrices of a spectral solve.
    """
    z = np.asarray(z, dtype=float)
    if z.shape != (p.m, p.n):
        return [f"shape {z.shape}, expected {(p.m, p.n)}"], float("inf")
    if not np.all(np.isfinite(z)):
        return ["non-finite heights"], float("inf")
    family = FAMILY[p.method]
    dx, dy = sp.csr_array(dxe), sp.csr_array(dye)
    fails = []
    mag = max(float(np.abs(z).max()), 1e-300)
    pin = z.mean() / mag  # u.T z v for u, v constant, scaled
    if family == "weighted":
        wx, wy = _weights(inp)
        grad, scale = _gls_terms(z, inp, dx, dy, wx, wy)
        pw = 1.0 / np.outer(inp.cov["xy"], inp.cov["yx"])
        pin = float(np.sum(z * pw) / np.sum(np.abs(z) * pw))
    else:
        grad, scale = _gls_terms(z, inp, dx, dy)
    if family == "tikhonov" or family == "lcurve":
        if family == "lcurve" and lam is None:
            lam = fit_lambda(z, inp, dxe, dye)
            if not lam > 0:
                fails.append("no positive Tikhonov parameter makes the result stationary")
        if p.method == "tikhonov-2":
            lx, ly = dx @ dx, dy @ dy
            pen = lam * lam * (ly.T @ (ly @ z) + _right(_right(z, lx.T), lx))
        else:
            pen = 2.0 * lam * lam * z
        grad = grad + pen
        scale += float(np.linalg.norm(pen))
    if family == "spectral":
        by, bx = bases
        for b, side in ((by, "y"), (bx, "x")):
            if np.abs(b.T @ b - np.eye(b.shape[1])).max() > ORTHO_TOL or np.ptp(b[:, 0]) > ORTHO_TOL:
                fails.append(f"{side} basis is not orthonormal with a constant first column")
        coeff = by.T @ z @ bx
        if np.linalg.norm(z - by @ coeff @ bx.T) > PIN_TOL * np.linalg.norm(z):
            fails.append("surface leaves the span of the bases")
        grad = by.T @ grad @ bx
    if family == "dirichlet":
        edge = np.ones(z.shape, dtype=bool)
        edge[1:-1, 1:-1] = False
        if np.abs(z[edge] - inp.boundary[edge]).max() > 1e-12 * max(np.abs(inp.boundary).max(), 1.0):
            fails.append("boundary heights differ from the prescribed frame")
        grad = grad[1:-1, 1:-1]
    elif not (p.method == "tikhonov-0" or family == "lcurve") and abs(pin) > PIN_TOL:
        fails.append(f"pinned constant {pin:.3e} is not zero")
    resid = float(np.linalg.norm(grad) / max(scale, 1e-300))
    if not resid <= RESID_TOL:
        fails.append(f"stationarity residual {resid:.3e} exceeds {RESID_TOL:g}")
    return fails, resid


def _vec(a):
    return a.ravel(order="F")


def oracle(p: Problem, inp: Inputs, dxe, dye, lam=None, bases=None) -> np.ndarray:
    """Dense least-squares solution of p's stacked Kronecker system.

    Minimum-norm where the system has a null space, then shifted to the
    method's pinning.  Only for small grids: the matrix has 2mn rows.
    """
    m, n = p.m, p.n
    kx = np.kron(dxe, np.eye(m))  # vec(Z Dx^T)
    ky = np.kron(np.eye(n), dye)  # vec(Dy Z)
    rows, rhs = [kx, ky], [_vec(inp.zx), _vec(inp.zy)]
    family = FAMILY[p.method]
    if family in ("tikhonov", "lcurve"):
        if p.method == "tikhonov-2":
            lx, ly = dxe @ dxe, dye @ dye
        else:
            lx, ly = np.eye(n), np.eye(m)
        rows += [lam * np.kron(lx, np.eye(m)), lam * np.kron(np.eye(n), ly)]
        rhs += [np.zeros(m * n)] * 2
    if family == "weighted":
        wx, wy = _weights(inp)
        rows = [np.sqrt(_vec(wx))[:, None] * kx, np.sqrt(_vec(wy))[:, None] * ky]
        rhs = [np.sqrt(_vec(wx)) * rhs[0], np.sqrt(_vec(wy)) * rhs[1]]
    coeff, b = np.vstack(rows), np.concatenate(rhs)
    if family == "spectral":
        by, bx = bases
        t = np.kron(bx, by)  # vec(By C Bx^T)
        c = np.linalg.lstsq(coeff @ t, b, rcond=None)[0]
        return (t @ c).reshape((m, n), order="F")
    if family == "dirichlet":
        inner = np.zeros((m, n), dtype=bool)
        inner[1:-1, 1:-1] = True
        sel = _vec(inner)
        sol = np.linalg.lstsq(coeff[:, sel], b - coeff @ _vec(inp.boundary), rcond=None)[0]
        z = inp.boundary.copy()
        z[1:-1, 1:-1] += sol.reshape((m - 2, n - 2), order="F")
        return z
    z = np.linalg.lstsq(coeff, b, rcond=None)[0].reshape((m, n), order="F")
    if family == "weighted":
        pw = 1.0 / np.outer(inp.cov["xy"], inp.cov["yx"])
        z = z - np.sum(z * pw) / np.sum(pw)
    return z


def oracle_mismatch(z, z_ref) -> float:
    return float(np.abs(np.asarray(z) - z_ref).max() / max(np.abs(z_ref).max(), 1e-300))
