"""The dense diagonal splitting of an iterate's Hessian: the reference for Bott's route.

`equimorse.dact.diagonal_split` reads the splitting from the twisted
one-period blocks of the Hessian.  This module splits the dense Hessian of
the iterate itself: the k-fold diagonal embedding D of the m-period block,
an orthonormal basis of its complement from scipy's null space of D^T, the
negative space E_- of the complement block, and the sign of the
determinant of the shift by m periods restricted to E_-.  It shares no code
with the block route beyond the dense Hessian.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.linalg import null_space

from equimorse.config import tol
from equimorse.dact import hessian_at_zero
from equimorse.errors import ConfigurationError, DegeneracyError, ValidationError


def dense_diagonal_split(da, m=1):
    """(dim E_-, shift preserves orientation on E_-), with diagonal_split's errors."""
    if da.k % m:
        raise ConfigurationError("da must cover a multiple of m periods")
    copies = da.k // m
    Hm = hessian_at_zero(da)
    block = 2 * da.n * m * da.N
    D = np.zeros((da.dim, block))
    for c in range(copies):
        D[c * block:(c + 1) * block, :] = np.eye(block)
    D /= math.sqrt(copies)
    perp = null_space(D.T)
    if perp.shape[1]:
        off = np.abs(D.T @ Hm @ perp).max()
        if off > tol("offdiag"):
            raise ValidationError(f"diagonal and complement couple: off-block {off:.3g}")
    scale = np.abs(np.linalg.eigvalsh(Hm)).max()
    eig_d, _ = np.linalg.eigh(D.T @ Hm @ D)
    eig_p, vec_p = (np.linalg.eigh(perp.T @ Hm @ perp) if perp.shape[1]
                    else (np.zeros(0), np.zeros((0, 0))))
    thr = tol("eig_threshold") * max(scale, 1e-300)
    if np.any(np.abs(eig_d) < 10 * thr):
        raise DegeneracyError(
            "Hessian degenerate along the diagonal: the base periodic point "
            "is degenerate")
    if eig_p.size and np.any(np.abs(eig_p) < 10 * thr):
        raise DegeneracyError(
            "Hessian degenerate transverse to the diagonal: the iterate is "
            "not admissible")
    d_minus = int(np.sum(eig_p < 0))
    if d_minus == 0:
        return 0, True
    basis = perp @ vec_p[:, eig_p < 0]
    sigma = np.zeros((da.dim, da.dim))
    for c in range(copies):
        src = (c - 1) % copies
        sigma[c * block:(c + 1) * block, src * block:(src + 1) * block] = np.eye(block)
    R = basis.T @ sigma @ basis
    if np.abs(sigma @ basis - basis @ R).max() > 1e-6:
        raise ValidationError("negative space is not invariant under the shift")
    return d_minus, bool(np.linalg.det(R) > 0)
