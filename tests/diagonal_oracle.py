"""The diagonal splitting of an iterate's Hessian, from Bott's blocks and densely.

`bott_split` reads the splitting from the twisted one-period blocks of
`equimorse.dact.BottData`.  `dense_diagonal_split` splits the dense Hessian
of the iterate itself: the k-fold diagonal embedding D of the m-period
block, an orthonormal basis of its complement from scipy's null space of
D^T, the negative space E_- of the complement block, and the sign of the
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


_ALONG = "Hessian degenerate along the diagonal: the base periodic point is degenerate"
_ACROSS = "Hessian degenerate transverse to the diagonal: the iterate is not admissible"


def bott_split(bd, k, m=1):
    """(dim E_-, shift preserves orientation on E_-) for the k-period Hessian
    split along the diagonal of its m-period blocks, from the BottData bd.

    The block at omega = exp(2 pi i j / k) lies along the diagonal when
    omega^m = 1; the shift by m periods acts on it as omega^m, so E_- turns
    over exactly when the blocks with omega^m = -1 carry an odd index.
    """
    nN = bd.action.n * bd.action.N
    blocks = [(j * m % k, *bd.index(np.exp(2j * np.pi * j / k))) for j in range(k)]
    if any(zero for r, _, zero in blocks if r == 0):
        raise DegeneracyError(_ALONG)
    if any(zero for r, _, zero in blocks if r):
        raise DegeneracyError(_ACROSS)
    d_minus = sum(index + nN for r, index, _ in blocks if r)
    flips = sum(index + nN for r, index, _ in blocks if 2 * r == k)
    return d_minus, flips % 2 == 0


def dense_diagonal_split(da, m=1):
    """(dim E_-, shift preserves orientation on E_-), with bott_split's errors."""
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
        raise DegeneracyError(_ALONG)
    if eig_p.size and np.any(np.abs(eig_p) < 10 * thr):
        raise DegeneracyError(_ACROSS)
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
