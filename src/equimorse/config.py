"""Global numeric conventions: sign convention, tolerance table, shared helpers."""
from __future__ import annotations

import os

import numpy as np
from numpy.linalg import _umath_linalg

# Fixed once for the whole package: contraction of the Hamiltonian vector
# field into omega0 = sum dx_i ^ dy_i gives dH, coordinates ordered
# (x_1..x_n, y_1..y_n).  Equivalently X_H = -J0 grad H, so H = -pi*a*|z|^2
# generates the counterclockwise rotation R(2*pi*a*t).
SIGN_CONVENTION = "i_{X_H} omega0 = dH, omega0 = sum dx_i^dy_i, X_H = -J0 grad H"

DEFAULT_TRUST_RADIUS = 0.5

# Every tolerance used by a contract, by name.  Values are absolute unless the
# consuming check states otherwise.
TOLERANCES = {
    "symplectic_sample": 1e-8,    # path samples: ||M^T J0 M - J0||_inf
    "symplectic_flow": 1e-7,      # integrated flow Jacobians, same residual
    "eig_threshold": 1e-8,        # relative eigen/singular value threshold
    "gen1_det": 1e-8,             # graph-condition determinant threshold
    "gen2_newton": 1e-12,         # lockstep_newton on the graph equations
    "hessian_sym": 1e-8,          # symmetry residual of assembled Hessians
    # the lockstep_newton tolerance on gradients: lochom.critical_points (the
    # isolation check, Morse complexes and equiperturb's sweeps),
    # dact.find_periodic_points and the fiber Newton of equivariant_split,
    # which also checks the fiber gradient on the graph of phi against it
    "newton_grad": 1e-10,
    "dedup": 1e-6,                # dedup distance of critical/periodic points
    "offdiag": 1e-8,              # off-diagonal residual of split Hessians
    "split_equivariance": 1e-8,   # phi(A1 z1) = A2 phi(z1) residual
    "endpoint_identity": 1e-8,    # loop endpoint = identity
    "hyperbolic_eig": 1e-6,       # Hessian eigenvalue magnitude for Morse points
    "kernel_eig": 1e-6,           # Hessian eigenvalue magnitude counted as kernel
    "action_sample": 1e-10,       # sampled invariance of functions under actions
}


def tol(name: str) -> float:
    """Tolerance by name; EQUIMORSE_TOL_<NAME> overrides a single entry."""
    override = os.environ.get("EQUIMORSE_TOL_" + name.upper())
    if override is not None:
        return float(override)
    return TOLERANCES[name]


def standard_symplectic(n: int) -> np.ndarray:
    """J0 on R^{2n}: (x, y) -> (-y, x)."""
    J = np.zeros((2 * n, 2 * n))
    J[:n, n:] = -np.eye(n)
    J[n:, :n] = np.eye(n)
    return J


def symplectic_residual(M: np.ndarray):
    """||M^T J0 M - J0||_inf of one matrix (a float) or of each of a stack (an array)."""
    M = np.asarray(M)
    J = standard_symplectic(M.shape[-1] // 2)
    res = np.abs(np.swapaxes(M, -1, -2) @ J @ M - J).max(axis=(-2, -1))
    return float(res) if M.ndim == 2 else res


def row_dots(X, Y):
    """x @ y for every pair of rows of X and Y."""
    return np.matmul(X[:, None, :], Y[:, :, None])[:, 0, 0]


def row_norms(Z):
    """np.linalg.norm(z) for every row z of Z."""
    return np.sqrt(row_dots(Z, Z))


def _lstsq_did_not_converge(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


def row_lstsq(H, G):
    """np.linalg.lstsq(h, g, rcond=None)[0] for every matrix h of the stack
    H (P, n, n) and row g of G (P, n), in one LAPACK call.

    It runs the stacked gufunc that np.linalg.lstsq itself calls, with the
    same rcond and floating-point error state, so every row is bitwise the
    one-matrix call, and a NaN in H raises LinAlgError as lstsq does.  The
    gufunc is private numpy API (numpy >= 2.0).  An empty stack makes no
    call.
    """
    n = H.shape[-1]
    if not len(H):
        return np.empty((0, n))
    with np.errstate(call=_lstsq_did_not_converge, invalid="call",
                     over="ignore", divide="ignore", under="ignore"):
        x = _umath_linalg.lstsq(H, G[..., None], np.finfo(float).eps * n,
                                signature="ddd->ddid")[0]
    return x[..., 0]


def rows_or_errors(fn, rows, Z, retry):
    """fn(rows, Z), a tuple of per-row arrays, stacked over the rows of Z
    that answer (None if none does), and {i: error} for each row i that
    raises an error listed in retry: a batch that raises is evaluated again
    one row at a time, so each row keeps the error it raises alone."""
    try:
        return fn(rows, Z), {}
    except retry as exc:
        if len(Z) == 1:
            return None, {0: exc}
    outs, failed = [], {}
    for i in range(len(Z)):
        try:
            outs.append(fn(rows[i:i + 1], Z[i:i + 1]))
        except retry as exc:
            failed[i] = exc
    parts = tuple(None if part[0] is None else np.concatenate(part) for part in zip(*outs))
    return parts or None, failed


def lockstep_newton(residual, X, step, tolerance, max_iter, retry=(), leaves=None):
    """Newton's method from every row of X in lockstep.

    Each of at most max_iter iterations makes one residual(rows, Z) call on
    the points Z of the active rows `rows` of X, a tuple (F, *parts) that
    carries whatever the step needs, such as the Jacobian: one jet per
    iteration.  Rows with |F| < tolerance retire converged.  Unless all did,
    one step(F, *parts) call over the other rows moves them to X - step, and
    leaves(Z), if given, retires the moved rows it marks.  A batch that
    raises an error listed in retry is evaluated again row by row
    (rows_or_errors); a row that raises alone retires with its error.  An
    empty X makes no call.  Returns X, the converged mask, the error of each
    row or None, and the parts at the converged rows (None if no row
    answered).
    """
    X = np.array(X, dtype=float)
    converged = np.zeros(len(X), dtype=bool)
    errors = [None] * len(X)
    kept = None
    active = np.arange(len(X))
    for _ in range(max_iter):
        if not len(active):
            break
        parts, failed = rows_or_errors(residual, active, X[active], retry)
        if failed:
            for i, exc in failed.items():
                errors[active[i]] = exc
            active = np.delete(active, list(failed))
        if parts is None:
            break
        done = row_norms(parts[0]) < tolerance
        kept = kept or tuple(p if p is None else np.empty((len(X),) + p.shape[1:]) for p in parts)
        for store, p in zip(kept, parts):
            if store is not None:
                store[active[done]] = p[done]
        converged[active[done]] = True
        if done.all():
            break
        stepping = ~done
        active = active[stepping]
        if len(active):
            X[active] = X[active] - step(*(None if p is None else p[stepping] for p in parts))
        if leaves is not None:
            active = active[~leaves(X[active])]
    return X, converged, errors, kept


def null_space(m, cutoff=1e-10):
    """Orthonormal basis of the kernel of m, one vector per row.

    A right singular vector is in the kernel when its singular value is at
    most cutoff * max(1, largest singular value); one SVD, numpy only.
    """
    m = np.atleast_2d(np.asarray(m, dtype=float))
    _, sing, vt = np.linalg.svd(m)
    sing = np.concatenate([sing, np.zeros(vt.shape[0] - sing.size)])
    return vt[sing <= cutoff * max(1.0, sing[0] if sing.size else 0.0)]


def rotation(theta: float) -> np.ndarray:
    """R(theta) on R^2, counterclockwise."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])
