"""Global numeric conventions: sign convention, tolerance table, shared helpers."""
from __future__ import annotations

import os

import numpy as np

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
    "gen2_newton": 1e-12,         # Newton solve of the graph equations
    "hessian_sym": 1e-8,          # symmetry residual of assembled Hessians
    "newton_grad": 1e-10,         # Newton convergence on gradients
    "dedup": 1e-6,                # periodic-point dedup distance
    "offdiag": 1e-8,              # off-diagonal residual of split Hessians
    "split_residual": 1e-7,       # splitting-lemma pointwise residual
    "split_equivariance": 1e-8,   # splitting-map equivariance residual
    "endpoint_identity": 1e-8,    # loop endpoint = identity
    "hyperbolic_eig": 1e-6,       # Hessian eigenvalue magnitude for Morse points
    "kernel_eig": 1e-6,           # Hessian eigenvalue magnitude counted as kernel
    "series_term": 1e-12,         # square-root series truncation
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


def symplectic_residual(M: np.ndarray) -> float:
    n = M.shape[0] // 2
    J = standard_symplectic(n)
    return float(np.abs(M.T @ J @ M - J).max())


def rotation(theta: float) -> np.ndarray:
    """R(theta) on R^2, counterclockwise."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])
