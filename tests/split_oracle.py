"""The Morse-lemma straightening map psi of a split: the reference the tests check a split against.

`equivariant_split` returns the reduced function g(z1) = f(z1, phi(z1)) and
checks only the exact hypotheses of the shifting theorem.  This module
builds the map psi with f(psi(z1, z2)) = g(z1) + <H0 z2, z2>/2 from f, the
split's phi and the normal Hessian H0 at 0, one point at a time: a 16-node
Gauss-Legendre quadrature of the normal Hessian along the fiber segment,
then the square-root series of (H^{-1} H0)^{1/2}, iterated to a fixed point.
It shares no code with `equimorse.lochom`'s split.
"""
from __future__ import annotations

import numpy as np

from equimorse.errors import TrustRegionError

# truncation of the square-root series
SERIES_TERM = 1e-12


def straightening_map(f, split):
    """psi(z) for one point z of R^d, from f and split.phi."""
    n2 = sum(split.signature)
    n1 = f.d - n2
    H0 = f.hess(np.zeros(f.d))[n1:, n1:]
    nodes, weights = np.polynomial.legendre.leggauss(16)
    s_nodes = 0.5 * (nodes + 1.0)
    s_weights = 0.5 * weights

    def H_at(z1, z2):
        # averaged normal Hessian: f(z1, phi+z2) = g(z1) + <H(z1,z2) z2, z2>/2
        base = split.phi(z1)
        acc = np.zeros((n2, n2))
        for sn, wgt in zip(s_nodes, s_weights):
            z = np.concatenate([z1, base + sn * z2])
            acc += wgt * (1.0 - sn) * f.hess(z)[n1:, n1:]
        return 2.0 * acc

    def C_at(z1, z2):
        H = H_at(z1, z2)
        try:
            B = np.linalg.solve(H, H0)
        except np.linalg.LinAlgError:
            raise TrustRegionError(
                "square-root series did not converge; shrink the radius") from None
        M = B - np.eye(n2)
        C = np.eye(n2)
        term = np.eye(n2)
        coeff = 1.0
        for j in range(1, 160):
            coeff *= (1.5 - j) / j
            term = term @ M
            add = coeff * term
            nrm = np.abs(add).max()
            C = C + add
            if nrm < SERIES_TERM:
                return C
            if nrm > 1e8:
                break
        raise TrustRegionError("square-root series did not converge; shrink the radius")

    def psi(z):
        z = np.asarray(z, dtype=float)
        z1, z2 = z[:n1], z[n1:]
        w = z2.copy()
        for _ in range(80):
            w_new = C_at(z1, w) @ z2
            if np.linalg.norm(w_new - w) < 1e-14:
                w = w_new
                break
            w = w_new
        return np.concatenate([z1, split.phi(z1) + w])

    return psi


def sample_cloud(d, radius, samples=25, seed=0):
    """The seeded points within 0.6 * radius on which a split is checked."""
    return np.random.default_rng(seed).uniform(-0.6 * radius, 0.6 * radius, size=(samples, d))
