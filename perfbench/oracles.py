"""Correctness oracles of the benchmark.

Each oracle checks a program answer by another route than the one under
test, or by an identity the answer must satisfy.  They are kept
here rather than imported from the test suite so that the benchmark runs
from its own files.  An oracle raises CheckFailed with the reason.
"""
from __future__ import annotations

import numpy as np


class CheckFailed(Exception):
    pass


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


def direct_iterate_solve(germ, w0, periods, radius=0.5, tol=1e-11):
    """Newton on phi^periods(w) - w with one long flow per step.

    Uses only the flow of the germ, none of the discrete-action machinery.
    Returns the polished point and its residual.
    """
    from equimorse.hamflow import integrate_flow

    d = 2 * germ.n
    w = np.asarray(w0, dtype=float).copy()
    res = np.inf
    for _ in range(60):
        phi, dphi = integrate_flow(germ, 0.0, float(periods), w, radius=radius)
        F = phi - w
        res = float(np.linalg.norm(F))
        if res < tol:
            break
        Jm = dphi - np.eye(d)
        if np.linalg.cond(Jm) < 1e12:
            step = np.linalg.solve(Jm, F)
        else:
            step = np.linalg.lstsq(Jm, F, rcond=None)[0]
        w = w - step
    return w, res


def check_periodic_point(germ, point, periods):
    """A converged discrete critical point is a periodic point of the flow."""
    w = point.orbit[0]
    polished, res = direct_iterate_solve(germ, w, periods)
    require(res < 1e-11, f"direct fixed-point solve residual {res:.3g} >= 1e-11")
    dist = float(np.linalg.norm(polished - w))
    require(dist < 1e-6, f"orbit start {dist:.3g} away from the direct solve")
    require(point.morse_index is not None, f"no Morse index: {point.message}")


def check_cz_identity(pairs):
    """index(A_k) - 2k equals the Conley-Zehnder index of the k-th iterate."""
    for k, shifted_index, cz in pairs:
        require(shifted_index == cz,
                f"k={k}: index - nkN = {shifted_index} but CZ = {cz}")


def census_euler(out, points) -> int:
    """Sum of (-1)^index over the certified critical points."""
    total = 0
    for p in points:
        eigs = np.linalg.eigvalsh(np.asarray(out.hess(np.asarray(p, dtype=float))))
        total += (-1) ** int(np.sum(eigs < 0))
    return total


def check_census_symmetry(points, matrix, tol=1e-6):
    """The census is closed under the action and, for an involution without
    fixed points off the origin, has odd size.

    The census merges points closer than the package's dedup distance
    (1e-6), and Newton leaves points on the nearly degenerate critical
    circle only that well placed (4e-7 apart from their mirror images at
    seed 0), so symmetry is asserted to that resolution.
    """
    pts = [np.asarray(p, dtype=float) for p in points]
    require(len(pts) % 2 == 1, f"census has even size {len(pts)}")
    require(min(np.linalg.norm(p) for p in pts) < tol, "origin missing from the census")
    for p in pts:
        image = matrix @ p
        gap = min(np.linalg.norm(image - q) for q in pts)
        require(gap < tol, f"image of {np.round(p, 6).tolist()} missing from the census")


def check_regdist(func, queries, values, in_slab, matrix, every=4):
    """Exact value |q_3| for queries in the coincidence slab; reflection
    invariance and the partition-of-unity band on every `every`-th query."""
    for i, (q, v) in enumerate(zip(queries, values)):
        require(np.isfinite(v) and v > 0.0, f"query {i}: value {v}")
        if in_slab[i]:
            require(v == abs(q[2]), f"query {i}: value {v!r} != |q3| = {abs(q[2])!r}")
        if i % every == 0:
            mirrored = func.value(matrix @ q)
            require(abs(mirrored - v) < 1e-12,
                    f"query {i}: reflection changes the value by {abs(mirrored - v):.3g}")
            total = func.partition_sum(q)
            require(1.0 - 1e-12 <= total <= 12.0 ** 3 + 1e-12,
                    f"query {i}: partition sum {total} outside [1, 12^3]")
