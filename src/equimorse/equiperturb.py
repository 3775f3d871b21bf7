"""Invariant Morse perturbation over the strata of a finite cyclic action.

The fixed subspaces of the powers of an orthogonal finite-order matrix form a
stratification indexed by divisors.  An invariant function with an isolated
critical point is made Morse stratum by stratum: the restriction to a fixed
subspace is perturbed with a small cutoff polynomial, then extended to the
ambient space so that every normal direction strictly decreases.  Each run is
summarized by a certificate with measured residuals and margins, and a
two-dimensional checker shoots saddle separatrices to report connections that
the symmetry forces onto fixed strata.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .config import null_space, tol
from .errors import (
    DegeneracyError,
    IsolationError,
    ParameterError,
    ResolutionError,
    ValidationError,
)
from .lochom import (
    CallableFunction,
    CyclicAction,
    FunctionSpec,
    _grid_seeds,
    _mv,
    _pullback,
    _require_positive,
    _row_dots,
    _row_norms,
    _shoot,
    critical_points,
)
from .hamflow import _polynomial_kernel
from .regdist import (_S_HI, _S_LO, ClosedSetSpec, RegularizedDistance, _outer,
                      _quintic_d1, _quintic_d2, _quintic_step)

_MORSE_FLOOR = 1e-8
_STRATUM_TOL = 1e-6
_INVARIANCE_TOL = 1e-9
_MARGIN_FRACTION = 0.9
_OUT_NAME = "invariant morse perturbation"


class _StageFailure(Exception):
    pass


def _divisors(k: int):
    return tuple(j for j in range(1, k + 1) if k % j == 0)


def _complement_basis(basis, n):
    if basis.size == 0:
        return np.eye(n)
    _, sing, vt = np.linalg.svd(basis, full_matrices=True)
    return vt[basis.shape[0]:]


def _row_space(rows, cutoff=1e-10):
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    if rows.size == 0:
        return rows.reshape(0, rows.shape[1] if rows.ndim == 2 else 0)
    _, sing, vt = np.linalg.svd(rows)
    rank = int(np.sum(sing > cutoff * max(1.0, sing[0])))
    return vt[:rank]


@dataclass
class Stratification:
    """Fixed subspaces of the powers of a cyclic action, one per divisor.

    >>> s = strata(np.diag([1.0, -1.0]), 2)
    >>> s.dim(1), s.dim(2)
    (1, 2)
    >>> bool(np.allclose(s.projection(1), np.diag([1.0, 0.0])))
    True
    """

    action: CyclicAction
    divisors: tuple
    bases: dict
    projections: dict

    @property
    def ambient_dim(self) -> int:
        return self.action.d

    def dim(self, j: int) -> int:
        return self.basis(j).shape[0]

    def basis(self, j: int) -> np.ndarray:
        self._require_divisor(j)
        return self.bases[j]

    def projection(self, j: int) -> np.ndarray:
        self._require_divisor(j)
        return self.projections[j]

    def stratum_distance(self, x, j: int) -> float:
        x = np.asarray(x, dtype=float)
        return float(np.linalg.norm(x - self.projection(j) @ x))

    def _require_divisor(self, j):
        if j not in self.divisors:
            raise ValidationError(
                f"{j!r} is not a divisor of the stratification; its divisors are {self.divisors}")

    def assign(self, x, cutoff=_STRATUM_TOL):
        """Smallest divisor whose stratum contains x up to the cutoff."""
        for j in self.divisors:
            d = self.stratum_distance(x, j)
            if d <= cutoff:
                return j, d
        j = self.divisors[-1]
        return j, self.stratum_distance(x, j)

    def verify(self) -> dict:
        a = self.action.matrix
        n = self.ambient_dim
        gcd_res = comm_res = orth_res = 0.0
        for i in self.divisors:
            p = self.projections[i]
            comm_res = max(comm_res, float(np.linalg.norm(p @ a - a @ p, 2)))
            for j in self.divisors:
                q = self.projections[j]
                g = math.gcd(i, j)
                stacked = np.vstack([np.eye(n) - p, np.eye(n) - q])
                inter = null_space(stacked)
                pi = inter.T @ inter if inter.size else np.zeros((n, n))
                gcd_res = max(gcd_res, float(np.linalg.norm(pi - self.projections[g], 2)))
                moved = _row_space(self.bases[i] @ (np.eye(n) - self.projections[g]))
                if moved.size and self.bases[j].size:
                    orth_res = max(orth_res, float(np.linalg.norm(moved @ self.bases[j].T, 2)))
        return {
            "gcd_residual": gcd_res,
            "commutation_residual": comm_res,
            "orthogonality_residual": orth_res,
        }


def strata(action, k=None) -> Stratification:
    """Stratification of the fixed subspaces F_j = ker(A^j - I), j | k."""
    if isinstance(action, CyclicAction):
        act = action
    else:
        if k is None:
            raise ValidationError("order k is required with a bare matrix")
        act = CyclicAction(np.asarray(action, dtype=float), int(k))
    n = act.d
    bases, projections = {}, {}
    for j in _divisors(act.k):
        ker = null_space(act.power(j) - np.eye(n))
        bases[j] = ker
        projections[j] = ker.T @ ker if ker.size else np.zeros((n, n))
    s = Stratification(action=act, divisors=_divisors(act.k),
                       bases=bases, projections=projections)
    report = s.verify()
    if max(report.values()) > 1e-8:
        raise ValidationError("stratification identities fail for this matrix")
    return s


def normal_decreasing_extension(f, stratification: Stratification, j: int) -> CallableFunction:
    """Extend a function on a stratum so normal directions strictly decrease.

    The extension z -> f(P_j z) - |z - P_j z|^2 keeps the critical points on
    the stratum and turns every normal direction into a downward parabola.
    """
    n = stratification.ambient_dim
    if f.d != n:
        raise ValidationError("function dimension does not match the stratification")
    p = stratification.projection(j)
    q = np.eye(n) - p
    basis = stratification.basis(j)
    a = stratification.action.matrix
    rng = np.random.default_rng(0)
    for _ in range(16):
        y = basis.T @ rng.uniform(-1.0, 1.0, size=basis.shape[0]) if basis.size \
            else np.zeros(n)
        if abs(f.value(a @ y) - f.value(y)) > _INVARIANCE_TOL:
            raise ValidationError(
                "function is not invariant under the induced action on the stratum")

    def jet(Z):
        v, g, h = f.jet(_mv(p, Z))
        W = _mv(q, Z)
        return v - _row_dots(W, W), _mv(p, g) - 2.0 * W, np.matmul(np.matmul(p, h), p) - 2.0 * q

    return CallableFunction(n, jet, name="normal decreasing extension")


# the bumps and the distance well read regdist's quintic profile and ramp
# ends: a decreasing cutoff for bumps and an increasing step for the well, so
# second derivatives stay continuous

def _step(u):
    """0 up to 1/4, a quintic ramp, then 1 from 1 on; elementwise."""
    ramp = _quintic_step((np.clip(u, 0.25, 1.0) - 0.25) / 0.75)
    return np.where(u <= 0.25, 0.0, np.where(u >= 1.0, 1.0, ramp))


def _step_derivatives(u):
    # first and second derivatives of _step; the quintic's vanish at both
    # ends of the ramp, so the clipped argument gives exact zeros off it
    s = (np.clip(u, 0.25, 1.0) - 0.25) / 0.75
    return _quintic_d1(s) / 0.75, _quintic_d2(s) / 0.75 ** 2


# small polynomials with radial cutoffs, as closed-form functions; every row
# of a batch is bitwise the result at that point alone, which keeps the
# critical point census of a Newton sweep independent of its batching: the
# bump sum adds each row's centers in one stacked product per ramp count, and
# the polynomial is the package's one kernel (hamflow._Kernel), whose rows do
# not depend on their batch mates

def _monomials(m, max_degree=3, min_degree=0):
    out = []
    for exps in itertools.product(range(max_degree + 1), repeat=m):
        if min_degree <= sum(exps) <= max_degree:
            out.append(exps)
    return out


def _bump_poly_term(centers, scale, coeffs, mons):
    """Polynomial times a sum of radial bumps, one bump per center.

    Each bump is profile(|z - c| / scale): exactly 1 on the plateau
    t <= 0.5, a decreasing quintic ramp for 0.5 < t < 0.55, and 0 beyond.
    The jet of a batch takes the bump sum over the (P, K, m) array of
    differences between the points and the centers in one pass: plateau
    centers only add their count to the value, and the ramp, its gradient
    and its Hessian are evaluated on the centers strictly inside the ramp
    alone.  Rows with the same number R of ramp centers share one stacked
    (1, R) @ (R, m) product; padding the rows to a common R would change the
    rounding.  The polynomial's kernel is built once, here, and read only at
    the rows that some bump reaches.
    """
    centers = np.asarray(centers, dtype=float)
    m = centers.shape[1]
    kernel = _polynomial_kernel(m, list(zip(coeffs, mons)))
    width = _S_HI - _S_LO
    eye = np.eye(m)

    def jet(Z):
        W = Z[:, None, :] - centers
        r = np.sqrt(np.einsum("pki,pki->pk", W, W))
        t = r / scale
        bv = np.add.reduce(t <= _S_LO, axis=1, dtype=float)
        bg = np.zeros(Z.shape)
        bh = np.zeros((len(Z), m, m))
        ramp = (t > _S_LO) & (t < _S_HI)
        counts = np.add.reduce(ramp, axis=1)
        row, center = np.nonzero(ramp)
        for R in set(counts[row].tolist()):
            rows = np.flatnonzero(counts == R)
            at = counts[row] == R
            ij = row[at], center[at]
            # the ramp sits away from r = 0, so the radial chain rule is regular
            rr = r[ij].reshape(-1, R)
            s = (_S_HI - t[ij].reshape(-1, R)) / width
            d1 = -_quintic_d1(s) / (width * scale)
            d2 = _quintic_d2(s) / (width * scale) ** 2
            u = W[ij].reshape(-1, R, m) / rr[..., None]
            radial = d2 - d1 / rr
            bv[rows] += np.sum(_quintic_step(s), axis=1)
            bg[rows] = np.matmul(d1[:, None, :], u)[:, 0]
            bh[rows] = (np.matmul(np.swapaxes(u * radial[..., None], 1, 2), u)
                        + np.sum(d1 / rr, axis=1)[:, None, None] * eye)
        # rows outside every bump (bv = 0: a ramp center adds a positive
        # quintic) keep a zero polynomial, so their value and derivatives are
        # exact zeros
        pv, pg, ph = np.zeros(len(Z)), np.zeros(Z.shape), np.zeros(bh.shape)
        live = bv != 0.0
        if live.any():
            pv[live], pg[live], ph[live] = kernel.jet(Z[live])
        cross = pg[:, :, None] * bg[:, None, :]
        return (pv * bv, bv[:, None] * pg + pv[:, None] * bg,
                bv[:, None, None] * ph + cross + np.swapaxes(cross, 1, 2) + pv[:, None, None] * bh)

    return CallableFunction(m, jet)


def _orbit_average(term, mats):
    """The mean of term(m z) over the group elements m."""
    pulls = [_pullback(term, m) for m in mats]

    def jet(Z):
        parts = zip(*(p.jet(Z) for p in pulls))
        return tuple(sum(part) / len(pulls) for part in parts)

    return CallableFunction(term.d, jet)


def _scaled(term, factor):
    return CallableFunction(term.d, lambda Z: tuple(factor * part for part in term.jet(Z)))


def _quadratic_term(proj, c):
    q = np.asarray(proj, dtype=float)
    return CallableFunction(
        len(q),
        lambda Z: (-0.5 * c * _row_dots(np.matmul(Z[:, None, :], q)[:, 0], Z), -c * _mv(q, Z),
                   np.repeat((-c * q)[None], len(Z), axis=0)))


def _assemble(f, terms, action, name=""):
    terms = list(terms)

    def jet(Z):
        v, g, h = f.jet(Z)
        jets = [t.jet(Z) for t in terms]
        # the value adds the sum of the terms to f, the derivatives add one
        # term at a time; the census of a degenerate function such as the
        # perturbed antipodal bowl moves with the last bit, so keep both orders
        v = v + sum(tv for tv, _, _ in jets)
        for _, tg, th in jets:
            g, h = g + tg, h + th
        return v, g, h

    return CallableFunction(f.d, jet, action=action, name=name)


def normal_well(inner, n, stratum_vectors, action, *, delta=None,
                plateau_points=(), bbox=None, max_depth=None):
    """Smooth well that vanishes near an inner set and equals squared
    distance to a stratum away from it.

    Returns the well as a function together with the chosen transition
    parameters; its gradient and Hessian are exact, by the chain rule
    through the step and the jets of the two regularized distances.  The
    inner set must be invariant and contain the origin.
    """
    if inner.n != n:
        raise ValidationError("inner set dimension does not match")
    if inner.dist(np.zeros(n)) > 1e-9:
        raise ValidationError("inner set must contain the origin")
    if bbox is None:
        bbox = (-2.0, 2.0)
    origin = ClosedSetSpec.subspace(n, [])
    stratum = ClosedSetSpec.subspace(n, stratum_vectors)
    d0 = RegularizedDistance.build(inner, origin, action=action, bbox=bbox,
                                   max_depth=max_depth)
    d1 = RegularizedDistance.build(inner, stratum, action=action, bbox=bbox,
                                   max_depth=max_depth)
    rho0 = 4.0 * max(d0.collar, d1.collar)
    # the regularized distance is at most four times the true one, so the
    # short circuit below rho0 is consistent once delta >= 64 rho0^2
    delta_min = 64.0 * rho0 ** 2
    if delta is None:
        if not len(plateau_points):
            raise ValidationError("either delta or plateau points are required")
        probe = min(d0.value(np.asarray(p, dtype=float)) ** 2 for p in plateau_points)
        delta = probe / 1.3
    if delta < delta_min:
        raise ResolutionError(
            "transition width is below the unresolved collar; raise max_depth")

    # the chain rule through w(d0^2 / delta) d1^2 runs on the rows where w
    # is not an exact zero, and reads d0 and d1 only there; elsewhere w and
    # its derivatives vanish together.  libm squares d0, as for a float ** 2,
    # where numpy's array square differs in the last bit
    def jet(Z):
        values, grads, hessians = np.zeros(len(Z)), np.zeros(Z.shape), np.zeros((len(Z), n, n))
        far = np.flatnonzero(~(inner.dist_many(Z) <= rho0))
        r0, g0, h0 = d0.jets(Z[far])
        u = np.array([math.pow(r, 2.0) for r in r0.tolist()]) / delta
        w = _step(u)
        on = w != 0.0
        rows, u, w, r0, g0, h0 = far[on], u[on], w[on], r0[on], g0[on], h0[on]
        t, g1, h1 = d1.jets(Z[rows])
        w1, w2 = _step_derivatives(u)
        # the derivatives of u = d0^2 / delta
        g_u = (2.0 / delta) * r0[:, None] * g0
        h_u = (2.0 / delta) * (_outer(g0, g0) + r0[:, None, None] * h0)
        tt = (t * t)[:, None, None]
        values[rows] = w * t * t
        grads[rows] = (w1 * t * t)[:, None] * g_u + (2.0 * w * t)[:, None] * g1
        cross = _outer(g_u, g1)
        hessians[rows] = (tt * (w2[:, None, None] * _outer(g_u, g_u) + w1[:, None, None] * h_u)
                          + (2.0 * w1 * t)[:, None, None] * (cross + np.swapaxes(cross, 1, 2))
                          + (2.0 * w)[:, None, None] * (_outer(g1, g1) + t[:, None, None] * h1))
        return values, grads, hessians

    func = CallableFunction(n, jet, action=action, name="normal well")
    info = {
        "delta": float(delta),
        "rho0": float(rho0),
        "collar": float(max(d0.collar, d1.collar)),
        "max_depth": int(d0.dec.max_depth),
    }
    return func, info


# seeds per axis of the coarse grid in one or two and in three dimensions
_COARSE, _COARSE_3D = 7, 5


def _critical_points(func, radius, fine=13, fine_width=0.18):
    """lochom.critical_points from a two-scale grid of seeds: a coarse grid
    over the ball's box, then a fine grid around the origin."""
    n = func.d
    coarse = _COARSE if n <= 2 else _COARSE_3D
    if n == 3:
        fine = min(fine, 5)
    seeds = np.concatenate([_grid_seeds(radius, coarse, n),
                            _grid_seeds(min(fine_width, radius), fine, n)])
    return critical_points(func, seeds, radius)


def _check_invariance(func, action, radius, samples=64):
    if action.is_trivial:
        return 0.0
    rng = np.random.default_rng(0)
    z = np.array([_ball_point(rng, func.d, radius) for _ in range(samples)])
    diff = np.abs(func.value(_mv(action.matrix, z)) - func.value(z))
    return max([0.0, *diff.tolist()])


def _ball_point(rng, n, radius):
    v = rng.standard_normal(n)
    v /= max(np.linalg.norm(v), 1e-12)
    return radius * rng.uniform() ** (1.0 / n) * v


def _is_morse(func, points):
    if not len(points):
        return True
    eigs = np.linalg.eigvalsh(func.hess(np.array(points)))
    return not np.any(np.min(np.abs(eigs), axis=1) < _MORSE_FLOOR)


def _min_separation(points):
    if len(points) < 2:
        return math.inf
    return min(np.linalg.norm(a - b)
               for a, b in itertools.combinations(points, 2))


def perturb_invariant_morse(f, action, k=None, *, epsilon, radius=1.0, seed=0,
                            attempts=3, max_depth=None):
    """Invariant Morse perturbation of f near an isolated critical origin.

    Returns the perturbed function together with a certificate recording the
    measured invariance residual, the stratum assignment of every critical
    point, the normal hessian margins, and the sampled C2 distance.  The
    certificate's census of critical points is the free stage's last Newton
    sweep, which is a sweep of the returned function itself.  The
    construction pushes normal directions down, so it expects the second
    order normal data of f at the origin to vanish.  A radius or epsilon
    that is not finite and positive, or attempts below one, raises
    ParameterError.
    """
    if not isinstance(action, CyclicAction):
        if k is None:
            raise ValidationError("order k is required with a bare matrix")
        action = CyclicAction(np.asarray(action, dtype=float), int(k))
    n = f.d
    if action.d != n:
        raise ValidationError("action dimension does not match the function")
    if n > 3:
        raise ValidationError("only dimensions up to three are supported")
    _require_positive(radius, epsilon=epsilon)
    if not isinstance(attempts, (int, np.integer)) or attempts < 1:
        raise ParameterError(f"attempts must be a positive integer, got {attempts!r}")
    if _check_invariance(f, action, radius) > _INVARIANCE_TOL:
        raise ValidationError("function is not invariant under the action")
    if np.linalg.norm(np.asarray(f.grad(np.zeros(n)))) > 1e-8:
        raise ValidationError("origin is not a critical point")
    # a degenerate germ of order p stops Newton anywhere in a halo of radius
    # about grad_tol^(1/(p-1)); points beyond that are genuine violations
    for c in _critical_points(f, radius):
        if np.linalg.norm(c) > 5e-3:
            raise IsolationError(
                f"origin is not isolated: critical point near {np.round(c, 6).tolist()}")
    strat = strata(action)
    failures = []
    for attempt in range(attempts):
        rng = np.random.default_rng([seed, attempt])
        try:
            out, cert = _build(f, strat, epsilon, radius, rng, max_depth)
        except _StageFailure as exc:
            failures.append(str(exc))
            continue
        if cert["passed"]:
            cert["attempt"] = attempt
            cert["seed"] = seed
            return out, cert
        bad = ", ".join(name for name, item in cert["items"].items()
                        if not item["passed"])
        failures.append(f"certificate after the stage loop: {bad}")
    raise ResolutionError(
        f"perturbation failed after {attempts} draws: {failures[-1]}")


def _build(f, strat, epsilon, radius, rng, max_depth):
    n = f.d
    action = strat.action
    terms = []
    records = []
    handled = []  # (divisor, projection, basis, c)
    for d in strat.divisors:
        p = strat.projection(d)
        m = strat.dim(d)
        basis = strat.basis(d)
        if any(np.linalg.norm(p - ph) < 1e-9 for _, ph, _, _ in handled):
            records.append({"divisor": int(d), "dimension": int(m),
                            "skipped": "stratum already handled"})
            continue
        if m == n:
            rec, swept = _free_stage(f, terms, strat, d, handled, radius, rng, epsilon)
        elif m == 0:
            c = epsilon / 4.0
            terms.append(_quadratic_term(np.eye(n), c))
            rec = {"divisor": int(d), "dimension": 0, "c": float(c),
                   "h_scale": 0.0, "alpha_scale": None}
        elif d == 1:
            rec = _base_stage(f, terms, strat, d, radius, rng, epsilon)
        else:
            rec = _tube_stage(f, terms, strat, d, handled, radius, rng,
                              epsilon, max_depth)
        records.append(rec)
        handled.append((d, p, basis, rec.get("c")))
    # The free stage is the last stage that adds a term, so the function it
    # swept last is the returned one and its census is the certificate's.
    # The free stage runs at d = ord(A), the first divisor with A^d = I; any
    # later divisor d' has Fix(A^d') = Fix(A^gcd(d', ord A)), a stratum of a
    # smaller divisor, and is skipped above.
    out, crits = swept
    cert = _certify(f, out, crits, strat, records, handled, epsilon, radius)
    return out, cert


def _base_stage(f, terms, strat, d, radius, rng, epsilon):
    """First proper stratum: cutoff polynomial on the stratum plus a
    downward quadratic in the normal directions."""
    n = f.d
    basis = strat.basis(d)
    m = basis.shape[0]
    p = strat.projection(d)
    q = np.eye(n) - p
    nbasis = _complement_basis(basis, n)
    c = epsilon / 4.0
    restricted = _pullback(f, basis.T)
    crits = _critical_points(restricted, radius)

    def normal_ok(points):
        for y in points:
            z = basis.T @ y
            block = nbasis @ np.asarray(f.hess(z), dtype=float) @ nbasis.T
            if np.linalg.norm(block, 2) > c / 10.0:
                return False
        return True

    eta_used = 0.0
    h_term = None
    if not (crits and _is_morse(restricted, crits) and normal_ok(crits)):
        mons = _monomials(m, max_degree=3, min_degree=1)
        coeffs = rng.standard_normal(len(mons))
        plateau = 0.45 * radius
        bump = _bump_poly_term([np.zeros(m)], 2.0 * plateau, coeffs, mons)
        eta = 1e-2
        accepted = False
        for _ in range(24):
            trial_y = _scaled(bump, eta)
            trial = _assemble(restricted, [trial_y], None)
            crits_t = _critical_points(trial, radius)
            inside = all(np.linalg.norm(y) <= plateau for y in crits_t)
            if (crits_t and inside and _is_morse(trial, crits_t)
                    and _min_separation(crits_t) > 10.0 * tol("dedup")
                    and normal_ok(crits_t)):
                accepted = True
                break
            eta /= 8.0
        if not accepted:
            raise _StageFailure(
                f"stage d={d}: could not make the restriction Morse within the margin budget")
        eta_used = eta
        h_term = _scaled(_pullback(bump, basis), eta)
    if h_term is not None:
        terms.append(h_term)
    terms.append(_quadratic_term(q, c))
    return {"divisor": int(d), "dimension": int(m), "c": float(c),
            "h_scale": float(eta_used), "alpha_scale": None}


def _handled_distance(z, handled):
    """Distance from z to the nearest stratum already handled."""
    return min((np.linalg.norm(z - ph @ z) for _, ph, _, _ in handled), default=math.inf)


def _free_stage(f, terms, strat, d, handled, radius, rng, epsilon):
    """Top stratum: break any remaining degeneracy off the earlier strata
    with an averaged cutoff polynomial.

    Returns the stage record and the pair (function, census) of the last
    sweep: f plus every term when no bump is needed, else the accepted
    trial.  Each is assembled flat from f and the term list, so it is
    bitwise the function that _build returns.
    """
    n = f.d
    action = strat.action
    cur = _assemble(f, terms, action, name=_OUT_NAME)
    crits = _critical_points(cur, radius, fine=15, fine_width=0.16)

    free = [z for z in crits if _handled_distance(z, handled) > _STRATUM_TOL]
    eta_used = 0.0
    if free and not _is_morse(cur, free):
        sep = min(_handled_distance(z, handled) for z in free)
        sep = min(sep, 0.5 * radius)
        rho = 0.45 * sep
        mons = _monomials(n, max_degree=3, min_degree=0)
        coeffs = rng.standard_normal(len(mons))
        raw = _bump_poly_term(free, 2.0 * rho, coeffs, mons)
        mats = [action.power(i) for i in range(action.k)]
        alpha = _orbit_average(raw, mats)
        probe = np.asarray(free[0], dtype=float)
        scale_est = max(float(np.linalg.norm(alpha.hess(probe), 2)), 1.0)
        eta = min(1e-2, epsilon / (8.0 * scale_est))
        accepted = False
        for _ in range(6):
            term = _scaled(alpha, eta)
            trial = _assemble(f, terms + [term], action, name=_OUT_NAME)
            crits_t = _critical_points(trial, radius, fine=15, fine_width=0.16)
            free_t = [z for z in crits_t if _handled_distance(z, handled) > _STRATUM_TOL]
            if free_t and _is_morse(trial, free_t):
                accepted = True
                break
            eta /= 8.0
        if not accepted:
            raise _StageFailure(f"stage d={d}: free critical points stay degenerate")
        terms.append(term)
        cur, crits = trial, crits_t
        eta_used = eta
    rec = {"divisor": int(d), "dimension": int(n), "c": None,
           "h_scale": None, "alpha_scale": float(eta_used)}
    return rec, (cur, crits)


def _tube_stage(f, terms, strat, d, handled, radius, rng, epsilon, max_depth):
    """Intermediate stratum: perturb its free part, then extend with a
    distance well that vanishes near the earlier strata."""
    n = f.d
    action = strat.action
    basis = strat.basis(d)
    m = basis.shape[0]
    nbasis = _complement_basis(basis, n)
    cur = _assemble(f, terms, action)
    restricted = _pullback(cur, basis.T)
    crits_y = _critical_points(restricted, radius, fine=15, fine_width=0.16)

    free_y = [y for y in crits_y
              if _handled_distance(basis.T @ y, handled) > _STRATUM_TOL]
    eta_used = 0.0
    if free_y and not _is_morse(restricted, free_y):
        sep = min(_handled_distance(basis.T @ y, handled) for y in free_y)
        rho = 0.45 * min(sep, 0.5 * radius)
        mons = _monomials(m, max_degree=3, min_degree=0)
        coeffs = rng.standard_normal(len(mons))
        raw = _bump_poly_term(free_y, 2.0 * rho, coeffs, mons)
        induced = basis @ action.matrix @ basis.T
        mats = [np.linalg.matrix_power(induced, i) for i in range(d)]
        alpha_y = _orbit_average(raw, mats)
        eta = 1e-4
        accepted = False
        for _ in range(8):
            trial = _assemble(restricted, [_scaled(alpha_y, eta)], None)
            crits_t = _critical_points(trial, radius, fine=15, fine_width=0.16)
            free_t = [y for y in crits_t
                      if _handled_distance(basis.T @ y, handled) > _STRATUM_TOL]
            if free_t and _is_morse(trial, free_t):
                accepted = True
                free_y = free_t
                break
            eta /= 8.0
        if not accepted:
            raise _StageFailure(f"stage d={d}: stratum critical points stay degenerate")
        terms.append(_scaled(_pullback(alpha_y, basis), eta))
        eta_used = eta
    cur = _assemble(f, terms, action)
    c = epsilon / 4.0
    info = {}
    if free_y:
        lifts = [basis.T @ y for y in free_y]
        sep = min(_handled_distance(z, handled) for z in lifts)
        tube_r = min(0.25 * sep, 0.15 * radius)
        inner = None
        for _, ph, bh, _ in handled:
            spec = ClosedSetSpec.tube(n, bh.tolist(), tube_r)
            inner = spec if inner is None else inner.union(spec)
        box = 2.0 * max(1.0, radius)
        well, info = normal_well(inner, n, basis.tolist(), action,
                                 plateau_points=lifts, bbox=(-box, box),
                                 max_depth=max_depth)
        for z in lifts:
            block = nbasis @ np.asarray(cur.hess(z), dtype=float) @ nbasis.T
            if np.linalg.norm(block, 2) > c / 10.0:
                c = 10.0 * float(np.linalg.norm(block, 2))
        if c > epsilon:
            raise _StageFailure(f"stage d={d}: curvature budget exceeded")
        terms.append(_scaled(well, -0.5 * c))
    return {"divisor": int(d), "dimension": int(m), "c": float(c),
            "h_scale": None, "alpha_scale": float(eta_used),
            "well": {k: float(v) for k, v in info.items()}}


def _certify(f, out, crits, strat, records, handled, epsilon, radius):
    """Certificate of out.  crits is its census: the free stage's last
    sweep was of out itself, so out is not swept again here."""
    n = f.d
    action = strat.action
    rng = np.random.default_rng(1234)
    inv = _check_invariance(out, action, radius, samples=120)
    item_inv = {"passed": bool(inv < _INVARIANCE_TOL),
                "residual": float(inv), "tolerance": _INVARIANCE_TOL}

    # min_abs_eig, morse_floor and euler are reported, not gated: they show
    # how marginal each point is and what the census sums to
    hessians = out.hess(np.array(crits)) if crits else np.empty((0, n, n))
    points = []
    worst_assign = 0.0
    euler = 0
    for z, eigs in zip(crits, np.linalg.eigvalsh(hessians)):
        j, dist_j = strat.assign(z)
        worst_assign = max(worst_assign, dist_j)
        euler += (-1) ** int(np.sum(eigs < 0.0))
        points.append({"point": [float(v) for v in z],
                       "stratum": int(j), "distance": float(dist_j),
                       "min_abs_eig": float(np.min(np.abs(eigs)))})
    item_crit = {"passed": bool(worst_assign <= _STRATUM_TOL),
                 "max_distance": float(worst_assign),
                 "tolerance": _STRATUM_TOL, "morse_floor": _MORSE_FLOOR,
                 "euler": int(euler), "points": points}

    stage_c = {}
    for dd, ph, _, cc in handled:
        if cc is not None:
            stage_c[dd] = (ph, cc)
    margins = []
    margins_ok = True
    for entry, hz in zip(points, hessians):
        j = entry["stratum"]
        if strat.dim(j) == n:
            continue
        c_used = None
        pj = strat.projection(j)
        for dd, (ph, cc) in stage_c.items():
            if np.linalg.norm(ph - pj) < 1e-9:
                c_used = cc
                break
        nbasis = _complement_basis(strat.basis(j), n)
        block = nbasis @ hz @ nbasis.T
        top = float(np.max(np.linalg.eigvalsh(block)))
        margin = -top
        required = _MARGIN_FRACTION * c_used if c_used is not None else None
        ok = bool(required is not None
                  and margin >= required * (1.0 - 1e-9))
        margins_ok = margins_ok and ok
        margins.append({"point": entry["point"], "stratum": int(j),
                        "margin": margin,
                        "required": float(required) if required is not None else None,
                        "passed": ok})
    item_margin = {"passed": bool(margins_ok),
                   "required_fraction": _MARGIN_FRACTION, "points": margins}

    z = np.array([_ball_point(rng, n, radius) for _ in range(60)])
    (ov, og, oh), (fv, fg, fh) = out.jet(z), f.jet(z)
    dv = np.abs(ov - fv)
    dg = _row_norms(og - fg)
    dh = np.linalg.norm(oh - fh, 2, axis=(1, 2))
    worst_c2 = 0.0
    for dvi, dgi, dhi in zip(dv.tolist(), dg.tolist(), dh.tolist()):
        worst_c2 = max(worst_c2, dvi, dgi, dhi)
    item_c2 = {"passed": bool(worst_c2 < epsilon),
               "measured": float(worst_c2), "epsilon": float(epsilon)}

    items = {
        "invariance": item_inv,
        "critical_points_on_strata": item_crit,
        "normal_hessian_margin": item_margin,
        "c2_distance": item_c2,
    }
    passed = all(item["passed"] for item in items.values())
    return {"passed": bool(passed), "epsilon": float(epsilon),
            "radius": float(radius), "stages": records, "items": items}


def verify_morse_smale_2d(f, action, radius=1.2):
    """Shoot saddle separatrices of the antigradient flow and report where
    they land, plus the gradient tangency residual on the fixed strata.

    lochom._shoot lands each one within 1e-3 radius of a minimum, or of a
    point where |grad f| < 1e-9: a saddle there is a saddle connection.  So
    every separatrix has a terminus or "exit": True; one that does neither
    within lochom._T_BUDGET raises BoundaryError.
    """
    _require_positive(radius)
    if not isinstance(action, CyclicAction):
        raise ValidationError("a cyclic action is required")
    if f.d != 2:
        raise ValidationError("only the plane is supported")
    if _check_invariance(f, action, radius) > _INVARIANCE_TOL:
        raise ValidationError("function is not invariant under the action")
    strat = strata(action)
    crits = _critical_points(f, radius, fine=15, fine_width=min(0.16, radius))
    crits.sort(key=lambda z: (round(f.value(z), 12), round(z[0], 9), round(z[1], 9)))
    data = []
    for z in crits:
        h = np.asarray(f.hess(z), dtype=float)
        eigs, vecs = np.linalg.eigh(h)
        if np.min(np.abs(eigs)) < _MORSE_FLOOR:
            raise DegeneracyError(
                f"degenerate critical point near {np.round(z, 6).tolist()}")
        j, _ = strat.assign(z)
        data.append({"point": [float(v) for v in z],
                     "index": int(np.sum(eigs < 0.0)),
                     "stratum": int(j),
                     "eigenvalues": [float(e) for e in eigs],
                     "_vecs": vecs})
    indices = [c["index"] for c in data]
    separatrices = []
    connections = []
    for i, c in enumerate(data):
        if c["index"] != 1:
            continue
        vec = c["_vecs"][:, 0]  # eigenvector of the negative eigenvalue
        for sign in (1.0, -1.0):
            x = crits[i] + sign * 1e-4 * vec
            terminus, _ = _shoot(f, x, -1.0, crits, indices, crits[i], radius)
            separatrices.append({"saddle": int(i), "direction": int(sign),
                                 "terminus": terminus, "exit": terminus is None})
            if terminus is not None and indices[terminus] == 1:
                connections.append({"from": int(i), "to": int(terminus)})
    for c in data:
        del c["_vecs"]
    residual = 0.0
    for j in strat.divisors:
        if strat.dim(j) != 1:
            continue
        b = strat.basis(j)[0]
        p = strat.projection(j)
        for t in np.linspace(-radius, radius, 41):
            g = np.asarray(f.grad(t * b), dtype=float)
            residual = max(residual, float(np.linalg.norm(g - p @ g)))
    return {
        "critical_points": data,
        "saddles": [i for i, c in enumerate(data) if c["index"] == 1],
        "separatrices": separatrices,
        "saddle_connections": connections,
        "tangency_residual": float(residual),
        "radius": float(radius),
    }


def squeezed_ring_model(t=0.5, squeeze=0.1):
    """Ring shaped well squeezed along the first axis, symmetric under
    reflection of that axis."""
    action = CyclicAction(np.diag([-1.0, 1.0]), 2)
    terms = [
        (0.25, (4, 0)), (0.5, (2, 2)), (0.25, (0, 4)),
        ((squeeze - t) / 2.0, (2, 0)), (-t / 2.0, (0, 2)),
    ]
    return FunctionSpec.make(2, terms, action=action), action


def double_well_ring_model(a=0.3, b=0.8):
    """Double well along a reflection-fixed axis whose wells are saddles,
    forcing separatrix connections inside the axis."""
    action = CyclicAction(np.diag([1.0, -1.0]), 2)
    terms = [
        (0.25, (4, 0)), (-0.5, (2, 0)),
        (a / 2.0, (0, 2)), (-b / 2.0, (2, 2)), (0.25, (0, 4)),
    ]
    return FunctionSpec.make(2, terms, action=action), action


def obstruction_demo():
    """Report the saddle connections that a reflection pins to its axis."""
    f, action = double_well_ring_model()
    report = verify_morse_smale_2d(f, action, radius=2.0)
    forced = 0
    for conn in report["saddle_connections"]:
        src = report["critical_points"][conn["from"]]
        dst = report["critical_points"][conn["to"]]
        if src["stratum"] == dst["stratum"] and src["stratum"] != action.k:
            forced += 1
    return {
        "function": f.to_json(),
        "action": {"matrix": action.matrix.tolist(), "k": action.k},
        "report": report,
        "connections_on_fixed_stratum": forced,
    }
