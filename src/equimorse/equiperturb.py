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

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .config import tol
from .errors import (
    DegeneracyError,
    IsolationError,
    ResolutionError,
    ValidationError,
)
from .lochom import (
    CallableFunction,
    CyclicAction,
    FunctionSpec,
    _poly_grad,
    _poly_hess,
    _poly_value,
)
from .regdist import ClosedSetSpec, RegularizedDistance

_MORSE_FLOOR = 1e-8
_STRATUM_TOL = 1e-6
_INVARIANCE_TOL = 1e-9
_MARGIN_FRACTION = 0.9


class _StageFailure(Exception):
    pass


def _divisors(k: int):
    return tuple(j for j in range(1, k + 1) if k % j == 0)


def _null_space(m, cutoff=1e-10):
    m = np.atleast_2d(np.asarray(m, dtype=float))
    _, sing, vt = np.linalg.svd(m)
    sing = np.concatenate([sing, np.zeros(vt.shape[0] - sing.size)])
    return vt[sing <= cutoff * max(1.0, sing[0] if sing.size else 0.0)]


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
        return self.bases[j].shape[0]

    def basis(self, j: int) -> np.ndarray:
        return self.bases[j]

    def projection(self, j: int) -> np.ndarray:
        return self.projections[j]

    def stratum_distance(self, x, j: int) -> float:
        x = np.asarray(x, dtype=float)
        return float(np.linalg.norm(x - self.projections[j] @ x))

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
                inter = _null_space(stacked)
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
        ker = _null_space(act.power(j) - np.eye(n))
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

    def value(z):
        z = np.asarray(z, dtype=float)
        w = q @ z
        return f.value(p @ z) - float(w @ w)

    def grad(z):
        z = np.asarray(z, dtype=float)
        return p @ np.asarray(f.grad(p @ z), dtype=float) - 2.0 * (q @ z)

    def hess(z):
        z = np.asarray(z, dtype=float)
        return p @ np.asarray(f.hess(p @ z), dtype=float) @ p - 2.0 * q

    return CallableFunction(n, value, grad, hess, name="normal decreasing extension")


# smooth profiles: a decreasing cutoff for bumps and an increasing step for
# the distance well, both quintic so second derivatives stay continuous

def _quintic(u):
    return u * u * u * (10.0 + u * (-15.0 + 6.0 * u))


def _quintic_d1(u):
    return 30.0 * u * u * (1.0 - u) ** 2


def _quintic_d2(u):
    return 60.0 * u * (1.0 - u) * (1.0 - 2.0 * u)


_RAMP_LO, _RAMP_HI = 0.5, 0.55


def _step(u):
    if u <= 0.25:
        return 0.0
    if u >= 1.0:
        return 1.0
    return _quintic((u - 0.25) / 0.75)


# small polynomials with radial cutoffs, as closed-form term dictionaries

def _monomials(m, max_degree=3, min_degree=0):
    out = []
    for exps in itertools.product(range(max_degree + 1), repeat=m):
        if min_degree <= sum(exps) <= max_degree:
            out.append(exps)
    return out


def _frozen(a):
    a.flags.writeable = False
    return a


def _bump_poly_term(centers, scale, coeffs, mons):
    """Polynomial times a sum of radial bumps, one bump per center.

    Each bump is profile(|z - c| / scale): exactly 1 on the plateau
    t <= 0.5, a decreasing quintic ramp for 0.5 < t < 0.55, and 0 beyond.
    The bump sum is taken over the (K, m) center array in one pass: plateau
    centers only add their count to the value, and the ramp, its gradient and
    its Hessian are evaluated on the centers strictly inside the ramp alone.
    """
    centers = np.asarray(centers, dtype=float)
    terms = tuple(zip(coeffs, mons))
    width = _RAMP_HI - _RAMP_LO

    # Newton sweeps ask for grad and then hess at the same points, so the bump
    # sum and the polynomial's value and gradient are cached per term, keyed
    # by the bytes of z.  The cached arrays are read-only: value, grad and
    # hess only build new arrays from them.
    @functools.lru_cache(maxsize=8)
    def parts(key):
        z = np.frombuffer(key)
        m = len(z)
        w = z - centers
        r = np.sqrt(np.einsum("ki,ki->k", w, w))
        t = r / scale
        bv = float(np.count_nonzero(t <= _RAMP_LO))
        ramp = (t > _RAMP_LO) & (t < _RAMP_HI)
        if not ramp.any():
            return bv, _frozen(np.zeros(m)), _frozen(np.zeros((m, m)))
        # the ramp sits away from r = 0, so the radial chain rule is regular
        r = r[ramp]
        s = (_RAMP_HI - t[ramp]) / width
        d1 = -_quintic_d1(s) / (width * scale)
        d2 = _quintic_d2(s) / (width * scale) ** 2
        u = w[ramp] / r[:, None]
        radial = d2 - d1 / r
        bv += float(np.sum(_quintic(s)))
        bg = d1 @ u
        bh = (u * radial[:, None]).T @ u + float(np.sum(d1 / r)) * np.eye(m)
        return bv, _frozen(bg), _frozen(bh)

    @functools.lru_cache(maxsize=8)
    def poly_value(key):
        return _poly_value(np.frombuffer(key), terms)

    @functools.lru_cache(maxsize=8)
    def poly_grad(key):
        return _frozen(_poly_grad(np.frombuffer(key), terms))

    def value(z):
        key = np.asarray(z, dtype=float).tobytes()
        bv, _, _ = parts(key)
        if bv == 0.0:
            return 0.0
        return poly_value(key) * bv

    def grad(z):
        z = np.asarray(z, dtype=float)
        key = z.tobytes()
        bv, bg, _ = parts(key)
        if bv == 0.0 and not bg.any():
            return np.zeros(len(z))
        return bv * poly_grad(key) + poly_value(key) * bg

    def hess(z):
        z = np.asarray(z, dtype=float)
        key = z.tobytes()
        bv, bg, bh = parts(key)
        if bv == 0.0 and not bg.any() and not bh.any():
            return np.zeros((len(z), len(z)))
        pg = poly_grad(key)
        cross = np.outer(pg, bg)
        return (bv * _poly_hess(z, terms) + cross + cross.T
                + poly_value(key) * bh)

    return {"value": value, "grad": grad, "hess": hess}


def _orbit_average(term, mats):
    mats = [np.asarray(m, dtype=float) for m in mats]

    def value(z):
        z = np.asarray(z, dtype=float)
        return sum(term["value"](m @ z) for m in mats) / len(mats)

    def grad(z):
        z = np.asarray(z, dtype=float)
        g = np.zeros(len(z))
        for m in mats:
            g += m.T @ term["grad"](m @ z)
        return g / len(mats)

    def hess(z):
        z = np.asarray(z, dtype=float)
        h = np.zeros((len(z), len(z)))
        for m in mats:
            h += m.T @ term["hess"](m @ z) @ m
        return h / len(mats)

    return {"value": value, "grad": grad, "hess": hess}


def _scaled(term, factor):
    return {
        "value": lambda z: factor * term["value"](z),
        "grad": lambda z: factor * term["grad"](z),
        "hess": lambda z: factor * term["hess"](z),
    }


def _lifted(term, basis):
    basis = np.asarray(basis, dtype=float)

    def value(z):
        return term["value"](basis @ np.asarray(z, dtype=float))

    def grad(z):
        return basis.T @ term["grad"](basis @ np.asarray(z, dtype=float))

    def hess(z):
        return basis.T @ term["hess"](basis @ np.asarray(z, dtype=float)) @ basis

    return {"value": value, "grad": grad, "hess": hess}


def _quadratic_term(proj, c):
    q = np.asarray(proj, dtype=float)
    return {
        "value": lambda z: -0.5 * c * float(np.asarray(z) @ q @ np.asarray(z)),
        "grad": lambda z: -c * (q @ np.asarray(z, dtype=float)),
        "hess": lambda z: -c * q,
    }


def _assemble(f, terms, action, name=""):
    terms = list(terms)

    def value(z):
        z = np.asarray(z, dtype=float)
        return f.value(z) + sum(t["value"](z) for t in terms)

    def grad(z):
        z = np.asarray(z, dtype=float)
        g = np.asarray(f.grad(z), dtype=float).copy()
        for t in terms:
            g = g + t["grad"](z)
        return g

    def hess(z):
        z = np.asarray(z, dtype=float)
        h = np.asarray(f.hess(z), dtype=float).copy()
        for t in terms:
            h = h + t["hess"](z)
        return h

    return CallableFunction(f.d, value, grad, hess, action=action, name=name)


def _restrict(func, basis):
    basis = np.asarray(basis, dtype=float)
    m = basis.shape[0]

    def value(y):
        return func.value(basis.T @ np.asarray(y, dtype=float))

    def grad(y):
        return basis @ np.asarray(func.grad(basis.T @ np.asarray(y, dtype=float)))

    def hess(y):
        return basis @ np.asarray(func.hess(basis.T @ np.asarray(y, dtype=float))) @ basis.T

    return CallableFunction(m, value, grad, hess)


def _fd_grad(fn, z, h=1e-4):
    z = np.asarray(z, dtype=float)
    g = np.zeros(len(z))
    for i in range(len(z)):
        e = np.zeros(len(z))
        e[i] = h
        g[i] = (fn(z + e) - fn(z - e)) / (2.0 * h)
    return g


def _fd_hess(fn, z, h=1e-4):
    z = np.asarray(z, dtype=float)
    n = len(z)
    out = np.zeros((n, n))
    v0 = fn(z)
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h
        out[i, i] = (fn(z + ei) - 2.0 * v0 + fn(z - ei)) / h ** 2
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = h
            out[i, j] = out[j, i] = (
                fn(z + ei + ej) - fn(z + ei - ej)
                - fn(z - ei + ej) + fn(z - ei - ej)) / (4.0 * h ** 2)
    return out


def normal_well(inner, n, stratum_vectors, action, *, delta=None,
                plateau_points=(), bbox=None, max_depth=None):
    """Smooth well that vanishes near an inner set and equals squared
    distance to a stratum away from it.

    Returns the well as a function together with the chosen transition
    parameters.  The inner set must be invariant and contain the origin.
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

    def value(z):
        z = np.asarray(z, dtype=float)
        if inner.dist(z) <= rho0:
            return 0.0
        w = _step(d0.value(z) ** 2 / delta)
        if w == 0.0:
            return 0.0
        t = d1.value(z)
        return w * t * t

    func = CallableFunction(
        n, value,
        grad_fn=lambda z: _fd_grad(value, z),
        hess_fn=lambda z: _fd_hess(value, z),
        action=action, name="normal well")
    info = {
        "delta": float(delta),
        "rho0": float(rho0),
        "collar": float(max(d0.collar, d1.collar)),
        "max_depth": int(d0.dec.max_depth),
    }
    return func, info


def _critical_points(func, radius, extra_seeds=(), coarse=None, fine=13,
                     fine_width=0.18, max_iter=80, keep_factor=1.02):
    """Damped Newton sweep from a two-scale grid of seeds."""
    n = func.d
    if coarse is None:
        coarse = 7 if n <= 2 else 5
    if n == 3:
        fine = min(fine, 5)
    axes = np.linspace(-radius, radius, coarse)
    seeds = [np.array(p, dtype=float) for p in itertools.product(axes, repeat=n)]
    fw = min(fine_width, radius)
    fine_axes = np.linspace(-fw, fw, fine)
    seeds += [np.array(p, dtype=float) for p in itertools.product(fine_axes, repeat=n)]
    seeds += [np.asarray(s, dtype=float) for s in extra_seeds]
    grad_tol = tol("newton_grad")
    dedup = tol("dedup")
    found = []
    for seed in seeds:
        x = seed.copy()
        ok = False
        try:
            for _ in range(max_iter):
                g = np.asarray(func.grad(x), dtype=float)
                if np.linalg.norm(g) < grad_tol:
                    ok = True
                    break
                h = np.asarray(func.hess(x), dtype=float)
                step = np.linalg.lstsq(h, g, rcond=None)[0]
                size = np.linalg.norm(step)
                cap = 0.25 * max(radius, 1.0)
                if size > cap:
                    step *= cap / size
                x = x - step
                if np.linalg.norm(x) > 3.0 * radius:
                    break
        except ResolutionError:
            continue
        if not ok or np.linalg.norm(x) > keep_factor * radius:
            continue
        if all(np.linalg.norm(x - y) > dedup for y in found):
            found.append(x)
    return found


def _check_invariance(func, action, radius, samples=64):
    if action.is_trivial:
        return 0.0
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(samples):
        z = _ball_point(rng, func.d, radius)
        worst = max(worst, abs(func.value(action.matrix @ z) - func.value(z)))
    return worst


def _ball_point(rng, n, radius):
    v = rng.standard_normal(n)
    v /= max(np.linalg.norm(v), 1e-12)
    return radius * rng.uniform() ** (1.0 / n) * v


def _is_morse(func, points):
    for p in points:
        eigs = np.linalg.eigvalsh(np.asarray(func.hess(p), dtype=float))
        if np.min(np.abs(eigs)) < _MORSE_FLOOR:
            return False
    return True


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
    construction pushes normal directions down, so it expects the second
    order normal data of f at the origin to vanish.
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
    if epsilon <= 0:
        raise ValidationError(f"epsilon must be positive, got {epsilon}")
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
            rec = _free_stage(f, terms, strat, d, handled, radius, rng, epsilon)
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
    out = _assemble(f, terms, action, name="invariant morse perturbation")
    cert = _certify(f, out, strat, records, handled, epsilon, radius)
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
    restricted = _restrict(f, basis)
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
        h_term = _scaled(_lifted(bump, basis), eta)
    if h_term is not None:
        terms.append(h_term)
    terms.append(_quadratic_term(q, c))
    return {"divisor": int(d), "dimension": int(m), "c": float(c),
            "h_scale": float(eta_used), "alpha_scale": None}


def _free_stage(f, terms, strat, d, handled, radius, rng, epsilon):
    """Top stratum: break any remaining degeneracy off the earlier strata
    with an averaged cutoff polynomial."""
    n = f.d
    action = strat.action
    cur = _assemble(f, terms, action)
    crits = _critical_points(cur, radius, fine=15, fine_width=0.16)

    def prev_distance(z):
        if not handled:
            return math.inf
        return min(np.linalg.norm(z - ph @ z) for _, ph, _, _ in handled)

    free = [z for z in crits if prev_distance(z) > _STRATUM_TOL]
    eta_used = 0.0
    if free and not _is_morse(cur, free):
        sep = min(prev_distance(z) for z in free)
        sep = min(sep, 0.5 * radius)
        rho = 0.45 * sep
        mons = _monomials(n, max_degree=3, min_degree=0)
        coeffs = rng.standard_normal(len(mons))
        raw = _bump_poly_term(free, 2.0 * rho, coeffs, mons)
        mats = [action.power(i) for i in range(action.k)]
        alpha = _orbit_average(raw, mats)
        probe = np.asarray(free[0], dtype=float)
        scale_est = max(float(np.linalg.norm(alpha["hess"](probe), 2)), 1.0)
        eta = min(1e-2, epsilon / (8.0 * scale_est))
        accepted = False
        for _ in range(6):
            trial = _assemble(cur, [_scaled(alpha, eta)], action)
            crits_t = _critical_points(trial, radius, fine=15, fine_width=0.16)
            free_t = [z for z in crits_t if prev_distance(z) > _STRATUM_TOL]
            if free_t and _is_morse(trial, free_t):
                accepted = True
                break
            eta /= 8.0
        if not accepted:
            raise _StageFailure(f"stage d={d}: free critical points stay degenerate")
        terms.append(_scaled(alpha, eta))
        eta_used = eta
    return {"divisor": int(d), "dimension": int(n), "c": None,
            "h_scale": None, "alpha_scale": float(eta_used)}


def _tube_stage(f, terms, strat, d, handled, radius, rng, epsilon, max_depth):
    """Intermediate stratum: perturb its free part, then extend with a
    distance well that vanishes near the earlier strata."""
    n = f.d
    action = strat.action
    basis = strat.basis(d)
    m = basis.shape[0]
    nbasis = _complement_basis(basis, n)
    cur = _assemble(f, terms, action)
    restricted = _restrict(cur, basis)
    crits_y = _critical_points(restricted, radius, fine=15, fine_width=0.16)

    def prev_distance(z):
        return min(np.linalg.norm(z - ph @ z) for _, ph, _, _ in handled)

    free_y = [y for y in crits_y
              if prev_distance(basis.T @ y) > _STRATUM_TOL]
    eta_used = 0.0
    if free_y and not _is_morse(restricted, free_y):
        sep = min(prev_distance(basis.T @ y) for y in free_y)
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
                      if prev_distance(basis.T @ y) > _STRATUM_TOL]
            if free_t and _is_morse(trial, free_t):
                accepted = True
                free_y = free_t
                break
            eta /= 8.0
        if not accepted:
            raise _StageFailure(f"stage d={d}: stratum critical points stay degenerate")
        terms.append(_scaled(_lifted(alpha_y, basis), eta))
        eta_used = eta
    cur = _assemble(f, terms, action)
    c = epsilon / 4.0
    info = {}
    if free_y:
        lifts = [basis.T @ y for y in free_y]
        sep = min(prev_distance(z) for z in lifts)
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
        terms.append({
            "value": lambda z: -0.5 * c * well.value(z),
            "grad": lambda z: -0.5 * c * well.grad(z),
            "hess": lambda z: -0.5 * c * well.hess(z),
        })
    return {"divisor": int(d), "dimension": int(m), "c": float(c),
            "h_scale": None, "alpha_scale": float(eta_used),
            "well": {k: float(v) for k, v in info.items()}}


def _certify(f, out, strat, records, handled, epsilon, radius):
    n = f.d
    action = strat.action
    rng = np.random.default_rng(1234)
    inv = _check_invariance(out, action, radius, samples=120)
    item_inv = {"passed": bool(inv < _INVARIANCE_TOL),
                "residual": float(inv), "tolerance": _INVARIANCE_TOL}

    # min_abs_eig, morse_floor and euler are reported, not gated: they show
    # how marginal each point is and what the census sums to
    crits = _critical_points(out, radius, fine=15, fine_width=0.16)
    hessians = [np.asarray(out.hess(z), dtype=float) for z in crits]
    points = []
    worst_assign = 0.0
    euler = 0
    for z, hz in zip(crits, hessians):
        j, dist_j = strat.assign(z)
        worst_assign = max(worst_assign, dist_j)
        eigs = np.linalg.eigvalsh(hz)
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

    worst_c2 = 0.0
    for _ in range(60):
        z = _ball_point(rng, n, radius)
        dv = abs(out.value(z) - f.value(z))
        dg = float(np.linalg.norm(np.asarray(out.grad(z)) - np.asarray(f.grad(z))))
        dh = float(np.linalg.norm(
            np.asarray(out.hess(z)) - np.asarray(f.hess(z)), 2))
        worst_c2 = max(worst_c2, dv, dg, dh)
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


def verify_morse_smale_2d(f, action, radius=1.2, seed=0):
    """Shoot saddle separatrices of the antigradient flow and report where
    they land, plus the gradient tangency residual on the fixed strata."""
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
    positions = [np.asarray(c["point"]) for c in data]
    separatrices = []
    connections = []
    for i, c in enumerate(data):
        if c["index"] != 1:
            continue
        vec = c["_vecs"][:, 0]  # eigenvector of the negative eigenvalue
        for sign in (1.0, -1.0):
            x = positions[i] + sign * 1e-4 * vec
            terminus, exited = _flow_to_rest(f, x, positions, data, i, radius)
            separatrices.append({"saddle": int(i), "direction": int(sign),
                                 "terminus": terminus, "exit": bool(exited)})
            if terminus is not None and data[terminus]["index"] == 1:
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


def _flow_to_rest(f, x0, positions, data, source, radius, chunk=10.0, chunks=400):
    """Integrate the antigradient flow until it settles at a critical point
    or leaves the ball."""

    def rhs(_, x):
        return -np.asarray(f.grad(x), dtype=float)

    x = np.asarray(x0, dtype=float)
    bound = 1.5 * radius + 0.5
    for _ in range(chunks):
        sol = solve_ivp(rhs, (0.0, chunk), x, rtol=1e-9, atol=1e-12)
        x = sol.y[:, -1]
        if np.linalg.norm(x) > bound:
            return None, True
        for i, p in enumerate(positions):
            d = np.linalg.norm(x - p)
            idx = data[i]["index"]
            if idx == 0 and d < 1e-3:
                return i, False
            if idx == 1 and d < 1e-5 and i != source:
                return i, False
    return None, False


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
