"""Invariant Morse perturbation over the strata of a finite cyclic action.

The fixed subspaces of the powers of an orthogonal finite-order matrix form a
stratification indexed by divisors.  An invariant function with an isolated
critical point is made Morse stratum by stratum, from the smallest fixed
subspace up to the whole space, one stage for every stratum: it sweeps the
restriction to its stratum, breaks the degenerate critical points off the
strata already handled with a small invariant cutoff polynomial, scaled down
until they are Morse and, below the top stratum, within the normal curvature
budget and C2-close to f, and makes every normal direction strictly
decrease.  Near a fixed point of a linear action every stratum is a linear
subspace, so the normal push of a stratum is a polynomial in squared
distances to subspaces (normal_well) and needs no regularized distance.  Each
run is summarized by a certificate with measured residuals and margins, and
a two-dimensional checker shoots saddle separatrices to report connections
that the symmetry forces onto fixed strata.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .config import _S_HI, _S_LO, null_space, row_dots, row_norms, row_space, smooth_step
from .errors import DegeneracyError, ResolutionError, ValidationError
from .lochom import (
    CallableFunction,
    CyclicAction,
    FunctionSpec,
    _check_isolated,
    _grid_seeds,
    _mv,
    _orbit,
    _orbit_average,
    _pullback,
    _require_positive,
    _shoot,
    critical_points,
)
from .hamflow import _polynomial_kernel

_MORSE_FLOOR = 1e-8
_STRATUM_TOL = 1e-6
_INVARIANCE_TOL = 1e-9
_MARGIN_FRACTION = 0.9
_ATTEMPTS = 3  # seeded draws of the perturbation before it gives up
_OUT_NAME = "invariant morse perturbation"


class _StageFailure(Exception):
    pass


def _divisors(k: int):
    return tuple(j for j in range(1, k + 1) if k % j == 0)


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

    def assign(self, x):
        """Smallest divisor whose stratum contains x up to _STRATUM_TOL, or
        the last divisor, and the distance from x to that stratum.

        For a batch (P, n) it returns the divisors and distances of every
        row as arrays, each row bitwise the point alone.
        """
        x = np.asarray(x, dtype=float)
        Z = x.reshape(-1, self.ambient_dim)
        dist = np.array([row_norms(Z - _mv(self.projection(j), Z)) for j in self.divisors])
        on = dist <= _STRATUM_TOL
        pick = np.where(on.any(axis=0), on.argmax(axis=0), len(self.divisors) - 1)
        js, ds = np.array(self.divisors)[pick], dist[pick, np.arange(len(Z))]
        return (int(js[0]), float(ds[0])) if x.ndim == 1 else (js, ds)

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
                moved = row_space(self.bases[i] @ (np.eye(n) - self.projections[g]))
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
        act = CyclicAction(np.asarray(action, dtype=float), k)
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


# small polynomials with radial cutoffs, as closed-form functions; every row
# of a batch is bitwise the result at that point alone, which keeps the
# critical point census of a Newton sweep independent of its batching: the
# bump sum reads each row's centers from a cell index and adds its ramp
# centers, in ascending center order, in one stacked product per ramp count,
# and the polynomial is the package's one kernel (hamflow._Kernel), whose
# rows do not depend on their batch mates

def _monomials(m):
    # the exponents of the monomials of degree at most 3 in m variables
    return [exps for exps in itertools.product(range(4), repeat=m) if sum(exps) <= 3]


def _firsts(a):
    # the index of the first of each run of equal values of a sorted array
    return np.flatnonzero(np.concatenate([[len(a) > 0], a[1:] != a[:-1]]))


def _near_pairs(centers, reach):
    """The lookup Z -> (row, center) of the pairs of a batch Z and the (K, m)
    centers that may lie within reach of each other, sorted by row, then
    center.

    The centers are filed in cells of side just above reach, each under the
    3^m cells around its own, so the index holds 3^m K entries, and a row
    reads the centers filed under its own cell.  The side exceeds reach by a
    margin that covers the rounding of the distances and of the cell
    coordinates, so every pair whose computed distance is below reach is
    returned.  A row that is not finite, or lies more than a cell outside
    the centers' bounding box, gets no pairs.
    """
    m = centers.shape[1]
    lo = centers.min(axis=0)
    span = float(np.max(centers.max(axis=0) - lo))
    side = reach * (1.0 + 16.0 * np.finfo(float).eps * (span / reach + 4.0))
    cells = np.floor((centers - lo) / side).astype(np.int64)
    top = cells.max(axis=0) + 2
    shifts = np.array(list(itertools.product((-1, 0, 1), repeat=m)))
    filed = (shifts[:, None, :] + cells).reshape(-1, m)
    owner = np.tile(np.arange(len(centers)), len(shifts))
    # a cell's key packs the ranks of its coordinates among the filed ones,
    # at most 3K per axis, so keys fit in int64 for any K below 690,000;
    # shifted past the range [-1, top) of the axes before it, the filed
    # coordinates of all axes make one sorted list, so one search ranks
    # every coordinate of a batch
    shift = 1 + np.concatenate([[0], np.cumsum(top[:-1] + 1)])
    coords = np.sort((filed + shift).ravel(), kind="stable")
    coords = coords[_firsts(coords)]
    start = np.searchsorted(coords, shift - 1)
    strides = np.concatenate([[1], np.cumprod(np.diff(np.append(start, len(coords)))[:-1])])

    def keys(c):
        c = c + shift
        at = np.minimum(np.searchsorted(coords, c), len(coords) - 1)
        return (at - start) @ strides, np.all(coords[at] == c, axis=1)

    filed = keys(filed)[0]
    order = np.lexsort((owner, filed))
    owner, filed = owner[order], filed[order]
    first = _firsts(filed)
    cell_keys, sizes = filed[first], np.diff(np.append(first, len(filed)))

    def near(Z):
        with np.errstate(over="ignore"):
            q = (Z - lo) / side
        rows = np.flatnonzero(np.all((q >= -1.0) & (q < top), axis=1))
        key, hit = keys(np.floor(np.take(q, rows, axis=0)).astype(np.int64))
        at = np.minimum(np.searchsorted(cell_keys, key), len(cell_keys) - 1)
        hit &= cell_keys[at] == key
        rows, at = rows[hit], at[hit]
        n = sizes[at]
        ends = np.cumsum(n)
        return (np.repeat(rows, n),
                owner[np.repeat(first[at] - ends + n, n) + np.arange(n.sum())])

    return near


def _bump_poly_term(centers, scale, coeffs, mons):
    """Polynomial times a sum of radial bumps, one bump per center.

    Each bump is profile(|z - c| / scale): exactly 1 on the plateau
    t <= 0.5, the quintic ramp config.smooth_step decreasing for
    0.5 < t < 0.55, and 0 beyond.
    The jet of a batch reads the bump sum from the pairs of rows and centers
    that a cell index (_near_pairs, built once per term) returns, so it
    costs the centers within reach of each row, not all K.  Plateau centers
    only add their count to the value.  The ramp, its gradient and its
    Hessian are evaluated elementwise over all ramp pairs in one pass, on
    the pairs ordered by (ramp count, row, center), so the rows with the
    same number R of ramp centers share one contiguous block: one sum and
    one stacked (1, R) @ (R, m) and (m, R) @ (R, m) product per R, each row
    adding its centers in ascending order.  Padding the rows to a common R
    would change the rounding.  The polynomial's kernel is built once, here,
    and read only at the rows that some bump reaches.
    """
    centers = np.asarray(centers, dtype=float)
    m = centers.shape[1]
    kernel = _polynomial_kernel(m, list(zip(coeffs, mons)))
    width = _S_HI - _S_LO
    eye = np.eye(m)
    near = _near_pairs(centers, _S_HI * scale)

    def jet(Z):
        row, center = near(Z)
        W = np.take(Z, row, axis=0) - np.take(centers, center, axis=0)
        r = np.sqrt(np.einsum("ni,ni->n", W, W))
        t = r / scale
        bv = np.bincount(row, weights=t <= _S_LO, minlength=len(Z))
        bg = np.zeros(Z.shape)
        bh = np.zeros((len(Z), m, m))
        ramp = np.flatnonzero((t > _S_LO) & (t < _S_HI))
        counts = np.bincount(row[ramp], minlength=len(Z))
        ramp = ramp[np.argsort(counts[row[ramp]], kind="stable")]
        row, r = row[ramp], r[ramp]
        # the ramp sits away from r = 0, so the radial chain rule is regular
        q, d1, d2 = smooth_step((_S_HI - t[ramp]) / width)
        d1 = -d1 / (width * scale)
        d2 = d2 / (width * scale) ** 2
        u = np.take(W, ramp, axis=0) / r[:, None]
        radial, tangential = u * (d2 - d1 / r)[:, None], d1 / r
        starts = _firsts(counts[row])
        for R, a, b in zip(counts[row[starts]].tolist(), starts.tolist(),
                           starts[1:].tolist() + [len(row)]):
            rows = row[a:b:R]
            ub = u[a:b].reshape(-1, R, m)
            bv[rows] += np.sum(q[a:b].reshape(-1, R), axis=1)
            bg[rows] = np.matmul(d1[a:b].reshape(-1, R)[:, None, :], ub)[:, 0]
            bh[rows] = (np.matmul(np.swapaxes(radial[a:b].reshape(-1, R, m), 1, 2), ub)
                        + np.sum(tangential[a:b].reshape(-1, R), axis=1)[:, None, None] * eye)
        # rows outside every bump (bv = 0: a ramp center adds a positive
        # quintic) keep a zero polynomial, so their value and derivatives are
        # exact zeros
        pv, pg, ph = np.zeros(len(Z)), np.zeros(Z.shape), np.zeros(bh.shape)
        live = np.flatnonzero(bv)
        if len(live):
            pv[live], pg[live], ph[live] = kernel.jet(np.take(Z, live, axis=0))
        return _product((pv, pg, ph), (bv, bg, bh))

    return CallableFunction(m, jet)


def _product(a, b):
    # the jet (values, gradients, Hessians) of a product from its factors' jets
    (av, ag, ah), (bv, bg, bh) = a, b
    cross = ag[:, :, None] * bg[:, None, :]
    return (av * bv, bv[:, None] * ag + av[:, None] * bg,
            bv[:, None, None] * ah + cross + np.swapaxes(cross, 1, 2) + av[:, None, None] * bh)


def _scaled(term, factor):
    return CallableFunction(term.d, lambda Z: tuple(factor * part for part in term.jet(Z)))


def _quadratic_term(proj, c):
    q = np.asarray(proj, dtype=float)
    return CallableFunction(
        len(q),
        lambda Z: (-0.5 * c * row_dots(np.matmul(Z[:, None, :], q)[:, 0], Z), -c * _mv(q, Z),
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


def normal_well(handled, projection, action, plateau_points):
    """The well prod_e q((|Q_e z|^2 / delta - 1/4) / (3/4)) |Q z|^2 of a
    stratum, with Q_e = I - P_e for the projections P_e onto the handled
    strata, Q = I - P for the projection P onto the stratum, q the ramp
    config.smooth_step, and delta the smallest |Q_e p|^2 over the plateau
    points p, divided by 1.3, so every factor is 1 there.

    It is exactly 0 where some |Q_e z|^2 <= delta / 4 and exactly |Q z|^2
    where every |Q_e z|^2 >= delta, has exact jets by the product rule, and
    is invariant under an orthogonal action that commutes with the
    projections.  Returns the well and {"delta": delta}.

    >>> well, _ = normal_well([np.zeros((2, 2))], np.diag([1.0, 0.0]),
    ...                       CyclicAction(np.diag([1.0, -1.0]), 2), [[0.5, 0.0]])
    >>> well.value(np.array([0.5, 0.25])), well.value(np.array([0.1, 0.1]))
    (0.0625, 0.0)
    """
    # the jet of |Q z|^2 = z.Qz, 2 Q z and 2 Q, for an orthogonal projection Q
    squared = [_quadratic_term(np.eye(len(p)) - p, -2.0).jet for p in [projection, *handled]]
    if not len(plateau_points):
        raise ValidationError("the well needs a plateau point")
    pts = np.asarray(plateau_points, dtype=float)
    delta = min((np.min(sq(pts)[0]) for sq in squared[1:]), default=math.inf) / 1.3
    if not delta > 0.0:
        raise ValidationError("delta must be positive: a plateau point lies on a handled stratum")

    def jet(Z):
        out = squared[0](Z)
        for sq in squared[1:]:
            u, g, h = sq(Z)
            w, w1, w2 = smooth_step((u / delta - 0.25) / 0.75)
            w1, w2 = w1 / (0.75 * delta), w2 / (0.75 * delta) ** 2
            out = _product((w, w1[:, None] * g, w2[:, None, None] * g[:, :, None] * g[:, None, :]
                            + w1[:, None, None] * h), out)
        return out

    return CallableFunction(len(projection), jet, action=action, name="normal well"), \
        {"delta": float(delta)}


# seeds per axis of the coarse grid over the ball's box, and of the fine
# grid over [-_FINE_WIDTH, _FINE_WIDTH]^n, in one or two and in three dimensions
_COARSE, _COARSE_3D = 7, 5
_FINE, _FINE_3D, _FINE_WIDTH = 15, 5, 0.16


def _critical_points(func, radius):
    """lochom.critical_points from a two-scale grid of seeds: a coarse grid
    over the ball's box, then a fine grid around the origin."""
    n = func.d
    coarse, fine = (_COARSE, _FINE) if n <= 2 else (_COARSE_3D, _FINE_3D)
    seeds = np.concatenate([_grid_seeds(radius, coarse, n),
                            _grid_seeds(min(_FINE_WIDTH, radius), fine, n)])
    return critical_points(func, seeds, radius)


def _check_invariance(func, action, radius, samples=64):
    if action.is_trivial:
        return 0.0
    rng = np.random.default_rng(0)
    return action.residual(func.value, [_ball_point(rng, func.d, radius) for _ in range(samples)])


def _ball_point(rng, n, radius):
    v = rng.standard_normal(n)
    v /= max(np.linalg.norm(v), 1e-12)
    return radius * rng.uniform() ** (1.0 / n) * v


def _ball_sample(n, radius):
    # the 60 points of the ball that every C^2 check reads, and their generator
    rng = np.random.default_rng(1234)
    return np.array([_ball_point(rng, n, radius) for _ in range(60)]), rng


def _ramp_points(centers, scale):
    # ten radii across the ramp 0.5 < |z - c| / scale < 0.55 of each of the
    # (K, m) centers c, toward the 3^m - 1 neighbours of a grid point
    u = np.delete(_grid_seeds(1.0, 3, centers.shape[1]), (3 ** centers.shape[1]) // 2, axis=0)
    t = np.linspace(_S_LO, _S_HI, 12)[1:-1, None, None] * scale
    return (centers[:, None, None] + t * u / row_norms(u)[:, None]).reshape(-1, centers.shape[1])


def _c2_change(out, f, z):
    # the largest change of value, gradient and Hessian (2-norm) of out from f at z
    (ov, og, oh), (fv, fg, fh) = out.jet(z), f.jet(z)
    return max([0.0, *np.abs(ov - fv).tolist(), *row_norms(og - fg).tolist(),
                *np.linalg.norm(oh - fh, 2, axis=(1, 2)).tolist()])


def _shell_points(rng, projection, delta, radius):
    # 60 draws of points at squared distance t delta, t uniform in [1/4, 1],
    # from the stratum of an orthogonal projection, kept in the ball: a
    # well's ramp around that stratum
    n, count = len(projection), 60
    feet = np.array([_ball_point(rng, n, radius) for _ in range(count)]) @ projection
    normal = rng.standard_normal((count, n)) @ (np.eye(n) - projection)
    z = feet + np.sqrt(rng.uniform(0.25, 1.0, count) * delta)[:, None] \
        * normal / row_norms(normal)[:, None]
    return z[row_norms(z) <= radius]


def _min_abs_eig(func, points):
    # the smallest |eigenvalue| of the Hessians of func at the points
    return float(np.min(np.abs(np.linalg.eigvalsh(func.hess(np.array(points))))))


def perturb_invariant_morse(f, action, k=None, *, epsilon, radius=1.0, seed=0):
    """Invariant Morse perturbation of f near an isolated critical origin.

    Returns the perturbed function together with a certificate recording the
    measured invariance residual, the stratum assignment of every critical
    point, the normal hessian margins, and the C2 distance sampled on the
    ball, on the ramps of the bumps below the top stratum, and on the ramp
    shells of every well around the strata handled before it.  Its census
    of critical points is the last Newton sweep of the top stratum's stage,
    a sweep of the returned function itself.  Every
    stratum runs the one stage, _stage.  Below the top stratum its trial
    cutoff polynomial must leave the stratum's points Morse, with 10
    lambda_max of their normal Hessian blocks and its C2 change below
    epsilon, and its normal push takes c = max(epsilon / 4, 10 lambda_max).
    It makes _ATTEMPTS = 3 seeded draws before it raises ResolutionError,
    whose message lists every draw in order, each with the stage or
    certificate items it failed and what they measured.  Another critical
    point in the ball raises IsolationError (lochom._check_isolated on the
    points of one _critical_points sweep of f), and a
    radius or epsilon that is not finite and positive raises ParameterError.
    """
    strat = strata(action, k)
    action = strat.action
    n = f.d
    if action.d != n:
        raise ValidationError("action dimension does not match the function")
    if n > 3:
        raise ValidationError("only dimensions up to three are supported")
    _require_positive(radius, epsilon=epsilon)
    if _check_invariance(f, action, radius) > _INVARIANCE_TOL:
        raise ValidationError("function is not invariant under the action")
    if np.linalg.norm(np.asarray(f.grad(np.zeros(n)))) > 1e-8:
        raise ValidationError("origin is not a critical point")
    _check_isolated(f, radius, _critical_points(f, radius))
    failures = []
    for attempt in range(_ATTEMPTS):
        rng = np.random.default_rng([seed, attempt])
        try:
            out, cert = _build(f, strat, epsilon, radius, rng)
        except _StageFailure as exc:
            failures.append(str(exc))
            continue
        if cert["passed"]:
            cert["attempt"] = attempt
            cert["seed"] = seed
            return out, cert
        bad = ", ".join(f"{name} ({_measured(item)})"
                        for name, item in cert["items"].items() if not item["passed"])
        failures.append(f"certificate after the stage loop: {bad}")
    draws = "; ".join(f"draw {i}: {why}" for i, why in enumerate(failures))
    raise ResolutionError(f"perturbation failed after {_ATTEMPTS} draws: {draws}")


def _measured(item):
    # the measured value of a failed certificate item, for the refusal
    for key in ("residual", "max_distance", "measured"):
        if key in item:
            return f"{key} {item[key]:.4g}"
    return f"margin {min(p['margin'] for p in item['points'] if not p['passed']):.4g}"


def _build(f, strat, epsilon, radius, rng):
    terms = []
    records = []
    ramps = []  # the ramp points of the bumps of each stage, (P, n)
    handled = []  # (projection, c)
    for d in strat.divisors:
        p = strat.projection(d)
        m = strat.dim(d)
        if any(np.linalg.norm(p - ph) < 1e-9 for ph, _ in handled):
            records.append({"divisor": int(d), "dimension": int(m),
                            "skipped": "stratum already handled"})
            continue
        rec, swept, bump_ramps = _stage(f, terms, strat, d, handled, radius, rng, epsilon)
        records.append(rec)
        ramps.append(bump_ramps)
        handled.append((p, rec.get("c")))
    # The top stratum's stage adds the last term, so the function it swept
    # last is the returned one and its census is the certificate's.  It runs
    # at d = ord(A), the first divisor with A^d = I; any later divisor d' has
    # Fix(A^d') = Fix(A^gcd(d', ord A)), an earlier stratum, skipped above.
    out, crits = swept
    cert = _certify(f, out, crits, strat, records, handled, epsilon, radius, ramps)
    return out, cert


def _stage(f, terms, strat, d, handled, radius, rng, epsilon):
    """One stratum F_d = Fix(A^d) of the induction, in three steps.

    1. Sweep f plus the terms so far, restricted to F_d.
    2. If the census points off the handled strata (the free points) are
       degenerate, add one cutoff polynomial around them, averaged over the
       d powers of the induced action by lochom._orbit_average, and scale it
       down by 8 until a trial's free points are Morse above _MORSE_FLOOR.
       Below the top stratum a trial must also keep _curvature's budget at
       them, and its _c2_change against f on the certificate's ball points
       and on the ramps of its bumps must stay below epsilon.  The top
       stratum's trial is the returned function, which _certify checks.
    3. Below the top stratum, push the normal directions down by the well
       of _well_step: -(c/2)|z|^2 at the census point 0 when F_d = {0},
       nothing when every census point lies on a handled stratum.

    The top stratum is swept as it is, not through its basis, and every
    trial is assembled flat from f and the term list, so the top stratum's
    last sweep is of the function that _build returns.  Returns the stage
    record, the pair (function, census) of the last sweep and, below the top
    stratum, the ramp points of its bumps, which _certify reads again.
    """
    n = f.d
    action = strat.action
    basis = strat.basis(d)
    m = basis.shape[0]
    if m == n:
        restrict = lift = up = lambda x: x
        induced = action.matrix
    else:
        restrict = lambda func: _pullback(func, basis.T)
        lift = lambda func: _pullback(func, basis)
        up = lambda Y: _mv(basis.T, Y)
        induced = basis @ action.matrix @ basis.T

    def off_handled(points):
        # the points whose lifts lie off every handled stratum, and the
        # distance from each of their lifts to the nearest handled stratum
        U = up(np.array(points, dtype=float).reshape(len(points), m))
        gaps = np.min([row_norms(U - _mv(ph, U)) for ph, _ in handled]
                      + [np.full(len(U), math.inf)], axis=0)
        return [y for y, g in zip(points, gaps) if g > _STRATUM_TOL], gaps[gaps > _STRATUM_TOL]

    cur = _assemble(f, terms, action, name=_OUT_NAME)
    swept = restrict(cur)
    # on F_d = {0} the origin is the one point, and it cannot degenerate
    crits = _critical_points(swept, radius) if m else []
    free, gaps = off_handled(crits)
    eta_used, ramps = 0.0, np.empty((0, n))
    if free and _min_abs_eig(swept, free) < _MORSE_FLOOR:
        sep = np.min(gaps)
        rho = 0.45 * min(sep, 0.5 * radius)
        mons = _monomials(m)
        coeffs = rng.standard_normal(len(mons))
        raw = _bump_poly_term(free, 2.0 * rho, coeffs, mons)
        alpha = _orbit_average(raw, induced, d)
        probe = np.asarray(free[0], dtype=float)
        scale_est = max(float(np.linalg.norm(alpha.hess(probe), 2)), 1.0)
        eta = min(1e-2, epsilon / (8.0 * scale_est))
        if m < n:
            # the bumps of the average sit at the images A^-j c of the centers
            ramps = up(_orbit(_ramp_points(np.array(free), 2.0 * rho), induced.T, d))
            sample = np.concatenate([_ball_sample(n, radius)[0], ramps])

        def fault(trial, swept, free):
            # the first check that a trial fails, with what it measured, or None
            if not free:
                return "no free point"
            eig = _min_abs_eig(swept, free)
            if eig < _MORSE_FLOOR:
                return f"min |eig| {eig:.4g} over {len(free)} free points"
            if m == n:
                return None
            why = _curvature(trial, strat, d, list(up(np.array(free))), epsilon)[1]
            if why:
                return why
            change = _c2_change(trial, f, sample)
            return None if change < epsilon else f"a C2 change of {change:.4g}"

        for _ in range(6):
            term = _scaled(lift(alpha), eta)
            trial = _assemble(f, terms + [term], action, name=_OUT_NAME)
            swept = restrict(trial)
            crits = _critical_points(swept, radius)
            free, _ = off_handled(crits)
            why = fault(trial, swept, free)
            if not why:
                break
            eta /= 8.0
        else:
            raise _StageFailure(f"stage d={d}: no trial passed; the last, at eta "
                                f"{8.0 * eta:.4g}, had {why}")
        terms.append(term)
        cur, eta_used = trial, eta
    c, info = epsilon / 4.0, {}
    # on F_d = {0} nothing is handled yet, so the well is |z|^2
    lifts = list(up(np.array(free).reshape(-1, m))) if m else [np.zeros(n)]
    if m < n and lifts:
        term, c, info = _well_step(cur, strat, d, handled, lifts, epsilon)
        terms.append(term)
    rec = {"divisor": int(d), "dimension": int(m), "c": float(c) if m < n else None,
           "alpha_scale": float(eta_used) if m else None}
    if 0 < m < n:
        rec["well"] = info
    return rec, (cur, crits), ramps


def _curvature(cur, strat, d, lifts, epsilon):
    # the largest lambda_max of the normal Hessian blocks of cur at the lifted
    # points of F_d, and why it breaks the budget 10 lambda_max <= epsilon, or None
    nbasis = null_space(strat.basis(d))
    tops = np.max(np.linalg.eigvalsh(nbasis @ cur.hess(np.array(lifts)) @ nbasis.T), axis=1)
    i = int(np.argmax(tops))
    why = (f"curvature budget exceeded: the normal Hessian at {np.round(lifts[i], 6).tolist()} "
           f"has lambda_max {tops[i]:.4g}" if 10.0 * tops[i] > epsilon else None)
    return float(tops[i]), why


def _well_step(cur, strat, d, handled, lifts, epsilon):
    """-(c/2) times the normal_well of F_d with its plateau at the lifted
    census points, and c = max(epsilon / 4, 10 lambda_max) of _curvature: a
    negative block keeps epsilon / 4, and a c above epsilon refuses before
    any well is built.  Returns the term, c and the well's delta."""
    top, why = _curvature(cur, strat, d, lifts, epsilon)
    if why:
        raise _StageFailure(f"stage d={d}: {why}")
    c = max(epsilon / 4.0, 10.0 * top)
    well, info = normal_well([ph for ph, _ in handled], strat.projection(d), strat.action, lifts)
    return _scaled(well, -0.5 * c), c, info


def _certify(f, out, crits, strat, records, handled, epsilon, radius, ramps):
    """Certificate of out.  crits is its census: the top stratum's stage
    swept out itself last, so out is not swept again here.  ramps holds the
    ramp points of each stage's bumps below the top stratum."""
    n = f.d
    action = strat.action
    inv = _check_invariance(out, action, radius, samples=120)
    item_inv = {"passed": bool(inv < _INVARIANCE_TOL),
                "residual": float(inv), "tolerance": _INVARIANCE_TOL}

    # min_abs_eig, morse_floor and euler are reported, not gated: they show
    # how marginal each point is and what the census sums to
    hessians = out.hess(np.array(crits)) if crits else np.empty((0, n, n))
    eigs = np.linalg.eigvalsh(hessians)
    on, dists = strat.assign(np.array(crits, dtype=float).reshape(-1, n))
    points = [{"point": [float(v) for v in z], "stratum": int(j), "distance": float(dist),
               "min_abs_eig": float(e)}
              for z, j, dist, e in zip(crits, on, dists, np.min(np.abs(eigs), axis=1))]
    worst_assign = max([0.0, *dists.tolist()])
    item_crit = {"passed": bool(worst_assign <= _STRATUM_TOL),
                 "max_distance": float(worst_assign),
                 "tolerance": _STRATUM_TOL, "morse_floor": _MORSE_FLOOR,
                 "euler": int(np.sum((-1) ** np.sum(eigs < 0.0, axis=1))), "points": points}

    # the top eigenvalue of the normal Hessian block of every point on a
    # proper stratum, one stack per stratum, and the c of the stage that
    # handled that stratum
    low = {j for j in on.tolist() if strat.dim(j) < n}
    tops, used = np.zeros(len(crits)), {}
    for j in low:
        nbasis = null_space(strat.basis(j))
        blocks = np.matmul(np.matmul(nbasis, hessians[on == j]), nbasis.T)
        tops[on == j] = np.max(np.linalg.eigvalsh(blocks), axis=1)
        # every proper stratum is handled by a stage that records its c
        used[j] = next(cc for ph, cc in handled if np.linalg.norm(ph - strat.projection(j)) < 1e-9)
    margins = [{"point": entry["point"], "stratum": int(j), "margin": -top,
                "required": _MARGIN_FRACTION * used[j],
                "passed": bool(-top >= _MARGIN_FRACTION * used[j] * (1.0 - 1e-9))}
               for entry, j, top in zip(points, on.tolist(), tops.tolist()) if j in low]
    item_margin = {"passed": all(p["passed"] for p in margins),
                   "required_fraction": _MARGIN_FRACTION, "points": margins}

    # besides the ball, the ramps of the bumps below the top stratum and the
    # ramp shells of each well around the strata handled before it, where
    # the Hessians of the terms peak and a sample of the ball rarely lands;
    # handled runs parallel to the stages not skipped
    ball, rng = _ball_sample(n, radius)
    z = [ball, *ramps]
    for k, rec in enumerate(r for r in records if "skipped" not in r):
        if rec.get("well"):
            z += [_shell_points(rng, ph, rec["well"]["delta"], radius) for ph, _ in handled[:k]]
    worst_c2 = _c2_change(out, f, np.concatenate(z))
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
    crits = _critical_points(f, radius)
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
