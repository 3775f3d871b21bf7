"""Local homology of isolated critical points, plain and invariant.

Sublevel pairs are rasterized on cubical or polar grids and their relative
homology is computed over Q.  Two-dimensional Morse data comes from shooting
trajectories between critical points.  A degenerate point reduces to the
critical points phi(z1) of the fibers normal to its kernel by the shifting
theorem, whose exact hypotheses are checked.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import dact as _dact
from .config import (lockstep_newton, row_dots as _row_dots, row_lstsq as _row_lstsq,
                     row_norms as _row_norms, tol)
from .errors import (
    BoundaryError,
    ConfigurationError,
    DegeneracyError,
    IsolationError,
    MorseSmaleError,
    ParameterError,
    ResolutionError,
    ShapeError,
    TrustRegionError,
    ValidationError,
)
from .exactalg import (
    GradedChainComplex,
    betti_from_columns,
    invariant_betti_from_columns,
    sparse_rank,  # noqa: F401  (perfbench/selftest.py checks this binding)
)
from .hamflow import _exponents, _integer, _polynomial_kernel
from .ode import EXITED, REACHED, dop853


def signed_permutation_data(A):
    """Per source axis (target axis, sign), or None if A is no signed permutation."""
    A = np.asarray(A, dtype=float)
    d = A.shape[0]
    out = []
    for a in range(d):
        hits = np.nonzero(np.abs(A[:, a]) > 1e-10)[0]
        if len(hits) != 1:
            return None
        t = int(hits[0])
        s = A[t, a]
        if abs(abs(s) - 1.0) > 1e-10:
            return None
        out.append((t, 1 if s > 0 else -1))
    if len({t for t, _ in out}) != d:
        return None
    return out


def rotation_angle_2d(A):
    """Angle of a plane rotation, or None if A is not a rotation."""
    A = np.asarray(A, dtype=float)
    if A.shape != (2, 2) or np.linalg.det(A) < 0:
        return None
    th = math.atan2(A[1, 0], A[0, 0])
    R = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    if np.abs(R - A).max() > 1e-10:
        return None
    return th


class CyclicAction:
    """Orthogonal matrix generating a finite cyclic group on R^d.

    >>> a = CyclicAction(np.diag([1.0, -1.0]), 2)
    >>> a.k
    2
    >>> bool(np.allclose(a.power(2), np.eye(2)))
    True
    """

    def __init__(self, matrix, k: int):
        A = np.asarray(matrix, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValidationError("action matrix must be square")
        if int(k) < 1:
            raise ValidationError(f"order k must be positive, got {k}")
        d = A.shape[0]
        if np.abs(A.T @ A - np.eye(d)).max() > 1e-10:
            raise ValidationError("action matrix is not orthogonal")
        if np.abs(np.linalg.matrix_power(A, int(k)) - np.eye(d)).max() > 1e-10:
            raise ValidationError(f"action matrix does not have order dividing k={k}")
        self.matrix = A
        self.k = int(k)

    @property
    def d(self) -> int:
        return self.matrix.shape[0]

    @property
    def is_trivial(self) -> bool:
        return self.k == 1 or np.abs(self.matrix - np.eye(self.d)).max() < 1e-12

    def power(self, j: int) -> np.ndarray:
        return np.linalg.matrix_power(self.matrix, j % self.k)

    def to_json(self) -> dict:
        return {"matrix": self.matrix.tolist(), "k": self.k}

    @classmethod
    def from_json(cls, doc) -> "CyclicAction":
        matrix, k = _json_fields(doc, "action", "matrix", "k")
        try:
            matrix = np.array(matrix, dtype=float)
        except (TypeError, ValueError):
            raise ValidationError(f"action matrix must hold numbers, got {matrix!r}") from None
        return cls(matrix, _json_int(k, "action order k"))


def _json_fields(doc, what, *keys):
    """The named fields of a JSON object, which must have them all."""
    if not isinstance(doc, dict):
        raise ValidationError(f"{what} must be a JSON object, got {doc!r}")
    missing = [key for key in keys if key not in doc]
    if missing:
        raise ValidationError(f"{what} lacks the field(s) {', '.join(missing)}")
    return [doc[key] for key in keys]


def _json_int(v, what) -> int:
    """An int or a whole float as an int; bools are not numbers here."""
    return _integer(v, what, ValidationError)


def _points(z, d):
    """z as an array of one point (d,) or of a batch (P, d); ShapeError otherwise."""
    z = np.asarray(z, dtype=float)
    if z.ndim not in (1, 2) or z.shape[-1] != d:
        raise ShapeError(f"points of the function have length {d}, "
                         f"got an array of shape {z.shape}")
    return z


# Batched linear algebra whose rows are bitwise equal to the one-point
# forms: a stacked matmul makes one BLAS call per row, as `A @ z` and
# np.linalg.norm do, where `Z @ A.T` or np.linalg.norm(Z, axis=1) round
# differently.

def _mv(A, Z):
    """A @ z for every row z of Z."""
    return np.matmul(A, Z[..., None])[..., 0]


def _json_term(t):
    """(coeff, exponents) of one JSON term; whole floats count as exponents."""
    coeff, exps = _json_fields(t, "term", "coeff", "exps")
    if isinstance(coeff, bool) or not isinstance(coeff, (int, float)):
        raise ValidationError(f"coefficient must be a number, got {coeff!r}")
    if not isinstance(exps, list):
        raise ValidationError(f"exponents must be a list of integers, got {exps!r}")
    return coeff, exps


class FunctionSpec:
    """Polynomial with a critical point at the origin, optionally symmetric.

    Terms are (coefficient, exponents) pairs; an exponent is an integral
    number or a whole float, and a bool or a fractional float is refused.
    jet is the package's one polynomial kernel (hamflow._Kernel), built once
    per function, so a FunctionSpec rounds exactly as a HamiltonianGerm of
    constant terms with the same terms does; value, grad and hess are its
    parts, as for CallableFunction.

    >>> f = FunctionSpec.make(2, [(1.0, (2, 0)), (1.0, (0, 2))])
    >>> round(f.value([1.0, 2.0]), 10)
    5.0
    >>> f.grad([0.0, 0.0]).tolist()
    [0.0, 0.0]
    """

    def __init__(self, d, terms, action: Optional[CyclicAction] = None):
        self.d = int(d)
        clean = []
        for coeff, exps in terms:
            exps = _exponents(exps, self.d, ValidationError)
            c = float(coeff)
            if not math.isfinite(c):
                raise ValidationError(f"coefficient {coeff!r} of term {exps} is not finite")
            clean.append((c, exps))
        self.terms = tuple(clean)
        for coeff, exps in self.terms:
            if coeff and sum(exps) == 1:
                raise ValidationError("origin is not a critical point: linear term present")
        self.action = action
        if action is not None:
            if action.d != self.d:
                raise ValidationError("action dimension does not match the function")
            rng = np.random.default_rng(0)
            for z in rng.uniform(-0.5, 0.5, size=(16, self.d)):
                if abs(self.value(action.matrix @ z) - self.value(z)) > tol("action_sample"):
                    raise ValidationError("function is not invariant under the action")

    @classmethod
    def make(cls, d, terms, action=None) -> "FunctionSpec":
        return cls(d, terms, action)

    @functools.cached_property
    def _kernel(self):
        return _polynomial_kernel(self.d, self.terms)

    def jet(self, z):
        return self._kernel.jet(_points(z, self.d))

    # the views live in the class body, not in a shared base, because
    # perfbench/tracer.py patches them by name on this class

    def value(self, z):
        return self.jet(z)[0]

    def grad(self, z) -> np.ndarray:
        return self.jet(z)[1]

    def hess(self, z) -> np.ndarray:
        return self.jet(z)[2]

    def to_json(self) -> dict:
        doc = {
            "d": self.d,
            "terms": [{"coeff": c, "exps": list(e)} for c, e in self.terms],
        }
        if self.action is not None:
            doc["action"] = self.action.to_json()
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "FunctionSpec":
        d, terms = _json_fields(doc, "function", "d", "terms")
        action = CyclicAction.from_json(doc["action"]) if doc.get("action") else None
        if not isinstance(terms, list):
            raise ValidationError(f"terms must be a list, got {terms!r}")
        return cls(_json_int(d, "dimension d"), [_json_term(t) for t in terms], action)


@dataclass
class CallableFunction:
    """Function protocol backed by one callable for the value and its derivatives.

    jet_fn takes a batch of points, a (P, d) array, and returns the jet of
    every row: values (P,), gradients (P, d) and Hessians (P, d, d).  jet
    takes one point (d,), which gives (float, (d,), (d, d)), or a batch (P,
    d); any other shape raises ShapeError.  value, grad and hess are the
    parts of jet.

    >>> f = CallableFunction(2, lambda Z: (np.sum(Z * Z, axis=1), 2.0 * Z,
    ...                                    np.broadcast_to(2.0 * np.eye(2), (len(Z), 2, 2))))
    >>> v, g, h = f.jet([1.0, 2.0])
    >>> v, g.tolist(), h.tolist()
    (5.0, [2.0, 4.0], [[2.0, 0.0], [0.0, 2.0]])
    >>> f.value([[1.0, 0.0], [0.0, 3.0]]).tolist()
    [1.0, 9.0]
    """

    d: int
    jet_fn: Callable
    action: Optional[CyclicAction] = None
    name: str = ""

    def jet(self, z):
        z = _points(z, self.d)
        v, g, h = (np.asarray(part, dtype=float) for part in self.jet_fn(z.reshape(-1, self.d)))
        return (float(v[0]), g[0], h[0]) if z.ndim == 1 else (v, g, h)

    # the views live in the class body, not in a shared base, because
    # perfbench/tracer.py patches them by name on this class

    def value(self, z):
        return self.jet(z)[0]

    def grad(self, z) -> np.ndarray:
        return self.jet(z)[1]

    def hess(self, z) -> np.ndarray:
        return self.jet(z)[2]


def _pullback(f, A, action=None) -> CallableFunction:
    """z -> f(A z) for a (n, m) matrix A, with its chain-rule derivatives.

    A is used in the layout given: a caller passing a transposed view gets
    the rounding of that view, and A.T is its transpose again.
    """
    A = np.asarray(A, dtype=float)

    def jet(Z):
        v, g, h = f.jet(_mv(A, Z))
        return v, _mv(A.T, g), np.matmul(np.matmul(A.T, h), A)

    return CallableFunction(A.shape[1], jet, action=action)


def discrete_action_function(da) -> CallableFunction:
    """Wrap a discrete action as a function with its exact value and derivatives.

    The value is dact.eval: each step generating function contributes the
    action identity S_i(x, Y) = x . (y - Y) + int (x . ydot + H_t) dt along
    its solved substep trajectory (sign convention i_{X_H} omega0 = dH).
    The jet of a batch is one dact.evaluate pass, one stacked graph solve
    over every slot of every row.
    """
    action = None
    if da.k > 1:
        action = CyclicAction(_dact.shift_matrix(da), da.k)
    return CallableFunction(da.dim, lambda Z: _dact.evaluate(da, Z), action=action,
                            name=f"discrete-action k={da.k} N={da.N}")


# radial cutoff: 0 on the inner half of the ball, 1 from 3/4 of the radius out
_B0_LO, _B0_HI = 0.5, 0.75
# slack absorbing float noise when a vertex value ties a marking threshold
_TIE = 1e-12


def _beta0(r: float, radius: float) -> float:
    u = (r / radius - _B0_LO) / (_B0_HI - _B0_LO)
    u = min(1.0, max(0.0, u))
    return u * u * (3.0 - 2.0 * u)


def _beta0_d1(r: float, radius: float) -> float:
    w = (_B0_HI - _B0_LO) * radius
    u = (r / radius - _B0_LO) / (_B0_HI - _B0_LO)
    if u <= 0.0 or u >= 1.0:
        return 0.0
    return 6.0 * u * (1.0 - u) / w


# Newton steps per seed, and the radius factor within which points are kept
_MAX_ITER = 80
_KEEP_FACTOR = 1.02


def critical_points(func, seeds, radius):
    """Critical points of func by damped Newton from all seeds in lockstep.

    config.lockstep_newton runs _MAX_ITER iterations, one func.jet per
    iteration whose gradient and Hessian are the residual's parts, retrying
    a batch that raises ResolutionError row by row, with minimum-norm lstsq
    steps (config.row_lstsq) capped at 0.25 * max(radius, 1).  A row also
    retires once it leaves the ball of radius 3 * radius;
    rows that fail or do not converge are dropped.  Converged points within
    _KEEP_FACTOR * radius are kept in seed order unless one within dedup
    came first.  When every row of a batch equals func at that point alone,
    the result is bitwise that of one seed at a time.  A radius that is not
    finite and positive raises ParameterError, a seed whose length is not
    func.d ShapeError.
    """
    _require_positive(radius)
    n = func.d
    for si, seed in enumerate(seeds):
        if np.size(seed) != n:
            raise ShapeError(f"seed {si}: points of the function have length {n}, "
                             f"got an array of shape {np.shape(seed)}")
    cap = 0.25 * max(radius, 1.0)

    def capped_lstsq(g, h):
        step = _row_lstsq(h, g)
        size = _row_norms(step)
        big = size > cap
        step[big] *= (cap / size[big])[:, None]
        return step

    x, ok, _, _ = lockstep_newton(
        lambda rows, Z: func.jet(Z)[1:], np.array(seeds, dtype=float).reshape(-1, n),
        capped_lstsq, tol("newton_grad"), _MAX_ITER, retry=(ResolutionError,),
        leaves=lambda Z: _row_norms(Z) > 3.0 * radius)
    dedup = tol("dedup")
    kept = x[ok]
    kept = kept[~(_row_norms(kept) > _KEEP_FACTOR * radius)]
    found = np.empty_like(kept)
    count = 0
    for z in kept:
        if np.all(_row_norms(z - found[:count]) > dedup):
            found[count] = z
            count += 1
    return list(found[:count])


def _grid_seeds(radius, per_axis, d):
    """The points of the per_axis^d grid over [-radius, radius]^d."""
    axis = np.linspace(-radius, radius, per_axis)
    return np.array(list(itertools.product(axis, repeat=d)), dtype=float).reshape(-1, d)


def _check_isolated(f, radius, seeds):
    z0 = _grid_seeds(radius, seeds, f.d)
    z0 = z0[~(_row_norms(z0) > radius + 1e-12)]
    z = np.array(critical_points(f, z0, radius)).reshape(-1, f.d)
    r = _row_norms(z)
    z = z[(r <= radius * (1 + 1e-9)) & (r > 1e-7)]
    if not len(z):
        return
    # a shallow tail of the origin germ is not a separate point; a real one
    # is fenced off from 0 by a gradient ridge at the midpoint
    ridge = _row_norms(f.grad(z / 2)) > 1e-8
    if ridge.any():
        near = np.round(z[ridge.argmax()], 6).tolist()
        raise IsolationError(
            f"critical point near {near} inside the working ball besides the origin")


def _well_depths(f, a, b, vertex_values):
    if a is None or b is None:
        sup = float(np.max(np.abs(vertex_values)))
        if sup == 0.0:
            raise ValidationError("function vanishes on the sample grid")
        if a is None:
            a = 0.05 * sup
        if b is None:
            b = 0.05 * sup
    if a <= 0 or b <= 0:
        raise ParameterError(f"well depths must be positive, got a={a}, b={b}")
    return float(a), float(b)


def _flow_leak_check(a, b, radius, z, g):
    # the descending flow of f - (a+b) beta0 must not carry exit-set points
    # back into the pair: its gradient has to keep a forward component along
    # g = grad f at the points z wherever the cutoff slopes
    r = _row_norms(z)
    slope = np.array([_beta0_d1(float(ri), radius) for ri in r])
    gF = g - (a + b) * slope[:, None] * (z / r[:, None])
    if np.any(_row_dots(gF, g) < -1e-9):
        raise ParameterError(
            "a, b too large: the exit set leaks back into the pair along the flow")


@dataclass
class CubicalPair:
    """Rasterized sublevel pair on a cubical grid over a symmetric box."""

    h: float
    lo: np.ndarray
    shape: tuple
    w_mask: np.ndarray
    wminus_mask: np.ndarray
    radius: float
    a: float
    b: float
    action: Optional[CyclicAction] = None
    kind: str = "cubical"
    # grid coordinates along each axis; f and its gradient at every vertex
    # in the ball, +inf and nan at the vertices outside it
    axis: Optional[np.ndarray] = None
    values: Optional[np.ndarray] = None
    grads: Optional[np.ndarray] = None


def _corner_extrema(V, d, reducer):
    # reduce vertex array V over the 2^d corners of every cell
    out = None
    for off in itertools.product((0, 1), repeat=d):
        sl = tuple(slice(o, V.shape[i] - 1 + o) for i, o in enumerate(off))
        out = V[sl].copy() if out is None else reducer(out, V[sl])
    return out


def _vertex_incidence(cells, d):
    # vertices touching at least one marked cell
    out = np.zeros(tuple(s + 1 for s in cells.shape), dtype=bool)
    for off in itertools.product((0, 1), repeat=d):
        sl = tuple(slice(o, cells.shape[i] + o) for i, o in enumerate(off))
        out[sl] |= cells
    return out


def _vertex_jets(f, axis, pts, in_ball, coarse):
    # f and its gradient at every vertex in the ball from one jet, and +inf
    # and nan outside it, where neither is read; a grid that bisects the
    # coarse pair's grid takes both at its even vertices from the coarse pair
    V = np.full(in_ball.shape, np.inf)
    G = np.full(in_ball.shape + (f.d,), np.nan)
    fresh = in_ball.copy()
    if coarse is not None:
        if not np.array_equal(axis[::2], coarse.axis):
            raise ValidationError("the grid does not bisect the coarse grid whose values it reuses")
        even = (slice(None, None, 2),) * in_ball.ndim
        V[even], G[even] = coarse.values, coarse.grads
        fresh[even] = False
    if fresh.any():
        V[fresh], G[fresh], _ = f.jet(pts[fresh.ravel()])
    return V, G


def _require_positive(radius, h=None, **named):
    # ParameterError unless the radius, the grid step h when given, and each
    # further named value are finite and positive
    for name, v in (("radius", radius), ("grid step h", h), *named.items()):
        if v is not None and not (math.isfinite(v) and v > 0):
            raise ParameterError(f"{name} must be finite and positive, got {v!r}")


def gromoll_meyer_pair(f, radius, a=None, b=None, h=None,
                       isolation_seeds=5, _skip_checks=False, _coarse=None) -> CubicalPair:
    """Sublevel pair (f <= a, deformed exit collar) rasterized on a grid."""
    _require_positive(radius, h)
    d = f.d
    if d < 1 or d > 3:
        raise ConfigurationError(f"cubical rasterization supports dimensions 1 to 3, got {d}")
    if not _skip_checks:
        _check_isolated(f, radius, isolation_seeds)
    if h is None:
        h = radius / 8
    m = max(2, 2 * round(radius / h))
    h = 2 * radius / m
    axis = np.linspace(-radius, radius, m + 1)
    mesh = np.meshgrid(*([axis] * d), indexing="ij")
    pts = np.stack([g.ravel() for g in mesh], axis=-1)
    R = np.sqrt(sum(g * g for g in mesh))
    in_ball_v = R <= radius + 1e-9
    V, G = _vertex_jets(f, axis, pts, in_ball_v, _coarse)
    a, b = _well_depths(f, a, b, V[in_ball_v])
    beta = np.vectorize(lambda r: _beta0(r, radius))(R)
    F = V - (a + b) * beta
    cell_in = _corner_extrema(in_ball_v.astype(float), d, np.minimum) > 0.5
    # the tie slack keeps exact-threshold vertices on one side of the cut
    w = cell_in & (_corner_extrema(V, d, np.maximum) <= a + _TIE)
    wm = w & (_corner_extrema(F, d, np.maximum) <= -b + _TIE)
    if not _skip_checks:
        touch = _corner_extrema(R, d, np.maximum) >= 0.85 * radius
        if (w & touch & ~wm).any():
            raise ParameterError("a, b too large: the pair touches the boundary of the ball")
        if wm.any() and (w & ~wm).any():
            cand = (_vertex_incidence(wm, d) & _vertex_incidence(w & ~wm, d)
                    & (R > _B0_LO * radius) & (R < _B0_HI * radius))
            _flow_leak_check(a, b, radius, pts.reshape([m + 1] * d + [d])[cand], G[cand])
    pair = CubicalPair(h=h, lo=np.full(d, -radius), shape=(m,) * d,
                       w_mask=w, wminus_mask=wm, radius=radius, a=a, b=b,
                       axis=axis, values=V, grads=G)
    if f.action is not None and signed_permutation_data(f.action.matrix) is not None:
        pair.action = f.action
        _check_mask_equivariance(pair)
    return pair


def _cell_image(cell, sp, m):
    out = [None] * len(cell)
    for axis, i in enumerate(cell):
        t, s = sp[axis]
        out[t] = i if s > 0 else m - 1 - i
    return tuple(out)


def _check_mask_equivariance(pair):
    sp = signed_permutation_data(pair.action.matrix)
    m = pair.shape[0]
    for mask in (pair.w_mask, pair.wminus_mask):
        for cell in zip(*np.nonzero(mask)):
            if not mask[_cell_image(tuple(int(i) for i in cell), sp, m)]:
                raise ValidationError("masks are not invariant under the cell action")


def _cube_faces(cell):
    # all elementary cubes in the closed cell; cube = ((start, extent), ...)
    choices = [((i, 1), (i, 0), (i + 1, 0)) for i in cell]
    return itertools.product(*choices)


def _cube_boundary(cube):
    nd = [axis for axis, (_, e) in enumerate(cube) if e]
    out = []
    for j, axis in enumerate(nd):
        sign = -1 if j % 2 else 1
        i, _ = cube[axis]
        upper = list(cube)
        upper[axis] = (i + 1, 0)
        lower = list(cube)
        lower[axis] = (i, 0)
        out.append((tuple(upper), sign))
        out.append((tuple(lower), -sign))
    return out


def _cube_degree(cube):
    return sum(e for _, e in cube)


def _chain_data(pair, faces, degree, boundary):
    """Relative chains of a pair: labels and index per degree, sparse boundary columns.

    The chains are the cells in the closure of w_mask that are not in the
    closure of wminus_mask; faces(cell) lists the closed cell of a marked
    mask entry, and faces outside the relative basis drop out of a boundary.
    """
    def closure(mask):
        cells = set()
        for cell in zip(*np.nonzero(mask)):
            cells.update(faces(tuple(int(i) for i in cell)))
        return cells

    keep = closure(pair.w_mask) - closure(pair.wminus_mask)
    by_deg = {}
    for cell in keep:
        by_deg.setdefault(degree(cell), []).append(cell)
    labels = {q: sorted(cs) for q, cs in by_deg.items()}
    index = {c: (q, i) for q, cs in labels.items() for i, c in enumerate(cs)}
    cols = {}
    for q, cs in labels.items():
        cols[q] = []
        for cell in cs:
            col = {}
            for face, sign in boundary(cell):
                hit = index.get(face)
                if hit is not None:
                    col[hit[1]] = col.get(hit[1], 0) + sign
            cols[q].append({r: v for r, v in col.items() if v})
    return labels, index, cols


def _cubical_chain_data(pair):
    return _chain_data(pair, _cube_faces, _cube_degree, _cube_boundary)


def _cubical_action_map(pair):
    sp = signed_permutation_data(pair.action.matrix)
    m = pair.shape[0]

    def map_cube(cube):
        out = [None] * len(cube)
        tgt_axes = []
        sign = 1
        for axis, (i, e) in enumerate(cube):
            t, s = sp[axis]
            out[t] = (i, e) if s > 0 else (m - i - e, e)
            if e:
                tgt_axes.append(t)
                if s < 0:
                    sign = -sign
        inv = sum(1 for x in range(len(tgt_axes)) for y in range(x + 1, len(tgt_axes))
                  if tgt_axes[x] > tgt_axes[y])
        if inv % 2:
            sign = -sign
        return tuple(out), sign

    return map_cube


# -- polar pairs ---------------------------------------------------------

@dataclass
class PolarPair:
    """Sublevel pair on a disk split into rings and sectors."""

    radius: float
    rings: int
    sectors: int
    shift: int
    k: int
    w_mask: np.ndarray
    wminus_mask: np.ndarray
    a: float
    b: float
    action: Optional[CyclicAction] = None
    kind: str = "polar"


def gromoll_meyer_pair_polar(f, radius, a=None, b=None, rings=8, sectors=None,
                             isolation_seeds=5, _skip_checks=False) -> PolarPair:
    """Polar variant of the sublevel pair; carries plane rotations exactly."""
    _require_positive(radius)
    if f.d != 2:
        raise ConfigurationError("polar rasterization is two-dimensional")
    k = 1
    th = 0.0
    if f.action is not None and not f.action.is_trivial:
        th = rotation_angle_2d(f.action.matrix)
        if th is None:
            raise ConfigurationError("polar rasterization requires a plane rotation action")
        k = f.action.k
    if sectors is None:
        sectors = 4 * max(k, 2)
    shift = 0
    if k > 1:
        raw = (th % (2 * math.pi)) * sectors / (2 * math.pi)
        shift = int(round(raw)) % sectors
        if abs(raw - round(raw)) > 1e-6:
            raise ConfigurationError("sector count does not resolve the rotation angle")
    if not _skip_checks:
        _check_isolated(f, radius, isolation_seeds)
    verts = {}
    for i in range(1, rings + 1):
        r = radius * i / rings
        for j in range(sectors):
            t = 2 * math.pi * j / sectors
            verts[(i, j)] = np.array([r * math.cos(t), r * math.sin(t)])
    vals = {key: f.value(p) for key, p in verts.items()}
    vals_c = f.value(np.zeros(2))
    a, b = _well_depths(f, a, b, np.array(list(vals.values()) + [vals_c]))

    def fval(key):
        return vals_c if key == "c" else vals[key]

    def collar_val(key):
        if key == "c":
            return vals_c
        return vals[key] - (a + b) * _beta0(float(np.linalg.norm(verts[key])), radius)

    w = np.zeros((rings, sectors), dtype=bool)
    wm = np.zeros((rings, sectors), dtype=bool)
    for i in range(rings):
        for j in range(sectors):
            jn = (j + 1) % sectors
            corners = (["c", (1, j), (1, jn)] if i == 0
                       else [(i, j), (i, jn), (i + 1, j), (i + 1, jn)])
            w[i, j] = max(fval(c) for c in corners) <= a + _TIE
            wm[i, j] = w[i, j] and max(collar_val(c) for c in corners) <= -b + _TIE
    if not _skip_checks:
        if (w[-1] & ~wm[-1]).any():
            raise ParameterError("a, b too large: the pair touches the boundary of the ball")
        diffc = w & ~wm
        if wm.any() and diffc.any():
            leak_pts = []
            for (i, j), z in verts.items():
                r = float(np.linalg.norm(z))
                if not (_B0_LO * radius < r < _B0_HI * radius):
                    continue
                bands = [bi for bi in (i - 1, i) if 0 <= bi < rings]
                cells = [(bi, sj % sectors) for bi in bands for sj in (j - 1, j)]
                if any(wm[c] for c in cells) and any(diffc[c] for c in cells):
                    leak_pts.append(z)
            if leak_pts:
                z = np.array(leak_pts)
                _flow_leak_check(a, b, radius, z, f.grad(z))
    pair = PolarPair(radius=radius, rings=rings, sectors=sectors, shift=shift,
                     k=k, w_mask=w, wminus_mask=wm, a=a, b=b,
                     action=f.action if k > 1 else None)
    if pair.action is not None:
        for mask in (w, wm):
            if not np.array_equal(mask, np.roll(mask, shift, axis=1)):
                raise ValidationError("masks are not invariant under the sector shift")
    return pair


_POLAR_DEGREE = {"f": 2, "ar": 1, "rd": 1, "v": 0, "c": 0}


def _polar_chain_data(pair):
    q = pair.sectors

    def faces(cell):
        i, j = cell
        jn = (j + 1) % q
        if i == 0:
            return [("f", 0, j), ("ar", 1, j), ("rd", 1, j), ("rd", 1, jn),
                    ("v", 1, j), ("v", 1, jn), ("c", 0, 0)]
        return [("f", i, j), ("ar", i, j), ("ar", i + 1, j),
                ("rd", i + 1, j), ("rd", i + 1, jn),
                ("v", i, j), ("v", i, jn), ("v", i + 1, j), ("v", i + 1, jn)]

    def boundary(cell):
        kind, i, j = cell
        jn = (j + 1) % q
        if kind == "f" and i == 0:
            return [(("rd", 1, j), 1), (("ar", 1, j), 1), (("rd", 1, jn), -1)]
        if kind == "f":
            return [(("rd", i + 1, j), 1), (("ar", i + 1, j), 1),
                    (("rd", i + 1, jn), -1), (("ar", i, j), -1)]
        if kind == "ar":
            return [(("v", i, jn), 1), (("v", i, j), -1)]
        if kind == "rd":
            low = ("c", 0, 0) if i == 1 else ("v", i - 1, j)
            return [(("v", i, j), 1), (low, -1)]
        return []

    return _chain_data(pair, faces, lambda cell: _POLAR_DEGREE[cell[0]], boundary)


def _polar_action_map(pair):
    s = pair.shift
    q = pair.sectors

    def map_cell(cell):
        kind, i, j = cell
        if kind == "c":
            return cell, 1
        return (kind, i, (j + s) % q), 1

    return map_cell


def _cell_action(pair, labels, index, action_sign):
    # per degree, the (position, sign) image of every relative cell
    if pair.kind == "polar":
        map_cell = _polar_action_map(pair)
    else:
        map_cell = _cubical_action_map(pair)
    act = {}
    for q, cs in labels.items():
        entries = []
        for c in cs:
            img, s = map_cell(c)
            hit = index.get(img)
            if hit is None or hit[0] != q:
                raise ValidationError("cell action leaves the relative basis")
            entries.append((hit[1], s * action_sign))
        act[q] = entries
    return act


def relative_homology(pair, invariant: bool = False, action_sign: int = 1) -> dict:
    """Relative homology of the pair over Q; invariant mode averages the cells."""
    if pair.kind == "polar":
        labels, index, cols = _polar_chain_data(pair)
    else:
        labels, index, cols = _cubical_chain_data(pair)
    if not invariant:
        return betti_from_columns(cols)
    if pair.action is None:
        raise ConfigurationError("invariant homology requires a cell action on the pair")
    act = _cell_action(pair, labels, index, action_sign)
    return invariant_betti_from_columns(pair.action.k, cols, act)


def sublevel_homology(f, radius, a=None, b=None, h=None, invariant=False,
                      action_sign=1, isolation_seeds=5) -> dict:
    """Pair homology with a built-in refinement check at h and h/2."""
    _require_positive(radius, h)
    polar = False
    if f.action is not None and not f.action.is_trivial:
        if signed_permutation_data(f.action.matrix) is None:
            if invariant and f.d == 2 and rotation_angle_2d(f.action.matrix) is not None:
                polar = True
            elif invariant:
                raise ConfigurationError(
                    "the action is not compatible with a cubical or polar grid")
    if polar:
        coarse = gromoll_meyer_pair_polar(f, radius, a, b,
                                          isolation_seeds=isolation_seeds)
        fine = gromoll_meyer_pair_polar(f, radius, coarse.a, coarse.b, rings=16,
                                        sectors=2 * coarse.sectors, _skip_checks=True)
    else:
        h0 = h if h is not None else radius / 8
        coarse = gromoll_meyer_pair(f, radius, a, b, h=h0,
                                    isolation_seeds=isolation_seeds)
        # halving the coarse pair's effective step bisects its grid exactly
        fine = gromoll_meyer_pair(f, radius, coarse.a, coarse.b, h=coarse.h / 2,
                                  _skip_checks=True, _coarse=coarse)
    got = relative_homology(coarse, invariant, action_sign)
    ref = relative_homology(fine, invariant, action_sign)
    if got != ref:
        raise ResolutionError(f"betti numbers changed under grid refinement: {got} vs {ref}")
    return got


# -- two-dimensional Morse complexes -------------------------------------

_T_BUDGET = 500.0  # flow time one _shoot may spend


def _shoot(f, z0, sign, points, indices, source, radius):
    """Follow zdot = sign * grad f from z0; return (i, z) where it stops.

    i indexes points, or is None when the flow leaves the ball.  Once 10
    r_cap from source, the flow rests at the nearest point within r_cap =
    1e-3 radius that is its sink (index 0 down, 2 up) or has |grad f| < 1e-9.
    """
    r_cap = 1e-3 * radius
    chunk = 2.0
    sink = 0 if sign < 0 else 2

    def rhs(t, z):
        return sign * f.grad(z)

    def crossed(z):
        return np.linalg.norm(z) - radius

    z = np.array(z0, dtype=float)
    armed = False
    for _ in range(int(_T_BUDGET / chunk)):
        run = dop853(rhs, 0.0, chunk, z, rtol=1e-10, atol=1e-12, exit=crossed)
        if run.status == EXITED:
            return None, run.y
        if run.status != REACHED:
            raise TrustRegionError("flow integration failed on a trajectory")
        z = run.y
        if np.linalg.norm(z) > radius:
            return None, z
        armed = armed or np.linalg.norm(z - source) > 10 * r_cap
        dists = [np.linalg.norm(z - p) for p in points]
        i = int(np.argmin(dists))
        if armed and dists[i] < r_cap and (
                indices[i] == sink or np.linalg.norm(f.grad(z)) < 1e-9):
            return i, z
    raise BoundaryError("a trajectory was not classified within the time budget")


def morse_complex_2d(f, radius, flip=None) -> GradedChainComplex:
    """Chain complex of a plane Morse function from shot trajectories.

    Newton runs from a fixed 11 x 11 seed grid.  _shoot follows each saddle's
    separatrices, each within _T_BUDGET, else BoundaryError; one that rests
    at a saddle raises MorseSmaleError.  flip maps saddle numbers (0, 1, ...
    in label order) to the sign +-1 of their arrows, else ParameterError.
    """
    _require_positive(radius)
    if f.d != 2:
        raise ConfigurationError("trajectory complexes are two-dimensional")
    crits = []
    for z in critical_points(f, _grid_seeds(radius, 11, 2), radius):
        if np.linalg.norm(z) > radius * (1 + 1e-9):
            continue
        H = f.hess(z)
        evals, evecs = np.linalg.eigh(H)
        if np.min(np.abs(evals)) <= tol("hyperbolic_eig"):
            raise DegeneracyError(
                f"critical point near {np.round(z, 6).tolist()} is not hyperbolic")
        crits.append({"z": z, "index": int((evals < 0).sum()), "evecs": evecs})
    crits.sort(key=lambda c: (c["index"], round(c["z"][0], 9), round(c["z"][1], 9)))
    for i, c in enumerate(crits):
        c["label"] = f"p{i}"
    saddles = [c for c in crits if c["index"] == 1]
    flip = flip or {}
    for j, s in flip.items():
        if j not in range(len(saddles)) or s not in (1, -1):
            raise ParameterError(f"flip must map saddle numbers below {len(saddles)} to +-1")
    for j, c in enumerate(saddles):
        down, c["up"] = c["evecs"].T  # eigh puts the negative eigenvalue first
        lead = int(np.argmax(np.abs(down) > 1e-8))
        lead_sign = -1 if down[lead] < 0 else 1
        c["arrow"] = down * (lead_sign * flip.get(j, 1))
    points = [c["z"] for c in crits]
    indices = [c["index"] for c in crits]

    def land(z0, c, sign):
        i, z = _shoot(f, z0, sign, points, indices, c["z"], radius)
        if i is not None and indices[i] == 1:
            raise MorseSmaleError(
                "saddle-to-saddle connection detected; the flow is not Morse-Smale")
        return i, z

    delta = 1e-4 * radius
    diff = {}
    for c in saddles:
        out = {}
        for s_br in (1, -1):
            z0 = c["z"] + delta * s_br * c["arrow"]
            i, _ = land(z0, c, -1.0)
            if i is not None:
                lab = crits[i]["label"]
                out[lab] = out.get(lab, 0) + s_br
        row = {l: v for l, v in out.items() if v}
        if row:
            diff[c["label"]] = row
    for c in saddles:
        for s_br in (1, -1):
            z0 = c["z"] + delta * s_br * c["up"]
            i, z_end = land(z0, c, 1.0)
            if i is None:
                continue
            top = crits[i]
            dvec = z_end - top["z"]
            dvec = dvec / np.linalg.norm(dvec)
            det = dvec[0] * c["arrow"][1] - dvec[1] * c["arrow"][0]
            if abs(det) < 1e-6:
                raise ValidationError("tangential approach to a maximum; cannot orient the count")
            tgt = diff.setdefault(top["label"], {})
            acc = tgt.get(c["label"], 0) + (1 if det > 0 else -1)
            if acc:
                tgt[c["label"]] = acc
            else:
                tgt.pop(c["label"], None)
    diff = {src: row for src, row in diff.items() if row}
    generators = {}
    for c in crits:
        generators.setdefault(c["index"], []).append(c["label"])
    action = None
    if f.action is not None and not f.action.is_trivial:
        A = f.action.matrix
        action = {}
        for c in crits:
            img = A @ c["z"]
            dists = [np.linalg.norm(img - o["z"]) for o in crits]
            i = int(np.argmin(dists))
            if dists[i] > 1e-6:
                raise ValidationError("the action does not permute the critical points")
            o = crits[i]
            if c["index"] == 0:
                s = 1
            elif c["index"] == 2:
                s = 1 if np.linalg.det(A) > 0 else -1
            else:
                dot = float(np.dot(A @ c["arrow"], o["arrow"]))
                if abs(abs(dot) - 1.0) > 1e-6:
                    raise ValidationError("pushed arrow does not align with the target arrow")
                s = 1 if dot > 0 else -1
            action[c["label"]] = {o["label"]: s}
    return GradedChainComplex(k=f.action.k if action else 1,
                              generators=generators, differential=diff, action=action)


# -- equivariant splitting ------------------------------------------------

# the seeded sample cloud on which equivariant_split checks its hypotheses
_SPLIT_SAMPLES = 25
_SPLIT_SEED = 0


@dataclass
class SplitResult:
    g: CallableFunction
    signature: tuple
    orientation_preserved: bool
    phi: Callable


def equivariant_split(f, n1: int, radius: float = 0.5) -> SplitResult:
    """Reduce f to g(z1) = f(z1, phi(z1)) on its first n1 coordinates.

    The shifting theorem gives C_*(f, 0) = C_{*-q}(g, 0), (p, q) the normal
    signature at 0 (Chang 1993, ch. I).  Its hypotheses, checked on seeded
    z1 within 0.6 * radius: the fiber gradient on the graph of phi is below
    newton_grad; the fiber Hessian there keeps the signature (p, q), each
    |eigenvalue| above kernel_eig, else TrustRegionError; phi(A1 z1) = A2
    phi(z1) within split_equivariance.
    The orientation of A2 on E- is read at 0.  phi solves a batch (P, n1)
    through config.lockstep_newton, one f.jet per iteration whose fiber
    blocks are the residual's parts, with plain solves, each row bitwise its
    one-point Newton when f's rows are; a row not converged in 50
    iterations raises TrustRegionError.  The jet of g on a batch is one phi
    solve: each row reads the f.jet of the iteration at which it converged.
    A radius that is not finite and positive raises ParameterError.
    """
    _require_positive(radius)
    d = f.d
    n2 = d - n1
    if n1 < 1 or n2 < 1:
        raise ConfigurationError(f"need 1 <= n1 < d, got n1={n1}, d={d}")
    D = f.hess(np.zeros(d))
    if np.abs(D[:n1, n1:]).max() > tol("offdiag"):
        raise ValidationError(
            "Hessian does not block-split at 0: off-diagonal norm "
            f"{np.abs(D[:n1, n1:]).max():.2e}")
    evals, evecs = np.linalg.eigh(D[n1:, n1:])
    if np.min(np.abs(evals)) <= tol("kernel_eig"):
        raise DegeneracyError("normal block of the Hessian at 0 is degenerate")
    p = int((evals > 0).sum())
    q = int((evals < 0).sum())
    has_action = f.action is not None and not f.action.is_trivial
    if has_action:
        A = f.action.matrix
        if np.abs(A[:n1, n1:]).max() > 1e-10:
            raise ValidationError("action does not preserve the splitting blocks")
        A1, A2 = A[:n1, :n1], A[n1:, n1:]

    def fiber_solve(Z1):
        # phi(Z1), and the jet of f on the graph from the Newton iteration at
        # which each row converged: a converged row stays where it was read
        def fiber(rows, W):
            v, G, H = f.jet(np.concatenate([Z1[rows], W], axis=1))
            return G[:, n1:], H[:, n1:, n1:], v, G, H

        W, converged, _, kept = lockstep_newton(
            fiber, np.zeros((len(Z1), n2)),
            lambda G2, H22, *jet: np.linalg.solve(H22, G2[:, :, None])[:, :, 0],
            tol("newton_grad"), 50)
        if not converged.all():
            raise TrustRegionError("implicit solve for the fiber critical point did not converge")
        # only an empty batch keeps nothing
        return W, (kept[2:] if kept else f.jet(np.concatenate([Z1, W], axis=1)))

    def phi_of(z1):
        z1 = _points(np.atleast_1d(z1), n1)
        W = fiber_solve(z1.reshape(-1, n1))[0]
        return W if z1.ndim > 1 else W[0]

    def g_jet(Z1):
        v, G, H = fiber_solve(Z1)[1]
        return (v, G[:, :n1],
                H[:, :n1, :n1] - H[:, :n1, n1:] @ np.linalg.solve(H[:, n1:, n1:], H[:, n1:, :n1]))

    rng = np.random.default_rng(_SPLIT_SEED)
    Z1 = rng.uniform(-0.6 * radius, 0.6 * radius, size=(_SPLIT_SAMPLES, d))[:, :n1]
    if has_action:
        Z1 = np.concatenate([Z1, _mv(A1, Z1)])
    W, (_, G, H) = fiber_solve(Z1)
    residual = _row_norms(G[:, n1:]).max()
    if not residual < tol("newton_grad"):
        raise ValidationError(f"fiber gradient {residual:.2e} on the graph of phi "
                              "exceeds newton_grad")
    fiber = np.linalg.eigvalsh(H[:, n1:, n1:])
    if np.abs(fiber).min() <= tol("kernel_eig") or np.any((fiber < 0).sum(axis=1) != q):
        raise TrustRegionError(f"the fiber Hessian leaves the signature ({p}, {q}) of 0 "
                               "inside the sample cloud; shrink the radius")
    orientation = True
    g_action = None
    if has_action:
        drift = np.abs(W[_SPLIT_SAMPLES:] - _mv(A2, W[:_SPLIT_SAMPLES])).max()
        if drift > tol("split_equivariance"):
            raise ValidationError("phi does not commute with the action")
        # an empty E- has determinant 1
        Vm = evecs[:, evals < 0]
        Rm = Vm.T @ A2 @ Vm
        if np.abs(A2 @ Vm - Vm @ Rm).max(initial=0.0) > 1e-8:
            raise ValidationError("action does not preserve the negative eigenspace")
        orientation = bool(np.linalg.det(Rm) > 0)
        g_action = CyclicAction(A1, f.action.k)
    return SplitResult(g=CallableFunction(n1, g_jet, action=g_action, name="reduced"),
                       signature=(p, q), orientation_preserved=orientation, phi=phi_of)


# -- orchestration --------------------------------------------------------

@dataclass
class LocalHomology:
    plain: dict
    invariant: dict
    trace: dict


def local_homology(f, radius: float = 0.5, h=None) -> LocalHomology:
    """Plain and invariant local homology of the isolated critical point at 0.

    The grid step h is used only when the Hessian at 0 vanishes; a split f
    is rasterized within 0.4 * radius at the default step.
    """
    _require_positive(radius, h)
    d = f.d
    D = f.hess(np.zeros(d))
    evals, evecs = np.linalg.eigh(D)
    kmask = np.abs(evals) <= tol("kernel_eig")
    K = int(kmask.sum())
    if K > 3:
        raise ConfigurationError(f"kernel dimension {K} exceeds the supported maximum 3")
    has_action = f.action is not None and not f.action.is_trivial
    if K == 0:
        q = int((evals < 0).sum())
        orientation = True
        if has_action and q > 0:
            Vm = evecs[:, evals < 0]
            orientation = bool(np.linalg.det(Vm.T @ f.action.matrix @ Vm) > 0)
        return LocalHomology(
            plain={q: 1},
            invariant={q: 1} if orientation else {},
            trace={"kernel_dim": 0, "q": q, "orientation_preserved": orientation,
                   "reduced_dim": 0})
    if K == d:
        g = f
        q = 0
        orientation = True
        r_red, h_red = radius, h
    else:
        order = np.concatenate([np.nonzero(kmask)[0], np.nonzero(~kmask)[0]])
        Q = evecs[:, order]
        g_action = None
        if has_action:
            # the action commutes with the Hessian, so it preserves the kernel
            Arot = Q.T @ f.action.matrix @ Q
            if np.abs(Arot[:K, K:]).max() > 1e-8:
                raise ValidationError("action does not preserve the kernel splitting")
            g_action = CyclicAction(Arot, f.action.k)
        split = equivariant_split(_pullback(f, Q, action=g_action), K, radius=radius)
        g = split.g
        q = split.signature[1]
        orientation = split.orientation_preserved
        r_red, h_red = 0.4 * radius, None
    plain_red = sublevel_homology(g, r_red, h=h_red)
    if not has_action:
        inv_red = dict(plain_red)
    else:
        sign = 1 if orientation else -1
        inv_red = sublevel_homology(g, r_red, h=h_red, invariant=True, action_sign=sign)
    return LocalHomology(
        plain={deg + q: r for deg, r in plain_red.items()},
        invariant={deg + q: r for deg, r in inv_red.items()},
        trace={"kernel_dim": K, "q": q, "orientation_preserved": orientation,
               "reduced_dim": K})
