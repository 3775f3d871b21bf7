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
from .config import (_integer, lockstep_newton, row_dots as _row_dots,
                     row_lstsq as _row_lstsq, row_norms as _row_norms, tol)
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
from .hamflow import _exponents, _polynomial_kernel
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
        k = _integer(k, "order k")
        if k < 1:
            raise ValidationError(f"order k must be positive, got {k}")
        d = A.shape[0]
        if np.abs(A.T @ A - np.eye(d)).max() > 1e-10:
            raise ValidationError("action matrix is not orthogonal")
        if np.abs(np.linalg.matrix_power(A, k) - np.eye(d)).max() > 1e-10:
            raise ValidationError(f"action matrix does not have order dividing k={k}")
        self.matrix = A
        self.k = k

    @property
    def d(self) -> int:
        return self.matrix.shape[0]

    @property
    def is_trivial(self) -> bool:
        return self.k == 1 or np.abs(self.matrix - np.eye(self.d)).max() < 1e-12

    def power(self, j: int) -> np.ndarray:
        return np.linalg.matrix_power(self.matrix, j % self.k)

    def residual(self, values, Z) -> float:
        """max |values(A z) - values(z)| over the rows z of Z, 0.0 for none:
        the sampled invariance of a function of batches under the action."""
        Z = np.asarray(Z, dtype=float)
        return float(np.max(np.abs(values(_mv(self.matrix, Z)) - values(Z)), initial=0.0))

    def to_json(self) -> dict:
        return {"matrix": self.matrix.tolist(), "k": self.k}

    @classmethod
    def from_json(cls, doc) -> "CyclicAction":
        matrix, k = _json_fields(doc, "action", "matrix", "k")
        try:
            matrix = np.array(matrix, dtype=float)
        except (TypeError, ValueError):
            raise ValidationError(f"action matrix must hold numbers, got {matrix!r}") from None
        return cls(matrix, k)


def _json_fields(doc, what, *keys):
    """The named fields of a JSON object, which must have them all."""
    if not isinstance(doc, dict):
        raise ValidationError(f"{what} must be a JSON object, got {doc!r}")
    missing = [key for key in keys if key not in doc]
    if missing:
        raise ValidationError(f"{what} lacks the field(s) {', '.join(missing)}")
    return [doc[key] for key in keys]


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
        self.d = _integer(d, "dimension d")
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
            Z = np.random.default_rng(0).uniform(-0.5, 0.5, size=(16, self.d))
            if action.residual(self.value, Z) > tol("action_sample"):
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
        return cls(d, [_json_term(t) for t in terms], action)


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


def _orbit(Z, A, count):
    """(P * count, d): each row z of Z followed by its images A z, A^2 z, ...,
    A^(count - 1) z, each image A applied to the one before it.

    A batch that raises in a pointwise evaluation of the stack raises the
    error of its first failing row, as a point-by-point loop would.
    """
    images = [Z]
    for _ in range(count - 1):
        images.append(_mv(A, images[-1]))
    return np.stack(images, axis=1).reshape(-1, Z.shape[-1])


def _orbit_average(term, A, count):
    """The mean of term(A^j z) over j = 0, ..., count - 1: the package's one
    group average of a jet.

    The jet of a batch asks term for one jet of the stack _orbit(Z, A,
    count), then pulls image j back by A^T one factor at a time, so each part
    is bitwise j nested _pullback(., A) of term, and sums the parts in the
    order of j.  Every row of term must not depend on its batch mates (the
    bump sum's and the regularized distance's rows do not).
    """
    A = np.asarray(A, dtype=float)

    def jet(Z):
        v, g, h = (part.reshape((len(Z), count) + part.shape[1:])
                   for part in term.jet(_orbit(Z, A, count)))
        parts = []
        for j in range(count):
            gj, hj = g[:, j], h[:, j]
            for _ in range(j):
                gj, hj = _mv(A.T, gj), np.matmul(np.matmul(A.T, hj), A)
            parts.append((v[:, j], gj, hj))
        return tuple(sum(part) / count for part in zip(*parts))

    return CallableFunction(term.d, jet)


def discrete_action_function(da) -> CallableFunction:
    """Wrap a discrete action as a function with its exact value and derivatives.

    The value is the first output of dact.evaluate: each step generating
    function contributes the action identity S_i(x, Y) = x . (y - Y) +
    int (x . ydot + H_t) dt along its solved substep trajectory (sign
    convention i_{X_H} omega0 = dH).
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


def _beta0(r, radius):
    # elementwise, each entry bitwise the scalar u^2 (3 - 2u) at its radius
    u = np.clip((r / radius - _B0_LO) / (_B0_HI - _B0_LO), 0.0, 1.0)
    return u * u * (3.0 - 2.0 * u)


def _beta0_d1(r, radius):
    # the radial slope of _beta0, 0 off the open ramp
    u = (r / radius - _B0_LO) / (_B0_HI - _B0_LO)
    w = (_B0_HI - _B0_LO) * radius
    return np.where((u > 0.0) & (u < 1.0), 6.0 * u * (1.0 - u) / w, 0.0)


# Newton steps per seed, the radius factor within which points are kept,
# and the seeds per axis of the sweep that checks that 0 is isolated
_MAX_ITER = 80
_KEEP_FACTOR = 1.02
_ISOLATION_SEEDS = 5


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


def _check_isolated(f, radius):
    z0 = _grid_seeds(radius, _ISOLATION_SEEDS, f.d)
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
    gF = g - (a + b) * _beta0_d1(r, radius)[:, None] * (z / r[:, None])
    if np.any(_row_dots(gF, g) < -1e-9):
        raise ParameterError(
            "a, b too large: the exit set leaks back into the pair along the flow")


def _require_positive(radius, h=None, **named):
    # ParameterError unless the radius, the grid step h when given, and each
    # further named value are finite and positive
    for name, v in (("radius", radius), ("grid step h", h), *named.items()):
        if v is not None and not (math.isfinite(v) and v > 0):
            raise ParameterError(f"{name} must be finite and positive, got {v!r}")


# -- grids ----------------------------------------------------------------

@dataclass
class Grid:
    """Cells that rasterize a ball, and their chain algebra.

    points (V, d) are the vertices and radii (V,) their norms; corners
    (C, K) holds the vertex index of each corner of each top cell, in the C
    order of shape, a cell with fewer corners repeating one.  The pair may
    reach the rim cells only inside its exit set.  faces(cell) lists the
    closed top cell of index tuple cell; degree and boundary take a face.
    With a cell action, act maps a face to (image, orientation sign) and
    image (C,) holds the index of each top cell's image.  bisect() builds
    the grid that halves every cell, whose even holds the index of each
    vertex of this grid among its own.
    """

    shape: tuple
    points: np.ndarray
    radii: np.ndarray
    corners: np.ndarray
    rim: np.ndarray
    faces: Callable
    degree: Callable
    boundary: Callable
    bisect: Callable
    action: Optional[CyclicAction] = None
    act: Optional[Callable] = None
    image: Optional[np.ndarray] = None
    even: Optional[np.ndarray] = None


def _cube_faces(cell):
    # all elementary cubes in the closed cell; cube = ((start, extent), ...)
    return itertools.product(*[((i, 1), (i, 0), (i + 1, 0)) for i in cell])


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


def _cubical_action_map(sp, m):
    # the image of an elementary cube under the signed permutation sp of
    # the axes of m cells each, with the sign it gives the cube's orientation
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


def _cubical_grid(radius, d, m, action) -> Grid:
    """The m^d cubes of [-radius, radius]^d; an action is a signed permutation."""
    axis = np.linspace(-radius, radius, m + 1)
    points = np.stack([g.ravel() for g in np.meshgrid(*([axis] * d), indexing="ij")], axis=-1)
    radii = np.sqrt(sum(x * x for x in points.T))
    cells = np.indices((m,) * d).reshape(d, -1)
    offsets = np.array(list(itertools.product((0, 1), repeat=d))).T
    corners = np.ravel_multi_index(tuple(cells[:, :, None] + offsets[:, None, :]), (m + 1,) * d)

    def bisect():
        # the linspace of 2m cells holds the m-cell one bitwise at its even points
        fine = _cubical_grid(radius, d, 2 * m, action)
        fine.even = np.ravel_multi_index(tuple(2 * np.indices((m + 1,) * d).reshape(d, -1)),
                                         (2 * m + 1,) * d)
        return fine

    grid = Grid((m,) * d, points, radii, corners, radii[corners].max(axis=1) >= 0.85 * radius,
                _cube_faces, _cube_degree, _cube_boundary, bisect)
    if action is not None:
        sp = signed_permutation_data(action.matrix)
        image = np.empty_like(cells)
        for source, (t, s) in enumerate(sp):
            image[t] = cells[source] if s > 0 else m - 1 - cells[source]
        grid.action, grid.act = action, _cubical_action_map(sp, m)
        grid.image = np.ravel_multi_index(tuple(image), (m,) * d)
    return grid


_POLAR_DEGREE = {"f": 2, "ar": 1, "rd": 1, "v": 0, "c": 0}


def _polar_grid(radius, rings, sectors, shift, action) -> Grid:
    """The disk in rings x sectors cells, which action turns by shift sectors.

    Vertex 0 is the centre and vertex 1 + (i - 1) sectors + j lies on ring
    i at sector j.  The cells of the inner ring are triangles, whose corner
    rows repeat the centre.
    """
    q = sectors
    angles = [2 * math.pi * j / q for j in range(q)]
    points = np.array([(0.0, 0.0)] + [(r * math.cos(t), r * math.sin(t))
                                    for r in (radius * i / rings for i in range(1, rings + 1))
                                    for t in angles])
    ring, sector = np.indices((rings, q)).reshape(2, -1)
    nxt = (sector + 1) % q

    def vertex(i, j):
        return np.where(i > 0, 1 + (i - 1) * q + j, 0)

    corners = np.stack([vertex(ring, sector), vertex(ring, nxt),
                        vertex(ring + 1, sector), vertex(ring + 1, nxt)], axis=1)

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

    def faces(cell):
        # the face ("f", i, j) and, recursively, the faces of its boundary
        out, new = set(), {("f", *cell)}
        while new:
            out |= new
            new = {face for c in new for face, _ in boundary(c)} - out
        return out

    def act(cell):
        kind, i, j = cell
        return (cell if kind == "c" else (kind, i, (j + shift) % q)), 1

    def bisect():
        # ring 2i at sector 2j of the fine grid is ring i at sector j bitwise
        fine = _polar_grid(radius, 2 * rings, 2 * q, 2 * shift, action)
        fine.even = np.concatenate([[0], 1 + (2 * ring + 1) * 2 * q + 2 * sector])
        return fine

    return Grid((rings, q), points, _row_norms(points), corners, ring == rings - 1,
                faces, lambda cell: _POLAR_DEGREE[cell[0]], boundary, bisect,
                action=action, act=act, image=ring * q + (sector + shift) % q)


def _grid(f, radius, h):
    # polar for a plane rotation that is no signed permutation, with 4k
    # sectors; cubical otherwise, carrying a signed permutation action only
    n = 8 if h is None else max(1, round(radius / h))
    action = f.action
    if action is not None and signed_permutation_data(action.matrix) is None:
        th = rotation_angle_2d(action.matrix)
        if th is not None:
            q = 4 * action.k
            shift = int(round((th % (2 * math.pi)) * q / (2 * math.pi))) % q
            return _polar_grid(radius, n, q, shift, action)
        action = None
    if f.d < 1 or f.d > 3:
        raise ConfigurationError(f"cubical rasterization supports dimensions 1 to 3, got {f.d}")
    return _cubical_grid(radius, f.d, 2 * n, action)


# -- Gromoll-Meyer pairs --------------------------------------------------

@dataclass
class GromollMeyerPair:
    """Sublevel pair of f rasterized on a grid.

    w_mask and wminus_mask, of grid.shape, mark the top cells of W and of
    the exit set W-.  values and grads hold f and its gradient at every
    vertex, +inf and nan at the vertices outside the ball.
    """

    grid: Grid
    w_mask: np.ndarray
    wminus_mask: np.ndarray
    radius: float
    a: float
    b: float
    values: np.ndarray
    grads: np.ndarray

    @functools.cached_property
    def chains(self):
        """Relative chains: labels and index per degree, sparse boundary columns.

        The chains are the cells in the closure of w_mask that are not in
        the closure of wminus_mask; faces outside the relative basis drop
        out of a boundary.  They are built once, for both groups.
        """
        grid = self.grid

        def closure(mask):
            cells = set()
            for cell in zip(*np.nonzero(mask)):
                cells.update(grid.faces(tuple(int(i) for i in cell)))
            return cells

        keep = closure(self.w_mask) - closure(self.wminus_mask)
        by_deg = {}
        for cell in keep:
            by_deg.setdefault(grid.degree(cell), []).append(cell)
        labels = {q: sorted(cs) for q, cs in by_deg.items()}
        index = {c: (q, i) for q, cs in labels.items() for i, c in enumerate(cs)}
        cols = {}
        for q, cs in labels.items():
            cols[q] = []
            for cell in cs:
                col = {}
                for face, sign in grid.boundary(cell):
                    hit = index.get(face)
                    if hit is not None:
                        col[hit[1]] = col.get(hit[1], 0) + sign
                cols[q].append({r: v for r, v in col.items() if v})
        return labels, index, cols


def _vertex_jets(f, grid, in_ball, coarse):
    # f and its gradient at every vertex in the ball from one jet, and +inf
    # and nan outside it, where neither is read; the bisection of the coarse
    # pair's grid takes both at the coarse vertices from the coarse pair
    V = np.full(len(in_ball), np.inf)
    G = np.full((len(in_ball), f.d), np.nan)
    fresh = in_ball.copy()
    if coarse is not None:
        V[grid.even], G[grid.even] = coarse.values, coarse.grads
        fresh[grid.even] = False
    if fresh.any():
        V[fresh], G[fresh], _ = f.jet(grid.points[fresh])
    return V, G


def gromoll_meyer_pair(f, radius, a=None, b=None, h=None, _coarse=None) -> GromollMeyerPair:
    """Sublevel pair (f <= a, deformed exit collar) rasterized on a grid.

    The grid follows f.action.  A plane rotation that is not a signed
    permutation gets a polar grid of round(radius / h) rings and 4k
    sectors, which carries the rotation.  Anything else gets a cubical grid
    of 2 round(radius / h) cells per axis over [-radius, radius]^d, d from
    1 to 3, which carries a signed permutation action and no other.  h
    defaults to radius / 8, and one pair serves the plain and the invariant
    group.

    W holds the cells in the ball with f <= a at every corner, W- those
    where also F = f - (a + b) beta0 <= -b; a and b default to 0.05 max |f|
    over the vertices in the ball, which one f.jet evaluates.  The checks:
    0 is the only critical point in the ball (IsolationError); W reaches
    the rim of the ball only inside W-, and the descending flow of F does
    not carry W- back into W (ParameterError); both masks are invariant
    under the cell action (ValidationError).  Given the _coarse pair, the
    grid bisects its grid, f at the shared vertices is read from it, and
    only the last check runs.
    """
    _require_positive(radius, h)
    if _coarse is None:
        grid = _grid(f, radius, h)
        _check_isolated(f, radius)
    else:
        grid = _coarse.grid.bisect()
    in_ball = grid.radii <= radius + 1e-9
    V, G = _vertex_jets(f, grid, in_ball, _coarse)
    a, b = _well_depths(f, a, b, V[in_ball])
    F = V - (a + b) * _beta0(grid.radii, radius)
    corners = grid.corners
    # the tie slack keeps exact-threshold vertices on one side of the cut
    w = in_ball[corners].all(axis=1) & (V[corners].max(axis=1) <= a + _TIE)
    wm = w & (F[corners].max(axis=1) <= -b + _TIE)
    if _coarse is None:
        if (w & grid.rim & ~wm).any():
            raise ParameterError("a, b too large: the pair touches the boundary of the ball")
        if wm.any() and (w & ~wm).any():
            # vertices of a cell of W- and of a cell of W - W- on the ramp
            vertex = np.arange(len(V))
            cand = (np.isin(vertex, corners[wm]) & np.isin(vertex, corners[w & ~wm])
                    & (grid.radii > _B0_LO * radius) & (grid.radii < _B0_HI * radius))
            _flow_leak_check(a, b, radius, grid.points[cand], G[cand])
    if grid.image is not None:
        for mask in (w, wm):
            if not np.array_equal(mask[grid.image], mask):
                raise ValidationError("masks are not invariant under the cell action")
    return GromollMeyerPair(grid=grid, w_mask=w.reshape(grid.shape),
                            wminus_mask=wm.reshape(grid.shape), radius=radius, a=a, b=b,
                            values=V, grads=G)


def relative_homology(pair, invariant: bool = False, action_sign: int = 1) -> dict:
    """Relative homology of the pair over Q; invariant mode averages the cells.

    Both modes read the pair's relative chains, built once per pair.  The
    invariant group needs a cell action on the grid: a polar grid carries
    its plane rotation, a cubical grid a signed permutation action, and
    any other action raises ConfigurationError.
    """
    labels, index, cols = pair.chains
    if not invariant:
        return betti_from_columns(cols)
    if pair.grid.action is None:
        raise ConfigurationError("invariant homology requires a cell action on the pair")
    # per degree, the (position, sign) image of every relative cell
    act = {}
    for q, cs in labels.items():
        act[q] = []
        for c in cs:
            img, s = pair.grid.act(c)
            hit = index.get(img)
            if hit is None or hit[0] != q:
                raise ValidationError("cell action leaves the relative basis")
            act[q].append((hit[1], s * action_sign))
    return invariant_betti_from_columns(pair.grid.action.k, cols, act)


def _refined_groups(f, radius, a, b, h, modes, action_sign):
    # per mode (False plain, True invariant), the Betti numbers of one
    # coarse pair, each equal to those of the pair on its bisection
    coarse = gromoll_meyer_pair(f, radius, a, b, h)
    fine = gromoll_meyer_pair(f, radius, coarse.a, coarse.b, _coarse=coarse)
    out = []
    for invariant in modes:
        got = relative_homology(coarse, invariant, action_sign)
        ref = relative_homology(fine, invariant, action_sign)
        if got != ref:
            raise ResolutionError(f"betti numbers changed under grid refinement: {got} vs {ref}")
        out.append(got)
    return out


def sublevel_homology(f, radius, a=None, b=None, h=None, invariant=False) -> dict:
    """Pair homology with a built-in refinement check on the bisected grid.

    gromoll_meyer_pair picks the grid from f.action: polar (h sets the ring
    width) for a plane rotation that is not a signed permutation, cubical
    (h sets the step) otherwise.  The same pair gives the plain group and,
    when its grid carries the action, the invariant one; an action that
    neither grid carries raises ConfigurationError in invariant mode.  The
    Betti numbers must not change on the grid that halves every cell, else
    ResolutionError.
    """
    return _refined_groups(f, radius, a, b, h, (invariant,), 1)[0]


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


def _negative_space_orientation(Vm, A) -> bool:
    """Whether A keeps the orientation of span Vm, which it must map to itself."""
    Rm = Vm.T @ A @ Vm
    if np.abs(A @ Vm - Vm @ Rm).max(initial=0.0) > 1e-8:
        raise ValidationError("action does not preserve the negative eigenspace")
    return bool(np.linalg.det(Rm) > 0)


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
        orientation = _negative_space_orientation(evecs[:, evals < 0], A2)
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
    is rasterized within 0.4 * radius at the default step.  The reduced
    function gets one coarse pair and its bisection (gromoll_meyer_pair),
    whose relative chains give the plain and the invariant group.  The grid
    follows the action: polar for a plane rotation that is not a signed
    permutation, where h sets the ring width, and cubical otherwise, where
    h sets the step; an action that neither grid carries raises
    ConfigurationError.
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
        orientation = not has_action or _negative_space_orientation(evecs[:, :q], f.action.matrix)
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
    # one pair and its bisection give both groups; without an action they agree
    modes = (False, True) if has_action else (False,)
    groups = _refined_groups(g, r_red, None, None, h_red, modes, 1 if orientation else -1)
    plain_red, inv_red = groups[0], groups[-1]
    return LocalHomology(
        plain={deg + q: r for deg, r in plain_red.items()},
        invariant={deg + q: r for deg, r in inv_red.items()},
        trace={"kernel_dim": K, "q": q, "orientation_preserved": orientation,
               "reduced_dim": K})
