"""Local homology of isolated critical points, plain and invariant.

Sublevel pairs are rasterized on cubical or polar grids and their relative
homology is computed over Q.  Two-dimensional Morse data comes from shooting
trajectories between critical points.  A block-diagonal Hessian at the origin
is straightened by an equivariant embedding so that a degenerate point reduces
to its kernel directions plus a quadratic normal form.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.integrate import solve_ivp

from . import dact as _dact
from .config import tol
from .errors import (
    BoundaryError,
    ConfigurationError,
    DegeneracyError,
    IsolationError,
    MorseSmaleError,
    ParameterError,
    ResolutionError,
    TrustRegionError,
    ValidationError,
)
from .exactalg import (
    GradedChainComplex,
    betti_from_columns,
    invariant_betti_from_columns,
    sparse_rank,  # noqa: F401  (perfbench/selftest.py checks this binding)
)


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


def _poly_value(z, terms):
    """Sum of coeff * prod z_i^e_i over (coeff, exponents) terms."""
    total = 0.0
    for coeff, exps in terms:
        m = coeff
        for i, e in enumerate(exps):
            if e:
                m *= z[i] ** e
        total += m
    return total


def _poly_grad(z, terms):
    g = np.zeros(len(z))
    for coeff, exps in terms:
        for i, e in enumerate(exps):
            if not e:
                continue
            m = coeff * e
            for j, ej in enumerate(exps):
                p = ej - 1 if j == i else ej
                if p:
                    m *= z[j] ** p
            g[i] += m
    return g


def _poly_hess(z, terms):
    d = len(z)
    H = np.zeros((d, d))
    for coeff, exps in terms:
        for i, ei in enumerate(exps):
            if not ei:
                continue
            for j, ej in enumerate(exps):
                if i == j:
                    if ei < 2:
                        continue
                    m = coeff * ei * (ei - 1)
                else:
                    if not ej:
                        continue
                    m = coeff * ei * ej
                for l, el in enumerate(exps):
                    if i == j:
                        p = el - 2 if l == i else el
                    else:
                        p = el - 1 if l in (i, j) else el
                    if p:
                        m *= z[l] ** p
                H[i, j] += m
    return H


class FunctionSpec:
    """Polynomial with a critical point at the origin, optionally symmetric.

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
            exps = tuple(int(e) for e in exps)
            if len(exps) != self.d or any(e < 0 for e in exps):
                raise ValidationError(f"exponent tuple {exps} does not fit dimension {d}")
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

    def value(self, z) -> float:
        return float(_poly_value(np.asarray(z, dtype=float), self.terms))

    def grad(self, z) -> np.ndarray:
        return _poly_grad(np.asarray(z, dtype=float), self.terms)

    def hess(self, z) -> np.ndarray:
        return _poly_hess(np.asarray(z, dtype=float), self.terms)

    def to_json(self) -> dict:
        doc = {
            "d": self.d,
            "terms": [{"coeff": c, "exps": list(e)} for c, e in self.terms],
        }
        if self.action is not None:
            doc["action"] = {"matrix": self.action.matrix.tolist(), "k": self.action.k}
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "FunctionSpec":
        action = None
        if doc.get("action"):
            action = CyclicAction(np.array(doc["action"]["matrix"]), doc["action"]["k"])
        terms = [(t["coeff"], tuple(t["exps"])) for t in doc["terms"]]
        return cls(doc["d"], terms, action)


@dataclass
class CallableFunction:
    """Function protocol backed by callables for the value and its derivatives."""

    d: int
    value_fn: Callable
    grad_fn: Callable
    hess_fn: Callable
    action: Optional[CyclicAction] = None
    name: str = ""

    def value(self, z) -> float:
        return float(self.value_fn(np.asarray(z, dtype=float)))

    def grad(self, z) -> np.ndarray:
        return np.asarray(self.grad_fn(np.asarray(z, dtype=float)), dtype=float)

    def hess(self, z) -> np.ndarray:
        return np.asarray(self.hess_fn(np.asarray(z, dtype=float)), dtype=float)


def discrete_action_function(da) -> CallableFunction:
    """Wrap a discrete action as a function with its exact value and derivatives.

    The value is dact.eval: each step generating function contributes the
    action identity S_i(x, Y) = x . (y - Y) + int (x . ydot + H_t) dt along
    its solved substep trajectory (sign convention i_{X_H} omega0 = dH).
    Value, gradient and Hessian at one z share one dact.evaluate pass, one
    graph solve per slot, so a Newton step asking for grad(z) and then
    hess(z) solves once.
    """
    last = {}

    def at(z):
        key = np.asarray(z, dtype=float).tobytes()
        if key not in last:
            last.clear()
            last[key] = _dact.evaluate(da, z)
        return last[key]

    action = None
    if da.k > 1:
        action = CyclicAction(_dact.shift_matrix(da), da.k)
    return CallableFunction(
        d=da.dim,
        value_fn=lambda z: at(z)[0],
        grad_fn=lambda z: at(z)[1].copy(),
        hess_fn=lambda z: at(z)[2].copy(),
        action=action,
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


def _newton_crit(f, z0, cap, iters=60, gtol=1e-11):
    z = np.array(z0, dtype=float)
    for _ in range(iters):
        g = f.grad(z)
        if np.linalg.norm(g) < gtol:
            return z
        H = f.hess(z)
        try:
            step = np.linalg.solve(H, g)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(H, g, rcond=None)[0]
        n = np.linalg.norm(step)
        if n > cap:
            step = step * (cap / n)
        z = z - step
    if np.linalg.norm(f.grad(z)) < gtol:
        return z
    return None


def _check_isolated(f, radius, seeds):
    grid = np.linspace(-radius, radius, seeds)
    for seed in itertools.product(grid, repeat=f.d):
        z0 = np.array(seed)
        if np.linalg.norm(z0) > radius + 1e-12:
            continue
        z = _newton_crit(f, z0, cap=radius)
        if z is None:
            continue
        if np.linalg.norm(z) <= radius * (1 + 1e-9) and np.linalg.norm(z) > 1e-7:
            # a shallow tail of the origin germ is not a separate point; a real
            # one is fenced off from 0 by a gradient ridge at the midpoint
            if np.linalg.norm(f.grad(z / 2)) > 1e-8:
                raise IsolationError(
                    "critical point near "
                    f"{np.round(z, 6).tolist()} inside the working ball besides the origin")


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


def _flow_leak_check(f, a, b, radius, points):
    # the descending flow of f - (a+b) beta0 must not carry exit-set points
    # back into the pair: its gradient has to keep a forward component along
    # grad f wherever the cutoff slopes
    c = a + b
    for z in points:
        r = float(np.linalg.norm(z))
        slope = _beta0_d1(r, radius)
        if slope == 0.0:
            continue
        g = f.grad(z)
        gF = g - c * slope * (z / r)
        if float(np.dot(gF, g)) < -1e-9:
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
    # grid coordinates along each axis; f at every vertex in the ball, +inf
    # at the vertices outside it
    axis: Optional[np.ndarray] = None
    values: Optional[np.ndarray] = None


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


def _vertex_values(f, axis, pts, in_ball, coarse):
    # f at every vertex in the ball and +inf outside it, where no value is
    # read; a grid that bisects the coarse pair's grid takes the values at
    # its even vertices from the coarse pair
    V = np.full(in_ball.shape, np.inf)
    fresh = in_ball.copy()
    if coarse is not None:
        if not np.array_equal(axis[::2], coarse.axis):
            raise ValidationError("the grid does not bisect the coarse grid whose values it reuses")
        even = (slice(None, None, 2),) * in_ball.ndim
        V[even] = coarse.values
        fresh[even] = False
    V[fresh] = [f.value(p) for p in pts[fresh.ravel()]]
    return V


def gromoll_meyer_pair(f, radius, a=None, b=None, h=None,
                       isolation_seeds=5, _skip_checks=False, _coarse=None) -> CubicalPair:
    """Sublevel pair (f <= a, deformed exit collar) rasterized on a grid."""
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
    V = _vertex_values(f, axis, pts, in_ball_v, _coarse)
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
            grid_pts = pts.reshape([m + 1] * d + [d])
            _flow_leak_check(f, a, b, radius, grid_pts[cand])
    pair = CubicalPair(h=h, lo=np.full(d, -radius), shape=(m,) * d,
                       w_mask=w, wminus_mask=wm, radius=radius, a=a, b=b,
                       axis=axis, values=V)
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
            _flow_leak_check(f, a, b, radius, leak_pts)
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

def _find_critical_points(f, radius, seed_grid):
    grid = np.linspace(-radius, radius, seed_grid)
    found = []
    for seed in itertools.product(grid, repeat=2):
        z = _newton_crit(f, np.array(seed), cap=radius, gtol=tol("newton_grad"))
        if z is None or np.linalg.norm(z) > radius * (1 + 1e-9):
            continue
        if all(np.linalg.norm(z - p) > tol("dedup") for p in found):
            found.append(z)
    return found


def _flow_until(f, z0, source, sign, crits, radius, t_budget):
    """Integrate zdot = sign * grad f until exit, capture, or budget."""
    r_cap = 1e-3 * radius
    chunk = 2.0

    def rhs(t, z):
        return sign * f.grad(z)

    def crossed(t, z):
        return np.linalg.norm(z) - radius

    crossed.terminal = True
    crossed.direction = 1.0

    z = np.array(z0, dtype=float)
    t = 0.0
    armed = False
    while t < t_budget:
        sol = solve_ivp(rhs, (0.0, chunk), z, method="DOP853",
                        rtol=1e-10, atol=1e-12, events=crossed)
        if sol.status == 1:
            return "exit", None, sol.y[:, -1]
        if not sol.success:
            raise TrustRegionError("flow integration failed on a trajectory")
        z = sol.y[:, -1]
        t += chunk
        if np.linalg.norm(z) > radius:
            return "exit", None, z
        if not armed and np.linalg.norm(z - source) > 10 * r_cap:
            armed = True
        if not armed:
            continue
        dists = [np.linalg.norm(z - c["z"]) for c in crits]
        i = int(np.argmin(dists))
        if dists[i] < r_cap:
            want = 0 if sign < 0 else 2
            if crits[i]["index"] == want:
                return "hit", i, z
            if np.linalg.norm(f.grad(z)) < 1e-9:
                raise MorseSmaleError(
                    "saddle-to-saddle connection detected; the flow is not Morse-Smale")
    raise BoundaryError("a trajectory was not classified within the time budget")


def morse_complex_2d(f, radius, seed_grid=11, flip=None, t_budget=500.0) -> GradedChainComplex:
    """Chain complex of a plane Morse function from shot trajectories."""
    if f.d != 2:
        raise ConfigurationError("trajectory complexes are two-dimensional")
    crits = []
    for z in _find_critical_points(f, radius, seed_grid):
        H = f.hess(z)
        evals, evecs = np.linalg.eigh(H)
        if np.min(np.abs(evals)) <= tol("hyperbolic_eig"):
            raise DegeneracyError(
                f"critical point near {np.round(z, 6).tolist()} is not hyperbolic")
        crits.append({"z": z, "index": int((evals < 0).sum()),
                      "evals": evals, "evecs": evecs})
    crits.sort(key=lambda c: (c["index"], round(c["z"][0], 9), round(c["z"][1], 9)))
    for i, c in enumerate(crits):
        c["label"] = f"p{i}"
    saddles = [c for c in crits if c["index"] == 1]
    flip = flip or {}
    for j, c in enumerate(saddles):
        down = c["evecs"][:, 0] if c["evals"][0] < 0 else c["evecs"][:, 1]
        lead = int(np.argmax(np.abs(down) > 1e-8))
        if down[lead] < 0:
            down = -down
        c["arrow"] = down * flip.get(j, 1)
        c["up"] = c["evecs"][:, 1] if c["evals"][0] < 0 else c["evecs"][:, 0]
    delta = 1e-4 * radius
    diff = {}
    for c in saddles:
        out = {}
        for s_br in (1, -1):
            z0 = c["z"] + delta * s_br * c["arrow"]
            kind, i, _ = _flow_until(f, z0, c["z"], -1.0, crits, radius, t_budget)
            if kind == "hit":
                lab = crits[i]["label"]
                out[lab] = out.get(lab, 0) + s_br
        row = {l: v for l, v in out.items() if v}
        if row:
            diff[c["label"]] = row
    for c in saddles:
        for s_br in (1, -1):
            z0 = c["z"] + delta * s_br * c["up"]
            kind, i, z_end = _flow_until(f, z0, c["z"], 1.0, crits, radius, t_budget)
            if kind != "hit":
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

@dataclass
class SplitResult:
    g: CallableFunction
    signature: tuple
    orientation_preserved: bool
    psi: Callable
    phi: Callable
    normal_dim: int


def equivariant_split(f, n1: int, radius: float = 0.5, samples: int = 25,
                      seed: int = 0) -> SplitResult:
    """Straighten f into g(z1) + quadratic(z2) by an equivariant embedding."""
    d = f.d
    n2 = d - n1
    if n1 < 0 or n2 <= 0:
        raise ConfigurationError(f"need 0 <= n1 < d, got n1={n1}, d={d}")
    D = f.hess(np.zeros(d))
    if n1 and np.abs(D[:n1, n1:]).max() > tol("offdiag"):
        raise ValidationError(
            "Hessian does not block-split at 0: off-diagonal norm "
            f"{np.abs(D[:n1, n1:]).max():.2e}")
    H0 = D[n1:, n1:]
    evals, evecs = np.linalg.eigh(H0)
    if np.min(np.abs(evals)) <= tol("kernel_eig"):
        raise DegeneracyError("normal block of the Hessian at 0 is degenerate")
    p = int((evals > 0).sum())
    q = int((evals < 0).sum())
    has_action = f.action is not None and not f.action.is_trivial
    A2 = None
    if has_action:
        A = f.action.matrix
        if n1 and np.abs(A[:n1, n1:]).max() > 1e-10:
            raise ValidationError("action does not preserve the splitting blocks")
        A2 = A[n1:, n1:]

    def phi(z1):
        z1 = np.asarray(z1, dtype=float)
        w = np.zeros(n2)
        for _ in range(50):
            z = np.concatenate([z1, w])
            g2 = f.grad(z)[n1:]
            if np.linalg.norm(g2) < tol("newton_grad"):
                return w
            w = w - np.linalg.solve(f.hess(z)[n1:, n1:], g2)
        raise TrustRegionError("implicit solve for the fiber critical point did not converge")

    def g_value(z1):
        z1 = np.asarray(z1, dtype=float)
        return f.value(np.concatenate([z1, phi(z1)]))

    def g_grad(z1):
        z1 = np.asarray(z1, dtype=float)
        return f.grad(np.concatenate([z1, phi(z1)]))[:n1]

    def g_hess(z1):
        z1 = np.asarray(z1, dtype=float)
        H = f.hess(np.concatenate([z1, phi(z1)]))
        return H[:n1, :n1] - H[:n1, n1:] @ np.linalg.solve(H[n1:, n1:], H[n1:, :n1])

    nodes, weights = np.polynomial.legendre.leggauss(16)
    s_nodes = 0.5 * (nodes + 1.0)
    s_weights = 0.5 * weights

    def H_at(z1, z2):
        # averaged normal Hessian: f(z1, phi+z2) = g(z1) + <H(z1,z2) z2, z2>/2
        base = phi(z1)
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
            if nrm < tol("series_term"):
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
        return np.concatenate([z1, phi(z1) + w])

    # construction-time verification on a sample cloud
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-0.6 * radius, 0.6 * radius, size=(samples, d))
    for z in pts:
        got = f.value(psi(z))
        want = g_value(z[:n1]) + 0.5 * float(z[n1:] @ (H0 @ z[n1:]))
        if abs(got - want) > tol("split_residual"):
            raise ValidationError(
                f"splitting residual {abs(got - want):.2e} exceeds "
                f"{tol('split_residual'):.0e}")
    orientation = True
    if A2 is not None and q > 0:
        Vm = evecs[:, evals < 0]
        Rm = Vm.T @ A2 @ Vm
        if np.abs(A2 @ Vm - Vm @ Rm).max() > 1e-8:
            raise ValidationError("action does not preserve the negative eigenspace")
        orientation = bool(np.linalg.det(Rm) > 0)
    if has_action:
        A = f.action.matrix
        for z in pts[: max(5, samples // 3)]:
            if np.linalg.norm(psi(A @ z) - A @ psi(z)) > tol("split_equivariance"):
                raise ValidationError("straightening map does not commute with the action")
    g_action = None
    if has_action and n1:
        g_action = CyclicAction(f.action.matrix[:n1, :n1], f.action.k)
    g = CallableFunction(d=n1, value_fn=g_value, grad_fn=g_grad, hess_fn=g_hess,
                         action=g_action, name="reduced")
    return SplitResult(g=g, signature=(p, q), orientation_preserved=orientation,
                       psi=psi, phi=lambda z1: phi(np.atleast_1d(np.asarray(z1, float))),
                       normal_dim=n2)


# -- orchestration --------------------------------------------------------

@dataclass
class LocalHomology:
    plain: dict
    invariant: dict
    trace: dict


def local_homology(f, radius: float = 0.5, h=None) -> LocalHomology:
    """Plain and invariant local homology of the isolated critical point at 0."""
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
        frot = CallableFunction(
            d=d,
            value_fn=lambda w: f.value(Q @ w),
            grad_fn=lambda w: Q.T @ f.grad(Q @ w),
            hess_fn=lambda w: Q.T @ f.hess(Q @ w) @ Q,
            action=g_action,
            name="rotated")
        split = equivariant_split(frot, K, radius=radius)
        g = split.g
        q = split.signature[1]
        orientation = split.orientation_preserved
        r_red, h_red = 0.4 * radius, None
    plain_red = sublevel_homology(g, r_red, h=h_red)
    if not has_action:
        inv_red = dict(plain_red)
    else:
        sign = 1 if orientation else -1
        if g.action is None:
            g = CallableFunction(d=g.d, value_fn=g.value, grad_fn=g.grad, hess_fn=g.hess,
                                 action=CyclicAction(np.eye(g.d), f.action.k))
        inv_red = sublevel_homology(g, r_red, h=h_red, invariant=True, action_sign=sign)
    return LocalHomology(
        plain={deg + q: r for deg, r in plain_red.items()},
        invariant={deg + q: r for deg, r in inv_red.items()},
        trace={"kernel_dim": K, "q": q, "orientation_preserved": orientation,
               "reduced_dim": K})
