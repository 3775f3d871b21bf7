"""Whitney cube decompositions and regularized distance functions.

A closed set is described by exact distance primitives (balls, finite point
sets, linear subspaces, unions).  ``whitney_decompose`` covers a box minus
the set by disjoint dyadic cubes whose diameter is comparable to their
distance from the set, and ``RegularizedDistance`` assembles from the cubes
a smooth function comparable to ``dist(., Y | E)`` that agrees with
``dist(., E)`` near the subspace ``E`` away from the obstacle ``Y`` and is
invariant under a finite cyclic symmetry by group averaging.
"""
from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .config import _S_HI, _S_LO, _integer, row_space, smooth_step
from .errors import ResolutionError, ValidationError
from .lochom import CallableFunction, CyclicAction, _json_fields, _orbit, _orbit_average


class CoverageWarning(UserWarning):
    """Refinement hit max_depth while cells still border the set."""


_MEMBERSHIP_TOL = 1e-12
_DEFAULT_MAX_DEPTH = {1: 16, 2: 14, 3: 10}
# the coarsest depth at which the regularized distance accepts a cube
_MIN_DEPTH = 2


def _bump_rows(t, side=None):
    """Product over coordinates of the profile, identically 1 up to _S_LO
    and dead from _S_HI on; one bump per row of t.

    With the cube sides of the rows, t being (x - center) / side, also the
    gradients (T, n) and Hessians (T, n, n) in x by the product rule: entry
    (k, l) multiplies the profile's derivative of order [k = m] + [l = m]
    at every coordinate m.  The profile's derivatives vanish off the ramp,
    and at its ends too, where the quintic meets 0 and 1 to second order.
    """
    v, d1, d2 = smooth_step((_S_HI - np.abs(t)) / (_S_HI - _S_LO))
    if side is None:
        out = v[:, 0]
        for col in v.T[1:]:
            out = out * col
        return out
    scale = (_S_HI - _S_LO) * side[:, None]
    parts = (v, -np.sign(t) * d1 / scale, d2 / (scale * scale))
    n = t.shape[1]

    def product(*axes):
        orders = [axes.count(m) for m in range(n)]
        out = parts[orders[0]][:, 0]
        for m in range(1, n):
            out = out * parts[orders[m]][:, m]
        return out

    grads = np.stack([product(k) for k in range(n)], axis=1)
    hessians = np.empty((len(t), n, n))
    for k, l in zip(*np.triu_indices(n)):
        hessians[:, k, l] = hessians[:, l, k] = product(k, l)
    return product(), grads, hessians


def _column_norm(cols):
    # sqrt(d0*d0 + d1*d1 + ...) over the columns, added left to right as a
    # row sum of squares over at most three columns is, so bitwise equal to
    # np.sqrt((d ** 2).sum(axis=1)) without a (rows, n) temporary
    cols = iter(cols)
    d = next(cols)
    acc = d * d
    for d in cols:
        acc = acc + d * d
    return np.sqrt(acc)


class _Ball:
    kind = "ball"

    def __init__(self, center, radius):
        self.center = np.asarray(center, dtype=float).reshape(-1)
        self.radius = float(radius)
        if self.radius < 0.0:
            raise ValidationError(f"ball radius must be nonnegative, got {radius}")

    def dist_many(self, pts):
        d = np.linalg.norm(pts - self.center, axis=1) - self.radius
        return np.maximum(d, 0.0)

    def dist_box(self, lo, hi):
        q = np.clip(self.center, lo, hi)
        d = np.linalg.norm(q - self.center, axis=1) - self.radius
        return np.maximum(d, 0.0)

    def contains_box(self, lo, hi):
        far = np.maximum(np.abs(lo - self.center), np.abs(hi - self.center))
        return np.linalg.norm(far, axis=1) <= self.radius

    def to_json(self):
        return {"kind": "ball", "center": self.center.tolist(), "radius": self.radius}


class _Points:
    kind = "points"

    def __init__(self, pts):
        self.pts = np.atleast_2d(np.asarray(pts, dtype=float))

    # one pass per point of the set, which holds few, instead of a
    # (rows, points, n) temporary
    def dist_many(self, pts):
        best = np.full(len(pts), np.inf)
        for p in self.pts:
            best = np.minimum(best, _column_norm(c - x for c, x in zip(pts.T, p)))
        return best

    def dist_box(self, lo, hi):
        best = np.full(lo.shape[0], np.inf)
        for p in self.pts:
            best = np.minimum(best, _column_norm(np.clip(x, a, b) - x
                                                 for a, b, x in zip(lo.T, hi.T, p)))
        return best

    def contains_box(self, lo, hi):
        return np.zeros(lo.shape[0], dtype=bool)

    def to_json(self):
        return {"kind": "points", "points": self.pts.tolist()}


class _Subspace:
    kind = "subspace"

    def __init__(self, n, vectors):
        n = _integer(n, "dimension n")
        B = row_space(np.asarray(vectors, dtype=float).reshape(-1, n))
        self.n = n
        self.basis = B
        nz = np.abs(B) > 1e-12
        axis = bool(np.all(nz.sum(axis=1) == 1)) and bool(
            np.all(np.abs(np.abs(B[nz]) - 1.0) < 1e-12)
        )
        self.axis_aligned = axis or B.shape[0] == 0
        spanned = set(np.flatnonzero(nz.any(axis=0)).tolist()) if axis else set()
        self.comp = sorted(set(range(n)) - spanned) if self.axis_aligned else None

    @property
    def dim(self):
        return self.basis.shape[0]

    def dist_many(self, pts):
        if self.axis_aligned:
            if not self.comp:
                return np.zeros(len(pts))
            if len(self.comp) == 1:
                return np.abs(pts[:, self.comp[0]])
            return np.sqrt((pts[:, self.comp] ** 2).sum(axis=1))
        # one row-by-basis product per point, so a point's distance does not
        # depend on the batch it comes in (a matrix-matrix product may round
        # differently from the vector product of a single point)
        proj = np.matmul(np.matmul(pts[:, None, :], self.basis.T), self.basis)[:, 0, :]
        return np.linalg.norm(pts - proj, axis=1)

    def dist_jets(self, pts, d):
        """Gradients P x / d and Hessians (P - g g^T) / d of the distance at
        rows off the subspace, from their distances d, where P projects onto
        the orthogonal complement.  The product by P rounds per row; on an
        axis-aligned subspace P is a 0/1 diagonal, so it is exact."""
        perp = np.eye(self.n) - self.basis.T @ self.basis
        g = np.matmul(perp, pts[:, :, None])[:, :, 0] / d[:, None]
        return g, (perp - g[:, :, None] * g[:, None, :]) / d[:, None, None]

    def dist_box(self, lo, hi):
        if self.axis_aligned:
            if not self.comp:
                return np.zeros(lo.shape[0])
            near = np.clip(0.0, lo[:, self.comp], hi[:, self.comp])
            if len(self.comp) == 1:
                return np.abs(near[:, 0])
            return np.sqrt((near ** 2).sum(axis=1))
        return self._dist_box_general(lo, hi)

    def _dist_box_general(self, lo, hi):
        # minimize |x - proj_E x| over each box: enumerate which coordinates
        # sit on a face and solve the free block of the normal equations
        n = self.n
        P = np.eye(n) - self.basis.T @ self.basis
        m = lo.shape[0]
        best = np.full(m, np.inf)
        for pattern in itertools.product((0, 1, 2), repeat=n):
            free = [i for i, p in enumerate(pattern) if p == 2]
            fixed = [i for i, p in enumerate(pattern) if p != 2]
            x = np.zeros((m, n))
            for i in fixed:
                x[:, i] = lo[:, i] if pattern[i] == 0 else hi[:, i]
            ok = np.ones(m, dtype=bool)
            if free:
                pff = P[np.ix_(free, free)]
                pfc = P[np.ix_(free, fixed)] if fixed else np.zeros((len(free), 0))
                rhs = -(x[:, fixed] @ pfc.T) if fixed else np.zeros((m, len(free)))
                sol = rhs @ np.linalg.pinv(pff).T
                x[:, free] = sol
                ok = np.all((sol >= lo[:, free] - 1e-12) & (sol <= hi[:, free] + 1e-12), axis=1)
            val = np.sqrt(np.maximum(((x @ P.T) * x).sum(axis=1), 0.0))
            best = np.where(ok, np.minimum(best, val), best)
        return best

    def contains_box(self, lo, hi):
        full = self.dim == self.n
        return np.full(lo.shape[0], full, dtype=bool)

    def to_json(self):
        return {"kind": "subspace", "n": self.n, "basis": self.basis.tolist()}


class _Tube:
    """Closed radius-r neighborhood of a linear subspace."""

    kind = "tube"

    def __init__(self, n, vectors, radius):
        self.sub = _Subspace(n, vectors)
        self.radius = float(radius)
        if self.radius < 0.0:
            raise ValidationError(f"tube radius must be nonnegative, got {radius}")

    def dist_many(self, pts):
        return np.maximum(self.sub.dist_many(pts) - self.radius, 0.0)

    def dist_box(self, lo, hi):
        return np.maximum(self.sub.dist_box(lo, hi) - self.radius, 0.0)

    def contains_box(self, lo, hi):
        # distance to a subspace is convex, so its maximum over a box sits at
        # a corner
        n = lo.shape[1]
        worst = np.zeros(lo.shape[0])
        for pattern in itertools.product((False, True), repeat=n):
            corner = np.where(np.array(pattern), hi, lo)
            worst = np.maximum(worst, self.sub.dist_many(corner))
        return worst <= self.radius

    def to_json(self):
        return {"kind": "tube", "n": self.sub.n, "basis": self.sub.basis.tolist(),
                "radius": self.radius}


# constructor and JSON fields, in argument order, of each primitive kind
_PRIMITIVE_FIELDS = {"ball": (_Ball, ("center", "radius")), "points": (_Points, ("points",)),
                     "subspace": (_Subspace, ("n", "basis")),
                     "tube": (_Tube, ("n", "basis", "radius"))}


def _primitive_from_json(data):
    (kind,) = _json_fields(data, "set primitive", "kind")
    if kind not in _PRIMITIVE_FIELDS:
        raise ValidationError(f"unknown set primitive kind {kind!r}")
    make, fields = _PRIMITIVE_FIELDS[kind]
    args = _json_fields(data, f"{kind} primitive", *fields)
    try:
        return make(*args)
    except (TypeError, ValueError):
        raise ValidationError(f"malformed {kind} primitive {data!r}") from None


class ClosedSetSpec:
    """Closed subset of R^n with exact point and box distances.

    >>> s = ClosedSetSpec.ball([0.0, 0.0], 1.0).union(
    ...     ClosedSetSpec.points([[3.0, 0.0]]))
    >>> s.dist([2.0, 0.0])
    1.0
    >>> s.contains([0.25, 0.5])
    True
    """

    def __init__(self, n: int, primitives, action=None):
        self.n = _integer(n, "dimension n")
        if not 1 <= self.n <= 3:
            raise ValidationError(f"dimension must be 1, 2 or 3, got {n}")
        self.primitives = list(primitives)
        self.action = action
        if action is not None:
            if action.d != self.n:
                raise ValidationError("action dimension does not match the set")
            check_invariance(self, action)

    @classmethod
    def ball(cls, center, radius, action=None):
        center = np.asarray(center, dtype=float).reshape(-1)
        return cls(center.size, [_Ball(center, radius)], action=action)

    @classmethod
    def points(cls, pts, action=None):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return cls(pts.shape[1], [_Points(pts)], action=action)

    @classmethod
    def subspace(cls, n, vectors, action=None):
        return cls(n, [_Subspace(n, vectors)], action=action)

    @classmethod
    def tube(cls, n, vectors, radius, action=None):
        return cls(n, [_Tube(n, vectors, radius)], action=action)

    @classmethod
    def empty(cls, n):
        return cls(n, [])

    def union(self, other: "ClosedSetSpec") -> "ClosedSetSpec":
        if other.n != self.n:
            raise ValidationError("cannot union sets of different dimensions")
        return ClosedSetSpec(self.n, self.primitives + other.primitives)

    def dist_many(self, pts) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if not self.primitives:
            return np.full(pts.shape[0], np.inf)
        return np.min([p.dist_many(pts) for p in self.primitives], axis=0)

    def dist(self, x) -> float:
        return float(self.dist_many(np.asarray(x, dtype=float)[None, :])[0])

    def dist_box(self, lo, hi) -> np.ndarray:
        lo = np.atleast_2d(np.asarray(lo, dtype=float))
        hi = np.atleast_2d(np.asarray(hi, dtype=float))
        if not self.primitives:
            return np.full(lo.shape[0], np.inf)
        return np.min([p.dist_box(lo, hi) for p in self.primitives], axis=0)

    def contains(self, x) -> bool:
        return self.dist(x) <= _MEMBERSHIP_TOL

    def contains_box(self, lo, hi) -> np.ndarray:
        lo = np.atleast_2d(np.asarray(lo, dtype=float))
        hi = np.atleast_2d(np.asarray(hi, dtype=float))
        out = np.zeros(lo.shape[0], dtype=bool)
        for p in self.primitives:
            out |= p.contains_box(lo, hi)
        return out

    def to_json(self) -> dict:
        out = {"n": self.n, "primitives": [p.to_json() for p in self.primitives]}
        if self.action is not None:
            out["action"] = self.action.to_json()
        return out

    @classmethod
    def from_json(cls, data: dict) -> "ClosedSetSpec":
        n, prims = _json_fields(data, "closed set", "n", "primitives")
        action = CyclicAction.from_json(data["action"]) if data.get("action") else None
        if not isinstance(prims, list):
            raise ValidationError(f"primitives must be a list, got {prims!r}")
        return cls(n, [_primitive_from_json(p) for p in prims], action=action)


def check_invariance(spec: ClosedSetSpec, action: CyclicAction):
    """Sampled check, at 64 points of [-3, 3]^n, that dist(., spec) is
    invariant under the action."""
    pts = np.random.default_rng(0).uniform(-3.0, 3.0, size=(64, spec.n))
    if action.residual(spec.dist_many, pts) > 1e-9:
        raise ValidationError("set is not invariant under the action")


# neighbor offsets of a cell, in the order every per-point sum visits them
_OFFSETS = {n: np.array(list(itertools.product((-1, 0, 1), repeat=n)), dtype=np.int64)
            for n in (1, 2, 3)}
# live offsets by face code: row c marks the offsets that can matter for a
# cube or point whose per-axis codes (0 inside its cell, 1 on or near the low
# face, 2 the high face) pack to c in base 3.  Offset 0 is always live, -1
# only on a low face and +1 only on a high one (2 * code - 3).
_FACE_OFFSETS = {n: np.array([np.all((off == 0) | (off == 2 * np.array(code) - 3), axis=1)
                              for code in itertools.product(range(3), repeat=n)])
                 for n, off in _OFFSETS.items()}


def _ragged_offsets(live):
    # the offsets each row of a live mask marks, as one ragged list with the
    # zero offset first in every run: (offset indices, run starts, run sizes)
    zero = len(live[0]) // 2
    runs = [[zero] + [o for o in np.flatnonzero(row).tolist() if o != zero] for row in live]
    sizes = np.array([len(r) for r in runs], dtype=np.int64)
    return np.concatenate(runs), np.cumsum(sizes) - sizes, sizes


# _FACE_OFFSETS as ragged runs for the touching scan, with one more code,
# 3^n, for a cube against its own depth: the zero offset and those after it,
# which see each equal-depth pair once
_LIVE_OFFSETS = {n: _ragged_offsets(np.vstack([live, np.arange(3 ** n) >= 3 ** n // 2]))
                 for n, live in _FACE_OFFSETS.items()}
# candidate cells per chunk of the batched star pass, the touching scan and
# the star window of ``check``; bounds their temporaries
_BATCH_CELLS = 1 << 16
# the largest packed key range that gets a dense cell table, 16 MiB of int32;
# past it, lookups search the sorted keys
_TABLE_KEYS = 1 << 22


def _face_codes(low, high):
    # face codes of boolean low/high face masks (last axis), packed in base 3
    return (low + 2 * high) @ 3 ** np.arange(low.shape[-1] - 1, -1, -1)


@dataclass
class WhitneyDecomposition:
    """Disjoint dyadic cubes covering a box minus a closed set.

    Cubes are half-open products of intervals; ``coords`` holds the integer
    cell index of each cube at its own depth and ``side0 * 2**-depth`` its
    side length.  Lookups go by packed cell keys: depth j owns the key range
    starting at ``_key_base[j]``, and a cell packs its digits ``coords + 1``
    in base ``2**j + 2``.  Where the whole key range holds at most
    ``_TABLE_KEYS`` keys, a dense table maps every key to its cube;
    otherwise the lookups search the keys sorted.
    """

    X: ClosedSetSpec
    lo0: np.ndarray
    side0: float
    coords: np.ndarray
    depth: np.ndarray
    truncated: bool
    uncovered_cells: int
    max_depth: int

    def __post_init__(self):
        self.side = self.side0 * np.power(2.0, -self.depth.astype(float))
        self.depths = np.unique(self.depth)
        self.depth_sides = self.side0 * np.power(2.0, -self.depths.astype(float))
        top = int(self.depths[-1]) if len(self.depths) else 0
        base, size = [], 0
        for j in range(top + 1):
            base.append(size)
            size += ((1 << j) + 2) ** self.n
        if size >= 1 << 63:
            raise ValidationError(f"depth {top} is too deep for 64-bit cube keys")
        self._key_base = np.array(base, dtype=np.int64)
        keys = self._cell_keys(self.coords, self.depth)
        # cubes that share a key (only a doctored decomposition has them):
        # either route returns the first
        if size <= _TABLE_KEYS:
            index = np.arange(self.count, dtype=np.int32)
            self._table = np.full(size, -1, dtype=np.int32)
            self._table[keys] = index
            lost = self._table[keys] != index
            np.minimum.at(self._table, keys[lost], index[lost])
        else:
            self._table = None
            self._cube = np.argsort(keys, kind="stable")
            self._keys = keys[self._cube]

    @property
    def n(self) -> int:
        return int(self.lo0.size)

    @property
    def count(self) -> int:
        return int(len(self.depth))

    def corner(self, i: int) -> np.ndarray:
        return self.lo0 + self.coords[i] * self.side[i]

    def lo_corners(self) -> np.ndarray:
        return self.lo0 + self.coords * self.side[:, None]

    def hi_corners(self) -> np.ndarray:
        return self.lo_corners() + self.side[:, None]

    def centers(self) -> np.ndarray:
        return self.lo_corners() + 0.5 * self.side[:, None]

    def diam(self) -> np.ndarray:
        return self.side * math.sqrt(self.n)

    def _cell_keys(self, cells, depth) -> np.ndarray:
        """Table keys of integer cells (last axis) at depths broadcast to them."""
        depth = np.asarray(depth, dtype=np.int64)
        radix = (np.int64(1) << depth) + 2
        # cells in the box run from -1 (an offset below cell 0) to 2**j + 1
        # (rounding at the top edge plus an offset); clipping to those keeps
        # every key inside its depth's range, for cells outside the box too,
        # and no cube owns either end
        digits = np.clip(np.asarray(cells) + 1, 0, radix[..., None] - 1)
        packed = np.zeros(digits.shape[:-1], dtype=np.int64)
        for col in np.moveaxis(digits, -1, 0):
            packed = packed * radix + col
        return self._key_base[depth] + packed

    def _lookup(self, keys) -> np.ndarray:
        """Cube index of every key, -1 where no cube has it: one gather from
        the dense cell table where ``__post_init__`` built it, else a search
        in the sorted keys.  The only place that chooses between the two."""
        if self._table is not None:
            return self._table[keys]
        pos = np.minimum(np.searchsorted(self._keys, keys), self.count - 1)
        return np.where(self._keys[pos] == keys, self._cube[pos], -1)

    def _scaled(self, pts):
        # (P, depths, n) position of every point in side lengths of each depth
        rel = np.asarray(pts, dtype=float) - self.lo0
        return rel[:, None, :] / self.depth_sides[None, :, None]

    def _cells(self, pts):
        # (P, depths, n) cell of every point at every depth in the table
        return np.floor(self._scaled(pts)).astype(np.int64)

    def locate_many(self, pts) -> np.ndarray:
        """Index of the cube containing each row of pts, -1 for none."""
        pts = np.asarray(pts, dtype=float).reshape(-1, self.n)
        if not self.count:
            return np.full(len(pts), -1, dtype=np.int64)
        idx = self._lookup(self._cell_keys(self._cells(pts), self.depths)).astype(np.int64)
        hit = idx >= 0
        first = hit.argmax(axis=1)
        return np.where(hit.any(axis=1), idx[np.arange(len(pts)), first], -1)

    def star_candidates(self, pts) -> np.ndarray:
        """Cube index (or -1) of the 3^n cells around each row of pts at every
        depth: shape (P, depths * 3^n), depth ascending, then offsets.

        A cell across a face is looked up only within 1/8 of a side of that
        face.  Farther in, the point is 5/8 of a side from its center, past
        both its 9/16 star and its bump's end 0.55; such a cube would add
        exact zeros, and the margin dwarfs any rounding.
        """
        pts = np.asarray(pts, dtype=float).reshape(-1, self.n)
        q = self._scaled(pts)
        cells = np.floor(q)
        frac = q - cells
        live = _FACE_OFFSETS[self.n][_face_codes(frac < 0.125, frac > 0.875)]
        p, d, o = np.nonzero(live)
        cand = cells.astype(np.int64)[p, d] + _OFFSETS[self.n][o]
        idx = np.full(live.shape, -1, dtype=np.int64)
        idx[p, d, o] = self._lookup(self._cell_keys(cand, self.depths[d]))
        return idx.reshape(len(pts), -1)

    def star_cubes(self, x):
        """Indices of cubes whose dilated star can carry weight at x."""
        x = np.asarray(x, dtype=float)
        idx = self.star_candidates(x)[0]
        side = np.repeat(self.depth_sides, 3 ** self.n)
        hit = idx >= 0
        i, s = idx[hit], side[hit]
        center = self.lo0 + (self.coords[i] + 0.5) * s[:, None]
        near = np.max(np.abs(x - center), axis=1) < (9.0 / 16.0) * s
        return i[near].tolist()

    def check(self, samples: int = 0, seed: int = 0) -> dict:
        """Verify that the cubes lie in the box, disjointness, distance
        windows and neighbor bounds.

        Raises ValidationError on any violation; returns measured statistics.
        The touching scan finds each pair from its finer cube, around that
        cube's ancestor cell at the coarser depth.  The closed cube at offset
        o of that cell touches the finer one only if the finer one lies on
        the cell's low face on every axis with o_i = -1 and on its high face
        where o_i = +1: elsewhere the closed boxes are apart on that axis.
        So the scan looks up only those offsets and the zero offset, whose
        cube would overlap, and misses no touching pair.  Conversely every
        cube found at such a live offset touches the finer one, so a hit
        needs no box test.  The lookups run per depth pair, a block of finer
        cubes at a time (see ``_touching_scan``).

        Errors come in a fixed order: a cube outside the box, the two
        distance windows, then the depth pairs (j, j2), j2 <= j, in
        ascending order, where an overlap at a pair comes before touching
        cubes three or more levels apart at the same pair, and last a cube
        with more than 12^n neighbors.
        """
        n = self.n
        report = {
            "cubes": self.count,
            "depths": self.depths.tolist(),
            "uncovered_cells": int(self.uncovered_cells),
            "truncated": bool(self.truncated),
            "sample_misses": 0,
        }
        if self.count == 0:
            report.update({
                "dist_diam_ratio": (1.0, 1.0), "neighbor_count_max": 0,
                "neighbor_diam_ratio": (1.0, 1.0), "star_ratio": (1.0, 1.0),
            })
            return report

        # the cell keys cap an index past the top edge, so a cube outside the
        # box would share keys with the cells beside it
        cells_per_axis = np.left_shift(1, self.depth)[:, None]
        if np.any((self.coords < 0) | (self.coords >= cells_per_axis)):
            raise ValidationError("a cube lies outside the decomposition box")

        # distance-to-diameter window for the cubes themselves
        d = self.X.dist_box(self.lo_corners(), self.hi_corners())
        diam = self.diam()
        if np.any(d < diam * (1.0 - 1e-9)):
            raise ValidationError("a cube is closer to the set than its own diameter")
        if np.any(d > diam * (4.0 + 1e-9)):
            raise ValidationError("a cube sits farther than four diameters from the set")
        ratio = d / diam
        report["dist_diam_ratio"] = (float(ratio.min()), float(ratio.max()))

        # the same window, with wider constants, at the corners of each star
        signs = np.array(list(itertools.product((-1.0, 1.0), repeat=n)))
        centers = self.centers()
        lo_s, hi_s = np.inf, -np.inf
        step = max(1, _BATCH_CELLS // (2 ** n + 1))
        for start in range(0, self.count, step):
            c, s, dm = (a[start:start + step] for a in (centers, self.side, diam))
            star_pts = c[:, None, :] + (9.0 / 16.0) * s[:, None, None] * signs[None, :, :]
            pts = np.concatenate([star_pts.reshape(-1, n), c])
            sratio = self.X.dist_many(pts) / np.concatenate([np.repeat(dm, 2 ** n), dm])
            lo_s, hi_s = np.minimum(lo_s, sratio.min()), np.maximum(hi_s, sratio.max())
        if lo_s < 0.75 - 1e-9 or hi_s > 6.0 + 1e-9:
            raise ValidationError("a star point violates the distance-diameter window")
        report["star_ratio"] = (float(lo_s), float(hi_s))
        report.update(self._touching_scan())

        if samples:
            rng = np.random.default_rng(seed)
            pts = rng.uniform(self.lo0, self.lo0 + self.side0, size=(samples, n))
            dists = self.X.dist_many(pts)
            collar = (
                2.0 * math.sqrt(n) * self.side0 * 2.0 ** (-self.max_depth)
                if self.truncated else _MEMBERSHIP_TOL
            )
            clear = dists > collar
            report["sample_misses"] = int((self.locate_many(pts[clear]) < 0).sum())
        return report

    def _touching_scan(self) -> dict:
        """Disjointness and neighbor bounds of the closed cubes on the integer
        grid, as ``check`` reports them, read by cube lookups (``_lookup``).

        For each depth pair (j, j2) with j2 <= j the depth-j cubes are taken
        a block at a time, and the keys of their ancestor cells at depth j2
        are built once per block.  A key is linear in its digits, so the cell
        at offset o of an ancestor has the ancestor's key plus one constant
        per offset; for cubes in the box, which ``check`` verifies first, the
        digits run from 0 to 2**j2 + 1 and the clip of ``_cell_keys`` never
        applies.  Each cube looks up only its live offsets, a run of
        ``_LIVE_OFFSETS`` picked by its face code.

        The face rule in ``check`` picks the live offsets, and a hit at a
        live offset always touches its cube: the finer cube lies on the
        ancestor's low face on every axis with o_i = -1, on its high face
        where o_i = +1 and inside it where o_i = 0, so the closed boxes meet
        on every axis.  At equal depth the zero offset and the offsets after
        it see every pair once.
        """
        counts, gap_max = self._neighbor_counts()
        if counts.max(initial=0) > 12 ** self.n:
            raise ValidationError("a cube touches more than 12^n others")
        return {"neighbor_count_max": int(counts.max(initial=0)),
                "neighbor_diam_ratio": (2.0 ** (-gap_max), 2.0 ** gap_max)}

    def _neighbor_counts(self):
        """Per-cube count of touching cubes and the largest depth gap between
        touching cubes: the pass behind ``_touching_scan``, which raises on
        overlaps and far pairs in the order ``check`` names."""
        neighbor_count = np.zeros(self.count, dtype=np.int64)
        gap_max = 0
        n = self.n
        offsets = _OFFSETS[n]
        live, live_start, live_size = _LIVE_OFFSETS[n]
        step = max(1, _BATCH_CELLS // len(offsets))
        depths = self.depths.tolist()
        for j in depths:
            fine_j = np.flatnonzero(self.depth == j)
            coords_j = self.coords[fine_j]
            for j2 in depths[:depths.index(j) + 1]:
                gap = j - j2
                weights = ((1 << j2) + 2) ** np.arange(n - 1, -1, -1, dtype=np.int64)
                live_keys = (offsets @ weights)[live]
                touched = False
                for start in range(0, len(fine_j), step):
                    fine, cf = fine_j[start:start + step], coords_j[start:start + step]
                    kb = self._key_base[j2] + ((cf >> gap) + 1) @ weights
                    if gap:
                        pos = cf & ((1 << gap) - 1)
                        code = _face_codes(pos == 0, pos == (1 << gap) - 1)
                    else:
                        code = np.full(len(fine), 3 ** n)
                    # each cube's run of live offsets, the zero offset first
                    size = live_size[code]
                    first = np.cumsum(size) - size
                    slot = np.repeat(live_start[code] - first, size) + np.arange(size.sum())
                    other = self._lookup(np.repeat(kb, size) + live_keys[slot])
                    zero = other[first]
                    if np.any((zero >= 0) & (zero != fine)):
                        raise ValidationError("cubes are not pairwise disjoint")
                    # past that test the zero offset finds the cube itself
                    # (at equal depth) or nothing
                    other[first] = -1
                    hit = other >= 0
                    if hit.any():
                        touched = True
                        # both cubes of each touching pair count it; add.at
                        # costs the hits, where a bincount costs every cube
                        neighbor_count[fine] += np.add.reduceat(hit, first, dtype=np.int64)
                        np.add.at(neighbor_count, other[hit], 1)
                if touched:
                    # overlaps anywhere at this pair of depths take precedence
                    if gap > 2:
                        raise ValidationError(
                            "touching cubes differ in diameter by more than a factor of four")
                    gap_max = max(gap_max, gap)
        return neighbor_count, gap_max


def whitney_decompose(X: ClosedSetSpec, bbox, min_depth: int = 0, max_depth=None) -> WhitneyDecomposition:
    """Cover bbox minus X by dyadic cubes with diam <= dist(cube, X) <= 4 diam.

    A cell is accepted once its distance to the set reaches its diameter;
    otherwise it splits into 2^n children, down to max_depth.  Leftover
    cells bordering the set at max_depth raise a CoverageWarning: cubes
    accumulate at the set, so truncation there is expected.
    """
    n = X.n
    lo, hi = float(bbox[0]), float(bbox[1])
    if not hi > lo:
        raise ValidationError("bbox upper end must exceed the lower end")
    if max_depth is None:
        max_depth = _DEFAULT_MAX_DEPTH.get(n, 10)
    min_depth, max_depth = _integer(min_depth, "min_depth"), _integer(max_depth, "max_depth")
    if not 0 <= min_depth <= max_depth:
        raise ValidationError("need 0 <= min_depth <= max_depth")
    side0 = hi - lo
    lo0 = np.full(n, lo)
    children = np.array(list(itertools.product((0, 1), repeat=n)), dtype=np.int64)
    cells = np.zeros((1, n), dtype=np.int64)
    acc_coords, acc_depth = [], []
    uncovered = 0
    for j in range(max_depth + 1):
        if len(cells) == 0:
            break
        s = side0 * 2.0 ** (-j)
        clo = lo0 + cells * s
        chi = clo + s
        keepmask = ~X.contains_box(clo, chi)
        cells, clo, chi = cells[keepmask], clo[keepmask], chi[keepmask]
        if len(cells) == 0:
            break
        diam = s * math.sqrt(n)
        if j >= min_depth:
            acc = X.dist_box(clo, chi) >= diam
        else:
            acc = np.zeros(len(cells), dtype=bool)
        if acc.any():
            acc_coords.append(cells[acc])
            acc_depth.extend([j] * int(acc.sum()))
        rest = cells[~acc]
        if j == max_depth:
            uncovered = len(rest)
            break
        cells = (rest[:, None, :] * 2 + children[None, :, :]).reshape(-1, n)
    coords = np.concatenate(acc_coords) if acc_coords else np.zeros((0, n), dtype=np.int64)
    dec = WhitneyDecomposition(
        X=X, lo0=lo0, side0=side0, coords=coords,
        depth=np.asarray(acc_depth, dtype=np.int64),
        truncated=uncovered > 0, uncovered_cells=int(uncovered), max_depth=max_depth,
    )
    dec.check()
    if uncovered:
        warnings.warn(
            f"{uncovered} cells at depth {max_depth} still border the set; "
            "cubes accumulate there", CoverageWarning, stacklevel=2)
    return dec


@dataclass
class RegularizedDistance:
    """Smooth function comparable to dist(., Y | E), exact near E away from Y.

    Cube-wise weights use the dilated-star bump; cubes whose star sits where
    E is strictly closer than Y contribute the exact distance to E, the rest
    contribute their diameter, and the quotient by the partition sum is
    averaged over the group when an action is attached, by the package's one
    group average, lochom._orbit_average: each query is stacked with its
    images A x, A(A x), ..., and image j pulls back by A^T one factor at a
    time.
    """

    Y: ClosedSetSpec
    E: ClosedSetSpec
    X: ClosedSetSpec
    action: object
    dec: WhitneyDecomposition
    in_u: np.ndarray
    collar: float

    @classmethod
    def build(cls, Y: ClosedSetSpec, E: ClosedSetSpec, action=None,
              bbox=(-2.0, 2.0), max_depth=None) -> "RegularizedDistance":
        if Y.n != E.n:
            raise ValidationError("Y and E must live in the same dimension")
        if len(E.primitives) != 1 or not isinstance(E.primitives[0], _Subspace):
            raise ValidationError("E must be a single linear subspace")
        if action is not None:
            if action.d != Y.n:
                raise ValidationError("action dimension does not match the sets")
            check_invariance(Y, action)
            check_invariance(E, action)
        X = Y.union(E)
        with warnings.catch_warnings():
            # truncation at the set itself is inherent; evaluation clamps or
            # raises instead
            warnings.simplefilter("ignore", CoverageWarning)
            dec = whitney_decompose(X, bbox, min_depth=_MIN_DEPTH, max_depth=max_depth)
        if dec.count:
            centers = dec.centers()
            rstar = (9.0 / 16.0) * dec.diam()
            in_u = E.dist_many(centers) + rstar < Y.dist_many(centers) - rstar
        else:
            in_u = np.zeros(0, dtype=bool)
        collar = 2.0 * math.sqrt(X.n) * dec.side0 * 2.0 ** (-dec.max_depth)
        return cls(Y=Y, E=E, X=X, action=action, dec=dec, in_u=in_u, collar=collar)

    @property
    def dimension(self) -> int:
        return self.X.n

    def dist(self, x) -> float:
        return self.X.dist(x)

    def partition_sum(self, x) -> float:
        """Sum of cube bumps at x; between 1 and 12^n on covered points."""
        x = self._check_box(x)
        return float(self._star_sums(x)[0, 0])

    def _check_box(self, pts):
        # the rows of pts as an array; ValidationError for the first one the
        # box does not hold
        pts = np.asarray(pts, dtype=float).reshape(-1, self.dimension)
        out = ~self._in_box(pts)
        if out.any():
            raise self._box_error(pts[out.argmax()])
        return pts

    def _in_box(self, pts):
        # false for non-finite coordinates too
        lo0, side0 = self.dec.lo0, self.dec.side0
        return np.all((pts >= lo0) & (pts < lo0 + side0), axis=1)

    @staticmethod
    def _box_error(x):
        if not np.all(np.isfinite(x)):
            return ValidationError(f"query has a non-finite coordinate: {x.tolist()}")
        return ValidationError("query outside the decomposition box")

    def _star_sums(self, pts, jets=False):
        """phi_total, phi_U and the diameter part at each row of pts, (3, P);
        with jets, a tuple that adds their gradients (3, P, n) and Hessians
        (3, P, n, n), from the same cube terms in the same pass.

        Each row adds its cube terms in the order of the per-point sum --
        depth ascending, then neighbor offsets in ``itertools.product``
        order -- so its sums do not depend on the batch it came in.  Only
        the candidates that hold a cube are added: an absent one would add
        an exact zero, and so would its derivatives, since a candidate left
        out lies past the end of its bump.
        """
        dec = self.dec
        n = self.dimension
        # per row and sum: the value, then the gradient, then the Hessian
        width = 1 + n + n * n if jets else 1
        sums = np.zeros((3, width, len(pts)))
        cells = len(dec.depths) * 3 ** n
        side = np.repeat(dec.depth_sides, 3 ** n)
        cube_diam = side * math.sqrt(n)
        step = max(1, _BATCH_CELLS // max(cells, 1))
        for start in range(0, len(pts), step):
            x = pts[start:start + step]
            idx = dec.star_candidates(x)
            rows, cols = np.nonzero(idx >= 0)
            if not len(rows):
                continue
            i, s = idx[rows, cols], side[cols]
            center = dec.lo0 + (dec.coords[i] + 0.5) * s[:, None]
            t = (x[rows] - center) / s[:, None]
            if jets:
                phi, g, h = _bump_rows(t, s)
                parts = np.concatenate([phi[:, None], g, h.reshape(-1, n * n)], axis=1)
            else:
                parts = _bump_rows(t)[:, None]
            # every cube adds to phi_total, and to phi_U or, times its
            # diameter, to the diameter part
            u = self.in_u[i]
            bins = np.concatenate([3 * rows, 3 * rows + np.where(u, 1, 2)])
            weights = np.concatenate(
                [parts, np.where(u[:, None], parts, cube_diam[cols][:, None] * parts)]).T
            # np.nonzero lists each row's cubes together, in column order, and
            # bincount adds each bin's weights left to right
            for c, w in enumerate(weights):
                sums[:, c, start:start + len(x)] = np.bincount(
                    bins, w, minlength=3 * len(x)).reshape(-1, 3).T
        if not jets:
            return sums[:, 0]
        return (sums[:, 0], np.moveaxis(sums[:, 1:1 + n], 1, -1),
                np.moveaxis(sums[:, 1 + n:], 1, -1).reshape(3, len(pts), n, n))

    def _raw_values(self, pts, jets=False):
        """The quotient construction at each row of pts, before averaging;
        with jets, a tuple that adds its exact gradients and Hessians.

        Rows are taken in order: the first one outside the box or in the
        unresolved collar next to Y raises, as a point-by-point loop would.
        Rows on the set keep zero derivatives.  Where the value is the
        distance to E -- the clamp and the rows no diameter term reaches --
        so are the derivatives: a cube off U adds nothing there, and with
        its bump's derivatives, which vanish where the bump does.  The
        other covered rows take the quotient rule on
        (diam_part + d_E phi_U) / phi_total.
        """
        ok = self._in_box(pts)
        x = pts[ok]
        d_x = self.X.dist_many(x)
        d_e = self.E.dist_many(x)
        off = d_x > _MEMBERSHIP_TOL
        cov = off & (self.dec.locate_many(x) >= 0)
        # unresolved collar next to the set: where E is strictly the nearest
        # part we are inside the coincidence region and may return the exact
        # distance
        clamp = off & ~cov & (d_e < self.Y.dist_many(x)) & (d_x <= self.collar)
        bad = np.ones(len(pts), dtype=bool)
        bad[ok] = off & ~cov & ~clamp
        if bad.any():
            first = int(bad.argmax())
            if not ok[first]:
                raise self._box_error(pts[first])
            raise ResolutionError(
                "query sits in the unresolved collar next to the set; raise max_depth")
        # every row is in the box from here on, so x is pts
        out = np.where(clamp, d_e, 0.0)
        sums = self._star_sums(x[cov], jets)
        total, phi_u, diam_part = sums[0] if jets else sums
        # where every active cube carries the exact distance to E the
        # quotient collapses to it
        out[cov] = np.where(diam_part == 0.0, d_e[cov], (diam_part + d_e[cov] * phi_u) / total)
        if not jets:
            return out
        n = self.dimension
        grads, hessians = np.zeros((len(x), n)), np.zeros((len(x), n, n))
        q = diam_part != 0.0
        quot = np.flatnonzero(cov)[q]
        e_rows = off.copy()
        e_rows[quot] = False
        dist_jets = self.E.primitives[0].dist_jets
        grads[e_rows], hessians[e_rows] = dist_jets(x[e_rows], d_e[e_rows])
        (g_t, g_u, g_d), (h_t, h_u, h_d) = sums[1][:, q], sums[2][:, q]
        phi, u, v, de = total[q], phi_u[q], out[quot], d_e[quot]
        g_e, h_e = dist_jets(x[quot], de)
        # numerator N = diam_part + d_E phi_U, then (N / phi)'s derivatives
        g_n = g_d + u[:, None] * g_e + de[:, None] * g_u
        h_n = (h_d + u[:, None, None] * h_e + _outer(g_e, g_u) + _outer(g_u, g_e)
               + de[:, None, None] * h_u)
        g_v = (g_n - v[:, None] * g_t) / phi[:, None]
        grads[quot] = g_v
        hessians[quot] = (h_n - v[:, None, None] * h_t - _outer(g_v, g_t)
                          - _outer(g_t, g_v)) / phi[:, None, None]
        return out, grads, hessians

    def raw_value(self, x) -> float:
        """The quotient construction before group averaging."""
        x = np.asarray(x, dtype=float).reshape(1, self.dimension)
        return float(self._raw_values(x)[0])

    def _averaged(self, pts, jets=False):
        # the group mean of the raw construction over each row's orbit, by
        # lochom._orbit_average; the values alone read the same images
        n = self.dimension
        pts = np.asarray(pts, dtype=float).reshape(-1, n)
        if self.action is None or self.action.is_trivial:
            return self._raw_values(pts, jets)
        A, k = self.action.matrix, self.action.k
        if jets:
            raw = CallableFunction(n, lambda Z: self._raw_values(Z, True))
            return _orbit_average(raw, A, k).jet(pts)
        raw = self._raw_values(_orbit(pts, A, k)).reshape(len(pts), k)
        return sum(raw[:, j] for j in range(k)) / k

    def values(self, pts) -> np.ndarray:
        """Group-averaged value at each row of pts, in one batched pass.

        >>> y = ClosedSetSpec.points([[0.0, 1.0], [0.0, -1.0]])
        >>> e = ClosedSetSpec.subspace(2, [[1.0, 0.0]])
        >>> f = RegularizedDistance.build(y, e, max_depth=6)
        >>> f.values([[0.5, 0.25], [-0.75, -0.125]]).tolist()
        [0.25, 0.125]
        """
        return self._averaged(pts)

    def value(self, x) -> float:
        return float(self.values(np.asarray(x, dtype=float)[None, :])[0])

    def grad(self, x) -> np.ndarray:
        return self.jets(np.asarray(x, dtype=float)[None, :])[1][0]

    def hess(self, x) -> np.ndarray:
        return self.jets(np.asarray(x, dtype=float)[None, :])[2][0]

    def jets(self, queries):
        """Values with their exact gradients and Hessians at each query, in
        one batched pass over each query's orbit; the values are those of
        ``values``, and each row's jets do not depend on its batch.

        >>> y = ClosedSetSpec.points([[0.0, 1.0], [0.0, -1.0]])
        >>> e = ClosedSetSpec.subspace(2, [[1.0, 0.0]])
        >>> f = RegularizedDistance.build(y, e, max_depth=6)
        >>> vals, grads, hessians = f.jets([[0.5, 0.25]])
        >>> vals.tolist(), grads.tolist(), hessians.tolist()
        ([0.25], [[0.0, 1.0]], [[[0.0, 0.0], [0.0, 0.0]]])
        """
        return self._averaged(queries, jets=True)


def _outer(a, b):
    # a_i b_j for every row of a and b
    return a[:, :, None] * b[:, None, :]


@dataclass
class RegdistResult:
    """Values, gradients and Hessians at the queries, with the measured
    constants of the derivative bounds over the queries off the set:
    c1 = max |grad|, and c2 = the maximum over those queries of
    dist * max |Hessian entry| at the query, the scaled Hessian that a
    regularized distance bounds independently of the set."""

    values: np.ndarray
    grads: np.ndarray
    hessians: np.ndarray
    inside: np.ndarray
    func: RegularizedDistance
    c1: float
    c2: float


def regularized_distance(Y: ClosedSetSpec, E: ClosedSetSpec, action=None, queries=(),
                         bbox=(-2.0, 2.0), max_depth=None) -> RegdistResult:
    """Build the function and evaluate it with its exact derivatives.

    Queries on the set itself report value zero with zero derivatives and
    the inside flag set; the others are evaluated together by
    ``RegularizedDistance.jets``.
    """
    func = RegularizedDistance.build(Y, E, action=action, bbox=bbox, max_depth=max_depth)
    n = func.dimension
    queries = np.asarray(queries, dtype=float).reshape(-1, n)
    finite = np.all(np.isfinite(queries), axis=1)
    if not finite.all():
        raise func._box_error(queries[(~finite).argmax()])
    m = len(queries)
    values = np.zeros(m)
    grads = np.zeros((m, n))
    hessians = np.zeros((m, n, n))
    dist = func.X.dist_many(queries)
    inside = dist <= _MEMBERSHIP_TOL
    off = ~inside
    values[off], grads[off], hessians[off] = func.jets(queries[off])
    c1 = np.linalg.norm(grads[off], axis=1).max(initial=0.0)
    c2 = (dist[off] * np.abs(hessians[off]).max(axis=(1, 2), initial=0.0)).max(initial=0.0)
    return RegdistResult(values=values, grads=grads, hessians=hessians,
                         inside=inside, func=func, c1=float(c1), c2=float(c2))
