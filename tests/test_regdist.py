"""Whitney cube decompositions and regularized distance functions."""
import dataclasses
import doctest
import itertools
import json
import math
import warnings

import numpy as np
import pytest

from equimorse import regdist
from equimorse.errors import ResolutionError, ValidationError
from equimorse.lochom import CyclicAction
from equimorse.regdist import (
    ClosedSetSpec,
    CoverageWarning,
    RegularizedDistance,
    regularized_distance,
    whitney_decompose,
)
from fd_oracle import assert_jets_match, pointwise, richardson_jets

# One constant certifies both derivative bounds |grad| <= M and
# |hess| <= M / dist across the whole query catalog below, the c1 and c2 of
# regularized_distance.  Measured once on the frozen seeds (grad 22.8,
# scaled hess 3704, the same from the exact jets as from the differences
# they replaced), then fixed with headroom; the scale of the hessian term
# comes from the narrow bump ramp.
CATALOG_M = 8000.0


def rotation(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def x_axis():
    return ClosedSetSpec.subspace(2, [[1.0, 0.0]])


def far_pair():
    # obstacle far outside the working box: the whole box is in the
    # coincidence region of the axis
    y = ClosedSetSpec.points([[50.0, 50.0]])
    return y, x_axis()


def two_point_pair():
    y = ClosedSetSpec.points([[1.0, 0.0], [-1.0, 0.0]])
    return y, x_axis()


def orbit_pair():
    # three points in one rotation orbit, distance measured to the origin
    r = rotation(2.0 * math.pi / 3.0)
    p = np.array([1.2, 0.0])
    y = ClosedSetSpec.points([p, r @ p, r @ r @ p])
    e = ClosedSetSpec.subspace(2, [])
    return y, e, CyclicAction(r, 3)


def usable(func, q, hi=1.9, clear=0.05):
    # clear of the set, with the whole orbit inside the box, which group
    # averaging needs
    mats = [np.eye(func.dimension)]
    if func.action is not None:
        for _ in range(func.action.k - 1):
            mats.append(func.action.matrix @ mats[-1])
    return func.dist(q) >= clear and all(np.max(np.abs(m @ q)) <= hi for m in mats)


def interior_queries(rng, func, count, lo=-1.9, hi=1.9, clear=0.05):
    out = []
    while len(out) < count:
        q = rng.uniform(lo, hi, size=func.dimension)
        if usable(func, q, hi, clear):
            out.append(q)
    return np.array(out)


def _derivative_catalog():
    y, e = far_pair()
    yield RegularizedDistance.build(y, e, bbox=(-2.0, 2.0), max_depth=8)
    y, e = two_point_pair()
    a = CyclicAction(np.diag([1.0, -1.0]), 2)
    yield RegularizedDistance.build(y, e, action=a, bbox=(-2.0, 2.0), max_depth=9)
    y, e, a = orbit_pair()
    yield RegularizedDistance.build(y, e, action=a, bbox=(-2.0, 2.0), max_depth=8)


def with_extra_cube(dec, depth, coords):
    """Copy of dec with one appended cube, for the property checker."""
    return regdist.WhitneyDecomposition(
        X=dec.X, lo0=dec.lo0, side0=dec.side0,
        coords=np.vstack([dec.coords, np.asarray(coords, dtype=np.int64)[None, :]]),
        depth=np.append(dec.depth, int(depth)), truncated=dec.truncated,
        uncovered_cells=dec.uncovered_cells, max_depth=dec.max_depth)


def locate(dec, x):
    """Index of the cube whose half-open box contains x, or None."""
    i = int(dec.locate_many(x)[0])
    return None if i < 0 else i


def tilted_pair():
    # the diagonal line with two points swapped by the reflection across it
    y = ClosedSetSpec.points([[1.0, -1.0], [-1.0, 1.0]])
    e = ClosedSetSpec.subspace(2, [[1.0, 1.0]])
    return y, e, CyclicAction(np.array([[0.0, 1.0], [1.0, 0.0]]), 2)


def slab_pair():
    y = ClosedSetSpec.points([[0.0, 0.0, 1.2], [0.0, 0.0, -1.2]])
    e = ClosedSetSpec.subspace(3, [[1.0, 0, 0], [0, 1.0, 0]])
    return y, e, CyclicAction(np.diag([1.0, 1.0, -1.0]), 2)


# -- point-by-point oracle ------------------------------------------------
# The construction one point and one cube at a time: a dict of cells per
# depth and the scalar bump profile.  The batched values must reproduce it
# bit for bit.  Its derivatives are central differences of single values,
# extrapolated from steps h and h/2, which the exact jets must match
# (fd_oracle.assert_jets_match).  The extrapolation cancels the h^2 term
# only where the function is smooth across the stencil: not within a step
# of the profile's ends, where its third derivative jumps.

FD_STEP = 1e-4
_S_LO, _S_HI = 0.5, 0.55


def _profile(t):
    a = abs(t)
    if a >= _S_HI:
        return 0.0
    if a <= _S_LO:
        return 1.0
    u = (_S_HI - a) / (_S_HI - _S_LO)
    return u * u * u * (10.0 - 15.0 * u + 6.0 * u * u)


def _bump(u):
    out = 1.0
    for t in u:
        v = _profile(float(t))
        if v == 0.0:
            return 0.0
        out *= v
    return out


class PointwiseOracle:
    def __init__(self, func):
        self.func = func
        self.dec = dec = func.dec
        self.index = {}
        for i in range(dec.count):
            table = self.index.setdefault(int(dec.depth[i]), {})
            table[tuple(int(v) for v in dec.coords[i])] = i

    def locate(self, x):
        for j, table in self.index.items():
            s = self.dec.side0 * 2.0 ** (-j)
            i = table.get(tuple(int(v) for v in np.floor((x - self.dec.lo0) / s)))
            if i is not None:
                return i
        return None

    def star_cubes(self, x):
        dec, out = self.dec, []
        for j, table in self.index.items():
            s = dec.side0 * 2.0 ** (-j)
            base = np.floor((x - dec.lo0) / s).astype(int)
            for off in itertools.product((-1, 0, 1), repeat=dec.n):
                i = table.get(tuple(base + np.array(off)))
                if i is None:
                    continue
                center = dec.lo0 + (dec.coords[i] + 0.5) * s
                if np.max(np.abs(x - center)) < (9.0 / 16.0) * s:
                    out.append(i)
        return out

    def _phi(self, x, i):
        s = self.dec.side[i]
        return _bump((x - (self.dec.lo0 + (self.dec.coords[i] + 0.5) * s)) / s), s

    def partition_sum(self, x):
        total = 0.0
        for i in self.star_cubes(x):
            total += self._phi(x, i)[0]
        return total

    def raw_value(self, x):
        func = self.func
        if func.X.dist(x) <= 1e-12:
            return 0.0
        if self.locate(x) is None:
            if func.E.dist(x) < func.Y.dist(x) and func.X.dist(x) <= func.collar:
                return func.E.dist(x)
            raise ResolutionError("unresolved collar")
        phi_total = phi_u = diam_part = 0.0
        for i in self.star_cubes(x):
            phi, s = self._phi(x, i)
            if phi == 0.0:
                continue
            phi_total += phi
            if func.in_u[i]:
                phi_u += phi
            else:
                diam_part += s * math.sqrt(self.dec.n) * phi
        if diam_part == 0.0:
            return func.E.dist(x)
        return (diam_part + func.E.dist(x) * phi_u) / phi_total

    def orbit(self, x):
        action = self.func.action
        out = [np.asarray(x, dtype=float)]
        if action is not None and not action.is_trivial:
            for _ in range(action.k - 1):
                out.append(action.matrix @ out[-1])
        return out

    def value(self, x):
        images, total = self.orbit(x), 0.0
        for z in images:
            total += self.raw_value(z)
        return total / len(images)

    def kink_distance(self, x):
        """Distance from the orbit of x to the nearest end of a bump ramp,
        |t| = _S_LO or _S_HI on some axis of a cube whose star holds the
        image; a cube outside the star is 1/80 of its side short of its
        bump at the least."""
        dec, out = self.dec, math.inf
        for z in self.orbit(x):
            for i in self.star_cubes(z):
                s = dec.side[i]
                a = np.abs(z - (dec.lo0 + (dec.coords[i] + 0.5) * s))
                out = min(out, np.abs(a - _S_LO * s).min(), np.abs(a - _S_HI * s).min(),
                          (9.0 / 16.0 - _S_HI) * s)
        return out

    def jets(self, pts):
        return richardson_jets(pointwise(self.value), pts, FD_STEP)


def smooth_rows(oracle, pts, h=FD_STEP):
    # rows whose stencil, each of its points within sqrt(n) h of the row and
    # of each image, keeps clear of every ramp end
    return np.array([oracle.kink_distance(p) > 2.0 * h for p in pts], dtype=bool)


def _oracle_case(name):
    # the orbit and tilted cases use boxes whose corner and side are not
    # dyadic, so cube centers round differently under other arithmetic
    if name == "far":
        y, e = far_pair()
        return RegularizedDistance.build(y, e, max_depth=8)
    if name == "two-point":
        y, e = two_point_pair()
        a = CyclicAction(np.diag([1.0, -1.0]), 2)
        return RegularizedDistance.build(y, e, action=a, max_depth=8)
    if name == "orbit":
        y, e, a = orbit_pair()
        return RegularizedDistance.build(y, e, action=a, bbox=(-1.97, 2.03), max_depth=8)
    if name == "tilted":
        y, e, a = tilted_pair()
        return RegularizedDistance.build(y, e, action=a, bbox=(-1.95, 1.96), max_depth=8)
    y, e, a = slab_pair()
    return RegularizedDistance.build(y, e, action=a, max_depth=6)


def brute_force_touching(dec):
    """Per-cube count of touching cubes and the largest depth gap between
    touching cubes, from every pair of closed boxes on the finest grid."""
    scale = np.left_shift(1, dec.depth.max() - dec.depth)
    lo = dec.coords * scale[:, None]
    hi = lo + scale[:, None]
    counts = np.zeros(dec.count, dtype=np.int64)
    gap = 0
    for i in range(dec.count):
        touch = np.all((lo[i] <= hi) & (lo <= hi[i]), axis=1)
        touch[i] = False
        counts[i] = touch.sum()
        if touch.any():
            gap = max(gap, int(np.abs(dec.depth[touch] - dec.depth[i]).max()))
    return counts, gap


def _scan_case(name):
    if name == "slab":
        y, e, a = slab_pair()
        return RegularizedDistance.build(y, e, action=a, max_depth=4).dec
    sets = {
        "point-1d": (ClosedSetSpec.points([[0.0]]), 7),
        "points-1d": (ClosedSetSpec.points([[0.3], [-0.55]]), 9),
        "axis-2d": (x_axis(), 6),
        "diagonal-2d": (ClosedSetSpec.subspace(2, [[1.0, 1.0]]), 6),
        "ball-and-point-2d": (ClosedSetSpec.ball([0.1, 0.2], 0.4).union(
            ClosedSetSpec.points([[-0.6, 0.5]])), 6),
        "tilted-plane-3d": (ClosedSetSpec.subspace(3, [[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]]), 4),
        "point-3d": (ClosedSetSpec.points([[0.0, 0.0, 0.0]]), 4),
    }
    x, max_depth = sets[name]
    with pytest.warns(CoverageWarning):
        return whitney_decompose(x, (-1.0, 1.0), max_depth=max_depth)


def origin_complement(n, max_depth):
    with pytest.warns(CoverageWarning):
        return whitney_decompose(ClosedSetSpec.points([[0.0] * n]), (-1.0, 1.0),
                                 max_depth=max_depth)


def three_levels_below(dec):
    """A finest cube i and a copy of dec with one more cube three levels
    finer, just below the low face of cube i on the first axis and outside
    every cube."""
    for i in np.flatnonzero(dec.depth == dec.depth.max()):
        coords = 8 * dec.coords[i]
        coords[0] -= 1
        extra = with_extra_cube(dec, depth=dec.depth[i] + 3, coords=coords)
        if locate(dec, extra.centers()[-1]) is None:
            return i, extra
    pytest.fail("no free cell next to a finest cube")


def extra_cube_faults(dec):
    """Depth pairs (finer, coarser) at which the last cube overlaps another
    or touches, without overlap, one more than two levels apart, from its box and every other
    box on the finest grid; the other cubes passed ``check`` together, so
    every fault involves the last one."""
    scale = np.left_shift(1, dec.depth.max() - dec.depth)
    lo = dec.coords * scale[:, None]
    hi = lo + scale[:, None]
    others = np.arange(dec.count) < dec.count - 1
    overlap = np.all((lo[-1] < hi) & (lo < hi[-1]), axis=1) & others
    touch = np.all((lo[-1] <= hi) & (lo <= hi[-1]), axis=1) & others
    far = touch & ~overlap & (np.abs(dec.depth - dec.depth[-1]) > 2)
    faults = {}
    for mask, kind in ((overlap, "disjoint"), (far, "factor of four")):
        for d in np.unique(dec.depth[mask]).tolist():
            pair = (max(d, int(dec.depth[-1])), min(d, int(dec.depth[-1])))
            faults.setdefault(pair, set()).add(kind)
    return faults


def scan_error(faults):
    """The message the touching scan must raise for these faults: the first
    depth pair decides, and an overlap there beats a far pair."""
    first = faults[min(faults)]
    return "disjoint" if "disjoint" in first else "factor of four"


_SCAN_CASES = ["point-1d", "points-1d", "axis-2d", "diagonal-2d", "ball-and-point-2d", "slab",
               "tilted-plane-3d", "point-3d"]


def doctored_cases():
    """Decompositions with one or two extra cubes in the box, each of which
    the touching scan refuses, named by what they hold."""
    cases = {}
    for n in (1, 2, 3):
        dec = origin_complement(n, max_depth=4)
        keys = dec._cell_keys(dec.coords, dec.depth)
        for i in (int(keys.argmin()), int(keys.argmax()), int(dec.depth.argmax())):
            cases[f"twin-{n}d-{i}"] = with_extra_cube(dec, dec.depth[i], dec.coords[i])
        i, far = three_levels_below(dec)
        cases[f"far-{n}d"] = far
        cases[f"far-and-inside-{n}d"] = with_extra_cube(
            far, far.depth[-1], 8 * dec.coords[i] + 3)
        cases[f"far-and-twin-{n}d"] = with_extra_cube(far, far.depth[-1], far.coords[-1])
    for n in (2, 3):
        dec = origin_complement(n, max_depth=5)
        i = int(np.flatnonzero(np.all(dec.lo_corners() == dec.side[:, None], axis=1))[0])
        cases[f"corner-inside-{n}d"] = with_extra_cube(dec, dec.depth[i] + 2, 4 * dec.coords[i])
    cases["inside-1d"] = with_extra_cube(origin_complement(1, max_depth=6), 3, (6,))
    return cases


def both_routes(dec, monkeypatch):
    """dec rebuilt with its dense cell table and, with the table's gate at
    zero, with the sorted keys."""
    table = dataclasses.replace(dec)
    with monkeypatch.context() as m:
        m.setattr(regdist, "_TABLE_KEYS", 0)
        searched = dataclasses.replace(dec)
    assert table._table is not None and searched._table is None
    return table, searched


def scan_outcome(dec):
    """The neighbor counts and the largest gap, or the scan's error text."""
    try:
        dec._touching_scan()
    except ValidationError as exc:
        return str(exc)
    return dec._neighbor_counts()


class TestClosedSetSpec:
    def test_ball_distance_and_membership(self):
        s = ClosedSetSpec.ball([0.0, 0.0], 1.0)
        assert s.dist([2.0, 0.0]) == pytest.approx(1.0, abs=1e-15)
        assert s.dist([0.5, 0.0]) == 0.0
        assert s.contains([0.5, 0.0])
        assert not s.contains([2.0, 0.0])

    def test_point_set_distance(self):
        s = ClosedSetSpec.points([[1.0, 0.0], [-1.0, 0.0]])
        assert s.dist([0.0, 0.0]) == pytest.approx(1.0, abs=1e-15)
        assert s.dist([1.0, 1.0]) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_point_set_distances_are_bitwise_the_row_sums(self, n):
        rng = np.random.default_rng(30 + n)
        centers = rng.normal(size=(4, n))
        centers[0] = -0.0
        pts = rng.uniform(-3.0, 3.0, size=(600, n))
        pts[:100] *= 1e6
        pts[100:200, 0] = -0.0
        lo = rng.uniform(-3.0, 3.0, size=(600, n))
        hi = lo + rng.uniform(0.0, 2.0, size=(600, n))
        lo[:100] += 1e7
        hi[:100] += 1e7
        lo[100:200], hi[100:200] = -0.0, 0.0
        lo[200:300, -1], hi[200:300, -1] = -0.0, -0.0
        # the row-sum form the column arithmetic replaces
        want_many = np.full(len(pts), np.inf)
        want_box = np.full(len(lo), np.inf)
        for p in centers:
            want_many = np.minimum(want_many, np.sqrt(((pts - p) ** 2).sum(axis=1)))
            want_box = np.minimum(want_box, np.sqrt(((np.clip(p, lo, hi) - p) ** 2).sum(axis=1)))
        (prim,) = ClosedSetSpec.points(centers).primitives
        for got, want in ((prim.dist_many(pts), want_many), (prim.dist_box(lo, hi), want_box)):
            assert np.array_equal(got, want)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_axis_subspace_distance_is_exact(self):
        e = x_axis()
        assert e.dist([0.3, -0.7]) == 0.7
        plane = ClosedSetSpec.subspace(3, [[1.0, 0, 0], [0, 1.0, 0]])
        assert plane.dist([0.4, -2.0, 0.25]) == 0.25

    def test_tilted_subspace_distance(self):
        line = ClosedSetSpec.subspace(2, [[1.0, 1.0]])
        assert line.dist([1.0, 0.0]) == pytest.approx(1.0 / math.sqrt(2.0))

    def test_zero_subspace_is_the_origin(self):
        z = ClosedSetSpec.subspace(2, [])
        assert z.dist([3.0, 4.0]) == pytest.approx(5.0)

    def test_union_takes_the_minimum(self):
        s = ClosedSetSpec.ball([2.0, 0.0], 0.5).union(x_axis())
        assert s.dist([2.0, 0.3]) == 0.0
        assert s.dist([2.0, 1.0]) == pytest.approx(0.5)
        assert s.dist([0.0, 0.2]) == pytest.approx(0.2)

    def test_box_distance_matches_dense_sampling(self):
        rng = np.random.default_rng(3)
        specs = [
            ClosedSetSpec.ball([0.3, -0.2], 0.4),
            ClosedSetSpec.points([[1.0, 0.5], [-0.5, -0.5]]),
            x_axis(),
            ClosedSetSpec.subspace(2, [[1.0, 1.0]]),
        ]
        grid = np.linspace(0.0, 1.0, 41)
        gx, gy = np.meshgrid(grid, grid)
        unit = np.column_stack([gx.ravel(), gy.ravel()])
        for spec in specs:
            for _ in range(12):
                lo = rng.uniform(-1.5, 1.0, size=2)
                side = rng.uniform(0.1, 0.8)
                hi = lo + side
                pts = lo + unit * side
                dense = spec.dist_many(pts).min()
                exact = float(spec.dist_box(lo[None, :], hi[None, :])[0])
                assert exact <= dense + 1e-12
                assert dense - exact <= 2.0 * side / 40.0

    def test_invariant_set_accepts_its_action(self):
        a = CyclicAction(np.diag([1.0, -1.0]), 2)
        ClosedSetSpec.points([[1.0, 0.0], [-1.0, 0.0]], action=a)

    def test_non_invariant_set_is_rejected(self):
        a = CyclicAction(np.diag([1.0, -1.0]), 2)
        with pytest.raises(ValidationError, match="not invariant"):
            ClosedSetSpec.points([[1.0, 0.5]], action=a)

    def test_box_containment(self):
        big = ClosedSetSpec.ball([0.0, 0.0], 10.0)
        lo = np.array([[-1.0, -1.0]])
        hi = np.array([[1.0, 1.0]])
        assert bool(big.contains_box(lo, hi)[0])
        assert not bool(x_axis().contains_box(lo, hi)[0])

    def test_set_spec_round_trips_through_json(self):
        a = CyclicAction(np.diag([1.0, -1.0]), 2)
        s = ClosedSetSpec.points([[1.0, 0.0], [-1.0, 0.0]], action=a)
        s = s.union(ClosedSetSpec.ball([0.0, 0.0], 0.25))
        blob = json.dumps(s.to_json())
        back = ClosedSetSpec.from_json(json.loads(blob))
        rng = np.random.default_rng(5)
        pts = rng.uniform(-2, 2, size=(40, 2))
        assert np.allclose(back.dist_many(pts), s.dist_many(pts), atol=1e-14)

    def test_tube_distance_and_containment(self):
        t = ClosedSetSpec.tube(2, [[1.0, 0.0]], 0.25)
        assert t.dist([0.3, 0.75]) == pytest.approx(0.5, abs=1e-15)
        assert t.dist([0.3, 0.1]) == 0.0
        assert t.contains([0.4, -0.2])
        lo = np.array([[-1.0, -0.1]])
        hi = np.array([[1.0, 0.1]])
        assert bool(t.contains_box(lo, hi)[0])
        hi_tall = np.array([[1.0, 0.3]])
        assert not bool(t.contains_box(lo, hi_tall)[0])
        assert t.dist_box(lo, hi_tall)[0] == 0.0
        off = ClosedSetSpec.tube(2, [[1.0, 0.0]], 0.25)
        far_lo = np.array([[-1.0, 0.5]])
        far_hi = np.array([[1.0, 0.8]])
        assert off.dist_box(far_lo, far_hi)[0] == pytest.approx(0.25, abs=1e-15)
        # a tube around the zero subspace is a ball about the origin
        ball = ClosedSetSpec.tube(2, [], 0.5)
        assert ball.dist([3.0, 4.0]) == pytest.approx(4.5, abs=1e-14)

    def test_tube_round_trips_and_decomposes(self):
        t = ClosedSetSpec.tube(2, [[1.0, 0.0]], 0.25)
        back = ClosedSetSpec.from_json(json.loads(json.dumps(t.to_json())))
        rng = np.random.default_rng(11)
        pts = rng.uniform(-2, 2, size=(50, 2))
        assert np.allclose(back.dist_many(pts), t.dist_many(pts), atol=1e-14)
        with pytest.warns(CoverageWarning):
            dec = whitney_decompose(t, (-1.0, 1.0), max_depth=6)
        report = dec.check(samples=300, seed=4)
        assert report["sample_misses"] == 0
        assert dec.truncated


class TestWhitneyDecompose:
    def test_point_complement_is_the_dyadic_interval_ladder(self):
        x = ClosedSetSpec.points([[0.0]])
        with pytest.warns(CoverageWarning):
            dec = whitney_decompose(x, (-1.0, 1.0), max_depth=6)
        got = {(float(dec.corner(i)[0]), float(dec.side[i])) for i in range(dec.count)}
        want = set()
        for j in range(2, 7):
            s = 2.0 ** (1 - j)
            want.add((-2.0 * s, s))
            want.add((s, s))
        assert got == want
        assert dec.truncated
        # each interval sits at distance exactly one side length from 0
        d = dec.X.dist_box(dec.lo_corners(), dec.hi_corners())
        assert np.all(d == dec.diam())

    def test_axis_complement_stacks_congruent_bands(self):
        with pytest.warns(CoverageWarning):
            dec = whitney_decompose(x_axis(), (-1.0, 1.0), max_depth=7)
        assert dec.truncated
        counts = {}
        for j in sorted(set(dec.depth.tolist())):
            sel = dec.depth == j
            counts[j] = int(sel.sum())
            s = 2.0 ** (1 - j)
            cy = np.abs(dec.centers()[sel, 1]) / s
            # two bands per side, rows at |y| in [2s,3s) and [3s,4s)
            assert set(np.round(cy, 9).tolist()) == {2.5, 3.5}
            cols = dec.coords[sel, 0]
            assert set(cols.tolist()) == set(range(2 ** j))
        assert counts == {j: 2 ** (j + 2) for j in range(3, 8)}
        ratio = dec.X.dist_box(dec.lo_corners(), dec.hi_corners()) / dec.diam()
        values = set(np.round(ratio, 9).tolist())
        assert values == {
            round(math.sqrt(2.0), 9),
            round(3.0 / math.sqrt(2.0), 9),
        }

    def test_full_cover_produces_the_empty_decomposition(self):
        big = ClosedSetSpec.ball([0.0, 0.0], 10.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dec = whitney_decompose(big, (-1.0, 1.0), max_depth=6)
        assert dec.count == 0
        assert not dec.truncated

    def test_decomposition_properties_hold_in_three_dimensions(self):
        axis = ClosedSetSpec.subspace(3, [[0.0, 0.0, 1.0]])
        with pytest.warns(CoverageWarning):
            dec = whitney_decompose(axis, (-1.0, 1.0), max_depth=5)
        report = dec.check(samples=400, seed=1)
        assert report["cubes"] > 0
        assert report["neighbor_count_max"] <= 12 ** 3
        lo, hi = report["dist_diam_ratio"]
        assert lo >= 1.0 - 1e-9 and hi <= 4.0 + 1e-9
        lo, hi = report["neighbor_diam_ratio"]
        assert lo >= 0.25 and hi <= 4.0
        lo, hi = report["star_ratio"]
        assert lo >= 0.75 - 1e-9 and hi <= 6.0 + 1e-9
        assert report["sample_misses"] == 0

    def test_checker_catches_doctored_cubes(self):
        x = ClosedSetSpec.points([[0.0]])
        with pytest.warns(CoverageWarning):
            dec = whitney_decompose(x, (-1.0, 1.0), max_depth=6)
        # a depth-3 cube contained in the accepted depth-2 cube [0.5, 1)
        bad = with_extra_cube(dec, depth=3, coords=(6,))
        with pytest.raises(ValidationError, match="disjoint"):
            bad.check()
        # a cube closer to the set than its own diameter
        bad = with_extra_cube(dec, depth=2, coords=(1,))
        with pytest.raises(ValidationError, match="diameter"):
            bad.check()

    def test_checker_refuses_a_cube_outside_the_box(self):
        with pytest.warns(CoverageWarning):
            dec = whitney_decompose(ClosedSetSpec.points([[0.0]]), (-1.0, 1.0), max_depth=7)
        # [1, 2) at depth 1, past the top edge: its cell key is capped onto
        # the cell beside it, so only the box test sees it
        with pytest.raises(ValidationError, match="outside the decomposition box"):
            with_extra_cube(dec, 1, (2,)).check()
        with pytest.raises(ValidationError, match="outside the decomposition box"):
            with_extra_cube(dec, 1, (-1,)).check()

    @pytest.mark.parametrize("name", _SCAN_CASES)
    def test_touching_scan_matches_the_pairwise_scan(self, name):
        dec = _scan_case(name)
        counts, gap = brute_force_touching(dec)
        report = dec.check()
        assert gap > 0
        assert report["neighbor_count_max"] == counts.max()
        assert report["neighbor_diam_ratio"] == (2.0 ** -gap, 2.0 ** gap)
        got, got_gap = dec._neighbor_counts()
        assert np.array_equal(got, counts)
        assert got_gap == gap

    @pytest.mark.parametrize("n", [2, 3])
    def test_checker_catches_overlaps_the_windows_let_through(self, n):
        dec = origin_complement(n, max_depth=5)
        # the cube [s, 2s]^n lies exactly one diameter from the origin
        i = int(np.flatnonzero(np.all(dec.lo_corners() == dec.side[:, None], axis=1))[0])
        twin = with_extra_cube(dec, depth=dec.depth[i], coords=dec.coords[i])
        with pytest.raises(ValidationError, match="disjoint"):
            twin.check()
        # its corner cube two levels down, nearest the origin, sits exactly
        # four of its diameters away: both distance windows pass it
        inner = with_extra_cube(dec, depth=dec.depth[i] + 2, coords=4 * dec.coords[i])
        lo, hi = inner.lo_corners()[-1:], inner.hi_corners()[-1:]
        assert inner.X.dist_box(lo, hi)[0] == 4.0 * inner.diam()[-1]
        with pytest.raises(ValidationError, match="disjoint"):
            inner.check()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_touching_scan_refuses_cubes_three_levels_apart(self, n):
        # the distance windows refuse such a cube first, so the scan is
        # called by itself
        _, extra = three_levels_below(origin_complement(n, max_depth=4))
        with pytest.raises(ValidationError, match="factor of four"):
            extra._touching_scan()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_an_overlap_beats_a_far_pair_at_the_same_depth_pair(self, n):
        dec = origin_complement(n, max_depth=4)
        i, far = three_levels_below(dec)
        # three levels finer again, strictly inside cube i: it overlaps cube i
        # and nothing else, at the depth pair of the far pair
        both = with_extra_cube(far, depth=far.depth[-1], coords=8 * dec.coords[i] + 3)
        pair = (int(far.depth[-1]), int(dec.depth[i]))
        assert extra_cube_faults(far) == {pair: {"factor of four"}}
        assert extra_cube_faults(both) == {pair: {"disjoint"}}
        with pytest.raises(ValidationError, match="disjoint"):
            both._touching_scan()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_a_far_pair_beats_an_overlap_at_a_later_depth_pair(self, n):
        i, far = three_levels_below(origin_complement(n, max_depth=4))
        # a twin of the far cube overlaps it at the later pair (j, j)
        twin = with_extra_cube(far, depth=far.depth[-1], coords=far.coords[-1])
        j = int(far.depth[-1])
        assert extra_cube_faults(twin) == {(j, int(far.depth[i])): {"factor of four"},
                                           (j, j): {"disjoint"}}
        with pytest.raises(ValidationError, match="factor of four"):
            twin._touching_scan()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_a_twin_cube_is_an_overlap(self, n):
        dec = origin_complement(n, max_depth=4)
        # the first and last cubes in key order and a finest cube
        keys = dec._cell_keys(dec.coords, dec.depth)
        for i in (int(keys.argmin()), int(keys.argmax()), int(dec.depth.argmax())):
            twin = with_extra_cube(dec, depth=dec.depth[i], coords=dec.coords[i])
            with pytest.raises(ValidationError, match="disjoint"):
                twin._touching_scan()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_the_scan_of_one_extra_cube_matches_the_pairwise_oracle(self, n):
        x, max_depth = {
            1: (ClosedSetSpec.points([[0.3], [-0.55]]), 7),
            2: (ClosedSetSpec.ball([0.1, 0.2], 0.4).union(
                ClosedSetSpec.points([[-0.6, 0.5]])), 5),
            3: (ClosedSetSpec.points([[0.0, 0.0, 0.0]]), 3),
        }[n]
        with pytest.warns(CoverageWarning):
            dec = whitney_decompose(x, (-1.0, 1.0), max_depth=max_depth)
        rng = np.random.default_rng(40 + n)
        seen = set()
        for trial in range(45):
            if trial % 3 == 0:
                depth = int(rng.integers(0, max_depth + 4))
                coords = rng.integers(0, 2 ** depth, n)
            else:
                # a finer cube in the uncovered collar, where it may fit
                depth = max_depth + (int(rng.integers(1, 3)) if trial % 3 == 1 else 3)
                p = rng.uniform(-1.0, 1.0, n)
                while locate(dec, p) is not None:
                    p = rng.uniform(-1.0, 1.0, n)
                coords = np.floor((p + 1.0) * 2.0 ** (depth - 1)).astype(np.int64)
                if trial % 3 == 2:
                    # or, at a corner of its cell at max_depth, touch the
                    # cubes around that cell three levels up
                    coords = (coords >> 3 << 3) + 7 * rng.integers(0, 2, n)
            bad = with_extra_cube(dec, depth, coords)
            faults = extra_cube_faults(bad)
            if faults:
                seen.add(scan_error(faults))
                with pytest.raises(ValidationError, match=scan_error(faults)):
                    bad._touching_scan()
                continue
            seen.add("none")
            counts, gap = brute_force_touching(bad)
            got, got_gap = bad._neighbor_counts()
            assert np.array_equal(got, counts) and got_gap == gap
            assert bad._touching_scan() == {"neighbor_count_max": counts.max(),
                                            "neighbor_diam_ratio": (2.0 ** -gap, 2.0 ** gap)}
        assert seen == {"disjoint", "factor of four", "none"}

    def test_the_scan_of_the_empty_decomposition_reports_no_neighbors(self):
        dec = whitney_decompose(ClosedSetSpec.ball([0.0, 0.0], 10.0), (-1.0, 1.0))
        assert dec.count == 0
        scan = dec._touching_scan()
        assert scan == {"neighbor_count_max": 0, "neighbor_diam_ratio": (1.0, 1.0)}
        report = dec.check()
        assert {k: report[k] for k in scan} == scan

    @pytest.mark.parametrize("name", _SCAN_CASES + ["doctored"])
    def test_the_cell_table_and_the_sorted_keys_agree(self, name, monkeypatch):
        cases = doctored_cases() if name == "doctored" else {name: _scan_case(name)}
        rng = np.random.default_rng(47)
        for case, dec in cases.items():
            table, searched = both_routes(dec, monkeypatch)
            got, want = scan_outcome(table), scan_outcome(searched)
            assert isinstance(want, str) == (name == "doctored")
            if case.startswith("twin"):
                # the table holds one of the two cubes with the key; the other
                # finds it at its own cell
                assert got == want == "cubes are not pairwise disjoint"
            elif isinstance(want, str):
                assert got == want
            else:
                assert np.array_equal(got[0], want[0]) and got[1] == want[1]
            # points in the box and a margin around it, and every cube center
            side = dec.side0
            pts = np.vstack([rng.uniform(dec.lo0 - 0.1 * side, dec.lo0 + 1.1 * side,
                                         size=(300, dec.n)), dec.centers()])
            assert np.array_equal(table.locate_many(pts), searched.locate_many(pts))
            assert np.array_equal(table.star_candidates(pts), searched.star_candidates(pts))

    def test_the_cell_table_stays_within_its_gate(self, monkeypatch):
        # a key range one past the gate gets no table
        dec = _scan_case("point-3d")
        with monkeypatch.context() as m:
            m.setattr(regdist, "_TABLE_KEYS", dec._table.size - 1)
            assert dataclasses.replace(dec)._table is None
        for name in _SCAN_CASES:
            table = _scan_case(name)._table
            assert table is not None and table.size <= regdist._TABLE_KEYS
        # the 3-D pair at depth 6 packs 333,939 keys and gets its table; the
        # x-axis at the default 2-D depth 14 would need 358M keys
        y, e, a = slab_pair()
        assert RegularizedDistance.build(y, e, action=a, max_depth=6).dec._table.size == 333_939
        with pytest.warns(CoverageWarning):
            dec = whitney_decompose(x_axis(), (-1.0, 1.0))
        assert dec.max_depth == 14 and dec._table is None

    def test_point_location_and_star_lookup_match_brute_force(self):
        with pytest.warns(CoverageWarning):
            dec = whitney_decompose(x_axis(), (-1.0, 1.0), max_depth=4)
        rng = np.random.default_rng(11)
        pts = rng.uniform(-0.999, 0.999, size=(200, 2))
        lo = dec.lo_corners()
        hi = dec.hi_corners()
        centers = dec.centers()
        for q in pts:
            inside = np.all((lo <= q) & (q < hi), axis=1)
            want = int(np.flatnonzero(inside)[0]) if inside.any() else None
            assert locate(dec, q) == want
            support = np.all(
                np.abs(q - centers) < (9.0 / 16.0) * dec.side[:, None], axis=1
            )
            assert set(dec.star_cubes(q)) == set(np.flatnonzero(support).tolist())

    def test_coverage_sampling_locates_every_clear_point(self):
        with pytest.warns(CoverageWarning):
            dec = whitney_decompose(x_axis(), (-1.0, 1.0), max_depth=7)
        report = dec.check(samples=1500, seed=2)
        assert report["sample_misses"] == 0
        assert report["uncovered_cells"] == 2 ** 9


class TestRegularizedDistance:
    def test_far_obstacle_reduces_to_exact_axis_distance(self):
        y, e = far_pair()
        func = RegularizedDistance.build(y, e, bbox=(-2.0, 2.0), max_depth=8)
        rng = np.random.default_rng(7)
        qx = rng.uniform(-1.8, 1.8, size=200)
        qy = rng.uniform(0.05, 1.8, size=200) * rng.choice([-1.0, 1.0], size=200)
        for x, yv in zip(qx, qy):
            q = np.array([x, yv])
            assert func.value(q) == abs(yv)
            # every cube is in U, so the jets are the axis distance's own
            assert func.grad(q).tolist() == [0.0, math.copysign(1.0, yv)]
            assert not func.hess(q).any()

    def test_reflection_symmetric_construction_is_exactly_invariant(self):
        y, e = two_point_pair()
        a = CyclicAction(np.diag([1.0, -1.0]), 2)
        func = RegularizedDistance.build(y, e, action=a, bbox=(-2.0, 2.0), max_depth=8)
        rng = np.random.default_rng(9)
        for q in interior_queries(rng, func, 50):
            assert abs(func.value(a.matrix @ q) - func.value(q)) < 1e-10

    def test_rotation_symmetric_construction_is_invariant(self):
        y, e, a = orbit_pair()
        func = RegularizedDistance.build(y, e, action=a, bbox=(-2.0, 2.0), max_depth=8)
        rng = np.random.default_rng(13)
        for q in interior_queries(rng, func, 50):
            assert abs(func.value(a.matrix @ q) - func.value(q)) < 1e-10

    def test_comparability_constants_on_the_two_point_catalog(self):
        y, e = two_point_pair()
        a = CyclicAction(np.diag([1.0, -1.0]), 2)
        func = RegularizedDistance.build(y, e, action=a, bbox=(-2.0, 2.0), max_depth=9)
        rng = np.random.default_rng(17)
        queries = interior_queries(rng, func, 1000)
        dist = np.array([func.dist(q) for q in queries])
        vals = np.array([func.value(q) for q in queries])
        ratio = vals / dist
        c1, c2 = float(ratio.min()), float(ratio.max())
        assert 0.0 < c1 <= c2
        # proof-level bracket: delta/dist in [1/(6*12^N), (4/3)*12^N]
        assert c1 >= 1.0 / 864.0 - 1e-9
        assert c2 <= 192.0 + 1e-9

    def test_queries_on_the_set_return_zero_with_flag(self):
        y, e = two_point_pair()
        a = CyclicAction(np.diag([1.0, -1.0]), 2)
        res = regularized_distance(
            y, e, action=a, queries=[[0.7, 0.0], [1.0, 0.0], [0.3, 0.5]],
            bbox=(-2.0, 2.0), max_depth=8,
        )
        assert res.inside.tolist() == [True, True, False]
        assert res.values[0] == 0.0 and res.values[1] == 0.0
        assert np.all(res.grads[:2] == 0.0)
        assert res.values[2] > 0.0

    def test_collar_query_near_the_subspace_clamps_to_axis_distance(self):
        y, e = two_point_pair()
        func = RegularizedDistance.build(y, e, bbox=(-2.0, 2.0), max_depth=9)
        # below the finest cube layer but squarely in the coincidence region
        assert func.value(np.array([0.3, 0.004])) == 0.004

    def test_collar_query_next_to_the_obstacle_raises(self):
        y, e, a = orbit_pair()
        func = RegularizedDistance.build(y, e, action=a, bbox=(-2.0, 2.0), max_depth=8)
        with pytest.raises(ResolutionError, match="max_depth"):
            func.value(np.array([1.202, 0.001]))
        yb, eb = two_point_pair()
        fb = RegularizedDistance.build(yb, eb, bbox=(-2.0, 2.0), max_depth=9)
        with pytest.raises(ResolutionError, match="max_depth"):
            fb.value(np.array([1.0, 0.006]))

    def test_queries_outside_the_box_are_rejected(self):
        y, e = far_pair()
        func = RegularizedDistance.build(y, e, bbox=(-2.0, 2.0), max_depth=6)
        with pytest.raises(ValidationError, match="box"):
            func.value(np.array([2.5, 0.5]))

    def test_partition_of_unity_stays_in_its_band(self):
        y, e = two_point_pair()
        a = CyclicAction(np.diag([1.0, -1.0]), 2)
        func = RegularizedDistance.build(y, e, action=a, bbox=(-2.0, 2.0), max_depth=9)
        rng = np.random.default_rng(19)
        for q in interior_queries(rng, func, 300):
            phi = func.partition_sum(q)
            assert 1.0 - 1e-12 <= phi <= 144.0 + 1e-12

    def test_derivative_bounds_hold_with_one_constant(self):
        rng = np.random.default_rng(23)
        for func in _derivative_catalog():
            queries = interior_queries(rng, func, 120)
            res = regularized_distance(func.Y, func.E, action=func.action, queries=queries,
                                       max_depth=func.dec.max_depth)
            dist = np.array([func.dist(q) for q in queries])
            assert res.c1 == pytest.approx(max(np.linalg.norm(g) for g in res.grads), rel=1e-12)
            assert res.c2 == pytest.approx(
                max(d * np.abs(h).max() for d, h in zip(dist, res.hessians)), rel=1e-12)
            assert res.c1 <= CATALOG_M
            assert res.c2 <= CATALOG_M

    def test_three_dimensional_symmetric_pair(self):
        yv = ClosedSetSpec.points([[0.0, 0.0, 1.2], [0.0, 0.0, -1.2]])
        ev = ClosedSetSpec.subspace(3, [[1.0, 0, 0], [0, 1.0, 0]])
        a = CyclicAction(np.diag([1.0, 1.0, -1.0]), 2)
        func = RegularizedDistance.build(yv, ev, action=a, bbox=(-2.0, 2.0), max_depth=6)
        rng = np.random.default_rng(29)
        slab = []
        for _ in range(40):
            q = np.array([
                rng.uniform(-0.8, 0.8),
                rng.uniform(-0.8, 0.8),
                rng.uniform(0.15, 0.4) * (1 if rng.uniform() < 0.5 else -1),
            ])
            assert func.value(q) == abs(q[2])
            assert abs(func.value(a.matrix @ q) - func.value(q)) < 1e-12
            assert 1.0 - 1e-12 <= func.partition_sum(q) <= 12.0 ** 3 + 1e-12
            slab.append(q)
        res = regularized_distance(yv, ev, action=a, queries=slab, max_depth=6)
        assert np.array_equal(res.values, np.abs(np.array(slab)[:, 2]))

    def test_result_reports_values_and_derivatives_together(self):
        y, e = far_pair()
        res = regularized_distance(
            y, e, queries=[[0.2, 0.3], [-0.4, -0.6]], bbox=(-2.0, 2.0), max_depth=7,
        )
        assert res.values.shape == (2,)
        assert res.grads.shape == (2, 2)
        assert res.hessians.shape == (2, 2, 2)
        assert res.values[0] == 0.3
        assert res.values[1] == 0.6
        assert res.func.dimension == 2


class TestBatchedPath:
    @pytest.mark.parametrize("name", ["far", "two-point", "orbit", "tilted", "slab"])
    def test_batched_values_and_derivatives_match_the_pointwise_oracle(self, name):
        func = _oracle_case(name)
        oracle = PointwiseOracle(func)
        rng = np.random.default_rng(31)
        # clear=0.02 reaches into the bump ramps of the finest cubes
        queries = interior_queries(rng, func, 25, clear=0.02)
        vals, grads, hessians = func.jets(queries)
        assert np.array_equal(vals, [oracle.value(q) for q in queries])
        smooth = smooth_rows(oracle, queries)
        assert smooth.sum() >= 20
        assert_jets_match(oracle.jets(queries[smooth]), grads[smooth], hessians[smooth])
        assert np.array_equal(func.values(queries), vals)
        for i, q in enumerate(queries[:8]):
            assert func.value(q) == oracle.value(q)
            assert func.raw_value(q) == oracle.raw_value(q)
            assert np.array_equal(func.grad(q), grads[i])
            assert np.array_equal(func.hess(q), hessians[i])
            assert locate(func.dec, q) == oracle.locate(q)
            assert func.dec.star_cubes(q) == oracle.star_cubes(q)
        # many more single values, down to the collar, where the bump ramps
        # of the finest cubes overlap
        pts = interior_queries(rng, func, 300, clear=0.005)
        want, resolved = [], []
        for q in pts:
            try:
                want.append(oracle.value(q))
                resolved.append(True)
            except ResolutionError:
                resolved.append(False)
        assert np.array_equal(func.values(pts[resolved]), want)
        assert [func.partition_sum(q) for q in pts] == [oracle.partition_sum(q) for q in pts]
        box = (func.dec.lo0[0], func.dec.lo0[0] + func.dec.side0)
        res = regularized_distance(func.Y, func.E, action=func.action, queries=queries,
                                   bbox=box, max_depth=func.dec.max_depth)
        assert np.array_equal(res.values, vals)
        assert np.array_equal(res.grads, grads)
        assert np.array_equal(res.hessians, hessians)

    def test_on_set_and_collar_points_in_a_batch(self):
        y, e = two_point_pair()
        func = RegularizedDistance.build(y, e, max_depth=9)
        oracle = PointwiseOracle(func)
        # on Y, on E, in the collar next to E, and a covered point
        pts = np.array([[1.0, 0.0], [0.7, 0.0], [0.3, 0.004], [0.3, 0.5]])
        got = func.values(pts)
        assert got.tolist() == [0.0, 0.0, 0.004, oracle.value(pts[3])]
        assert got[3] > 0.0
        res = regularized_distance(y, e, queries=pts, max_depth=9)
        assert res.inside.tolist() == [True, True, False, False]
        assert res.values[:2].tolist() == [0.0, 0.0]
        assert np.all(res.grads[:2] == 0.0) and np.all(res.hessians[:2] == 0.0)

    def test_the_distance_to_e_branches_return_its_exact_jets(self):
        y, e = two_point_pair()
        func = RegularizedDistance.build(y, e, max_depth=9)
        # below the finest cubes, where the value clamps to the axis
        # distance, then two points that only cubes of U reach
        pts = np.array([[0.3, 0.004], [0.3, 0.05], [-0.2, -0.03]])
        assert locate(func.dec, pts[0]) is None
        assert func._star_sums(pts[1:])[2].tolist() == [0.0, 0.0]
        vals, grads, hessians = func.jets(pts)
        assert vals.tolist() == [0.004, 0.05, 0.03]
        assert grads.tolist() == [[0.0, 1.0], [0.0, 1.0], [0.0, -1.0]]
        assert not hessians.any()

    def test_a_batch_of_every_branch_raises_no_warning(self):
        y, e = two_point_pair()
        a = CyclicAction(np.diag([1.0, -1.0]), 2)
        # on Y, on E, the clamp, U alone, and the quotient inside a ramp
        pts = [[1.0, 0.0], [0.7, 0.0], [0.3, 0.004], [0.3, 0.05], [0.61, 0.37]]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = regularized_distance(y, e, action=a, queries=pts, max_depth=9)
            vals, grads, hessians = res.func.jets(pts[2:])
        assert res.inside.tolist() == [True, True, False, False, False]
        assert not res.values[:2].any()
        assert not res.grads[:2].any() and not res.hessians[:2].any()
        assert np.array_equal(res.values[2:], vals)
        assert np.array_equal(res.grads[2:], grads)
        assert np.array_equal(res.hessians[2:], hessians)
        assert res.func._star_sums(np.array(pts[4:]))[2, 0] > 0.0
        assert np.abs(hessians[2]).max() > 1e3

    def test_a_batch_raises_the_first_error_of_the_pointwise_loop(self):
        y, e = two_point_pair()
        func = RegularizedDistance.build(y, e, max_depth=9)
        good = [0.3, 0.5]
        unresolved = [1.0, 0.006]
        outside = [2.5, 0.5]
        with pytest.raises(ResolutionError, match="max_depth"):
            func.values([good, good, unresolved])
        with pytest.raises(ResolutionError, match="max_depth"):
            func.values([unresolved, outside])
        with pytest.raises(ValidationError, match="box"):
            func.values([good, outside, unresolved])
        with pytest.raises(ResolutionError, match="max_depth"):
            regularized_distance(y, e, queries=[good, unresolved], max_depth=9)
        with pytest.raises(ValidationError, match="box"):
            regularized_distance(y, e, queries=[good, outside], max_depth=9)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_queries_are_rejected(self, bad):
        y, e = two_point_pair()
        func = RegularizedDistance.build(y, e, max_depth=6)
        for q in ([bad, 0.5], [0.5, bad], [bad, 0.0]):
            for method in (func.value, func.raw_value, func.partition_sum,
                           func.grad, func.hess):
                with pytest.raises(ValidationError, match="non-finite"):
                    method(np.array(q))
            with pytest.raises(ValidationError, match="non-finite"):
                func.values([[0.3, 0.5], q])
            with pytest.raises(ValidationError, match="non-finite"):
                regularized_distance(y, e, queries=[[0.3, 0.5], q], max_depth=6)

    def test_one_batched_pass_over_the_orbit_of_each_query(self, monkeypatch):
        seen = []
        original = RegularizedDistance._raw_values

        def counting(self, pts, *args):
            seen.append(np.array(pts))
            return original(self, pts, *args)

        monkeypatch.setattr(RegularizedDistance, "_raw_values", counting)
        y, e, a = slab_pair()
        queries = [[0.2, 0.3, 0.25], [-0.4, 0.1, -0.6], [0.5, -0.5, 0.0], [0.1, 0.7, 0.8]]
        res = regularized_distance(y, e, action=a, queries=queries, max_depth=6)
        assert res.inside.tolist() == [False, False, True, False]
        # each off-set query with its k = 2 images, values and jets together
        assert [len(p) for p in seen] == [3 * 2]
        assert len(np.unique(seen[0], axis=0)) == 3 * 2
        for method in (res.func.value, res.func.grad, res.func.hess):
            seen.clear()
            method(np.array(queries[0]))
            assert [len(p) for p in seen] == [2]

    @pytest.mark.parametrize("name", ["far", "two-point", "orbit", "tilted", "slab"])
    def test_points_on_and_near_cell_faces_match_the_oracle(self, name):
        # the star lookup skips the cells across a face farther than 1/8 of
        # a side away; probe both sides of that margin, the faces, and the
        # ends of a neighbor's bump (0.05 of a side) and star (1/16)
        func = _oracle_case(name)
        oracle = PointwiseOracle(func)
        dec = func.dec
        rng = np.random.default_rng(43)
        pts = []
        for q in interior_queries(rng, func, 6):
            for s in dec.depth_sides:
                axis = int(rng.integers(dec.n))
                face = dec.lo0[axis] + np.round((q[axis] - dec.lo0[axis]) / s) * s
                for delta in (0.0, 1e-12, -1e-12, s / 8 + 1e-9, s / 8 - 1e-9,
                              -s / 8 + 1e-9, -s / 8 - 1e-9, 0.04 * s, -0.06 * s):
                    p = q.copy()
                    p[axis] = face + delta
                    if usable(func, p, clear=0.02):
                        pts.append(p)
        pts = np.array(pts)
        assert len(pts) >= 60
        assert np.array_equal(func.values(pts), [oracle.value(p) for p in pts])
        some = pts[::5]
        _, grads, hessians = func.jets(some)
        for p, g, h in zip(some, grads, hessians):
            assert np.array_equal(func.grad(p), g) and np.array_equal(func.hess(p), h)
        # the faces themselves sit on ramp ends, where the differences only
        # converge at first order; the other points must match
        smooth = smooth_rows(oracle, some)
        assert smooth.sum() >= len(some) // 2
        assert_jets_match(oracle.jets(some[smooth]), grads[smooth], hessians[smooth])
        centers = dec.centers()
        for p in pts:
            support = np.all(np.abs(p - centers) < (9.0 / 16.0) * dec.side[:, None], axis=1)
            assert dec.star_cubes(p) == oracle.star_cubes(p)
            assert set(dec.star_cubes(p)) == set(np.flatnonzero(support).tolist())

    def test_cube_lookups_stay_with_the_cells_that_can_matter(self, monkeypatch):
        looked_up = []
        original = regdist.WhitneyDecomposition._lookup

        def counting(self, keys):
            looked_up.append(np.size(keys))
            return original(self, keys)

        monkeypatch.setattr(regdist.WhitneyDecomposition, "_lookup", counting)
        y, e, a = slab_pair()
        func = RegularizedDistance.build(y, e, action=a, max_depth=6)
        # 27 cells around every cube at every coarser depth: 2,347,920
        assert sum(looked_up) <= 700_000
        # the coincidence slab alternating with points between it and the
        # poles, 200 queries of 2 images each
        rng = np.random.default_rng([0, 0])
        queries = []
        for j in range(200):
            lo, hi = (0.15, 0.4) if j % 2 == 0 else (0.45, 0.9)
            sign = 1.0 if rng.uniform() < 0.5 else -1.0
            queries.append([rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8),
                            sign * rng.uniform(lo, hi)])
        looked_up.clear()
        func.jets(queries)
        # 27 cells at each of 4 depths per point, and 4 to locate it: 44,800
        assert sum(looked_up) <= 10_000

    def test_batched_locate_matches_the_pointwise_index(self):
        y, e, a = slab_pair()
        func = RegularizedDistance.build(y, e, action=a, max_depth=5)
        oracle = PointwiseOracle(func)
        rng = np.random.default_rng(41)
        # the top edge of the box rounds into a cell one past the last one
        pts = np.vstack([rng.uniform(-2.0, 2.0, size=(300, 3)),
                         [[np.nextafter(2.0, 0.0)] * 3, [-2.0] * 3]])
        got = func.dec.locate_many(pts)
        want = [oracle.locate(q) for q in pts]
        assert got.tolist() == [-1 if w is None else w for w in want]


def test_regdist_doctest():
    results = doctest.testmod(regdist)
    assert results.failed == 0
    assert results.attempted >= 1


def test_a_set_dimension_must_be_an_integer():
    # int() would read 2.7 as the plane
    with pytest.raises(ValidationError, match="dimension n must be an integer"):
        ClosedSetSpec(2.7, [])
    for kind, extra in (("subspace", {}), ("tube", {"radius": 0.1})):
        doc = {"n": 2, "primitives": [{"kind": kind, "n": 2.7, "basis": [[1.0, 0.0]], **extra}]}
        with pytest.raises(ValidationError, match="dimension n must be an integer"):
            ClosedSetSpec.from_json(doc)
    assert ClosedSetSpec.subspace(2.0, [[1.0, 0.0]]).n == 2


def test_whitney_depths_must_be_integers():
    X = ClosedSetSpec.points([[0.0, 0.0]])
    for depths in ({"min_depth": 1.5}, {"max_depth": 4.5}, {"max_depth": True}):
        with pytest.raises(ValidationError, match="depth must be an integer"):
            whitney_decompose(X, (-1.0, 1.0), **depths)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CoverageWarning)
        assert whitney_decompose(X, (-1.0, 1.0), max_depth=4.0).max_depth == 4
