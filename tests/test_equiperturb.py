"""Tests for symmetric stratifications and invariant Morse perturbation."""

import doctest
import itertools
import json
import math

import numpy as np
import pytest

from equimorse import equiperturb
from equimorse.config import tol
from equimorse.equiperturb import (
    _MORSE_FLOOR,
    _bump_poly_term,
    _monomials,
    _orbit_average,
    _quadratic_term,
    _scaled,
    double_well_ring_model,
    normal_decreasing_extension,
    normal_well,
    obstruction_demo,
    perturb_invariant_morse,
    squeezed_ring_model,
    strata,
    verify_morse_smale_2d,
)
from equimorse.errors import (
    BoundaryError,
    DegeneracyError,
    IsolationError,
    ParameterError,
    ResolutionError,
    ValidationError,
)
from equimorse.lochom import (
    CallableFunction,
    CyclicAction,
    FunctionSpec,
    _mv,
    _pullback,
    _row_dots,
    _row_norms,
    critical_points,
    equivariant_split,
)
from equimorse.hamflow import _polynomial_kernel
from equimorse.regdist import ClosedSetSpec, RegularizedDistance, _quintic_step
from fd_oracle import assert_jets_match, pointwise, richardson_jets


def _rowwise(value, grad, hess):
    """Batch jet of the functions value, grad and hess of one point, each
    applied row by row."""

    def jet(Z):
        return tuple(np.array([fn(z) for z in Z], dtype=float) for fn in (value, grad, hess))

    return jet


def rotation(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def reflection2():
    return CyclicAction(np.diag([1.0, -1.0]), 2)


def quartic_bowl():
    # (u^2 + v^2)^2, totally degenerate at the origin
    return FunctionSpec.make(2, [(1.0, (4, 0)), (2.0, (2, 2)), (1.0, (0, 4))])


def axes_quartic():
    return FunctionSpec.make(2, [(1.0, (4, 0)), (1.0, (0, 4))])


def newton_sweep(func, radius, extra_seeds=(), grid=9, fine=0.16, tol=1e-11):
    """Independent critical point finder used to cross-check pipeline output."""
    axes = np.linspace(-radius, radius, grid)
    seeds = [np.array([u, v]) for u in axes for v in axes]
    fine_axes = np.linspace(-fine, fine, 7)
    seeds += [np.array([u, v]) for u in fine_axes for v in fine_axes]
    seeds += [np.asarray(s, dtype=float) for s in extra_seeds]
    found = []
    for seed in seeds:
        x = seed.copy()
        ok = False
        for _ in range(80):
            _, g, h = func.jet(x)
            if np.linalg.norm(g) < tol:
                ok = True
                break
            try:
                step = np.linalg.solve(h, g)
            except np.linalg.LinAlgError:
                step = np.linalg.lstsq(h, g, rcond=None)[0]
            size = np.linalg.norm(step)
            if size > 0.25:
                step *= 0.25 / size
            x = x - step
            if np.linalg.norm(x) > 3.0 * radius:
                break
        if not ok or np.linalg.norm(x) > radius:
            continue
        if all(np.linalg.norm(x - y) > 1e-6 for y in found):
            found.append(x)
    return found


class TestStrata:
    def test_reflection_fixed_line(self):
        s = strata(np.diag([1.0, -1.0]), 2)
        assert s.divisors == (1, 2)
        assert s.dim(1) == 1
        assert s.dim(2) == 2
        assert np.allclose(s.projection(1), np.diag([1.0, 0.0]), atol=1e-12)
        assert np.allclose(s.projection(2), np.eye(2), atol=1e-12)

    def test_rotation_has_no_fixed_directions(self):
        s = strata(rotation(2 * math.pi / 3), 3)
        assert s.dim(1) == 0
        assert s.dim(3) == 2
        assert np.allclose(s.projection(1), np.zeros((2, 2)), atol=1e-12)

    def test_four_dim_reflection_matches_kernel_oracle(self):
        a = np.diag([1.0, -1.0, -1.0, 1.0])
        s = strata(a, 2)
        assert s.dim(1) == 2
        # oracle: projector assembled from an SVD nullspace of A - I
        u, sing, vt = np.linalg.svd(a - np.eye(4))
        basis = vt[sing < 1e-10]
        proj = basis.T @ basis
        assert np.allclose(s.projection(1), proj, atol=1e-12)

    def test_projection_identities_across_catalog(self):
        catalog = [
            (np.diag([1.0, -1.0]), 2),
            (rotation(2 * math.pi / 3), 3),
            (rotation(math.pi / 2), 4),
            (np.block([
                [rotation(2 * math.pi / 3), np.zeros((2, 1))],
                [np.zeros((1, 2)), -np.ones((1, 1))],
            ]), 6),
            # k a proper multiple of the order: with j = ord A the identity
            # reads Fix(A^i) = Fix(A^gcd(i, ord A)), so no stratum past the
            # whole space is new and the free stage adds the last term
            (np.diag([1.0, -1.0]), 6),
            (rotation(math.pi / 2), 12),
            (np.block([
                [rotation(2 * math.pi / 3), np.zeros((2, 1))],
                [np.zeros((1, 2)), -np.ones((1, 1))],
            ]), 18),
        ]
        for mat, k in catalog:
            s = strata(mat, k)
            n = mat.shape[0]
            for i in s.divisors:
                p = s.projection(i)
                assert np.linalg.norm(p @ mat - mat @ p) < 1e-10
                for j in s.divisors:
                    q = s.projection(j)
                    g = math.gcd(i, j)
                    # intersection projector via a stacked kernel oracle
                    stacked = np.vstack([np.eye(n) - p, np.eye(n) - q])
                    _, sing, vt = np.linalg.svd(stacked)
                    sing = np.concatenate([sing, np.zeros(n - len(sing))])
                    inter = vt[sing < 1e-10]
                    pi = inter.T @ inter if len(inter) else np.zeros((n, n))
                    assert np.linalg.norm(pi - s.projection(g)) < 1e-9

    def test_moved_directions_are_orthogonal_to_other_strata(self):
        mat = np.block([
            [rotation(2 * math.pi / 3), np.zeros((2, 1))],
            [np.zeros((1, 2)), -np.ones((1, 1))],
        ])
        s = strata(mat, 6)
        # F_2 is the z axis, F_3 is the xy plane, F_1 is the origin
        assert s.dim(1) == 0
        assert s.dim(2) == 1
        assert s.dim(3) == 2
        report = s.verify()
        assert report["gcd_residual"] < 1e-9
        assert report["commutation_residual"] < 1e-10
        assert report["orthogonality_residual"] < 1e-9

    def test_strata_rejects_bad_actions(self):
        with pytest.raises(ValidationError):
            strata(np.array([[1.0, 1.0], [0.0, 1.0]]), 2)
        with pytest.raises(ValidationError):
            strata(rotation(2 * math.pi / 3), 2)


    def test_a_divisor_the_stratification_lacks_is_rejected(self):
        s = strata(np.diag([1.0, -1.0]), 2)
        f = FunctionSpec.make(2, [(1.0, (4, 0))])
        calls = (s.dim, s.basis, s.projection,
                 lambda j: s.stratum_distance(np.zeros(2), j),
                 lambda j: normal_decreasing_extension(f, s, j))
        for j in (0, 3):
            for call in calls:
                with pytest.raises(ValidationError, match=r"divisors are \(1, 2\)"):
                    call(j)


class TestNormalDecreasingExtension:
    def test_quartic_on_axis_extends_to_saddle(self):
        s = strata(np.diag([1.0, -1.0]), 2)
        f = FunctionSpec.make(2, [(1.0, (4, 0))])
        ext = normal_decreasing_extension(f, s, 1)
        for u in (-0.8, -0.3, 0.0, 0.5, 1.1):
            for v in (-0.7, 0.0, 0.4):
                want = u ** 4 - v ** 2
                assert abs(ext.value(np.array([u, v])) - want) < 1e-13

    def test_extension_critical_points_stay_on_the_stratum(self):
        s = strata(np.diag([1.0, -1.0]), 2)
        for terms in ([(1.0, (4, 0))], [(1.0, (4, 0)), (-0.1, (2, 0))]):
            ext = normal_decreasing_extension(FunctionSpec.make(2, terms), s, 1)
            crits = newton_sweep(ext, 1.2)
            assert crits
            for c in crits:
                assert abs(c[1]) < 1e-8

    def test_extension_keeps_block_diagonal_hessians(self):
        s = strata(np.diag([1.0, -1.0]), 2)
        ext = normal_decreasing_extension(FunctionSpec.make(2, [(1.0, (2, 0))]), s, 1)
        assert np.allclose(ext.hess(np.zeros(2)), np.diag([2.0, -2.0]), atol=1e-10)
        mat = np.diag([1.0, 1.0, -1.0])
        s3 = strata(mat, 2)
        f3 = FunctionSpec.make(3, [(1.0, (2, 0, 0)), (3.0, (0, 2, 0))])
        ext3 = normal_decreasing_extension(f3, s3, 1)
        assert np.allclose(ext3.hess(np.zeros(3)), np.diag([2.0, 6.0, -2.0]), atol=1e-10)

    def test_extension_requires_invariance_on_the_stratum(self):
        s = strata(rotation(math.pi / 2), 4)
        good = FunctionSpec.make(2, [(1.0, (2, 0)), (1.0, (0, 2))])
        normal_decreasing_extension(good, s, 4)
        bad = FunctionSpec.make(2, [(1.0, (2, 0))])
        with pytest.raises(ValidationError):
            normal_decreasing_extension(bad, s, 4)


class TestNormalWell:
    def test_well_vanishes_near_the_inner_set_and_matches_distance_squared(self):
        action = reflection2()
        inner = ClosedSetSpec.ball([0.0, 0.0], 0.3)
        g, info = normal_well(inner, 2, [[1.0, 0.0]], action, delta=0.01)
        # inside and just outside the inner set the well is identically zero
        for pt in ([0.0, 0.0], [0.2, 0.1], [0.3, 0.0], [0.0, 0.301]):
            assert g.value(np.array(pt)) == 0.0
        # far from the inner set the well equals squared distance to the stratum
        for u, v in ((0.9, 0.04), (1.3, -0.02), (-1.1, 0.05)):
            assert abs(g.value(np.array([u, v])) - v * v) < 1e-12
        assert info["delta"] == pytest.approx(0.01)
        assert info["rho0"] > 0

    def test_well_is_invariant_and_twice_differentiable(self):
        action = reflection2()
        inner = ClosedSetSpec.ball([0.0, 0.0], 0.3)
        g, _ = normal_well(inner, 2, [[1.0, 0.0]], action, delta=0.01)
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(40):
            q = rng.uniform(-1.6, 1.6, size=2)
            worst = max(worst, abs(g.value(action.matrix @ q) - g.value(q)))
        assert worst < 1e-10
        # the curvature stays bounded across the transition zone
        for u in np.linspace(0.32, 1.2, 12):
            h = g.hess(np.array([u, 0.1]))
            assert np.all(np.isfinite(h))
            assert np.max(np.abs(h)) < 1e3


def _pointwise_well(inner, d0, d1, info):
    # the well one point at a time, over the well's own regularized distances

    def value(z):
        if inner.dist(z) <= info["rho0"]:
            return 0.0
        u = d0.value(z) ** 2 / info["delta"]
        if u <= 0.25:
            return 0.0
        w = 1.0 if u >= 1.0 else _quintic_step((u - 0.25) / 0.75)
        t = d1.value(z)
        return w * t * t

    return value


@pytest.mark.parametrize("case", ["ball", "strip"])
def test_normal_well_equals_its_pointwise_oracle(case, monkeypatch):
    rng = np.random.default_rng(12)
    if case == "ball":
        inner, kw = ClosedSetSpec.ball([0.0, 0.0], 0.3), {"delta": 0.01}
        # rings from inside the ball, across the transition, to the plateau
        r, th = rng.uniform(0.28, 0.6, 120), rng.uniform(0.0, 2.0 * math.pi, 120)
        pts = np.stack([r * np.cos(th), r * np.sin(th)], axis=1)
    else:
        inner, kw = ClosedSetSpec.tube(2, [[0.0, 1.0]], 0.1), {"delta": 0.05, "max_depth": 11}
        u = rng.choice([-1.0, 1.0], 80) * rng.uniform(0.05, 0.6, 80)
        pts = np.stack([u, rng.uniform(-0.8, 0.8, 80)], axis=1)
    built, build = [], RegularizedDistance.build

    def keep(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(RegularizedDistance, "build", keep)
    g, info = normal_well(inner, 2, [[1.0, 0.0]], reflection2(), **kw)
    d0, d1 = built
    value = _pointwise_well(inner, d0, d1, info)
    assert np.array_equal(g.value(pts), [value(z) for z in pts])
    # the chain rule against the pointwise differences, extrapolated; the
    # well is steeper than either distance, so its step is finer (its
    # Hessian entries reach 5e4)
    grads, hessians = g.grad(pts), g.hess(pts)
    assert_jets_match(richardson_jets(pointwise(value), pts, 2.5e-5), grads, hessians)
    for z, gz, hz in zip(pts[::10], grads[::10], hessians[::10]):
        assert np.array_equal(g.grad(z), gz) and np.array_equal(g.hess(z), hz)
    # the points reach every branch: near the inner set, below, on and
    # above the step's ramp
    far = inner.dist_many(pts) > info["rho0"]
    u = d0.values(pts[far]) ** 2 / info["delta"]
    assert (~far).any() and (u <= 0.25).any() and (u >= 1.0).any()
    assert ((u > 0.25) & (u < 1.0)).any()


class TestPerturbPipeline:
    def test_degenerate_bowl_with_reflection(self):
        action = reflection2()
        f = quartic_bowl()
        out, cert = perturb_invariant_morse(f, action, epsilon=0.05, seed=0)
        assert cert["passed"]
        c1 = cert["stages"][0]["c"]
        assert c1 == pytest.approx(0.05 / 4)
        crits = newton_sweep(out, 1.0)
        on_axis = [c for c in crits if abs(c[1]) < 1e-6]
        off_axis = [c for c in crits if abs(c[1]) >= 1e-6]
        assert len(on_axis) % 2 == 1
        assert len(off_axis) == 2
        # the off axis pair is swapped by the reflection
        a, b = off_axis
        assert np.linalg.norm(action.matrix @ a - b) < 1e-8
        for c in crits:
            eigs = np.linalg.eigvalsh(np.asarray(out.hess(c)))
            assert np.min(np.abs(eigs)) > 1e-8
        # on axis points keep a strictly negative normal hessian with margin
        for c in on_axis:
            assert out.hess(c)[1, 1] <= -0.9 * c1 * (1 - 1e-9)
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(100):
            q = rng.uniform(-1.0, 1.0, size=2)
            worst = max(worst, abs(out.value(action.matrix @ q) - out.value(q)))
        assert worst < 1e-9
        # the output stays within epsilon of the input up to second order
        for _ in range(60):
            q = rng.uniform(-1.0, 1.0, size=2)
            assert abs(out.value(q) - f.value(q)) < 0.05
            assert np.linalg.norm(np.asarray(out.grad(q)) - f.grad(q)) < 0.05
            dh = np.asarray(out.hess(q)) - f.hess(q)
            assert np.linalg.norm(dh, 2) < 0.05

    def test_already_morse_function_with_trivial_action(self):
        f = FunctionSpec.make(2, [(1.0, (2, 0)), (-1.0, (0, 2))])
        action = CyclicAction(np.eye(2), 1)
        out, cert = perturb_invariant_morse(f, action, epsilon=0.05, seed=0)
        assert cert["passed"]
        crits = newton_sweep(out, 1.0)
        assert len(crits) == 1
        assert np.linalg.norm(crits[0]) < 1e-6
        eigs = np.linalg.eigvalsh(np.asarray(out.hess(crits[0])))
        assert eigs[0] < 0 < eigs[1]
        assert cert["items"]["c2_distance"]["measured"] < 0.05

    def test_quarter_turn_quartic_gets_nine_critical_points(self):
        action = CyclicAction(rotation(math.pi / 2), 4)
        f = axes_quartic()
        out, cert = perturb_invariant_morse(f, action, epsilon=0.05, seed=0)
        assert cert["passed"]
        assert cert["items"]["invariance"]["residual"] < 1e-9
        crits = newton_sweep(out, 1.0)
        assert len(crits) == 9
        hist = {0: 0, 1: 0, 2: 0}
        for c in crits:
            eigs = np.linalg.eigvalsh(np.asarray(out.hess(c)))
            assert np.min(np.abs(eigs)) > 1e-8
            hist[int(np.sum(eigs < 0))] += 1
        assert hist == {0: 4, 1: 4, 2: 1}
        # the eight off origin points form two orbits of the quarter turn
        others = [c for c in crits if np.linalg.norm(c) > 1e-8]
        for c in others:
            image = action.matrix @ c
            assert min(np.linalg.norm(image - d) for d in others) < 1e-6

    def test_antipodal_symmetry_needs_a_free_perturbation(self):
        action = CyclicAction(-np.eye(2), 2)
        f = quartic_bowl()
        out, cert = perturb_invariant_morse(f, action, epsilon=0.05, seed=0)
        assert cert["passed"]
        assert any(s["alpha_scale"] for s in cert["stages"] if not s.get("skipped"))
        crits = newton_sweep(out, 1.0, grid=11, fine=0.09)
        assert len(crits) >= 5
        assert len(crits) % 2 == 1
        others = [c for c in crits if np.linalg.norm(c) > 1e-8]
        for c in others:
            assert min(np.linalg.norm(-c - d) for d in others) < 1e-8
        origin = min(crits, key=np.linalg.norm)
        assert np.linalg.norm(origin) < 1e-8
        c1 = cert["stages"][0]["c"]
        eigs = np.linalg.eigvalsh(np.asarray(out.hess(origin)))
        assert eigs[-1] <= -0.9 * c1 * (1 - 1e-9)
        # the certificate's census sum and margins agree with the Hessians
        census = cert["items"]["critical_points_on_strata"]
        euler = 0
        for p in census["points"]:
            eigs = np.linalg.eigvalsh(np.asarray(out.hess(np.asarray(p["point"]))))
            euler += (-1) ** int(np.sum(eigs < 0))
            assert p["min_abs_eig"] == pytest.approx(np.min(np.abs(eigs)), rel=1e-12)
        assert census["euler"] == euler

    def test_certificate_serializes_to_json(self):
        f = FunctionSpec.make(2, [(1.0, (2, 0)), (-1.0, (0, 2))])
        action = CyclicAction(np.eye(2), 1)
        _, cert = perturb_invariant_morse(f, action, epsilon=0.05, seed=0)
        blob = json.loads(json.dumps(cert))
        assert set(blob["items"]) == {
            "invariance",
            "critical_points_on_strata",
            "normal_hessian_margin",
            "c2_distance",
        }
        for item in blob["items"].values():
            assert isinstance(item["passed"], bool)
        # report-only fields: one saddle with Hessian diag(2, -2)
        census = blob["items"]["critical_points_on_strata"]
        assert census["euler"] == -1
        assert census["morse_floor"] == _MORSE_FLOOR
        assert [p["min_abs_eig"] for p in census["points"]] == [pytest.approx(2.0)]

    def test_pipeline_rejects_functions_that_break_the_symmetry(self):
        f = FunctionSpec.make(2, [(1.0, (2, 0)), (0.5, (1, 1)), (1.0, (0, 2))])
        with pytest.raises(ValidationError):
            perturb_invariant_morse(f, reflection2(), epsilon=0.05)

    def test_pipeline_rejects_nonisolated_origins(self):
        f = FunctionSpec.make(2, [(1.0, (2, 0))])
        with pytest.raises(IsolationError):
            perturb_invariant_morse(f, reflection2(), epsilon=0.05)

    def test_unresolvable_margins_fail_naming_the_stage(self):
        action = reflection2()
        with pytest.raises(ResolutionError, match="stage"):
            perturb_invariant_morse(quartic_bowl(), action, epsilon=1e-10, seed=0)


@pytest.mark.parametrize("bad", [
    {"radius": -1.0}, {"radius": 0.0}, {"radius": math.nan},
    {"epsilon": math.inf}, {"epsilon": math.nan},
    {"attempts": 0}, {"attempts": 1.5},
])
def test_pipeline_rejects_inadmissible_parameters(bad):
    kwargs = {"epsilon": 0.05, **bad}
    with pytest.raises(ParameterError):
        perturb_invariant_morse(quartic_bowl(), reflection2(), **kwargs)


@pytest.mark.parametrize("radius", [-1.0, 0.0, math.nan, math.inf])
def test_morse_smale_check_rejects_inadmissible_radii(radius):
    f, action = squeezed_ring_model(0.5, 0.1)
    with pytest.raises(ParameterError, match="finite and positive"):
        verify_morse_smale_2d(f, action, radius=radius)


def _counting_sweeps(monkeypatch):
    """Patch equiperturb.critical_points to count the Newton sweeps."""
    calls = []
    sweep = equiperturb.critical_points

    def counted(*args, **kwargs):
        calls.append(args[0])
        return sweep(*args, **kwargs)

    monkeypatch.setattr(equiperturb, "critical_points", counted)
    return calls


# sweeps per run: the isolation check, one per stage census and one per
# trial; the certificate makes none of its own
_PIPELINE_SWEEPS = {
    "antipodal bowl": (quartic_bowl, lambda: CyclicAction(-np.eye(2), 2), 3),
    "reflection bowl": (quartic_bowl, reflection2, 6),
    "quarter turn quartic": (axes_quartic,
                             lambda: CyclicAction(rotation(math.pi / 2), 4), 2),
    "trivial action saddle": (lambda: FunctionSpec.make(2, [(1.0, (2, 0)), (-1.0, (0, 2))]),
                              lambda: CyclicAction(np.eye(2), 1), 2),
}


@pytest.mark.parametrize("case", list(_PIPELINE_SWEEPS))
def test_the_certificate_reads_the_free_stage_census(case, monkeypatch):
    make_f, make_action, sweeps = _PIPELINE_SWEEPS[case]
    calls = _counting_sweeps(monkeypatch)
    out, cert = perturb_invariant_morse(make_f(), make_action(), epsilon=0.05, seed=0)
    assert cert["passed"]
    assert len(calls) == sweeps
    # the last sweep was of the returned function itself
    assert calls[-1] is out
    monkeypatch.undo()
    census = [p["point"] for p in cert["items"]["critical_points_on_strata"]["points"]]
    fresh = equiperturb._critical_points(out, 1.0, fine=15, fine_width=0.16)
    assert len(census) == len(fresh) > 0
    assert np.array_equal(np.array(census), np.array(fresh))


def test_strata_after_the_free_stage_are_skipped(monkeypatch):
    # diag(1, -1) has order 2, so under k = 4 and 6 every divisor past 2
    # repeats an earlier stratum; the free stage stays the last that adds a
    # term and the census is the one at k = 2
    runs = {}
    for k, skipped in ((2, []), (4, [4]), (6, [3, 6])):
        calls = _counting_sweeps(monkeypatch)
        out, cert = perturb_invariant_morse(
            quartic_bowl(), CyclicAction(np.diag([1.0, -1.0]), k), epsilon=0.05, seed=0)
        monkeypatch.undo()
        assert cert["passed"]
        stages = cert["stages"]
        assert [s["divisor"] for s in stages if s.get("skipped")] == skipped
        kept = [s for s in stages if not s.get("skipped")]
        assert [s["divisor"] for s in kept] == [1, 2]
        assert kept[-1]["dimension"] == 2
        assert calls[-1] is out
        points = [p["point"] for p in cert["items"]["critical_points_on_strata"]["points"]]
        runs[k] = np.array(points), len(calls)
    for k in (4, 6):
        assert np.array_equal(runs[k][0], runs[2][0])
        assert runs[k][1] == runs[2][1]


def test_the_tube_stage_runs_and_refuses_a_collar_it_cannot_resolve(monkeypatch):
    # under rot(2 pi / 3) + (-1) of order 6 the z-axis is the stratum of
    # divisor 2; its bumped restriction has critical points at +-0.0559,
    # a collar too thin for normal_well at the default Whitney depth
    stages = []
    tube = equiperturb._tube_stage

    def counted(f, terms, strat, d, *args):
        stages.append(d)
        return tube(f, terms, strat, d, *args)

    monkeypatch.setattr(equiperturb, "_tube_stage", counted)
    c, s = math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3)
    action = CyclicAction(np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, -1.0]]), 6)
    f = FunctionSpec.make(3, [(1.0, (2, 0, 0)), (1.0, (0, 2, 0)), (1.0, (0, 0, 4))])
    with pytest.raises(ResolutionError, match="transition width is below the unresolved collar"):
        perturb_invariant_morse(f, action, epsilon=0.05, seed=0)
    assert stages == [2]


def _every_separatrix_lands_or_exits(report):
    for sep in report["separatrices"]:
        assert sep["terminus"] is not None or sep["exit"] is True


class TestVerifyMorseSmale:
    def test_squeezed_ring_has_no_saddle_connections(self):
        f, action = squeezed_ring_model(0.5, 0.1)
        report = verify_morse_smale_2d(f, action, radius=1.2)
        _every_separatrix_lands_or_exits(report)
        pts = {tuple(np.round(c["point"], 6)): c["index"]
               for c in report["critical_points"]}
        r_min = math.sqrt(0.5)
        r_sad = math.sqrt(0.4)
        want = {
            (0.0, 0.0): 2,
            (0.0, round(r_min, 6)): 0,
            (0.0, round(-r_min, 6)): 0,
            (round(r_sad, 6), 0.0): 1,
            (round(-r_sad, 6), 0.0): 1,
        }
        got = {(round(p[0], 6), round(p[1], 6)): i for p, i in pts.items()}
        assert got == want
        assert report["saddle_connections"] == []
        assert report["tangency_residual"] < 1e-9
        # every saddle separatrix lands on one of the two minima
        for sep in report["separatrices"]:
            assert sep["terminus"] is not None
            terminus = report["critical_points"][sep["terminus"]]
            assert terminus["index"] == 0

    def test_double_well_ring_forces_connections_on_the_fixed_axis(self):
        f, action = double_well_ring_model()
        report = verify_morse_smale_2d(f, action, radius=2.0)
        _every_separatrix_lands_or_exits(report)
        assert len(report["critical_points"]) == 7
        conns = report["saddle_connections"]
        assert len(conns) == 2
        targets = []
        for conn in conns:
            src = report["critical_points"][conn["from"]]
            dst = report["critical_points"][conn["to"]]
            assert src["index"] == 1 and dst["index"] == 1
            # both ends sit on the fixed axis of the reflection
            assert abs(src["point"][1]) < 1e-8
            assert abs(dst["point"][1]) < 1e-8
            assert np.linalg.norm(src["point"]) < 1e-8
            targets.append(round(dst["point"][0], 6))
        assert sorted(targets) == [-1.0, 1.0]
        assert report["tangency_residual"] < 1e-9

    def test_pure_bowl_reports_nothing(self):
        f = FunctionSpec.make(2, [(1.0, (2, 0)), (1.0, (0, 2))])
        report = verify_morse_smale_2d(f, reflection2(), radius=1.0)
        assert len(report["critical_points"]) == 1
        assert report["saddle_connections"] == []
        assert report["separatrices"] == []

    def test_a_separatrix_that_neither_lands_nor_exits_raises(self):
        # the descending separatrices along v take about 4,600 time units
        # to leave the unit ball, past the shooter's budget
        f = FunctionSpec.make(2, [(1e-3, (2, 0)), (-1e-3, (0, 2))])
        with pytest.raises(BoundaryError, match="budget"):
            verify_morse_smale_2d(f, reflection2(), radius=1.0)

    def test_degenerate_input_is_rejected(self):
        with pytest.raises((DegeneracyError, ValidationError)):
            verify_morse_smale_2d(quartic_bowl(), reflection2(), radius=1.0)

    def test_obstruction_demo_reports_the_forced_connection(self):
        demo = obstruction_demo()
        report = demo["report"]
        _every_separatrix_lands_or_exits(report)
        assert len(report["saddle_connections"]) == 2
        assert demo["connections_on_fixed_stratum"] == 2
        blob = json.dumps(demo)
        assert "saddle_connections" in blob


class TestGradientTangency:
    def test_invariant_gradients_are_tangent_to_every_stratum(self):
        z6 = np.block([
            [rotation(2 * math.pi / 3), np.zeros((2, 1))],
            [np.zeros((1, 2)), -np.ones((1, 1))],
        ])
        catalog = [
            (quartic_bowl(), reflection2()),
            (axes_quartic(), CyclicAction(rotation(math.pi / 2), 4)),
            (squeezed_ring_model(0.5, 0.1)[0], squeezed_ring_model(0.5, 0.1)[1]),
            (double_well_ring_model()[0], double_well_ring_model()[1]),
            (FunctionSpec.make(3, [(1.0, (2, 0, 2)), (1.0, (0, 2, 2)), (1.0, (0, 0, 4))]),
             CyclicAction(z6, 6)),
        ]
        worst = 0.0
        for f, action in catalog:
            s = strata(action.matrix, action.k)
            for j in s.divisors:
                m = s.dim(j)
                if m == 0 or m == f.d:
                    continue
                basis = s.basis(j)
                proj = s.projection(j)
                ts = np.linspace(-1.0, 1.0, 9)
                if m == 1:
                    samples = [t * basis[0] for t in ts]
                else:
                    samples = [a * basis[0] + b * basis[1] for a in ts for b in ts]
                for y in samples:
                    g = np.asarray(f.grad(y))
                    worst = max(worst, np.linalg.norm(g - proj @ g))
        assert worst < 1e-9


# Per-center oracle for the bump sum: the scalar profile and its radial chain
# rule, evaluated one center at a time.

_LO, _HI = 0.5, 0.55


def _oracle_profile(t):
    if t <= _LO:
        return 1.0, 0.0, 0.0
    if t >= _HI:
        return 0.0, 0.0, 0.0
    w = _HI - _LO
    u = (_HI - t) / w
    v = u ** 3 * (10.0 - 15.0 * u + 6.0 * u * u)
    d1 = -30.0 * u * u * (1.0 - u) ** 2 / w
    d2 = 60.0 * u * (1.0 - u) * (1.0 - 2.0 * u) / w ** 2
    return v, d1, d2


def _oracle_bump_parts(z, center, scale):
    w = z - center
    r = float(np.linalg.norm(w))
    t = r / scale
    v, d1, d2 = _oracle_profile(t)
    m = len(z)
    if t <= _LO or t >= _HI:
        return v, np.zeros(m), np.zeros((m, m))
    u = w / r
    g = (d1 / scale) * u
    outer = np.outer(u, u)
    h = (d2 / scale ** 2) * outer + (d1 / (scale * r)) * (np.eye(m) - outer)
    return v, g, h


def _oracle_bump_poly(z, centers, scale, coeffs, mons):
    m = len(z)
    bv, bg, bh = 0.0, np.zeros(m), np.zeros((m, m))
    for c in centers:
        v, g, h = _oracle_bump_parts(z, np.asarray(c, dtype=float), scale)
        bv, bg, bh = bv + v, bg + g, bh + h
    terms = list(zip(coeffs, mons))
    pv = _loop_value(z, terms)
    pg = _loop_grad(z, terms)
    cross = np.outer(pg, bg)
    return (pv * bv, bv * pg + pv * bg,
            bv * _loop_hess(z, terms) + cross + cross.T + pv * bh)


def _unit(rng, m):
    v = rng.standard_normal(m)
    return v / np.linalg.norm(v)


def _bump_cases(m, rng, scale=0.4):
    """(kind, z, centers) at the four kinds of point of a bump sum."""
    z = rng.uniform(-0.3, 0.3, size=m)
    far = [z + 3.0 * scale * _unit(rng, m) for _ in range(3)]
    return [
        ("plateau", z, [z + 0.3 * scale * _unit(rng, m)] + far),
        ("ramp", z, far[:1] + [z + 0.52 * scale * _unit(rng, m)] + far[1:]),
        ("overlap", z, [z + t * scale * _unit(rng, m) for t in (0.51, 0.53, 0.545)] + far),
        ("outside", z, far + [z + 0.56 * scale * _unit(rng, m)]),
    ]


def _close(got, want, rel=1e-12):
    want = np.asarray(want, dtype=float)
    return np.allclose(got, want, rtol=rel, atol=rel * max(1.0, float(np.abs(want).max())))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_bump_term_matches_the_per_center_oracle(m):
    rng = np.random.default_rng(40 + m)
    mons = _monomials(m, max_degree=3, min_degree=0)
    coeffs = rng.standard_normal(len(mons))
    scale = 0.4
    for kind, z, centers in _bump_cases(m, rng, scale):
        term = _bump_poly_term(centers, scale, coeffs, mons)
        want = _oracle_bump_poly(z, centers, scale, coeffs, mons)
        got = (term.value(z), term.grad(z), term.hess(z))
        for a, b in zip(got, want):
            assert _close(a, b), kind
        if kind == "outside":
            assert got[0] == 0.0 and not got[1].any() and not got[2].any()
        if kind == "plateau":
            # one plateau center weighs exactly 1
            assert got[0] == _polynomial_kernel(m, list(zip(coeffs, mons))).jet(z)[0]


@pytest.mark.parametrize("m", [1, 2, 3])
def test_bump_term_cache_hands_out_fresh_arrays(m):
    # grad and hess reuse the bump sum cached at z; a caller that writes into
    # a result, or evaluates at more points than the cache holds, must not
    # change a later result at z
    rng = np.random.default_rng(60 + m)
    mons = _monomials(m, max_degree=3, min_degree=0)
    coeffs = rng.standard_normal(len(mons))
    for kind, z, centers in _bump_cases(m, rng):
        term = _bump_poly_term(centers, 0.4, coeffs, mons)
        want = _oracle_bump_poly(z, centers, 0.4, coeffs, mons)
        for _ in range(2):
            g, h = term.grad(z), term.hess(z)
            assert _close(g, want[1], rel=1e-12) and _close(h, want[2], rel=1e-12), kind
            g[:] = np.nan
            h[:] = np.nan
        for w in rng.uniform(-0.3, 0.3, size=(12, m)):
            term.hess(w)
        assert _close(term.value(z), want[0]) and _close(term.grad(z), want[1]), kind
    # the same for a batch, against its rows one at a time
    term, rows = _bump(m, rng)
    kinds = ("value", "grad", "hess")
    want = [np.array([getattr(term, k)(z) for z in rows]) for k in kinds]
    for _ in range(2):
        for k, w in zip(kinds, want):
            got = getattr(term, k)(rows)
            assert np.array_equal(got, w), k
            got[...] = np.nan
    for w in rng.uniform(-0.3, 0.3, size=(12, 5, m)):
        term.hess(w)
    for k, w in zip(kinds, want):
        assert np.array_equal(getattr(term, k)(rows), w), k


@pytest.mark.parametrize("m", [1, 2, 3])
def test_bump_term_derivatives_match_central_differences_on_the_ramp(m):
    rng = np.random.default_rng(50 + m)
    mons = _monomials(m, max_degree=3, min_degree=0)
    coeffs = rng.standard_normal(len(mons))
    scale = 0.4
    for kind, z, centers in _bump_cases(m, rng, scale)[1:3]:
        term = _bump_poly_term(centers, scale, coeffs, mons)
        h = 1e-6
        fd_g = np.zeros(m)
        fd_h = np.zeros((m, m))
        for i in range(m):
            e = np.zeros(m)
            e[i] = h
            fd_g[i] = (term.value(z + e) - term.value(z - e)) / (2.0 * h)
            fd_h[:, i] = (term.grad(z + e) - term.grad(z - e)) / (2.0 * h)
        g, hs = term.grad(z), term.hess(z)
        assert np.abs(g).max() > 1.0, kind  # the ramp term dominates
        assert np.allclose(g, fd_g, rtol=1e-6, atol=1e-6 * np.abs(g).max()), kind
        assert np.allclose(hs, fd_h, rtol=1e-6, atol=1e-6 * np.abs(hs).max()), kind


@pytest.mark.parametrize("m", [1, 2, 3])
def test_single_center_bump_of_the_base_stage_matches_the_oracle(m):
    # the base stage bumps one center at the origin with a degree 1..3 polynomial
    rng = np.random.default_rng(60 + m)
    mons = _monomials(m, max_degree=3, min_degree=1)
    coeffs = rng.standard_normal(len(mons))
    scale = 2.0 * 0.45
    centers = [np.zeros(m)]
    term = _bump_poly_term(centers, scale, coeffs, mons)
    for t in (0.0, 0.2, 0.5, 0.505, 0.52, 0.549, 0.55, 0.8):
        z = t * scale * _unit(rng, m)
        want = _oracle_bump_poly(z, centers, scale, coeffs, mons)
        got = (term.value(z), term.grad(z), term.hess(z))
        for a, b in zip(got, want):
            assert _close(a, b), t


def test_equiperturb_doctest():
    results = doctest.testmod(equiperturb)
    assert results.failed == 0
    assert results.attempted >= 1


# -- batches against one point at a time ----------------------------------

def _two_scale_seeds(n, radius, fine, fine_width):
    # the seeds of equiperturb's sweep: a coarse grid, then a fine one near 0
    axes = np.linspace(-radius, radius, 7 if n <= 2 else 5)
    seeds = [np.array(p, dtype=float) for p in itertools.product(axes, repeat=n)]
    fw = min(fine_width, radius)
    fine_axes = np.linspace(-fw, fw, min(fine, 5) if n == 3 else fine)
    return seeds + [np.array(p, dtype=float) for p in itertools.product(fine_axes, repeat=n)]


def _per_seed_critical_points(func, seeds, radius):
    """The Newton sweep one seed at a time, one point per call: the oracle
    of the lockstep sweep, with the same steps and retirement rules."""
    found = []
    for seed in seeds:
        x = seed.copy()
        ok = False
        try:
            for _ in range(80):
                _, g, h = func.jet(x)
                if np.linalg.norm(g) < tol("newton_grad"):
                    ok = True
                    break
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
        if not ok or np.linalg.norm(x) > 1.02 * radius:
            continue
        if all(np.linalg.norm(x - y) > tol("dedup") for y in found):
            found.append(x)
    return found


# One-point polynomial loops: one libm power z[i] ** e and one product per
# factor, summed term by term.  An independent route to the polynomial
# kernel, which rounds differently (running-product powers, one weighted sum
# per output), so they agree within a tolerance, not bitwise.

def _loop_value(z, terms):
    total = 0.0
    for coeff, exps in terms:
        m = coeff
        for i, e in enumerate(exps):
            if e:
                m *= z[i] ** e
        total += m
    return total


def _loop_grad(z, terms):
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


def _loop_hess(z, terms):
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


def _one_point_bump(z, centers, scale, terms):
    """Value, gradient and Hessian of a bump term at one point: the sum over
    the (K, m) centers with a 1-D ramp and the polynomial kernel at z alone,
    as the batch must reproduce bitwise."""
    m = len(z)
    w = z - centers
    r = np.sqrt(np.einsum("ki,ki->k", w, w))
    t = r / scale
    bv = float(np.count_nonzero(t <= _LO))
    bg, bh = np.zeros(m), np.zeros((m, m))
    ramp = (t > _LO) & (t < _HI)
    if ramp.any():
        width = _HI - _LO
        r = r[ramp]
        s = (_HI - t[ramp]) / width
        d1 = -30.0 * s * s * (1.0 - s) ** 2 / (width * scale)
        d2 = 60.0 * s * (1.0 - s) * (1.0 - 2.0 * s) / (width * scale) ** 2
        u = w[ramp] / r[:, None]
        bv += float(np.sum(s * s * s * (10.0 - 15.0 * s + 6.0 * s * s)))
        bg = d1 @ u
        bh = (u * (d2 - d1 / r)[:, None]).T @ u + float(np.sum(d1 / r)) * np.eye(m)
    if bv == 0.0 and not bg.any() and not bh.any():
        return 0.0, np.zeros(m), np.zeros((m, m))
    pv, pg, ph = _polynomial_kernel(m, terms).jet(z)
    cross = np.outer(pg, bg)
    return (pv * bv, bv * pg + pv * bg, bv * ph + cross + cross.T + pv * bh)


def _random_terms(m, rng):
    """Up to 8 terms of exponents 0..5 on R^m, every third with coefficient 0."""
    return [(float(rng.standard_normal()) if k % 3 else 0.0,
             tuple(int(e) for e in rng.integers(0, 6, m)))
            for k in range(int(rng.integers(1, 9)))]


# The loops and the kernel round differently; their difference is bounded
# by a few dozen eps times the sum of the absolute values of the terms,
# which is the loops' result for |coefficients| at |z|.
_LOOP_RTOL = 1e-13


@pytest.mark.parametrize("m", [1, 2, 3])
def test_polynomial_kernel_matches_the_one_point_loops(m):
    rng = np.random.default_rng(90 + m)
    for _ in range(20):
        terms = _random_terms(m, rng)
        absolute = [(abs(c), e) for c, e in terms]
        kernel = _polynomial_kernel(m, terms)
        for z in rng.uniform(-2.0, 2.0, size=(6, m)):
            got = kernel.jet(z)
            for part, loop in zip(got, (_loop_value, _loop_grad, _loop_hess)):
                bound = _LOOP_RTOL * loop(np.abs(z), absolute)
                assert np.all(np.abs(part - loop(z, terms)) <= bound), loop.__name__


@pytest.mark.parametrize("m", [1, 2, 3])
def test_batched_polynomial_and_bump_are_bitwise_their_one_point_calls(m):
    # the census of a perturbation moves with rounding, so every row of a
    # batch must round exactly as the same point alone
    rng = np.random.default_rng(90 + m)
    for _ in range(20):
        kernel = _polynomial_kernel(m, _random_terms(m, rng))
        z = rng.uniform(-2.0, 2.0, size=(6, m))
        for k, part in enumerate(kernel.jet(z)):
            assert np.array_equal(part, np.array([kernel.jet(p)[k] for p in z]))
    mons = _monomials(m, max_degree=3, min_degree=0)
    coeffs = rng.standard_normal(len(mons))
    centers, rows = _ramp_batch(m, rng)
    term = _bump_poly_term(centers, 0.4, coeffs, mons)
    want = [_one_point_bump(z, centers, 0.4, list(zip(coeffs, mons))) for z in rows]
    for k, kind in enumerate(("value", "grad", "hess")):
        assert np.array_equal(getattr(term, kind)(rows), np.array([w[k] for w in want])), kind


def test_row_helpers_are_bitwise_the_one_point_forms():
    rng = np.random.default_rng(95)
    for _ in range(200):
        n, m = (int(k) for k in rng.integers(1, 4, size=2))
        z = rng.standard_normal((5, n)) * rng.uniform(0.01, 3.0)
        a = rng.standard_normal((m, n))
        assert np.array_equal(_mv(a, z), np.array([a @ p for p in z]))
        assert np.array_equal(_row_norms(z), np.array([np.linalg.norm(p) for p in z]))
        assert np.array_equal(_row_dots(z, z[::-1]),
                              np.array([p @ q for p, q in zip(z, z[::-1])]))


def _ramp_batch(m, rng, scale=0.4):
    """Centers and a shuffled batch whose rows lie in the ramp of 0 to 4 of
    them, several rows per count; the clusters sit 3 * scale apart."""
    centers, rows = [], []
    ramp = (0.51, 0.53, 0.545, 0.52)
    for k, count in enumerate([3, 0, 1, 2, 4, 1, 0, 2, 3, 2]):
        z = np.full(m, 3.0 * scale * k / math.sqrt(m)) + rng.uniform(-0.1, 0.1, size=m)
        centers += [z + t * scale * _unit(rng, m) for t in ramp[:count]]
        if k % 3 == 1:
            centers.append(z + 0.3 * scale * _unit(rng, m))  # a plateau center
        rows.append(z)
    rows = np.array(rows)[rng.permutation(len(rows))]
    centers = np.array(centers)
    t = np.linalg.norm(rows[:, None, :] - centers[None], axis=2) / scale
    counts = np.sum((t > 0.5) & (t < 0.55), axis=1)
    assert set(counts.tolist()) == {0, 1, 2, 3, 4}
    return centers, rows


def _bump(m, rng, scale=0.4):
    mons = _monomials(m, max_degree=3, min_degree=0)
    centers, rows = _ramp_batch(m, rng, scale)
    return _bump_poly_term(centers, scale, rng.standard_normal(len(mons)), mons), rows


def _kinds(rng):
    """(name, function, batch) for every batched term kind."""
    out = []
    for m in (1, 2, 3):
        term, rows = _bump(m, rng)
        out.append((f"bump m={m}", term, rows))
    bump2, rows2 = _bump(2, rng)
    quarter = [np.linalg.matrix_power(rotation(math.pi / 2), i) for i in range(4)]
    out.append(("orbit average", _orbit_average(bump2, quarter), rows2))
    out.append(("scaled", _scaled(bump2, 0.37), rows2))
    bump1, rows1 = _bump(1, rng)
    basis = np.array([[0.6, 0.8]])
    lifted_rows = rows1 * basis[0] + rng.uniform(-0.2, 0.2, size=(len(rows1), 1)) * [0.8, -0.6]
    out.append(("lifted", _pullback(bump1, basis), lifted_rows))
    proj = np.diag([1.0, 0.0, 1.0])
    cloud = rng.uniform(-1.0, 1.0, size=(9, 3))
    out.append(("quadratic", _quadratic_term(proj, 0.3), cloud))
    spec = FunctionSpec.make(3, [(1.0, (4, 0, 0)), (-0.7, (1, 2, 1)), (0.3, (0, 0, 3)),
                                 (2.0, (2, 2, 0)), (0.5, (0, 0, 0))])
    out.append(("function spec", spec, cloud))
    terms = [(1.3, (3, 0)), (-0.2, (1, 4)), (0.9, (0, 2)), (4.0, (0, 0))]
    kernel = _polynomial_kernel(2, terms)
    out.append(("poly", CallableFunction(2, kernel.jet), rows2))
    bowl = quartic_bowl()
    assembled = equiperturb._assemble(
        bowl, [_scaled(bump2, 0.01), _quadratic_term(np.diag([0.0, 1.0]), 0.02)],
        reflection2())
    out.append(("assemble", assembled, rows2))
    out.append(("restrict", _pullback(assembled, basis.T), rows1))
    ext = normal_decreasing_extension(FunctionSpec.make(2, [(1.0, (4, 0))]),
                                      strata(np.diag([1.0, -1.0]), 2), 1)
    out.append(("normal decreasing extension", ext, rows2))
    well, _ = normal_well(ClosedSetSpec.ball([0.0, 0.0], 0.3), 2, [[1.0, 0.0]],
                          reflection2(), delta=0.05, max_depth=11)
    out.append(("normal well", well, rng.uniform(-1.2, 1.2, size=(7, 2))))
    # the fiber equation of z3 takes several Newton steps at every (z1, z2)
    fibered = FunctionSpec.make(3, [(1.0, (4, 0, 0)), (1.0, (0, 4, 0)), (1.0, (0, 0, 2)),
                                    (1.0, (0, 0, 4)), (-1.0, (2, 0, 1)), (0.5, (1, 1, 1))])
    out.append(("reduced", equivariant_split(fibered, 2).g, rng.uniform(-0.3, 0.3, size=(9, 2))))
    return out


def test_every_term_kind_gives_a_batch_equal_to_its_stacked_points():
    for name, kind, batch in _kinds(np.random.default_rng(70)):
        jet = kind.jet(batch)
        points = [kind.jet(z) for z in batch]
        for i, fn in enumerate((kind.value, kind.grad, kind.hess)):
            want = np.array([part[i] for part in points])
            assert jet[i].shape == want.shape, name
            assert np.array_equal(jet[i], want), name
            # the views are the parts of the jet
            assert np.array_equal(fn(batch), jet[i]), name
            assert all(np.array_equal(fn(z), part[i]) for z, part in zip(batch, points)), name
        # the function protocol: a float at one point, an array for a batch
        assert isinstance(kind.value(batch[0]), float), name
        assert kind.value(batch[:1]).shape == (1,), name


def _sweep_cases():
    def perturbed(f, action):
        return lambda: perturb_invariant_morse(f, action, epsilon=0.05, seed=0)[0]

    return {
        "antipodal output": (perturbed(quartic_bowl(), CyclicAction(-np.eye(2), 2)), 1.0),
        "quarter turn output": (perturbed(axes_quartic(),
                                          CyclicAction(rotation(math.pi / 2), 4)), 1.0),
        "reflection bowl output": (perturbed(quartic_bowl(), reflection2()), 1.0),
        "squeezed ring": (lambda: squeezed_ring_model(0.5, 0.1)[0], 1.2),
        # the seeds of morse_complex_2d: an 11 x 11 grid over the box
        "squeezed ring, morse complex grid": (lambda: squeezed_ring_model(0.5, 0.1)[0], 1.2, 11),
    }


@pytest.mark.parametrize("case", list(_sweep_cases()))
def test_lockstep_sweep_equals_the_per_seed_oracle(case):
    make, radius, *grid = _sweep_cases()[case]
    func = make()
    if grid:
        axis = np.linspace(-radius, radius, grid[0])
        seeds = [np.array(p) for p in itertools.product(axis, repeat=2)]
        got = critical_points(func, seeds, radius)
    else:
        seeds = _two_scale_seeds(func.d, radius, fine=15, fine_width=0.16)
        got = equiperturb._critical_points(func, radius, fine=15, fine_width=0.16)
    want = _per_seed_critical_points(func, seeds, radius)
    assert len(got) == len(want) > 0
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


def test_sweep_loses_exactly_the_seeds_whose_evaluation_fails():
    # a function of one point raises for the whole batch, so the sweep only
    # finds anything if it retries the failing iteration row by row
    ring, _ = squeezed_ring_model(0.5, 0.1)

    def grad(z):
        if z[0] > 0.5:
            raise ResolutionError("unresolved region")
        return ring.grad(z)

    def hess(z):
        if z[1] < -0.9:
            raise ResolutionError("unresolved region")
        return ring.hess(z)

    f = CallableFunction(2, _rowwise(ring.value, grad, hess))
    got = equiperturb._critical_points(f, 1.2, fine=15, fine_width=0.16)
    want = _per_seed_critical_points(f, _two_scale_seeds(2, 1.2, 15, 0.16), 1.2)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
    full = equiperturb._critical_points(ring, 1.2, fine=15, fine_width=0.16)
    assert 0 < len(got) < len(full)
    assert not any(np.linalg.norm(c - [math.sqrt(0.4), 0.0]) < 1e-6 for c in got)

    def unresolved(z):
        raise ResolutionError("unresolved everywhere")

    nowhere = CallableFunction(2, _rowwise(ring.value, unresolved, hess))
    assert equiperturb._critical_points(nowhere, 1.2) == []
    assert _per_seed_critical_points(nowhere, _two_scale_seeds(2, 1.2, 13, 0.18), 1.2) == []


def test_each_sweep_iteration_asks_grad_and_hess_on_the_same_rows():
    # one jet per iteration carries both; the last finds every row converged
    ring, _ = squeezed_ring_model(0.5, 0.1)
    calls = []

    def jet(Z):
        calls.append(np.array(Z))
        return ring.jet(Z)

    seeds = _two_scale_seeds(2, 1.2, 15, 0.16)
    got = critical_points(CallableFunction(2, jet), seeds, 1.2)
    # rows only retire, so the batches shrink
    sizes = [len(Z) for Z in calls]
    assert len(sizes) > 10 and sizes == sorted(sizes, reverse=True)
    assert np.all(_row_norms(ring.grad(calls[-1])) < tol("newton_grad"))
    want = _per_seed_critical_points(ring, seeds, 1.2)
    assert len(got) == len(want) > 0
    for a, b in zip(got, want):
        assert np.array_equal(a, b)

