"""Tests for symmetric stratifications and invariant Morse perturbation."""

import doctest
import itertools
import json
import math

import numpy as np
import pytest

from equimorse import equiperturb
from equimorse.config import smooth_step, tol
from equimorse.equiperturb import (
    _MORSE_FLOOR,
    _bump_poly_term,
    _monomials,
    _orbit_average,
    _quadratic_term,
    _scaled,
    double_well_ring_model,
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
from equimorse.regdist import ClosedSetSpec, RegularizedDistance
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


    def test_assign_of_a_batch_is_bitwise_its_points(self):
        # rotation by 2 pi / 3 times a flip: F_1 = {0}, F_2 the z-axis, F_3 the
        # xy-plane and F_6 everything
        s = strata(_rotation_and_flip())
        rng = np.random.default_rng(11)
        Z = np.concatenate([rng.uniform(-1.0, 1.0, (6, 3)),
                            [[0.0, 0.0, 0.3], [0.2, -0.1, 0.0], [0.0, 0.0, 0.0], [1e-7, 0.0, 0.4]]])
        js, ds = s.assign(Z)
        assert js.tolist() == [6] * 6 + [2, 3, 1, 2]
        for z, j, d in zip(Z, js, ds):
            one = s.assign(z)
            assert one == (int(j), float(d)) and isinstance(one[0], int)
            assert d == s.stratum_distance(z, int(j))
        empty = s.assign(np.empty((0, 3)))
        assert empty[0].shape == empty[1].shape == (0,)

    def test_a_divisor_the_stratification_lacks_is_rejected(self):
        s = strata(np.diag([1.0, -1.0]), 2)
        calls = (s.dim, s.basis, s.projection,
                 lambda j: s.stratum_distance(np.zeros(2), j))
        for j in (0, 3):
            for call in calls:
                with pytest.raises(ValidationError, match=r"divisors are \(1, 2\)"):
                    call(j)

    def test_the_order_of_a_bare_matrix_must_be_an_integer(self):
        # int() would read 2.7 as 2
        with pytest.raises(ValidationError, match="order k must be an integer"):
            strata(-np.eye(2), 2.7)
        assert strata(-np.eye(2), 2.0).action.k == 2


def _rotation_and_flip():
    # rot(2 pi / 3) + (-1) on R^3, of order 6: F_1 = {0}, F_2 the z-axis,
    # F_3 the xy-plane
    c, s = math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3)
    return CyclicAction(np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, -1.0]]), 6)


def _well_case(case):
    """(handled projections, stratum projection, action, plateau points) of
    a normal well with delta = 0.013 / 1.3, about 0.01: the reflection's axis
    with the origin handled, or the xy-plane of the rotation and flip with
    the origin and the z-axis handled."""
    if case == "ball":
        return [np.zeros((2, 2))], np.diag([1.0, 0.0]), reflection2(), [[math.sqrt(0.013), 0.0]]
    return ([np.zeros((3, 3)), np.diag([0.0, 0.0, 1.0])], np.diag([1.0, 1.0, 0.0]),
            _rotation_and_flip(), [[0.0, math.sqrt(0.013), 0.0]])


def _squared_distances(handled, Z):
    # |z - P_e z|^2 for every handled projection P_e (columns) and row z of Z
    return np.stack([np.sum((Z - Z @ p) ** 2, axis=1) for p in handled], axis=1)


def _well_points(case, rng):
    # points on the handled strata, on the zero set around them, across the
    # ramps and on the plateau
    if case == "ball":
        r, th = rng.uniform(0.0, 0.16, 160), rng.uniform(0.0, 2.0 * math.pi, 160)
        return np.stack([r * np.cos(th), r * np.sin(th)], axis=1)
    rho, th = rng.uniform(0.0, 0.16, 160), rng.uniform(0.0, 2.0 * math.pi, 160)
    return np.stack([rho * np.cos(th), rho * np.sin(th), rng.uniform(-0.3, 0.3, 160)], axis=1)


class TestNormalWell:
    def test_well_vanishes_near_the_inner_set_and_matches_distance_squared(self):
        # the inner set is where some factor is exactly 0: |z - P_e z|^2 <= delta / 4
        for case in ("ball", "tube"):
            handled, stratum, action, plateau = _well_case(case)
            g, info = normal_well(handled, stratum, action, plateau)
            delta = info["delta"]
            assert delta == pytest.approx(0.01, rel=1e-15)
            pts = _well_points(case, np.random.default_rng(5))
            u = _squared_distances(handled, pts)
            values, grads, hessians = g.jet(pts)
            inner = np.any(u <= delta / 4, axis=1)
            assert inner.any()
            assert np.all(values[inner] == 0.0) and np.all(grads[inner] == 0.0)
            assert np.all(hessians[inner] == 0.0)
            # where every factor is 1 the well is the squared distance to the
            # stratum, with its exact derivatives
            plateau = np.all(u >= delta, axis=1)
            assert plateau.any()
            q = np.eye(len(stratum)) - stratum
            normal = pts[plateau] @ q
            assert np.array_equal(values[plateau], np.sum(normal * normal, axis=1))
            assert np.array_equal(grads[plateau], 2.0 * normal)
            assert np.all(hessians[plateau] == 2.0 * q)

    @pytest.mark.parametrize("case", ["ball", "tube"])
    def test_the_plateau_points_set_delta(self, case):
        handled, stratum, action, _ = _well_case(case)
        plateau = _well_points(case, np.random.default_rng(6))[:5]
        g, info = normal_well(handled, stratum, action, plateau)
        assert info["delta"] == np.min(_squared_distances(handled, plateau)) / 1.3
        # every factor is 1 at the plateau points
        q = np.eye(len(stratum)) - stratum
        want = [(p @ q) @ (p @ q) for p in plateau]
        assert np.allclose(g.value(plateau), want, rtol=1e-15, atol=0.0)
        with pytest.raises(ValidationError, match="positive"):
            normal_well(handled, stratum, action, [np.zeros(len(q))])
        with pytest.raises(ValidationError, match="plateau point"):
            normal_well(handled, stratum, action, [])

    def test_well_is_invariant_and_twice_differentiable(self):
        rng = np.random.default_rng(3)
        for case in ("ball", "tube"):
            handled, stratum, action, plateau = _well_case(case)
            g, info = normal_well(handled, stratum, action, plateau)
            pts = _well_points(case, rng)
            worst = np.max(np.abs(g.value(_mv(action.matrix, pts)) - g.value(pts)))
            assert worst < 1e-15
            # the Hessian is continuous across both ends of a ramp: the
            # smallest |z - P_e z|^2 / delta crosses 1/4 and 1 along a ray
            ray = np.ones(len(stratum)) / math.sqrt(len(stratum)) + np.eye(len(stratum))[0]
            ray /= np.linalg.norm(ray)
            for end in (0.25, 1.0):
                nearest = np.min(_squared_distances(handled, ray[None]))
                r = math.sqrt(info["delta"] * end / nearest)
                inside, outside = g.hess((r * (1.0 - 1e-9)) * ray), g.hess((r * (1.0 + 1e-9)) * ray)
                assert np.max(np.abs(inside - outside)) < 1e-5 * max(1.0, np.max(np.abs(inside)))


def _quintic(u):
    # the C^2 ramp from 0 to 1 on [0, 1], one scalar at a time
    return u * u * u * (10.0 - 15.0 * u + 6.0 * u * u)


def _pointwise_well(handled, stratum, delta):
    # the well one point at a time, as a product of scalar factors

    def value(z):
        out = float(z @ (np.eye(len(z)) - stratum) @ z)
        for p in handled:
            u = float(z @ (np.eye(len(z)) - p) @ z) / delta
            out *= 0.0 if u <= 0.25 else 1.0 if u >= 1.0 else _quintic((u - 0.25) / 0.75)
        return out

    return value


@pytest.mark.parametrize("case", ["ball", "tube"])
def test_normal_well_equals_its_pointwise_oracle(case):
    handled, stratum, action, plateau = _well_case(case)
    g, info = normal_well(handled, stratum, action, plateau)
    pts = _well_points(case, np.random.default_rng(12))
    value = _pointwise_well(handled, stratum, info["delta"])
    assert np.allclose(g.value(pts), [value(z) for z in pts], rtol=1e-13, atol=0.0)
    # the product rule against the pointwise differences, extrapolated
    grads, hessians = g.grad(pts), g.hess(pts)
    assert_jets_match(richardson_jets(pointwise(value), pts, 1e-4), grads, hessians)
    for z, gz, hz in zip(pts[::10], grads[::10], hessians[::10]):
        assert np.array_equal(g.grad(z), gz) and np.array_equal(g.hess(z), hz)
    # the points reach every branch: a zero factor, a ramp and the plateau
    u = _squared_distances(handled, pts) / info["delta"]
    assert np.any(u <= 0.25) and np.any((u > 0.25) & (u < 1.0))
    assert np.any(np.all(u >= 1.0, axis=1))


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


def _skipped_strata_keep_the_census_at_k_2(matrix, monkeypatch):
    # matrix has order 2, so under k = 4 and 6 every divisor past 2 repeats
    # an earlier stratum; the top stratum's stage stays the last that adds a
    # term, it averages over ord(A) = 2 group elements whatever k, and the
    # census is the one at k = 2
    runs = {}
    for k, skipped in ((2, []), (4, [4]), (6, [3, 6])):
        calls = _counting_sweeps(monkeypatch)
        out, cert = perturb_invariant_morse(
            quartic_bowl(), CyclicAction(matrix, k), epsilon=0.05, seed=0)
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


def test_strata_after_the_free_stage_are_skipped(monkeypatch):
    _skipped_strata_keep_the_census_at_k_2(np.diag([1.0, -1.0]), monkeypatch)


def test_the_antipodal_census_does_not_depend_on_the_k_of_the_action(monkeypatch):
    # the antipodal bowl's census moves with the last bit of its top-stratum
    # bump, so it holds only if the bump averages over the same ord(A) group
    # elements whatever k
    _skipped_strata_keep_the_census_at_k_2(-np.eye(2), monkeypatch)


def _refusal(f, monkeypatch):
    """The message of the ResolutionError of perturb_invariant_morse on f
    under the rotation and flip, the divisor of each call of the well step
    over its three draws."""
    stages = []
    well_step = equiperturb._well_step

    def counted(cur, strat, d, *args):
        stages.append(d)
        return well_step(cur, strat, d, *args)

    monkeypatch.setattr(equiperturb, "_well_step", counted)
    with pytest.raises(ResolutionError) as info:
        perturb_invariant_morse(f, _rotation_and_flip(), epsilon=0.05, seed=0)
    return str(info.value), stages


def test_the_tube_stage_runs_and_refuses_a_curvature_budget_it_cannot_meet(monkeypatch):
    # (x^2 + y^2)^2 + z^4 + 10 (x^2 + y^2) z^2 is flat at 0, so the well step
    # of F_1 = {0} keeps c = epsilon / 4; the z-axis stage finds the critical
    # points +-sqrt(epsilon / 16) = +-0.0559, where the normal Hessian is
    # 20 z^2 - c = 0.05: c would have to be 0.5, above epsilon, so every draw
    # refuses at the well step of F_2 before building a well
    f = FunctionSpec.make(3, [(1.0, (4, 0, 0)), (2.0, (2, 2, 0)), (1.0, (0, 4, 0)),
                              (1.0, (0, 0, 4)), (10.0, (2, 0, 2)), (10.0, (0, 2, 2))])
    message, stages = _refusal(f, monkeypatch)
    assert "stage d=2: curvature budget exceeded" in message
    assert "[0.0, 0.0, -0.055902] has lambda_max 0.05" in message
    assert stages == [1, 2] * 3
    # x^2 + y^2 + z^4 and (x^2 + y^2)^2 + z^2 have a normal Hessian of +2 at
    # their stratum points, which no C^2-small change flips: the well step
    # of F_1 = {0} already reads lambda_max 2 at the origin and refuses
    for terms in ([(1.0, (2, 0, 0)), (1.0, (0, 2, 0)), (1.0, (0, 0, 4))],
                  [(1.0, (4, 0, 0)), (2.0, (2, 2, 0)), (1.0, (0, 4, 0)), (1.0, (0, 0, 2))]):
        message, stages = _refusal(FunctionSpec.make(3, terms), monkeypatch)
        assert "stage d=1: curvature budget exceeded" in message
        assert "[0.0, 0.0, 0.0] has lambda_max 2" in message
        assert stages == [1] * 3


def test_the_certificate_samples_the_ramp_shell_of_a_three_dimensional_well():
    # -(x^2 + y^2) + z^4: the normal block is negative at every stratum
    # point, so every stage keeps c = epsilon / 4; the census is the origin
    # (index 3) and the two points +-sqrt(epsilon / 16) of the z-axis
    # (index 2), and Sum (-1)^index = 1 is the Euler characteristic of the
    # germ's local homology {2: 1}
    f = FunctionSpec.make(3, [(-1.0, (2, 0, 0)), (-1.0, (0, 2, 0)), (1.0, (0, 0, 4))])
    action = _rotation_and_flip()
    out, cert = equiperturb._build(f, strata(action), 0.05, 1.0, np.random.default_rng([0, 0]))
    assert [s["c"] for s in cert["stages"] if s.get("c") is not None] == [0.0125] * 3
    census = cert["items"]["critical_points_on_strata"]
    points = np.array([p["point"] for p in census["points"]])
    assert len(points) == 3 and np.all(np.abs(points[:, :2]) < 1e-12)
    assert np.allclose(points[:, 2], [-math.sqrt(0.05 / 16), 0.0, math.sqrt(0.05 / 16)], atol=1e-9)
    indices = [int(np.sum(np.linalg.eigvalsh(out.hess(z)) < 0.0)) for z in points]
    assert indices == [2, 3, 2]
    assert census["euler"] == 1
    # the z-axis well ramps where |z|^2 / delta runs from 1/4 to 1 around the
    # handled origin: at the xy-plane points of that shell its Hessian, times
    # c / 2, moves D^2 f by more than 2 epsilon, in a shell that holds about
    # 1e-4 of the ball's volume.  The certificate samples the shell and
    # refuses what a sample of the ball alone would pass
    delta = next(s["well"]["delta"] for s in cert["stages"] if s.get("well"))
    r = np.sqrt(np.linspace(0.25, 1.0, 31) * delta)
    shell = np.stack([r, np.zeros_like(r), np.zeros_like(r)], axis=1)
    change = np.linalg.norm(out.hess(shell) - f.hess(shell), 2, axis=(1, 2))
    assert np.max(change) > 2.0 * 0.05
    item = cert["items"]["c2_distance"]
    assert not item["passed"] and item["measured"] > 2.0 * 0.05
    assert not cert["passed"]
    with pytest.raises(ResolutionError, match=r"certificate after the stage loop: "
                                              r"c2_distance \(measured"):
        perturb_invariant_morse(f, action, epsilon=0.05, seed=0)


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
    mons = _monomials(m)
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
    mons = _monomials(m)
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
    mons = _monomials(m)
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
    mons = _monomials(m, min_degree=1)
    coeffs = rng.standard_normal(len(mons))
    scale = 2.0 * 0.45
    centers = [np.zeros(m)]
    term = _bump_poly_term(centers, scale, coeffs, mons)
    rows = []
    for t in (0.0, 0.2, 0.5, 0.505, 0.52, 0.549, 0.55, 0.8):
        z = t * scale * _unit(rng, m)
        want = _oracle_bump_poly(z, centers, scale, coeffs, mons)
        got = (term.value(z), term.grad(z), term.hess(z))
        for a, b in zip(got, want):
            assert _close(a, b), t
        rows.append(z)
    # bitwise the dense one-point form, also on the edges of the cells of
    # the bump's index, far away and at points that are not finite
    rows = np.concatenate([rows, _index_rows(np.zeros((1, m)), scale, rng)])
    _assert_bitwise_one_point(term, rows, centers, scale, list(zip(coeffs, mons)))


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
    mons = _monomials(m)
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
    mons = _monomials(m)
    centers, rows = _ramp_batch(m, rng, scale)
    return _bump_poly_term(centers, scale, rng.standard_normal(len(mons)), mons), rows


def _kinds(rng):
    """(name, function, batch) for every batched term kind."""
    out = []
    for m in (1, 2, 3):
        term, rows = _bump(m, rng)
        out.append((f"bump m={m}", term, rows))
    bump2, rows2 = _bump(2, rng)
    out.append(("orbit average", _orbit_average(bump2, rotation(math.pi / 2), 4), rows2))
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
    well, _ = normal_well(*_well_case("tube"))
    out.append(("normal well", well, _well_points("tube", rng)[:9]))
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


# the inputs whose perturbations (epsilon = 0.05, seed 0) the sweep and
# oracle-route tests read; the antipodal bowl is also the input of the
# benchmark's invariant_perturb workload
_PERTURBED = {
    "antipodal output": (quartic_bowl, lambda: CyclicAction(-np.eye(2), 2)),
    "quarter turn output": (axes_quartic, lambda: CyclicAction(rotation(math.pi / 2), 4)),
    "reflection bowl output": (quartic_bowl, reflection2),
}


def _perturbed(case):
    make_f, make_action = _PERTURBED[case]
    return perturb_invariant_morse(make_f(), make_action(), epsilon=0.05, seed=0)


def _sweep_cases():
    return {
        **{case: (lambda case=case: _perturbed(case)[0], 1.0) for case in _PERTURBED},
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



# -- the bump sum's cell index and the stacked orbit ----------------------

def _dense_bump_poly_term(centers, scale, coeffs, mons):
    """The bump term before its cell index: every row against all K centers
    through the (P, K, m) table of differences, then one block per ramp
    count R gathered from that table.  The oracle route of the bump sum."""
    centers = np.asarray(centers, dtype=float)
    m = centers.shape[1]
    kernel = _polynomial_kernel(m, list(zip(coeffs, mons)))
    width = _HI - _LO
    eye = np.eye(m)

    def jet(Z):
        W = Z[:, None, :] - centers
        r = np.sqrt(np.einsum("pki,pki->pk", W, W))
        t = r / scale
        bv = np.add.reduce(t <= _LO, axis=1, dtype=float)
        bg = np.zeros(Z.shape)
        bh = np.zeros((len(Z), m, m))
        ramp = (t > _LO) & (t < _HI)
        counts = np.add.reduce(ramp, axis=1)
        row, center = np.nonzero(ramp)
        for R in set(counts[row].tolist()):
            rows = np.flatnonzero(counts == R)
            at = counts[row] == R
            ij = row[at], center[at]
            rr = r[ij].reshape(-1, R)
            q, d1, d2 = smooth_step((_HI - t[ij].reshape(-1, R)) / width)
            d1 = -d1 / (width * scale)
            d2 = d2 / (width * scale) ** 2
            u = W[ij].reshape(-1, R, m) / rr[..., None]
            radial = d2 - d1 / rr
            bv[rows] += np.sum(q, axis=1)
            bg[rows] = np.matmul(d1[:, None, :], u)[:, 0]
            bh[rows] = (np.matmul(np.swapaxes(u * radial[..., None], 1, 2), u)
                        + np.sum(d1 / rr, axis=1)[:, None, None] * eye)
        pv, pg, ph = np.zeros(len(Z)), np.zeros(Z.shape), np.zeros(bh.shape)
        live = bv != 0.0
        if live.any():
            pv[live], pg[live], ph[live] = kernel.jet(Z[live])
        return equiperturb._product((pv, pg, ph), (bv, bg, bh))

    return CallableFunction(m, jet)


def _per_image_orbit_average(term, A, count):
    """The orbit average with one jet per group element, image j pulled back
    by j nested one-step pullbacks z -> term(A z), summed in the order of j.
    The oracle route of the stacked orbit average."""
    pulls = [term]
    for _ in range(count - 1):
        pulls.append(_pullback(pulls[-1], A))

    def jet(Z):
        parts = zip(*(p.jet(Z) for p in pulls))
        return tuple(sum(part) / len(pulls) for part in parts)

    return CallableFunction(term.d, jet)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _assert_bitwise_one_point(term, rows, centers, scale, terms):
    want = [_one_point_bump(z, np.asarray(centers, dtype=float), scale, terms) for z in rows]
    for k, part in enumerate(term.jet(rows)):
        assert _same_bits(part, np.array([w[k] for w in want])), k


def _index_rows(centers, scale, rng):
    """Rows around the centers of a bump sum: on the plateau, in the ramp
    and just past it of several centers, far outside every stencil, on and
    next to the edges of cells of side reach = 0.55 scale, near the largest
    float, and not finite."""
    m = centers.shape[1]
    reach = _HI * scale
    rows = [c + t * scale * _unit(rng, m) for c in centers[::3]
            for t in (0.2, 0.5, 0.51, 0.53, 0.549, 0.55, 0.56, 1.05)]
    lo, hi = centers.min(axis=0), centers.max(axis=0)
    rows += [hi + 2.5 * reach, lo - 2.5 * reach, hi + 3.0 * reach * np.eye(m)[0]]
    # the corners of the cells, and points a rounding away from them
    for k in rng.integers(-1, int((hi - lo).max() / reach) + 2, size=(12, m)):
        edge = lo + k * reach
        rows += [edge, np.nextafter(edge, -np.inf), np.nextafter(edge, np.inf)]
    # a center moved by exactly reach along an axis sits on the ramp's end
    rows += [c + reach * np.eye(m)[0] for c in centers[:5]]
    rows += [np.full(m, 1e308), np.full(m, -1e308)]
    bad = [np.nan, np.inf, -np.inf, 0.0]
    rows += [np.array([bad[(i + j) % 4] for j in range(m)]) for i in range(4)]
    return np.array(rows)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_the_indexed_bump_is_bitwise_the_dense_one_point_form(m):
    rng = np.random.default_rng(120 + m)
    mons = _monomials(m)
    coeffs = rng.standard_normal(len(mons))
    terms = list(zip(coeffs, mons))
    scale = 0.2
    # centers spread over many cells of side 0.11, several in some cells
    spread = rng.uniform(-0.6, 0.6, size=(30, m))
    centers = np.concatenate([spread, spread[:10] + rng.uniform(-0.02, 0.02, size=(10, m))])
    term = _bump_poly_term(centers, scale, coeffs, mons)
    rows = _index_rows(centers, scale, rng)
    _assert_bitwise_one_point(term, rows, centers, scale, terms)
    # every kind of row occurs: plateau, ramp, outside, not finite
    with np.errstate(over="ignore"):
        t = np.linalg.norm(rows[:, None, :] - centers, axis=2) / scale
    assert np.any(t <= _LO) and np.any((t > _LO) & (t < _HI))
    assert np.any(np.all(t >= _HI, axis=1)) and not np.all(np.isfinite(rows))
    value, grad, hess = term.jet(rows)
    bad = ~np.all(np.isfinite(rows), axis=1)
    assert not value[bad].any() and not grad[bad].any() and not hess[bad].any()
    # a batch of one row, and an empty batch
    _assert_bitwise_one_point(term, rows[:1], centers, scale, terms)
    assert [part.shape for part in term.jet(np.empty((0, m)))] == [(0,), (0, m), (0, m, m)]


@pytest.mark.parametrize("m", [1, 2, 3])
def test_a_tiny_scale_builds_no_table_over_the_bounding_box(m):
    # 50 centers over [-1, 1]^m at scale 1e-6: cells of side 5.5e-7, so a
    # table over the bounding box would hold (3.6e6)^m cells, 29 MB of
    # int64 at m = 1; the index holds 3^m entries per center, and building
    # it and evaluating 200 rows stays under 1 MiB
    import tracemalloc

    rng = np.random.default_rng(140 + m)
    mons = _monomials(m)
    coeffs = rng.standard_normal(len(mons))
    centers = rng.uniform(-1.0, 1.0, size=(50, m))
    scale = 1e-6
    rows = np.concatenate([_index_rows(centers, scale, rng), rng.uniform(-1.0, 1.0, (20, m))])
    tracemalloc.start()
    try:
        term = _bump_poly_term(centers, scale, coeffs, mons)
        term.jet(rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, peak
    _assert_bitwise_one_point(term, rows, centers, scale, list(zip(coeffs, mons)))
    assert np.count_nonzero(term.value(rows)) > len(rows) // 4


def test_the_orbit_average_asks_its_term_once_per_batch():
    rng = np.random.default_rng(150)
    bump, rows = _bump(2, rng)
    calls = []

    def jet(Z):
        calls.append(len(Z))
        return bump.jet(Z)

    counted = CallableFunction(2, jet)
    quarter = rotation(math.pi / 2)
    got = _orbit_average(counted, quarter, 4).jet(rows)
    assert calls == [4 * len(rows)]
    want = _per_image_orbit_average(bump, quarter, 4).jet(rows)
    assert all(_same_bits(a, b) for a, b in zip(got, want))
    # one point alone is one call too
    calls.clear()
    _orbit_average(counted, quarter, 4).jet(rows[0])
    assert calls == [4]


def _order_six_bump(rng):
    # a bump sum over the orbits of its centers, so that every image of a
    # row lies in some ramp
    A = _rotation_and_flip().matrix
    centers, rows = _ramp_batch(3, rng)
    orbits = [np.linalg.matrix_power(A, j) @ c for c in centers for j in range(6)]
    mons = _monomials(3)
    return _bump_poly_term(np.array(orbits), 0.4, rng.standard_normal(len(mons)), mons), rows, None


def _order_six_distance(rng):
    # the raw construction of the regularized distance of the xy-plane and
    # the poles (0, 0, +-1.2), at queries on both sides of the plane, and the
    # regularized distance itself
    func = RegularizedDistance.build(
        ClosedSetSpec.points([[0.0, 0.0, 1.2], [0.0, 0.0, -1.2]]),
        ClosedSetSpec.subspace(3, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
        action=_rotation_and_flip(), max_depth=6)
    queries = np.column_stack([rng.uniform(-0.8, 0.8, (40, 2)),
                               rng.choice([-1.0, 1.0], 40) * rng.uniform(0.15, 0.9, 40)])
    return CallableFunction(3, lambda Z: func._raw_values(Z, jets=True)), queries, func


@pytest.mark.parametrize("make", [_order_six_bump, _order_six_distance],
                         ids=["bump", "regularized distance"])
def test_the_orbit_average_of_order_six_is_bitwise_its_nested_pullbacks(make):
    # under rot(2 pi / 3) + (-1) images j = 4 and 5 pull back through four
    # and five factors, where a matrix power and an iterated product first
    # round differently
    term, rows, func = make(np.random.default_rng(170))
    A = _rotation_and_flip().matrix
    got = _orbit_average(term, A, 6).jet(rows)
    want = _per_image_orbit_average(term, A, 6).jet(rows)
    assert all(_same_bits(a, b) for a, b in zip(got, want))
    # no image is a zero part: each has a row with a nonzero gradient
    images = np.array([np.linalg.matrix_power(A, j) @ z for j in range(6) for z in rows])
    assert np.all(np.any(term.grad(images).reshape(6, -1) != 0.0, axis=1))
    if func is not None:
        # the regularized distance's jets and values read the same average
        assert all(_same_bits(a, b) for a, b in zip(func.jets(rows), got))
        assert _same_bits(func.values(rows), got[0])


@pytest.mark.parametrize("case", list(_PERTURBED))
def test_the_perturbation_is_bitwise_its_dense_oracle_route(case, monkeypatch):
    # the indexed bump and the stacked orbit against the dense bump and one
    # pullback per group element: the same certificate, census and output,
    # bit for bit, on whatever CPU runs the suite
    out, cert = _perturbed(case)
    built = []

    def dense(*args):
        built.append(args)
        return _dense_bump_poly_term(*args)

    monkeypatch.setattr(equiperturb, "_bump_poly_term", dense)
    monkeypatch.setattr(equiperturb, "_orbit_average", _per_image_orbit_average)
    want_out, want_cert = _perturbed(case)
    assert repr(cert) == repr(want_cert)
    assert cert["passed"]
    # the antipodal output carries the top stratum's orbit of bumps, the
    # reflection output the base stage's bump, the quarter turn none
    assert bool(built) == (case != "quarter turn output")
    z = np.random.default_rng(160).uniform(-0.3, 0.3, size=(200, 2))
    census = cert["items"]["critical_points_on_strata"]["points"]
    z = np.concatenate([z, [p["point"] for p in census]])
    assert all(_same_bits(a, b) for a, b in zip(out.jet(z), want_out.jet(z)))


def test_the_refusal_lists_every_draw_in_order(monkeypatch):
    # the quartic bowl under the trivial action fails c2_distance on each of
    # its three draws, each with a measurement of its own
    measured = []
    build = equiperturb._build

    def recorded(*args):
        out, cert = build(*args)
        measured.append(cert["items"]["c2_distance"]["measured"])
        return out, cert

    monkeypatch.setattr(equiperturb, "_build", recorded)
    with pytest.raises(ResolutionError) as info:
        perturb_invariant_morse(quartic_bowl(), CyclicAction(np.eye(2), 1), epsilon=0.05, seed=0)
    assert len(measured) == 3 and len(set(measured)) == 3 and min(measured) > 0.05
    draws = "; ".join(f"draw {i}: certificate after the stage loop: c2_distance (measured {x:.4g})"
                      for i, x in enumerate(measured))
    assert str(info.value) == f"perturbation failed after 3 draws: {draws}"
